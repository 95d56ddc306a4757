"""The state-optimal ring-of-traps ranking protocol (paper §3).

An ``(m, m+1)``-ring-of-traps partitions the ``n = m(m+1)`` rank states
into ``m`` traps of size ``m + 1`` whose gates are chained in a cycle:

* inner rule:  ``(a,b) + (a,b) → (a,b) + (a,b−1)`` for ``b > 0``;
* gate rule:   ``(a,0) + (a,0) → (a,m) + ((a+1) mod m, 0)``.

This is a *state-optimal* protocol (``x = 0``): exactly one rule per
state, all of the mandatory form ``(s,s) → (s',s'')``.  Theorem 1 shows
it self-stabilises silently in ``O(min(k·n^{3/2}, n² log² n))`` time whp
from any ``k``-distant configuration.

For population sizes that are not of the form ``m(m+1)`` the paper notes
some traps can be *reduced* below ``m + 1`` states; the constructor
implements that scatter rule (at most two states removed per trap, so
all asymptotics are preserved).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..exceptions import ProtocolError
from ..core.protocol import RankingProtocol, Transition
from .trap import TrapLayout

__all__ = ["RingOfTrapsProtocol", "ring_parameter_for"]


def ring_parameter_for(num_agents: int) -> int:
    """Smallest ``m`` with ``m(m+1) >= num_agents``."""
    if num_agents < 2:
        raise ProtocolError("ring of traps needs at least 2 agents")
    m = max(1, int(math.isqrt(num_agents)) - 1)
    while m * (m + 1) < num_agents:
        m += 1
    return m


class RingOfTrapsProtocol(RankingProtocol):
    """State-optimal self-stabilising ranking via a ring of traps.

    Parameters
    ----------
    num_agents:
        Population size ``n``.  When ``n = m(m+1)`` for some ``m`` the
        layout is the paper's exact ``(m, m+1)``-ring; otherwise the
        smallest such ``m`` above is used and ``m(m+1) − n`` states are
        removed from the traps round-robin (each trap keeps at least its
        gate).
    m:
        Optionally force the ring parameter; ``num_agents`` then
        defaults to ``m(m+1)``.
    """

    def __init__(
        self, num_agents: Optional[int] = None, m: Optional[int] = None
    ) -> None:
        if num_agents is None and m is None:
            raise ProtocolError("provide num_agents and/or m")
        if m is None:
            m = ring_parameter_for(num_agents)
        if m < 1:
            raise ProtocolError(f"ring parameter m must be >= 1, got {m}")
        if num_agents is None:
            num_agents = m * (m + 1)
        capacity = m * (m + 1)
        excess = capacity - num_agents
        if excess < 0:
            raise ProtocolError(
                f"m={m} provides only {capacity} states for "
                f"{num_agents} agents"
            )
        if excess >= m * (m + 1) - m:  # every trap must keep its gate
            raise ProtocolError(
                f"cannot shrink an m={m} ring down to {num_agents} states"
            )
        super().__init__(num_agents, num_extra_states=0)
        self._m = m

        # Remove `excess` states round-robin, at most (m) per pass.
        sizes = [m + 1] * m
        trap = 0
        while excess > 0:
            if sizes[trap] > 1:
                sizes[trap] -= 1
                excess -= 1
            trap = (trap + 1) % m

        self._traps: List[TrapLayout] = []
        base = 0
        for size in sizes:
            self._traps.append(TrapLayout(base=base, size=size))
            base += size
        assert base == num_agents

        # Per-state decode tables (hot path of delta()); plain lists so
        # lookups return unboxed Python ints.
        trap_of_state = np.empty(num_agents, dtype=np.int32)
        for index, layout in enumerate(self._traps):
            trap_of_state[layout.base : layout.base + layout.size] = index
        self._trap_of_state = trap_of_state.tolist()
        self._gate = [layout.gate for layout in self._traps]
        self._top = [layout.top for layout in self._traps]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Ring parameter: number of traps."""
        return self._m

    @property
    def num_traps(self) -> int:
        """Number of traps (== ``m``)."""
        return self._m

    @property
    def traps(self) -> List[TrapLayout]:
        """Trap layouts in ring order ``a = 0..m−1``."""
        return list(self._traps)

    def trap(self, index: int) -> TrapLayout:
        """Layout of trap ``index``."""
        return self._traps[index]

    def trap_of(self, state: int) -> int:
        """Ring index of the trap containing ``state``."""
        return self._trap_of_state[state]

    # ------------------------------------------------------------------
    # Transition function — exactly n rules, one per state
    # ------------------------------------------------------------------
    def delta(self, initiator: int, responder: int) -> Optional[Transition]:
        if initiator != responder:
            return None
        state = initiator
        trap_index = self._trap_of_state[state]
        if state != self._gate[trap_index]:
            # Inner rule R_i: responder descends toward the gate.
            return state, state - 1
        # Gate rule R_g: keep one agent at the top inner state, forward
        # the other to the next trap's gate around the ring.
        next_gate = self._gate[(trap_index + 1) % self._m]
        return self._top[trap_index], next_gate

    def same_state_rule_states(self) -> List[int]:
        return list(range(self.num_ranks))

    def state_label(self, state: int) -> str:
        trap_index = self._trap_of_state[state]
        b = state - self._traps[trap_index].base
        return f"({trap_index},{b})"

    @property
    def name(self) -> str:
        return f"RingOfTraps(m={self._m})"

"""Ranking with one extra state via lines of traps (paper §4, Theorem 2).

The ``n = 3m³(m+1)`` rank states (``m`` even) are partitioned into
``m²`` *lines of traps*; each line is a chain of ``3m`` traps of size
``m + 1`` indexed ``a = 3m`` (entrance) down to ``a = 1`` (exit).  One
extra non-rank state ``X`` collects agents released by exit gates.
Rules (states written ``(l, a, b)`` as in the paper, ``l ∈ [1, m²]``,
``a ∈ [1, 3m]``, ``b ∈ [0, m]``):

* inner:   ``(l,a,b) + (l,a,b) → (l,a,b) + (l,a,b−1)`` for ``b > 0``;
* gate:    ``(l,a,0) + (l,a,0) → (l,a,m) + (l,a−1,0)`` for ``a > 1``;
* exit:    ``(l,1,0) + (l,1,0) → (l,1,m) + X``;
* X route: ``X + X → X + (1, 3m, 0)``;
* routing: ``(l,a,b) + X → (l,a,b) + (l_i, 3m, 0)`` where
  ``i = ⌈a/m⌉ − 1 ∈ {0,1,2}`` and ``l_0, l_1, l_2`` are the neighbours
  of line ``l`` in the cubic routing graph ``G`` (Figure 1) — every
  trap *points to* one neighbouring line.

Theorem 2: this is a stable, silent, self-stabilising ranking (and
leader election) protocol with ``x = 1`` extra state and stabilisation
time ``O(n^{7/4} log² n) = o(n²)`` whp from arbitrary configurations.

For ``n`` strictly between lattice sizes, the paper scatters the
remainder by adding up to two states to each trap; the constructor
implements that (see :func:`line_parameter_for`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..core.families import Family, OrderedProduct, SameStatePairs
from ..core.protocol import PopulationProtocol, RankingProtocol, Transition
from .routing import RoutingGraph, build_routing_graph
from .trap import TrapLayout

__all__ = [
    "LineOfTrapsProtocol",
    "IsolatedLineProtocol",
    "line_parameter_for",
    "line_lattice_size",
]


def line_lattice_size(m: int) -> int:
    """The exact population size ``3m³(m+1)`` of the parameter-``m`` lattice."""
    return 3 * m**3 * (m + 1)


def line_parameter_for(num_agents: int) -> int:
    """Largest even ``m`` whose (possibly expanded) lattice covers ``n``.

    A parameter-``m`` lattice has ``3m³`` traps and can absorb up to two
    extra states per trap, i.e. it covers ``3m³(m+1) <= n <= 3m³(m+3)``.
    Raises for ``n`` in a gap between lattices (the paper's asymptotic
    scatter argument hides these; exact sizes are recommended).
    """
    if num_agents < line_lattice_size(2):
        raise ProtocolError(
            f"line protocol needs at least {line_lattice_size(2)} agents "
            f"(m = 2 lattice), got {num_agents}"
        )
    m = 2
    while line_lattice_size(m + 2) <= num_agents:
        m += 2
    if num_agents > 3 * m**3 * (m + 3):
        raise ProtocolError(
            f"population {num_agents} falls between the m={m} lattice "
            f"(max {3 * m**3 * (m + 3)}) and the m={m + 2} lattice "
            f"(min {line_lattice_size(m + 2)}); "
            "use one of the exact sizes"
        )
    return m


class LineOfTrapsProtocol(RankingProtocol):
    """Self-stabilising ranking with a single extra state (Theorem 2)."""

    def __init__(
        self, num_agents: Optional[int] = None, m: Optional[int] = None
    ) -> None:
        if num_agents is None and m is None:
            raise ProtocolError("provide num_agents and/or m")
        if m is None:
            m = line_parameter_for(num_agents)
        if m < 2 or m % 2 != 0:
            raise ProtocolError(f"lattice parameter m must be even >= 2, got {m}")
        if num_agents is None:
            num_agents = line_lattice_size(m)

        num_traps = 3 * m**3
        extra = num_agents - line_lattice_size(m)
        if not 0 <= extra <= 2 * num_traps:
            raise ProtocolError(
                f"population {num_agents} not representable with m={m} "
                f"(lattice {line_lattice_size(m)}, max +{2 * num_traps})"
            )
        super().__init__(num_agents, num_extra_states=1)
        self._m = m
        self._num_lines = m * m
        self._traps_per_line = 3 * m
        self._graph = build_routing_graph(self._num_lines)

        # Scatter the remainder: +1 state to every trap first, then +1
        # more to the first few, exactly covering `extra`.
        bonus_all, bonus_first = divmod(extra, num_traps) if extra else (0, 0)
        sizes = [
            m + 1 + bonus_all + (1 if t < bonus_first else 0)
            for t in range(num_traps)
        ]

        self._traps: List[TrapLayout] = []
        base = 0
        for size in sizes:
            self._traps.append(TrapLayout(base=base, size=size))
            base += size
        assert base == num_agents

        # Plain list so hot-path lookups return unboxed Python ints.
        trap_of_state = np.empty(num_agents, dtype=np.int32)
        for index, layout in enumerate(self._traps):
            trap_of_state[layout.base : layout.base + layout.size] = index
        self._trap_of_state = trap_of_state.tolist()
        self._base = [t.base for t in self._traps]
        self._top = [t.top for t in self._traps]

        # Per-line bookkeeping: traps of line l are the contiguous global
        # ids l*3m .. l*3m + 3m−1 in order a = 1..3m.
        self._line_first_state = [
            self._traps[l * self._traps_per_line].base
            for l in range(self._num_lines)
        ]
        self._line_first_state.append(num_agents)  # sentinel

        # Routing tables, 0-based: trap (l, a) points to line
        # neighbours(l+1)[(a−1)//m] − 1.
        self._neighbours = [
            tuple(v - 1 for v in self._graph.neighbours(l + 1))
            for l in range(self._num_lines)
        ]

        # Structural family membership, built once (see build_families).
        self._rank_state_list = list(range(self.num_ranks))
        self._all_state_list = list(range(self.num_states))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Lattice parameter (even)."""
        return self._m

    @property
    def num_lines(self) -> int:
        """Number of lines of traps, ``m²``."""
        return self._num_lines

    @property
    def traps_per_line(self) -> int:
        """Traps per line, ``3m``."""
        return self._traps_per_line

    @property
    def x_state(self) -> int:
        """Index of the single extra state ``X``."""
        return self.num_ranks

    @property
    def routing_graph(self) -> RoutingGraph:
        """The cubic graph ``G`` over lines (Figure 1)."""
        return self._graph

    def trap(self, line: int, a: int) -> TrapLayout:
        """Layout of trap ``a`` (1-based, paper numbering) of ``line`` (0-based)."""
        if not 1 <= a <= self._traps_per_line:
            raise ProtocolError(f"trap index {a} outside [1, {self._traps_per_line}]")
        return self._traps[line * self._traps_per_line + (a - 1)]

    def line_traps(self, line: int) -> List[TrapLayout]:
        """All traps of ``line`` in order ``a = 1..3m``."""
        start = line * self._traps_per_line
        return self._traps[start : start + self._traps_per_line]

    def line_states(self, line: int) -> range:
        """The contiguous rank states of ``line``."""
        return range(
            self._line_first_state[line], self._line_first_state[line + 1]
        )

    def line_of_state(self, state: int) -> int:
        """0-based line owning a rank state."""
        return self._trap_of_state[state] // self._traps_per_line

    def entrance_gate(self, line: int) -> int:
        """State ``(l, 3m, 0)`` — where routed agents enter the line."""
        return self.trap(line, self._traps_per_line).gate

    def exit_gate(self, line: int) -> int:
        """State ``(l, 1, 0)`` — releases agents to ``X``."""
        return self.trap(line, 1).gate

    def pointed_line(self, line: int, a: int) -> int:
        """Line that trap ``(line, a)`` points to (0-based)."""
        return self._neighbours[line][(a - 1) // self._m]

    # ------------------------------------------------------------------
    # Transition function
    # ------------------------------------------------------------------
    def delta(self, initiator: int, responder: int) -> Optional[Transition]:
        x = self.num_ranks
        if initiator == responder:
            if initiator == x:
                # X + X → X + (1, 3m, 0): route to line 1's entrance.
                return x, self.entrance_gate(0)
            trap_index = self._trap_of_state[initiator]
            base = self._base[trap_index]
            if initiator != base:
                # Inner rule: responder descends.
                return initiator, initiator - 1
            a = trap_index % self._traps_per_line + 1
            if a > 1:
                # Gate rule: forward to the previous trap on the line.
                return self._top[trap_index], self._base[trap_index - 1]
            # Exit gate: release to X.
            return self._top[trap_index], x
        if responder == x and initiator < x:
            # Routing rule: the rank agent directs the X agent to the
            # entrance gate of the line its trap points to.
            trap_index = self._trap_of_state[initiator]
            line = trap_index // self._traps_per_line
            a = trap_index % self._traps_per_line + 1
            target = self._neighbours[line][(a - 1) // self._m]
            return initiator, self.entrance_gate(target)
        return None

    def same_state_rule_states(self) -> List[int]:
        return list(range(self.num_states))  # every state, including X

    def build_families(self, counts: Sequence[int]) -> List[Family]:
        """Inner/gate/exit rules plus ``X + X`` as same-state pairs, the
        §4 routing rule ``(rank, X)`` as one ordered product.

        Under the fused weight index the routing family is a single
        product slot, so an ``X``-count change costs one padded-tree
        update instead of a per-family dispatch sweep.  The membership
        lists are cached — ``build_families`` runs on every engine
        construction and fault resync, and the list spans all ``n``
        rank states.
        """
        return [
            SameStatePairs(counts, self._all_state_list),
            OrderedProduct(
                counts,
                initiators=self._rank_state_list,
                responders=[self.x_state],
            ),
        ]

    def state_label(self, state: int) -> str:
        if state == self.x_state:
            return "X"
        trap_index = self._trap_of_state[state]
        line = trap_index // self._traps_per_line
        a = trap_index % self._traps_per_line + 1
        b = state - self._base[trap_index]
        return f"({line + 1},{a},{b})"

    @property
    def name(self) -> str:
        return f"LineOfTraps(m={self._m})"


class IsolatedLineProtocol(PopulationProtocol):
    """One line of traps with an absorbing release state (§4.1 testbed).

    States: traps ``a = 1..num_traps`` laid out exit-first (trap 1 at
    base 0), each ``inner_cap + 1`` states (gate + inner), plus a final
    absorbing state standing in for ``X``.  No routing back into the
    line, so runs model exactly the "no agents arrive at the entrance
    gate" premise of Lemma 5 — the released-agent count must match the
    closed form in :func:`repro.analysis.potentials.stabilise_line`.

    ``num_agents`` is free, so arbitrary ``(β, γ)`` starts can be built.
    """

    def __init__(
        self, num_traps: int, inner_cap: int, num_agents: int
    ) -> None:
        if num_traps < 1:
            raise ProtocolError(f"need at least one trap, got {num_traps}")
        if inner_cap < 0:
            raise ProtocolError(f"inner_cap must be >= 0, got {inner_cap}")
        size = inner_cap + 1
        super().__init__(
            num_states=num_traps * size + 1, num_agents=num_agents
        )
        self._num_traps = num_traps
        self._size = size
        self._traps = [
            TrapLayout(base=a * size, size=size) for a in range(num_traps)
        ]

    @property
    def num_traps(self) -> int:
        """Traps on the line (paper's ``3m`` for full lines)."""
        return self._num_traps

    @property
    def release_state(self) -> int:
        """Absorbing stand-in for ``X``."""
        return self._num_traps * self._size

    def trap(self, a: int) -> TrapLayout:
        """Trap ``a`` (1-based; trap 1 is the exit trap)."""
        if not 1 <= a <= self._num_traps:
            raise ProtocolError(f"trap index {a} outside [1, {self._num_traps}]")
        return self._traps[a - 1]

    @property
    def entrance_gate(self) -> int:
        """Gate of the highest-numbered trap."""
        return self._traps[-1].gate

    def delta(self, initiator: int, responder: int) -> Optional[Transition]:
        if initiator != responder or initiator == self.release_state:
            return None
        trap_index, offset = divmod(initiator, self._size)
        if offset > 0:
            return initiator, initiator - 1
        top = self._traps[trap_index].top
        if trap_index > 0:
            return top, self._traps[trap_index - 1].gate
        return top, self.release_state

    def same_state_rule_states(self) -> List[int]:
        return list(range(self.release_state))

    def released(self, counts: Sequence[int]) -> int:
        """Agents released from the line so far."""
        return counts[self.release_state]

    def configuration_from_vectors(
        self, beta: Sequence[int], gamma: Sequence[int]
    ) -> "Configuration":
        """Build a (tidy) configuration with the given per-trap loads.

        Inner agents are packed bottom-up: inner states ``1..`` get one
        agent each, remaining agents pile on the top inner state — a
        tidy arrangement, as §4.1 assumes.
        """
        from ..core.configuration import Configuration

        if len(beta) != self._num_traps or len(gamma) != self._num_traps:
            raise ProtocolError(
                f"need exactly {self._num_traps} beta/gamma entries"
            )
        counts = [0] * self.num_states
        for index, (b, g) in enumerate(zip(beta, gamma)):
            trap = self._traps[index]
            counts[trap.gate] = g
            inner = list(trap.inner_states)
            if not inner and b:
                raise ProtocolError("degenerate trap cannot hold inner agents")
            remaining = b
            for state in inner:
                if remaining == 0:
                    break
                counts[state] = 1
                remaining -= 1
            if remaining:
                counts[inner[-1]] += remaining
        total = sum(counts)
        if total != self.num_agents:
            raise ProtocolError(
                f"vectors hold {total} agents, protocol expects "
                f"{self.num_agents}"
            )
        return Configuration(counts)

    @property
    def name(self) -> str:
        return f"IsolatedLine(traps={self._num_traps}, m={self._size - 1})"

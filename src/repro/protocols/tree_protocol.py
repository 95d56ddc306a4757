"""The near-state-optimal tree ranking protocol (paper §5, rules R1–R5).

Rank states are the nodes of a :class:`~repro.protocols.tree.PerfectlyBalancedTree`
(pre-order numbered); ``x = 2k = O(log n)`` extra states ``X_1..X_{2k}``
form a *reset line*, split into a **red** half ``X_1..X_k`` and a
**green** half ``X_{k+1}..X_{2k}``.  The rules:

* ``R1`` — dispersion down the tree: two agents on a non-branching node
  ``p`` send the responder to ``p+1``; on a branching node both agents
  vacate to the two children ``p+1`` and ``p+l+1``.
* ``R2`` — reset trigger: two agents on a *leaf* both jump to ``X_1``.
* ``R3`` — line progression: ``X_i + X_j → X_{i+1} + X_{i+1}`` whenever
  ``i <= j`` and ``i < 2k``.
* ``R4`` — line/tree interaction: a red ``X_i`` (``i <= k``) meeting a
  rank state resets both to ``X_1``; a green ``X_i`` (``i > k``) drops
  to the root (rank 0), leaving the responder unchanged.
* ``R5`` — line exit: ``X_{2k} + X_{2k} → 0 + 0``.

Theorem 3: the protocol is a stable, silent, self-stabilising ranking
(and hence leader election) protocol running in ``O(n log n)`` time whp.

This module also provides :class:`TreeDispersalProtocol` — rule R1
alone, with no extra states.  It is exactly the object analysed by
Lemmas 19–20 (perfect dispersion from the root, progress along
root-to-leaf paths) and doubles as the natural ablation: *without* the
reset line it reaches silent-but-incorrect configurations from
unbalanced starts, demonstrating why R2–R5 exist.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..exceptions import ProtocolError
from ..core.families import Family, OrderedProduct, SameStatePairs, TriangularLine
from ..core.protocol import RankingProtocol, Transition
from .tree import NodeKind, PerfectlyBalancedTree

__all__ = [
    "TreeRankingProtocol",
    "TreeDispersalProtocol",
    "default_line_half_length",
]


def default_line_half_length(num_agents: int) -> int:
    """Default ``k`` (half the reset line): ``Θ(log n)`` as in the paper.

    The paper requires a constant ``k >= d'`` large enough for the
    Lemma 21 epidemic argument; ``2·ceil(log2 n)`` (minimum 2) is
    comfortable in practice and keeps ``x = O(log n)``.
    """
    return max(2, 2 * math.ceil(math.log2(max(2, num_agents))))


class TreeRankingProtocol(RankingProtocol):
    """Self-stabilising ranking with ``O(log n)`` extra states (Thm 3)."""

    def __init__(self, num_agents: int, k: Optional[int] = None) -> None:
        if k is None:
            k = default_line_half_length(num_agents)
        if k < 1:
            raise ProtocolError(f"reset line half-length k must be >= 1, got {k}")
        super().__init__(num_agents, num_extra_states=2 * k)
        self._k = k
        self._tree = PerfectlyBalancedTree(num_agents)
        # Family membership lists are structural; build them once.
        # ``build_families`` runs per engine construction *and* per
        # fault-injection resync, and the weight-sync cross-checks call
        # it per event.
        self._rank_state_list = list(self.rank_states)
        self._line_state_list = list(self.line_states)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def tree(self) -> PerfectlyBalancedTree:
        """The tree of ranks."""
        return self._tree

    @property
    def k(self) -> int:
        """Half-length of the reset line (red = ``X_1..X_k``)."""
        return self._k

    @property
    def line_states(self) -> range:
        """Extra states ``X_1..X_{2k}`` in line order."""
        return self.extra_states

    def line_state(self, i: int) -> int:
        """State index of ``X_i`` (``i`` is 1-based as in the paper)."""
        if not 1 <= i <= 2 * self._k:
            raise ProtocolError(f"X index {i} outside [1, {2 * self._k}]")
        return self.num_ranks + i - 1

    def line_index(self, state: int) -> int:
        """1-based ``i`` with ``state == X_i``."""
        if state < self.num_ranks or state >= self.num_states:
            raise ProtocolError(f"state {state} is not a line state")
        return state - self.num_ranks + 1

    def is_red(self, state: int) -> bool:
        """True iff ``state`` is a red line state ``X_1..X_k``."""
        return self.num_ranks <= state < self.num_ranks + self._k

    def is_green(self, state: int) -> bool:
        """True iff ``state`` is a green line state ``X_{k+1}..X_{2k}``."""
        return self.num_ranks + self._k <= state < self.num_states

    # ------------------------------------------------------------------
    # Transition function (R1–R5, exactly as written in the paper)
    # ------------------------------------------------------------------
    def delta(self, initiator: int, responder: int) -> Optional[Transition]:
        n = self.num_ranks
        if initiator < n:
            if responder != initiator:
                return None  # distinct ranks never interact; (rank, X) is null
            return self._rank_pair_rule(initiator)
        # Initiator is a line state.
        i = initiator - n + 1
        if responder >= n:
            j = responder - n + 1
            if i > j:
                return None
            if i < 2 * self._k:  # R3: both move to X_{i+1}
                return initiator + 1, initiator + 1
            return 0, 0  # R5 (i == j == 2k)
        # R4: line initiator, rank responder.
        if i <= self._k:  # red: propagate the reset (X_1 is state n)
            return n, n
        return 0, responder  # green: relocate to the root

    def _rank_pair_rule(self, p: int) -> Transition:
        kind = self._tree.kind(p)
        if kind == NodeKind.LEAF:  # R2: reset trigger, both to X_1
            return self.num_ranks, self.num_ranks
        if kind == NodeKind.BRANCHING:  # R1, branching: both vacate
            return self._tree.left_child(p), self._tree.right_child(p)
        return p, p + 1  # R1, non-branching: responder descends

    # ------------------------------------------------------------------
    # Engine integration: three disjoint weight families
    # ------------------------------------------------------------------
    def build_families(self, counts: Sequence[int]) -> List[Family]:
        """R1/R2 as same-state pairs, R3/R5 as the triangular reset
        line, R4 as the (line × rank) ordered product.

        The jump engine compiles these into one fused weight index
        (:class:`~repro.core.fused.FusedIndex`): the reset line updates
        in O(1) from count moments and R4 collapses to one product
        slot, which is what makes reset storms cheap to simulate.
        """
        line = self._line_state_list
        return [
            SameStatePairs(counts, self._rank_state_list),
            TriangularLine(counts, line),
            OrderedProduct(counts, initiators=line,
                           responders=self._rank_state_list),
        ]

    def state_label(self, state: int) -> str:
        if state < self.num_ranks:
            return f"rank{state}"
        return f"X{self.line_index(state)}"

    @property
    def name(self) -> str:
        return f"TreeRanking(k={self._k})"


class TreeDispersalProtocol(RankingProtocol):
    """Rule R1 alone (no reset line): the Lemma 19–20 dispersal process.

    *Not* self-stabilising: from an unbalanced configuration it goes
    silent with an overloaded leaf and a missing rank.  From the
    all-at-the-root configuration (Lemma 19) it ranks perfectly in
    ``O(n log n)`` time whp (Lemma 20).
    """

    def __init__(self, num_agents: int) -> None:
        super().__init__(num_agents, num_extra_states=0)
        self._tree = PerfectlyBalancedTree(num_agents)

    @property
    def tree(self) -> PerfectlyBalancedTree:
        """The tree of ranks."""
        return self._tree

    def delta(self, initiator: int, responder: int) -> Optional[Transition]:
        if initiator != responder:
            return None
        p = initiator
        kind = self._tree.kind(p)
        if kind == NodeKind.LEAF:
            return None  # no R2: overloaded leaves are dead ends
        if kind == NodeKind.BRANCHING:
            return self._tree.left_child(p), self._tree.right_child(p)
        return p, p + 1

    def same_state_rule_states(self) -> List[int]:
        return [
            p for p in range(self.num_ranks) if not self._tree.is_leaf(p)
        ]

    def state_label(self, state: int) -> str:
        return f"rank{state}"

    @property
    def name(self) -> str:
        return "TreeDispersal"

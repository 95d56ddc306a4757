"""Weight families: the structure of a protocol's productive ordered pairs.

In the probabilistic population protocol model a scheduler draws, at
every step, one *ordered* pair of distinct agents uniformly at random.
Most draws are null (the transition function leaves both agents
unchanged); the expensive protocols of the paper perform `Θ(n²)` such
draws.  The jump engine therefore never enumerates null interactions —
it only needs, at any moment, ``W``, the exact number of *productive*
ordered agent pairs, and a way to sample one of them uniformly.

Every protocol in the paper induces productive pairs of exactly three
structural shapes, captured by the three :class:`Family` subclasses
below.  Families hold *disjoint* sets of ordered state pairs, and the
union over a protocol's families must equal the productive support of
its transition function (verified by :func:`check_family_coverage`).

A family describes its pair set and keeps the counts it needs for its
weight: exact Python integers (pair counts), updated incrementally on
every agent count change.  Families do not sample.  The jump engines
compile them into one :class:`~repro.core.fused.FusedIndex`, which
accepts exactly these three types and does all the sampling; the
sequential and rejection engines read only their weights.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError

__all__ = [
    "Family",
    "SameStatePairs",
    "OrderedProduct",
    "TriangularLine",
    "check_family_coverage",
]

class Family(ABC):
    """A set of ordered state pairs, weighted by current agent counts."""

    @property
    @abstractmethod
    def weight(self) -> int:
        """Number of productive ordered agent pairs in this family."""

    def states(self) -> Iterator[int]:
        """Every state whose count can influence this family's weight.

        Engines use this to precompile per-state dispatch maps (only the
        families that actually touch a state get notified of its count
        changes).  The default derives the set from :meth:`pairs`;
        concrete families override it with their membership lists.
        """
        seen = set()
        for si, sj in self.pairs():
            if si not in seen:
                seen.add(si)
                yield si
            if sj not in seen:
                seen.add(sj)
                yield sj

    @abstractmethod
    def on_count_change(self, state: int, old: int, new: int) -> int:
        """Notify the family that ``state``'s agent count changed.

        Returns the resulting change of :attr:`weight`, so callers can
        maintain the total productive weight ``W`` incrementally instead
        of re-summing every family after every event.
        """

    @abstractmethod
    def covers(self, initiator: int, responder: int) -> bool:
        """Structural membership test (ignores current counts).

        ``covers(si, sj)`` is True iff the ordered pair ``(si, sj)``
        belongs to this family's pair set, i.e. it would be productive
        whenever enough agents occupy those states.
        """

    @abstractmethod
    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over every ordered state pair this family covers.

        The enumeration is structural (count-independent) and finite;
        engines use it to precompile transition tables.
        """


class SameStatePairs(Family):
    """Pairs ``(s, s)`` for every state ``s`` carrying a same-state rule.

    With ``c`` agents in state ``s`` there are ``c·(c−1)`` ordered pairs
    of distinct agents both in ``s``.  Covers the entire transition
    function of every *state-optimal* protocol in the paper (AG, traps,
    ring of traps) as well as the same-state rules of the richer ones.
    """

    __slots__ = ("_has_rule", "_rule_states", "_weight")

    def __init__(self, counts: Sequence[int], rule_states: Iterable[int]) -> None:
        # One numpy mask gives the rule test, the ascending rule states
        # and the weight; at n = 10⁶ a per-state Python pass for each
        # cost a few hundred milliseconds.
        mask = np.zeros(len(counts), dtype=bool)
        mask[np.fromiter(rule_states, dtype=np.intp)] = True
        self._has_rule: List[bool] = mask.tolist()
        self._rule_states: List[int] = np.flatnonzero(mask).tolist()
        rule_counts = np.asarray(counts, dtype=np.int64)[mask]
        self._weight = int((rule_counts * (rule_counts - 1)).sum())

    @property
    def weight(self) -> int:
        return self._weight

    def on_count_change(self, state: int, old: int, new: int) -> int:
        if not self._has_rule[state]:
            return 0
        delta = new * (new - 1) - old * (old - 1)
        self._weight += delta
        return delta

    def covers(self, initiator: int, responder: int) -> bool:
        """True iff the pair is a same-state pair with a rule."""
        return initiator == responder and self._has_rule[initiator]

    def pairs(self) -> Iterator[Tuple[int, int]]:
        return ((state, state) for state in self._rule_states)

    def states(self) -> Iterator[int]:
        return iter(self._rule_states)

    def rule_states(self) -> List[int]:
        """The states carrying a same-state rule, ascending (fused-index
        compilation).  The stored list itself: callers must not mutate
        it."""
        return self._rule_states


class OrderedProduct(Family):
    """All pairs (initiator ∈ A, responder ∈ B) with A, B disjoint.

    Weight is ``(Σ_{a∈A} c_a) · (Σ_{b∈B} c_b)``; each side keeps its
    count total.

    Used for the §4 routing rule ``(rank state, X) → (rank state, gate)``
    (A = rank states, B = {X}) and the §5 rule R4 ``(X_i, rank)``
    (A = reset-line states, B = rank states).
    """

    __slots__ = ("_initiators", "_responders", "_side", "_init_total",
                 "_resp_total")

    #: ``_side`` codes: a state is on one side at most.
    NONE, INITIATOR, RESPONDER = 0, 1, 2

    def __init__(
        self,
        counts: Sequence[int],
        initiators: Sequence[int],
        responders: Sequence[int],
    ) -> None:
        init_set = set(initiators)
        if init_set & set(responders):
            raise SimulationError(
                "OrderedProduct initiator/responder groups must be disjoint"
            )
        self._initiators = list(initiators)
        self._responders = list(responders)
        num_states = len(counts)
        # One side map, so a count change resolves its side with a
        # single lookup.
        self._side = [self.NONE] * num_states
        for state in self._initiators:
            self._side[state] = self.INITIATOR
        for state in self._responders:
            self._side[state] = self.RESPONDER
        self._init_total = sum(counts[s] for s in self._initiators)
        self._resp_total = sum(counts[s] for s in self._responders)

    @property
    def weight(self) -> int:
        return self._init_total * self._resp_total

    @property
    def initiators(self) -> List[int]:
        """Initiator-side states, in construction order."""
        return list(self._initiators)

    @property
    def responders(self) -> List[int]:
        """Responder-side states, in construction order."""
        return list(self._responders)

    def on_count_change(self, state: int, old: int, new: int) -> int:
        side = self._side[state]
        if side == self.NONE:
            return 0
        if side == self.INITIATOR:
            self._init_total += new - old
            return (new - old) * self._resp_total
        self._resp_total += new - old
        return self._init_total * (new - old)

    def covers(self, initiator: int, responder: int) -> bool:
        return (
            self._side[initiator] == self.INITIATOR
            and self._side[responder] == self.RESPONDER
        )

    def pairs(self) -> Iterator[Tuple[int, int]]:
        for initiator in self._initiators:
            for responder in self._responders:
                yield initiator, responder

    def states(self) -> Iterator[int]:
        yield from self._initiators
        yield from self._responders


class TriangularLine(Family):
    """Pairs ``(L[i], L[j])`` with ``i ≤ j`` over an ordered list of states.

    This is the shape of §5's rule R3 on the reset line ``X_1..X_{2k}``
    (together with R5 at the top): an interaction is productive exactly
    when the initiator's line index does not exceed the responder's.

    The weight has a closed form in the count moments: with
    ``S = Σ c_i`` and ``Q = Σ c_i²``,

        ``W = Σ c_i(c_i−1) + Σ_{i<j} c_i c_j = (Q − S) + (S² − Q)/2``

    so a count change updates ``W`` in O(1) from running ``S``/``Q``
    bookkeeping — no per-change recompute over the line.
    """

    __slots__ = ("_line", "_pos", "_sum", "_sumsq")

    def __init__(self, counts: Sequence[int], line_states: Sequence[int]) -> None:
        self._line = list(line_states)
        self._pos = {state: i for i, state in enumerate(self._line)}
        if len(self._pos) != len(self._line):
            raise SimulationError("TriangularLine states must be distinct")
        line_counts = [counts[s] for s in self._line]
        self._sum = sum(line_counts)
        self._sumsq = sum(c * c for c in line_counts)

    @property
    def weight(self) -> int:
        # S² − Q is always even: S² = Q + 2·Σ_{i<j} c_i c_j.
        s, q = self._sum, self._sumsq
        return (q - s) + (s * s - q) // 2

    def line_states(self) -> List[int]:
        """The line's states in order (fused-index compilation)."""
        return list(self._line)

    def on_count_change(self, state: int, old: int, new: int) -> int:
        pos = self._pos.get(state)
        if pos is None:
            return 0
        before = self.weight
        self._sum += new - old
        self._sumsq += new * new - old * old
        return self.weight - before

    def covers(self, initiator: int, responder: int) -> bool:
        pos_i = self._pos.get(initiator)
        pos_j = self._pos.get(responder)
        if pos_i is None or pos_j is None:
            return False
        return pos_i <= pos_j

    def pairs(self) -> Iterator[Tuple[int, int]]:
        line = self._line
        for i, initiator in enumerate(line):
            for responder in line[i:]:
                yield initiator, responder

    def states(self) -> Iterator[int]:
        return iter(self._line)


def check_family_coverage(protocol, counts: Sequence[int] | None = None) -> None:
    """Verify families exactly cover the productive support of ``delta``.

    Enumerates all ordered state pairs (quadratic — test-sized protocols
    only) and checks that a pair is productive under the transition
    function iff exactly one family covers it, and that each family's
    :meth:`Family.pairs` enumeration agrees with its ``covers``
    predicate.  Raises :class:`SimulationError` on any mismatch.
    """
    if counts is None:
        counts = [1] * protocol.num_states
    families = protocol.build_families(list(counts))
    num_states = protocol.num_states
    for si in range(num_states):
        for sj in range(num_states):
            productive = protocol.delta(si, sj) is not None
            covering = sum(1 for f in families if f.covers(si, sj))
            if productive and covering != 1:
                raise SimulationError(
                    f"pair ({si}, {sj}) productive but covered by "
                    f"{covering} families"
                )
            if not productive and covering != 0:
                raise SimulationError(
                    f"pair ({si}, {sj}) null but covered by {covering} families"
                )
    for family in families:
        for si, sj in family.pairs():
            if not family.covers(si, sj):
                raise SimulationError(
                    f"family enumerates pair ({si}, {sj}) it does not cover"
                )

"""The fused index's vectorised layout passes against their loop versions.

Two structures every proposal draw and every compiled transition index
into are built with numpy; both must match the pure-Python builds they
replaced exactly, not just in distribution:

* :meth:`_ProposalPool.classify` — the pool's member agent array
  (``agents``/``where``/``positions``), window and weight, checked
  against a verbatim copy of the dict-histogram classifier;
* ``FusedIndex.state_steps`` — the per-state update plans, laid out
  relative to their state on first use, resolved state by state and
  checked against the eager absolute builds.
"""

import gc
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    AGProtocol,
    LineOfTrapsProtocol,
    ModifiedTreeProtocol,
    RingOfTrapsProtocol,
    TreeRankingProtocol,
    random_configuration,
)
from repro.core.families import OrderedProduct, SameStatePairs, TriangularLine
from repro.core.fused import (
    _POOL_MAX_PROPOSALS,
    _POOL_TREE_COST_RATIO,
    _SCAN_SIDE_STATES,
    PRODUCT,
    SAME,
    SCALED_SAME,
    SCANNED,
    TRIANGULAR,
    FusedIndex,
    _ProductSlot,
    _ProposalPool,
    _TriangularSlot,
)


class ReferencePool:
    """The dict-histogram classifier, kept verbatim as the oracle."""

    def __init__(self, num_states, candidate_states):
        self.states = list(candidate_states)
        self.positions = [None] * num_states
        self.agents = []
        self.where = []
        self.weight = 0
        self.mhat = 1
        self.lo = 2
        self.hi = 0

    def classify(self, counts):
        positions = self.positions
        agents = self.agents
        # Histogram of candidate counts (counts >= 2 carry weight).
        by_count: Dict[int, List[int]] = {}
        for state in self.states:
            count = counts[state]
            if count >= 2:
                by_count.setdefault(count, []).append(state)
            else:
                positions[state] = None
        del agents[:]
        del self.where[:]
        window = None
        if by_count:
            distinct = sorted(by_count)
            pair_mass = [
                len(by_count[c]) * c * (c - 1) for c in distinct
            ]
            agent_mass = [len(by_count[c]) * c for c in distinct]
            total_pairs = sum(pair_mass)
            best = _POOL_TREE_COST_RATIO * total_pairs  # empty pool
            # O(distinct²) window search — distinct counts are few (the
            # profile at any moment clusters around a handful of
            # values), and reclassification is off the per-event path.
            for hi_idx in range(len(distinct) - 1, -1, -1):
                hi = distinct[hi_idx]
                pairs = 0
                members = 0
                for lo_idx in range(hi_idx, -1, -1):
                    pairs += pair_mass[lo_idx]
                    members += agent_mass[lo_idx]
                    if hi * members > _POOL_MAX_PROPOSALS * pairs:
                        break
                    cost = (
                        hi * members
                        + _POOL_TREE_COST_RATIO * (total_pairs - pairs)
                    )
                    if cost < best:
                        best = cost
                        window = (distinct[lo_idx], hi)
        weight = 0
        if window is not None:
            lo, hi = window
            for count, bucket in by_count.items():
                if not lo <= count <= hi:
                    for state in bucket:
                        positions[state] = None
                    continue
                for state in bucket:
                    base = len(agents)
                    positions[state] = list(range(base, base + count))
                    agents.extend([state] * count)
                    self.where.extend(range(count))
                weight += len(bucket) * count * (count - 1)
            self.lo, self.hi = lo, hi
            self.mhat = hi
        else:
            for bucket in by_count.values():
                for state in bucket:
                    positions[state] = None
            self.lo, self.hi = 2, 0  # empty window: nothing migrates in
            self.mhat = 1
        self.weight = weight


#: Count profiles the classifier must lay out identically: many ties on
#: a few values, nothing paired (the empty window), a flat profile with
#: one heavy outlier, and unstructured counts.
_PROFILES = {
    "ties": st.integers(min_value=0, max_value=4),
    "below-two": st.integers(min_value=0, max_value=1),
    "outlier": st.integers(min_value=0, max_value=3),
    "spread": st.integers(min_value=0, max_value=60),
}


@st.composite
def pool_cases(draw):
    """``(num_states, candidates, [counts, counts])`` in candidate order.

    Candidates are a shuffled subset of the states (bucket and member
    order follow candidate order, not state order); two successive
    count vectors check that a reclassification leaves nothing behind.
    """
    num_states = draw(st.integers(min_value=1, max_value=48))
    candidates = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_states - 1),
            unique=True, max_size=num_states,
        )
    )
    vectors = []
    for _ in range(2):
        profile = draw(st.sampled_from(sorted(_PROFILES)))
        counts = draw(
            st.lists(
                _PROFILES[profile], min_size=num_states, max_size=num_states
            )
        )
        if profile == "outlier":
            counts[draw(st.integers(0, num_states - 1))] = draw(
                st.integers(min_value=50, max_value=5000)
            )
        vectors.append(counts)
    return num_states, candidates, vectors


def _assert_same_layout(pool, reference, candidates, member):
    assert pool.agents == reference.agents
    assert pool.where == reference.where
    assert pool.positions == reference.positions
    assert (pool.lo, pool.hi) == (reference.lo, reference.hi)
    assert pool.mhat == reference.mhat
    assert pool.weight == reference.weight
    assert type(pool.weight) is int
    assert all(type(a) is int for a in pool.agents)
    expected = [reference.positions[s] is not None for s in candidates]
    assert member.tolist() == expected


class TestClassifierMatchesDictHistogram:
    @given(pool_cases())
    @settings(max_examples=300, deadline=None)
    @example((5, [], [[0, 3, 2, 9, 1], [1] * 5]))
    @example((6, [5, 1, 3, 0], [[1, 0, 1, 1, 0, 1], [0] * 6]))
    @example((8, [7, 2, 4, 1, 6], [[2] * 8, [3, 2, 2, 3, 2, 2, 3, 3]]))
    @example(
        (6, [0, 1, 2, 3, 4, 5], [[2, 2, 2, 2, 2, 900], [3, 0, 3, 1, 3, 3]])
    )
    def test_layout_matches_oracle(self, case):
        num_states, candidates, vectors = case
        pool = _ProposalPool(num_states, candidates)
        reference = ReferencePool(num_states, candidates)
        agents, where, positions = pool.agents, pool.where, pool.positions
        for counts in vectors:
            member = pool.classify(counts)
            reference.classify(counts)
            _assert_same_layout(pool, reference, candidates, member)
            # Hot loops hold these lists: refilled, never replaced.
            assert pool.agents is agents
            assert pool.where is where
            assert pool.positions is positions

    def test_collector_state_is_restored(self):
        # classify pauses the cyclic GC while it builds member lists; it
        # must hand the collector back exactly as it found it.
        pool = _ProposalPool(4, [0, 1, 2, 3])
        assert gc.isenabled()
        pool.classify([3, 2, 2, 0])
        assert gc.isenabled()
        gc.disable()
        try:
            pool.classify([3, 2, 2, 0])
            assert not gc.isenabled()
        finally:
            gc.enable()

    @given(pool_cases())
    @settings(max_examples=50, deadline=None)
    def test_numpy_counts_match_list_counts(self, case):
        num_states, candidates, vectors = case
        from_list = _ProposalPool(num_states, candidates)
        from_array = _ProposalPool(num_states, candidates)
        for counts in vectors:
            mask = from_list.classify(counts)
            array_mask = from_array.classify(np.asarray(counts))
            assert from_array.agents == from_list.agents
            assert from_array.positions == from_list.positions
            assert array_mask.tolist() == mask.tolist()


def eager_state_steps(index, families, num_states):
    """The per-state plans built eagerly, structure by structure, in the
    plain-integer layout: ``(PRODUCT, slot, node, initiator)`` on a
    product side of more than ``_SCAN_SIDE_STATES`` states,
    ``(SCANNED, slot, initiator)`` on a shorter one,
    ``(TRIANGULAR, slot, pos)`` and ``(SAME, slot, node)``."""
    steps = [[] for _ in range(num_states)]
    slot = 0
    same_state = []
    for family in families:
        if type(family) is SameStatePairs:
            same_state.append(family)
            continue
        payload = index.slot_payload[slot]
        if type(family) is OrderedProduct:
            for side, initiator in (
                (payload.initiators, True), (payload.responders, False)
            ):
                scanned = len(side) <= _SCAN_SIDE_STATES
                for pos, state in enumerate(side):
                    steps[state].append(
                        (SCANNED, slot, initiator) if scanned
                        else (PRODUCT, slot, pos + 1, initiator)
                    )
        else:
            for pos, state in enumerate(payload.line):
                steps[state].append((TRIANGULAR, slot, pos))
        slot += 1
    num_composite = index.num_composite
    slot = num_composite
    for family in same_state:
        for state in family.rule_states():
            steps[state].append((SAME, slot, slot - num_composite + 1))
            slot += 1
    return [tuple(entries) for entries in steps]


def _plain(plan):
    """True iff every field of every step is an int or a bool."""
    return all(type(x) in (int, bool) for step in plan for x in step)


@st.composite
def scattered_structures(draw):
    """``(num_states, families, classes)``: an ordered product, a line
    and same-state rules over disjoint parts of a shuffled list of
    consecutive-state blocks, optionally under a class partition."""
    num_states = draw(st.integers(6, 420))
    cuts = sorted(draw(st.sets(
        st.integers(1, num_states - 1), max_size=40
    )))
    blocks = [
        list(range(a, b))
        for a, b in zip([0] + cuts, cuts + [num_states])
    ]
    order = draw(st.permutations(range(len(blocks))))
    members = [state for k in order for state in blocks[k]]
    a, b = sorted(draw(st.lists(
        st.integers(1, num_states - 1), min_size=2, max_size=2
    )))
    initiators, responders, line = members[:a], members[a:b], members[b:]
    rules = sorted(draw(st.sets(st.sampled_from(members), max_size=60)))

    def families(counts):
        built = [OrderedProduct(counts, initiators, responders)]
        if line:
            built.append(TriangularLine(counts, line))
        if rules:
            built.append(SameStatePairs(counts, rules))
        return built

    classes = ()
    if draw(st.booleans()):
        classes = (
            [draw(st.integers(0, 1)) if s % 7 == 0 else (s // 7) % 2
             for s in range(num_states)],
            [[2, 3], [5, 7]],
        )
    return num_states, families, classes


def absolute_plan(state, plan):
    """``plan`` with each positional offset resolved against ``state``:
    the absolute layout of the eager builds."""
    resolved = []
    for step in plan:
        code = step[0]
        if code == PRODUCT or code == TRIANGULAR:
            resolved.append(step[:2] + (state + step[2],) + step[3:])
        elif code == SAME or code == SCALED_SAME:
            resolved.append(
                (code, state + step[1], state + step[2]) + step[3:]
            )
        else:  # SCANNED names no position
            resolved.append(step)
    return tuple(resolved)


def slot_state_steps(index):
    """The per-state plans built eagerly from the index's slots, in the
    absolute layout: structures in slot order (a product slot's
    initiator side before its responder side), the same-state block
    last, with its class factors on a class-scaled index."""
    steps = [[] for _ in range(index._num_states)]
    for slot in range(index.num_composite):
        payload = index.slot_payload[slot]
        if type(payload) is _ProductSlot:
            for side, initiator in (
                (payload.initiators, True), (payload.responders, False)
            ):
                scanned = len(side) <= _SCAN_SIDE_STATES
                for pos, state in enumerate(side):
                    steps[state].append(
                        (SCANNED, slot, initiator) if scanned
                        else (PRODUCT, slot, pos + 1, initiator)
                    )
        elif type(payload) is _TriangularSlot:
            for pos, state in enumerate(payload.line):
                steps[state].append((TRIANGULAR, slot, pos))
    for slot in range(index.num_composite, index.num_slots):
        pos = slot - index.num_composite
        if index.same_factors is None:
            step = (SAME, slot, pos + 1)
        else:
            step = (SCALED_SAME, slot, pos + 1, index.same_factors[pos])
        steps[index.slot_payload[slot]].append(step)
    return [tuple(entries) for entries in steps]


def check_plans(index, expected):
    """The index lays out nothing before its first use, then one plan
    per state whose absolute form is ``expected``'s, plain integers
    only, with equal plans shared as one tuple."""
    assert index.state_steps == []
    steps = index.plans()
    assert steps is index.state_steps
    assert len(steps) == len(expected)
    for state, plan in enumerate(steps):
        assert absolute_plan(state, plan) == expected[state], state
        assert _plain(plan)
    assert len({id(plan) for plan in steps}) == len(set(steps))
    assert index.plans() is steps


#: Five-state class blocks alternating between two classes, whose
#: same-state factors differ: every product side and line splits into
#: class blocks whose members form runs of up to five states.
def _block_classes(num_states):
    return ([(s // 5) % 2 for s in range(num_states)], [[2, 3], [5, 7]])


PLAN_PROTOCOLS = [
    TreeRankingProtocol(37, k=3),
    ModifiedTreeProtocol(21, k=3),
    LineOfTrapsProtocol(m=2),
    RingOfTrapsProtocol(m=4),
    AGProtocol(12),
    # 200 ranks: a product side above the scan bound.
    pytest.param(TreeRankingProtocol(200, k=3), id="TreeRankingProtocol-n200"),
]


def _families(protocol):
    counts = random_configuration(
        protocol, seed=3, include_extras=True
    ).counts_list()
    return protocol.build_families(counts), counts


class TestLazyPlansMatchEagerBuild:
    @pytest.mark.parametrize(
        "protocol", PLAN_PROTOCOLS, ids=lambda p: type(p).__name__
    )
    def test_every_state_plan(self, protocol):
        """Against the family-by-family build."""
        families, counts = _families(protocol)
        num_states = protocol.num_states
        index = FusedIndex(families, num_states, counts)
        check_plans(index, eager_state_steps(index, families, num_states))

    @pytest.mark.parametrize(
        "protocol", PLAN_PROTOCOLS, ids=lambda p: type(p).__name__
    )
    def test_every_state_plan_scaled(self, protocol):
        """Class-scaled (five-state class blocks), against the
        slot-by-slot build."""
        families, counts = _families(protocol)
        num_states = protocol.num_states
        index = FusedIndex(
            families, num_states, counts, *_block_classes(num_states)
        )
        check_plans(index, slot_state_steps(index))

    def test_tree_has_two_plans(self):
        """Every rank shares one plan and every reset-line state another,
        at any n."""
        for n in (37, 200, 4096):
            protocol = TreeRankingProtocol(n)
            counts = random_configuration(protocol, seed=1).counts_list()
            index = FusedIndex(
                protocol.build_families(counts), protocol.num_states, counts
            )
            steps = index.plans()
            assert len({id(plan) for plan in steps}) == 2
            assert steps[0] is steps[n - 1]
            assert steps[n] is steps[protocol.num_states - 1]

    @given(scattered_structures())
    @settings(max_examples=60, deadline=None)
    def test_scattered_members(self, case):
        """Product sides, lines and same-state rules whose members come
        in shuffled blocks of consecutive states (long sides keep trees,
        short ones are scanned), unscaled and class-scaled."""
        num_states, families, classes = case
        counts = [1] * num_states
        index = FusedIndex(families(counts), num_states, counts, *classes)
        check_plans(index, slot_state_steps(index))

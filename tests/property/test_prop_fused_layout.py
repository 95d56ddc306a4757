"""The fused index's vectorised layout passes against their loop versions.

Two structures every proposal draw and every compiled transition index
into are built with numpy; both must match the pure-Python builds they
replaced exactly, not just in distribution:

* :meth:`_ProposalPool.classify` — the pool's member agent array
  (``agents``/``where``/``positions``), window and weight, checked
  against a verbatim copy of the dict-histogram classifier;
* ``FusedIndex.state_steps`` — the per-state update plans, built on
  first use, checked against the eager per-state build.
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
from repro.core.families import OrderedProduct, SameStatePairs
from repro.core.fused import (
    _POOL_MAX_PROPOSALS,
    _POOL_TREE_COST_RATIO,
    PRODUCT,
    SAME,
    TRIANGULAR,
    FusedIndex,
    _ProposalPool,
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
    """The per-state plans as the index used to build them, eagerly."""
    steps = [[] for _ in range(num_states)]
    slot = 0
    same_state = []
    for family in families:
        if type(family) is SameStatePairs:
            same_state.append(family)
            continue
        payload = index.slot_payload[slot]
        if type(family) is OrderedProduct:
            for pos, state in enumerate(payload.initiators):
                steps[state].append(
                    (PRODUCT, payload.init_tree, pos + 1,
                     payload.init_size, slot, payload, True)
                )
            for pos, state in enumerate(payload.responders):
                steps[state].append(
                    (PRODUCT, payload.resp_tree, pos + 1,
                     payload.resp_size, slot, payload, False)
                )
        else:
            for pos, state in enumerate(payload.line):
                steps[state].append((TRIANGULAR, payload, pos, slot))
        slot += 1
    num_composite = index.num_composite
    slot = num_composite
    for family in same_state:
        for state in family.rule_states():
            steps[state].append((SAME, slot, slot - num_composite + 1))
            slot += 1
    return [tuple(entries) for entries in steps]


def _identities(plan):
    """A plan with every non-integer field replaced by its identity."""
    return tuple(
        tuple(x if type(x) in (int, bool) else ("id", id(x)) for x in step)
        for step in plan
    )


class TestLazyPlansMatchEagerBuild:
    @pytest.mark.parametrize(
        "protocol",
        [
            TreeRankingProtocol(37, k=3),
            ModifiedTreeProtocol(21, k=3),
            LineOfTrapsProtocol(m=2),
            RingOfTrapsProtocol(m=4),
            AGProtocol(12),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_every_state_plan(self, protocol):
        counts = random_configuration(
            protocol, seed=3, include_extras=True
        ).counts_list()
        families = protocol.build_families(counts)
        index = FusedIndex(families, protocol.num_states, counts)
        expected = eager_state_steps(index, families, protocol.num_states)
        # Look states up in a scrambled order: a plan must not depend on
        # which states were compiled before it.
        order = np.random.default_rng(5).permutation(protocol.num_states)
        for state in order.tolist():
            plan = index._plans.plan(state)
            assert _identities(plan) == _identities(expected[state])
            assert index.state_steps[state] is plan

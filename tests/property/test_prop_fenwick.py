"""Property-based tests for the Fenwick tree."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fenwick import FenwickTree, fill_tree

weights = st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                   max_size=50)


def push_up_fill(tree, size, values):
    """Reference build: the classic O(N) pure-Python push-up.

    Every node forwards its accumulated partial sum to its parent, in
    index order.  Kept verbatim as the oracle the vectorised
    :func:`fill_tree` kernel must reproduce node for node.
    """
    for i in range(size + 1):
        tree[i] = 0
    total = 0
    num_values = len(values)
    for i in range(size):
        pos = i + 1
        if i < num_values:
            value = values[i]
            total += value
            tree[pos] += value
        acc = tree[pos]
        if acc:
            parent = pos + (pos & -pos)
            if parent <= size:
                tree[parent] += acc
    return total


@st.composite
def fill_cases(draw, values):
    """``(size, values)`` with ``len(values) <= size``.

    Half the cases pad the size to a power of two, as the fused index's
    side trees do; the rest leave up to 40 trailing zero slots.
    """
    vals = draw(st.lists(values, max_size=300))
    if draw(st.booleans()):
        size = 1 << max(len(vals) - 1, 0).bit_length()
    else:
        size = len(vals) + draw(st.integers(0, 40))
    return size, vals


#: Values whose totals straddle the 2⁶² switch between the int64 and the
#: exact-integer kernel: up to 2⁵⁷ per slot over up to 300 slots.
_NEAR_SWITCH = st.integers(min_value=0, max_value=1 << 57)
#: Dyadic weights as the weighted index writes them: numerators over
#: 2⁵³ times pair counts, 2⁶⁴ and beyond.
_DYADIC = st.builds(
    lambda numerator, pairs: numerator * pairs,
    st.integers(min_value=1, max_value=1 << 53),
    st.integers(min_value=0, max_value=1 << 40),
)


class TestFillTreeMatchesPushUp:
    def _check(self, size, values):
        expected = [7] * (size + 1)
        expected_total = push_up_fill(expected, size, values)
        tree = [7] * (size + 1)  # stale garbage must be cleared
        alias = tree
        total = fill_tree(tree, size, values)
        assert tree is alias
        assert tree == expected
        assert total == expected_total
        assert type(total) is int
        assert all(type(node) is int for node in tree)

    @given(fill_cases(st.integers(min_value=0, max_value=1000)))
    @settings(max_examples=200)
    @example((0, []))
    @example((1, [5]))
    @example((256, [1] * 256))
    @example((300, [3] * 300))
    def test_small_weights(self, case):
        self._check(*case)

    @given(fill_cases(_NEAR_SWITCH))
    @settings(max_examples=200)
    @example((4, [1 << 60, 1 << 60, 1 << 60, (1 << 60) - 1]))
    @example((4, [1 << 60] * 4))
    @example((4, [(1 << 60) - 1] * 4))
    @example((2, [(1 << 62) - 1]))
    @example((2, [1 << 62]))
    @example((8, [(1 << 63) - 1, 1]))
    def test_weights_around_the_int64_switch(self, case):
        self._check(*case)

    @given(fill_cases(_DYADIC))
    @settings(max_examples=100)
    @example((2, [1 << 64, 1 << 64]))
    @example((4, [1 << 100, 0, 3]))
    def test_dyadic_weights_beyond_int64(self, case):
        self._check(*case)

    @given(fill_cases(st.integers(min_value=0, max_value=1 << 40)))
    @settings(max_examples=100)
    def test_int64_array_input(self, case):
        size, values = case
        expected = [0] * (size + 1)
        expected_total = push_up_fill(expected, size, values)
        tree = [0] * (size + 1)
        total = fill_tree(tree, size, np.asarray(values, dtype=np.int64))
        assert tree == expected
        assert total == expected_total


class TestFenwickProperties:
    @given(weights)
    def test_total_is_sum(self, values):
        tree = FenwickTree.from_values(values)
        assert tree.total == sum(values)

    @given(weights)
    def test_prefix_sums_match_naive(self, values):
        tree = FenwickTree.from_values(values)
        for i in range(len(values) + 1):
            assert tree.prefix_sum(i) == sum(values[:i])

    @given(weights)
    def test_find_inverts_prefix_sum(self, values):
        tree = FenwickTree.from_values(values)
        for target in range(tree.total):
            slot = tree.find(target)
            assert values[slot] > 0
            assert tree.prefix_sum(slot) <= target < tree.prefix_sum(slot + 1)

    @given(
        weights,
        st.lists(
            st.tuples(st.integers(0, 49), st.integers(0, 100)), max_size=30
        ),
    )
    @settings(max_examples=50)
    def test_updates_keep_invariants(self, values, updates):
        tree = FenwickTree.from_values(values)
        reference = list(values)
        for index, new_value in updates:
            if index >= len(reference):
                continue
            tree.set(index, new_value)
            reference[index] = new_value
        assert tree.total == sum(reference)
        for i in range(len(reference) + 1):
            assert tree.prefix_sum(i) == sum(reference[:i])

    @given(weights)
    def test_find_distribution_weights(self, values):
        """Each slot is selected by exactly `weight` many targets."""
        tree = FenwickTree.from_values(values)
        hits = [0] * len(values)
        for target in range(tree.total):
            hits[tree.find(target)] += 1
        assert hits == values

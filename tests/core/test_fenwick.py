"""Unit tests for the bulk Fenwick build, ``fill_tree``."""

import pytest

from repro.core.fenwick import fill_tree


class TestFillTree:
    def test_fill_matches_from_values(self, push_up_fill):
        values = [3, 0, 7, 1, 0, 2]
        tree = [99] * (len(values) + 1)  # stale garbage must be cleared
        total = fill_tree(tree, len(values), values)
        expected = [0] * (len(values) + 1)
        assert total == push_up_fill(expected, len(values), values)
        assert total == sum(values)
        assert tree == expected

    def test_padded_fill_propagates_to_top_node(self):
        # Padding slots count as zero, and the power-of-two top node
        # must carry the full total (the fused index relies on it).
        values = [5, 1, 2]
        size = 4
        tree = [0] * (size + 1)
        total = fill_tree(tree, size, values)
        assert total == 8
        assert tree[size] == 8

    def test_refill_in_place_preserves_aliases(self):
        tree = [0] * 5
        alias = tree
        fill_tree(tree, 4, [1, 2, 3, 4])
        fill_tree(tree, 4, [4, 3, 2, 1])
        assert alias is tree
        assert tree[4] == 10

    def test_negative_value_rejected(self):
        tree = [0] * 4
        with pytest.raises(ValueError):
            fill_tree(tree, 3, [3, -1, 2])
        with pytest.raises(ValueError):
            fill_tree(tree, 3, [1 << 70, -1])

    def test_more_values_than_slots_rejected(self):
        tree = [0] * 3
        with pytest.raises(ValueError):
            fill_tree(tree, 2, [1, 2, 3])

    def test_no_values_give_a_zero_tree(self):
        tree = [9] * 9  # stale garbage must be cleared
        assert fill_tree(tree, 8, []) == 0
        assert tree == [0] * 9


_VALUE_SETS = [
    [3, 0, 7, 1, 0, 2],
    [0, 0, 5],
    [1] * 8,
    [4, 0, 0, 0, 0, 0, 0, 0, 0, 6, 1],
]


def _prefix_sum(tree, index):
    """Sum of the first ``index`` slots, by the lowbit walk down."""
    total = 0
    while index:
        total += tree[index]
        index -= index & -index
    return total


def _descend(tree, size, target):
    """The 0-based slot whose weight range holds ``target``: the binary
    descent the fused loop and the same-state sampler run inline."""
    pos = 0
    bit = 1 << (size.bit_length() - 1)
    while bit:
        nxt = pos + bit
        if nxt <= size and tree[nxt] <= target:
            target -= tree[nxt]
            pos = nxt
        bit >>= 1
    return pos


class TestFilledTreeReads:
    """A filled array answers the reads the hot loops make of it."""

    @pytest.mark.parametrize("values", _VALUE_SETS)
    def test_prefix_sums(self, values):
        size = len(values) + 3
        tree = [0] * (size + 1)
        fill_tree(tree, size, values)
        padded = values + [0] * (size - len(values))
        for index in range(size + 1):
            assert _prefix_sum(tree, index) == sum(padded[:index])

    @pytest.mark.parametrize("padded", [False, True], ids=["exact", "pow2"])
    @pytest.mark.parametrize("values", _VALUE_SETS)
    def test_descent_lands_on_the_slot_of_every_target(self, values, padded):
        size = 1 << (len(values) - 1).bit_length() if padded else len(values)
        tree = [0] * (size + 1)
        total = fill_tree(tree, size, values)
        expected = [
            slot for slot, weight in enumerate(values) for _ in range(weight)
        ]
        assert [_descend(tree, size, t) for t in range(total)] == expected

    def test_point_updates_match_a_refill(self):
        values = [3, 0, 7, 1, 0, 2, 5]
        size = 8
        tree = [0] * (size + 1)
        fill_tree(tree, size, values)
        for slot, delta in ((0, 4), (6, -5), (1, 2), (3, -1)):
            values[slot] += delta
            node = slot + 1
            while node <= size:
                tree[node] += delta
                node += node & -node
        refilled = [0] * (size + 1)
        assert fill_tree(refilled, size, values) == sum(values)
        assert tree == refilled

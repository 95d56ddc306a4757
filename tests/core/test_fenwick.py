"""Unit tests for the Fenwick tree weighted sampler."""

import pytest

from repro.core.fenwick import FenwickTree, fill_tree


class TestFillTree:
    def test_fill_matches_from_values(self):
        values = [3, 0, 7, 1, 0, 2]
        tree = [99] * (len(values) + 1)  # stale garbage must be cleared
        total = fill_tree(tree, len(values), values)
        assert total == sum(values)
        assert tree == FenwickTree.from_values(values)._tree

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


class TestConstruction:
    def test_empty_tree(self):
        tree = FenwickTree(0)
        assert tree.total == 0
        assert len(tree) == 0

    def test_zero_initialised(self):
        tree = FenwickTree(5)
        assert tree.total == 0
        assert all(tree.get(i) == 0 for i in range(5))

    def test_from_values_matches_sets(self):
        values = [3, 0, 7, 1, 0, 2]
        bulk = FenwickTree.from_values(values)
        one_by_one = FenwickTree(len(values))
        for i, v in enumerate(values):
            one_by_one.set(i, v)
        assert bulk.total == one_by_one.total == sum(values)
        for i in range(len(values)):
            assert bulk.prefix_sum(i) == one_by_one.prefix_sum(i)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FenwickTree(-1)

    def test_from_values_rejects_negative_weight(self):
        # set() rejects negative weights; a bulk build must too, or the
        # tree's total and find() silently disagree with the values.
        with pytest.raises(ValueError):
            FenwickTree.from_values([3, -1, 2])

    def test_from_values_accepts_numpy_array(self):
        import numpy as np

        tree = FenwickTree.from_values(np.array([3, 0, 2], dtype=np.int64))
        assert tree.total == 5
        assert [tree.get(i) for i in range(3)] == [3, 0, 2]
        assert all(type(tree.get(i)) is int for i in range(3))


class TestUpdates:
    def test_set_and_get(self):
        tree = FenwickTree(4)
        tree.set(2, 9)
        assert tree.get(2) == 9
        assert tree.total == 9

    def test_add(self):
        tree = FenwickTree(4)
        tree.set(1, 5)
        tree.add(1, 3)
        assert tree.get(1) == 8
        tree.add(1, -8)
        assert tree.get(1) == 0

    def test_negative_weight_rejected(self):
        tree = FenwickTree(3)
        with pytest.raises(ValueError):
            tree.set(0, -1)
        tree.set(0, 2)
        with pytest.raises(ValueError):
            tree.add(0, -3)

    def test_noop_set_keeps_total(self):
        tree = FenwickTree.from_values([1, 2, 3])
        tree.set(1, 2)
        assert tree.total == 6

    def test_total_tracks_many_updates(self):
        tree = FenwickTree(10)
        expected = [0] * 10
        import random

        rnd = random.Random(7)
        for _ in range(200):
            i = rnd.randrange(10)
            v = rnd.randrange(50)
            tree.set(i, v)
            expected[i] = v
            assert tree.total == sum(expected)


class TestPrefixSums:
    def test_prefix_sums_exhaustive(self):
        values = [4, 1, 0, 3, 9, 2, 2]
        tree = FenwickTree.from_values(values)
        for i in range(len(values) + 1):
            assert tree.prefix_sum(i) == sum(values[:i])


class TestFind:
    def test_find_covers_every_slot(self):
        values = [2, 0, 3, 1]
        tree = FenwickTree.from_values(values)
        # targets 0,1 → slot 0; 2,3,4 → slot 2; 5 → slot 3
        expected = [0, 0, 2, 2, 2, 3]
        assert [tree.find(t) for t in range(6)] == expected

    def test_find_skips_zero_slots(self):
        tree = FenwickTree.from_values([0, 0, 5, 0])
        for t in range(5):
            assert tree.find(t) == 2

    def test_find_out_of_range(self):
        tree = FenwickTree.from_values([1, 1])
        with pytest.raises(ValueError):
            tree.find(2)
        with pytest.raises(ValueError):
            tree.find(-1)

    def test_find_on_empty_total(self):
        tree = FenwickTree(3)
        with pytest.raises(ValueError):
            tree.find(0)

    def test_find_single_slot(self):
        tree = FenwickTree.from_values([7])
        assert all(tree.find(t) == 0 for t in range(7))

    def test_find_after_updates(self):
        tree = FenwickTree.from_values([1, 1, 1])
        tree.set(1, 0)
        assert tree.find(0) == 0
        assert tree.find(1) == 2

    def test_find_non_power_of_two_size(self):
        values = [1] * 13
        tree = FenwickTree.from_values(values)
        for t in range(13):
            assert tree.find(t) == t

    def test_repr_is_informative(self):
        tree = FenwickTree.from_values([1, 2])
        assert "total=3" in repr(tree)

"""Unit tests for the Configuration multiset."""

import numpy as np
import pytest

from repro import Configuration, ConfigurationError


class TestConstructors:
    def test_from_counts(self):
        config = Configuration([1, 0, 2])
        assert config.num_states == 3
        assert config.num_agents == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([1, -1])

    def test_negative_count_names_first_state(self):
        with pytest.raises(
            ConfigurationError, match="state 2 has negative count -3"
        ):
            Configuration([1, 0, -3, -1])

    @pytest.mark.parametrize(
        "counts, state, shown",
        [
            ([1.5, 0.5], 0, "1.5"),
            (["3", 1], 0, "'3'"),
            ([2, np.float64(2.7)], 1, "2.7"),
            ([4, 2.0], 1, "2.0"),
            (np.array([1.0, 2.0]), 0, "1.0"),
        ],
        ids=["float", "string", "numpy-float", "integral-float",
             "float-array"],
    )
    def test_non_integral_count_rejected(self, counts, state, shown):
        # int() would truncate or parse these into another population.
        with pytest.raises(ConfigurationError) as info:
            Configuration(counts)
        message = str(info.value)
        assert message.startswith(f"state {state} has non-integral count")
        assert shown in message

    def test_numpy_integers_become_python_ints(self):
        config = Configuration(
            [np.int64(2), np.int32(1), np.uint8(3), True, 0]
        )
        assert config.as_tuple() == (2, 1, 3, 1, 0)
        assert all(type(c) is int for c in config)
        from_array = Configuration(np.array([0, 4, 1], dtype=np.int64))
        assert from_array.as_tuple() == (0, 4, 1)
        assert all(type(c) is int for c in from_array)

    def test_from_agents(self):
        config = Configuration.from_agents([0, 2, 2, 1], num_states=4)
        assert config.as_tuple() == (1, 1, 2, 0)

    def test_from_agents_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Configuration.from_agents([5], num_states=3)
        with pytest.raises(ConfigurationError):
            Configuration.from_agents([-1], num_states=3)

    def test_all_in_state(self):
        config = Configuration.all_in_state(1, num_agents=5, num_states=3)
        assert config.as_tuple() == (0, 5, 0)

    def test_all_in_state_bad_state(self):
        with pytest.raises(ConfigurationError):
            Configuration.all_in_state(3, num_agents=5, num_states=3)

    def test_one_per_state(self):
        config = Configuration.one_per_state(4)
        assert config.as_tuple() == (1, 1, 1, 1)


class TestQueries:
    @pytest.fixture
    def config(self):
        return Configuration([0, 3, 1, 0, 2])

    def test_count(self, config):
        assert config.count(1) == 3
        assert config.count(0) == 0

    def test_occupied_unoccupied(self, config):
        assert config.occupied_states() == [1, 2, 4]
        assert config.unoccupied_states() == [0, 3]

    def test_overloaded(self, config):
        assert config.overloaded_states() == [1, 4]

    def test_support_size(self, config):
        assert config.support_size() == 3

    def test_missing_within(self, config):
        assert config.missing_within([0, 1, 3]) == [0, 3]

    def test_restricted_to(self, config):
        assert config.restricted_to([1, 3, 4]) == {1: 3, 4: 2}

    def test_agents_within(self, config):
        assert config.agents_within(range(2)) == 3
        assert config.agents_within(range(5)) == config.num_agents

    def test_is_ranked_true(self):
        assert Configuration([1, 1, 1, 0]).is_ranked(3)

    def test_is_ranked_false_duplicate(self):
        assert not Configuration([2, 0, 1, 0]).is_ranked(3)

    def test_is_ranked_false_extra_occupied(self):
        assert not Configuration([1, 1, 0, 1]).is_ranked(3)


class TestUpdatesAndDunder:
    def test_with_move(self):
        config = Configuration([2, 0])
        moved = config.with_move(0, 1)
        assert moved.as_tuple() == (1, 1)
        # original untouched (value semantics)
        assert config.as_tuple() == (2, 0)

    def test_with_move_multiple(self):
        config = Configuration([3, 0]).with_move(0, 1, agents=2)
        assert config.as_tuple() == (1, 2)

    def test_with_move_underflow(self):
        with pytest.raises(ConfigurationError):
            Configuration([1, 0]).with_move(0, 1, agents=2)

    def test_equality_and_hash(self):
        a = Configuration([1, 2])
        b = Configuration([1, 2])
        c = Configuration([2, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_iteration_and_len(self):
        config = Configuration([1, 0, 2])
        assert list(config) == [1, 0, 2]
        assert len(config) == 3

    def test_counts_list_is_a_copy(self):
        config = Configuration([1, 1])
        counts = config.counts_list()
        counts[0] = 99
        assert config.count(0) == 1

    def test_counts_array_dtype(self):
        arr = Configuration([1, 2]).counts_array()
        assert arr.dtype == np.int64
        assert arr.tolist() == [1, 2]

    def test_copy_independent(self):
        a = Configuration([1, 2])
        assert a.copy() == a and a.copy() is not a

    def test_repr_small_and_large(self):
        small = Configuration([1, 0])
        assert "occupied" in repr(small)
        large = Configuration([1] * 40)
        assert "40 occupied" in repr(large)

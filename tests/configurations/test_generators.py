"""Unit tests for initial-configuration generators."""

import pytest

from repro import (
    AGProtocol,
    Configuration,
    LineOfTrapsProtocol,
    RingOfTrapsProtocol,
    TreeRankingProtocol,
    all_in_extras_configuration,
    all_in_state_configuration,
    distance_from_solved,
    doubled_prefix_configuration,
    k_distant_configuration,
    make_rng,
    random_configuration,
    solved_configuration,
)
from repro.exceptions import ConfigurationError


class TestSolved:
    @pytest.mark.parametrize(
        "protocol",
        [AGProtocol(8), RingOfTrapsProtocol(m=3), TreeRankingProtocol(8, k=2)],
        ids=lambda p: p.name,
    )
    def test_solved_is_ranked_and_silent(self, protocol):
        config = solved_configuration(protocol)
        assert protocol.is_ranked(config)
        assert protocol.is_silent(config)
        assert distance_from_solved(protocol, config) == 0


class TestKDistant:
    @pytest.mark.parametrize("k", [0, 1, 5, 11])
    def test_exactly_k_ranks_missing(self, k):
        protocol = AGProtocol(12)
        config = k_distant_configuration(protocol, k, seed=k)
        assert distance_from_solved(protocol, config) == k
        assert config.num_agents == 12

    def test_extras_left_empty(self):
        protocol = TreeRankingProtocol(10, k=3)
        config = k_distant_configuration(protocol, 4, seed=1)
        assert config.agents_within(protocol.extra_states) == 0

    def test_k_bounds(self):
        protocol = AGProtocol(6)
        with pytest.raises(ConfigurationError):
            k_distant_configuration(protocol, 6, seed=0)
        with pytest.raises(ConfigurationError):
            k_distant_configuration(protocol, -1, seed=0)

    def test_zero_distant_is_solved(self):
        protocol = AGProtocol(9)
        assert k_distant_configuration(protocol, 0, seed=3) == (
            solved_configuration(protocol)
        )

    def test_deterministic_given_seed(self):
        protocol = RingOfTrapsProtocol(m=4)
        assert k_distant_configuration(protocol, 3, seed=7) == (
            k_distant_configuration(protocol, 3, seed=7)
        )

    def test_different_seeds_vary(self):
        protocol = RingOfTrapsProtocol(m=4)
        configs = {
            k_distant_configuration(protocol, 3, seed=s).as_tuple()
            for s in range(8)
        }
        assert len(configs) > 1


class TestRandom:
    def test_population_size(self):
        protocol = TreeRankingProtocol(20, k=3)
        config = random_configuration(protocol, seed=2)
        assert config.num_agents == 20
        assert config.num_states == protocol.num_states

    def test_rank_only_restriction(self):
        protocol = TreeRankingProtocol(20, k=3)
        config = random_configuration(protocol, seed=2, include_extras=False)
        assert config.agents_within(protocol.extra_states) == 0

    def test_extras_reachable_when_included(self):
        protocol = LineOfTrapsProtocol(m=2)
        hits = 0
        for seed in range(20):
            config = random_configuration(protocol, seed=seed)
            hits += config.count(protocol.x_state)
        assert hits > 0  # 72 agents × 20 seeds: X occupied sometimes


class TestAdversarial:
    def test_all_in_state(self):
        protocol = AGProtocol(7)
        config = all_in_state_configuration(protocol, 3)
        assert config.count(3) == 7
        assert config.support_size() == 1

    def test_all_in_extras(self):
        protocol = TreeRankingProtocol(9, k=2)
        config = all_in_extras_configuration(protocol, seed=1)
        assert config.agents_within(protocol.extra_states) == 9
        assert distance_from_solved(protocol, config) == 9

    def test_all_in_extras_needs_extras(self):
        with pytest.raises(ConfigurationError):
            all_in_extras_configuration(AGProtocol(5), seed=0)

    def test_doubled_prefix_even(self):
        protocol = AGProtocol(8)
        config = doubled_prefix_configuration(protocol)
        assert config.as_tuple() == (2, 2, 2, 2, 0, 0, 0, 0)
        assert distance_from_solved(protocol, config) == 4

    def test_doubled_prefix_odd(self):
        protocol = AGProtocol(7)
        config = doubled_prefix_configuration(protocol)
        assert config.num_agents == 7
        assert config.as_tuple() == (2, 2, 2, 1, 0, 0, 0)


# The per-agent loops the numpy generators replaced, kept verbatim as
# oracles: the generators must draw the same numbers and count them
# into the same configurations.
def _oracle_k_distant(protocol, k, seed):
    n = protocol.num_ranks
    rng = make_rng(seed)
    counts = [0] * protocol.num_states
    missing = set(rng.choice(n, size=k, replace=False).tolist()) if k else set()
    occupied = [r for r in range(n) if r not in missing]
    for rank in occupied:
        counts[rank] = 1
    for rank in rng.choice(occupied, size=k, replace=True):
        counts[int(rank)] += 1
    return counts


def _oracle_random(protocol, seed, include_extras):
    rng = make_rng(seed)
    limit = protocol.num_states if include_extras else protocol.num_ranks
    states = rng.integers(0, limit, size=protocol.num_agents)
    return Configuration.from_agents(
        (int(s) for s in states), protocol.num_states
    ).counts_list()


def _oracle_all_in_extras(protocol, seed):
    rng = make_rng(seed)
    counts = [0] * protocol.num_states
    extras = list(protocol.extra_states)
    for state in rng.choice(extras, size=protocol.num_agents, replace=True):
        counts[int(state)] += 1
    return counts


_ORACLE_PROTOCOLS = [
    pytest.param(TreeRankingProtocol(50, k=3), id="tree-n50"),
    pytest.param(TreeRankingProtocol(4099, k=2), id="tree-n4099"),
    pytest.param(RingOfTrapsProtocol(m=20), id="ring-m20"),
    pytest.param(AGProtocol(3000), id="ag-n3000"),
]


def _assert_plain_counts(config, expected):
    counts = config.counts_list()
    assert counts == expected
    assert all(type(c) is int for c in counts)


class TestGeneratorsMatchLoopOracles:
    @pytest.mark.parametrize("protocol", _ORACLE_PROTOCOLS)
    @pytest.mark.parametrize("include_extras", [True, False])
    def test_random(self, protocol, include_extras):
        for seed in (0, 5, 2**40 + 3):
            _assert_plain_counts(
                random_configuration(protocol, seed, include_extras),
                _oracle_random(protocol, seed, include_extras),
            )

    @pytest.mark.parametrize("protocol", _ORACLE_PROTOCOLS)
    def test_k_distant(self, protocol):
        n = protocol.num_ranks
        for k in (0, 1, n // 3, n - 1):
            for seed in (0, 5, 2**40 + 3):
                _assert_plain_counts(
                    k_distant_configuration(protocol, k, seed),
                    _oracle_k_distant(protocol, k, seed),
                )

    @pytest.mark.parametrize("protocol", _ORACLE_PROTOCOLS[:2])
    def test_all_in_extras(self, protocol):
        for seed in (0, 5, 2**40 + 3):
            _assert_plain_counts(
                all_in_extras_configuration(protocol, seed),
                _oracle_all_in_extras(protocol, seed),
            )

    def test_shared_generator_advances_alike(self):
        protocol = TreeRankingProtocol(50, k=3)
        ours, theirs = make_rng(9), make_rng(9)
        for _ in range(3):
            _assert_plain_counts(
                k_distant_configuration(protocol, 7, ours),
                _oracle_k_distant(protocol, 7, theirs),
            )
            _assert_plain_counts(
                random_configuration(protocol, ours),
                _oracle_random(protocol, theirs, True),
            )

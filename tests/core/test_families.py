"""Unit tests for the productive-pair weight families."""

import gc

import numpy as np
import pytest

from repro import (
    AGProtocol,
    Configuration,
    JumpEngine,
    LineOfTrapsProtocol,
    ModifiedTreeProtocol,
    RingOfTrapsProtocol,
    SingleTrapProtocol,
    StateBiasedScheduler,
    TreeDispersalProtocol,
    TreeRankingProtocol,
    WeightedScheduledEngine,
    build_engine,
    random_configuration,
    run_protocol,
)
from repro.core.families import (
    Family,
    OrderedProduct,
    SameStatePairs,
    TriangularLine,
    check_family_coverage,
)
from repro.core.fused import WeightedIndexUnsupported, collector_paused
from repro.exceptions import SimulationError
from repro.protocols.line import IsolatedLineProtocol


class TestSameStatePairs:
    def test_weight_counts_ordered_pairs(self):
        counts = [3, 1, 2]
        family = SameStatePairs(counts, rule_states=[0, 1, 2])
        # 3·2 + 1·0 + 2·1 = 8 ordered pairs
        assert family.weight == 8

    def test_states_without_rules_ignored(self):
        family = SameStatePairs([5, 5], rule_states=[1])
        assert family.weight == 20

    def test_on_count_change(self):
        counts = [2, 2]
        family = SameStatePairs(counts, rule_states=[0, 1])
        family.on_count_change(0, 2, 4)
        assert family.weight == 4 * 3 + 2 * 1

    def test_covers(self):
        family = SameStatePairs([1, 1], rule_states=[0])
        assert family.covers(0, 0)
        assert not family.covers(1, 1)
        assert not family.covers(0, 1)

    def test_on_count_change_returns_weight_delta(self):
        family = SameStatePairs([2, 2], rule_states=[0, 1])
        assert family.on_count_change(0, 2, 4) == 4 * 3 - 2 * 1
        assert family.on_count_change(1, 2, 0) == -2
        assert family.on_count_change(0, 4, 4) == 0

    def test_on_count_change_ruleless_state_returns_zero(self):
        family = SameStatePairs([2, 2], rule_states=[0])
        assert family.on_count_change(1, 2, 7) == 0

    def test_pairs_enumeration(self):
        family = SameStatePairs([1, 1, 1], rule_states=[0, 2])
        assert list(family.pairs()) == [(0, 0), (2, 2)]

    @pytest.mark.parametrize(
        "counts, rule_states",
        [
            ([3, 0, 7, 1, 2, 5], [4, 0, 2, 0]),  # unsorted, repeated
            ([4, 1], []),
            (
                random_configuration(AGProtocol(300), seed=2).counts_list(),
                list(range(300)),
            ),
            (
                random_configuration(
                    TreeRankingProtocol(40), seed=3, include_extras=True
                ).counts_list(),
                list(range(0, 40, 3)),
            ),
        ],
        ids=["unsorted-repeated", "no-rule", "ag-300", "tree-40-sparse"],
    )
    @pytest.mark.parametrize("as_iterator", [False, True])
    def test_mask_build_matches_loop_oracle(
        self, counts, rule_states, as_iterator
    ):
        """The numpy-mask build equals the per-state loops it replaced."""
        has_rule = [False] * len(counts)
        for state in rule_states:
            has_rule[state] = True
        rules = [s for s, rule in enumerate(has_rule) if rule]
        family = SameStatePairs(
            counts, iter(rule_states) if as_iterator else rule_states
        )
        assert family.rule_states() == rules
        assert list(family.states()) == rules
        assert list(family.pairs()) == [(s, s) for s in rules]
        assert [family.covers(s, s) for s in range(len(counts))] == has_rule
        assert family.weight == sum(counts[s] * (counts[s] - 1) for s in rules)
        # Each stored per-state weight is c(c−1): re-setting it moves
        # nothing.
        assert all(
            family.on_count_change(s, c, c) == 0 for s, c in enumerate(counts)
        )


class TestOrderedProduct:
    def test_weight_is_product(self):
        counts = [2, 3, 4]
        family = OrderedProduct(counts, initiators=[0, 1], responders=[2])
        assert family.weight == (2 + 3) * 4

    def test_disjointness_enforced(self):
        with pytest.raises(SimulationError):
            OrderedProduct([1, 1], initiators=[0], responders=[0, 1])

    def test_on_count_change_both_sides(self):
        counts = [1, 1]
        family = OrderedProduct(counts, initiators=[0], responders=[1])
        family.on_count_change(0, 1, 5)
        assert family.weight == 5
        family.on_count_change(1, 1, 3)
        assert family.weight == 15

    def test_covers(self):
        family = OrderedProduct([1, 1, 1], initiators=[0], responders=[2])
        assert family.covers(0, 2)
        assert not family.covers(2, 0)
        assert not family.covers(0, 1)

    def test_on_count_change_returns_weight_delta(self):
        family = OrderedProduct([2, 3, 4], initiators=[0, 1], responders=[2])
        assert family.on_count_change(0, 2, 5) == 3 * 4  # (5+3)·4 − (2+3)·4
        assert family.on_count_change(2, 4, 1) == 8 * (1 - 4)
        assert family.on_count_change(1, 3, 3) == 0

    def test_on_count_change_foreign_state_returns_zero(self):
        family = OrderedProduct([1, 1, 1, 9], initiators=[0], responders=[2])
        assert family.on_count_change(3, 9, 0) == 0

    def test_pairs_enumeration(self):
        family = OrderedProduct([1] * 4, initiators=[0, 1], responders=[3])
        assert sorted(family.pairs()) == [(0, 3), (1, 3)]

    def test_sides_keep_construction_order(self):
        family = OrderedProduct(
            [1] * 6, initiators=[4, 0, 2], responders=[5, 1]
        )
        assert family.initiators == [4, 0, 2]
        assert family.responders == [5, 1]
        family.initiators.append(3)  # a copy: the family is unchanged
        assert family.initiators == [4, 0, 2]

    def test_empty_side_weighs_nothing(self):
        family = OrderedProduct([3, 0, 2], initiators=[0], responders=[1])
        assert family.weight == 0
        assert family.on_count_change(0, 3, 8) == 0
        assert family.weight == 0
        assert family.on_count_change(1, 0, 2) == 8 * 2
        assert family.weight == 16


class TestTriangularLine:
    def test_weight_formula(self):
        # line states 10, 11, 12 with counts 2, 1, 3
        counts = {10: 2, 11: 1, 12: 3}
        full = [0] * 13
        for s, c in counts.items():
            full[s] = c
        family = TriangularLine(full, line_states=[10, 11, 12])
        # i=0: 2·1 (same) + 2·4 (cross) = 10
        # i=1: 0 + 1·3 = 3 ; i=2: 3·2 = 6  → total 19
        assert family.weight == 19

    def test_distinct_states_required(self):
        with pytest.raises(SimulationError):
            TriangularLine([1, 1], line_states=[0, 0])

    def test_on_count_change_recomputes(self):
        full = [2, 2]
        family = TriangularLine(full, line_states=[0, 1])
        before = family.weight  # 2·1 + 2·2 + 2·1 = 8
        assert before == 8
        family.on_count_change(0, 2, 0)
        assert family.weight == 2  # only (1,1) pairs remain

    def test_ignores_foreign_states(self):
        family = TriangularLine([1, 1, 5], line_states=[0, 1])
        w = family.weight
        family.on_count_change(2, 5, 50)
        assert family.weight == w

    def test_covers_triangular(self):
        family = TriangularLine([0] * 8, line_states=[5, 6, 7])
        assert family.covers(5, 7)
        assert family.covers(6, 6)
        assert not family.covers(7, 5)
        assert not family.covers(5, 4)

    def test_on_count_change_returns_weight_delta(self):
        family = TriangularLine([2, 2], line_states=[0, 1])
        assert family.weight == 8
        assert family.on_count_change(0, 2, 0) == 2 - 8
        assert family.on_count_change(2, 1, 5) == 0  # foreign state

    def test_pairs_enumeration(self):
        family = TriangularLine([0] * 8, line_states=[5, 6, 7])
        assert list(family.pairs()) == [
            (5, 5), (5, 6), (5, 7), (6, 6), (6, 7), (7, 7),
        ]


class TestCoverage:
    @pytest.mark.parametrize(
        "protocol",
        [
            AGProtocol(6),
            RingOfTrapsProtocol(m=3),
            SingleTrapProtocol(inner_size=2, num_agents=5),
            TreeRankingProtocol(7, k=2),
            LineOfTrapsProtocol(m=2),
            IsolatedLineProtocol(num_traps=3, inner_cap=2, num_agents=12),
            ModifiedTreeProtocol(7, k=2),
            TreeDispersalProtocol(7),
        ],
        ids=lambda p: p.name,
    )
    def test_families_exactly_cover_delta(self, protocol):
        """Every shipped protocol's families cover ``delta`` exactly and
        are of the three types the fused index compiles, so the jump
        engine builds for it."""
        counts = [2] * protocol.num_states
        check_family_coverage(protocol, counts)
        for family in protocol.build_families(counts):
            assert type(family) in (
                SameStatePairs, OrderedProduct, TriangularLine
            )
        JumpEngine(
            protocol,
            random_configuration(protocol, seed=0),
            np.random.default_rng(0),
        )

    def test_coverage_detects_overlap(self):
        class Broken(AGProtocol):
            def build_families(self, counts):
                states = list(range(self.num_ranks))
                return [
                    SameStatePairs(counts, states),
                    SameStatePairs(counts, states),
                ]

        with pytest.raises(SimulationError):
            check_family_coverage(Broken(4))

    def test_coverage_detects_gap(self):
        class Broken(AGProtocol):
            def build_families(self, counts):
                return [SameStatePairs(counts, [0])]

        with pytest.raises(SimulationError):
            check_family_coverage(Broken(4))


class TestWeightsMatchBruteForce:
    """Family weights must equal a brute-force count of productive pairs."""

    @pytest.mark.parametrize(
        "protocol",
        [
            AGProtocol(6),
            RingOfTrapsProtocol(m=3),
            TreeRankingProtocol(9, k=2),
            LineOfTrapsProtocol(m=2),
        ],
        ids=lambda p: p.name,
    )
    def test_total_weight(self, protocol):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 4, size=protocol.num_states).tolist()
        families = protocol.build_families(counts)
        total = sum(f.weight for f in families)
        brute = 0
        for si in range(protocol.num_states):
            for sj in range(protocol.num_states):
                if protocol.delta(si, sj) is None:
                    continue
                if si == sj:
                    brute += counts[si] * (counts[si] - 1)
                else:
                    brute += counts[si] * counts[sj]
        assert total == brute


class _SameStateList(Family):
    """Same-state pairs over a plain count list: a family type the fused
    index does not compile."""

    def __init__(self, counts, rule_states):
        self._rules = sorted(rule_states)
        self._counts = list(counts)

    @property
    def weight(self):
        return sum(self._counts[s] * (self._counts[s] - 1) for s in self._rules)

    def on_count_change(self, state, old, new):
        before = self.weight
        self._counts[state] = new
        return self.weight - before

    def covers(self, initiator, responder):
        return initiator == responder and initiator in self._rules

    def pairs(self):
        return ((s, s) for s in self._rules)


class _ListAGProtocol(AGProtocol):
    def build_families(self, counts):
        return [_SameStateList(counts, self.same_state_rule_states())]


class TestCustomFamilies:
    """A custom family type runs on the sequential and rejection engines
    only; the jump engine refuses it by name."""

    def test_jump_engine_names_the_type(self):
        protocol = _ListAGProtocol(8)
        start = Configuration.all_in_state(0, 8, 8)
        with pytest.raises(SimulationError, match="_SameStateList") as info:
            JumpEngine(protocol, start, np.random.default_rng(0))
        assert 'engine="sequential"' in str(info.value)

    def test_sequential_engine_runs_to_silence(self):
        protocol = _ListAGProtocol(8)
        check_family_coverage(protocol)
        result = run_protocol(
            protocol, Configuration.all_in_state(0, 8, 8), seed=1,
            engine="sequential",
        )
        assert result.silent
        assert sorted(result.final_configuration.counts_list()) == [1] * 8

    def test_biased_scheduler_falls_back_to_rejection(self):
        protocol = _ListAGProtocol(8)
        scheduler = StateBiasedScheduler(
            [1.0 if s % 2 else 0.5 for s in range(protocol.num_states)]
        )
        engine, name = build_engine(
            protocol, Configuration.all_in_state(0, 8, 8), seed=1,
            scheduler=scheduler,
        )
        assert name == f"scheduled:{scheduler.name}"
        assert engine.run(max_events=10_000)


class _FailingDeltaTree(TreeRankingProtocol):
    """The tree's families with a ``delta`` that raises: the first
    program the fused loop compiles fails."""

    def delta(self, initiator, responder):
        raise RuntimeError("delta failed")


class TestCollectorPause:
    """Engine construction and the fused loop pause the cyclic garbage
    collector and hand it back as they found it, also when a family
    fails to compile or a ``delta`` raises inside the loop."""

    def test_construction_runs_no_collector_passes(self):
        # Every compile pass allocates per state.  With the collector on
        # throughout, this build started over a hundred young passes.
        protocol = AGProtocol(20_000)
        start = random_configuration(protocol, seed=5)
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        was_on = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            JumpEngine(protocol, start, np.random.default_rng(0))
        finally:
            gc.callbacks.remove(count)
            (gc.enable if was_on else gc.disable)()
        # What the pause built meets one young pass after it.
        assert len(passes) <= 2

    def test_fused_loop_runs_no_collector_passes(self):
        # Tree n = 4096 from a random start: the reset storm compiles
        # thousands of programs and plans in 20 000 events.  With the
        # collector on inside the loop, this run started 36 passes.
        protocol = TreeRankingProtocol(4096)
        engine = JumpEngine(
            protocol, random_configuration(protocol, seed=11),
            np.random.default_rng(11),
        )
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        was_on = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            engine.run(max_events=20_000)
        finally:
            gc.callbacks.remove(count)
            (gc.enable if was_on else gc.disable)()
        assert engine.events == 20_000
        assert len(engine._pair_table) >= 1000
        # What the loop built meets one young pass after it.
        assert len(passes) <= 2

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collecting(self, request):
        was_on = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_on else gc.disable)()

    @staticmethod
    def _scheduler(protocol):
        return StateBiasedScheduler(
            [1.0 if s % 2 else 0.5 for s in range(protocol.num_states)]
        )

    def test_jump_engine(self, collecting):
        JumpEngine(
            AGProtocol(8), Configuration.all_in_state(0, 8, 8),
            np.random.default_rng(0),
        )
        assert gc.isenabled() is collecting

    def test_weighted_engine(self, collecting):
        protocol = TreeRankingProtocol(9, k=2)
        WeightedScheduledEngine(
            protocol, random_configuration(protocol, seed=1),
            np.random.default_rng(0), self._scheduler(protocol),
        )
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("biased", [False, True],
                             ids=["uniform", "biased"])
    def test_fused_run(self, collecting, biased):
        protocol = TreeRankingProtocol(33, k=2)
        scheduler = self._scheduler(protocol) if biased else None
        engine = JumpEngine(
            protocol, random_configuration(protocol, seed=1),
            np.random.default_rng(0), scheduler,
        )
        engine.run(max_events=2000)
        assert engine.events > 0
        assert engine._pair_table  # the fused loop compiled programs
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("biased", [False, True],
                             ids=["uniform", "biased"])
    def test_fused_run_whose_delta_raises(self, collecting, biased):
        protocol = _FailingDeltaTree(33, k=2)
        scheduler = self._scheduler(protocol) if biased else None
        engine = JumpEngine(
            protocol, random_configuration(protocol, seed=1),
            np.random.default_rng(0), scheduler,
        )
        with pytest.raises(RuntimeError, match="delta failed"):
            engine.run(max_events=2000)
        assert gc.isenabled() is collecting

    def test_pause_ends_when_the_block_raises(self, collecting):
        with pytest.raises(RuntimeError):
            with collector_paused():
                assert not gc.isenabled()
                raise RuntimeError("compile failed")
        assert gc.isenabled() is collecting

    def test_failed_jump_build(self, collecting):
        with pytest.raises(SimulationError, match="_SameStateList"):
            JumpEngine(
                _ListAGProtocol(8), Configuration.all_in_state(0, 8, 8),
                np.random.default_rng(0),
            )
        assert gc.isenabled() is collecting

    def test_failed_weighted_build_falls_back(self, collecting):
        protocol = _ListAGProtocol(8)
        scheduler = self._scheduler(protocol)
        with pytest.raises(WeightedIndexUnsupported):
            WeightedScheduledEngine(
                protocol, Configuration.all_in_state(0, 8, 8),
                np.random.default_rng(0), scheduler,
            )
        assert gc.isenabled() is collecting
        _, name = build_engine(
            protocol, Configuration.all_in_state(0, 8, 8), seed=1,
            scheduler=scheduler,
        )
        assert name == f"scheduled:{scheduler.name}"
        assert gc.isenabled() is collecting

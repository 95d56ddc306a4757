"""Unit tests for the jump and sequential engines and the runner API."""

import numpy as np
import pytest

from repro import (
    AGProtocol,
    Configuration,
    EpochBoundary,
    EpochScheduler,
    JumpEngine,
    MetricRecorder,
    PopulationProtocol,
    Recorder,
    RingOfTrapsProtocol,
    SequentialEngine,
    StateBiasedScheduler,
    TrajectoryRecorder,
    TreeRankingProtocol,
    WeightedScheduledEngine,
    build_engine,
    random_configuration,
    run_protocol,
    solved_configuration,
)
from repro.core.families import OrderedProduct, SameStatePairs
from repro.exceptions import (
    ConfigurationError,
    SimulationError,
    SimulationLimitReached,
)
from repro.obs import Instrumentation
from repro.scenarios.schedulers import DegreeSkewedScheduler


def _engine(protocol, config, seed=0, cls=JumpEngine):
    return cls(protocol, config, np.random.default_rng(seed))


class _SinkProtocol(PopulationProtocol):
    """Rules ``(0,0)→(0,4)`` and ``(2,3)→(2,2)``; state 4 is in no family."""

    def __init__(self):
        super().__init__(num_states=5, num_agents=40)

    def delta(self, initiator, responder):
        if initiator == responder == 0:
            return 0, 4
        if (initiator, responder) == (2, 3):
            return 2, 2
        return None

    def build_families(self, counts):
        return [SameStatePairs(counts, [0]), OrderedProduct(counts, [2], [3])]


class TestJumpEngineBasics:
    def test_solved_configuration_is_silent(self):
        protocol = AGProtocol(6)
        engine = _engine(protocol, solved_configuration(protocol))
        assert engine.is_silent()
        assert engine.step() is None
        assert engine.run() is True
        assert engine.interactions == 0

    def test_step_applies_exactly_one_transition(self):
        protocol = AGProtocol(4)
        engine = _engine(protocol, Configuration([4, 0, 0, 0]))
        event = engine.step()
        assert event is not None
        assert engine.counts == [3, 1, 0, 0]
        assert engine.events == 1
        assert event.interactions == engine.interactions >= 1

    def test_agent_count_conserved(self):
        protocol = TreeRankingProtocol(9, k=2)
        config = Configuration.all_in_state(8, 9, protocol.num_states)
        engine = _engine(protocol, config)
        engine.run()
        assert sum(engine.counts) == 9

    def test_run_reaches_correct_ranking(self):
        protocol = AGProtocol(8)
        engine = _engine(protocol, Configuration.all_in_state(3, 8, 8))
        assert engine.run() is True
        assert engine.counts == [1] * 8

    def test_interactions_at_least_events(self):
        protocol = AGProtocol(16)
        engine = _engine(protocol, Configuration.all_in_state(0, 16, 16))
        engine.run()
        assert engine.interactions >= engine.events > 0

    def test_validates_configuration_size(self):
        protocol = AGProtocol(5)
        with pytest.raises(ConfigurationError):
            _engine(protocol, Configuration([1] * 4))

    def test_validates_agent_count(self):
        protocol = AGProtocol(5)
        with pytest.raises(ConfigurationError):
            _engine(protocol, Configuration([2, 1, 1, 1, 1]))

    def test_rand_below_range(self):
        protocol = AGProtocol(4)
        engine = _engine(protocol, Configuration([1] * 4))
        draws = [engine._draws.rand_below(7) for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) < 7
        assert len(set(draws)) == 7  # all values reachable

    def test_max_interactions_budget(self):
        protocol = AGProtocol(32)
        engine = _engine(protocol, Configuration.all_in_state(0, 32, 32))
        silent = engine.run(max_interactions=50)
        assert silent is False
        assert engine.interactions == 50

    def test_null_pair_from_families_raises(self):
        class Broken(AGProtocol):
            def delta(self, initiator, responder):
                return None  # families still claim productive pairs

        engine = _engine(Broken(4), Configuration([4, 0, 0, 0]))
        with pytest.raises(SimulationError):
            engine.step()


class TestSequentialEngineBasics:
    def test_solved_is_silent(self):
        protocol = AGProtocol(5)
        engine = _engine(
            protocol, solved_configuration(protocol), cls=SequentialEngine
        )
        assert engine.run() is True
        assert engine.interactions == 0

    def test_agent_array_matches_counts(self):
        protocol = RingOfTrapsProtocol(m=3)
        config = Configuration.all_in_state(0, 12, 12)
        engine = _engine(protocol, config, cls=SequentialEngine)
        engine.run(max_interactions=500)
        counts = [0] * protocol.num_states
        for state in engine.agent_states:
            counts[state] += 1
        assert counts == engine.counts

    def test_reaches_correct_ranking(self):
        protocol = AGProtocol(6)
        engine = _engine(
            protocol, Configuration.all_in_state(0, 6, 6), cls=SequentialEngine
        )
        assert engine.run() is True
        assert engine.counts == [1] * 6

    def test_every_interaction_counted(self):
        protocol = AGProtocol(6)
        engine = _engine(
            protocol, Configuration.all_in_state(0, 6, 6), cls=SequentialEngine
        )
        engine.run(max_interactions=100)
        # sequential counts nulls too, so interactions ≥ events always
        assert engine.interactions >= engine.events

    def test_step_returns_none_for_null(self):
        protocol = AGProtocol(4)
        # two distinct singleton states → every interaction is null
        engine = _engine(
            protocol, Configuration([1, 1, 1, 1]), cls=SequentialEngine
        )
        assert engine.step() is None
        assert engine.interactions == 1


class TestRunProtocol:
    def test_result_fields(self):
        protocol = AGProtocol(8)
        config = Configuration.all_in_state(0, 8, 8)
        result = run_protocol(protocol, config, seed=1)
        assert result.silent is True
        assert result.protocol_name == "AG"
        assert result.engine_name == "jump"
        assert result.num_agents == 8
        assert result.parallel_time == result.interactions / 8
        assert result.final_configuration.is_ranked(8)
        assert result.wall_time_s >= 0
        assert result.seed == 1

    def test_deterministic_given_seed(self):
        protocol = AGProtocol(10)
        config = Configuration.all_in_state(0, 10, 10)
        a = run_protocol(protocol, config, seed=42)
        b = run_protocol(protocol, config, seed=42)
        assert a.interactions == b.interactions
        assert a.events == b.events

    def test_different_seeds_differ(self):
        protocol = AGProtocol(10)
        config = Configuration.all_in_state(0, 10, 10)
        runs = {run_protocol(protocol, config, seed=s).interactions
                for s in range(5)}
        assert len(runs) > 1

    def test_unknown_engine_rejected(self):
        protocol = AGProtocol(4)
        with pytest.raises(SimulationError):
            run_protocol(protocol, solved_configuration(protocol),
                         engine="warp")

    def test_require_silence_raises_on_budget(self):
        protocol = AGProtocol(32)
        config = Configuration.all_in_state(0, 32, 32)
        with pytest.raises(
            SimulationLimitReached, match=r"\(max_interactions=10 reached\)"
        ):
            run_protocol(protocol, config, seed=0, max_interactions=10,
                         require_silence=True)

    def test_require_silence_names_the_events_budget(self):
        protocol = AGProtocol(200)
        config = Configuration.all_in_state(0, 200, 200)
        with pytest.raises(
            SimulationLimitReached,
            match=r"not silent after 10 events .*\(max_events=10 reached\)",
        ):
            run_protocol(protocol, config, seed=1, max_events=10,
                         require_silence=True)

    def test_budget_returns_non_silent(self):
        protocol = AGProtocol(32)
        config = Configuration.all_in_state(0, 32, 32)
        result = run_protocol(protocol, config, seed=0, max_interactions=10)
        assert result.silent is False
        assert result.interactions == 10

    def test_sequential_engine_selectable(self):
        protocol = AGProtocol(6)
        config = Configuration.all_in_state(0, 6, 6)
        result = run_protocol(protocol, config, seed=3, engine="sequential")
        assert result.silent and result.engine_name == "sequential"

    def test_repr(self):
        protocol = AGProtocol(6)
        result = run_protocol(
            protocol, Configuration.all_in_state(0, 6, 6), seed=0
        )
        assert "silent" in repr(result)


def _cap_engine(kind):
    """One engine of ``kind`` through ``build_engine``, 50 events in."""
    protocol = AGProtocol(60) if kind == "jump-ag" else TreeRankingProtocol(64)
    start = random_configuration(protocol, seed=5)
    biased = StateBiasedScheduler(
        [1.0 if s % 2 else 0.5 for s in range(protocol.num_states)]
    )
    options = {
        "jump-ag": {},
        "jump-tree": {},
        "sequential": {"engine": "sequential"},
        "scheduled": {"engine": "sequential", "scheduler": biased},
        "weighted": {"scheduler": biased},
        "agent": {"scheduler": DegreeSkewedScheduler(exponent=1.5)},
        "batch": {"backend": "numpy"},
    }[kind]
    engine, name = build_engine(protocol, start, seed=3, **options)
    assert name.split(":")[0] == kind.split("-")[0]
    engine.run(max_events=50)
    return engine


class TestInteractionsCap:
    """An interactions cap at or behind the clock draws nothing."""

    @pytest.mark.parametrize(
        "kind",
        ["jump-ag", "jump-tree", "sequential", "scheduled", "weighted",
         "agent", "batch"],
    )
    def test_exhausted_cap_keeps_the_clock_and_the_stream(self, kind):
        plain = _cap_engine(kind)
        capped = _cap_engine(kind)
        clock = capped.interactions
        assert clock > 1
        for cap in (1, clock - 1, clock):
            assert capped.run(max_interactions=cap) is False
            assert (capped.events, capped.interactions) == (50, clock)
        plain.run(max_events=150)
        capped.run(max_events=150)
        assert capped.events == plain.events == 150
        assert capped.interactions == plain.interactions
        assert list(capped.counts) == list(plain.counts)
        # The clock never decreases, whatever cap a call brings.
        for step in (7, -20, 0, 40, -1000, 3):
            before = capped.interactions
            cap = before + step
            capped.run(max_interactions=cap)
            assert before <= capped.interactions <= max(before, cap)


class TestRecorders:
    def test_trajectory_recorder_sees_every_event(self):
        protocol = AGProtocol(8)
        config = Configuration.all_in_state(0, 8, 8)
        recorder = TrajectoryRecorder()
        result = run_protocol(protocol, config, seed=5, recorder=recorder)
        assert len(recorder.events) == result.events
        # interaction stamps strictly increase
        stamps = [e.interactions for e in recorder.events]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_metric_recorder_tracks_duplicates(self):
        protocol = AGProtocol(8)
        config = Configuration.all_in_state(0, 8, 8)
        recorder = MetricRecorder(
            lambda counts: sum(c - 1 for c in counts if c > 1)
        )
        run_protocol(protocol, config, seed=5, recorder=recorder)
        assert recorder.values[0] == 7  # all 8 agents piled on one state
        assert recorder.values[-1] == 0  # perfectly ranked
        assert len(recorder.values) == len(recorder.interactions)

    def test_recorder_with_sequential_engine(self):
        protocol = AGProtocol(6)
        config = Configuration.all_in_state(0, 6, 6)
        recorder = TrajectoryRecorder()
        result = run_protocol(
            protocol, config, seed=5, engine="sequential", recorder=recorder
        )
        assert len(recorder.events) == result.events


def _reset_storm_engine(instrumentation=None):
    """Tree n=4096 from the tree bench case's random start: its reset
    storm compiles thousands of distinct pairs in 20 000 events."""
    protocol = TreeRankingProtocol(4096)
    return JumpEngine(
        protocol,
        random_configuration(protocol, seed=11),
        np.random.default_rng(11),
        instrumentation=instrumentation,
    )


def _weighted_timeline_engine(instrumentation=None):
    """The golden ``weighted-timeline`` case: a biased segment, a
    many-class segment, then the first segment's scheduler again (which
    shares its compiled index and program cache)."""
    protocol = TreeRankingProtocol(33, k=2)
    biased = StateBiasedScheduler(
        [1.0] * protocol.num_ranks + [0.2] * protocol.num_extra_states
    )
    many_class = StateBiasedScheduler(
        [0.80 + 0.02 * (s % 9) for s in range(protocol.num_states)]
    )
    timeline = EpochScheduler([
        (EpochBoundary(kind="events", value=1000), biased),
        (EpochBoundary(kind="events", value=3000), many_class),
        (None, biased),
    ])
    return WeightedScheduledEngine(
        protocol,
        random_configuration(protocol, seed=0, include_extras=True),
        np.random.default_rng(11),
        timeline,
        instrumentation=instrumentation,
    )


def _program_caches(engine):
    """The weighted engine's compiled programs, one dict per distinct
    index: its pair dict plus the filled entries of its dense
    same-state list."""
    caches = {}
    for _, pairs, same in engine._segments:
        cache = dict(pairs)
        cache.update(
            (("same", state), entry)
            for state, entry in enumerate(same)
            if entry is not None
        )
        caches[id(pairs)] = cache
    return list(caches.values())


def _plain(value):
    """True iff ``value`` is built only from ints, bools, ``None`` and
    tuples of those, at every depth."""
    if type(value) is tuple:
        return all(_plain(item) for item in value)
    return value is None or type(value) in (int, bool)


class TestCompiledTransitionTables:
    def test_compiled_programs_are_plain_data(self):
        """Cached programs hold no object the cyclic garbage collector
        must keep tracking: the per-state plans carry the references."""
        engine = _reset_storm_engine()
        engine.run(max_events=20_000)
        entries = list(engine._pair_table.values()) + [
            entry for entry in engine._ss_progs if entry is not None
        ]
        assert len(entries) >= 1000
        assert all(_plain(entry) for entry in entries)

        engine = _weighted_timeline_engine()
        engine.run(max_events=8000)
        assert engine.epoch == 2
        entries = [
            entry
            for cache in _program_caches(engine)
            for entry in cache.values()
        ]
        assert entries
        assert all(_plain(entry) for entry in entries)

    def test_compile_counter_counts_cache_misses(self):
        instr = Instrumentation()
        engine = _reset_storm_engine(instr)
        engine.run(max_events=20_000)
        compiled = len(engine._pair_table) + sum(
            entry is not None for entry in engine._ss_progs
        )
        assert compiled >= 1000
        assert instr.get("programs_compiled") == compiled
        assert instr.derived()["compiles_per_event"] == pytest.approx(
            compiled / engine.events
        )

        instr = Instrumentation()
        engine = _weighted_timeline_engine(instr)
        engine.run(max_events=8000)
        assert instr.get("programs_compiled") == sum(
            len(cache) for cache in _program_caches(engine)
        )
        assert instr.get("programs_compiled") > 0

    def test_tree_protocol_uses_lazy_pair_table(self):
        protocol = TreeRankingProtocol(9, k=2)
        engine = _engine(protocol, Configuration.all_in_state(8, 9, protocol.num_states))
        assert engine._ss_table is None  # cross-state families
        assert engine._pair_table == {}
        engine.step()
        assert len(engine._pair_table) >= 1  # filled on demand

    def test_broken_coverage_still_raises_lazily(self):
        """A protocol whose delta contradicts its families must raise at
        sampling time (not construction), with tables enabled."""

        class Broken(AGProtocol):
            def delta(self, initiator, responder):
                return None

        engine = _engine(Broken(4), Configuration([4, 0, 0, 0]))
        assert engine._ss_table is None  # compilation detected the mismatch
        with pytest.raises(SimulationError):
            engine.run()


class TestDebugMode:
    def test_debug_run_checks_weight_sync(self):
        engine = JumpEngine(
            AGProtocol(16),
            Configuration.all_in_state(0, 16, 16),
            np.random.default_rng(0),
            debug=True,
        )
        assert engine.run() is True

    def test_debug_detects_desync(self):
        engine = JumpEngine(
            AGProtocol(16),
            Configuration.all_in_state(0, 16, 16),
            np.random.default_rng(0),
            debug=True,
        )
        engine._weight += 1  # corrupt the cache
        with pytest.raises(AssertionError):
            engine.step()


class TestExactSampling:
    def test_rand_below_huge_bound_in_range(self):
        engine = _engine(AGProtocol(4), Configuration([1] * 4))
        bound = (1 << 60) + 3
        draws = [engine._draws.rand_below(bound) for _ in range(200)]
        assert all(0 <= d < bound for d in draws)
        # Float-multiply sampling would collapse to multiples of 128 up
        # here; exact sampling must produce odd values too.
        assert any(d % 2 == 1 for d in draws)

    def test_rand_below_small_bound_uniform(self):
        engine = _engine(AGProtocol(4), Configuration([1] * 4))
        draws = [engine._draws.rand_below(3) for _ in range(3000)]
        for value in range(3):
            share = draws.count(value) / len(draws)
            assert abs(share - 1 / 3) < 0.05

    def test_rand_below_bound_one(self):
        engine = _engine(AGProtocol(4), Configuration([1] * 4))
        assert engine._draws.rand_below(1) == 0


class TestFastLoop:
    def test_max_events_honoured_exactly(self):
        engine = _engine(AGProtocol(64), Configuration.all_in_state(0, 64, 64))
        assert engine.run(max_events=10) is False
        assert engine.events == 10

    def test_resumable_after_budget(self):
        engine = _engine(AGProtocol(32), Configuration.all_in_state(0, 32, 32))
        engine.run(max_events=5)
        assert engine.run() is True
        assert engine.counts == [1] * 32

    @pytest.mark.parametrize(
        "protocol_factory",
        [lambda: AGProtocol(64), lambda: TreeRankingProtocol(16, k=2)],
        ids=["same-state", "general"],
    )
    def test_exhausted_budget_is_noop(self, protocol_factory):
        """A second run() with a smaller/equal budget must not advance."""
        protocol = protocol_factory()
        start = Configuration.all_in_state(0, protocol.num_agents,
                                           protocol.num_states)
        engine = _engine(protocol, start)
        engine.run(max_events=10)
        before = (engine.events, engine.interactions, list(engine.counts))
        assert engine.run(max_events=5) is False
        assert (engine.events, engine.interactions, list(engine.counts)) == before
        assert engine.run(max_events=10) is False
        assert engine.events == 10

    def test_large_population_pileup_ranks(self):
        """Exercises the proposal sampler and the mode switch to Fenwick."""
        n = 300
        engine = _engine(AGProtocol(n), Configuration.all_in_state(0, n, n))
        assert engine.run() is True
        assert engine.counts == [1] * n

    def test_near_silent_start_uses_fenwick_path(self):
        """One duplicate among n agents: acceptance would be ~1/n, so the
        fast loop must start in Fenwick mode and still be exact."""
        n = 200
        counts = [1] * n
        counts[3] = 2
        counts[n - 1] = 0
        engine = _engine(AGProtocol(n), Configuration(counts))
        assert engine.run() is True
        assert engine.counts == [1] * n

    def test_count_change_into_a_state_in_no_family_is_kept(self):
        """The fused loop moves every count a transition changes, also
        into a state that has no slot of its own."""
        protocol = _SinkProtocol()
        start = Configuration([30, 0, 5, 5, 0])
        fast = run_protocol(protocol, start, seed=1)
        general = run_protocol(protocol, start, seed=1, recorder=Recorder())
        counts = fast.final_configuration.counts_list()
        assert sum(counts) == 40
        assert counts == general.final_configuration.counts_list()

    def test_fast_and_general_loops_agree_distributionally(self):
        protocol = AGProtocol(16)
        start = Configuration.all_in_state(0, 16, 16)

        def median(base, **kwargs):
            times = []
            for seed in range(60):
                engine = _engine(protocol, start, seed=base + seed)
                engine.run(**kwargs)
                times.append(engine.interactions)
            return float(np.median(times))

        fast = median(0)
        # max_interactions forces the instrumented general loop.
        general = median(5000, max_interactions=1 << 40)
        assert abs(fast / general - 1) < 0.15


class TestJumpGeometricDistribution:
    @pytest.mark.slow
    def test_skip_distribution_matches_geometric(self):
        """One productive pair among n=20 agents: skip ~ Geometric(2/380)."""
        protocol = AGProtocol(20)
        counts = [1] * 20
        counts[0] = 2
        counts[19] = 0
        samples = []
        for seed in range(400):
            engine = _engine(protocol, Configuration(counts), seed=seed)
            event = engine.step()
            samples.append(event.interactions)
        p = 2 / (20 * 19)
        expected_mean = 1 / p  # 190
        mean = float(np.mean(samples))
        # 400 samples of Geometric(1/190): std of mean ≈ 190/20 ≈ 9.5
        assert abs(mean - expected_mean) < 40

"""Property tests: external mutation never desyncs the fast-path engine.

The scenario engine corrupts a *running* engine's configuration through
``reset_configuration`` — the one seam where state changes outside the
protocol's own dynamics.  These tests drive an engine partway (through
the compiled-table fast loops), inject every fault kind, and verify the
fast-path invariants survive:

* the incremental weight cache ``W`` equals the weight re-summed from
  freshly rebuilt families;
* the compiled transition tables still produce a legal trajectory — the
  continued run reaches silence and a correctly ranked configuration;
* silence detection agrees with the protocol's own ``is_silent``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGProtocol,
    Configuration,
    JumpEngine,
    RingOfTrapsProtocol,
    SequentialEngine,
    TreeRankingProtocol,
    corrupt_agents,
    crash_and_replace,
    random_configuration,
)
from repro.core.batch import _MIN_BATCH, BatchEngine
from repro.core.draws import DrawStream
from repro.core.faults import adversarial_swap


def _protocol(index):
    return [
        AGProtocol(12),
        RingOfTrapsProtocol(m=4),
        TreeRankingProtocol(13, k=3),
    ][index]


def _fault(configuration, kind, victims, seed):
    if kind == "corrupt":
        return corrupt_agents(configuration, victims, seed=seed)
    if kind == "crash":
        return crash_and_replace(
            configuration, victims, replacement_state=0, seed=seed
        )
    swap_with = configuration.num_states - 1
    return adversarial_swap(configuration, 0, swap_with)


class TestWeightCacheAfterMutation:
    @settings(max_examples=60, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warmup_events=st.integers(0, 120),
        victims=st.integers(0, 12),
        kind=st.sampled_from(["corrupt", "crash", "swap"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_jump_cached_weight_matches_recomputed(
        self, protocol_index, warmup_events, victims, kind, seed
    ):
        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        engine = JumpEngine(protocol, start, np.random.default_rng(seed))
        # Warm the compiled tables and the incremental cache through the
        # recorder-free fast loop.
        engine.run(max_events=warmup_events)
        corrupted = _fault(
            Configuration(engine.counts), kind, victims, seed + 1
        )
        engine.reset_configuration(corrupted)
        assert engine.productive_weight == engine.recomputed_weight()
        assert engine.is_silent() == protocol.is_silent(corrupted)
        # The engine must remain runnable post-fault: the continued run
        # uses the already-compiled tables against the mutated counts.
        silent = engine.run(max_events=50_000)
        assert engine.productive_weight == engine.recomputed_weight()
        if silent:
            assert protocol.is_ranked(Configuration(engine.counts))

    @settings(max_examples=30, deadline=None)
    @given(
        warmup_events=st.integers(0, 60),
        victims=st.integers(0, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sequential_reset_matches_jump_invariants(
        self, warmup_events, victims, seed
    ):
        protocol = AGProtocol(10)
        start = random_configuration(protocol, seed=seed)
        engine = SequentialEngine(
            protocol, start, np.random.default_rng(seed)
        )
        engine.run(max_events=warmup_events)
        corrupted = corrupt_agents(
            Configuration(engine.counts), victims, seed=seed + 1
        )
        engine.reset_configuration(corrupted)
        assert engine.productive_weight == sum(
            family.weight for family in protocol.build_families(engine.counts)
        )
        assert sorted(engine.agent_states) == [
            s
            for s, count in enumerate(corrupted)
            for _ in range(count)
        ]
        assert engine.run(max_events=100_000)
        assert protocol.is_ranked(Configuration(engine.counts))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), victims=st.integers(1, 8))
    def test_post_fault_trajectory_matches_fresh_engine_distributionally(
        self, seed, victims
    ):
        # A reset engine and a fresh engine given the same generator
        # state must produce the *identical* trajectory: the compiled
        # tables carry no stale count information.
        protocol = AGProtocol(12)
        start = random_configuration(protocol, seed=seed)
        warm = JumpEngine(protocol, start, np.random.default_rng(seed))
        warm.run(max_events=40)
        corrupted = corrupt_agents(
            Configuration(warm.counts), victims, seed=seed + 1
        )
        warm.reset_configuration(corrupted)
        fresh = JumpEngine(
            protocol, corrupted, np.random.default_rng(seed + 2)
        )
        # Re-seed the warm engine's stream to match the fresh engine,
        # replaying the constructor's uniform-batch draw so both
        # generators sit at the same stream position.
        warm._draws = DrawStream(np.random.default_rng(seed + 2), uniforms=True)
        base_interactions = warm.interactions
        base_events = warm.events
        warm_silent = warm.run(max_events=base_events + 10_000)
        fresh_silent = fresh.run(max_events=10_000)
        assert warm_silent == fresh_silent
        assert warm.counts == fresh.counts
        assert warm.interactions - base_interactions == fresh.interactions
        assert warm.events - base_events == fresh.events


class TestBatchResyncEquivalence:
    """The numpy batch kernel's ``reset_configuration`` is the same
    resync seam: aggregates and the frozen epoch rebuild from the
    mutated counts, and the continuation is exactly a fresh engine's."""

    @settings(max_examples=40, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warmup_events=st.integers(0, 120),
        victims=st.integers(0, 12),
        kind=st.sampled_from(["corrupt", "crash", "swap"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batch_aggregates_survive_mutation(
        self, protocol_index, warmup_events, victims, kind, seed
    ):
        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        engine = BatchEngine(protocol, start, np.random.default_rng(seed))
        engine.run(max_events=warmup_events)
        corrupted = _fault(
            Configuration(engine.counts), kind, victims, seed + 1
        )
        engine.reset_configuration(corrupted)
        engine._check_invariants()
        assert engine.is_silent() == protocol.is_silent(corrupted)
        silent = engine.run(max_events=50_000)
        engine._check_invariants()
        if silent:
            assert protocol.is_ranked(Configuration(engine.counts))

    @settings(max_examples=20, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
        victims=st.integers(1, 8),
    )
    def test_post_fault_trajectory_matches_fresh_batch_engine(
        self, protocol_index, seed, victims
    ):
        # A reset batch engine and a fresh one given the same generator
        # state must produce the *identical* trajectory: the frozen
        # epoch carries no stale count information.  The batch
        # constructor consumes no randomness (buffers fill lazily), so
        # aligning the stream means re-seeding and dropping the warm
        # engine's buffered draws and adaptive batch sizing — the same
        # canonicalisation ``snapshot()`` performs.
        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        warm = BatchEngine(protocol, start, np.random.default_rng(seed))
        warm.run(max_events=40)
        corrupted = corrupt_agents(
            Configuration(warm.counts), victims, seed=seed + 1
        )
        warm.reset_configuration(corrupted)
        fresh = BatchEngine(
            protocol, corrupted, np.random.default_rng(seed + 2)
        )
        warm._draws = DrawStream(np.random.default_rng(seed + 2))
        warm._lp_weight = -1
        warm._batch_size = _MIN_BATCH
        base_interactions = warm.interactions
        base_events = warm.events
        warm_silent = warm.run(max_events=base_events + 10_000)
        fresh_silent = fresh.run(max_events=10_000)
        assert warm_silent == fresh_silent
        assert warm.counts == fresh.counts
        assert warm.interactions - base_interactions == fresh.interactions
        assert warm.events - base_events == fresh.events


class TestSnapshotAfterChurn:
    """The checkpoint seam composes with the fault seam: a snapshot
    taken mid-scenario, after ``reset_configuration`` churn, restores
    and continues identically to the engine that took it."""

    @settings(max_examples=30, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warmup_events=st.integers(0, 100),
        victims=st.integers(1, 10),
        kind=st.sampled_from(["corrupt", "crash", "swap"]),
        tail_events=st.integers(1, 300),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_jump_snapshot_after_reset_configuration(
        self, protocol_index, warmup_events, victims, kind, tail_events, seed
    ):
        from repro import resume_engine

        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        engine = JumpEngine(protocol, start, np.random.default_rng(seed))
        engine.run(max_events=warmup_events)
        corrupted = _fault(
            Configuration(engine.counts), kind, victims, seed + 1
        )
        engine.reset_configuration(corrupted)
        # Run a little *after* the fault so the snapshot captures
        # genuinely post-churn sampler state, then checkpoint.
        engine.run(max_events=engine.events + 20)
        snapshot = engine.snapshot()
        restored = resume_engine(protocol, snapshot)
        assert restored.counts == engine.counts
        assert restored.productive_weight == engine.productive_weight
        target = engine.events + tail_events
        live_silent = engine.run(max_events=target)
        restored_silent = restored.run(max_events=target)
        assert live_silent == restored_silent
        assert restored.counts == engine.counts
        assert restored.interactions == engine.interactions
        assert restored.events == engine.events

    @settings(max_examples=20, deadline=None)
    @given(
        warmup_events=st.integers(0, 60),
        victims=st.integers(1, 8),
        tail_events=st.integers(1, 200),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sequential_snapshot_after_reset_configuration(
        self, warmup_events, victims, tail_events, seed
    ):
        from repro import resume_engine

        protocol = AGProtocol(10)
        start = random_configuration(protocol, seed=seed)
        engine = SequentialEngine(
            protocol, start, np.random.default_rng(seed)
        )
        engine.run(max_events=warmup_events)
        corrupted = corrupt_agents(
            Configuration(engine.counts), victims, seed=seed + 1
        )
        engine.reset_configuration(corrupted)
        engine.run(max_events=engine.events + 10)
        snapshot = engine.snapshot()
        restored = resume_engine(protocol, snapshot)
        target = engine.events + tail_events
        assert engine.run(max_events=target) == restored.run(
            max_events=target
        )
        assert restored.counts == engine.counts
        assert restored.agent_states == engine.agent_states
        assert restored.interactions == engine.interactions

    @settings(max_examples=25, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warmup_events=st.integers(0, 100),
        victims=st.integers(1, 10),
        kind=st.sampled_from(["corrupt", "crash", "swap"]),
        tail_events=st.integers(1, 300),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batch_snapshot_after_reset_configuration(
        self, protocol_index, warmup_events, victims, kind, tail_events, seed
    ):
        from repro import resume_engine

        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        engine = BatchEngine(protocol, start, np.random.default_rng(seed))
        engine.run(max_events=warmup_events)
        corrupted = _fault(
            Configuration(engine.counts), kind, victims, seed + 1
        )
        engine.reset_configuration(corrupted)
        engine.run(max_events=engine.events + 20)
        snapshot = engine.snapshot()
        restored = resume_engine(protocol, snapshot)
        assert restored.counts == engine.counts
        assert restored.productive_weight == engine.productive_weight
        target = engine.events + tail_events
        live_silent = engine.run(max_events=target)
        restored_silent = restored.run(max_events=target)
        assert live_silent == restored_silent
        assert restored.counts == engine.counts
        assert restored.interactions == engine.interactions
        assert restored.events == engine.events

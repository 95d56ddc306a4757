"""Property tests: engine snapshots restore bit-for-bit.

The exactness contract of :mod:`repro.core.snapshot`: at a ``run()``
boundary, *run → continue* and *run → snapshot → restore → continue*
are indistinguishable — identical counts, identical counters, and (for
the canonicalised engines) identical downstream trajectories — for all
five engine kinds.  Serialisation (pickle and JSON) must round-trip
without weakening that.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGProtocol,
    EngineSnapshot,
    EpochBoundary,
    EpochScheduler,
    RingOfTrapsProtocol,
    StateBiasedScheduler,
    TreeRankingProtocol,
    build_engine,
    random_configuration,
    resume_engine,
)
from repro.exceptions import ReproError, SimulationError
from repro.scenarios.schedulers import ClusteredScheduler, DegreeSkewedScheduler


def _protocol(index):
    return [
        AGProtocol(12),
        RingOfTrapsProtocol(m=4),
        TreeRankingProtocol(13, k=3),
    ][index]


def _scheduler(kind, protocol):
    if kind == "uniform":
        return None
    if kind == "biased":
        return StateBiasedScheduler(
            [1.0 if s % 2 else 0.5 for s in range(protocol.num_states)]
        )
    if kind == "clustered":
        return ClusteredScheduler(
            num_states=protocol.num_states, num_clusters=3, across=0.2
        )
    if kind == "agent":
        return DegreeSkewedScheduler(exponent=1.5)
    # Epoch timeline crossing at least one boundary in a typical run.
    return EpochScheduler(
        [
            (
                EpochBoundary("events", 60),
                ClusteredScheduler(
                    num_states=protocol.num_states, num_clusters=2,
                    across=0.3,
                ),
            ),
            (None, StateBiasedScheduler([1.0] * protocol.num_states)),
        ]
    )


def _assert_same_state(reference, *others):
    for other in others:
        assert other.counts == reference.counts
        assert other.events == reference.events
        assert other.interactions == reference.interactions


def _three_way(protocol, configuration, seed, scheduler, engine,
               warm_events, tail_events, backend="python"):
    """run→continue == run→snapshot→restore→continue, all roundtrips."""
    def fresh():
        driver, _ = build_engine(
            protocol, configuration, seed, engine=engine,
            scheduler=scheduler, backend=backend,
        )
        return driver

    untouched = fresh()
    untouched.run(max_events=warm_events)
    checkpointed = fresh()
    checkpointed.run(max_events=warm_events)
    snapshot = checkpointed.snapshot()

    restored = resume_engine(protocol, snapshot, scheduler=scheduler)
    pickled = resume_engine(
        protocol, pickle.loads(pickle.dumps(snapshot)), scheduler=scheduler
    )
    jsoned = resume_engine(
        protocol,
        EngineSnapshot.from_dict(json.loads(json.dumps(snapshot.to_dict()))),
        scheduler=scheduler,
    )
    _assert_same_state(untouched, checkpointed, restored, pickled, jsoned)

    arms = (untouched, checkpointed, restored, pickled, jsoned)
    silences = [arm.run(max_events=tail_events) for arm in arms]
    assert len(set(silences)) == 1
    _assert_same_state(*arms)
    return snapshot


class TestSnapshotExactness:
    @settings(max_examples=40, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warm_events=st.integers(0, 150),
        tail_events=st.integers(1, 400),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_jump_engine(self, protocol_index, warm_events, tail_events,
                         seed):
        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        snapshot = _three_way(
            protocol, start, seed, None, "jump", warm_events, tail_events
        )
        assert snapshot.kind == "jump"

    @settings(max_examples=25, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warm_events=st.integers(0, 80),
        tail_events=st.integers(1, 200),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sequential_engine(self, protocol_index, warm_events,
                               tail_events, seed):
        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        snapshot = _three_way(
            protocol, start, seed, None, "sequential", warm_events,
            tail_events,
        )
        assert snapshot.kind == "sequential"
        assert snapshot.agent_states is not None

    @settings(max_examples=20, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        scheduler_kind=st.sampled_from(["biased", "clustered"]),
        warm_events=st.integers(0, 120),
        tail_events=st.integers(1, 300),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_weighted_fast_path(self, protocol_index, scheduler_kind,
                                warm_events, tail_events, seed):
        protocol = _protocol(protocol_index)
        scheduler = _scheduler(scheduler_kind, protocol)
        start = random_configuration(protocol, seed=seed)
        _three_way(
            protocol, start, seed, scheduler, "jump", warm_events,
            tail_events,
        )

    @settings(max_examples=15, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        scheduler_kind=st.sampled_from(["biased", "clustered"]),
        warm_events=st.integers(0, 60),
        tail_events=st.integers(1, 150),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_rejection_engine(self, protocol_index, scheduler_kind,
                              warm_events, tail_events, seed):
        protocol = _protocol(protocol_index)
        scheduler = _scheduler(scheduler_kind, protocol)
        start = random_configuration(protocol, seed=seed)
        snapshot = _three_way(
            protocol, start, seed, scheduler, "sequential", warm_events,
            tail_events,
        )
        assert snapshot.kind == "scheduled"

    @settings(max_examples=15, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warm_events=st.integers(0, 60),
        tail_events=st.integers(1, 150),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_agent_engine(self, protocol_index, warm_events, tail_events,
                          seed):
        protocol = _protocol(protocol_index)
        scheduler = _scheduler("agent", protocol)
        start = random_configuration(protocol, seed=seed)
        snapshot = _three_way(
            protocol, start, seed, scheduler, "jump", warm_events,
            tail_events,
        )
        assert snapshot.kind == "agent"

    @settings(max_examples=25, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warm_events=st.integers(0, 150),
        tail_events=st.integers(1, 400),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batch_engine_two_way(self, protocol_index, warm_events,
                                  tail_events, seed):
        """The numpy batch backend's snapshot canonicalises the taker
        (buffered draws are discarded — exact by memorylessness), so the
        contract is two-way: the snapshotting engine and every engine
        restored from the snapshot (direct, pickle, JSON) continue
        bit-identically to *each other*."""
        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        live, name = build_engine(
            protocol, start, seed, engine="jump", backend="numpy"
        )
        assert name == "batch"
        live.run(max_events=warm_events)
        snapshot = live.snapshot()
        assert snapshot.kind == "batch"
        restored = resume_engine(protocol, snapshot)
        pickled = resume_engine(protocol, pickle.loads(pickle.dumps(snapshot)))
        jsoned = resume_engine(
            protocol,
            EngineSnapshot.from_dict(json.loads(json.dumps(snapshot.to_dict()))),
        )
        arms = (live, restored, pickled, jsoned)
        _assert_same_state(*arms)
        silences = [
            arm.run(max_events=arm.events + tail_events) for arm in arms
        ]
        assert len(set(silences)) == 1
        _assert_same_state(*arms)

    @settings(max_examples=15, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        engine=st.sampled_from(["jump", "sequential"]),
        warm_events=st.integers(0, 150),
        tail_events=st.integers(1, 300),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_epoch_timeline_mid_epoch(self, protocol_index, engine,
                                      warm_events, tail_events, seed):
        """Snapshots taken before, at, and after an epoch boundary all
        restore exactly, including the epoch cursor."""
        protocol = _protocol(protocol_index)
        scheduler = _scheduler("epoch", protocol)
        start = random_configuration(protocol, seed=seed)
        snapshot = _three_way(
            protocol, start, seed, scheduler, engine, warm_events,
            tail_events,
        )
        assert 0 <= snapshot.epoch < scheduler.num_epochs


class TestStepDrivenSnapshots:
    """step()-driven engines may hold drifted sampler state; the
    snapshot canonicalises, so snapshot-taker and restoree still agree
    with each other (two-way, not versus an untouched arm)."""

    @settings(max_examples=25, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        warm_events=st.integers(1, 80),
        tail_events=st.integers(1, 120),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sequential_step_two_way(self, protocol_index, warm_events,
                                     tail_events, seed):
        protocol = _protocol(protocol_index)
        start = random_configuration(protocol, seed=seed)
        live, _ = build_engine(protocol, start, seed, engine="sequential")
        events = 0
        while events < warm_events and not live.is_silent():
            if live.step() is not None:
                events += 1
        snapshot = live.snapshot()
        restored = resume_engine(protocol, snapshot)
        _assert_same_state(live, restored)
        live.run(max_events=live.events + tail_events)
        restored.run(max_events=restored.events + tail_events)
        _assert_same_state(live, restored)


class TestSnapshotValidation:
    def test_kind_mismatch_rejected(self):
        protocol = AGProtocol(12)
        start = random_configuration(protocol, seed=0)
        driver, _ = build_engine(protocol, start, 1)
        driver.run(max_events=20)
        snapshot = driver.snapshot()
        sequential, _ = build_engine(protocol, start, 1, engine="sequential")
        with pytest.raises(SimulationError):
            sequential.restore(snapshot)

    def test_protocol_shape_mismatch_rejected(self):
        protocol = AGProtocol(12)
        start = random_configuration(protocol, seed=0)
        driver, _ = build_engine(protocol, start, 1)
        driver.run(max_events=20)
        snapshot = driver.snapshot()
        with pytest.raises(SimulationError):
            resume_engine(AGProtocol(13), snapshot)

    def test_scheduled_restore_needs_scheduler(self):
        protocol = AGProtocol(12)
        scheduler = _scheduler("biased", protocol)
        start = random_configuration(protocol, seed=0)
        driver, _ = build_engine(
            protocol, start, 1, scheduler=scheduler
        )
        driver.run(max_events=20)
        snapshot = driver.snapshot()
        with pytest.raises(SimulationError):
            resume_engine(protocol, snapshot)

    def _snapshot_dict(self):
        protocol = AGProtocol(12)
        start = random_configuration(protocol, seed=0)
        driver, _ = build_engine(protocol, start, 1)
        driver.run(max_events=20)
        return driver.snapshot().to_dict()

    def test_version_gate(self):
        data = self._snapshot_dict()
        data["version"] = 99
        with pytest.raises(SimulationError):
            EngineSnapshot.from_dict(data)

    def test_unknown_field_named(self):
        data = self._snapshot_dict()
        data["bogus"] = 1
        with pytest.raises(SimulationError, match="'bogus'"):
            EngineSnapshot.from_dict(data)

    @pytest.mark.parametrize(
        "field",
        ["kind", "num_states", "num_agents", "counts", "interactions",
         "events"],
    )
    def test_missing_field_named(self, field):
        data = self._snapshot_dict()
        del data[field]
        with pytest.raises(SimulationError, match=f"missing field '{field}'"):
            EngineSnapshot.from_dict(data)

    def test_non_sequence_field_named(self):
        data = self._snapshot_dict()
        data["counts"] = 5
        with pytest.raises(SimulationError, match="'counts' must be a sequence"):
            EngineSnapshot.from_dict(data)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("version", "x", "an int"),
            ("events", "3", "an int"),
            ("num_agents", True, "an int"),
            ("kind", 5, "a string"),
            ("rng_state", [1, 2], "a dict"),
        ],
    )
    def test_scalar_of_wrong_type_named(self, field, value, expected):
        data = self._snapshot_dict()
        data[field] = value
        with pytest.raises(
            SimulationError, match=f"'{field}' must be {expected}"
        ):
            EngineSnapshot.from_dict(data)

    @pytest.mark.parametrize(
        "field, element", [("counts", "3"), ("raws", 2.5), ("uniforms", "u")]
    )
    def test_tuple_element_of_wrong_type_named(self, field, element):
        data = self._snapshot_dict()
        data[field] = [element] + list(data[field])[1:]
        with pytest.raises(
            SimulationError, match=f"'{field}' element must be"
        ):
            EngineSnapshot.from_dict(data)

    def test_tampered_counts_rejected(self):
        protocol = AGProtocol(12)
        start = random_configuration(protocol, seed=0)
        driver, _ = build_engine(protocol, start, 1)
        driver.run(max_events=20)
        data = driver.snapshot().to_dict()
        data["counts"] = [c + 1 for c in data["counts"]]
        with pytest.raises(ReproError):
            resume_engine(protocol, EngineSnapshot.from_dict(data))

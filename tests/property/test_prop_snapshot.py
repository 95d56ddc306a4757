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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGProtocol,
    EngineSnapshot,
    EpochBoundary,
    EpochScheduler,
    JumpEngine,
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
    """step()-driven engines may hold drifted sampler state, and a jump
    engine also the fused loop's state between calls; the snapshot
    drops the one and canonicalises the other, so snapshot-taker and
    restoree still agree with each other (two-way, not versus an
    untouched arm)."""

    @settings(max_examples=25, deadline=None)
    @given(
        protocol_index=st.integers(0, 2),
        scheduler_kind=st.sampled_from(["uniform", "biased", "epoch"]),
        warm_events=st.integers(1, 80),
        tail_events=st.integers(1, 120),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_jump_step_two_way(self, protocol_index, scheduler_kind,
                               warm_events, tail_events, seed):
        protocol = _protocol(protocol_index)
        scheduler = _scheduler(scheduler_kind, protocol)
        start = random_configuration(protocol, seed=seed)
        live, name = build_engine(protocol, start, seed, scheduler=scheduler)
        assert name.split(":")[0] == (
            "jump" if scheduler is None else "weighted"
        )
        while live.events < warm_events and live.step() is not None:
            pass
        assert live._loop_state is not None or live.is_silent()
        snapshot = live.snapshot()
        assert live._loop_state is None
        restored = resume_engine(protocol, snapshot, scheduler=scheduler)
        _assert_same_state(live, restored)
        for _ in range(tail_events // 2):
            assert (live.step() is None) == (restored.step() is None)
        _assert_same_state(live, restored)
        live.run(max_events=live.events + tail_events)
        restored.run(max_events=restored.events + tail_events)
        _assert_same_state(live, restored)

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

    @staticmethod
    def _live_engine(engine):
        protocol = AGProtocol(6)
        scheduler = (
            _scheduler("biased", protocol) if engine == "weighted" else None
        )
        live, name = build_engine(
            protocol, random_configuration(protocol, seed=0), 1,
            engine="sequential" if engine == "sequential" else "jump",
            scheduler=scheduler,
        )
        assert name.split(":")[0] == engine
        live.run(max_events=10)
        return live

    @pytest.mark.parametrize(
        "engine, field, damage",
        [
            ("sequential", "agent_states", lambda v: [-1, *v[1:]]),
            ("sequential", "agent_states", lambda v: [9, *v[1:]]),
            ("sequential", "pair_buffer", lambda v: [-1, 2]),
            ("sequential", "pair_buffer", lambda v: [0, 99]),
            ("sequential", "pair_buffer", lambda v: [0, 1, 2]),
            ("sequential", "raws", lambda v: [-3]),
            ("sequential", "raws", lambda v: [2**70]),
            ("sequential", "accepts", lambda v: [1.5]),
            ("sequential", "accepts", lambda v: [-2.0]),
            ("weighted", "uniforms", lambda v: [float("nan"), *v[1:]]),
            ("weighted", "uniform_pos", lambda v: -1),
            ("weighted", "uniform_pos", lambda v: 8193),
            ("jump", "uniform_pos", lambda v: 8193),
        ],
        ids=[
            "state-minus-one", "state-nine", "pair-minus-one", "pair-99",
            "odd-pairs", "raw-minus-three", "raw-2**70", "accept-1.5",
            "accept-minus-two", "uniform-nan", "weighted-pos-minus-one",
            "weighted-pos-past-batch", "jump-pos-past-batch",
        ],
    )
    def test_out_of_range_draws_named_before_restore(
        self, engine, field, damage
    ):
        """Each damaged value restored and ran (or failed later with a
        bare ``IndexError``); now the restore fails first, naming the
        field, and leaves the engine as it was."""
        live = self._live_engine(engine)
        data = live.snapshot().to_dict()
        before = json.dumps(data, sort_keys=True)
        data[field] = damage(data[field])
        snapshot = EngineSnapshot.from_dict(data)
        with pytest.raises(SimulationError, match=f"'{field}'"):
            live.restore(snapshot)
        assert json.dumps(live.snapshot().to_dict(), sort_keys=True) == before

    def test_tampered_counts_rejected(self):
        protocol = AGProtocol(12)
        start = random_configuration(protocol, seed=0)
        driver, _ = build_engine(protocol, start, 1)
        driver.run(max_events=20)
        data = driver.snapshot().to_dict()
        data["counts"] = [c + 1 for c in data["counts"]]
        with pytest.raises(ReproError):
            resume_engine(protocol, EngineSnapshot.from_dict(data))


class TestRestoreLeavesARefusedEngineAlone:
    """A snapshot from another bit generator, with a generator state
    numpy refuses, or with a generator word that is not an exact int,
    is refused with the other checks, before the engine adopts any
    field."""

    KINDS = {
        # kind: (scheduler kind, engine, backend)
        "jump": ("uniform", "jump", "python"),
        "weighted": ("epoch", "jump", "python"),
        "sequential": ("uniform", "sequential", "python"),
        "scheduled": ("epoch", "sequential", "python"),
        "agent": ("agent", "jump", "python"),
        "batch": ("uniform", "jump", "numpy"),
    }

    @classmethod
    def _engine(cls, kind, protocol):
        scheduler_kind, engine, backend = cls.KINDS[kind]
        scheduler = _scheduler(scheduler_kind, protocol)
        built, name = build_engine(
            protocol, random_configuration(protocol, seed=0), 1,
            engine=engine, scheduler=scheduler, backend=backend,
        )
        assert name.split(":")[0] == kind
        return built

    @staticmethod
    def _fields(engine):
        return (
            list(engine.counts), engine.events, engine.interactions,
            getattr(engine, "epoch", None),
        )

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_foreign_generator_refused_before_any_change(self, kind):
        protocol = TreeRankingProtocol(40)
        source = self._engine(kind, protocol)
        source.run(max_events=100)
        data = source.snapshot().to_dict()
        data["rng_state"]["bit_generator"] = "MT19937"
        snapshot = EngineSnapshot.from_dict(data)
        target = self._engine(kind, protocol)
        before = self._fields(target)
        # The snapshot differs from the target in every checked field.
        assert before[:3] != (list(snapshot.counts), 100, snapshot.interactions)
        if kind in ("weighted", "scheduled"):
            assert (before[3], snapshot.epoch) == (0, 1)
        with pytest.raises(SimulationError, match="'MT19937'.*'PCG64'"):
            target.restore(snapshot)
        assert self._fields(target) == before

    #: Damage to a PCG64 state, and what numpy's state setter raises.
    DAMAGED = {
        "missing-inc": (lambda state: state["state"].pop("inc"), "KeyError"),
        "negative": (
            lambda state: state["state"].__setitem__("state", -1),
            "OverflowError",
        ),
        "not-an-int": (
            lambda state: state.__setitem__("has_uint32", "x"), "TypeError"
        ),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGED))
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_damaged_generator_state_refused_before_any_change(
        self, kind, damage
    ):
        protocol = TreeRankingProtocol(40)
        source = self._engine(kind, protocol)
        source.run(max_events=100)
        data = source.snapshot().to_dict()
        change, raised = self.DAMAGED[damage]
        change(data["rng_state"])
        target = self._engine(kind, protocol)
        before = self._fields(target)
        with pytest.raises(
            SimulationError, match=f"generator state is damaged: {raised}"
        ):
            target.restore(EngineSnapshot.from_dict(data))
        assert self._fields(target) == before

    #: A PCG64 state word passed through a JSON parser that reads
    #: integers as doubles (or mistyped as a bool), by field.
    NOT_AN_INT = {
        "state.state": lambda state: state["state"].__setitem__(
            "state", float(state["state"]["state"])
        ),
        "state.inc": lambda state: state["state"].__setitem__(
            "inc", float(state["state"]["inc"])
        ),
        "has_uint32": lambda state: state.__setitem__(
            "has_uint32", float(state["has_uint32"])
        ),
        "uinteger": lambda state: state.__setitem__(
            "uinteger", float(state["uinteger"])
        ),
        "has_uint32-bool": lambda state: state.__setitem__(
            "has_uint32", bool(state["has_uint32"])
        ),
    }

    @pytest.mark.parametrize("word", sorted(NOT_AN_INT))
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_generator_word_not_an_int_refused_before_any_change(
        self, kind, word
    ):
        """numpy's setter truncates a float word, so it would restore
        another stream silently; the check refuses it by field."""
        protocol = TreeRankingProtocol(40)
        source = self._engine(kind, protocol)
        source.run(max_events=100)
        data = source.snapshot().to_dict()
        self.NOT_AN_INT[word](data["rng_state"])
        target = self._engine(kind, protocol)
        before = self._fields(target)
        field_name = word.split("-")[0]
        with pytest.raises(
            SimulationError, match=f"damaged: TypeError: field '{field_name}'"
        ):
            target.restore(EngineSnapshot.from_dict(data))
        assert self._fields(target) == before

    @pytest.mark.parametrize(
        "generator, words",
        [(np.random.MT19937, "state.key"), (np.random.Philox, "state.counter")],
        ids=["mt19937", "philox"],
    )
    def test_array_words_of_other_generators(self, generator, words):
        """Other generators keep arrays of words: an integer array
        restores, and the same words as floats are refused by field."""
        protocol = AGProtocol(30)
        start = random_configuration(protocol, seed=1)
        source = JumpEngine(
            protocol, start, np.random.Generator(generator(3))
        )
        source.run(max_events=20)
        snapshot = source.snapshot()
        target = JumpEngine(
            protocol, start, np.random.Generator(generator(4))
        )
        before = self._fields(target)
        data = snapshot.to_dict()
        outer, inner = words.split(".")
        state = data["rng_state"][outer]
        state[inner] = state[inner].astype(float)
        with pytest.raises(
            SimulationError, match=f"damaged: TypeError: field '{words}'"
        ):
            target.restore(EngineSnapshot.from_dict(data))
        assert self._fields(target) == before
        target.restore(snapshot)
        source.run(max_events=60)
        target.run(max_events=60)
        assert self._fields(target) == self._fields(source)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_json_round_trip_keeps_the_words_exact(self, kind):
        """Python's JSON keeps 128-bit ints exact: such a snapshot
        restores, and the restored engine continues as the source."""
        protocol = TreeRankingProtocol(40)
        source = self._engine(kind, protocol)
        source.run(max_events=100)
        snapshot = source.snapshot()
        data = json.loads(json.dumps(snapshot.to_dict()))
        assert data["rng_state"] == snapshot.rng_state
        target = self._engine(kind, protocol)
        target.restore(EngineSnapshot.from_dict(data))
        assert self._fields(target) == self._fields(source)
        source.run(max_events=300)
        target.run(max_events=300)
        assert self._fields(target) == self._fields(source)

    @pytest.mark.parametrize("kind", ["weighted", "scheduled"])
    def test_epoch_outside_the_timeline_refused_before_any_change(
        self, kind
    ):
        protocol = TreeRankingProtocol(40)
        source = self._engine(kind, protocol)
        source.run(max_events=100)
        data = source.snapshot().to_dict()
        data["epoch"] = 5
        target = self._engine(kind, protocol)
        before = self._fields(target)
        with pytest.raises(SimulationError, match="epoch 5"):
            target.restore(EngineSnapshot.from_dict(data))
        assert self._fields(target) == before


class TestWeightedSnapshotsCarryNoUniforms:
    """The jump engine's construction-time uniform batch is drawn (it
    fixes the generator state every trajectory starts from) and marked
    consumed at once, so no snapshot carries it."""

    @pytest.mark.parametrize("scheduler_kind", ["biased", "epoch"])
    def test_biased_snapshot_is_uniform_free_and_resumes(
        self, scheduler_kind
    ):
        protocol = TreeRankingProtocol(13, k=3)
        scheduler = _scheduler(scheduler_kind, protocol)
        start = random_configuration(protocol, seed=2)

        def fresh():
            engine, name = build_engine(
                protocol, start, 3, scheduler=scheduler
            )
            assert name.split(":")[0] == "weighted"
            return engine

        untouched = fresh()
        untouched.run(max_events=40)
        checkpointed = fresh()
        assert checkpointed.snapshot().uniforms == ()
        checkpointed.run(max_events=40)
        snapshot = checkpointed.snapshot()
        assert snapshot.uniforms == ()
        restored = resume_engine(
            protocol,
            EngineSnapshot.from_dict(
                json.loads(json.dumps(snapshot.to_dict()))
            ),
            scheduler=scheduler,
        )
        arms = (untouched, checkpointed, restored)
        for arm in arms:
            arm.run(max_events=200)
        _assert_same_state(*arms)

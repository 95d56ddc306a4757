"""Unit tests for the numpy batch kernel and the backend seam.

The :class:`~repro.core.batch.BatchEngine` is the ``backend="numpy"``
substrate behind :func:`~repro.core.engine.build_engine`.  These tests
pin the routing, the budget semantics (shared with the scalar
engines), the compiled-program cache, and the exactness hooks; the
distributional equivalence itself lives in the property suite
(``tests/property/test_prop_batch_kernel.py``).
"""

import numpy as np
import pytest

from repro import (
    AGProtocol,
    Configuration,
    JumpEngine,
    LineOfTrapsProtocol,
    SequentialEngine,
    StateBiasedScheduler,
    TreeRankingProtocol,
    WeightedScheduledEngine,
    random_configuration,
    run_protocol,
)
from repro.core.batch import BatchEngine, _program_for, batch_supported
from repro.exceptions import SimulationError
from repro.obs import Instrumentation


def _ag(n=16):
    protocol = AGProtocol(n)
    return protocol, Configuration.all_in_state(0, n, n)


class TestBackendRouting:
    def test_python_backend_routes_to_jump(self):
        from repro import build_engine

        protocol, start = _ag()
        engine, name = build_engine(protocol, start, seed=1)
        assert name == "jump"
        assert isinstance(engine, JumpEngine)

    def test_numpy_backend_routes_to_batch(self):
        from repro import build_engine

        protocol, start = _ag()
        engine, name = build_engine(protocol, start, seed=1, backend="numpy")
        assert name == "batch"
        assert isinstance(engine, BatchEngine)

    def test_unknown_backend_rejected(self):
        from repro import build_engine

        protocol, start = _ag()
        with pytest.raises(SimulationError, match="backend"):
            build_engine(protocol, start, seed=1, backend="cuda")

    def test_numpy_backend_sequential_engine_stays_scalar(self):
        """Only the jump chain has a batch realisation; asking for the
        sequential reference keeps the sequential reference."""
        from repro import build_engine

        protocol, start = _ag()
        _, name = build_engine(
            protocol, start, seed=1, engine="sequential", backend="numpy"
        )
        assert name == "sequential"

    def test_run_protocol_accepts_backend(self):
        protocol, start = _ag()
        scalar = run_protocol(protocol, start, seed=5)
        batch = run_protocol(protocol, start, seed=5, backend="numpy")
        assert scalar.silent and batch.silent
        assert (
            scalar.final_configuration.counts_list()
            == batch.final_configuration.counts_list()
            == [1] * 16
        )

    def test_supported_protocols(self):
        assert batch_supported(AGProtocol(8))
        assert batch_supported(TreeRankingProtocol(21))
        assert batch_supported(LineOfTrapsProtocol(m=2))


class TestBudgets:
    def test_max_events_exact_stop(self):
        protocol, start = _ag(32)
        engine = BatchEngine(protocol, start, np.random.default_rng(3))
        assert engine.run(max_events=7) is False
        assert engine.events == 7

    def test_max_interactions_clamp_and_resume(self):
        protocol, start = _ag(32)
        engine = BatchEngine(protocol, start, np.random.default_rng(3))
        assert engine.run(max_interactions=25) is False
        assert engine.interactions == 25
        # The budget is a pause, not a terminal state.
        assert engine.run() is True
        assert engine.counts == [1] * 32

    def test_forced_chain_two_agents(self):
        protocol = AGProtocol(2)
        engine = BatchEngine(
            protocol, Configuration([2, 0]), np.random.default_rng(0)
        )
        assert engine.run() is True
        assert engine.interactions == engine.events == 1

    def test_step_drives_to_silence(self):
        protocol, start = _ag(12)
        engine = BatchEngine(protocol, start, np.random.default_rng(9))
        events = 0
        while True:
            event = engine.step()
            if event is None:
                break
            events += 1
            assert event.initiator_before != event.initiator_after or (
                event.responder_before != event.responder_after
            )
        assert engine.is_silent()
        assert engine.events == events
        assert engine.counts == [1] * 12


class TestExactnessHooks:
    def test_instrumentation_does_not_consume_randomness(self):
        """An instrumented run is bit-identical to an uninstrumented
        one at the same seed — counters come from batch arithmetic."""
        protocol = TreeRankingProtocol(21)
        start = random_configuration(protocol, seed=4)
        plain = BatchEngine(protocol, start, np.random.default_rng(8))
        plain.run(max_events=400)
        instr = Instrumentation()
        counted = BatchEngine(
            protocol, start, np.random.default_rng(8), instrumentation=instr
        )
        counted.run(max_events=400)
        assert counted.counts == plain.counts
        assert counted.events == plain.events
        assert counted.interactions == plain.interactions
        assert instr.get("events") == counted.events
        assert instr.get("batch_refills") > 0

    def test_invariants_after_run(self):
        for protocol, start in (
            _ag(24),
            (
                TreeRankingProtocol(21),
                random_configuration(TreeRankingProtocol(21), seed=2),
            ),
            (
                LineOfTrapsProtocol(m=2),
                random_configuration(
                    LineOfTrapsProtocol(m=2), seed=3, include_extras=True
                ),
            ),
        ):
            engine = BatchEngine(protocol, start, np.random.default_rng(6))
            engine.run(max_events=300)
            engine._check_invariants()

    def test_reset_configuration_resyncs(self):
        protocol, start = _ag(20)
        engine = BatchEngine(protocol, start, np.random.default_rng(1))
        engine.run(max_events=30)
        pileup = Configuration.all_in_state(3, 20, 20)
        engine.reset_configuration(pileup)
        assert engine.counts == pileup.counts_list()
        engine._check_invariants()
        assert engine.run() is True
        assert engine.counts == [1] * 20

    @pytest.mark.parametrize(
        "make_engine",
        [
            lambda p, c, rng: JumpEngine(p, c, rng),
            lambda p, c, rng: WeightedScheduledEngine(
                p, c, rng, StateBiasedScheduler([1.0] * 10 + [0.5] * 10)
            ),
            lambda p, c, rng: SequentialEngine(p, c, rng),
            lambda p, c, rng: BatchEngine(p, c, rng),
        ],
        ids=["jump", "weighted", "sequential", "batch"],
    )
    def test_reset_configuration_rejects_bad_shapes(self, make_engine):
        """Every engine's fault seam shares one count check."""
        protocol, start = _ag(20)
        engine = make_engine(protocol, start, np.random.default_rng(1))
        with pytest.raises(SimulationError, match="19 states"):
            engine.reset_configuration([1] * 19)  # wrong state count
        with pytest.raises(SimulationError, match="negative"):
            engine.reset_configuration([-1, 3] + [1] * 18)
        with pytest.raises(SimulationError, match="21 agents"):
            engine.reset_configuration([21] + [0] * 19)  # wrong population
        # Non-integral counts raise rather than being truncated or
        # parsed into a valid population; numpy integers still pass.
        for bad, value in (
            ([1.5] + [1] * 19, "1.5"),
            (["2"] + [1] * 18 + [0], "'2'"),
            (np.ones(20), "1.0"),
        ):
            with pytest.raises(
                SimulationError,
                match=rf"state 0 has non-integral count .*{value}",
            ):
                engine.reset_configuration(bad)
        assert engine.counts == start.counts_list()
        engine.reset_configuration(np.asarray(start.counts_list()))
        assert engine.counts == start.counts_list()


class TestProgramCache:
    def test_same_shape_shares_compiled_program(self):
        a = _program_for(AGProtocol(16))
        b = _program_for(AGProtocol(16))
        assert a is not None
        assert a is b

    def test_engines_reuse_the_cached_program(self):
        protocol, start = _ag(16)
        first = BatchEngine(protocol, start, np.random.default_rng(0))
        second = BatchEngine(protocol, start, np.random.default_rng(1))
        assert first._program is second._program

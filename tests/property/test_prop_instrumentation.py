"""Property: attaching instrumentation never changes a trajectory.

Counters are accounted per chunk from batch-consumption arithmetic and
never consume randomness, so a run with an ``Instrumentation`` bag
attached must be *bit-identical* — same events, same interactions, same
final configuration — to the same seed without one.  This is the
contract that makes telemetry safe to leave on in scenario campaigns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGProtocol,
    Configuration,
    JumpEngine,
    SequentialEngine,
    TreeRankingProtocol,
)
from repro.configurations.generators import random_configuration
from repro.core.scheduler import ScheduledEngine, WeightedScheduledEngine
from repro.obs import Instrumentation
from repro.scenarios.schedulers import StateBiasedScheduler


def _run_pair(make_engine, max_events=400):
    """Run twice from the same seed, with and without instrumentation."""
    plain = make_engine(None)
    instr = Instrumentation()
    counted = make_engine(instr)
    silent_plain = plain.run(max_events=max_events)
    silent_counted = counted.run(max_events=max_events)
    assert silent_plain == silent_counted
    assert plain.events == counted.events
    assert plain.interactions == counted.interactions
    assert plain.counts == counted.counts
    return instr


class TestTrajectoryEquality:
    @given(
        st.lists(st.integers(0, 9), min_size=10, max_size=10),
        st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_jump_same_state_loop(self, states, seed):
        protocol = AGProtocol(10)
        start = Configuration.from_agents(states, 10)
        instr = _run_pair(
            lambda bag: JumpEngine(
                protocol, start, np.random.default_rng(seed),
                instrumentation=bag,
            )
        )
        assert instr.get("events") == instr.get(
            "proposal_mode_events"
        ) + instr.get("fenwick_mode_events")
        # Count swaps are count-bucket events served without the op loop.
        assert instr.get("swap_events") <= instr.get("fenwick_mode_events")

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_jump_fused_general_loop(self, seed):
        protocol = TreeRankingProtocol(25)
        start = random_configuration(protocol, seed=seed % 1000)
        instr = _run_pair(
            lambda bag: JumpEngine(
                protocol, start, np.random.default_rng(seed),
                instrumentation=bag,
            )
        )
        assert instr.get("fenwick_finds") + instr.get(
            "composite_finds"
        ) + instr.get("pool_draws") >= instr.get("events")

    @given(
        st.lists(st.integers(0, 7), min_size=8, max_size=8),
        st.integers(0, 2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_sequential_engine(self, states, seed):
        protocol = AGProtocol(8)
        start = Configuration.from_agents(states, 8)
        instr = _run_pair(
            lambda bag: SequentialEngine(
                protocol, start, np.random.default_rng(seed),
                instrumentation=bag,
            ),
            max_events=120,
        )
        assert instr.get("pair_draws") == instr.get("interactions")

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_scheduled_engines_under_bias(self, seed):
        protocol = TreeRankingProtocol(13, k=3)
        start = random_configuration(
            protocol, seed=seed % 997, include_extras=True
        )
        weights = (
            [1.0] * protocol.num_ranks
            + [0.25] * protocol.num_extra_states
        )
        for cls in (ScheduledEngine, WeightedScheduledEngine):
            instr = _run_pair(
                lambda bag, cls=cls: cls(
                    protocol, start, np.random.default_rng(seed),
                    StateBiasedScheduler(weights),
                    instrumentation=bag,
                ),
                max_events=200,
            )
            assert instr.get("events") > 0

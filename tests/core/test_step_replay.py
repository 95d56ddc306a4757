"""``k`` calls of ``step()`` replay one fused-loop call of ``k`` events.

The jump engine keeps the fused loop's state between calls (its draw
batches and their positions, the count bound and the re-partition
schedule; see :func:`repro.core.jump._run_fused`), so stepping an
engine event by event must follow one call over the same events bit for
bit: the same counts, clock, loop state and draw counters, across the
loop's periodic re-partitions.  Under an epoch timeline ``step()``
crosses the boundaries that ``run()`` crosses, and a run of ``k``
events is the reference.
"""

import numpy as np
import pytest

from repro import (
    AGProtocol,
    Configuration,
    EpochBoundary,
    EpochScheduler,
    JumpEngine,
    LineOfTrapsProtocol,
    RingOfTrapsProtocol,
    StateBiasedScheduler,
    TreeRankingProtocol,
    k_distant_configuration,
    random_configuration,
)
from repro.core.jump import _run_fused
from repro.obs import Instrumentation

#: The fused loop's own counters (``step()`` adds the event counters).
LOOP_COUNTERS = (
    "skip_draws", "raw_draws", "proposal_draws", "pool_draws",
    "sprint_events", "fenwick_finds", "composite_finds",
    "reclassifications", "programs_compiled", "pair_fills",
)


def _tree(n):
    protocol = TreeRankingProtocol(n)
    return protocol, random_configuration(protocol, seed=5, include_extras=True)


def _line():
    protocol = LineOfTrapsProtocol(m=2)
    return protocol, random_configuration(protocol, seed=2, include_extras=True)


def _ag():
    protocol = AGProtocol(300)
    return protocol, k_distant_configuration(protocol, 60, seed=3)


def _ring():
    protocol = RingOfTrapsProtocol(m=12)
    return protocol, Configuration.all_in_state(
        0, protocol.num_agents, protocol.num_states
    )


def _biased(protocol):
    return StateBiasedScheduler(
        [1.0] * protocol.num_ranks + [0.2] * protocol.num_extra_states
    )


def _timeline(protocol):
    return EpochScheduler([
        (EpochBoundary(kind="events", value=1000), _biased(protocol)),
        (EpochBoundary(kind="events", value=3000), StateBiasedScheduler(
            [0.80 + 0.02 * (s % 9) for s in range(protocol.num_states)]
        )),
        (None, _biased(protocol)),
    ])


# name -> (setup, scheduler factory, events; None runs to silence).
CASES = {
    "tree-512": (lambda: _tree(512), None, None),
    "line-m2": (_line, None, None),
    "ag-300": (_ag, None, 20000),
    "ring-m12": (_ring, None, 20000),
    "biased-tree": (lambda: _tree(64), _biased, None),
}


def _engine(setup, make_scheduler, seed=7):
    protocol, start = setup()
    instr = Instrumentation()
    scheduler = make_scheduler(protocol) if make_scheduler else None
    engine = JumpEngine(
        protocol, start, np.random.default_rng(seed), scheduler,
        instrumentation=instr,
    )
    return engine, instr


def _step(engine, events):
    """Step until ``events`` events or silence; returns the last event."""
    event = None
    while events is None or engine.events < events:
        nxt = engine.step()
        if nxt is None:
            break
        event = nxt
    return event


def _loop_counters(instr):
    return {name: instr.get(name) for name in LOOP_COUNTERS}


@pytest.mark.parametrize("name", sorted(CASES))
def test_steps_replay_one_fused_call(name):
    setup, make_scheduler, events = CASES[name]
    stepped, stepped_instr = _engine(setup, make_scheduler)
    last = _step(stepped, events)
    assert stepped.events > 0

    called, called_instr = _engine(setup, make_scheduler)
    _run_fused(called, None, stepped.events)

    assert called.counts == stepped.counts
    assert (called.events, called.interactions) == (
        stepped.events, stepped.interactions
    )
    assert called._loop_state == stepped._loop_state
    assert called._last_event == (
        last.initiator_before, last.responder_before,
        last.initiator_after, last.responder_after,
    )
    assert _loop_counters(called_instr) == _loop_counters(stepped_instr)
    assert stepped_instr.get("slow_events") == stepped.events
    if name == "tree-512":
        # The replay crosses the loop's periodic re-partitions.
        assert stepped_instr.get("reclassifications") >= 3


def test_steps_replay_a_timeline_run():
    """Stepping a biased engine across epoch boundaries ends where one
    ``run()`` of as many events does."""
    def setup():
        protocol = TreeRankingProtocol(33, k=2)
        return protocol, random_configuration(
            protocol, seed=0, include_extras=True
        )

    stepped, stepped_instr = _engine(setup, _timeline)
    _step(stepped, 8000)
    ran, ran_instr = _engine(setup, _timeline)
    ran.run(max_events=8000)
    assert stepped.epoch == ran.epoch == 2
    assert stepped.counts == ran.counts
    assert (stepped.events, stepped.interactions) == (
        ran.events, ran.interactions
    )
    assert _loop_counters(stepped_instr) == _loop_counters(ran_instr)
    assert stepped_instr.get("epoch_switches") == 2

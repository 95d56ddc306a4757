"""Golden trajectories: every engine kind, pinned bit-for-bit.

Each case runs one engine three ways from the same seed and records
``(events, interactions, sha256(counts))`` for each arm:

* ``full`` — one uninterrupted ``run()``;
* ``chunked`` — the same run in fixed ``max_events`` chunks;
* ``resumed`` — run half way, ``snapshot()`` → ``to_dict`` → JSON →
  :func:`~repro.core.snapshot.resume_engine`, then continue.

The expected records live in ``golden_trajectories.json``.  They pin
the exact draw consumption of every realisation (the same-state and
fused jump loops, sequential, rejection, agent, weighted across an
epoch timeline, batch), so a refactor of the randomness layer that
changes any trajectory fails here.  A recorder or ``debug`` mode runs
the fused loop one event per call, and must keep the recorder-free
record.  Regenerate deliberately with::

    PYTHONPATH=src python tests/core/test_golden_trajectories.py [CASE...]

Named cases rewrite only their own entries; no names rewrite them all.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    AGProtocol,
    Configuration,
    EngineSnapshot,
    EpochBoundary,
    EpochScheduler,
    JumpEngine,
    LineOfTrapsProtocol,
    Recorder,
    RingOfTrapsProtocol,
    ScheduledEngine,
    SequentialEngine,
    SingleTrapProtocol,
    StateBiasedScheduler,
    TargetedSuppressionScheduler,
    TreeRankingProtocol,
    WeightedScheduledEngine,
    k_distant_configuration,
    random_configuration,
    resume_engine,
)
from repro.core.batch import BatchEngine
from repro.core.scheduler import AgentScheduledEngine
from repro.obs import Instrumentation

GOLDEN = Path(__file__).with_name("golden_trajectories.json")


def _ring():
    protocol = RingOfTrapsProtocol(m=20)
    start = Configuration.all_in_state(0, protocol.num_agents, protocol.num_states)
    return protocol, start


def _ring_drain():
    # A k-distant drain: nearly every event a count swap in the
    # count-bucket mode.
    protocol = RingOfTrapsProtocol(m=20)
    return protocol, k_distant_configuration(protocol, 30, seed=3)


def _trap():
    # Opens in the proposal mode and drains into the count-bucket mode.
    protocol = SingleTrapProtocol(16, 512)
    start = Configuration.all_in_state(
        protocol.trap.top, protocol.num_agents, protocol.num_states
    )
    return protocol, start


def _tree():
    protocol = TreeRankingProtocol(256)
    return protocol, random_configuration(protocol, seed=5, include_extras=True)


def _line():
    protocol = LineOfTrapsProtocol(72)
    return protocol, Configuration.all_in_state(10, 72, protocol.num_states)


def _ag(n):
    protocol = AGProtocol(n)
    return protocol, Configuration.all_in_state(0, n, n)


def _small_tree():
    protocol = TreeRankingProtocol(33, k=2)
    return protocol, random_configuration(protocol, seed=0, include_extras=True)


def _biased(protocol):
    return StateBiasedScheduler(
        [1.0] * protocol.num_ranks + [0.2] * protocol.num_extra_states
    )


def _many_class(protocol):
    # 9 distinct high weights: a many-class segment on the weighted loop.
    return StateBiasedScheduler(
        [0.80 + 0.02 * (s % 9) for s in range(protocol.num_states)]
    )


def _timeline(protocol):
    return EpochScheduler([
        (EpochBoundary(kind="events", value=1000), _biased(protocol)),
        (EpochBoundary(kind="events", value=3000), _many_class(protocol)),
        (None, _biased(protocol)),
    ])


def _interactions_timeline(protocol):
    # Boundaries on scheduler steps: the weighted loop clamps mid-chunk.
    return EpochScheduler([
        (EpochBoundary(kind="interactions", value=700), _biased(protocol)),
        (EpochBoundary(kind="interactions", value=2000),
         _many_class(protocol)),
        (None, _biased(protocol)),
    ])


def _targeted(protocol):
    return TargetedSuppressionScheduler([0, 1, 2], weight=0.2)


# name -> (setup, engine class, scheduler factory, total events, chunk,
#          recorder).  Sizes cross at least one 8192-draw refill on the
# fast paths.
CASES = {
    "jump-same-state-ring": (_ring, JumpEngine, None, 20000, 3001, False),
    "jump-same-state-trap": (_trap, JumpEngine, None, 20000, 3001, False),
    "jump-same-state-ring-drain": (_ring_drain, JumpEngine, None, 20000,
                                   3001, False),
    "jump-fused-tree": (_tree, JumpEngine, None, 20000, 3001, False),
    "jump-fused-line-m2": (_line, JumpEngine, None, 20000, 3001, False),
    "jump-general-recorder": (_tree, JumpEngine, None, 12000, 2501, True),
    "sequential": (lambda: _ag(30), SequentialEngine, None, 1000, 71, False),
    "scheduled": (_small_tree, ScheduledEngine, _biased, 3000, 397, False),
    "agent": (lambda: _ag(30), AgentScheduledEngine, _targeted, 1000, 71,
              False),
    "weighted-timeline": (_small_tree, WeightedScheduledEngine, _timeline,
                          8000, 1237, False),
    "weighted-interactions-tree": (_small_tree, WeightedScheduledEngine,
                                   _interactions_timeline, 8000, 1237, False),
    "batch": (_tree, BatchEngine, None, 20000, 3001, False),
}

SEED = 11


def _build(name, instrumentation=None, debug=False):
    setup, cls, make_scheduler, _, _, _ = CASES[name]
    protocol, start = setup()
    scheduler = make_scheduler(protocol) if make_scheduler else None
    args = [protocol, start, np.random.default_rng(SEED)]
    if scheduler is not None:
        args.append(scheduler)
    kwargs = {}
    if instrumentation is not None:
        kwargs["instrumentation"] = instrumentation
    if debug:
        kwargs["debug"] = True
    return protocol, scheduler, cls(*args, **kwargs)


def _record(engine):
    digest = hashlib.sha256(
        ",".join(str(int(c)) for c in engine.counts).encode()
    ).hexdigest()
    return [engine.events, engine.interactions, digest]


def _run(engine, events, recorder):
    # A recorder runs the jump engine's fused loop one event per call.
    engine.run(max_events=events, recorder=Recorder() if recorder else None)


def _full(name, recorder, debug):
    _, _, engine = _build(name, debug=debug)
    _run(engine, CASES[name][3], recorder)
    return _record(engine)


def _chunked(name, recorder, debug):
    _, _, _, total, chunk, _ = CASES[name]
    _, _, engine = _build(name, debug=debug)
    target = 0
    while engine.events < total and not engine.is_silent():
        target = min(total, target + chunk)
        _run(engine, target, recorder)
    return _record(engine)


def _resumed(name, recorder, debug):
    total = CASES[name][3]
    protocol, scheduler, engine = _build(name, debug=debug)
    _run(engine, total // 2, recorder)
    data = json.loads(json.dumps(engine.snapshot().to_dict()))
    engine = resume_engine(
        protocol, EngineSnapshot.from_dict(data), scheduler=scheduler
    )
    engine._debug = debug
    _run(engine, total, recorder)
    return _record(engine)


def _arms(name, recorder=None, debug=False):
    """The case's three arms; ``recorder`` (default: the case's own
    flag) and ``debug`` choose how each ``run()`` is made."""
    if recorder is None:
        recorder = CASES[name][5]
    return {
        arm: run(name, recorder, debug)
        for arm, run in (
            ("full", _full), ("chunked", _chunked), ("resumed", _resumed)
        )
    }


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    assert _arms(name) == _golden()[name]


def test_recorder_case_keeps_the_recorder_free_arms():
    """The recorder case's arms are those of its setup without one."""
    assert _golden()["jump-general-recorder"] == _arms(
        "jump-general-recorder", recorder=False
    )


@pytest.mark.parametrize(
    "name", ["jump-fused-tree", "jump-fused-line-m2", "weighted-timeline"]
)
def test_recorder_runs_keep_the_golden_record(name):
    """Chunked, resumed or whole, a run with ``Recorder()`` ends where
    the recorder-free run does."""
    assert _arms(name, recorder=True) == _golden()[name]


@pytest.mark.parametrize("name", ["jump-fused-tree", "jump-fused-line-m2"])
def test_debug_runs_keep_the_golden_record(name):
    """So does a chunked run in ``debug`` mode, which re-sums the weight
    after every event (the chunked arm only: that check is slow)."""
    assert _chunked(name, False, True) == _golden()[name]["chunked"]


# Version-2 snapshots written by an earlier engine (a ``jump`` snapshot
# at 10 000 events, a ``weighted`` one mid-timeline at 4 000), with the
# record that engine finished the resumed run with.
SNAPSHOT_FIXTURES = {
    "jump-fused-tree": ("snapshot_jump_v2.json", "jump"),
    "weighted-timeline": ("snapshot_weighted_v2.json", "weighted"),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOT_FIXTURES))
def test_stored_snapshot_resumes(name):
    filename, kind = SNAPSHOT_FIXTURES[name]
    fixture = json.loads(GOLDEN.with_name(filename).read_text())
    snapshot = EngineSnapshot.from_dict(fixture["snapshot"])
    assert (snapshot.kind, snapshot.version) == (kind, 2)
    protocol, scheduler, _ = _build(name)
    engine = resume_engine(protocol, snapshot, scheduler=scheduler)
    # The restored engine holds every field it was given, epoch cursor
    # included.
    resnapshot = json.loads(json.dumps(engine.snapshot().to_dict()))
    assert resnapshot == fixture["snapshot"]
    _run(engine, fixture["max_events"], False)
    assert _record(engine) == fixture["final"]


def test_cases_reach_their_loops():
    """Each case exercises the realisation its name claims."""
    for name in ("jump-same-state-ring", "jump-same-state-trap",
                 "jump-same-state-ring-drain"):
        assert _build(name)[2]._ss_table is not None
    for name in ("jump-fused-tree", "jump-fused-line-m2"):
        assert _build(name)[2]._ss_table is None
    # The trap drain leaves the proposal mode for the count buckets.
    instr = Instrumentation()
    engine = _build("jump-same-state-trap", instrumentation=instr)[2]
    engine.run(max_events=CASES["jump-same-state-trap"][3])
    assert instr.get("proposal_mode_events") > 0
    assert instr.get("fenwick_mode_events") > 0
    # The k-distant ring drain runs only in the count-bucket mode, and
    # serves count swaps there.
    instr = Instrumentation()
    engine = _build("jump-same-state-ring-drain", instrumentation=instr)[2]
    engine.run(max_events=CASES["jump-same-state-ring-drain"][3])
    assert instr.get("fenwick_mode_events") == engine.events > 0
    assert instr.get("proposal_mode_events") == 0
    assert instr.get("swap_events") > 0
    instr = Instrumentation()
    engine = _build("jump-fused-line-m2", instrumentation=instr)[2]
    engine.run(max_events=CASES["jump-fused-line-m2"][3])
    # The line drain enters the pool proposal both on the sprint and
    # from routed draws.
    assert instr.get("sprint_events") > 0
    assert instr.get("pool_draws") > instr.get("sprint_events")
    instr = Instrumentation()
    engine = _build("weighted-timeline", instrumentation=instr)[2]
    engine.run(max_events=CASES["weighted-timeline"][3])
    # The timeline crosses both boundaries, every event on the inlined
    # weighted loop, whose draws reach both blocks of the shared fused
    # layout.
    assert engine.epoch == 2
    assert instr.get("epoch_switches") == 2
    assert instr.get("weighted_events") == engine.events
    assert instr.get("composite_finds") > 0
    assert instr.get("fenwick_finds") > 0
    # Both interactions boundaries clamp a skip inside a loop chunk.
    instr = Instrumentation()
    engine = _build("weighted-interactions-tree", instrumentation=instr)[2]
    engine.run(max_events=CASES["weighted-interactions-tree"][3])
    assert engine.epoch == 2
    assert instr.get("weighted_events") == engine.events


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s) {unknown}; known: {sorted(CASES)}")
    golden = _golden() if sys.argv[1:] else {}
    golden.update((name, _arms(name)) for name in names)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    sys.stdout.write(f"wrote {', '.join(names)} to {GOLDEN}\n")

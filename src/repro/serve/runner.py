"""Job execution for ``repro serve``: one JobSpec in, plain data out.

:func:`execute_jobspec` is the bridge between the asyncio front door
(:mod:`repro.serve.server`) and the synchronous simulation stack.  It
runs inside a worker thread, reports progress through an ``emit``
callback (records in the :mod:`repro.obs.trace` vocabulary, pushed
thread-safely onto the event loop by the server), and honours a
:class:`JobControl` pause request at safe boundaries:

* **simulate** jobs run the engine in bounded event chunks; a pause
  captures an :class:`~repro.core.snapshot.EngineSnapshot` and returns
  a *park* blob — plain data the server holds until ``resume``, when
  :func:`~repro.core.snapshot.resume_engine` continues the trajectory
  bit-for-bit.
* **scenario** jobs pause between repetitions (serial) or between
  dispatch batches (pooled); the park blob is just the next run index
  plus the records already finished — repetition seeds are re-spawned
  deterministically from the spec on resume.

Everything returned — results, park blobs, emitted records — is
wall-clock-free plain data, which is what lets the server cache a
finished job by its spec digest and replay it byte-identically.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.configuration import Configuration
from ..core.engine import build_engine
from ..core.snapshot import EngineSnapshot, resume_engine
from ..analysis.supervision import SupervisionPolicy, supervised_map
from ..ensemble.runner import run_record
from ..exceptions import ReproError
from ..jobspec import JobSpec
from ..scenarios.campaign import _campaign_job
from ..scenarios.engine import run_scenario

__all__ = ["JobControl", "execute_jobspec", "spawn_seeds"]

#: Productive events between pause checks / progress records on a
#: simulate job.  Not just an observation granularity: every ``run()``
#: call ends in an exit resync that canonicalises the fused sampler
#: (and drops buffered draws and the loop's state), so a served result
#: depends on this chunk size and can differ from one uninterrupted
#: ``run()`` of the same JobSpec — see the chunk-invariant engines item
#: in ROADMAP.md ("One result per (JobSpec, seed)").  The index
#: the loop leaves is live, so the resync is cheap while the proposal
#: pool is idle and empty, as it is on a tree job from the second chunk
#: on.
SIMULATE_CHUNK_EVENTS = 4096


class JobControl:
    """Thread-safe pause flag, polled by the executor at safe points."""

    def __init__(self) -> None:
        self._pause = threading.Event()

    @property
    def pause_requested(self) -> bool:
        return self._pause.is_set()

    def request_pause(self) -> None:
        self._pause.set()

    def clear_pause(self) -> None:
        self._pause.clear()


def spawn_seeds(seed: int, count: int) -> List:
    """Per-repetition seeds, matching campaign seeding discipline.

    Exactly :func:`run_campaign`'s spawn — one root ``SeedSequence``
    split into independent children before dispatch — so a scenario
    JobSpec reproduces ``repro scenario run`` bit for bit.
    """
    return list(np.random.SeedSequence(seed).spawn(count))


def _annotate(record: Dict, run: int) -> Dict:
    """Stamp a per-run logical record with its run index (merge order)."""
    out = {"kind": record["kind"], "run": run}
    out.update((k, v) for k, v in record.items() if k != "kind")
    return out


def _emit_safely(emit: Optional[Callable[[Dict], None]], record: Dict) -> None:
    if emit is None:
        return
    try:
        emit(record)
    except Exception:
        pass


def _execute_simulate(
    spec: JobSpec,
    emit: Optional[Callable[[Dict], None]],
    control: Optional[JobControl],
    park: Optional[Dict],
) -> Dict:
    protocol = spec.scenario.protocol.build()
    if park is not None:
        snapshot = EngineSnapshot.from_dict(park["snapshot"])
        driver = resume_engine(protocol, snapshot)
        engine_name = park["engine_name"]
    else:
        configuration = spec.start_configuration(protocol)
        driver, engine_name = build_engine(
            protocol,
            configuration,
            seed=spec.seed,
            engine=spec.engine,
            backend=spec.backend,
        )
    event_cap = spec.max_events
    interaction_cap = spec.max_interactions
    while True:
        if control is not None and control.pause_requested:
            snap = driver.snapshot()
            return {
                "status": "paused",
                "park": {
                    "mode": "simulate",
                    "engine_name": engine_name,
                    "snapshot": snap.to_dict(),
                },
            }
        chunk_cap = driver.events + SIMULATE_CHUNK_EVENTS
        if event_cap is not None:
            chunk_cap = min(chunk_cap, event_cap)
        silent = driver.run(
            max_interactions=interaction_cap, max_events=chunk_cap
        )
        _emit_safely(
            emit,
            {
                "kind": "job_progress",
                "events": driver.events,
                "interactions": driver.interactions,
            },
        )
        if silent:
            reason = "silence"
            break
        if event_cap is not None and driver.events >= event_cap:
            reason = "events"
            break
        if (
            interaction_cap is not None
            and driver.interactions >= interaction_cap
        ):
            reason = "interactions"
            break
    configuration = Configuration(driver.counts)
    return {
        "status": "done",
        "result": {
            "mode": "simulate",
            "protocol": protocol.name,
            "engine": engine_name,
            "num_agents": protocol.num_agents,
            "silent": silent,
            "stop_reason": reason,
            "interactions": driver.interactions,
            "events": driver.events,
            "counts": configuration.counts_list(),
        },
    }


def _scenario_summary(
    spec: JobSpec, run_records: List[Dict], failures: List[str]
) -> Dict:
    recovered = sum(1 for record in run_records if record["recovered_all"])
    return {
        "status": "done",
        "result": {
            "mode": "scenario",
            "scenario": spec.scenario.name,
            "protocol": spec.scenario.protocol.kind,
            "repetitions": len(run_records),
            "recovered_fraction": (
                recovered / len(run_records) if run_records else 0.0
            ),
            "runs": run_records,
            "failures": failures,
        },
    }


def _execute_scenario(
    spec: JobSpec,
    emit: Optional[Callable[[Dict], None]],
    control: Optional[JobControl],
    workers: Optional[int],
    park: Optional[Dict],
) -> Dict:
    scenario = spec.scenario
    seeds = spawn_seeds(spec.seed, spec.repetitions)
    start = int(park["next_run"]) if park is not None else 0
    run_records: List[Dict] = list(park["run_records"]) if park else []
    failures: List[str] = list(park["failures"]) if park else []

    def parked(next_run: int) -> Dict:
        return {
            "status": "paused",
            "park": {
                "mode": "scenario",
                "next_run": next_run,
                "run_records": run_records,
                "failures": failures,
            },
        }

    if workers is None or workers <= 1:
        # Serial: each repetition streams its logical records live
        # through the run_scenario observer seam.
        for index in range(start, spec.repetitions):
            if control is not None and control.pause_requested:
                return parked(index)
            result = run_scenario(
                scenario,
                seed=seeds[index],
                default_max_events=spec.max_events,
                trace_observer=lambda record, run=index: _emit_safely(
                    emit, _annotate(record, run)
                ),
            )
            run_records.append(run_record(result, index))
        return _scenario_summary(spec, run_records, failures)

    # Pooled: repetitions fan out over the supervised process pool in
    # bounded batches — observers do not pickle, so streaming happens at
    # batch granularity from the traces the workers ship back.
    batch = max(1, workers * 4)
    index = start
    policy = SupervisionPolicy(fail_fast=False)
    while index < spec.repetitions:
        if control is not None and control.pause_requested:
            return parked(index)
        stop = min(spec.repetitions, index + batch)
        jobs = [
            (scenario, seeds[run], spec.max_events, True)
            for run in range(index, stop)
        ]
        results, batch_failures = supervised_map(
            _campaign_job, jobs, workers=workers, policy=policy
        )
        failures.extend(repr(failure) for failure in batch_failures)
        for offset, result in enumerate(results):
            if result is None:
                continue
            run = index + offset
            for record in result.trace_events:
                _emit_safely(emit, _annotate(record, run))
            run_records.append(run_record(result, run))
        index = stop
    return _scenario_summary(spec, run_records, failures)


def execute_jobspec(
    spec: JobSpec,
    emit: Optional[Callable[[Dict], None]] = None,
    control: Optional[JobControl] = None,
    workers: Optional[int] = None,
    park: Optional[Dict] = None,
) -> Dict:
    """Run one JobSpec to completion or a pause point.

    Returns ``{"status": "done", "result": ...}`` (wall-clock-free
    plain data) or ``{"status": "paused", "park": ...}`` — a blob to
    hand back as ``park`` on resume.  ``emit`` receives each streamed
    record; ``workers`` sizes the supervised pool for scenario
    repetitions (simulate jobs are single-trajectory and ignore it).
    """
    if park is not None and park.get("mode") != spec.mode:
        raise ReproError(
            f"park blob is for a {park.get('mode')!r} job, "
            f"spec is {spec.mode!r}"
        )
    if spec.mode == "simulate":
        return _execute_simulate(spec, emit, control, park)
    return _execute_scenario(spec, emit, control, workers, park)

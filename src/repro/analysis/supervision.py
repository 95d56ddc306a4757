"""Supervised process-pool execution: timeouts, retries, quarantine.

:func:`supervised_map` is the fault-tolerant executor that
:func:`~repro.analysis.sweep.run_sweep`,
:func:`~repro.scenarios.campaign.run_campaign` and the ensemble runner
fan their jobs out through.  Instead of ``executor.map`` —
where one crashed worker poisons the whole batch with
``BrokenProcessPool`` and one hung job stalls it forever — every job
gets its own future, a deadline, and a bounded retry budget:

* **Crash containment.**  A worker-process death surfaces as
  ``BrokenProcessPool`` on *every* in-flight future, so blame is
  attributed by *solo isolation*: the pool is rebuilt and each suspect
  re-runs alone in a single-worker pool.  Only the job that breaks its
  own solo pool is charged an attempt; innocent cohort members just
  return their results (bit-identical — jobs are pure functions of
  their pre-spawned seeds, so a re-run is a replay).
* **Hang containment.**  With ``policy.timeout`` set, a job past its
  deadline gets its pool killed; the hung job is charged an attempt and
  the other in-flight jobs are requeued uncharged.
* **Quarantine.**  A job that exhausts ``policy.max_attempts`` becomes
  a :class:`JobFailure` record at its slot — data, not an exception —
  so one poison job cannot sink the other 99 999.
* **Backoff.**  Charged retries wait ``backoff_base * 2**(attempt-1)``
  seconds (capped, jittered) before resubmission.  Backoff only ever
  sleeps; it cannot influence the results, which stay a pure function
  of the job tuples.
* **Degradation.**  After ``policy.max_pool_rebuilds`` rebuilds the
  supervisor stops trusting process pools and finishes the remaining
  jobs serially in-process.

Deterministic *exceptions* raised by the worker (as opposed to process
deaths) are never retried — the jobs are pure, so a re-run would raise
identically.  They re-raise immediately under ``policy.fail_fast``
(the default) or become :class:`JobFailure` records otherwise (the
ensemble runner's choice).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ExperimentError

__all__ = [
    "JobFailure",
    "ShutdownLatch",
    "SupervisionPolicy",
    "check_picklable",
    "supervised_map",
]


class ShutdownLatch:
    """A signal-to-flag adapter for cooperative graceful shutdown.

    Long-running drivers (the cooperative ensemble worker, most of all)
    poll ``latch.requested`` at safe points — between shards, never
    mid-commit — and wind down cleanly: release leases, leave every
    file either complete or absent, exit.  Used as a context manager it
    installs itself as the handler for ``signals`` (default
    ``SIGTERM``, what orchestrators and ``kill`` send) and restores the
    previous handlers on exit; installation is best-effort because
    ``signal.signal`` only works on the main thread — off it, the latch
    still functions via :meth:`trip`.
    """

    def __init__(self, signals: Sequence[int] = (signal.SIGTERM,)) -> None:
        self.signals = tuple(signals)
        self._event = threading.Event()
        self._previous: Dict[int, object] = {}

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def trip(self, signum: Optional[int] = None, frame=None) -> None:
        """Request shutdown (also the installed signal handler)."""
        self._event.set()

    def __enter__(self) -> "ShutdownLatch":
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self.trip)
            except ValueError:
                pass  # not the main thread — trip() still works
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError):
                pass
        self._previous.clear()


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry / timeout / degradation knobs for :func:`supervised_map`."""

    #: Per-job wall-clock deadline in seconds (``None`` = no deadline).
    #: Only enforceable with ``workers > 1`` — a serial run cannot
    #: pre-empt its own process.
    timeout: Optional[float] = None
    #: Crash/hang attempts per job before quarantine.
    max_attempts: int = 3
    #: First retry delay in seconds; doubles per charged attempt.
    backoff_base: float = 0.25
    #: Upper bound on any single retry delay.
    backoff_cap: float = 8.0
    #: Uniform random extra fraction of the delay (desynchronises
    #: retries; sleep-only, never touches result bits).
    jitter: float = 0.25
    #: Pool rebuilds tolerated before degrading to serial execution.
    max_pool_rebuilds: int = 3
    #: ``True``: deterministic worker exceptions re-raise immediately.
    #: ``False``: they quarantine as :class:`JobFailure` records like
    #: exhausted crash retries.
    fail_fast: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ExperimentError(
                f"timeout must be positive, got {self.timeout}"
            )
        if self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ExperimentError("backoff delays must be >= 0")
        if self.jitter < 0:
            raise ExperimentError(f"jitter must be >= 0, got {self.jitter}")
        if self.max_pool_rebuilds < 0:
            raise ExperimentError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered."""
        delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        if self.jitter:
            delay *= 1.0 + self.jitter * random.random()
        return delay


@dataclass(frozen=True)
class JobFailure:
    """A quarantined job: its slot in the results, not an exception.

    ``kind`` is ``"crash"`` (worker process died), ``"hang"`` (deadline
    exceeded), or ``"error"`` (the worker raised and the policy does
    not fail fast).  ``attempts`` counts the charged tries.
    """

    index: int
    kind: str
    error: str
    message: str
    attempts: int

    def __repr__(self) -> str:
        return (
            f"JobFailure(#{self.index} {self.kind} after "
            f"{self.attempts} attempt(s): {self.error}: {self.message})"
        )


def check_picklable(worker: Callable, jobs: Sequence) -> None:
    """Fail early, by name, on anything a process pool cannot ship.

    ``executor.submit`` discovers unpicklable payloads deep inside the
    pool's feeder thread, as an opaque late crash; this pre-check
    raises :class:`ExperimentError` naming the offending object before
    any process is spawned.
    """
    try:
        pickle.dumps(worker)
    except Exception as exc:
        raise ExperimentError(
            f"worker {worker!r} does not pickle and cannot be dispatched "
            f"to a process pool (use a module-level callable): {exc}"
        ) from exc
    try:
        pickle.dumps(list(jobs))
    except Exception:
        # Find and name the offender rather than blaming the batch.
        for index, job in enumerate(jobs):
            try:
                pickle.dumps(job)
            except Exception as exc:
                raise ExperimentError(
                    f"job #{index} ({job!r}) does not pickle and cannot "
                    f"be dispatched to a process pool: {exc}"
                ) from exc
        raise  # pragma: no cover — batch failed but every item passed


def _notify(observer, kind: str, **fields) -> None:
    """Report one supervision event; observer errors never break the map."""
    if observer is None:
        return
    try:
        observer(kind, fields)
    except Exception:
        pass


def _quarantine_error(
    index: int,
    exc: Exception,
    policy: SupervisionPolicy,
    failures: Dict[int, JobFailure],
    attempts: List[int],
    observer=None,
) -> None:
    """A worker raised: re-raise under ``fail_fast``, else quarantine."""
    if policy.fail_fast:
        raise exc
    failures[index] = JobFailure(
        index=index,
        kind="error",
        error=type(exc).__name__,
        message=str(exc),
        attempts=attempts[index] + 1,
    )
    _notify(observer, "quarantine", job=index, failure="error")


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_S = 1.0


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: exit the worker once ``parent``, the process
    that started its pool, is gone, or when the pool terminates it.

    A forked worker holds the write end of the call-queue pipe it
    blocks reading, so when its parent dies without shutting the pool
    down (a SIGKILL) it never sees EOF, and would wait for good under
    another parent.  A daemon thread compares the parent pid about once
    a second and exits the worker when it changes.  The pid comes from
    the parent, not from ``os.getppid()`` here: a parent killed between
    the fork and this call would otherwise leave the worker watching
    its new parent for good.

    A forked worker also inherits its parent's SIGTERM handler (the
    :class:`ShutdownLatch` of ``repro ensemble run``), under which the
    SIGTERM of :func:`_terminate_pool` would only trip a copy of the
    latch and leave a hung job running; the worker takes the default
    action back.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _submit(executor: ProcessPoolExecutor, worker: Callable, job):
    """``executor.submit`` with SIGINT held off in this thread.

    A pool forks its workers inside a submit.  A Ctrl-C landing in a
    fork is swallowed by the interpreter's at-fork hooks ("Exception
    ignored in _releaseLock"), or kills a worker mid-start that the
    pool then waits on for good.  Held off, it arrives once the submit
    returns.  The workers and the pool's helper threads inherit the
    mask and never see SIGINT: the process that owns the pool takes
    the KeyboardInterrupt and terminates them.
    """
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        return executor.submit(worker, job)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of workers forked from this process, which exit when it
    dies.

    Forked whatever the interpreter's default start method (Python
    3.14 made it forkserver on Linux): :func:`_exit_with_parent` and
    :func:`_submit` rely on each worker being this process's child and
    inheriting its signal mask and handlers.  Under forkserver every
    worker's parent is the server, and each would exit at once.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


def _terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Kill a pool's workers and reap it without waiting on stuck jobs."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def _run_serially(
    worker: Callable,
    jobs: Sequence,
    indices: Sequence[int],
    policy: SupervisionPolicy,
    results: List,
    failures: Dict[int, JobFailure],
    attempts: List[int],
    observer=None,
    shutdown=None,
) -> None:
    """Degraded mode: finish ``indices`` in-process (no pre-emption)."""
    for index in indices:
        if shutdown is not None and shutdown.requested:
            return
        try:
            results[index] = worker(jobs[index])
        except Exception as exc:
            _quarantine_error(
                index, exc, policy, failures, attempts, observer
            )


def _solo_isolation(
    worker: Callable,
    jobs: Sequence,
    suspects: Sequence[int],
    policy: SupervisionPolicy,
    results: List,
    failures: Dict[int, JobFailure],
    attempts: List[int],
    retry_queue: deque,
    observer=None,
) -> None:
    """Attribute blame for a pool break by re-running suspects alone.

    Each suspect gets a fresh single-worker pool: a job that breaks its
    *own* pool is definitively poison and is charged an attempt (then
    retried later or quarantined); every other suspect simply returns
    its result — a bit-identical replay, since jobs are pure.
    """
    for index in suspects:
        solo = _new_pool(1)
        try:
            future = _submit(solo, worker, jobs[index])
            done, _ = wait([future], timeout=policy.timeout)
            if not done:
                _terminate_pool(solo)
                _charge(index, "hang", "TimeoutError",
                        f"job exceeded {policy.timeout}s solo deadline",
                        policy, failures, attempts, retry_queue, observer)
                continue
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                _charge(index, "crash", "BrokenProcessPool",
                        "worker process died running this job alone",
                        policy, failures, attempts, retry_queue, observer)
            except Exception as exc:
                _quarantine_error(
                    index, exc, policy, failures, attempts, observer
                )
        finally:
            _terminate_pool(solo)


def _charge(
    index: int,
    kind: str,
    error: str,
    message: str,
    policy: SupervisionPolicy,
    failures: Dict[int, JobFailure],
    attempts: List[int],
    retry_queue: deque,
    observer=None,
) -> None:
    """Charge one attempt to a job; quarantine or schedule a retry."""
    attempts[index] += 1
    if attempts[index] >= policy.max_attempts:
        failures[index] = JobFailure(
            index=index,
            kind=kind,
            error=error,
            message=message,
            attempts=attempts[index],
        )
        _notify(observer, "quarantine", job=index, failure=kind)
    else:
        retry_queue.append((index, policy.backoff_delay(attempts[index])))
        _notify(
            observer, "retry",
            job=index, attempt=attempts[index], failure=kind,
        )


def supervised_map(
    worker: Callable,
    jobs: Sequence,
    workers: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    observer: Optional[Callable[[str, dict], None]] = None,
    shutdown: Optional[ShutdownLatch] = None,
) -> Tuple[List, List[JobFailure]]:
    """Map ``worker`` over ``jobs`` under supervision.

    Returns ``(results, failures)``: ``results`` keeps job order with
    ``None`` at every quarantined slot, ``failures`` lists the
    quarantined jobs (sorted by index).  ``worker`` must be a pure
    function of its job — retries and worker-count changes are then
    invisible in the results, preserving the repo-wide bit-identical
    reproducibility guarantee.

    With ``workers`` of ``None``/1 the jobs run serially in-process:
    no pre-emption is possible, so ``policy.timeout`` is not enforced
    and a hard crash is fatal — but worker exceptions still honour
    ``policy.fail_fast``.

    ``observer``, when given, receives ``(kind, fields)`` for each
    supervision event — ``"retry"`` (``job``/``attempt``/``failure``),
    ``"quarantine"`` (``job``/``failure``), ``"pool_rebuild"``
    (``rebuilds``) — the vocabulary of :mod:`repro.obs.trace`'s
    operational records.  Observation is best-effort: observer
    exceptions are swallowed, and the callback can never change the
    results.

    ``shutdown``, when given, makes the map *interruptible at job
    boundaries*: once ``shutdown.requested`` turns true no further job
    is dispatched — in-flight jobs finish (their results land), and
    every undispatched slot simply stays ``None`` without a failure
    record.  Completed slots are final either way, so an interrupted
    map is a clean prefix a caller can commit or resume from (the
    ensemble shard runner and ``repro serve`` both rely on this).
    """
    policy = policy or SupervisionPolicy()
    if workers is not None and workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    jobs = list(jobs)
    results: List = [None] * len(jobs)
    failures: Dict[int, JobFailure] = {}
    attempts = [0] * len(jobs)

    if workers is None or workers <= 1 or not jobs:
        _run_serially(worker, jobs, range(len(jobs)), policy,
                      results, failures, attempts, observer, shutdown)
        return results, sorted(failures.values(), key=lambda f: f.index)

    check_picklable(worker, jobs)

    pending: deque = deque(range(len(jobs)))
    retry_queue: deque = deque()  # (index, not-before-delay) pairs
    rebuilds = 0
    executor: Optional[ProcessPoolExecutor] = _new_pool(workers)
    in_flight: Dict = {}  # future -> (index, deadline | None)

    def submit(index: int) -> bool:
        """Submit one job; False when the pool is already broken."""
        deadline = (
            time.monotonic() + policy.timeout
            if policy.timeout is not None
            else None
        )
        try:
            future = _submit(executor, worker, jobs[index])
        except BrokenProcessPool:
            pending.appendleft(index)
            return False
        in_flight[future] = (index, deadline)
        return True

    def drain_retries() -> None:
        """Move due retries into ``pending`` (sleeping off the backoff)."""
        while retry_queue:
            index, delay = retry_queue.popleft()
            if delay > 0:
                time.sleep(delay)
            pending.append(index)

    def break_pool(suspects: List[int]) -> None:
        """Rebuild after a crash/hang; suspects go to solo isolation."""
        nonlocal executor, rebuilds
        for future in list(in_flight):
            index, _ = in_flight.pop(future)
            if index not in suspects:
                pending.appendleft(index)  # innocent: requeue uncharged
        _terminate_pool(executor)
        executor = None
        _solo_isolation(worker, jobs, suspects, policy,
                        results, failures, attempts, retry_queue, observer)
        rebuilds += 1
        _notify(observer, "pool_rebuild", rebuilds=rebuilds)

    try:
        while pending or in_flight or retry_queue:
            if shutdown is not None and shutdown.requested:
                # Cooperative wind-down: stop dispatching, let what is
                # already running finish, leave the rest untouched.
                pending.clear()
                retry_queue.clear()
                if not in_flight:
                    break
            drain_retries()
            if executor is None or rebuilds > policy.max_pool_rebuilds:
                if executor is not None:
                    # Pool trust exhausted: fall back to serial for
                    # everything not yet dispatched.
                    for future in list(in_flight):
                        index, _ = in_flight.pop(future)
                        pending.appendleft(index)
                    _terminate_pool(executor)
                    executor = None
                if rebuilds > policy.max_pool_rebuilds:
                    remaining = list(pending)
                    pending.clear()
                    drain_retries()
                    remaining += list(pending)
                    pending.clear()
                    _run_serially(worker, jobs, remaining, policy,
                                  results, failures, attempts, observer,
                                  shutdown)
                    continue
                executor = _new_pool(workers)
            while pending and len(in_flight) < workers:
                if not submit(pending.popleft()):
                    break_pool(suspects=list(
                        {idx for idx, _ in in_flight.values()}
                    ) or [])
                    break
            if not in_flight:
                continue
            now = time.monotonic()
            deadlines = [d for _, d in in_flight.values() if d is not None]
            poll = (
                max(0.0, min(deadlines) - now) if deadlines else None
            )
            done, _ = wait(
                list(in_flight), timeout=poll, return_when=FIRST_COMPLETED
            )
            broken_suspects: Optional[List[int]] = None
            for future in done:
                index, _ = in_flight.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    if broken_suspects is None:
                        broken_suspects = [index]
                    else:
                        broken_suspects.append(index)
                except Exception as exc:
                    _quarantine_error(
                        index, exc, policy, failures, attempts, observer
                    )
            if broken_suspects is not None:
                # Every job in flight at the break is a suspect — the
                # dead worker could have been running any of them.
                broken_suspects.extend(
                    idx for idx, _ in in_flight.values()
                )
                break_pool(broken_suspects)
                continue
            if policy.timeout is not None:
                now = time.monotonic()
                overdue = [
                    idx
                    for fut, (idx, deadline) in in_flight.items()
                    if deadline is not None and now >= deadline
                ]
                if overdue:
                    # A running future cannot be cancelled; the only
                    # pre-emption a process pool offers is killing it.
                    for index in overdue:
                        _charge(index, "hang", "TimeoutError",
                                f"job exceeded {policy.timeout}s deadline",
                                policy, failures, attempts, retry_queue,
                                observer)
                    for future in list(in_flight):
                        index, _ = in_flight.pop(future)
                        if index not in overdue:
                            pending.appendleft(index)
                    _terminate_pool(executor)
                    executor = None
                    rebuilds += 1
                    _notify(observer, "pool_rebuild", rebuilds=rebuilds)
    except BaseException:
        # A Ctrl-C, most of all: the workers never see SIGINT, so kill
        # them rather than wait for the jobs they are running.
        if executor is not None:
            _terminate_pool(executor)
            executor = None
        raise
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    return results, sorted(failures.values(), key=lambda f: f.index)

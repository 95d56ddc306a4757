"""Resumable sharded ensemble runner, single-process and cooperative.

Runs ``total_runs`` independently seeded instances of one catalogued
campaign scenario, sharded so that arbitrarily large ensembles (10⁵+
runs) complete with bounded peak memory and survive being killed at any
instant:

* Seeds follow the repo-wide discipline — one root ``SeedSequence``
  spawned into one child per run *before* any dispatch — so every run
  is a pure function of ``(seed, run_index)`` and the ensemble is
  bit-identical at any worker count, across resumes, across shard
  boundaries, and across any number of cooperating processes.
* Each shard's jobs go through the supervised executor
  (:func:`repro.analysis.supervision.supervised_map`) with
  ``fail_fast=False``: a crashed/hung/poison run becomes a quarantine
  record in the shard, never a lost ensemble.
* Shards commit through the idempotent, fenced path
  (:func:`repro.ensemble.manifest.commit_shard`): atomic write,
  checksum verification, then an exclusive ``shard-<i>.done`` marker.
  The manifest's statuses are a cached view rebuilt from the markers
  (:func:`~repro.ensemble.manifest.reconcile_manifest`), which is what
  lets many writers share one directory without manifest races.
* ``resume=True`` reconciles and checksum-verifies every committed
  shard, renames corrupt files to ``*.corrupt`` and recomputes exactly
  the gap.
* **Cooperative mode** (:class:`CooperativeWorker` /
  :func:`join_ensemble`, CLI ``repro ensemble join``): N processes on a
  shared filesystem claim pending shards via crash-tolerant leases
  (:mod:`repro.ensemble.lease`), heartbeat while computing, and commit
  idempotently — kill any subset of workers at any instant and the
  survivors (or a fresh join) converge to aggregates byte-identical to
  an uninterrupted serial run.
* Aggregates are **always** recomputed by streaming the shard files in
  index order through the online reducers
  (:mod:`repro.ensemble.reducers`) — never incrementally carried in
  memory across shards — so a resumed or cooperatively computed
  ensemble's ``aggregates.json`` is byte-identical to an uninterrupted
  one's (records and aggregates carry no wall-clock fields).
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..analysis.supervision import SupervisionPolicy, supervised_map
from ..exceptions import ExperimentError
from ..scenarios.catalog import get_campaign
from ..scenarios.engine import ScenarioResult, run_scenario
from .lease import LeaseHeartbeat, LeaseManager, list_leases
from .manifest import (
    MANIFEST_NAME,
    atomic_write_json,
    commit_shard,
    create_manifest,
    create_manifest_exclusive,
    load_json,
    load_manifest,
    read_done_marker,
    reconcile_manifest,
    save_manifest,
    shard_path,
)
from .reducers import EnsembleAggregates

__all__ = [
    "AGGREGATES_NAME",
    "CooperativeWorker",
    "ensemble_status",
    "join_ensemble",
    "run_ensemble",
    "run_record",
]

AGGREGATES_NAME = "aggregates.json"

Progress = Optional[Callable[[str], None]]

#: Optional supervision/lifecycle event sink: ``observer(kind, fields)``
#: with the operational-record vocabulary of :mod:`repro.obs.trace`
#: (``shard_start``/``shard_done``/``shard_commit`` here, lease
#: lifecycle events from :mod:`repro.ensemble.lease`, and ``retry``/
#: ``quarantine``/``pool_rebuild`` forwarded from the supervised
#: executor).
Observer = Optional[Callable[[str, Dict], None]]


def _observe(observer: Observer, kind: str, **fields) -> None:
    """Best-effort event report; observer errors never break the run."""
    if observer is None:
        return
    try:
        observer(kind, fields)
    except Exception:
        pass


def run_record(result: ScenarioResult, run_index: int) -> Dict:
    """Flatten one scenario result into a plain shard record.

    Deliberately excludes every wall-clock field — records must be a
    pure function of ``(seed, run_index)`` for resumed ensembles to
    reproduce uninterrupted ones byte-for-byte.
    """
    return {
        "run": run_index,
        "scenario": result.scenario_name,
        "protocol": result.protocol_name,
        "recovered_all": result.recovered_all,
        "total_events": result.total_events,
        "total_interactions": result.total_interactions,
        "total_parallel_time": result.total_parallel_time,
        "phases": [
            {
                "index": log.index,
                "kind": log.kind,
                "label": log.label,
                "num_agents": log.num_agents,
                "interactions": log.interactions,
                "events": log.events,
                "silent": log.silent,
                "stop_reason": log.stop_reason,
                "distance": log.distance,
                "scheduler": log.scheduler,
            }
            for log in result.phase_logs
        ],
    }


def _ensemble_job(job: tuple) -> Dict:
    """One ensemble run, self-contained for worker processes."""
    scenario, child, default_max_events, run_index = job
    result = run_scenario(
        scenario, seed=child, default_max_events=default_max_events
    )
    return run_record(result, run_index)


def _manifest_jobspec_digest(manifest: Dict) -> str:
    """Digest of the JobSpec the manifest's parameters resolve to *now*.

    Recomputed — not read — so a resume can detect that the campaign's
    current definition (the scenario the catalog builds today) no
    longer matches the spec that created the ensemble.
    """
    from ..jobspec import JobSpec

    return JobSpec.from_campaign(
        manifest["campaign"],
        scale=manifest["scale"],
        seed=manifest["seed"],
        repetitions=manifest["total_runs"],
        max_events=manifest.get("default_max_events"),
    ).digest()


def _check_manifest_digest(manifest: Dict, out_dir: str, verb: str) -> None:
    """Refuse to continue an ensemble whose spec has drifted."""
    recorded = manifest.get("jobspec_digest")
    if recorded is None:
        return  # pre-digest manifest: nothing to verify against
    expected = _manifest_jobspec_digest(manifest)
    if recorded != expected:
        raise ExperimentError(
            f"{verb} found jobspec digest {recorded[:12]}… recorded in "
            f"{out_dir}, but the campaign as currently defined resolves "
            f"to {expected[:12]}… — the spec changed since this ensemble "
            "was created; start a fresh directory instead"
        )


def _default_policy(policy: Optional[SupervisionPolicy]) -> SupervisionPolicy:
    """Ensemble runs quarantine rather than die: force fail_fast off."""
    if policy is None:
        return SupervisionPolicy(fail_fast=False)
    return dataclasses.replace(policy, fail_fast=False)


class _EnsemblePlan:
    """The shared compute context both execution modes run shards from.

    Everything derived from the manifest alone: the built scenario, the
    full pre-spawned seed list, and the supervision policy — one shard
    computation is then a pure function of its index.
    """

    def __init__(
        self,
        manifest: Dict,
        workers: Optional[int],
        policy: Optional[SupervisionPolicy],
    ) -> None:
        self.manifest = manifest
        campaign = get_campaign(manifest["campaign"])
        self.scenario = campaign.build(manifest["scale"])
        self.max_events = manifest.get("default_max_events")
        self.workers = workers
        self.policy = _default_policy(policy)
        # One upfront spawn; shards slice it, so a run's seed never
        # depends on which shards already finished or who computes it.
        self.children = np.random.SeedSequence(manifest["seed"]).spawn(
            manifest["total_runs"]
        )

    def compute_shard(self, shard: Dict, observer: Observer) -> Dict:
        """Compute one shard's payload (records merged with failures)."""
        jobs = [
            (self.scenario, self.children[i], self.max_events, i)
            for i in range(shard["start"], shard["stop"])
        ]
        records, failures = supervised_map(
            _ensemble_job, jobs, workers=self.workers, policy=self.policy,
            observer=observer,
        )
        merged: List[Dict] = []
        by_index = {failure.index: failure for failure in failures}
        for offset, record in enumerate(records):
            if record is not None:
                merged.append(record)
            else:
                failure = by_index[offset]
                merged.append(
                    {
                        "run": shard["start"] + offset,
                        "failed": True,
                        "kind": failure.kind,
                        "error": failure.error,
                        "message": failure.message,
                        "attempts": failure.attempts,
                    }
                )
        return {
            "index": shard["index"],
            "start": shard["start"],
            "stop": shard["stop"],
            "records": merged,
            "quarantined": len(failures),
        }


def _shard_payload(computed: Dict) -> Dict:
    """The exact on-disk shard content (no operational fields)."""
    return {
        "index": computed["index"],
        "start": computed["start"],
        "stop": computed["stop"],
        "records": computed["records"],
    }


def _aggregate(out_dir: str, manifest: Dict) -> Dict:
    """Stream every shard file, in index order, through the reducers."""
    aggregates = EnsembleAggregates()
    for shard in manifest["shards"]:
        path = shard_path(out_dir, shard["index"])
        try:
            payload = load_json(path)
        except (OSError, ValueError) as exc:
            raise ExperimentError(
                f"shard {shard['index']} ({path}) vanished or went "
                f"corrupt between verification and aggregation: {exc} — "
                "re-run with --resume (or rejoin) to verify checksums "
                "and recompute the damaged shard"
            ) from exc
        for record in payload["records"]:
            aggregates.update(record)
    return {
        "campaign": manifest["campaign"],
        "scale": manifest["scale"],
        "seed": manifest["seed"],
        "total_runs": manifest["total_runs"],
        "aggregates": aggregates.to_dict(),
    }


def _write_aggregates(out_dir: str, manifest: Dict, progress: Progress) -> Dict:
    aggregate = _aggregate(out_dir, manifest)
    atomic_write_json(os.path.join(out_dir, AGGREGATES_NAME), aggregate)
    if progress:
        summary = aggregate["aggregates"]
        progress(
            f"aggregated {summary['runs']} runs "
            f"({summary['failed_jobs']} failed jobs) -> "
            f"{os.path.join(out_dir, AGGREGATES_NAME)}"
        )
    return aggregate


def run_ensemble(
    out_dir: str,
    campaign_id: Optional[str] = None,
    scale: str = "smoke",
    total_runs: Optional[int] = None,
    shard_size: int = 1000,
    seed: int = 0,
    workers: Optional[int] = None,
    default_max_events: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    resume: bool = False,
    progress: Progress = None,
    observer: Observer = None,
) -> Dict:
    """Run (or resume) one sharded ensemble; returns the aggregate dict.

    Fresh runs need ``campaign_id`` (and optionally ``total_runs``,
    defaulting to the campaign's repetition count for ``scale``);
    resumed runs read every parameter from the on-disk manifest and
    reject contradicting arguments, so a resume can never silently
    compute a different ensemble.

    ``observer`` receives operational lifecycle events
    (``shard_start``/``shard_commit``/``shard_done`` plus the
    supervised executor's ``retry``/``quarantine``/``pool_rebuild``) —
    the live ``--progress`` dashboard and operational traces hang off
    this seam.  Observation never changes the records or aggregates,
    which stay a pure function of the manifest.
    """
    if resume:
        manifest = load_manifest(out_dir)
        if campaign_id is not None and campaign_id != manifest["campaign"]:
            raise ExperimentError(
                f"--resume found campaign {manifest['campaign']!r} in "
                f"{out_dir}, not {campaign_id!r}"
            )
        if total_runs is not None and total_runs != manifest["total_runs"]:
            raise ExperimentError(
                f"--resume found {manifest['total_runs']} runs in "
                f"{out_dir}, not {total_runs}"
            )
        _check_manifest_digest(manifest, out_dir, "--resume")
        reconcile_manifest(
            out_dir, manifest, repair=True, verify=True, progress=progress
        )
        save_manifest(out_dir, manifest)
    else:
        if campaign_id is None:
            raise ExperimentError(
                "a fresh ensemble needs a campaign id"
            )
        if os.path.exists(os.path.join(out_dir, MANIFEST_NAME)):
            raise ExperimentError(
                f"{out_dir} already holds an ensemble manifest; pass "
                "resume/--resume to continue it or choose a fresh "
                "directory"
            )
        campaign = get_campaign(campaign_id)
        if total_runs is None:
            total_runs = campaign.repetitions_for(scale)
        manifest = create_manifest(
            campaign_id=campaign_id,
            scale=scale,
            seed=seed,
            total_runs=total_runs,
            shard_size=shard_size,
            default_max_events=default_max_events,
        )
        manifest["jobspec_digest"] = _manifest_jobspec_digest(manifest)
        os.makedirs(out_dir, exist_ok=True)
        save_manifest(out_dir, manifest)

    plan = _EnsemblePlan(manifest, workers, policy)

    pending = [s for s in manifest["shards"] if s["status"] != "done"]
    if progress:
        done = len(manifest["shards"]) - len(pending)
        progress(
            f"ensemble {manifest['campaign']}@{manifest['scale']}: "
            f"{manifest['total_runs']} runs in {len(manifest['shards'])} "
            f"shards ({done} already done)"
        )
    for shard in pending:
        _observe(
            observer, "shard_start",
            shard=shard["index"], start=shard["start"], stop=shard["stop"],
        )
        computed = plan.compute_shard(shard, observer)
        digest, placed = commit_shard(
            out_dir, shard["index"], _shard_payload(computed)
        )
        if placed:
            _observe(
                observer, "shard_commit",
                shard=shard["index"], sha256=digest,
            )
        shard["status"] = "done"
        shard["sha256"] = digest
        save_manifest(out_dir, manifest)
        _observe(
            observer, "shard_done",
            shard=shard["index"], start=shard["start"], stop=shard["stop"],
            quarantined=computed["quarantined"],
        )
        if progress:
            quarantined = computed["quarantined"]
            note = f" ({quarantined} quarantined)" if quarantined else ""
            progress(
                f"shard {shard['index']} done "
                f"[{shard['stop']}/{manifest['total_runs']} runs]{note}"
            )

    return _write_aggregates(out_dir, manifest, progress)


class CooperativeWorker:
    """One cooperative joiner draining a shared ensemble directory.

    The loop is claim → compute → commit → reconcile: pick the lowest
    pending shard without a live lease, claim it through the
    crash-tolerant lease protocol, compute it under supervision while a
    heartbeat thread renews the lease, then commit idempotently.  A
    worker that loses its lease (heartbeat stolen after TTL expiry)
    abandons the shard gracefully — the thief commits byte-identical
    content.  ``clock``/``sleep``/``heartbeat`` are injectable so tests
    can drive two workers through a deterministic lease-steal schedule.

    :meth:`step` performs exactly one such attempt and reports what
    happened (``"committed"``, ``"duplicate"``, ``"abandoned"``,
    ``"contended"``, or ``"complete"``); :meth:`run` loops with
    jittered exponential backoff on contention until the ensemble is
    complete (finalising the manifest and aggregates) or a shutdown is
    requested.
    """

    def __init__(
        self,
        out_dir: str,
        worker: Optional[str] = None,
        ttl: float = 30.0,
        workers: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        heartbeat: bool = True,
        backoff_base: float = 0.1,
        backoff_cap: Optional[float] = None,
        progress: Progress = None,
        observer: Observer = None,
    ) -> None:
        self.out_dir = out_dir
        self.manifest = load_manifest(out_dir)
        self.plan = _EnsemblePlan(self.manifest, workers, policy)
        self.manager = LeaseManager(
            out_dir, owner=worker, ttl=ttl, clock=clock, observer=observer,
        )
        self.sleep = sleep
        self.heartbeat = heartbeat
        self.backoff_base = backoff_base
        self.backoff_cap = (
            backoff_cap if backoff_cap is not None else min(2.0, ttl / 2.0)
        )
        self.progress = progress
        self.observer = observer

    @property
    def owner(self) -> str:
        return self.manager.owner

    def _pending(self) -> List[Dict]:
        """Shards without a commit marker, in index order."""
        return [
            shard
            for shard in self.manifest["shards"]
            if read_done_marker(self.out_dir, shard["index"]) is None
        ]

    def step(self) -> str:
        """One claim → compute → commit attempt.

        Returns ``"complete"`` (nothing left to claim or compute),
        ``"contended"`` (every pending shard is under a live foreign
        lease — back off), ``"committed"`` (this worker placed the
        shard's commit marker), ``"duplicate"`` (computed but another
        worker committed first — byte-identical by construction), or
        ``"abandoned"`` (the lease was lost mid-compute and the shard
        was dropped without committing).
        """
        pending = self._pending()
        if not pending:
            return "complete"
        lease = None
        for shard in pending:
            lease = self.manager.claim(shard["index"])
            if lease is not None:
                claimed = shard
                break
        if lease is None:
            return "contended"
        if self.progress:
            self.progress(
                f"worker {self.owner} claimed shard {claimed['index']} "
                f"(token {lease.token})"
            )
        _observe(
            self.observer, "shard_start",
            shard=claimed["index"],
            start=claimed["start"], stop=claimed["stop"],
        )
        beat = (
            LeaseHeartbeat(self.manager, lease).start()
            if self.heartbeat
            else None
        )
        try:
            computed = self.plan.compute_shard(claimed, self.observer)
        finally:
            if beat is not None:
                beat.stop()
        lost = beat is not None and beat.lost.is_set()
        if not lost:
            # Fencing check: commit only under a lease that is still
            # ours *now* (covers the no-heartbeat test mode and the
            # window since the last renewal).
            lost = not self.manager.renew(lease)
        if lost:
            if self.progress:
                self.progress(
                    f"worker {self.owner} lost its lease on shard "
                    f"{claimed['index']} — abandoning (the new owner "
                    "commits identical bytes)"
                )
            return "abandoned"
        try:
            digest, placed = commit_shard(
                self.out_dir, claimed["index"], _shard_payload(computed),
                owner=self.owner, token=lease.token,
            )
        finally:
            self.manager.release(lease)
        if placed:
            _observe(
                self.observer, "shard_commit",
                shard=claimed["index"], sha256=digest,
                owner=self.owner, token=lease.token,
            )
            _observe(
                self.observer, "shard_done",
                shard=claimed["index"],
                start=claimed["start"], stop=claimed["stop"],
                quarantined=computed["quarantined"],
            )
            if self.progress:
                self.progress(
                    f"worker {self.owner} committed shard "
                    f"{claimed['index']} "
                    f"[runs {claimed['start']}..{claimed['stop']})"
                )
            return "committed"
        return "duplicate"

    def _finalize(self) -> Dict:
        """Verify, persist the reconciled manifest, write aggregates.

        Every worker that observes completion runs this; all of them
        write byte-identical manifest and aggregate files (atomic
        replaces of equal content), so concurrent finalisation is
        harmless.
        """
        save_manifest(self.out_dir, self.manifest)
        return _write_aggregates(self.out_dir, self.manifest, self.progress)

    def run(self, shutdown=None) -> Optional[Dict]:
        """Drain the directory; returns the aggregate, or ``None`` on
        shutdown before completion.

        ``shutdown`` is any object with a truthy ``requested`` once the
        worker should stop (e.g.
        :class:`repro.analysis.supervision.ShutdownLatch`): the current
        shard is finished and committed, leases are released, and the
        method returns ``None`` — a later ``join`` continues exactly
        where the fleet left off.
        """
        contended = 0
        while True:
            if shutdown is not None and shutdown.requested:
                if self.progress:
                    self.progress(
                        f"worker {self.owner} shutting down — leases "
                        "released; rejoin to continue"
                    )
                return None
            outcome = self.step()
            if outcome == "complete":
                demoted = reconcile_manifest(
                    self.out_dir, self.manifest,
                    repair=True, verify=True, progress=self.progress,
                )
                if demoted == 0 and not self._pending():
                    return self._finalize()
                continue  # verification reopened work — keep draining
            if outcome == "contended":
                contended += 1
                delay = min(
                    self.backoff_cap,
                    self.backoff_base * 2.0 ** min(contended - 1, 8),
                )
                self.sleep(delay * (1.0 + 0.25 * random.random()))
            else:
                contended = 0


def join_ensemble(
    out_dir: str,
    campaign_id: Optional[str] = None,
    scale: str = "smoke",
    total_runs: Optional[int] = None,
    shard_size: int = 1000,
    seed: int = 0,
    default_max_events: Optional[int] = None,
    workers: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    ttl: float = 30.0,
    worker: Optional[str] = None,
    shutdown=None,
    progress: Progress = None,
    observer: Observer = None,
) -> Optional[Dict]:
    """Join (or bootstrap) a cooperative ensemble in ``out_dir``.

    If the directory has no manifest yet, the first joiner to arrive
    creates it atomically-and-exclusively from the campaign parameters;
    every other joiner (racing or late) loads the winner's manifest and
    — exactly like ``--resume`` — rejects contradicting arguments.
    Returns the aggregate dict once the whole ensemble is complete, or
    ``None`` if ``shutdown`` was requested first.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not os.path.exists(os.path.join(out_dir, MANIFEST_NAME)):
        if campaign_id is None:
            raise ExperimentError(
                "joining an empty directory needs a campaign id to "
                "bootstrap the manifest"
            )
        campaign = get_campaign(campaign_id)
        runs = (
            total_runs
            if total_runs is not None
            else campaign.repetitions_for(scale)
        )
        manifest = create_manifest(
            campaign_id=campaign_id,
            scale=scale,
            seed=seed,
            total_runs=runs,
            shard_size=shard_size,
            default_max_events=default_max_events,
        )
        manifest["jobspec_digest"] = _manifest_jobspec_digest(manifest)
        if create_manifest_exclusive(out_dir, manifest) and progress:
            progress(
                f"bootstrapped ensemble {campaign_id}@{scale}: {runs} "
                f"runs in {len(manifest['shards'])} shards"
            )
    manifest = load_manifest(out_dir)
    if campaign_id is not None and campaign_id != manifest["campaign"]:
        raise ExperimentError(
            f"join found campaign {manifest['campaign']!r} in {out_dir}, "
            f"not {campaign_id!r}"
        )
    if total_runs is not None and total_runs != manifest["total_runs"]:
        raise ExperimentError(
            f"join found {manifest['total_runs']} runs in {out_dir}, "
            f"not {total_runs}"
        )
    _check_manifest_digest(manifest, out_dir, "join")
    joiner = CooperativeWorker(
        out_dir,
        worker=worker,
        ttl=ttl,
        workers=workers,
        policy=policy,
        progress=progress,
        observer=observer,
    )
    return joiner.run(shutdown=shutdown)


def ensemble_status(out_dir: str) -> Dict:
    """Summarise an ensemble directory without running anything.

    Completion is derived from the commit markers (reconciled in
    memory, nothing on disk is touched or checksummed — this is the
    cheap live view cooperative workers and dashboards poll).  Beyond
    the completion counters this estimates progress rates from the
    ``done`` shard files' modification times (the only wall-clock
    signal the runner leaves behind — records themselves stay
    wall-clock-free): each shard after the first completed one gets a
    ``throughput_runs_per_s`` over the interval since its predecessor,
    and the remaining runs get an ``eta_s`` at the overall observed
    rate.  Both are ``None`` until two shards have finished (or once
    the ensemble is complete, for the ETA).  ``workers`` lists the
    live lease holders (owner, shard, fencing token, seconds until
    their heartbeat deadline) plus any expired claims awaiting
    reclaim.
    """
    manifest = load_manifest(out_dir)
    reconcile_manifest(out_dir, manifest, repair=False, verify=False)
    done = [s for s in manifest["shards"] if s["status"] == "done"]
    runs_done = sum(s["stop"] - s["start"] for s in done)
    aggregates_path = os.path.join(out_dir, AGGREGATES_NAME)

    timed = []  # (mtime, shard) for done shards whose file survives
    for shard in done:
        path = shard_path(out_dir, shard["index"])
        if os.path.exists(path):
            timed.append((os.path.getmtime(path), shard))
    timed.sort(key=lambda pair: pair[0])

    shard_rows: List[Dict] = []
    previous_mtime: Optional[float] = None
    for mtime, shard in timed:
        runs = shard["stop"] - shard["start"]
        rate = None
        if previous_mtime is not None and mtime > previous_mtime:
            rate = runs / (mtime - previous_mtime)
        shard_rows.append(
            {
                "index": shard["index"],
                "runs": runs,
                "throughput_runs_per_s": rate,
            }
        )
        previous_mtime = mtime

    throughput = None
    if len(timed) >= 2:
        span = timed[-1][0] - timed[0][0]
        covered = sum(
            shard["stop"] - shard["start"] for _, shard in timed[1:]
        )
        if span > 0:
            throughput = covered / span
    complete = len(done) == len(manifest["shards"])
    runs_remaining = manifest["total_runs"] - runs_done
    eta_s = (
        runs_remaining / throughput
        if throughput and not complete
        else None
    )

    status = {
        "campaign": manifest["campaign"],
        "scale": manifest["scale"],
        "seed": manifest["seed"],
        "jobspec_digest": manifest.get("jobspec_digest"),
        "total_runs": manifest["total_runs"],
        "shard_size": manifest["shard_size"],
        "shards_total": len(manifest["shards"]),
        "shards_done": len(done),
        "runs_done": runs_done,
        "complete": complete,
        "has_aggregates": os.path.exists(aggregates_path),
        "shards": shard_rows,
        "throughput_runs_per_s": throughput,
        "eta_s": eta_s,
        "workers": list_leases(out_dir),
    }
    return status

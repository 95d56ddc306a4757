"""Hot-path throughput benchmark harness (``repro bench``).

Measures productive-event throughput (events/sec) of the current
:class:`~repro.core.jump.JumpEngine` over a fixed suite of protocols
and population sizes, and writes the numbers to
``BENCH_<timestamp>.json``.  Each engine case's ``speedup`` divides its
throughput by the seed engine's (the jump engine as it shipped before
the fast-path rewrite) on the same case, recorded once as a constant
table (:data:`_SEED_EVENTS_PER_SEC`).  Every throughput, recorded or
measured, is taken at a *reference speed*: each ``run()`` is timed
between two passes of a fixed pure-Python kernel, whose time tells how
fast the shared host's core ran, and the median of several repeats is
kept (see :func:`_measure`).

The suite covers both engine fast paths: same-state-only protocols
(AG, single trap, ring of traps — the adaptive dual-sampler loop) and
the multi-family protocols (the §5 reset-line tree and the §4 line of
traps — the fused-index general loop).  A separate scheduler section
measures biased-scheduler runs three ways — the uniform jump baseline,
the rejection :class:`~repro.core.scheduler.ScheduledEngine`, and the
weighted jump fast path — so the cost of adversarial scheduling stays
on the record.

:func:`check_speedup_floors` turns a benchmark record into a pass/fail
gate (used by CI smoke): a case regressing below its committed floor
fails the run.  :func:`compare_bench` gates the whole *trend*: it diffs
a fresh record against the committed baseline record of the same tier
case by case and fails on any >25% regression
(:data:`COMPARE_TOLERANCE`) of the machine-relative throughput ratios
(speedup over the seed engine for engine cases, weighted-over-rejection
for scheduler cases).  :func:`append_bench_history`
accumulates per-case events/s into a CSV that the nightly workflow
uploads and renders as an ASCII trend table.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.configuration import Configuration
from ..core.jump import JumpEngine
from ..core.protocol import PopulationProtocol
from ..core.scheduler import PairScheduler, ScheduledEngine
from ..exceptions import SimulationError
from ..configurations.generators import random_configuration
from ..protocols.ag import AGProtocol
from ..protocols.line import LineOfTrapsProtocol
from ..protocols.ring import RingOfTrapsProtocol
from ..protocols.trap import SingleTrapProtocol
from ..protocols.tree_protocol import TreeRankingProtocol

__all__ = [
    "COMPARE_TOLERANCE",
    "BenchCase",
    "SchedulerBenchCase",
    "append_bench_history",
    "backend_bench_suite",
    "bench_ratios",
    "bench_suite",
    "check_bench_history",
    "check_same_tier",
    "check_speedup_floors",
    "compare_bench",
    "instrument_bench",
    "load_bench",
    "read_bench_history",
    "render_instrument",
    "run_bench",
    "scheduler_bench_suite",
    "write_bench_json",
]

#: Median pass of :func:`_reference_kernel`, in seconds, on the machine
#: the seed engine's numbers were recorded on (a 2-vCPU Intel Xeon
#: virtual machine, Python 3.11).  It only fixes the scale reference-speed
#: timings are reported at.
_REFERENCE_S = 0.0010

#: The kernel's 64k-entry table, filled on the first pass: about 2 MB
#: that only a timed bench run needs, not every importer of this module.
_KERNEL_TABLE: List[int] = []


def _reference_kernel() -> int:
    """About a millisecond of interpreter work: integer mixing, random
    reads of a 64k-entry list, dict updates and ``math.log``, as the
    engines' event loops do.  The same kernel as ``perfbench/calibrate.py``
    (which ``src/`` must not import); nothing in the program changes its
    time."""
    table = _KERNEL_TABLE
    counts = {}
    state = 1
    acc = 0.0
    for step in range(1500):
        state = (state * 1103515245 + 12345) & 0xFFFF
        value = table[state] & 255
        counts[value] = counts.get(value, 0) + 1
        acc += math.log(step + 1.0)
    return state + len(counts) + int(acc)


def _kernel_pass() -> float:
    if not _KERNEL_TABLE:
        _KERNEL_TABLE.extend(range(1 << 16))
    begin = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - begin


#: The seed every bench run builds its engines at.  It is the seed
#: :data:`_SEED_EVENTS_PER_SEC` was recorded at, so an engine case's
#: speedup divides two runs of the same case and seed.
_RECORDING_SEED = 7

#: Reference-speed events/s of the seed engine (the jump engine as it
#: shipped before the fast-path rewrite, with per-event family
#: re-summation, dict count deltas and float-multiply draws) on each
#: engine case, keyed by ``(case id, max_events)``.  Each is the median
#: of 35 runs at :data:`_RECORDING_SEED`, timed as :func:`_measure`
#: times, recorded with Python 3.11.7 at commit ``adda89b``, the last
#: that carried the seed engine.
_SEED_EVENTS_PER_SEC: Dict[Tuple[str, int], int] = {
    ("ag-n256", 5_000): 141_464,
    ("ag-n1000", 5_000): 136_612,
    ("trap-m16-n512", 5_000): 167_301,
    ("ring-m15", 5_000): 151_540,
    ("tree-n256", 5_000): 66_643,
    ("line-m2", 5_000): 120_397,
    ("line-m4", 20_000): 107_699,
    ("ag-n1000", 200_000): 142_386,
    ("ag-n10000", 200_000): 121_044,
    ("trap-m64-n4096", 100_000): 154_389,
    ("ring-m99", 100_000): 122_195,
    ("tree-n4096", 100_000): 54_516,
    ("line-m4", 100_000): 108_062,
}


def _timed_run(engine, max_events: int) -> Dict[str, object]:
    """One ``run()``, its throughput taken at the reference speed.

    The run sits between two passes of :func:`_reference_kernel`, and
    its wall time is scaled by the mean over the two passes of
    ``_REFERENCE_S`` ÷ pass time: the host's core speed changes by up to
    half for seconds at a time, and the passes tell how fast it ran.
    A full collection first takes the young pass that a build under
    ``collector_paused`` leaves pending, which would otherwise land in
    the first pass or in ``run()``.
    """
    gc.collect()
    before = _kernel_pass()
    begin = time.perf_counter()
    silent = engine.run(max_events=max_events)
    wall = time.perf_counter() - begin
    after = _kernel_pass()
    reference = wall * (_REFERENCE_S / before + _REFERENCE_S / after) / 2
    return {
        "events": engine.events,
        "interactions": engine.interactions,
        "silent": silent,
        "wall_time_s": wall,
        "events_per_sec": engine.events / reference,
    }


def _measure(
    jobs: Dict[object, Tuple[Callable[[], object], int]], repeats: int
) -> Dict[object, Dict[str, object]]:
    """Median reference-speed throughput of each job over ``repeats`` runs.

    ``jobs`` maps a key to ``(make_engine, max_events)``; every run
    builds a fresh engine, so the repeats of a job do identical work
    (same seed).  The runs go round-robin over the jobs, so that each
    job's repeats, and the two sides of every ratio, spread over the
    same stretch of the host's speed changes.  A job's record is its
    median run.
    """
    runs = {key: [] for key in jobs}
    for _ in range(max(1, repeats)):
        for key, (make_engine, max_events) in jobs.items():
            runs[key].append(_timed_run(make_engine(), max_events))
    return {
        key: sorted(timed, key=lambda run: run["events_per_sec"])[
            len(timed) // 2
        ]
        for key, timed in runs.items()
    }


@dataclass(frozen=True)
class BenchCase:
    """One suite entry: a protocol/start builder plus an event budget."""

    case_id: str
    protocol_name: str
    num_agents: int
    max_events: int
    build: Callable[[], Tuple[PopulationProtocol, Configuration]]


def _ag_case(n: int, max_events: int) -> BenchCase:
    def build():
        protocol = AGProtocol(n)
        return protocol, Configuration.all_in_state(0, n, n)

    return BenchCase(f"ag-n{n}", "AG", n, max_events, build)


def _trap_case(inner: int, n: int, max_events: int) -> BenchCase:
    def build():
        protocol = SingleTrapProtocol(inner, n)
        return protocol, Configuration.all_in_state(
            protocol.trap.top, n, protocol.num_states
        )

    return BenchCase(f"trap-m{inner}-n{n}", f"SingleTrap(m={inner})", n,
                     max_events, build)


def _ring_case(m: int, max_events: int) -> BenchCase:
    def build():
        protocol = RingOfTrapsProtocol(m=m)
        n = protocol.num_agents
        return protocol, Configuration.all_in_state(0, n, n)

    return BenchCase(f"ring-m{m}", f"RingOfTraps(m={m})", m * (m + 1),
                     max_events, build)


def _tree_case(n: int, max_events: int, seed: int = 11) -> BenchCase:
    def build():
        protocol = TreeRankingProtocol(n)
        return protocol, random_configuration(protocol, seed=seed)

    return BenchCase(f"tree-n{n}", "TreeRanking", n, max_events, build)


def _line_case(m: int, max_events: int, seed: int = 13) -> BenchCase:
    def build():
        protocol = LineOfTrapsProtocol(m=m)
        return protocol, random_configuration(
            protocol, seed=seed, include_extras=True
        )

    protocol = LineOfTrapsProtocol(m=m)
    return BenchCase(
        f"line-m{m}", f"LineOfTraps(m={m})", protocol.num_agents,
        max_events, build,
    )


def bench_suite(quick: bool = False) -> List[BenchCase]:
    """The fixed benchmark suite (smaller sizes/budgets when ``quick``).

    ``line-m4`` (the smallest §4 lattice the paper's construction is
    honest at, n = 960) appears in *both* tiers: it is the hybrid
    proposal/Fenwick sampler's headline workload, so the quick tier
    gates it on every PR.
    """
    if quick:
        return [
            _ag_case(256, 5_000),
            _ag_case(1_000, 5_000),
            _trap_case(16, 512, 5_000),
            _ring_case(15, 5_000),
            _tree_case(256, 5_000),
            _line_case(2, 5_000),
            _line_case(4, 20_000),
        ]
    return [
        _ag_case(1_000, 200_000),
        _ag_case(10_000, 200_000),
        _trap_case(64, 4_096, 100_000),
        _ring_case(99, 100_000),
        _tree_case(4_096, 100_000),
        _line_case(4, 100_000),
    ]


@dataclass(frozen=True)
class SchedulerBenchCase:
    """One biased-scheduler entry: protocol/start plus the scheduler."""

    case_id: str
    protocol_name: str
    scheduler_name: str
    num_agents: int
    max_events: int
    build: Callable[[], Tuple[PopulationProtocol, Configuration]]
    build_scheduler: Callable[[PopulationProtocol], PairScheduler]


def _tree_biased_case(
    n: int, max_events: int, extra_weight: float = 0.25, seed: int = 17
) -> SchedulerBenchCase:
    def build():
        protocol = TreeRankingProtocol(n)
        return protocol, random_configuration(
            protocol, seed=seed, include_extras=True
        )

    def build_scheduler(protocol):
        # Imported here: analysis must not hard-depend on scenarios.
        from ..scenarios.schedulers import StateBiasedScheduler

        return StateBiasedScheduler(
            [1.0] * protocol.num_ranks
            + [extra_weight] * protocol.num_extra_states
        )

    return SchedulerBenchCase(
        f"tree-biased-n{n}", "TreeRanking", "state_biased", n, max_events,
        build, build_scheduler,
    )


def _tree_epoch_case(n: int, max_events: int, seed: int = 19) -> SchedulerBenchCase:
    """Epoch-switching adversary: the timeline swaps bias mid-run.

    Segments alternate a state-biased and a clustered scheduler on
    event-count boundaries sized so the run crosses several epoch
    swaps — the case measures the weighted engine's hot-swap (index
    resync at every boundary) against the rejection reference under
    the identical timeline.
    """

    def build():
        protocol = TreeRankingProtocol(n)
        return protocol, random_configuration(
            protocol, seed=seed, include_extras=True
        )

    def build_scheduler(protocol):
        from ..core.scheduler import EpochBoundary, EpochScheduler
        from ..scenarios.schedulers import (
            ClusteredScheduler,
            StateBiasedScheduler,
        )

        biased = StateBiasedScheduler(
            [1.0] * protocol.num_ranks
            + [0.25] * protocol.num_extra_states
        )
        clustered = ClusteredScheduler(protocol.num_states, 2, across=0.1)
        segment = max(1, max_events // 8)
        return EpochScheduler([
            (EpochBoundary(kind="events", value=segment), biased),
            (EpochBoundary(kind="events", value=segment), clustered),
            (EpochBoundary(kind="events", value=segment), biased),
            (None, clustered),
        ])

    return SchedulerBenchCase(
        f"tree-epoch-n{n}", "TreeRanking", "epoch", n, max_events,
        build, build_scheduler,
    )


def scheduler_bench_suite(quick: bool = False) -> List[SchedulerBenchCase]:
    """Biased-scheduler suite: uniform vs rejection vs weighted path."""
    if quick:
        return [_tree_biased_case(128, 2_000), _tree_epoch_case(128, 2_000)]
    return [_tree_biased_case(1_024, 20_000), _tree_epoch_case(1_024, 20_000)]


def backend_bench_suite(quick: bool = False) -> List[BenchCase]:
    """Cases measured scalar-vs-numpy-batch (``backend="numpy"`` path).

    Reuses the engine-suite builders; the runner measures each case
    under the tuned scalar :class:`JumpEngine` and the numpy
    :class:`~repro.core.batch.BatchEngine` and records the
    ``batch_vs_scalar`` ratio.  Case ids carry a ``-np`` suffix so the
    floors and the history CSV keep the backends apart.  The committed
    floors here are *honest* measured values — the batch kernel is
    currently slower than the tuned scalar engine (per-event Python
    commit cost dominates; see README "Backends") — so the gate guards
    against further regression, not a speedup claim.
    """
    if quick:
        picks = [_line_case(4, 20_000), _tree_case(256, 5_000)]
    else:
        picks = [_line_case(4, 100_000), _tree_case(4_096, 100_000)]
    return [
        BenchCase(
            f"{case.case_id}-np", case.protocol_name, case.num_agents,
            case.max_events, case.build,
        )
        for case in picks
    ]


def _engine_factory(engine_cls, case: BenchCase):
    def make_engine():
        protocol, start = case.build()
        return engine_cls(
            protocol, start, np.random.default_rng(_RECORDING_SEED)
        )

    return make_engine


def _scheduler_factories(case: SchedulerBenchCase):
    """``uniform`` (the unbiased jump baseline, for context),
    ``rejection`` (the exact :class:`ScheduledEngine`) and ``weighted``
    (the fused weighted jump path) on one biased case.  Rejection and
    weighted realise the same step distribution, so their events/sec
    are directly comparable."""
    protocol, start = case.build()
    scheduler = case.build_scheduler(protocol)
    return {
        "uniform": lambda: JumpEngine(
            protocol, start, np.random.default_rng(_RECORDING_SEED)
        ),
        "rejection": lambda: ScheduledEngine(
            protocol, start, np.random.default_rng(_RECORDING_SEED),
            scheduler,
        ),
        "weighted": lambda: JumpEngine(
            protocol, start, np.random.default_rng(_RECORDING_SEED),
            scheduler,
        ),
    }


def run_bench(quick: bool = False, repeats: int = 7) -> Dict[str, object]:
    """Run the suite; return the record.

    Every throughput is the median over ``repeats`` runs at the
    reference speed (see :func:`_measure`), with every engine built at
    :data:`_RECORDING_SEED`.  An engine case divides the current
    engine's by the seed engine's recorded number
    (:data:`_SEED_EVENTS_PER_SEC`); scheduler and backend cases divide
    two engines measured in the same run.
    """
    # Imported here: the batch kernel is optional machinery the scalar
    # bench must not pay for at import time.
    from ..core.batch import BatchEngine

    engine_suite = bench_suite(quick=quick)
    scheduler_suite = scheduler_bench_suite(quick=quick)
    backend_suite = backend_bench_suite(quick=quick)
    jobs = {}
    seed_engine = {}
    for case in engine_suite:
        key = (case.case_id, case.max_events)
        if key not in _SEED_EVENTS_PER_SEC:
            raise SimulationError(
                f"no recorded seed-engine throughput for {case.case_id!r} "
                f"at {case.max_events} events"
            )
        seed_engine[case.case_id] = {
            "events_per_sec": _SEED_EVENTS_PER_SEC[key]
        }
        jobs[case.case_id, "current"] = (
            _engine_factory(JumpEngine, case), case.max_events
        )
    for case in scheduler_suite:
        for side, make_engine in _scheduler_factories(case).items():
            jobs[case.case_id, side] = (make_engine, case.max_events)
    for case in backend_suite:
        for side, engine_cls in (("scalar", JumpEngine), ("batch", BatchEngine)):
            jobs[case.case_id, side] = (
                _engine_factory(engine_cls, case), case.max_events
            )
    measured = _measure(jobs, repeats)

    def entry(case, **fields):
        return {
            "case": case.case_id,
            "protocol": case.protocol_name,
            "n": case.num_agents,
            "max_events": case.max_events,
            "seed": _RECORDING_SEED,
            **fields,
        }

    cases = []
    for case in engine_suite:
        legacy = seed_engine[case.case_id]
        current = measured[case.case_id, "current"]
        cases.append(entry(
            case, legacy=legacy, current=current,
            speedup=current["events_per_sec"] / legacy["events_per_sec"],
        ))
    scheduler_cases = []
    for case in scheduler_suite:
        sides = {
            side: measured[case.case_id, side]
            for side in ("uniform", "rejection", "weighted")
        }
        scheduler_cases.append(entry(
            case, scheduler=case.scheduler_name, **sides,
            weighted_vs_rejection=(
                sides["weighted"]["events_per_sec"]
                / sides["rejection"]["events_per_sec"]
            ),
        ))
    backend_cases = []
    for case in backend_suite:
        scalar = measured[case.case_id, "scalar"]
        batch = measured[case.case_id, "batch"]
        backend_cases.append(entry(
            case, scalar=scalar, batch=batch,
            batch_vs_scalar=(
                batch["events_per_sec"] / scalar["events_per_sec"]
            ),
        ))
    return {
        "timestamp": time.strftime("%Y%m%dT%H%M%S"),
        "quick": quick,
        "repeats": repeats,
        "cases": cases,
        "scheduler_cases": scheduler_cases,
        "backend_cases": backend_cases,
    }


def check_speedup_floors(
    record: Dict[str, object], floors: Dict[str, float]
) -> None:
    """Fail if any case's speedup regressed below its committed floor.

    ``floors`` maps case ids to minimum acceptable speedups.  Engine
    cases gate ``speedup`` (current vs the recorded seed engine);
    scheduler cases (``tree-biased-*``, ``tree-epoch-*``) gate
    ``weighted_vs_rejection`` — the weighted fast path against the
    rejection reference running the identical step distribution, which
    is the ratio a fast-path regression would erode.  Backend cases
    (``*-np``) gate ``batch_vs_scalar`` — the numpy batch kernel
    against the tuned scalar engine on the same case; their committed
    floors sit below 1.0 (honest measured values).  Raises
    :class:`~repro.exceptions.SimulationError` on an unknown case id or
    a floor violation — the CI gate.
    """
    by_id: Dict[str, Tuple[str, float]] = {
        case["case"]: ("speedup vs seed engine", case["speedup"])
        for case in record["cases"]
    }
    for case in record.get("scheduler_cases", ()):
        by_id[case["case"]] = (
            "weighted vs rejection", case["weighted_vs_rejection"]
        )
    for case in record.get("backend_cases", ()):
        by_id[case["case"]] = (
            "batch vs scalar", case["batch_vs_scalar"]
        )
    for case_id, floor in floors.items():
        entry = by_id.get(case_id)
        if entry is None:
            raise SimulationError(
                f"speedup floor names unknown case {case_id!r}; "
                f"suite has {sorted(by_id)}"
            )
        metric, speedup = entry
        if speedup < floor:
            raise SimulationError(
                f"{case_id}: {metric} speedup {speedup:.2f}x is below "
                f"the committed floor {floor:.2f}x"
            )


def bench_ratios(record: Dict[str, object]) -> Dict[str, Tuple[str, float, float]]:
    """Per-case ``(metric name, ratio, current events/s)`` of one record.

    Engine cases report their speedup over the seed engine, scheduler
    cases the weighted-over-rejection ratio, backend cases the
    batch-over-scalar ratio.  Every throughput behind them is taken at
    the reference speed, which is what makes them comparable across
    runs on a shared host.
    """
    ratios: Dict[str, Tuple[str, float, float]] = {}
    for case in record["cases"]:
        ratios[case["case"]] = (
            "speedup",
            case["speedup"],
            case["current"]["events_per_sec"],
        )
    for case in record.get("scheduler_cases", ()):
        ratios[case["case"]] = (
            "weighted_vs_rejection",
            case["weighted_vs_rejection"],
            case["weighted"]["events_per_sec"],
        )
    for case in record.get("backend_cases", ()):
        ratios[case["case"]] = (
            "batch_vs_scalar",
            case["batch_vs_scalar"],
            case["batch"]["events_per_sec"],
        )
    return ratios


def load_bench(path: str) -> Dict[str, object]:
    """Read a committed ``BENCH_*.json`` record."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_same_tier(quick: bool, baseline: Dict[str, object]) -> None:
    """Refuse a baseline of the other tier.

    The quick and full suites share case ids (``ag-n1000``, ``line-m4``,
    ``line-m4-np``) at different event budgets, so their ratios do not
    compare.  Raises :class:`~repro.exceptions.SimulationError`.
    """
    if bool(baseline.get("quick")) != quick:
        tiers = {True: "quick", False: "full"}
        raise SimulationError(
            f"baseline {baseline.get('timestamp', '?')} is a "
            f"{tiers[bool(baseline.get('quick'))]}-suite record; this run "
            f"is {tiers[quick]}"
        )


#: The largest fractional drop of a case's ratio below the baseline's
#: that :func:`compare_bench` lets pass.  25%: the quick and nightly
#: gates both ran at this bound, which unchanged code can come close to
#: on the noisiest ratios (the batch kernel's).
COMPARE_TOLERANCE = 0.25


def compare_bench(
    record: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Diff a fresh record against the committed baseline record.

    Returns the human-readable comparison lines and raises
    :class:`~repro.exceptions.SimulationError` when any case's
    machine-relative ratio regressed more than :data:`COMPARE_TOLERANCE`
    below the baseline's — the CI trend gate — or when the baseline is of the
    other tier (:func:`check_same_tier`).  Events/s are reported for
    context only: they do not transfer between machines, whereas the
    ratios do.  Cases present in only one record are reported but never
    fail the gate (the suite may grow).
    """
    check_same_tier(bool(record.get("quick")), baseline)
    current = bench_ratios(record)
    base = bench_ratios(baseline)
    lines: List[str] = []
    failures: List[str] = []
    for case_id in sorted(set(current) | set(base)):
        if case_id not in current:
            lines.append(f"{case_id:<18} missing from this run (baseline only)")
            continue
        metric, ratio, eps = current[case_id]
        if case_id not in base:
            lines.append(
                f"{case_id:<18} {metric} {ratio:6.2f}x (new case, "
                f"{eps:,.0f} ev/s)"
            )
            continue
        _, base_ratio, base_eps = base[case_id]
        drift = ratio / base_ratio - 1.0
        lines.append(
            f"{case_id:<18} {metric} {base_ratio:6.2f}x -> {ratio:6.2f}x "
            f"({drift:+.1%}; {base_eps:,.0f} -> {eps:,.0f} ev/s)"
        )
        if ratio < (1.0 - COMPARE_TOLERANCE) * base_ratio:
            failures.append(
                f"{case_id}: {metric} {ratio:.2f}x regressed more than "
                f"{COMPARE_TOLERANCE:.0%} below the baseline {base_ratio:.2f}x"
            )
    if failures:
        raise SimulationError(
            "bench trend regression vs baseline "
            f"{baseline.get('timestamp', '?')}:\n  " + "\n  ".join(failures)
        )
    return lines


_HISTORY_FIELDS = (
    "timestamp", "case", "metric", "backend", "ratio", "events_per_sec",
    "reference_events_per_sec",
)


def check_bench_history(path: str) -> None:
    """Refuse a history CSV whose header is not :data:`_HISTORY_FIELDS`.

    A missing or empty file passes (the first append writes the
    header).  Any other header raises
    :class:`~repro.exceptions.SimulationError` and leaves the file as
    it is: rows appended under it would land in the wrong columns.
    """
    if not (os.path.exists(path) and os.path.getsize(path) > 0):
        return
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header = next(csv.reader(handle), [])
    if tuple(header) != _HISTORY_FIELDS:
        raise SimulationError(
            f"bench history {path!r} has header {header}, expected "
            f"{list(_HISTORY_FIELDS)}"
        )


def append_bench_history(record: Dict[str, object], path: str) -> int:
    """Append one record's per-case rows to a ``bench_history.csv``.

    Creates the file (with a header) when missing and refuses one with
    another header (see :func:`check_bench_history`); returns the number
    of rows appended.  Rows are labelled per backend:
    engine and scheduler cases are the scalar Python hot paths
    (``python``), backend cases the numpy batch kernel (``numpy``).
    The nightly workflow keeps this CSV in its cache so every run
    extends the same trend, uploads it as an artifact, and renders it
    via :func:`repro.viz.ascii.render_trend_table`.
    """
    check_bench_history(path)
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    rows = 0
    with open(path, "a", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        if not exists:
            writer.writerow(_HISTORY_FIELDS)
        timestamp = record["timestamp"]
        for case in record["cases"]:
            writer.writerow([
                timestamp, case["case"], "speedup", "python",
                f"{case['speedup']:.4f}",
                f"{case['current']['events_per_sec']:.1f}",
                f"{case['legacy']['events_per_sec']:.1f}",
            ])
            rows += 1
        for case in record.get("scheduler_cases", ()):
            writer.writerow([
                timestamp, case["case"], "weighted_vs_rejection", "python",
                f"{case['weighted_vs_rejection']:.4f}",
                f"{case['weighted']['events_per_sec']:.1f}",
                f"{case['rejection']['events_per_sec']:.1f}",
            ])
            rows += 1
        for case in record.get("backend_cases", ()):
            writer.writerow([
                timestamp, case["case"], "batch_vs_scalar", "numpy",
                f"{case['batch_vs_scalar']:.4f}",
                f"{case['batch']['events_per_sec']:.1f}",
                f"{case['scalar']['events_per_sec']:.1f}",
            ])
            rows += 1
    return rows


def read_bench_history(path: str) -> List[Dict[str, str]]:
    """Read a ``bench_history.csv`` back as a list of row dicts."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def write_bench_json(record: Dict[str, object], output_dir: str = ".") -> str:
    """Write the record to ``<output_dir>/BENCH_<timestamp>.json``.

    Atomic (temp/fsync/rename via :mod:`repro._io`): a record under a
    valid ``BENCH_*`` name is always complete, even if the bench run is
    killed mid-write.
    """
    from .._io import atomic_write_json

    path = os.path.join(output_dir, f"BENCH_{record['timestamp']}.json")
    atomic_write_json(path, record, indent=2, sort_keys=False)
    return path


def instrument_bench(
    quick: bool = True, backend: str = "python"
) -> Dict[str, object]:
    """Run the engine suite once per case with counters attached.

    One instrumented run per :func:`bench_suite` case at
    :data:`_RECORDING_SEED` (no timing — the counters, not the wall
    clock, are the measurement): each entry
    reports the raw counter bag plus the derived ratios from
    :meth:`repro.obs.Instrumentation.derived`.  With the default
    ``backend="python"`` the scalar :class:`JumpEngine` runs and
    ``line-m4`` is the headline: its ``proposals_per_pool_draw`` and
    ``sprint_share`` are the ROADMAP's residual-cost answer for the
    hybrid proposal/Fenwick sampler.  With ``backend="numpy"`` the
    engines are built through :func:`~repro.core.engine.build_engine`
    (so cases route onto the batch kernel where supported) and the
    batch-level counters — ``events_per_batch_refill`` ("events per
    Python touch") and the refill/confirm rates — are the measurement.
    """
    from ..core.engine import build_engine
    from ..obs import Instrumentation

    seed = _RECORDING_SEED
    cases = []
    for case in bench_suite(quick=quick):
        protocol, start = case.build()
        instr = Instrumentation()
        if backend == "python":
            engine = JumpEngine(
                protocol, start, np.random.default_rng(seed),
                instrumentation=instr,
            )
            engine_name = "jump"
        else:
            engine, engine_name = build_engine(
                protocol, start, seed=seed, engine="jump",
                instrumentation=instr, backend=backend,
            )
        silent = engine.run(max_events=case.max_events)
        entry = {
            "case": case.case_id,
            "protocol": case.protocol_name,
            "n": case.num_agents,
            "max_events": case.max_events,
            "seed": seed,
            "backend": backend,
            "engine": engine_name,
            "silent": silent,
        }
        entry.update(instr.to_dict())
        cases.append(entry)
    return {"quick": quick, "seed": seed, "backend": backend, "cases": cases}


def render_instrument(record: Dict[str, object]) -> str:
    """Fixed-width table of an :func:`instrument_bench` record.

    Column set follows the backend: the scalar engines' sampler ratios
    for ``python``, the batch kernel's amortisation ratios for
    ``numpy``.
    """

    def ratio(entry, name, fmt="{:.2f}"):
        value = entry["derived"].get(name)
        return fmt.format(value) if value is not None else "-"

    if record.get("backend", "python") == "numpy":
        lines = [
            f"{'case':<16} {'engine':>10} {'events':>8} {'ev/refill':>10} "
            f"{'confirm':>8} {'k2':>6} {'skips/ev':>9}"
        ]
        for entry in record["cases"]:
            lines.append(
                f"{entry['case']:<16} {entry.get('engine', '-'):>10} "
                f"{entry['counters'].get('events', 0):>8} "
                f"{ratio(entry, 'events_per_batch_refill', '{:.1f}'):>10} "
                f"{ratio(entry, 'batch_confirm_acceptance', '{:.0%}'):>8} "
                f"{ratio(entry, 'batch_k2_share', '{:.0%}'):>6} "
                f"{ratio(entry, 'skip_draws_per_event'):>9}"
            )
        headline = next(
            (
                c for c in record["cases"]
                if c["case"] == "line-m4" and c.get("engine") == "batch"
            ),
            None,
        )
        if headline is not None:
            derived = headline["derived"]
            lines.append(
                "line-m4 batch amortisation: "
                f"{derived.get('events_per_batch_refill', float('nan')):.1f} "
                "events per Python touch (vectorised refill), "
                f"{derived.get('batch_confirm_acceptance', 0.0):.0%} "
                "confirm acceptance"
            )
        return "\n".join(lines)

    lines = [
        f"{'case':<16} {'events':>8} {'skips/ev':>9} {'raws/ev':>8} "
        f"{'props/pool':>10} {'sprint':>7} {'fenwick':>8}"
    ]
    for entry in record["cases"]:
        lines.append(
            f"{entry['case']:<16} {entry['counters'].get('events', 0):>8} "
            f"{ratio(entry, 'skip_draws_per_event'):>9} "
            f"{ratio(entry, 'raw_draws_per_event'):>8} "
            f"{ratio(entry, 'proposals_per_pool_draw'):>10} "
            f"{ratio(entry, 'sprint_share', '{:.0%}'):>7} "
            f"{ratio(entry, 'fenwick_share', '{:.0%}'):>8}"
        )
    headline = next(
        (c for c in record["cases"] if c["case"] == "line-m4"), None
    )
    if headline is not None:
        derived = headline["derived"]
        lines.append(
            "line-m4 residual cost: "
            f"{derived.get('proposals_per_pool_draw', float('nan')):.2f} "
            "proposals per pool draw, "
            f"{derived.get('sprint_share', 0.0):.0%} of pool events on "
            "the sprint shortcut"
        )
    return "\n".join(lines)


def render_bench(record: Dict[str, object]) -> str:
    """Fixed-width text table of one benchmark record."""
    lines = [
        f"{'case':<16} {'n':>6} {'events':>8} "
        f"{'legacy ev/s':>12} {'current ev/s':>13} {'speedup':>8}"
    ]
    for case in record["cases"]:
        lines.append(
            f"{case['case']:<16} {case['n']:>6} "
            f"{case['current']['events']:>8} "
            f"{case['legacy']['events_per_sec']:>12,.0f} "
            f"{case['current']['events_per_sec']:>13,.0f} "
            f"{case['speedup']:>7.2f}x"
        )
    for case in record.get("scheduler_cases", ()):
        lines.append(
            f"{case['case']:<16} {case['n']:>6} "
            f"{case['weighted']['events']:>8} "
            f"{case['rejection']['events_per_sec']:>12,.0f} "
            f"{case['weighted']['events_per_sec']:>13,.0f} "
            f"{case['weighted_vs_rejection']:>7.2f}x"
            f"   [{case['scheduler']}; uniform "
            f"{case['uniform']['events_per_sec']:,.0f} ev/s]"
        )
    for case in record.get("backend_cases", ()):
        lines.append(
            f"{case['case']:<16} {case['n']:>6} "
            f"{case['batch']['events']:>8} "
            f"{case['scalar']['events_per_sec']:>12,.0f} "
            f"{case['batch']['events_per_sec']:>13,.0f} "
            f"{case['batch_vs_scalar']:>7.2f}x"
            "   [numpy batch vs tuned scalar]"
        )
    return "\n".join(lines)

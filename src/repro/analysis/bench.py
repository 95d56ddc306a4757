"""Hot-path throughput benchmark harness (``repro bench``).

Measures productive-event throughput (events/sec) of the current
:class:`~repro.core.jump.JumpEngine` against :class:`LegacyJumpEngine`
— a frozen copy of the engine as it shipped in the seed commit — over a
fixed suite of protocols and population sizes, and writes the numbers
to ``BENCH_<timestamp>.json``.  Keeping the legacy engine in-tree means
every benchmark run measures the baseline on the *same* hardware, so
the recorded speedups are honest and future PRs inherit a perf
trajectory instead of a stale absolute number.

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
over the frozen seed baseline fails the run.  :func:`compare_bench`
gates the whole *trend*: it diffs a fresh record against the committed
baseline record case by case and fails on any >15% regression of the
machine-relative throughput ratios (speedup over the frozen seed engine
for engine cases, weighted-over-rejection for scheduler cases — both
numerator and denominator of every ratio run in the same process, so
the comparison transfers across machines).  :func:`append_bench_history`
accumulates per-case events/s into a CSV that the nightly workflow
uploads and renders as an ASCII trend table.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.configuration import Configuration
from ..core.engine import Recorder
from ..core.jump import JumpEngine
from ..core.protocol import PopulationProtocol
from ..core.scheduler import (
    PairScheduler,
    ScheduledEngine,
    WeightedScheduledEngine,
)
from ..exceptions import SimulationError
from ..configurations.generators import random_configuration
from ..protocols.ag import AGProtocol
from ..protocols.line import LineOfTrapsProtocol
from ..protocols.ring import RingOfTrapsProtocol
from ..protocols.trap import SingleTrapProtocol
from ..protocols.tree_protocol import TreeRankingProtocol

__all__ = [
    "BenchCase",
    "LegacyJumpEngine",
    "SchedulerBenchCase",
    "append_bench_history",
    "backend_bench_suite",
    "bench_ratios",
    "bench_suite",
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

# Fidelity bound of the seed engine's float-indexed sampling.
_LEGACY_MAX_EXACT = 1 << 53

_LEGACY_UNIFORM_BATCH = 8192


class _LegacySameStatePairs:
    """Seed-commit ``SameStatePairs`` (``on_count_change`` returns None)."""

    __slots__ = ("_has_rule", "_fenwick")

    def __init__(self, counts, rule_states) -> None:
        num_states = len(counts)
        self._has_rule = [False] * num_states
        for state in rule_states:
            self._has_rule[state] = True
        weights = [
            counts[s] * (counts[s] - 1) if self._has_rule[s] else 0
            for s in range(num_states)
        ]
        from ..core.fenwick import FenwickTree

        self._fenwick = FenwickTree.from_values(weights)

    @property
    def weight(self) -> int:
        return self._fenwick.total

    def on_count_change(self, state, old, new) -> None:
        if self._has_rule[state]:
            self._fenwick.set(state, new * (new - 1))

    def sample(self, rand_below):
        state = self._fenwick.find(rand_below(self._fenwick.total))
        return state, state


class _LegacyOrderedProduct:
    """Seed-commit ``OrderedProduct`` (unconditional two-sided update)."""

    __slots__ = ("_initiators", "_responders", "_init_pos", "_resp_pos",
                 "_init_fenwick", "_resp_fenwick")

    def __init__(self, counts, initiators, responders) -> None:
        from ..core.fenwick import FenwickTree

        self._initiators = list(initiators)
        self._responders = list(responders)
        num_states = len(counts)
        self._init_pos = [-1] * num_states
        self._resp_pos = [-1] * num_states
        for pos, state in enumerate(self._initiators):
            self._init_pos[state] = pos
        for pos, state in enumerate(self._responders):
            self._resp_pos[state] = pos
        self._init_fenwick = FenwickTree.from_values(
            counts[s] for s in self._initiators
        )
        self._resp_fenwick = FenwickTree.from_values(
            counts[s] for s in self._responders
        )

    @property
    def weight(self) -> int:
        return self._init_fenwick.total * self._resp_fenwick.total

    def on_count_change(self, state, old, new) -> None:
        pos = self._init_pos[state]
        if pos >= 0:
            self._init_fenwick.set(pos, new)
        pos = self._resp_pos[state]
        if pos >= 0:
            self._resp_fenwick.set(pos, new)

    def sample(self, rand_below):
        initiator_pos = self._init_fenwick.find(
            rand_below(self._init_fenwick.total)
        )
        responder_pos = self._resp_fenwick.find(
            rand_below(self._resp_fenwick.total)
        )
        return self._initiators[initiator_pos], self._responders[responder_pos]


class _LegacyTriangularLine:
    """Seed-commit ``TriangularLine`` (full recompute, no delta return)."""

    __slots__ = ("_line", "_pos", "_counts", "_weight")

    def __init__(self, counts, line_states) -> None:
        self._line = list(line_states)
        self._pos = {state: i for i, state in enumerate(self._line)}
        self._counts = [counts[s] for s in self._line]
        self._weight = self._recompute()

    def _recompute(self) -> int:
        total = 0
        suffix = 0
        for c in reversed(self._counts):
            total += c * (c - 1) + c * suffix
            suffix += c
        return total

    @property
    def weight(self) -> int:
        return self._weight

    def on_count_change(self, state, old, new) -> None:
        pos = self._pos.get(state)
        if pos is None:
            return
        self._counts[pos] = new
        self._weight = self._recompute()

    def sample(self, rand_below):
        target = rand_below(self._weight)
        counts = self._counts
        length = len(counts)
        suffix = sum(counts)
        for i in range(length):
            c = counts[i]
            suffix -= c
            same = c * (c - 1)
            if target < same:
                return self._line[i], self._line[i]
            target -= same
            cross = c * suffix
            if target < cross:
                j_target = target // c
                for j in range(i + 1, length):
                    if j_target < counts[j]:
                        return self._line[i], self._line[j]
                    j_target -= counts[j]
                raise SimulationError("TriangularLine sample overflow")
            target -= cross
        raise SimulationError("TriangularLine sample out of range")


def _legacy_families(protocol: PopulationProtocol, counts: List[int]):
    """The protocol's families, rebuilt from the frozen seed classes.

    The live family classes evolve with the fast path (they do not
    sample, and ``on_count_change`` returns deltas); reconstructing
    their seed equivalents keeps the baseline measurement from drifting
    when they do.  A family of any other type raises
    :class:`SimulationError`.
    """
    from ..core.families import OrderedProduct, SameStatePairs, TriangularLine

    frozen = []
    for family in protocol.build_families(counts):
        if type(family) is SameStatePairs:
            rule_states = [
                s for s, has in enumerate(family._has_rule) if has
            ]
            frozen.append(_LegacySameStatePairs(counts, rule_states))
        elif type(family) is OrderedProduct:
            frozen.append(
                _LegacyOrderedProduct(
                    counts, family._initiators, family._responders
                )
            )
        elif type(family) is TriangularLine:
            frozen.append(_LegacyTriangularLine(counts, family._line))
        else:
            raise SimulationError(
                f"no seed equivalent of family {type(family).__name__}"
            )
    return frozen


class LegacyJumpEngine:
    """The seed-commit jump engine, frozen as the benchmark baseline.

    Verbatim hot path of the pre-optimisation engine: per-event family
    weight re-summation, dynamic ``delta()`` dispatch, per-event count
    delta dicts, and float-multiply pair indexing — running on frozen
    copies of the seed weight families.  Do not optimise any of it —
    its whole purpose is to stay slow the way the seed was.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng: np.random.Generator,
    ) -> None:
        protocol.validate_configuration(configuration)
        n = protocol.num_agents
        if n * (n - 1) >= _LEGACY_MAX_EXACT:
            raise SimulationError(
                f"population {n} too large for exact float-indexed sampling"
            )
        self._protocol = protocol
        self._rng = rng
        self.counts: List[int] = configuration.counts_list()
        self._families = _legacy_families(protocol, self.counts)
        self._total_pairs = n * (n - 1)
        self.interactions = 0
        self.events = 0
        self._uniforms = rng.random(_LEGACY_UNIFORM_BATCH)
        self._uniform_pos = 0

    def _next_uniform(self) -> float:
        pos = self._uniform_pos
        if pos == _LEGACY_UNIFORM_BATCH:
            self._uniforms = self._rng.random(_LEGACY_UNIFORM_BATCH)
            pos = 0
        self._uniform_pos = pos + 1
        return self._uniforms[pos]

    def rand_below(self, bound: int) -> int:
        """Seed-era float-multiply draw in ``[0, bound)`` (biased near 2⁵³)."""
        value = int(self._next_uniform() * bound)
        return bound - 1 if value >= bound else value

    def _geometric_skip(self, weight: int) -> int:
        p = weight / self._total_pairs
        if p >= 1.0:
            return 1
        u = 1.0 - self._next_uniform()
        skip = math.ceil(math.log(u) / math.log1p(-p))
        return skip if skip >= 1 else 1

    def _sample_pair(self, weight: int) -> tuple:
        target = self.rand_below(weight)
        for family in self._families:
            fw = family.weight
            if target < fw:
                return family.sample(self.rand_below)
            target -= fw
        raise SimulationError("family weights changed during sampling")

    def _apply(self, si: int, sj: int, ti: int, tj: int) -> None:
        counts = self._counts_delta(si, sj, ti, tj)
        for state, delta in counts:
            old = self.counts[state]
            new = old + delta
            if new < 0:
                raise SimulationError(
                    f"state {state} count went negative applying "
                    f"({si},{sj})→({ti},{tj})"
                )
            self.counts[state] = new
            for family in self._families:
                family.on_count_change(state, old, new)

    @staticmethod
    def _counts_delta(si: int, sj: int, ti: int, tj: int):
        delta: dict = {}
        delta[si] = delta.get(si, 0) - 1
        delta[sj] = delta.get(sj, 0) - 1
        delta[ti] = delta.get(ti, 0) + 1
        delta[tj] = delta.get(tj, 0) + 1
        return [(s, d) for s, d in delta.items() if d != 0]

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent."""
        if recorder is not None:
            recorder.on_start(self.counts)
        protocol = self._protocol
        families = self._families
        silent = False
        while True:
            if max_events is not None and self.events >= max_events:
                break
            weight = 0
            for family in families:
                weight += family.weight
            if weight == 0:
                silent = True
                break
            skip = self._geometric_skip(weight)
            if (
                max_interactions is not None
                and self.interactions + skip > max_interactions
            ):
                self.interactions = max_interactions
                break
            self.interactions += skip
            si, sj = self._sample_pair(weight)
            out = protocol.delta(si, sj)
            if out is None:
                raise SimulationError(
                    f"families sampled null pair ({si}, {sj}) — "
                    "family coverage does not match delta"
                )
            ti, tj = out
            self._apply(si, sj, ti, tj)
            self.events += 1
        if recorder is not None:
            recorder.on_finish(silent, self.interactions, self.counts)
        return silent


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


def _measure_scheduler_case(
    case: SchedulerBenchCase, seed: int, repeats: int = 2
) -> Dict[str, object]:
    """Throughput of one biased case under all three realisations.

    ``uniform`` (the unbiased jump baseline, for context), ``rejection``
    (the exact :class:`ScheduledEngine`), and ``weighted`` (the fused
    weighted jump path).  Rejection and weighted realise the same step
    distribution, so their events/sec are directly comparable.
    """

    def best_of(make_engine) -> Dict[str, object]:
        best = None
        for _ in range(max(1, repeats)):
            engine = make_engine()
            begin = time.perf_counter()
            engine.run(max_events=case.max_events)
            wall = time.perf_counter() - begin
            if best is None or wall < best["wall_time_s"]:
                best = {
                    "events": engine.events,
                    "interactions": engine.interactions,
                    "wall_time_s": wall,
                    "events_per_sec": (
                        engine.events / wall if wall > 0 else float("inf")
                    ),
                }
        return best

    protocol, start = case.build()
    scheduler = case.build_scheduler(protocol)
    uniform = best_of(
        lambda: JumpEngine(protocol, start, np.random.default_rng(seed))
    )
    rejection = best_of(
        lambda: ScheduledEngine(
            protocol, start, np.random.default_rng(seed), scheduler
        )
    )
    weighted = best_of(
        lambda: WeightedScheduledEngine(
            protocol, start, np.random.default_rng(seed), scheduler
        )
    )
    return {
        "case": case.case_id,
        "protocol": case.protocol_name,
        "scheduler": case.scheduler_name,
        "n": case.num_agents,
        "max_events": case.max_events,
        "seed": seed,
        "uniform": uniform,
        "rejection": rejection,
        "weighted": weighted,
        "weighted_vs_rejection": (
            weighted["events_per_sec"] / rejection["events_per_sec"]
        ),
    }


def _measure(
    engine_cls, case: BenchCase, seed: int, repeats: int = 2
) -> Dict[str, object]:
    """Best-of-``repeats`` timing (fresh engine per repeat, same seed).

    Each repeat performs identical work, so taking the fastest one
    filters out scheduler noise without flattering either engine.
    """
    best = None
    for _ in range(max(1, repeats)):
        protocol, start = case.build()
        engine = engine_cls(protocol, start, np.random.default_rng(seed))
        begin = time.perf_counter()
        silent = engine.run(max_events=case.max_events)
        wall = time.perf_counter() - begin
        if best is None or wall < best["wall_time_s"]:
            best = {
                "events": engine.events,
                "interactions": engine.interactions,
                "silent": silent,
                "wall_time_s": wall,
                "events_per_sec": (
                    engine.events / wall if wall > 0 else float("inf")
                ),
            }
    return best


def run_bench(
    quick: bool = False, seed: int = 7, repeats: int = 3
) -> Dict[str, object]:
    """Run the suite with both engines; return the comparison record.

    The legacy (seed) engine is measured first for every case, then the
    current engine, so both numbers come from the same process on the
    same hardware and the recorded speedup is apples-to-apples.
    """
    cases = []
    for case in bench_suite(quick=quick):
        legacy = _measure(LegacyJumpEngine, case, seed, repeats=repeats)
        current = _measure(JumpEngine, case, seed, repeats=repeats)
        cases.append(
            {
                "case": case.case_id,
                "protocol": case.protocol_name,
                "n": case.num_agents,
                "max_events": case.max_events,
                "seed": seed,
                "legacy": legacy,
                "current": current,
                "speedup": (
                    current["events_per_sec"] / legacy["events_per_sec"]
                ),
            }
        )
    scheduler_cases = [
        _measure_scheduler_case(case, seed, repeats=repeats)
        for case in scheduler_bench_suite(quick=quick)
    ]
    # Imported here: the batch kernel is optional machinery the scalar
    # bench must not pay for at import time.
    from ..core.batch import BatchEngine

    backend_cases = []
    for case in backend_bench_suite(quick=quick):
        scalar = _measure(JumpEngine, case, seed, repeats=repeats)
        batch = _measure(BatchEngine, case, seed, repeats=repeats)
        backend_cases.append(
            {
                "case": case.case_id,
                "protocol": case.protocol_name,
                "n": case.num_agents,
                "max_events": case.max_events,
                "seed": seed,
                "scalar": scalar,
                "batch": batch,
                "batch_vs_scalar": (
                    batch["events_per_sec"] / scalar["events_per_sec"]
                ),
            }
        )
    headline = next(
        (c for c in cases if c["case"] == "ag-n10000"), cases[0]
    )
    return {
        "timestamp": time.strftime("%Y%m%dT%H%M%S"),
        "quick": quick,
        "repeats": repeats,
        "cases": cases,
        "scheduler_cases": scheduler_cases,
        "backend_cases": backend_cases,
        "headline": {
            "case": headline["case"],
            "legacy_events_per_sec": headline["legacy"]["events_per_sec"],
            "current_events_per_sec": headline["current"]["events_per_sec"],
            "speedup": headline["speedup"],
        },
    }


def check_speedup_floors(
    record: Dict[str, object], floors: Dict[str, float]
) -> None:
    """Fail if any case's speedup regressed below its committed floor.

    ``floors`` maps case ids to minimum acceptable speedups.  Engine
    cases gate ``speedup`` (current vs the frozen seed engine);
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
        case["case"]: ("speedup vs frozen seed engine", case["speedup"])
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

    Engine cases report their speedup over the frozen seed engine,
    scheduler cases the weighted-over-rejection ratio.  Both are
    measured within one process, which is what makes them comparable
    across machines and CI runners.
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


def compare_bench(
    record: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.15,
) -> List[str]:
    """Diff a fresh record against the committed baseline record.

    Returns the human-readable comparison lines and raises
    :class:`~repro.exceptions.SimulationError` when any case's
    machine-relative ratio regressed more than ``tolerance`` below the
    baseline's — the CI trend gate.  Raw events/s are reported for
    context only: they do not transfer between machines, whereas each
    ratio's numerator and denominator were measured in one process.
    Cases present in only one record are reported but never fail the
    gate (the suite may grow).
    """
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
            f"({drift:+.1%}; {base_eps:,.0f} -> {eps:,.0f} ev/s raw)"
        )
        if ratio < (1.0 - tolerance) * base_ratio:
            failures.append(
                f"{case_id}: {metric} {ratio:.2f}x regressed more than "
                f"{tolerance:.0%} below the baseline {base_ratio:.2f}x"
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


def _migrate_bench_history(path: str) -> None:
    """Upgrade a pre-backend-column history CSV in place.

    Older CSVs lack the ``backend`` column; every row they hold was a
    scalar-engine measurement, so migration rewrites them with
    ``backend=python`` under the new header.  A current-header (or
    missing/empty) file is left untouched.
    """
    if not (os.path.exists(path) and os.path.getsize(path) > 0):
        return
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) == _HISTORY_FIELDS:
            return
        old_rows = [dict(zip(header, row)) for row in reader]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HISTORY_FIELDS)
        for row in old_rows:
            writer.writerow([
                row.get(field, "python" if field == "backend" else "")
                for field in _HISTORY_FIELDS
            ])


def append_bench_history(record: Dict[str, object], path: str) -> int:
    """Append one record's per-case rows to a ``bench_history.csv``.

    Creates the file (with a header) when missing and migrates an
    old-header file first (see :func:`_migrate_bench_history`); returns
    the number of rows appended.  Rows are labelled per backend:
    engine and scheduler cases are the scalar Python hot paths
    (``python``), backend cases the numpy batch kernel (``numpy``).
    The nightly workflow keeps this CSV in its cache so every run
    extends the same trend, uploads it as an artifact, and renders it
    via :func:`repro.viz.ascii.render_trend_table`.
    """
    _migrate_bench_history(path)
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
    quick: bool = True, seed: int = 7, backend: str = "python"
) -> Dict[str, object]:
    """Run the engine suite once per case with counters attached.

    One instrumented run per :func:`bench_suite` case (no timing — the
    counters, not the wall clock, are the measurement): each entry
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
    head = record["headline"]
    lines.append(
        f"headline [{head['case']}]: "
        f"{head['legacy_events_per_sec']:,.0f} -> "
        f"{head['current_events_per_sec']:,.0f} events/s "
        f"({head['speedup']:.2f}x)"
    )
    return "\n".join(lines)

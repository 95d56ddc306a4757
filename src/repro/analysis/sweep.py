"""Seeded parameter sweeps over (protocol, initial configuration) pairs.

Every experiment in this reproduction is a sweep: for each parameter
point (a population size, a distance ``k``, ...) build a fresh protocol
and starting configuration, run to silence, repeat with independent
seeds, and summarise.  This module owns the seed bookkeeping
(``numpy.random.SeedSequence.spawn`` so repetitions are independent yet
the whole sweep is reproducible from one root seed), the aggregation,
and the optional process-pool fan-out (``workers=N``), which preserves
the one-root-seed reproducibility guarantee bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.configuration import Configuration
from ..core.engine import RunResult, run_protocol
from ..core.protocol import PopulationProtocol
from ..exceptions import ExperimentError
from .stats import Summary, summarise
from .supervision import JobFailure, SupervisionPolicy, supervised_map

__all__ = [
    "SweepPoint",
    "run_sweep",
    "measure_stabilisation",
    "JobFailure",
    "SupervisionPolicy",
]

# A builder maps (params, rng) to a ready-to-run (protocol, configuration).
Builder = Callable[
    [Dict[str, object], "np.random.Generator"],
    Tuple[PopulationProtocol, Configuration],
]


@dataclass
class SweepPoint:
    """All repetitions of one parameter point, with summaries.

    ``failures`` lists repetitions quarantined by the supervised
    executor (crashed/hung/erroring jobs under a non-fail-fast
    :class:`~repro.analysis.supervision.SupervisionPolicy`); the
    summaries below cover the surviving ``runs`` only.
    """

    params: Dict[str, object]
    runs: List[RunResult] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def parallel_times(self) -> List[float]:
        """Parallel time of every repetition."""
        return [run.parallel_time for run in self.runs]

    @property
    def interaction_counts(self) -> List[int]:
        """Total interaction count of every repetition."""
        return [run.interactions for run in self.runs]

    @property
    def all_silent(self) -> bool:
        """True iff every repetition reached silence within budget."""
        return all(run.silent for run in self.runs)

    def time_summary(self) -> Summary:
        """Summary of parallel stabilisation times."""
        return summarise(self.parallel_times)

    def median_parallel_time(self) -> float:
        """Median parallel stabilisation time across repetitions."""
        return self.time_summary().median

    def max_parallel_time(self) -> float:
        """Worst repetition — the relevant statistic for whp claims."""
        return self.time_summary().maximum


def _run_sweep_job(job: tuple) -> RunResult:
    """One repetition, self-contained so worker processes can run it.

    The repetition's generator is derived from its own
    ``SeedSequence`` child, so the result is a pure function of the job
    — bit-identical whether executed inline or in any worker process.
    """
    params, child, build, engine, max_interactions, max_events = job
    rng = np.random.default_rng(child)
    protocol, configuration = build(dict(params), rng)
    return run_protocol(
        protocol,
        configuration,
        seed=rng,
        engine=engine,
        max_interactions=max_interactions,
        max_events=max_events,
    )


def run_sweep(
    points: Sequence[Dict[str, object]],
    build: Builder,
    repetitions: int = 5,
    seed: int = 0,
    engine: str = "jump",
    max_interactions: Optional[int] = None,
    max_events: Optional[int] = None,
    workers: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> List[SweepPoint]:
    """Run ``repetitions`` independent runs per parameter point.

    ``build(params, rng)`` must construct both the protocol and its
    starting configuration from the given generator, so the whole sweep
    is a pure function of ``seed``.

    ``workers`` > 1 fans the repetitions out over a supervised process
    pool.  Each repetition's generator is spawned from the root
    ``SeedSequence`` in a fixed order before dispatch, so results are
    bit-identical to a serial sweep with the same ``seed`` regardless
    of the worker count (only ``RunResult.wall_time_s`` varies).
    ``build`` must then be picklable, i.e. a module-level callable.
    The default (``None`` or 1) runs serially in-process.

    ``policy`` tunes supervision (per-job timeouts, retry budgets);
    with ``fail_fast=False`` quarantined repetitions land in
    :attr:`SweepPoint.failures` instead of raising, and that point's
    summaries cover the surviving runs.
    """
    if not points:
        raise ExperimentError(
            "run_sweep needs at least one parameter point; got an "
            "empty points sequence"
        )
    if repetitions < 1:
        raise ExperimentError(f"repetitions must be >= 1, got {repetitions}")
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(points) * repetitions)
    jobs = [
        (
            dict(params),
            children[point_index * repetitions + rep],
            build,
            engine,
            max_interactions,
            max_events,
        )
        for point_index, params in enumerate(points)
        for rep in range(repetitions)
    ]
    runs, failures = supervised_map(
        _run_sweep_job, jobs, workers=workers, policy=policy
    )
    if failures and (policy is None or policy.fail_fast):
        detail = "; ".join(repr(failure) for failure in failures[:5])
        raise ExperimentError(
            f"{len(failures)} of {len(jobs)} sweep repetitions failed "
            f"under supervision: {detail}"
        )
    by_index = {failure.index: failure for failure in failures}
    results = []
    for point_index, params in enumerate(points):
        start = point_index * repetitions
        indices = range(start, start + repetitions)
        results.append(
            SweepPoint(
                params=dict(params),
                runs=[runs[i] for i in indices if runs[i] is not None],
                failures=[by_index[i] for i in indices if i in by_index],
            )
        )
    return results


def measure_stabilisation(
    build: Builder,
    xs: Sequence[int],
    x_name: str = "n",
    repetitions: int = 5,
    seed: int = 0,
    max_interactions: Optional[int] = None,
    workers: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> List[SweepPoint]:
    """Convenience sweep over a single integer parameter (usually ``n``)."""
    if not xs:
        raise ExperimentError(
            f"measure_stabilisation needs at least one {x_name} value; "
            "got an empty sequence"
        )
    points = [{x_name: x} for x in xs]
    return run_sweep(
        points,
        build,
        repetitions=repetitions,
        seed=seed,
        max_interactions=max_interactions,
        workers=workers,
        policy=policy,
    )

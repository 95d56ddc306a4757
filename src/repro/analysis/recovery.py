"""Recovery-time analysis of scenario campaigns.

The paper's silence/stabilisation bounds are statements about how fast
a population returns to the silent configuration after an adversarial
disturbance.  This module turns the phase logs of a
:class:`~repro.scenarios.campaign.CampaignResult` into exactly those
measurements:

* :func:`recovery_records` — one record per (repetition, fault): did the
  population re-silence, and in how much parallel time;
* :func:`survival_curve` — the empirical survival function
  ``S(t) = P(recovery time > t)``, the whp-bound shape check;
* :func:`recovery_table` / :func:`survival_table` /
  :func:`phase_table` — rendered tables for the CLI, the experiment
  registry, and EXPERIMENTS.md;
* :func:`epoch_table` — recovery times grouped by the scheduler
  segment active during the recovery (the per-epoch view for
  time-varying :class:`~repro.core.scheduler.EpochScheduler`
  adversaries: the same fault can recover under different biases
  depending on which epoch it lands in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ExperimentError
from .stats import summarise, wilson_interval
from .tables import Table

__all__ = [
    "RecoveryRecord",
    "epoch_table",
    "phase_table",
    "recovery_records",
    "recovery_table",
    "survival_curve",
    "survival_table",
]


@dataclass(frozen=True)
class RecoveryRecord:
    """One fault's recovery measurement in one repetition.

    ``recovery_time`` is the parallel time (interactions / n) the
    following run phase spent before silence — or before its budget ran
    out, in which case ``recovered`` is False and the time is the
    censoring point, not a completed recovery.
    """

    repetition: int
    fault_index: int
    fault_label: str
    distance_after_fault: Optional[int]
    num_agents: int
    recovered: bool
    recovery_time: float
    recovery_events: int
    #: Scheduler (or epoch segment) active when the recovery run ended.
    scheduler: str = "uniform"


def recovery_records(campaign) -> List[RecoveryRecord]:
    """Flatten a campaign into per-(repetition, fault) recovery records.

    Faults with no run phase after them (a trailing fault) produce no
    record — there is nothing to measure.
    """
    records: List[RecoveryRecord] = []
    for repetition, result in enumerate(campaign.results):
        for fault, run in result.recovery_pairs():
            if run is None:
                continue
            records.append(
                RecoveryRecord(
                    repetition=repetition,
                    fault_index=fault.index,
                    fault_label=fault.label,
                    distance_after_fault=fault.distance,
                    num_agents=run.num_agents,
                    recovered=run.silent,
                    recovery_time=run.parallel_time,
                    recovery_events=run.events,
                    scheduler=getattr(run, "scheduler", "uniform"),
                )
            )
    return records


def _by_fault(
    records: Sequence[RecoveryRecord],
) -> Dict[Tuple[int, str], List[RecoveryRecord]]:
    """Group records by fault phase, preserving timeline order."""
    groups: Dict[Tuple[int, str], List[RecoveryRecord]] = {}
    for record in records:
        groups.setdefault((record.fault_index, record.fault_label), []).append(
            record
        )
    return dict(sorted(groups.items()))


def recovery_table(campaign) -> Table:
    """Per-fault recovery summary: success rate and time distribution."""
    records = recovery_records(campaign)
    table = Table(
        title=(
            f"Recovery after faults — campaign "
            f"{campaign.scenario.name!r}, "
            f"{campaign.repetitions} repetitions"
        ),
        headers=[
            "fault",
            "runs",
            "recovered",
            "95% CI",
            "median time",
            "p75 time",
            "max time",
            "median events",
        ],
    )
    if not records:
        table.add_note("no fault phases with a following run phase")
        return table
    for (_, label), group in _by_fault(records).items():
        recovered = sum(1 for r in group if r.recovered)
        low, high = wilson_interval(recovered, len(group))
        times = summarise([r.recovery_time for r in group])
        events = summarise([float(r.recovery_events) for r in group])
        table.add_row(
            label,
            len(group),
            f"{recovered}/{len(group)}",
            f"[{low:.2f}, {high:.2f}]",
            times.median,
            times.p75,
            times.maximum,
            events.median,
        )
    censored = sum(1 for r in records if not r.recovered)
    if censored:
        table.add_note(
            f"{censored} unrecovered run(s): their times are censoring "
            "points (budget exhausted), not completed recoveries"
        )
    table.add_note(
        "time is parallel time (interactions / n) spent re-silencing "
        "after the fault"
    )
    return table


def survival_curve(
    times: Sequence[float], grid: Optional[Sequence[float]] = None
) -> Tuple[List[float], List[float]]:
    """Empirical survival function of recovery times.

    Returns ``(ts, fractions)`` with ``fractions[i] = P(T > ts[i])``.
    The default grid spans the sample's range in 8 even steps.
    """
    if not times:
        raise ExperimentError("survival_curve needs at least one time")
    sorted_times = np.sort(np.asarray(times, dtype=float))
    if grid is None:
        top = float(sorted_times[-1])
        grid = [top * i / 8 for i in range(9)]
    fractions = [
        float(np.mean(sorted_times > t)) for t in grid
    ]
    return list(grid), fractions


def survival_table(campaign, points: int = 8) -> Table:
    """Survival of recovery times across all faults of a campaign."""
    records = [r for r in recovery_records(campaign) if r.recovered]
    table = Table(
        title=(
            f"Recovery-time survival — campaign {campaign.scenario.name!r}"
        ),
        headers=["t (parallel time)", "P(recovery > t)"],
    )
    if not records:
        table.add_note("no completed recoveries to summarise")
        return table
    times = [r.recovery_time for r in records]
    top = max(times)
    grid = [top * i / points for i in range(points + 1)]
    ts, fractions = survival_curve(times, grid)
    for t, fraction in zip(ts, fractions):
        table.add_row(t, fraction)
    table.add_note(
        f"{len(times)} completed recoveries pooled across "
        "faults and repetitions"
    )
    return table


def epoch_table(campaign) -> Table:
    """Recovery summary grouped by the scheduler segment doing the work.

    Under an epoch-switching adversary the *same* scripted fault can be
    recovered from under different biases (repetitions cross boundaries
    at different times), so per-fault tables mix regimes; this table
    regroups every (repetition, fault) record by the scheduler active
    when its recovery phase ended.
    """
    records = recovery_records(campaign)
    table = Table(
        title=(
            f"Recovery by scheduler epoch — campaign "
            f"{campaign.scenario.name!r}"
        ),
        headers=[
            "scheduler",
            "runs",
            "recovered",
            "median time",
            "p75 time",
            "max time",
        ],
    )
    if not records:
        table.add_note("no fault phases with a following run phase")
        return table
    groups: Dict[str, List[RecoveryRecord]] = {}
    for record in records:
        groups.setdefault(record.scheduler, []).append(record)
    for label in sorted(groups):
        group = groups[label]
        recovered = sum(1 for r in group if r.recovered)
        times = summarise([r.recovery_time for r in group])
        table.add_row(
            label,
            len(group),
            f"{recovered}/{len(group)}",
            times.median,
            times.p75,
            times.maximum,
        )
    table.add_note(
        "grouped by the pair-selection bias active when the recovery "
        "phase ended (epoch boundaries fire mid-run)"
    )
    return table


def phase_table(campaign) -> Table:
    """Per-phase event/time medians across a campaign's repetitions."""
    table = Table(
        title=f"Phase timeline — campaign {campaign.scenario.name!r}",
        headers=[
            "phase",
            "kind",
            "n (median)",
            "median events",
            "median time",
            "silent",
        ],
    )
    if not campaign.results:
        table.add_note("campaign has no repetitions")
        return table
    num_phases = len(campaign.results[0].phase_logs)
    for phase_index in range(num_phases):
        logs = [
            result.phase_logs[phase_index] for result in campaign.results
        ]
        silent = sum(1 for log in logs if log.silent)
        table.add_row(
            logs[0].label,
            logs[0].kind,
            summarise([float(log.num_agents) for log in logs]).median,
            summarise([float(log.events) for log in logs]).median,
            summarise([log.parallel_time for log in logs]).median,
            f"{silent}/{len(logs)}",
        )
    return table

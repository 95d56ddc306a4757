"""Campaigns: many independently seeded instances of one scenario.

A *campaign* repeats a scenario with independent randomness, so the
recovery-time measurements in :mod:`repro.analysis.recovery` are
distributions rather than anecdotes.  Seeding follows the repo-wide
sweep discipline: one root ``SeedSequence`` is spawned into one child
per repetition *before* dispatch, and the jobs run through the
supervised executor (:func:`repro.analysis.supervision.supervised_map`)
— so a campaign is bit-identical at every worker count, including
serial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..analysis.supervision import (
    JobFailure,
    SupervisionPolicy,
    supervised_map,
)
from ..exceptions import ExperimentError
from .engine import ScenarioResult, run_scenario
from .spec import Scenario

__all__ = ["CampaignResult", "run_campaign"]


@dataclass
class CampaignResult:
    """All repetitions of one scenario campaign.

    ``failures`` lists repetitions quarantined by the supervised
    executor (only non-empty under a ``fail_fast=False``
    :class:`~repro.analysis.supervision.SupervisionPolicy`); the
    statistics below cover the surviving ``results``.
    """

    scenario: Scenario
    seed: int
    results: List[ScenarioResult] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def repetitions(self) -> int:
        return len(self.results)

    @property
    def recovered_fraction(self) -> float:
        """Fraction of repetitions whose every post-fault phase re-silenced."""
        if not self.results:
            return 0.0
        recovered = sum(1 for r in self.results if r.recovered_all)
        return recovered / len(self.results)

    def __repr__(self) -> str:
        return (
            f"CampaignResult({self.scenario.name}, "
            f"repetitions={self.repetitions}, "
            f"recovered={self.recovered_fraction:.0%})"
        )


def _campaign_job(job: tuple) -> ScenarioResult:
    """One scenario instance, self-contained for worker processes.

    The repetition's randomness is its own pre-spawned ``SeedSequence``
    child, so the result is a pure function of the job tuple —
    bit-identical inline or in any worker process.
    """
    scenario, child, default_max_events, collect_trace = job
    return run_scenario(
        scenario,
        seed=child,
        default_max_events=default_max_events,
        collect_trace=collect_trace,
    )


def run_campaign(
    scenario: Scenario,
    repetitions: int = 5,
    seed: int = 0,
    workers: Optional[int] = None,
    default_max_events: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    collect_trace: bool = False,
) -> CampaignResult:
    """Run ``repetitions`` independent instances of ``scenario``.

    ``workers`` > 1 fans the instances out over the supervised process
    pool (the scenario spec and its results are plain data, so they
    pickle); ``default_max_events`` caps run phases that carry no
    budget of their own.  ``policy`` tunes supervision; with
    ``fail_fast=False`` quarantined repetitions are recorded in
    :attr:`CampaignResult.failures` instead of raising.
    ``collect_trace`` makes every repetition record its logical trace
    (:attr:`~repro.scenarios.engine.ScenarioResult.trace_events`) —
    plain data that travels back from worker processes and merges into
    one campaign trace independent of the worker count.
    """
    if repetitions < 1:
        raise ExperimentError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    children = np.random.SeedSequence(seed).spawn(repetitions)
    jobs = [
        (scenario, child, default_max_events, collect_trace)
        for child in children
    ]
    results, failures = supervised_map(
        _campaign_job, jobs, workers=workers, policy=policy
    )
    if failures and (policy is None or policy.fail_fast):
        detail = "; ".join(repr(failure) for failure in failures[:5])
        raise ExperimentError(
            f"{len(failures)} of {len(jobs)} campaign repetitions of "
            f"{scenario.name!r} failed under supervision: {detail}"
        )
    return CampaignResult(
        scenario=scenario,
        seed=seed,
        results=[r for r in results if r is not None],
        failures=failures,
    )

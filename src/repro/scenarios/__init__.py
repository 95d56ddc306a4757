"""Scenario engine: scripted fault campaigns over the simulation core.

Self-stabilisation is a statement about recovery from *arbitrary*
configurations under *any* fair scheduler; this package turns that into
runnable workloads.  A :class:`~repro.scenarios.spec.Scenario` scripts a
timeline of run phases and mid-run faults (corruption, crashes, swaps,
population churn) under a pluggable pair scheduler;
:func:`~repro.scenarios.engine.run_scenario` executes one seeded
instance; :func:`~repro.scenarios.campaign.run_campaign` repeats it —
bit-reproducibly, optionally over a process pool — and
:mod:`repro.analysis.recovery` turns the phase logs into recovery-time
distributions.

Quickstart::

    from repro.scenarios import get_campaign, run_campaign
    from repro.analysis.recovery import recovery_table

    campaign = get_campaign("ag_corrupt_recover")
    result = run_campaign(campaign.build("small"), repetitions=5, seed=0)
    print(recovery_table(result).render())
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".campaign": ("CampaignResult", "run_campaign"),
    ".catalog": ("CAMPAIGNS", "Campaign", "get_campaign", "list_campaigns"),
    ".engine": ("PhaseLog", "ScenarioResult", "run_scenario"),
    ".schedulers": (
        "ClusteredScheduler",
        "DegreeSkewedScheduler",
        "StateBiasedScheduler",
        "TargetedSuppressionScheduler",
        "build_epoch_scheduler",
        "build_scheduler",
    ),
    ".spec": (
        "EpochSpec",
        "FaultPhase",
        "ProtocolSpec",
        "RunPhase",
        "Scenario",
        "SchedulerSpec",
        "StartSpec",
    ),
})

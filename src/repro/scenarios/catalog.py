"""Canned fault campaigns, registered for the CLI and the experiments.

Each entry builds a :class:`~repro.scenarios.spec.Scenario` at one of
the repo-wide scales (``smoke`` — seconds, CI; ``small`` — the default;
``paper`` — the sizes worth quoting).  The campaigns mirror the regimes
the paper and its companion works stress:

* ``ag_corrupt_recover`` — the Θ(n²) baseline AG: stabilise, corrupt a
  fraction, re-stabilise, then a crash-and-reboot wave into the leader
  state (the classic fail-and-rejoin k-distant regime of §3).
* ``tree_corrupt_recover`` — the O(n·log n) tree protocol: corruption
  across the whole space, then a crash wave into the reset line
  (exercising the §5 reset machinery mid-run).
* ``line_churn_storm`` — the one-extra-state line-of-traps protocol
  under population churn: departures and arrivals resize ``n`` inside
  the ``m = 2`` lattice window while the run continues.
* ``ag_clustered_adversary`` — AG under the adversarially clustered
  scheduler: interactions are localised into state blocks, slowing
  mixing; corruption lands mid-run.
* ``ag_epoch_cluster_flip`` — AG under an **epoch-switching** adversary
  that re-draws its cluster boundaries on a fixed cadence (simulated
  time), so no static locality assumption survives; corruption lands
  mid-timeline.  Runs on the weighted jump fast path with one
  precompiled index per segment.
* ``tree_epoch_bias_flip`` — the tree protocol under a bias that flips
  **at silence**: the reset machinery is starved while stabilising,
  then a crash wave lands and recovery runs under the inverted bias
  (ranks starved instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..exceptions import ExperimentError
from .spec import (
    EpochSpec,
    FaultPhase,
    ProtocolSpec,
    RunPhase,
    Scenario,
    SchedulerSpec,
    StartSpec,
)

__all__ = [
    "Campaign",
    "CAMPAIGNS",
    "get_campaign",
    "list_campaigns",
]

_SCALES = ("smoke", "small", "paper")


def _pick(scale: str, smoke, small, paper):
    if scale not in _SCALES:
        raise ExperimentError(
            f"unknown scale {scale!r}; expected one of {_SCALES}"
        )
    return {"smoke": smoke, "small": small, "paper": paper}[scale]


@dataclass(frozen=True)
class Campaign:
    """A named, scale-parameterised scenario builder."""

    campaign_id: str
    description: str
    build: Callable[[str], Scenario]
    repetitions: Tuple[int, int, int]  # per scale: smoke, small, paper

    def repetitions_for(self, scale: str) -> int:
        return _pick(scale, *self.repetitions)


def _ag_corrupt_recover(scale: str) -> Scenario:
    n = _pick(scale, 24, 200, 1000)
    budget = _pick(scale, 100_000, 600_000, 6_000_000)
    return Scenario(
        name="ag_corrupt_recover",
        description=(
            "AG baseline: stabilise from random, corrupt 20%, recover, "
            "crash 30% into the leader state, recover again"
        ),
        protocol=ProtocolSpec(kind="ag", num_agents=n),
        start=StartSpec(kind="random"),
        phases=(
            RunPhase(until="silence", max_events=budget, label="stabilise"),
            FaultPhase(kind="corrupt", fraction=0.2, label="corrupt 20%"),
            RunPhase(until="silence", max_events=budget, label="recover"),
            FaultPhase(
                kind="crash",
                fraction=0.3,
                replacement_state="leader",
                label="crash 30% -> leader",
            ),
            RunPhase(until="silence", max_events=budget, label="recover"),
        ),
    )


def _tree_corrupt_recover(scale: str) -> Scenario:
    n = _pick(scale, 16, 150, 600)
    budget = _pick(scale, 100_000, 1_000_000, 4_000_000)
    return Scenario(
        name="tree_corrupt_recover",
        description=(
            "Tree protocol: stabilise from random, corrupt 25%, recover, "
            "crash 20% into the reset line, recover again"
        ),
        protocol=ProtocolSpec(kind="tree", num_agents=n),
        start=StartSpec(kind="random"),
        phases=(
            RunPhase(until="silence", max_events=budget, label="stabilise"),
            FaultPhase(kind="corrupt", fraction=0.25, label="corrupt 25%"),
            RunPhase(until="silence", max_events=budget, label="recover"),
            FaultPhase(
                kind="crash",
                fraction=0.2,
                replacement_state="first_extra",
                label="crash 20% -> reset line",
            ),
            RunPhase(until="silence", max_events=budget, label="recover"),
        ),
    )


def _line_churn_storm(scale: str) -> Scenario:
    # The m = 2 lattice covers 72 <= n <= 120; the storm wanders inside
    # that window, so every rebuild keeps the same trap geometry.
    budget = _pick(scale, 150_000, 500_000, 1_500_000)
    phases: List = [
        RunPhase(until="silence", max_events=budget, label="stabilise"),
        FaultPhase(
            kind="churn",
            departures=12,
            arrivals=6,
            arrival_state="first_extra",
            label="churn -12/+6",
        ),
        RunPhase(until="silence", max_events=budget, label="recover"),
        FaultPhase(
            kind="churn",
            departures=0,
            arrivals=20,
            arrival_state="first_extra",
            label="churn +20",
        ),
        RunPhase(until="silence", max_events=budget, label="recover"),
    ]
    if scale != "smoke":
        phases.extend(
            [
                FaultPhase(
                    kind="churn",
                    departures=24,
                    arrivals=10,
                    arrival_state="first_extra",
                    label="churn -24/+10",
                ),
                RunPhase(until="silence", max_events=budget, label="recover"),
            ]
        )
    return Scenario(
        name="line_churn_storm",
        description=(
            "Line of traps under churn: agents leave and join mid-run, "
            "resizing n inside the m=2 lattice window (72..120)"
        ),
        protocol=ProtocolSpec(kind="line", num_agents=96, m=2),
        start=StartSpec(kind="random"),
        phases=tuple(phases),
    )


def _ag_clustered_adversary(scale: str) -> Scenario:
    # The clustered scheduler compiles into the weighted fused index, so
    # every scale runs on the weighted jump engine; interaction budgets
    # bound the work.
    n = _pick(scale, 12, 48, 128)
    interactions = _pick(scale, 200_000, 2_000_000, 40_000_000)
    return Scenario(
        name="ag_clustered_adversary",
        description=(
            "AG under an adversarially clustered scheduler (4 state "
            "blocks, cross-block pairs throttled 20x): stabilise, "
            "corrupt 25%, recover"
        ),
        protocol=ProtocolSpec(kind="ag", num_agents=n),
        start=StartSpec(kind="random"),
        scheduler=SchedulerSpec(kind="clustered", num_clusters=4, across=0.05),
        phases=(
            RunPhase(
                until="silence",
                max_interactions=interactions,
                label="stabilise",
            ),
            FaultPhase(kind="corrupt", fraction=0.25, label="corrupt 25%"),
            RunPhase(
                until="silence",
                max_interactions=interactions,
                label="recover",
            ),
        ),
    )


def _ag_epoch_cluster_flip(scale: str) -> Scenario:
    # Alternating cluster suppression: the adversary re-tiles the state
    # space every `period` scheduler steps (2 blocks -> 4 blocks -> 2
    # blocks), so pairs that interacted freely become throttled and
    # vice versa.  Every segment compiles into the weighted fused
    # index, so the whole timeline runs on the weighted fast path.
    # Periods are tuned so every scale crosses at least one boundary
    # mid-run (smoke runs spend ~6k scheduler steps in total).
    n = _pick(scale, 24, 96, 256)
    period = _pick(scale, 1_500, 150_000, 800_000)
    budget = _pick(scale, 100_000, 600_000, 4_000_000)
    return Scenario(
        name="ag_epoch_cluster_flip",
        description=(
            "AG under alternating cluster suppression: the clustered "
            "adversary re-draws its blocks (2 -> 4 -> 2) on a fixed "
            "simulated-time cadence; corruption lands mid-timeline"
        ),
        protocol=ProtocolSpec(kind="ag", num_agents=n),
        start=StartSpec(kind="random"),
        timeline=(
            EpochSpec(
                scheduler=SchedulerSpec(
                    kind="clustered", num_clusters=2, across=0.05
                ),
                until="interactions",
                value=period,
            ),
            EpochSpec(
                scheduler=SchedulerSpec(
                    kind="clustered", num_clusters=4, across=0.05
                ),
                until="interactions",
                value=period,
            ),
            EpochSpec(
                scheduler=SchedulerSpec(
                    kind="clustered", num_clusters=2, across=0.05
                ),
            ),
        ),
        phases=(
            RunPhase(until="silence", max_events=budget, label="stabilise"),
            FaultPhase(kind="corrupt", fraction=0.25, label="corrupt 25%"),
            RunPhase(until="silence", max_events=budget, label="recover"),
        ),
    )


def _tree_epoch_bias_flip(scale: str) -> Scenario:
    # Bias flip at silence: while stabilising, agents in the reset line
    # are starved (extra_weight 0.15); the moment the population first
    # silences, the adversary inverts the bias (rank states starved),
    # and the crash wave that follows must be absorbed under it.
    n = _pick(scale, 16, 150, 600)
    budget = _pick(scale, 100_000, 1_000_000, 4_000_000)
    return Scenario(
        name="tree_epoch_bias_flip",
        description=(
            "tree protocol under a bias that flips at silence: reset "
            "line starved while stabilising, ranks starved during the "
            "post-crash recovery"
        ),
        protocol=ProtocolSpec(kind="tree", num_agents=n),
        start=StartSpec(kind="random"),
        timeline=(
            EpochSpec(
                scheduler=SchedulerSpec(
                    kind="state_biased", extra_weight=0.15
                ),
                until="silence",
            ),
            EpochSpec(
                scheduler=SchedulerSpec(
                    kind="state_biased", rank_weight=0.3, extra_weight=1.0
                ),
            ),
        ),
        phases=(
            RunPhase(until="silence", max_events=budget, label="stabilise"),
            FaultPhase(
                kind="crash",
                fraction=0.25,
                replacement_state="first_extra",
                label="crash 25% -> reset line",
            ),
            RunPhase(until="silence", max_events=budget, label="recover"),
        ),
    )


CAMPAIGNS: Dict[str, Campaign] = {
    c.campaign_id: c
    for c in [
        Campaign(
            campaign_id="ag_corrupt_recover",
            description=(
                "stabilise -> corrupt 20% -> recover -> crash 30% -> "
                "recover on the AG baseline"
            ),
            build=_ag_corrupt_recover,
            repetitions=(2, 5, 7),
        ),
        Campaign(
            campaign_id="tree_corrupt_recover",
            description=(
                "stabilise -> corrupt 25% -> recover -> crash 20% into "
                "the reset line on the tree protocol"
            ),
            build=_tree_corrupt_recover,
            repetitions=(2, 5, 7),
        ),
        Campaign(
            campaign_id="line_churn_storm",
            description=(
                "churn storm on the line of traps: n wanders 72..120 "
                "mid-run via departures/arrivals"
            ),
            build=_line_churn_storm,
            repetitions=(2, 5, 7),
        ),
        Campaign(
            campaign_id="ag_clustered_adversary",
            description=(
                "AG under the clustered adversarial scheduler, corruption "
                "mid-run (weighted jump engine, small n)"
            ),
            build=_ag_clustered_adversary,
            repetitions=(2, 4, 5),
        ),
        Campaign(
            campaign_id="ag_epoch_cluster_flip",
            description=(
                "AG under alternating cluster suppression (epoch-"
                "switching clustered adversary on the weighted fast "
                "path), corruption mid-timeline"
            ),
            build=_ag_epoch_cluster_flip,
            repetitions=(2, 4, 6),
        ),
        Campaign(
            campaign_id="tree_epoch_bias_flip",
            description=(
                "tree protocol under a bias flip at silence: reset line "
                "starved before, ranks starved during post-crash recovery"
            ),
            build=_tree_epoch_bias_flip,
            repetitions=(2, 4, 6),
        ),
    ]
}


def list_campaigns() -> List[Campaign]:
    """All canned campaigns, in registration order."""
    return list(CAMPAIGNS.values())


def get_campaign(campaign_id: str) -> Campaign:
    """Look a canned campaign up by id."""
    if campaign_id not in CAMPAIGNS:
        known = ", ".join(sorted(CAMPAIGNS))
        raise ExperimentError(
            f"unknown campaign {campaign_id!r}; known ids: {known}"
        )
    return CAMPAIGNS[campaign_id]

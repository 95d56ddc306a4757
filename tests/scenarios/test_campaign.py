"""Tests for campaign execution: seeding, pooling, reproducibility."""

import pytest

from repro.exceptions import ExperimentError
from repro.scenarios import (
    FaultPhase,
    ProtocolSpec,
    RunPhase,
    Scenario,
    StartSpec,
    get_campaign,
    run_campaign,
)


def _scenario(n=16):
    return Scenario(
        name="campaign-test",
        protocol=ProtocolSpec(kind="ag", num_agents=n),
        start=StartSpec(kind="random"),
        phases=(
            RunPhase(until="silence", max_events=100_000),
            FaultPhase(kind="corrupt", fraction=0.3),
            RunPhase(until="silence", max_events=100_000),
        ),
    )


def _fingerprint(campaign):
    return [
        (
            result.total_interactions,
            result.total_events,
            result.final_configuration.as_tuple(),
            [(log.events, log.stop_reason) for log in result.phase_logs],
        )
        for result in campaign.results
    ]


class TestRunCampaign:
    def test_repetitions_are_independent(self):
        campaign = run_campaign(_scenario(), repetitions=3, seed=0)
        assert campaign.repetitions == 3
        fingerprints = _fingerprint(campaign)
        assert len(set(map(str, fingerprints))) > 1

    def test_recovered_fraction(self):
        campaign = run_campaign(_scenario(), repetitions=3, seed=0)
        assert campaign.recovered_fraction == 1.0

    def test_bad_repetitions(self):
        with pytest.raises(ExperimentError):
            run_campaign(_scenario(), repetitions=0)

    def test_bit_identical_across_worker_counts(self):
        scenario = _scenario()
        serial = run_campaign(scenario, repetitions=4, seed=42, workers=1)
        pooled = run_campaign(scenario, repetitions=4, seed=42, workers=3)
        assert _fingerprint(serial) == _fingerprint(pooled)

    def test_canned_campaign_pickles_into_pool(self):
        scenario = get_campaign("line_churn_storm").build("smoke")
        serial = run_campaign(scenario, repetitions=2, seed=7)
        pooled = run_campaign(scenario, repetitions=2, seed=7, workers=2)
        assert _fingerprint(serial) == _fingerprint(pooled)

    def test_different_seeds_differ(self):
        a = run_campaign(_scenario(), repetitions=2, seed=1)
        b = run_campaign(_scenario(), repetitions=2, seed=2)
        assert _fingerprint(a) != _fingerprint(b)


    def test_default_max_events_caps_unbudgeted_phases(self):
        scenario = Scenario(
            name="unbudgeted",
            protocol=ProtocolSpec(kind="ag", num_agents=12),
            start=StartSpec(kind="pileup"),
            phases=(RunPhase(until="silence"),),
        )
        campaign = run_campaign(scenario, repetitions=2, default_max_events=4)
        assert all(
            result.phase_logs[0].events == 4 for result in campaign.results
        )

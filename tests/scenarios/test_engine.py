"""Tests for scenario execution: phases, faults, churn, predicates."""

import pytest

from repro.exceptions import ExperimentError, SimulationError
from repro.scenarios import (
    FaultPhase,
    ProtocolSpec,
    RunPhase,
    Scenario,
    SchedulerSpec,
    StartSpec,
    get_campaign,
    list_campaigns,
    run_scenario,
)


def _scenario(phases, *, kind="ag", n=16, scheduler=None, start=None):
    return Scenario(
        name="t",
        protocol=ProtocolSpec(kind=kind, num_agents=n),
        phases=tuple(phases),
        start=start or StartSpec(kind="random"),
        scheduler=scheduler or SchedulerSpec(),
    )


class TestRunPhases:
    def test_stabilise_logs_silence(self):
        result = run_scenario(
            _scenario([RunPhase(until="silence", max_events=100_000)]),
            seed=1,
        )
        (log,) = result.phase_logs
        assert log.kind == "run"
        assert log.silent and log.stop_reason == "silence"
        assert log.distance == 0
        assert result.final_configuration.is_ranked(16)

    def test_event_budget_stops_run(self):
        result = run_scenario(
            _scenario(
                [RunPhase(until="events", max_events=3)],
                start=StartSpec(kind="pileup"),
            ),
            seed=1,
        )
        (log,) = result.phase_logs
        assert not log.silent
        assert log.stop_reason == "events"
        assert log.events == 3

    def test_default_max_events_caps_unbudgeted_phase(self):
        result = run_scenario(
            _scenario(
                [RunPhase(until="silence")], start=StartSpec(kind="pileup")
            ),
            seed=1,
            default_max_events=5,
        )
        (log,) = result.phase_logs
        assert log.events == 5 and log.stop_reason == "events"

    def test_predicate_phase_stops_at_ranked(self):
        result = run_scenario(
            _scenario(
                [
                    RunPhase(
                        until="predicate",
                        predicate="ranked",
                        max_events=200_000,
                        check_every=16,
                    )
                ]
            ),
            seed=3,
        )
        (log,) = result.phase_logs
        assert log.stop_reason in ("predicate", "silence")
        assert result.final_configuration.is_ranked(16)

    def test_solved_start_is_instant_silence(self):
        result = run_scenario(
            _scenario(
                [RunPhase(until="silence")], start=StartSpec(kind="solved")
            ),
            seed=0,
        )
        (log,) = result.phase_logs
        assert log.silent and log.events == 0


class TestFaultPhases:
    def test_corrupt_then_recover(self):
        result = run_scenario(
            _scenario(
                [
                    RunPhase(until="silence", max_events=100_000),
                    FaultPhase(kind="corrupt", fraction=0.5),
                    RunPhase(until="silence", max_events=100_000),
                ]
            ),
            seed=2,
        )
        run1, fault, run2 = result.phase_logs
        assert fault.kind == "fault" and fault.stop_reason == "fault"
        assert run2.silent
        assert result.recovered_all
        assert result.final_configuration.is_ranked(16)

    def test_swap_fault_is_deterministic(self):
        scenario = _scenario(
            [
                RunPhase(until="silence", max_events=100_000),
                FaultPhase(kind="swap", state_a=0, state_b=1),
                RunPhase(until="silence", max_events=100_000),
            ]
        )
        a = run_scenario(scenario, seed=5)
        b = run_scenario(scenario, seed=5)
        assert (
            a.final_configuration == b.final_configuration
        )
        assert a.total_interactions == b.total_interactions

    def test_crash_symbolic_first_extra(self):
        result = run_scenario(
            _scenario(
                [
                    RunPhase(until="silence", max_events=200_000),
                    FaultPhase(
                        kind="crash",
                        fraction=0.25,
                        replacement_state="first_extra",
                    ),
                    RunPhase(until="silence", max_events=200_000),
                ],
                kind="tree",
                n=13,
            ),
            seed=4,
        )
        assert result.recovered_all

    def test_crash_first_extra_rejected_without_extras(self):
        with pytest.raises(ExperimentError, match="no extra states"):
            run_scenario(
                _scenario(
                    [
                        FaultPhase(
                            kind="crash",
                            agents=2,
                            replacement_state="first_extra",
                        ),
                        RunPhase(until="silence", max_events=1000),
                    ]
                ),
                seed=1,
            )

    def test_recovery_pairs_share_trailing_run(self):
        result = run_scenario(
            _scenario(
                [
                    FaultPhase(kind="corrupt", agents=4),
                    FaultPhase(kind="swap", state_a=0, state_b=2),
                    RunPhase(until="silence", max_events=100_000),
                    FaultPhase(kind="corrupt", agents=2),
                ]
            ),
            seed=6,
        )
        pairs = result.recovery_pairs()
        assert len(pairs) == 3
        assert pairs[0][1] is pairs[1][1]  # both faults recover in one run
        assert pairs[2][1] is None  # trailing fault has no recovery phase


class TestChurn:
    def test_churn_resizes_population(self):
        result = run_scenario(
            _scenario(
                [
                    RunPhase(until="silence", max_events=100_000),
                    FaultPhase(kind="churn", departures=4, arrivals=10),
                    RunPhase(until="silence", max_events=100_000),
                ]
            ),
            seed=7,
        )
        run1, fault, run2 = result.phase_logs
        assert run1.num_agents == 16
        assert fault.num_agents == 22
        assert run2.silent
        assert result.final_configuration.num_agents == 22
        # AG's state space tracks n, so the rebuilt protocol grew too.
        assert result.final_configuration.num_states == 22
        assert result.final_configuration.is_ranked(22)

    def test_churn_on_line_protocol_stays_in_lattice_window(self):
        result = run_scenario(
            Scenario(
                name="churn-line",
                protocol=ProtocolSpec(kind="line", num_agents=96, m=2),
                start=StartSpec(kind="random"),
                phases=(
                    RunPhase(until="silence", max_events=300_000),
                    FaultPhase(
                        kind="churn",
                        departures=12,
                        arrivals=2,
                        arrival_state="first_extra",
                    ),
                    RunPhase(until="silence", max_events=300_000),
                ),
            ),
            seed=8,
        )
        assert result.recovered_all
        assert result.final_configuration.num_agents == 86

    def test_churn_retiers_line_lattice_past_the_window(self):
        """Growing n past the pinned m=2 window re-tiers to m=4.

        The m=2 lattice covers 72..120 agents; churn to 960 lands
        exactly on the m=4 lattice, so the rebuilt protocol must carry
        the new parameter instead of raising — and the run must still
        recover on the re-tiered lattice.
        """
        result = run_scenario(
            Scenario(
                name="churn-line-retier",
                protocol=ProtocolSpec(kind="line", num_agents=96, m=2),
                start=StartSpec(kind="random"),
                phases=(
                    RunPhase(until="silence", max_events=300_000),
                    FaultPhase(kind="churn", departures=0, arrivals=864),
                    RunPhase(until="silence", max_events=2_000_000),
                ),
            ),
            seed=9,
        )
        assert result.recovered_all
        assert result.final_configuration.num_agents == 960
        # LineOfTraps(m=4): 960 rank states + X.
        assert result.final_configuration.num_states == 961

    def test_churn_retiers_ring_lattice_past_the_window(self):
        """A pinned ring grows past m(m+1); the rebuild re-derives m."""
        result = run_scenario(
            Scenario(
                name="churn-ring-retier",
                protocol=ProtocolSpec(kind="ring", num_agents=12, m=3),
                start=StartSpec(kind="random"),
                phases=(
                    RunPhase(until="silence", max_events=100_000),
                    FaultPhase(kind="churn", departures=0, arrivals=18),
                    RunPhase(until="silence", max_events=500_000),
                ),
            ),
            seed=10,
        )
        assert result.recovered_all
        assert result.final_configuration.num_agents == 30
        assert result.final_configuration.num_states == 30

    def test_churn_into_a_lattice_gap_still_fails_loudly(self):
        """Sizes between line lattices (121..959) have no honest m."""
        with pytest.raises(ExperimentError, match="lattice"):
            run_scenario(
                Scenario(
                    name="churn-line-gap",
                    protocol=ProtocolSpec(kind="line", num_agents=96, m=2),
                    start=StartSpec(kind="random"),
                    phases=(
                        FaultPhase(kind="churn", departures=0, arrivals=100),
                        RunPhase(until="silence", max_events=10_000),
                    ),
                ),
                seed=11,
            )

    def test_churn_below_two_agents_fails_loudly(self):
        # A scripted fault must not be silently weakened: departing more
        # agents than the population can spare is a scenario bug.
        with pytest.raises(ExperimentError, match="churn"):
            run_scenario(
                _scenario(
                    [
                        FaultPhase(kind="churn", departures=16, arrivals=0),
                        RunPhase(until="silence", max_events=10_000),
                    ],
                    n=4,
                ),
                seed=1,
            )

    def test_churn_through_transient_tiny_population(self):
        # Departures may dip the intermediate multiset below 2 as long
        # as arrivals restore a viable population.
        result = run_scenario(
            _scenario(
                [
                    FaultPhase(kind="churn", departures=3, arrivals=4),
                    RunPhase(until="silence", max_events=10_000),
                ],
                n=4,
            ),
            seed=1,
        )
        assert result.final_configuration.num_agents == 5


class TestDeterminism:
    @pytest.mark.parametrize(
        "campaign_id", [c.campaign_id for c in list_campaigns()]
    )
    def test_canned_campaigns_smoke_and_reproduce(self, campaign_id):
        scenario = get_campaign(campaign_id).build("smoke")
        a = run_scenario(scenario, seed=11)
        b = run_scenario(scenario, seed=11)
        assert a.recovered_all
        assert a.final_configuration == b.final_configuration
        assert [
            (log.interactions, log.events, log.stop_reason)
            for log in a.phase_logs
        ] == [
            (log.interactions, log.events, log.stop_reason)
            for log in b.phase_logs
        ]

    def test_scheduler_scenario_runs_scheduled_engine(self):
        result = run_scenario(
            _scenario(
                [RunPhase(until="silence", max_interactions=2_000_000)],
                n=12,
                scheduler=SchedulerSpec(
                    kind="clustered", num_clusters=3, across=0.1
                ),
            ),
            seed=9,
        )
        (log,) = result.phase_logs
        assert log.silent


class TestEngineRouting:
    """Every scenario engine comes from ``build_engine``'s one rule."""

    @pytest.mark.parametrize("scale", ["smoke", "small", "paper"])
    @pytest.mark.parametrize(
        "campaign_id", [c.campaign_id for c in list_campaigns()]
    )
    def test_canned_campaigns_pick_their_engine(
        self, campaign_id, scale, monkeypatch
    ):
        from repro.core.engine import build_engine, make_rng
        from repro.core.jump import JumpEngine
        from repro.scenarios import engine as scenario_engine
        from repro.scenarios.engine import _make_engine

        # Uniform and biased runs share the engine class, so the name
        # build_engine returns is what tells them apart.
        biased = {
            "ag_corrupt_recover": False,
            "tree_corrupt_recover": False,
            "line_churn_storm": False,
            "ag_clustered_adversary": True,
            "ag_epoch_cluster_flip": True,
            "tree_epoch_bias_flip": True,
        }[campaign_id]
        names = []

        def recording_build_engine(*args, **kwargs):
            engine, name = build_engine(*args, **kwargs)
            names.append(name)
            return engine, name

        monkeypatch.setattr(
            scenario_engine, "build_engine", recording_build_engine
        )
        scenario = get_campaign(campaign_id).build(scale)
        protocol = scenario.protocol.build()
        rng = make_rng(0)
        start = scenario.start.build(protocol, rng)
        engine = _make_engine(scenario, protocol, start, rng)
        assert type(engine) is JumpEngine
        if biased:
            assert names == [f"weighted:{engine.scheduler.name}"]
        else:
            assert engine.scheduler is None
            assert names == ["jump"]


class TestEpochTimelines:
    def test_mid_phase_epoch_switch_composes_with_churn(self):
        from repro.scenarios import EpochSpec

        # Segment 0 flips to segment 1 after 40 events — *inside* the
        # warm phase — then churn rebuilds protocol and engine; the
        # timeline must resume at the segment already reached.
        scenario = Scenario(
            name="epoch_churn",
            protocol=ProtocolSpec(kind="line", num_agents=96, m=2),
            start=StartSpec(kind="random"),
            timeline=(
                EpochSpec(
                    scheduler=SchedulerSpec(
                        kind="state_biased", extra_weight=0.3
                    ),
                    until="events",
                    value=40,
                ),
                EpochSpec(
                    scheduler=SchedulerSpec(
                        kind="clustered", num_clusters=2, across=0.2
                    ),
                ),
            ),
            phases=(
                RunPhase(until="events", max_events=80, label="warm"),
                FaultPhase(
                    kind="churn",
                    departures=12,
                    arrivals=6,
                    arrival_state="first_extra",
                    label="churn -12/+6",
                ),
                RunPhase(
                    until="silence", max_events=200_000, label="recover"
                ),
            ),
        )
        result = run_scenario(scenario, seed=4)
        warm, fault, recover = result.phase_logs
        assert warm.events == 80
        # The boundary fired mid-phase, before the churn.
        assert warm.scheduler == "clustered@epoch1"
        # The rebuilt engine resumed the timeline at epoch 1.
        assert fault.scheduler == "clustered@epoch1"
        assert recover.scheduler == "clustered@epoch1"
        assert recover.silent
        assert result.recovered_all

    def test_epoch_campaigns_are_canned(self):
        ids = {c.campaign_id for c in list_campaigns()}
        assert "ag_epoch_cluster_flip" in ids
        assert "tree_epoch_bias_flip" in ids

    def test_bias_flip_at_silence_recovers_under_flipped_bias(self):
        campaign = get_campaign("tree_epoch_bias_flip")
        result = run_scenario(campaign.build("smoke"), seed=1)
        stabilise, crash, recover = result.phase_logs
        # The silence boundary fired when the first phase silenced, so
        # everything after it runs under the flipped bias.
        assert stabilise.scheduler == "state_biased@epoch1"
        assert recover.scheduler == "state_biased@epoch1"
        assert result.recovered_all


class TestAgentSchedulerScenarios:
    def test_targeted_scenario_runs_on_agent_engine(self):
        result = run_scenario(
            _scenario(
                [RunPhase(until="silence", max_events=100_000)],
                scheduler=SchedulerSpec(
                    kind="targeted", targets=3, target_weight=0.2
                ),
            ),
            seed=5,
        )
        (log,) = result.phase_logs
        assert log.silent
        assert log.scheduler == "targeted"
        assert result.final_configuration.is_ranked(16)

    def test_degree_skewed_scenario_runs(self):
        result = run_scenario(
            _scenario(
                [RunPhase(until="silence", max_events=100_000)],
                scheduler=SchedulerSpec(
                    kind="degree_skewed", exponent=1.5, floor=0.1
                ),
            ),
            seed=6,
        )
        (log,) = result.phase_logs
        assert log.silent
        assert log.scheduler == "degree_skewed"


class TestNumpyBackendScenarios:
    """``run_scenario(backend="numpy")`` drives uniform phases on the
    batch kernel; fault seams (resync, churn rebuild) must compose."""

    def test_uniform_scenario_runs_on_batch_engine(self):
        from repro.scenarios.engine import _make_engine
        from repro.core.batch import BatchEngine
        from repro.core.engine import make_rng
        from repro.configurations.generators import random_configuration

        scenario = _scenario([RunPhase(until="silence", max_events=100_000)])
        protocol = scenario.protocol.build()
        start = random_configuration(protocol, seed=0)
        engine = _make_engine(
            scenario, protocol, start, make_rng(0), backend="numpy"
        )
        assert isinstance(engine, BatchEngine)

    def test_corrupt_then_recover_on_numpy_backend(self):
        result = run_scenario(
            _scenario(
                [
                    RunPhase(until="silence", max_events=100_000),
                    FaultPhase(kind="corrupt", fraction=0.5),
                    RunPhase(until="silence", max_events=100_000),
                ]
            ),
            seed=9,
            backend="numpy",
        )
        assert result.recovered_all
        assert result.final_configuration.is_ranked(16)

    def test_churn_then_recover_on_numpy_backend(self):
        result = run_scenario(
            _scenario(
                [
                    RunPhase(until="silence", max_events=100_000),
                    FaultPhase(kind="churn", departures=4, arrivals=10),
                    RunPhase(until="silence", max_events=200_000),
                ]
            ),
            seed=4,
            backend="numpy",
        )
        assert result.recovered_all
        assert result.phase_logs[-1].num_agents == 22
        assert result.final_configuration.is_ranked(22)

    def test_numpy_backend_is_deterministic_in_the_seed(self):
        scenario = _scenario(
            [
                RunPhase(until="silence", max_events=100_000),
                FaultPhase(kind="corrupt", fraction=0.25),
                RunPhase(until="silence", max_events=100_000),
            ]
        )
        a = run_scenario(scenario, seed=12, backend="numpy")
        b = run_scenario(scenario, seed=12, backend="numpy")
        assert a.final_configuration.counts_list() == (
            b.final_configuration.counts_list()
        )
        assert [log.interactions for log in a.phase_logs] == (
            [log.interactions for log in b.phase_logs]
        )

    def test_misspelt_backend_is_rejected(self):
        scenario = _scenario([RunPhase(until="silence", max_events=1000)])
        with pytest.raises(SimulationError, match="unknown backend"):
            run_scenario(scenario, seed=1, backend="nunpy")

    def test_biased_scenario_keeps_scalar_engine(self):
        result = run_scenario(
            _scenario(
                [RunPhase(until="silence", max_events=100_000)],
                scheduler=SchedulerSpec(
                    kind="targeted", targets=3, target_weight=0.2
                ),
            ),
            seed=5,
            backend="numpy",
        )
        (log,) = result.phase_logs
        assert log.silent
        assert log.scheduler == "targeted"

"""Unit tests for scenario specifications: parsing, validation, files."""

import json

import pytest

from repro.configurations.generators import (
    all_in_extras_configuration,
    all_in_state_configuration,
    k_distant_configuration,
    random_configuration,
    solved_configuration,
)
from repro.core.engine import make_rng
from repro.exceptions import ExperimentError
from repro.jobspec import JobSpec
from repro.scenarios import (
    FaultPhase,
    ProtocolSpec,
    RunPhase,
    Scenario,
    SchedulerSpec,
    StartSpec,
)

def _minimal_dict():
    return {
        "name": "t",
        "protocol": {"kind": "ag", "num_agents": 12},
        "phases": [
            {"run": {"until": "silence", "max_events": 1000}},
            {"fault": {"kind": "corrupt", "fraction": 0.5}},
            {"run": {"until": "silence", "max_events": 1000}},
        ],
    }


class TestProtocolSpec:
    def test_build_each_kind(self):
        assert ProtocolSpec(kind="ag", num_agents=10).build().num_agents == 10
        assert ProtocolSpec(kind="ring", num_agents=20).build().num_agents == 20
        assert ProtocolSpec(kind="tree", num_agents=13, k=3).build().k == 3
        line = ProtocolSpec(kind="line", num_agents=96, m=2).build()
        assert line.num_agents == 96

    def test_build_at_churned_size(self):
        spec = ProtocolSpec(kind="line", num_agents=96, m=2)
        assert spec.build(num_agents=110).num_agents == 110

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError):
            ProtocolSpec(kind="nope", num_agents=10)

    def test_tiny_population_rejected(self):
        with pytest.raises(ExperimentError):
            ProtocolSpec(kind="ag", num_agents=1)


class TestPhaseValidation:
    def test_run_until_events_needs_budget(self):
        with pytest.raises(ExperimentError):
            RunPhase(until="events")

    def test_predicate_name_validated(self):
        with pytest.raises(ExperimentError):
            RunPhase(until="predicate", predicate="nope")

    def test_corrupt_needs_victims(self):
        with pytest.raises(ExperimentError):
            FaultPhase(kind="corrupt")

    def test_fraction_range(self):
        with pytest.raises(ExperimentError):
            FaultPhase(kind="corrupt", fraction=1.5)

    def test_churn_needs_churn(self):
        with pytest.raises(ExperimentError):
            FaultPhase(kind="churn")

    def test_victim_count_resolution(self):
        assert FaultPhase(kind="corrupt", agents=5).victim_count(100) == 5
        assert FaultPhase(kind="corrupt", fraction=0.25).victim_count(100) == 25
        # a tiny fraction still corrupts at least one agent
        assert FaultPhase(kind="corrupt", fraction=0.001).victim_count(10) == 1
        # never more victims than agents
        assert FaultPhase(kind="corrupt", agents=99).victim_count(10) == 10

    def test_scheduler_validation(self):
        with pytest.raises(ExperimentError):
            SchedulerSpec(kind="clustered", across=0.0)
        with pytest.raises(ExperimentError):
            SchedulerSpec(kind="state_biased", extra_weight=1.5)
        assert SchedulerSpec().is_uniform

    def test_start_validation(self):
        with pytest.raises(ExperimentError):
            StartSpec(kind="k_distant")
        with pytest.raises(ExperimentError):
            StartSpec(kind="nope")


_STARTS = [
    StartSpec(kind="random"),
    StartSpec(kind="k_distant", k=3),
    StartSpec(kind="pileup"),
    StartSpec(kind="pileup", state=2),
    StartSpec(kind="all_in_extras"),
    StartSpec(kind="solved"),
]


def _generator_start(start, protocol, seed):
    """The generator call each start kind stands for."""
    if start.kind == "random":
        return random_configuration(protocol, seed=seed)
    if start.kind == "k_distant":
        return k_distant_configuration(protocol, start.k, seed=seed)
    if start.kind == "pileup":
        state = protocol.num_ranks - 1 if start.state is None else start.state
        return all_in_state_configuration(protocol, state)
    if start.kind == "all_in_extras":
        return all_in_extras_configuration(protocol, seed=seed)
    return solved_configuration(protocol)


class TestStartSpecBuild:
    """Both surfaces build starts through ``StartSpec.build``: a JobSpec
    from its integer seed, ``run_scenario`` from its run generator."""

    _PROTOCOL = ProtocolSpec(kind="tree", num_agents=13, k=3)

    @pytest.mark.parametrize(
        "start", _STARTS, ids=[f"{s.kind}-{s.k}-{s.state}" for s in _STARTS]
    )
    def test_jobspec_surface(self, start):
        spec = JobSpec(
            scenario=Scenario(
                name="t", protocol=self._PROTOCOL,
                phases=(RunPhase(until="silence"),), start=start,
            ),
            mode="simulate",
            seed=5,
        )
        protocol = self._PROTOCOL.build()
        configuration = spec.start_configuration(protocol)
        assert configuration == _generator_start(start, protocol, 5)
        assert configuration == spec.start_configuration(protocol)

    @pytest.mark.parametrize(
        "start", _STARTS, ids=[f"{s.kind}-{s.k}-{s.state}" for s in _STARTS]
    )
    def test_scenario_surface(self, start):
        protocol = self._PROTOCOL.build()
        configuration = start.build(protocol, make_rng(5))
        assert configuration == _generator_start(
            start, protocol, make_rng(5)
        )
        assert configuration.num_agents == 13


class TestScenarioSerialisation:
    def test_round_trip(self):
        scenario = Scenario.from_dict(_minimal_dict())
        again = Scenario.from_dict(scenario.to_dict())
        assert again == scenario

    def test_empty_phases_rejected(self):
        data = _minimal_dict()
        data["phases"] = []
        with pytest.raises(ExperimentError):
            Scenario.from_dict(data)

    def test_missing_key_reported(self):
        with pytest.raises(ExperimentError, match="missing required key"):
            Scenario.from_dict({"name": "t"})

    def test_bad_phase_key_reported(self):
        data = _minimal_dict()
        data["phases"] = [{"jump": {}}]
        with pytest.raises(ExperimentError, match="run.*fault"):
            Scenario.from_dict(data)

    def test_unknown_field_reported(self):
        data = _minimal_dict()
        data["phases"][0] = {"run": {"untl": "silence"}}
        with pytest.raises(ExperimentError, match="bad phase"):
            Scenario.from_dict(data)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_minimal_dict()), encoding="utf-8")
        scenario = Scenario.from_file(str(path))
        assert scenario.name == "t"
        assert len(scenario.phases) == 3

    def test_from_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(_minimal_dict()), encoding="utf-8")
        scenario = Scenario.from_file(str(path))
        assert scenario == Scenario.from_dict(_minimal_dict())

    def test_with_population(self):
        scenario = Scenario.from_dict(_minimal_dict())
        assert scenario.with_population(64).protocol.num_agents == 64


class TestTimelineSpecs:
    def _timeline_scenario(self):
        from repro.scenarios import EpochSpec, ProtocolSpec, RunPhase, Scenario, SchedulerSpec

        return Scenario(
            name="timeline",
            protocol=ProtocolSpec(kind="tree", num_agents=20),
            phases=(RunPhase(until="silence", max_events=1000),),
            timeline=(
                EpochSpec(
                    scheduler=SchedulerSpec(
                        kind="state_biased", extra_weight=0.2
                    ),
                    until="silence",
                ),
                EpochSpec(
                    scheduler=SchedulerSpec(
                        kind="clustered", num_clusters=3, across=0.1
                    ),
                    until="interactions",
                    value=5000,
                    label="mid",
                ),
                EpochSpec(scheduler=SchedulerSpec(kind="uniform")),
            ),
        )

    def test_timeline_round_trips_through_dict_and_json(self):
        import json

        from repro.scenarios import Scenario

        scenario = self._timeline_scenario()
        data = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(data) == scenario

    def test_non_last_segment_needs_boundary(self):
        from repro.scenarios import EpochSpec, ProtocolSpec, RunPhase, Scenario, SchedulerSpec

        with pytest.raises(ExperimentError, match="not the last"):
            Scenario(
                name="bad",
                protocol=ProtocolSpec(kind="ag", num_agents=10),
                phases=(RunPhase(until="silence", max_events=10),),
                timeline=(
                    EpochSpec(scheduler=SchedulerSpec(kind="uniform")),
                    EpochSpec(scheduler=SchedulerSpec(kind="uniform")),
                ),
            )

    def test_timeline_excludes_scalar_scheduler(self):
        from repro.scenarios import EpochSpec, ProtocolSpec, RunPhase, Scenario, SchedulerSpec

        with pytest.raises(ExperimentError, match="both a scheduler"):
            Scenario(
                name="bad",
                protocol=ProtocolSpec(kind="ag", num_agents=10),
                phases=(RunPhase(until="silence", max_events=10),),
                scheduler=SchedulerSpec(kind="clustered"),
                timeline=(
                    EpochSpec(scheduler=SchedulerSpec(kind="uniform")),
                ),
            )

    def test_agent_schedulers_cannot_join_timelines(self):
        from repro.scenarios import EpochSpec, SchedulerSpec

        with pytest.raises(ExperimentError, match="agent-identity"):
            EpochSpec(
                scheduler=SchedulerSpec(kind="targeted", targets=2),
                until="silence",
            )

    def test_epoch_boundary_validation(self):
        from repro.scenarios import EpochSpec, SchedulerSpec

        with pytest.raises(ExperimentError, match="value"):
            EpochSpec(
                scheduler=SchedulerSpec(kind="uniform"), until="events"
            )
        with pytest.raises(ExperimentError, match="predicate"):
            EpochSpec(
                scheduler=SchedulerSpec(kind="uniform"),
                until="predicate",
                predicate="nonsense",
            )

    def test_agent_scheduler_spec_validation(self):
        from repro.scenarios import SchedulerSpec

        with pytest.raises(ExperimentError, match="targets"):
            SchedulerSpec(kind="targeted", targets=0)
        with pytest.raises(ExperimentError, match="target_weight"):
            SchedulerSpec(kind="targeted", target_weight=0.0)
        with pytest.raises(ExperimentError, match="floor"):
            SchedulerSpec(kind="degree_skewed", floor=1.5)
        assert SchedulerSpec(kind="degree_skewed").is_agent_level
        assert not SchedulerSpec(kind="clustered").is_agent_level

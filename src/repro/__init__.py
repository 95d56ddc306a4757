"""repro — self-stabilising ranking & leader election population protocols.

A full reproduction of "Improving Efficiency in Near-State and
State-Optimal Self-Stabilising Leader Election Population Protocols"
(Gąsieniec, Grodzicki, Stachowiak; PODC 2025, arXiv:2502.01227).

Quickstart::

    from repro import TreeRankingProtocol, random_configuration, run_protocol

    protocol = TreeRankingProtocol(num_agents=500)
    start = random_configuration(protocol, seed=7)
    result = run_protocol(protocol, start, seed=7)
    assert result.silent and protocol.is_ranked(result.final_configuration)
    print(f"ranked in {result.parallel_time:.0f} parallel time")

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured record.

The package and its subpackages export lazily (``repro._lazy``):
``import repro`` runs no submodule, and the first use of a name imports
only the module that defines it.
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".configurations": (
        "all_in_extras_configuration",
        "all_in_state_configuration",
        "distance_from_solved",
        "doubled_prefix_configuration",
        "k_distant_configuration",
        "random_configuration",
        "solved_configuration",
    ),
    ".core": (
        "AgentScheduledEngine",
        "AgentScheduler",
        "Configuration",
        "EngineSnapshot",
        "EpochBoundary",
        "EpochScheduler",
        "Event",
        "JumpEngine",
        "MetricRecorder",
        "PairScheduler",
        "PopulationProtocol",
        "RankingProtocol",
        "Recorder",
        "RunResult",
        "ScheduledEngine",
        "SequentialEngine",
        "TrajectoryRecorder",
        "UniformScheduler",
        "WeightedScheduledEngine",
        "arrive_agents",
        "build_engine",
        "corrupt_agents",
        "crash_and_replace",
        "depart_agents",
        "make_rng",
        "resume_engine",
        "run_protocol",
    ),
    ".exceptions": (
        "ConfigurationError",
        "ExperimentError",
        "ProtocolError",
        "ReproError",
        "SimulationError",
        "SimulationLimitReached",
    ),
    ".jobspec": ("JOBSPEC_VERSION", "JobSpec", "JobSpecError"),
    ".protocols": (
        "AGProtocol",
        "LeaderElectionResult",
        "LineOfTrapsProtocol",
        "ModifiedTreeProtocol",
        "NodeKind",
        "PerfectlyBalancedTree",
        "RingOfTrapsProtocol",
        "RoutingGraph",
        "SingleTrapProtocol",
        "TrapLayout",
        "TreeDispersalProtocol",
        "TreeRankingProtocol",
        "build_routing_graph",
        "count_leaders",
        "elect_leader",
        "line_lattice_size",
        "line_parameter_for",
        "ring_parameter_for",
    ),
    ".scenarios": (
        "CampaignResult",
        "ClusteredScheduler",
        "DegreeSkewedScheduler",
        "EpochSpec",
        "FaultPhase",
        "PhaseLog",
        "ProtocolSpec",
        "RunPhase",
        "Scenario",
        "ScenarioResult",
        "SchedulerSpec",
        "StartSpec",
        "StateBiasedScheduler",
        "TargetedSuppressionScheduler",
        "get_campaign",
        "list_campaigns",
        "run_campaign",
        "run_scenario",
    ),
})
__all__ = sorted([*__all__, "__version__"])

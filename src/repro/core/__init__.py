"""Protocol-agnostic simulation substrate.

Public surface:

* :class:`~repro.core.configuration.Configuration` — multiset of states.
* :class:`~repro.core.protocol.PopulationProtocol` /
  :class:`~repro.core.protocol.RankingProtocol` — protocol ABCs.
* :func:`~repro.core.engine.run_protocol` — run to silence with either
  engine; returns a :class:`~repro.core.engine.RunResult`.
* :mod:`~repro.core.faults` — fault injection helpers.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".configuration": ("Configuration",),
    ".engine": (
        "Event",
        "MetricRecorder",
        "Recorder",
        "RunResult",
        "TrajectoryRecorder",
        "build_engine",
        "make_rng",
        "run_protocol",
    ),
    ".families": (
        "Family",
        "OrderedProduct",
        "SameStatePairs",
        "TriangularLine",
        "check_family_coverage",
    ),
    ".faults": (
        "adversarial_swap",
        "arrive_agents",
        "corrupt_agents",
        "crash_and_replace",
        "depart_agents",
    ),
    ".fused": ("FusedIndex", "WeightedFusedIndex"),
    ".jump": ("JumpEngine",),
    ".protocol": ("PopulationProtocol", "RankingProtocol", "Transition"),
    ".scheduler": (
        "AgentScheduledEngine",
        "AgentScheduler",
        "EpochBoundary",
        "EpochScheduler",
        "PairScheduler",
        "ScheduledEngine",
        "UniformScheduler",
        "WeightedScheduledEngine",
        "try_weighted_engine",
    ),
    ".sequential": ("SequentialEngine",),
    ".snapshot": ("EngineSnapshot", "resume_engine"),
})

"""Protocol-agnostic simulation substrate.

Public surface:

* :class:`~repro.core.configuration.Configuration` — multiset of states.
* :class:`~repro.core.protocol.PopulationProtocol` /
  :class:`~repro.core.protocol.RankingProtocol` — protocol ABCs.
* :func:`~repro.core.engine.run_protocol` — run to silence with either
  engine; returns a :class:`~repro.core.engine.RunResult`.
* :mod:`~repro.core.faults` — fault injection helpers.
"""

from .configuration import Configuration
from .engine import (
    Event,
    MetricRecorder,
    Recorder,
    RunResult,
    TrajectoryRecorder,
    build_engine,
    make_rng,
    run_protocol,
)
from .families import (
    Family,
    OrderedProduct,
    SameStatePairs,
    TriangularLine,
    check_family_coverage,
)
from .faults import (
    adversarial_swap,
    arrive_agents,
    corrupt_agents,
    crash_and_replace,
    depart_agents,
)
from .fused import FusedIndex, WeightedFusedIndex
from .jump import JumpEngine
from .protocol import PopulationProtocol, RankingProtocol, Transition
from .scheduler import (
    AgentScheduledEngine,
    AgentScheduler,
    EpochBoundary,
    EpochScheduler,
    PairScheduler,
    ScheduledEngine,
    UniformScheduler,
    WeightedScheduledEngine,
    try_weighted_engine,
)
from .sequential import SequentialEngine
from .snapshot import EngineSnapshot, resume_engine

__all__ = [
    "AgentScheduledEngine",
    "AgentScheduler",
    "Configuration",
    "EngineSnapshot",
    "EpochBoundary",
    "EpochScheduler",
    "Event",
    "Family",
    "FusedIndex",
    "JumpEngine",
    "MetricRecorder",
    "OrderedProduct",
    "PairScheduler",
    "PopulationProtocol",
    "RankingProtocol",
    "Recorder",
    "RunResult",
    "SameStatePairs",
    "ScheduledEngine",
    "SequentialEngine",
    "TrajectoryRecorder",
    "Transition",
    "TriangularLine",
    "UniformScheduler",
    "WeightedFusedIndex",
    "WeightedScheduledEngine",
    "adversarial_swap",
    "arrive_agents",
    "build_engine",
    "check_family_coverage",
    "corrupt_agents",
    "crash_and_replace",
    "depart_agents",
    "make_rng",
    "resume_engine",
    "run_protocol",
    "try_weighted_engine",
]

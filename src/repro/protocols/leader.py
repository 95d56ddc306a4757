"""Leader election via ranking (the paper's framing).

Any self-stabilising ranking protocol immediately solves
self-stabilising leader election: once every agent holds a unique rank,
the (unique) agent in rank 0 is the leader, silently and forever.  The
helpers here wrap a ranking run in leader-election vocabulary and give
the quantities experiments report: whether a unique leader exists, and
the election (== stabilisation) time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.configuration import Configuration
from ..core.engine import RunResult, run_protocol
from ..core.protocol import RankingProtocol

__all__ = ["LeaderElectionResult", "elect_leader", "count_leaders"]


@dataclass(frozen=True)
class LeaderElectionResult:
    """Outcome of a leader-election run."""

    run: RunResult
    unique_leader: bool

    @property
    def election_parallel_time(self) -> float:
        """Parallel time until the population went silent."""
        return self.run.parallel_time

    @property
    def interactions(self) -> int:
        """Total interactions until silence (or budget)."""
        return self.run.interactions


def count_leaders(
    protocol: RankingProtocol, configuration: Configuration
) -> int:
    """Number of agents currently in the leader state (rank 0)."""
    return configuration.count(protocol.leader_state)


def elect_leader(
    protocol: RankingProtocol,
    configuration: Configuration,
    seed: Union[int, np.random.Generator, None] = None,
    engine: str = "jump",
    max_interactions: Optional[int] = None,
) -> LeaderElectionResult:
    """Run ``protocol`` to silence and report the leader situation.

    A correct, silent run of any of the paper's ranking protocols always
    yields ``unique_leader=True``; a ``False`` with ``run.silent`` set
    would disprove stability (tests assert this never happens), while
    ``False`` with ``run.silent`` unset just means the budget ran out.
    """
    run = run_protocol(
        protocol,
        configuration,
        seed=seed,
        engine=engine,
        max_interactions=max_interactions,
    )
    unique = (
        run.silent
        and count_leaders(protocol, run.final_configuration) == 1
        and protocol.is_ranked(run.final_configuration)
    )
    return LeaderElectionResult(run=run, unique_leader=unique)

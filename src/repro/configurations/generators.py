"""Initial-configuration generators for self-stabilisation experiments.

Self-stabilising protocols must recover from *arbitrary* configurations;
the generators here produce the families the paper reasons about:

* ``k``-distant configurations — exactly ``k`` rank states unoccupied
  (the §3 parameterisation);
* uniformly random configurations (the generic adversary);
* named adversarial extremes (everyone piled in one state, everyone in
  the extra states, ...), used for worst-case measurements.

All generators are pure: they return fresh
:class:`~repro.core.configuration.Configuration` objects and draw
randomness only from the seed/generator argument.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..exceptions import ConfigurationError
from ..core.configuration import Configuration
from ..core.engine import make_rng
from ..core.protocol import RankingProtocol

__all__ = [
    "solved_configuration",
    "k_distant_configuration",
    "random_configuration",
    "all_in_state_configuration",
    "all_in_extras_configuration",
    "doubled_prefix_configuration",
    "distance_from_solved",
]

Seed = Union[int, "np.random.Generator", None]


def solved_configuration(protocol: RankingProtocol) -> Configuration:
    """The final silent configuration: one agent per rank, extras empty."""
    return protocol.solved_configuration()


def k_distant_configuration(
    protocol: RankingProtocol, k: int, seed: Seed = None
) -> Configuration:
    """A uniformly random ``k``-distant configuration over rank states.

    Exactly ``k`` rank states are unoccupied; the ``k`` displaced agents
    are spread uniformly over the occupied ranks (so some ranks hold
    duplicates).  Extra states are left empty — this matches §3, where
    the protocol is state-optimal.
    """
    n = protocol.num_ranks
    if not 0 <= k <= n - 1:
        raise ConfigurationError(
            f"k-distant configurations need 0 <= k <= n-1, got k={k}, n={n}"
        )
    rng = make_rng(seed)
    occupied = np.zeros(protocol.num_states, dtype=np.int64)
    occupied[:n] = 1
    if k:
        occupied[rng.choice(n, size=k, replace=False)] = 0
    # The k displaced agents land uniformly on occupied ranks.
    displaced = rng.choice(np.flatnonzero(occupied), size=k, replace=True)
    counts = occupied + np.bincount(displaced, minlength=protocol.num_states)
    return Configuration(counts.tolist())


def random_configuration(
    protocol: RankingProtocol,
    seed: Seed = None,
    include_extras: bool = True,
) -> Configuration:
    """Every agent drawn uniformly from the (full or rank-only) state space."""
    rng = make_rng(seed)
    limit = protocol.num_states if include_extras else protocol.num_ranks
    states = rng.integers(0, limit, size=protocol.num_agents)
    counts = np.bincount(states, minlength=protocol.num_states)
    return Configuration(counts.tolist())


def all_in_state_configuration(
    protocol: RankingProtocol, state: int
) -> Configuration:
    """Every agent in one state — the classic adversarial pile-up."""
    return Configuration.all_in_state(
        state, protocol.num_agents, protocol.num_states
    )


def all_in_extras_configuration(
    protocol: RankingProtocol, seed: Seed = None
) -> Configuration:
    """Every agent uniformly random within the extra states.

    Only meaningful for near-state-optimal protocols (``x >= 1``); it is
    the maximally rank-distant start (every rank unoccupied).
    """
    if protocol.num_extra_states == 0:
        raise ConfigurationError(
            f"{protocol.name} has no extra states to occupy"
        )
    rng = make_rng(seed)
    states = rng.choice(
        list(protocol.extra_states), size=protocol.num_agents, replace=True
    )
    counts = np.bincount(states, minlength=protocol.num_states)
    return Configuration(counts.tolist())


def doubled_prefix_configuration(protocol: RankingProtocol) -> Configuration:
    """Two agents in each of the first ``⌊n/2⌋`` ranks (deterministic).

    A maximally-distant configuration with ``k = ⌈n/2⌉`` missing ranks;
    used as a deterministic worst case in tests and benchmarks.
    """
    n = protocol.num_ranks
    counts = [0] * protocol.num_states
    for rank in range(n // 2):
        counts[rank] = 2
    if n % 2 == 1:
        counts[n // 2] = 1
    return Configuration(counts)


def distance_from_solved(
    protocol: RankingProtocol, configuration: Configuration
) -> int:
    """Number of unoccupied rank states (the ``k`` of ``k``-distant)."""
    return sum(
        1 for rank in protocol.rank_states if configuration.count(rank) == 0
    )

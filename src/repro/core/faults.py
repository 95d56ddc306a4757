"""Fault injection for self-stabilisation experiments.

Self-stabilising protocols recover from *any* configuration, so the
natural way to exercise them is to let a population stabilise, corrupt
part of it, and measure re-stabilisation.  These helpers produce the
corrupted configurations; they never mutate their input.

The §3 experiments also need *k-distant* configurations (exactly ``k``
rank states unoccupied) as recovery targets — those live in
:mod:`repro.configurations.generators`; the functions here model
transient faults hitting a running population.  ``depart_agents`` and
``arrive_agents`` additionally model *churn* (agents leaving/joining a
running population, changing ``n``); the scenario engine in
:mod:`repro.scenarios` composes them into mid-run fault campaigns.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..exceptions import ConfigurationError
from .configuration import Configuration
from .engine import make_rng

__all__ = [
    "corrupt_agents",
    "crash_and_replace",
    "adversarial_swap",
    "depart_agents",
    "arrive_agents",
]


def _victims_per_state(
    configuration: Configuration, num_agents: int, rng: np.random.Generator
) -> np.ndarray:
    """How many of ``num_agents`` uniformly chosen victims sit in each state.

    Agents are anonymous, so sampling agents without replacement is
    sampling states with multiplicity — exactly a multivariate
    hypergeometric draw on the counts vector.  O(num_states), no O(n)
    per-agent list.
    """
    counts = configuration.counts_array()
    total = int(counts.sum())
    if num_agents < 0:
        raise ConfigurationError(f"cannot corrupt {num_agents} agents")
    if num_agents > total:
        raise ConfigurationError(
            f"cannot corrupt {num_agents} of {total} agents"
        )
    if num_agents == 0:
        return np.zeros(len(counts), dtype=np.int64)
    return rng.multivariate_hypergeometric(counts, num_agents)


def corrupt_agents(
    configuration: Configuration,
    num_agents: int,
    seed: Union[int, np.random.Generator, None] = None,
    target_states: Optional[Sequence[int]] = None,
) -> Configuration:
    """Reassign ``num_agents`` random agents to uniformly random states.

    ``target_states`` restricts where corrupted agents may land
    (default: anywhere in the state space).  Models transient memory
    faults: the population size is preserved, states are arbitrary.
    """
    rng = make_rng(seed)
    victims = _victims_per_state(configuration, num_agents, rng)
    targets = (
        np.asarray(list(target_states), dtype=np.int64)
        if target_states is not None
        else np.arange(configuration.num_states, dtype=np.int64)
    )
    counts = configuration.counts_array()
    counts -= victims
    if num_agents:
        landed = rng.choice(targets, size=num_agents, replace=True)
        np.add.at(counts, landed, 1)
    return Configuration(counts.tolist())


def crash_and_replace(
    configuration: Configuration,
    num_agents: int,
    replacement_state: int,
    seed: Union[int, np.random.Generator, None] = None,
) -> Configuration:
    """Crash ``num_agents`` random agents and reboot them in one state.

    Models the classical fail-and-rejoin scenario: rebooted agents come
    back with a fixed default state (e.g. rank 0 or the extra state X),
    leaving up to ``num_agents`` rank states unoccupied — a ``k``-distant
    configuration with ``k <= num_agents`` for state-optimal protocols.
    """
    rng = make_rng(seed)
    if not 0 <= replacement_state < configuration.num_states:
        raise ConfigurationError(
            f"replacement state {replacement_state} outside state space"
        )
    victims = _victims_per_state(configuration, num_agents, rng)
    counts = configuration.counts_array()
    counts -= victims
    counts[replacement_state] += num_agents
    return Configuration(counts.tolist())


def adversarial_swap(
    configuration: Configuration,
    state_a: int,
    state_b: int,
) -> Configuration:
    """Swap the populations of two states (worst-case, deterministic).

    Useful for constructing specific distances from the solved
    configuration in tests.
    """
    counts = configuration.counts_list()
    counts[state_a], counts[state_b] = counts[state_b], counts[state_a]
    return Configuration(counts)


def depart_agents(
    configuration: Configuration,
    num_agents: int,
    seed: Union[int, np.random.Generator, None] = None,
) -> Configuration:
    """Remove ``num_agents`` uniformly random agents (churn: departures).

    The state space is unchanged; the population shrinks.  Callers that
    simulate a fixed-``n`` protocol must rebuild the protocol for the
    new population size (the scenario engine does this automatically).
    """
    rng = make_rng(seed)
    victims = _victims_per_state(configuration, num_agents, rng)
    counts = configuration.counts_array()
    counts -= victims
    return Configuration(counts.tolist())


def arrive_agents(
    configuration: Configuration,
    num_agents: int,
    arrival_states: Union[int, Sequence[int]],
    seed: Union[int, np.random.Generator, None] = None,
) -> Configuration:
    """Add ``num_agents`` new agents (churn: arrivals).

    Each arrival boots in a state drawn uniformly from
    ``arrival_states`` (a single state is accepted as shorthand) —
    joining agents know nothing, so their states are adversarial like
    any transient fault.
    """
    if num_agents < 0:
        raise ConfigurationError(f"cannot add {num_agents} agents")
    rng = make_rng(seed)
    if isinstance(arrival_states, (int, np.integer)):
        states = np.asarray([arrival_states], dtype=np.int64)
    else:
        states = np.asarray(list(arrival_states), dtype=np.int64)
    if len(states) == 0:
        raise ConfigurationError("arrival_states must be non-empty")
    if states.min() < 0 or states.max() >= configuration.num_states:
        raise ConfigurationError(
            f"arrival states {states.tolist()} outside state space "
            f"[0, {configuration.num_states})"
        )
    counts = configuration.counts_array()
    if num_agents:
        landed = rng.choice(states, size=num_agents, replace=True)
        np.add.at(counts, landed, 1)
    return Configuration(counts.tolist())

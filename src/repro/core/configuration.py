"""Configurations of agent states.

A *configuration* in the population protocol model is a multiset of
states: it records, for each state of the protocol's state space, how
many (anonymous, indistinguishable) agents currently hold it.  The class
below is the user-facing value type; the simulation engines operate on a
plain list of counts internally and wrap it back into a
:class:`Configuration` at the end of a run.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["Configuration"]


class Configuration:
    """Immutable-by-convention multiset of agent states.

    Parameters
    ----------
    counts:
        ``counts[s]`` is the number of agents in state ``s``.  The length
        of the sequence fixes the number of states.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Sequence[int]) -> None:
        # ``operator.index`` takes Python and numpy integers and refuses
        # floats and strings, which ``int`` would silently truncate or
        # parse into a population of another size.
        try:
            values = list(map(operator.index, counts))
        except TypeError:
            for state, count in enumerate(counts):
                try:
                    operator.index(count)
                except TypeError:
                    raise ConfigurationError(
                        f"state {state} has non-integral count {count!r}"
                    ) from None
            raise
        if values and min(values) < 0:
            state = next(s for s, c in enumerate(values) if c < 0)
            raise ConfigurationError(
                f"state {state} has negative count {values[state]}"
            )
        self._counts = values

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_agents(cls, states: Iterable[int], num_states: int) -> "Configuration":
        """Build a configuration from one state per agent."""
        counts = [0] * num_states
        for state in states:
            if not 0 <= state < num_states:
                raise ConfigurationError(
                    f"agent state {state} outside [0, {num_states})"
                )
            counts[state] += 1
        return cls(counts)

    @classmethod
    def all_in_state(cls, state: int, num_agents: int, num_states: int) -> "Configuration":
        """Every agent in a single state — a canonical adversarial start."""
        if not 0 <= state < num_states:
            raise ConfigurationError(f"state {state} outside [0, {num_states})")
        counts = [0] * num_states
        counts[state] = num_agents
        return cls(counts)

    @classmethod
    def one_per_state(cls, num_states: int) -> "Configuration":
        """One agent in every state — the solved/silent ranking layout."""
        return cls([1] * num_states)

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Size of the state space."""
        return len(self._counts)

    @property
    def num_agents(self) -> int:
        """Total number of agents (multiset cardinality)."""
        return sum(self._counts)

    def count(self, state: int) -> int:
        """Number of agents currently in ``state``."""
        return self._counts[state]

    def counts_list(self) -> List[int]:
        """A *copy* of the counts as a plain list (engine entry point)."""
        return list(self._counts)

    def counts_array(self) -> np.ndarray:
        """A *copy* of the counts as an ``int64`` numpy array."""
        return np.asarray(self._counts, dtype=np.int64)

    def as_tuple(self) -> Tuple[int, ...]:
        """Hashable snapshot of the counts."""
        return tuple(self._counts)

    # ------------------------------------------------------------------
    # Multiset queries used throughout the protocols and tests
    # ------------------------------------------------------------------
    def occupied_states(self) -> List[int]:
        """States holding at least one agent."""
        return [s for s, c in enumerate(self._counts) if c > 0]

    def unoccupied_states(self) -> List[int]:
        """States holding no agent."""
        return [s for s, c in enumerate(self._counts) if c == 0]

    def overloaded_states(self) -> List[int]:
        """States holding two or more agents."""
        return [s for s, c in enumerate(self._counts) if c >= 2]

    def support_size(self) -> int:
        """Number of distinct occupied states."""
        return sum(1 for c in self._counts if c > 0)

    def missing_within(self, states: Iterable[int]) -> List[int]:
        """Subset of ``states`` that are unoccupied."""
        return [s for s in states if self._counts[s] == 0]

    def restricted_to(self, states: Iterable[int]) -> Dict[int, int]:
        """Mapping ``state -> count`` over the given subset, occupied only."""
        return {s: self._counts[s] for s in states if self._counts[s] > 0}

    def agents_within(self, states: Iterable[int]) -> int:
        """Total number of agents across the given subset of states."""
        return sum(self._counts[s] for s in states)

    def is_ranked(self, num_ranks: int) -> bool:
        """True iff ranks ``0..num_ranks-1`` hold exactly one agent each
        and every other state is empty."""
        counts = self._counts
        if any(counts[s] != 1 for s in range(num_ranks)):
            return False
        return all(c == 0 for c in counts[num_ranks:])

    # ------------------------------------------------------------------
    # Functional updates (configurations are treated as values)
    # ------------------------------------------------------------------
    def with_move(self, src: int, dst: int, agents: int = 1) -> "Configuration":
        """A new configuration with ``agents`` agents moved ``src → dst``."""
        if self._counts[src] < agents:
            raise ConfigurationError(
                f"cannot move {agents} agents out of state {src} "
                f"holding {self._counts[src]}"
            )
        counts = list(self._counts)
        counts[src] -= agents
        counts[dst] += agents
        return Configuration(counts)

    def copy(self) -> "Configuration":
        """Independent copy."""
        return Configuration(self._counts)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(tuple(self._counts))

    def __repr__(self) -> str:
        occupied = {s: c for s, c in enumerate(self._counts) if c > 0}
        if len(occupied) > 12:
            head = dict(list(occupied.items())[:12])
            body = f"{head} ... ({len(occupied)} occupied)"
        else:
            body = repr(occupied)
        return (
            f"Configuration(agents={self.num_agents}, "
            f"states={self.num_states}, occupied={body})"
        )

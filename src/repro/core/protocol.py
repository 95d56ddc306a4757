"""Abstract base classes for population protocols.

Two layers:

* :class:`PopulationProtocol` — the bare model: a finite state space,
  a population size, and a transition function over ordered pairs.
* :class:`RankingProtocol` — the paper's setting: the first ``n`` state
  indices are the *rank states* (rank ``r`` is state ``r``; rank 0 is
  the leader) and any remaining indices are *extra states*.

Protocols are immutable descriptions; all mutable simulation state lives
in the engines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, ProtocolError
from .configuration import Configuration
from .families import Family, SameStatePairs

__all__ = ["PopulationProtocol", "RankingProtocol", "Transition"]

# A transition outcome: (new initiator state, new responder state).
Transition = Tuple[int, int]


class PopulationProtocol(ABC):
    """A population protocol over states ``0..num_states-1``.

    Subclasses must implement :meth:`delta`, a pure function (the
    engines precompile it into per-pair lookup tables).  The default
    :meth:`build_families` assumes all productive pairs are same-state
    pairs, which holds for every *state-optimal* protocol (the paper
    proves such protocols admit only ``(s, s)`` rules); protocols with
    cross-state rules override it.
    """

    def __init__(self, num_states: int, num_agents: int) -> None:
        if num_states <= 0:
            raise ProtocolError(f"num_states must be positive, got {num_states}")
        if num_agents <= 1:
            raise ProtocolError(
                f"population protocols need at least 2 agents, got {num_agents}"
            )
        self._num_states = num_states
        self._num_agents = num_agents

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Size of the state space."""
        return self._num_states

    @property
    def num_agents(self) -> int:
        """Population size ``n``."""
        return self._num_agents

    @abstractmethod
    def delta(self, initiator: int, responder: int) -> Optional[Transition]:
        """Transition function.

        Returns the pair of successor states, or ``None`` for a null
        interaction (both agents keep their states).
        """

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def same_state_rule_states(self) -> List[int]:
        """States ``s`` whose pair ``(s, s)`` is productive."""
        return [
            s for s in range(self._num_states) if self.delta(s, s) is not None
        ]

    def build_families(self, counts: Sequence[int]) -> List[Family]:
        """Weight families covering this protocol's productive pairs.

        The default covers same-state rules only; override when the
        protocol has cross-state rules (and keep the families' pair sets
        disjoint — validated by
        :func:`repro.core.families.check_family_coverage`).  To run on
        the jump engines, cross-state rules must use the shapes the
        fused index compiles, :class:`~repro.core.families.OrderedProduct`
        and :class:`~repro.core.families.TriangularLine` (exactly those
        types); other family types run only on the sequential and
        rejection engines.
        """
        return [SameStatePairs(counts, self.same_state_rule_states())]

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def is_silent(self, configuration: Configuration) -> bool:
        """True iff no productive interaction is possible."""
        counts = configuration.counts_list()
        families = self.build_families(counts)
        return sum(f.weight for f in families) == 0

    def validate_configuration(self, configuration: Configuration) -> None:
        """Raise :class:`ConfigurationError` unless ``configuration`` fits."""
        if configuration.num_states != self._num_states:
            raise ConfigurationError(
                f"configuration has {configuration.num_states} states, "
                f"protocol has {self._num_states}"
            )
        if configuration.num_agents != self._num_agents:
            raise ConfigurationError(
                f"configuration has {configuration.num_agents} agents, "
                f"protocol has {self._num_agents}"
            )

    def state_label(self, state: int) -> str:
        """Human-readable name of a state (overridable)."""
        return str(state)

    @property
    def name(self) -> str:
        """Short protocol name used in results and tables."""
        return type(self).__name__

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_states={self._num_states}, "
            f"num_agents={self._num_agents})"
        )


class RankingProtocol(PopulationProtocol):
    """A self-stabilising ranking protocol.

    Conventions (shared by every protocol in the paper):

    * the population has ``n = num_agents`` agents;
    * states ``0..n-1`` are the rank states — state ``r`` *is* rank ``r``;
    * states ``n..num_states-1`` are the extra states
      (``x = num_states - n`` of them);
    * the final silent configuration has exactly one agent per rank state
      and no agent in any extra state;
    * the agent stabilising in rank 0 is the elected leader.
    """

    def __init__(self, num_agents: int, num_extra_states: int = 0) -> None:
        if num_extra_states < 0:
            raise ProtocolError(
                f"num_extra_states must be >= 0, got {num_extra_states}"
            )
        super().__init__(num_agents + num_extra_states, num_agents)

    @property
    def num_ranks(self) -> int:
        """Number of rank states (== population size)."""
        return self._num_agents

    @property
    def num_extra_states(self) -> int:
        """Number of extra (non-rank) states ``x``."""
        return self._num_states - self._num_agents

    @property
    def rank_states(self) -> range:
        """The rank states ``0..n-1``."""
        return range(self._num_agents)

    @property
    def extra_states(self) -> range:
        """The extra states ``n..num_states-1`` (may be empty)."""
        return range(self._num_agents, self._num_states)

    @property
    def leader_state(self) -> int:
        """Rank whose holder is the elected leader."""
        return 0

    def is_ranked(self, configuration: Configuration) -> bool:
        """True iff every rank holds exactly one agent and extras are empty."""
        return configuration.is_ranked(self.num_ranks)

    def solved_configuration(self) -> Configuration:
        """The (unique up to agent identity) final silent configuration."""
        counts = [1] * self.num_ranks + [0] * self.num_extra_states
        return Configuration(counts)

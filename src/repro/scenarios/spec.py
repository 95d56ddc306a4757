"""Scenario specifications: scripted timelines of runs and faults.

A :class:`Scenario` is a declarative, dict/YAML-loadable script for one
self-stabilisation experiment: which protocol to build, where to start,
which scheduler drives pair selection, and a timeline of *phases* —
either :class:`RunPhase` (drive the engine until silence, a predicate,
or a budget) or :class:`FaultPhase` (corrupt / crash / swap / churn the
live configuration mid-run).  Specs are plain frozen dataclasses so
they pickle cleanly into the campaign process pool and round-trip
through ``to_dict``/``from_dict`` (and JSON/YAML files).

Execution lives in :mod:`repro.scenarios.engine`; this module owns
parsing, validation, and protocol construction.

A scenario is also the payload of every :class:`~repro.jobspec.JobSpec`
— the versioned request schema ``repro serve`` and the re-routed CLI
entry points speak.  The dict forms here are therefore wire formats:
changing a field name or default changes the canonical JobSpec
serialisation (and so every cached digest), which requires bumping
:data:`~repro.jobspec.JOBSPEC_VERSION`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from ..configurations.generators import (
    all_in_extras_configuration,
    all_in_state_configuration,
    k_distant_configuration,
    random_configuration,
    solved_configuration,
)
from ..exceptions import ExperimentError, ProtocolError

__all__ = [
    "EpochSpec",
    "FaultPhase",
    "Phase",
    "ProtocolSpec",
    "RunPhase",
    "Scenario",
    "SchedulerSpec",
    "StartSpec",
]

_FAULT_KINDS = ("corrupt", "crash", "swap", "churn")
_RUN_UNTIL = ("silence", "events", "predicate")
_PREDICATES = ("ranked", "leader")
_START_KINDS = ("solved", "random", "k_distant", "pileup", "all_in_extras")
_STATE_SCHEDULER_KINDS = ("uniform", "state_biased", "clustered")
_AGENT_SCHEDULER_KINDS = ("targeted", "degree_skewed")
_SCHEDULER_KINDS = _STATE_SCHEDULER_KINDS + _AGENT_SCHEDULER_KINDS
_EPOCH_UNTIL = ("events", "interactions", "silence", "predicate")


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to build (and rebuild, under churn).

    ``kind`` is one of ``ag`` / ``ring`` / ``line`` / ``tree`` /
    ``modified_tree``; ``m`` (ring/line lattice parameter) and ``k``
    (tree reset-line half-length) pin the structural parameters so a
    churn-resized rebuild changes only the population size.
    """

    kind: str
    num_agents: int
    m: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _PROTOCOL_BUILDERS:
            raise ExperimentError(
                f"unknown protocol kind {self.kind!r}; expected one of "
                f"{sorted(_PROTOCOL_BUILDERS)}"
            )
        if self.num_agents < 2:
            raise ExperimentError(
                f"scenario populations need n >= 2, got {self.num_agents}"
            )

    def build(self, num_agents: Optional[int] = None, retier: bool = False):
        """Construct the protocol, optionally at a churned size.

        With ``retier=True`` a ring/line build whose pinned lattice
        parameter ``m`` cannot represent the (churned) population is
        retried with ``m`` re-derived from the new size — growing the
        population past the current lattice window re-tiers the lattice
        on the fly instead of raising.  Sizes no lattice of the family
        can represent (the gaps between line lattices) still raise,
        loudly: a silently clamped population would mislabel the
        recovery tables.
        """
        n = self.num_agents if num_agents is None else num_agents
        try:
            return _PROTOCOL_BUILDERS[self.kind](self, n)
        except ProtocolError:
            if (
                not retier
                or self.kind not in ("ring", "line")
                or self.m is None
            ):
                raise
            retiered = replace(self, num_agents=max(2, n), m=None)
            return _PROTOCOL_BUILDERS[self.kind](retiered, n)


# Each builder imports its own protocol module, so a spec loads only the
# protocol it builds.
def _build_ag(spec, n):
    from ..protocols.ag import AGProtocol

    return AGProtocol(n)


def _build_ring(spec, n):
    from ..protocols.ring import RingOfTrapsProtocol

    return RingOfTrapsProtocol(num_agents=n, m=spec.m)


def _build_line(spec, n):
    from ..protocols.line import LineOfTrapsProtocol

    return LineOfTrapsProtocol(num_agents=n, m=spec.m)


def _build_tree(spec, n):
    from ..protocols.tree_protocol import TreeRankingProtocol

    return TreeRankingProtocol(n, k=spec.k)


def _build_modified_tree(spec, n):
    from ..protocols.modified_tree import ModifiedTreeProtocol

    return ModifiedTreeProtocol(n, k=spec.k)


_PROTOCOL_BUILDERS = {
    "ag": _build_ag,
    "ring": _build_ring,
    "line": _build_line,
    "tree": _build_tree,
    "modified_tree": _build_modified_tree,
}


@dataclass(frozen=True)
class StartSpec:
    """Initial configuration family (see ``repro.configurations``)."""

    kind: str = "random"
    k: Optional[int] = None  # k_distant only
    state: Optional[int] = None  # pileup only (default: highest rank)

    def __post_init__(self) -> None:
        if self.kind not in _START_KINDS:
            raise ExperimentError(
                f"unknown start kind {self.kind!r}; expected one of "
                f"{_START_KINDS}"
            )
        if self.kind == "k_distant" and (self.k is None or self.k < 0):
            raise ExperimentError("k_distant start needs a k >= 0")

    def build(self, protocol, seed):
        """The start configuration against a built protocol.

        ``seed`` (an int or a numpy generator) feeds the kinds that draw
        randomness (``random``, ``k_distant``, ``all_in_extras``); a
        pile-up with no ``state`` lands on the highest rank.
        """
        if self.kind == "random":
            return random_configuration(protocol, seed=seed)
        if self.kind == "k_distant":
            return k_distant_configuration(protocol, self.k, seed=seed)
        if self.kind == "pileup":
            state = (
                self.state if self.state is not None
                else protocol.num_ranks - 1
            )
            return all_in_state_configuration(protocol, state)
        if self.kind == "all_in_extras":
            return all_in_extras_configuration(protocol, seed=seed)
        return solved_configuration(protocol)


@dataclass(frozen=True)
class SchedulerSpec:
    """Pair-selection scheduler (built in ``repro.scenarios.schedulers``).

    State-level kinds (count-based engines; the weighted jump fast path
    applies whenever the scheduler compiles):

    * ``uniform`` — the paper's scheduler; keeps the jump fast path.
    * ``state_biased`` — agent selection weighted per state:
      ``rank_weight`` for rank states, ``extra_weight`` for extras.
    * ``clustered`` — the state space is split into ``num_clusters``
      contiguous blocks; cross-block pairs fire with relative weight
      ``across`` (an adversary localising interactions).

    Agent-identity kinds (explicit-agent rejection engine — identities
    matter, so these cannot run on count-based engines and cannot
    appear in epoch timelines):

    * ``targeted`` — the first ``targets`` agents are selected with
      weight ``target_weight`` (a jammed / suppressed device set).
    * ``degree_skewed`` — agent ``i``'s selection weight is
      ``max(floor, ((i + 1) / n) ** exponent)``: a skewed contact
      model where low-index agents are near-isolated and high-index
      agents are hubs.
    """

    kind: str = "uniform"
    rank_weight: float = 1.0
    extra_weight: float = 1.0
    num_clusters: int = 2
    across: float = 0.05
    targets: int = 1
    target_weight: float = 0.05
    exponent: float = 1.0
    floor: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULER_KINDS:
            raise ExperimentError(
                f"unknown scheduler kind {self.kind!r}; expected one of "
                f"{_SCHEDULER_KINDS}"
            )
        if self.kind == "state_biased":
            for label, w in (("rank_weight", self.rank_weight),
                             ("extra_weight", self.extra_weight)):
                if not 0.0 < w <= 1.0:
                    raise ExperimentError(
                        f"state_biased {label} must be in (0, 1], got {w}"
                    )
        if self.kind == "clustered":
            if self.num_clusters < 1:
                raise ExperimentError(
                    f"clustered scheduler needs num_clusters >= 1, "
                    f"got {self.num_clusters}"
                )
            if not 0.0 < self.across <= 1.0:
                raise ExperimentError(
                    f"clustered across-weight must be in (0, 1], "
                    f"got {self.across}"
                )
        if self.kind == "targeted":
            if self.targets < 1:
                raise ExperimentError(
                    f"targeted scheduler needs targets >= 1, "
                    f"got {self.targets}"
                )
            if not 0.0 < self.target_weight <= 1.0:
                raise ExperimentError(
                    f"targeted target_weight must be in (0, 1], "
                    f"got {self.target_weight}"
                )
        if self.kind == "degree_skewed":
            if self.exponent < 0.0:
                raise ExperimentError(
                    f"degree_skewed exponent must be >= 0, "
                    f"got {self.exponent}"
                )
            if not 0.0 < self.floor <= 1.0:
                raise ExperimentError(
                    f"degree_skewed floor must be in (0, 1], "
                    f"got {self.floor}"
                )

    @property
    def is_uniform(self) -> bool:
        return self.kind == "uniform"

    @property
    def is_agent_level(self) -> bool:
        """True for schedulers biasing agent identities, not states."""
        return self.kind in _AGENT_SCHEDULER_KINDS


@dataclass(frozen=True)
class EpochSpec:
    """One segment of a time-varying scheduler timeline.

    ``until`` says when the segment ends and the next one takes over:
    ``events`` / ``interactions`` (a ``value`` duration counted from
    segment entry), ``silence``, or ``predicate`` (a named
    configuration predicate — ``ranked`` or ``leader`` — checked every
    ``check_every`` productive events).  The last segment may omit
    ``until`` and runs forever.  Only state-level scheduler kinds can
    appear in a timeline (the epoch engines are count-based).
    """

    scheduler: SchedulerSpec
    until: Optional[str] = None
    value: Optional[int] = None
    predicate: Optional[str] = None
    check_every: int = 1024
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scheduler.is_agent_level:
            raise ExperimentError(
                f"epoch timelines cannot contain agent-identity "
                f"scheduler {self.scheduler.kind!r}"
            )
        if self.until is None:
            return
        if self.until not in _EPOCH_UNTIL:
            raise ExperimentError(
                f"unknown epoch boundary {self.until!r}; expected one of "
                f"{_EPOCH_UNTIL}"
            )
        if self.until in ("events", "interactions"):
            if self.value is None or self.value < 1:
                raise ExperimentError(
                    f"epoch boundary on {self.until} needs value >= 1, "
                    f"got {self.value}"
                )
        if self.until == "predicate":
            if self.predicate not in _PREDICATES:
                raise ExperimentError(
                    f"epoch predicate must be one of {_PREDICATES}, "
                    f"got {self.predicate!r}"
                )
            if self.check_every < 1:
                raise ExperimentError(
                    f"check_every must be >= 1, got {self.check_every}"
                )


@dataclass(frozen=True)
class RunPhase:
    """Drive the engine until a stop condition.

    ``until`` is ``silence`` (stop at weight 0), ``events`` (stop at the
    ``max_events`` budget), or ``predicate`` (stop when the named
    configuration predicate — ``ranked`` or ``leader`` — first holds,
    checked every ``check_every`` productive events).  Budgets always
    cap the phase regardless of ``until``.
    """

    until: str = "silence"
    predicate: Optional[str] = None
    max_events: Optional[int] = None
    max_interactions: Optional[int] = None
    check_every: int = 1024
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.until not in _RUN_UNTIL:
            raise ExperimentError(
                f"unknown run-until condition {self.until!r}; expected one "
                f"of {_RUN_UNTIL}"
            )
        if self.until == "predicate":
            if self.predicate not in _PREDICATES:
                raise ExperimentError(
                    f"run-until predicate must be one of {_PREDICATES}, "
                    f"got {self.predicate!r}"
                )
            if self.check_every < 1:
                raise ExperimentError(
                    f"check_every must be >= 1, got {self.check_every}"
                )
        if self.until == "events" and self.max_events is None:
            raise ExperimentError("run-until events needs max_events")
        for name, budget in (("max_events", self.max_events),
                             ("max_interactions", self.max_interactions)):
            if budget is not None and budget < 0:
                raise ExperimentError(f"{name} must be >= 0, got {budget}")


@dataclass(frozen=True)
class FaultPhase:
    """One mid-run fault event.

    Kinds (victim count is ``agents``, or ``fraction`` of the current
    population, whichever is given):

    * ``corrupt`` — victims land on uniformly random states
      (``target_states`` restricts where);
    * ``crash`` — victims reboot in ``replacement_state`` (an index, or
      ``"first_extra"`` / ``"leader"`` resolved against the protocol);
    * ``swap`` — deterministically swap the populations of ``state_a``
      and ``state_b``;
    * ``churn`` — ``departures`` agents leave, then ``arrivals`` agents
      join in ``arrival_state`` (index or ``"first_extra"`` /
      ``"leader"``; default leader), resizing the population.
    """

    kind: str
    agents: Optional[int] = None
    fraction: Optional[float] = None
    target_states: Optional[Tuple[int, ...]] = None
    replacement_state: Union[int, str] = 0
    state_a: int = 0
    state_b: int = 0
    departures: int = 0
    arrivals: int = 0
    arrival_state: Union[int, str] = "leader"
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{_FAULT_KINDS}"
            )
        if self.kind in ("corrupt", "crash"):
            if self.agents is None and self.fraction is None:
                raise ExperimentError(
                    f"{self.kind} fault needs agents or fraction"
                )
            if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
                raise ExperimentError(
                    f"fault fraction must be in [0, 1], got {self.fraction}"
                )
            if self.agents is not None and self.agents < 0:
                raise ExperimentError(
                    f"fault agents must be >= 0, got {self.agents}"
                )
        if self.kind == "churn":
            if self.departures < 0 or self.arrivals < 0:
                raise ExperimentError(
                    "churn departures/arrivals must be >= 0"
                )
            if self.departures == 0 and self.arrivals == 0:
                raise ExperimentError("churn fault needs some churn")
        if self.target_states is not None:
            object.__setattr__(
                self, "target_states", tuple(self.target_states)
            )

    def victim_count(self, num_agents: int) -> int:
        """Resolve ``agents``/``fraction`` against the live population.

        A positive fraction always claims at least one victim (so tiny
        populations still see the fault); zero means zero.
        """
        if self.agents is not None:
            return min(self.agents, num_agents)
        if self.fraction == 0.0:
            return 0
        return min(num_agents, max(1, round(self.fraction * num_agents)))


Phase = Union[RunPhase, FaultPhase]


@dataclass(frozen=True)
class Scenario:
    """A named, fully declarative fault-campaign script.

    ``scheduler`` fixes one pair-selection bias for the whole run;
    ``timeline`` instead scripts a *time-varying* adversary — an
    ordered sequence of :class:`EpochSpec` segments whose boundaries
    fire mid-phase (they are engine state, independent of the phase
    list, and epoch progress survives churn-induced engine rebuilds).
    The two are mutually exclusive: a non-empty timeline requires the
    scalar scheduler to stay uniform.
    """

    name: str
    protocol: ProtocolSpec
    phases: Tuple[Phase, ...]
    start: StartSpec = field(default_factory=StartSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    timeline: Tuple[EpochSpec, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ExperimentError(f"scenario {self.name!r} has no phases")
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "timeline", tuple(self.timeline))
        if self.timeline:
            if not self.scheduler.is_uniform:
                raise ExperimentError(
                    f"scenario {self.name!r} sets both a scheduler and a "
                    "timeline; use one or the other"
                )
            for index, epoch in enumerate(self.timeline[:-1]):
                if epoch.until is None:
                    raise ExperimentError(
                        f"scenario {self.name!r} timeline segment {index} "
                        "has no 'until' boundary but is not the last "
                        "segment"
                    )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        phases = []
        for phase in self.phases:
            key = "run" if isinstance(phase, RunPhase) else "fault"
            body = {
                k: v for k, v in asdict(phase).items() if v is not None
            }
            if isinstance(phase, FaultPhase):
                body["target_states"] = (
                    list(phase.target_states)
                    if phase.target_states is not None else None
                )
                body = {k: v for k, v in body.items() if v is not None}
            phases.append({key: body})
        data = {
            "name": self.name,
            "description": self.description,
            "protocol": {
                k: v for k, v in asdict(self.protocol).items()
                if v is not None
            },
            "start": {
                k: v for k, v in asdict(self.start).items() if v is not None
            },
            "scheduler": asdict(self.scheduler),
            "phases": phases,
        }
        if self.timeline:
            data["timeline"] = [
                {
                    k: (asdict(epoch.scheduler) if k == "scheduler" else v)
                    for k, v in asdict(epoch).items()
                    if v is not None
                }
                for epoch in self.timeline
            ]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        """Parse the canonical dict form (also what YAML files hold)."""
        if not isinstance(data, dict):
            raise ExperimentError(
                f"scenario spec must be a mapping, got {type(data).__name__}"
            )
        try:
            name = str(data["name"])
            protocol = ProtocolSpec(**dict(data["protocol"]))
            raw_phases = data["phases"]
        except KeyError as missing:
            raise ExperimentError(
                f"scenario spec missing required key {missing}"
            ) from None
        except TypeError as error:
            raise ExperimentError(f"bad scenario spec: {error}") from None
        phases = []
        for index, entry in enumerate(raw_phases):
            if not isinstance(entry, dict) or len(entry) != 1:
                raise ExperimentError(
                    f"phase {index} must be a single-key mapping "
                    "{'run': ...} or {'fault': ...}"
                )
            (key, body), = entry.items()
            try:
                if key == "run":
                    phases.append(RunPhase(**dict(body)))
                elif key == "fault":
                    phases.append(FaultPhase(**dict(body)))
                else:
                    raise ExperimentError(
                        f"phase {index} key must be 'run' or 'fault', "
                        f"got {key!r}"
                    )
            except TypeError as error:
                raise ExperimentError(
                    f"bad phase {index} spec: {error}"
                ) from None
        try:
            start = StartSpec(**dict(data.get("start", {})))
            scheduler = SchedulerSpec(**dict(data.get("scheduler", {})))
        except TypeError as error:
            raise ExperimentError(f"bad scenario spec: {error}") from None
        timeline = []
        for index, entry in enumerate(data.get("timeline", ())):
            if not isinstance(entry, dict):
                raise ExperimentError(
                    f"timeline segment {index} must be a mapping"
                )
            body = dict(entry)
            try:
                segment_scheduler = SchedulerSpec(
                    **dict(body.pop("scheduler", {}))
                )
                timeline.append(
                    EpochSpec(scheduler=segment_scheduler, **body)
                )
            except TypeError as error:
                raise ExperimentError(
                    f"bad timeline segment {index} spec: {error}"
                ) from None
        return cls(
            name=name,
            protocol=protocol,
            phases=tuple(phases),
            start=start,
            scheduler=scheduler,
            timeline=tuple(timeline),
            description=str(data.get("description", "")),
        )

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        """Load a scenario from a ``.json`` or ``.yaml``/``.yml`` file.

        YAML needs PyYAML; when it is not installed a clear error points
        at the JSON alternative instead of an ImportError mid-campaign.
        """
        lowered = path.lower()
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if lowered.endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError:
                raise ExperimentError(
                    f"{path}: loading YAML scenarios needs PyYAML "
                    "(pip install pyyaml) — or use the JSON form"
                ) from None
            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
        return cls.from_dict(data)

    def with_population(self, num_agents: int) -> "Scenario":
        """A copy targeting a different population size."""
        return replace(self, protocol=replace(self.protocol, num_agents=num_agents))

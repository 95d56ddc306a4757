"""The versioned JobSpec: one request schema for every entry point.

Before this module, each way of running a simulation spoke its own
dialect — ``run_protocol`` kwargs, :class:`~repro.scenarios.spec.Scenario`
dicts, ``run_campaign`` arguments, ``repro simulate`` flags — so there
was no single JSON object a server could accept, validate, cache, or
replay.  A :class:`JobSpec` subsumes them all:

* ``mode="simulate"`` — one protocol driven from a start configuration
  until silence (the ``repro simulate`` / ``run_protocol`` path).  The
  wrapped scenario is degenerate: exactly one run phase, no faults, no
  timeline, uniform scheduler.  :meth:`JobSpec.to_run_kwargs` expands
  it into the exact ``run_protocol`` call the legacy CLI made — same
  protocol construction, same start-configuration seeding — so the
  re-routed entry points are bit-identical to the old ones.
* ``mode="scenario"`` — a full fault-campaign script (phases, faults,
  schedulers, epoch timelines) repeated ``repetitions`` times under the
  repo-wide seeding discipline.

The spec is a frozen dataclass over plain data, JSON-round-trippable
via :meth:`to_dict` / :meth:`from_dict` (strict: unknown or ill-typed
fields raise :class:`JobSpecError` naming the offending field), with a
**canonical form** (:meth:`canonical` — defaults materialised, version
stamped, keys sorted) whose SHA-256 (:meth:`digest`) is the content
hash shared by the ``repro serve`` result cache and the ensemble
manifest metadata.  Two specs describe the same computation iff their
digests match; the v1 canonical form is pinned by a golden-file test,
so any schema change must bump :data:`JOBSPEC_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from .exceptions import ExperimentError, ReproError
from .scenarios.spec import ProtocolSpec, RunPhase, Scenario, StartSpec

__all__ = ["JOBSPEC_VERSION", "JobSpec", "JobSpecError"]

#: Schema version of the canonical form; bump on any incompatible
#: change (field added/removed/renamed, default changed, canonical
#: serialisation changed) — the golden-file test enforces this.
JOBSPEC_VERSION = 1

_MODES = ("simulate", "scenario")
_ENGINES = ("jump", "sequential")
_BACKENDS = ("python", "numpy")

#: CLI spelling of start kinds (``repro simulate --start``) mapped to
#: the :class:`~repro.scenarios.spec.StartSpec` vocabulary.
_LEGACY_STARTS = {
    "random": "random",
    "k-distant": "k_distant",
    "k_distant": "k_distant",
    "pileup": "pileup",
    "solved": "solved",
    "all_in_extras": "all_in_extras",
}

#: The optional top-level keys :meth:`JobSpec.from_dict` accepts,
#: with their expected types (``version`` and ``scenario`` are
#: required and handled separately).
_OPTIONAL_FIELDS = {
    "mode": str,
    "seed": int,
    "repetitions": int,
    "engine": str,
    "backend": str,
    "max_events": int,
    "max_interactions": int,
    "trace": bool,
}


class JobSpecError(ReproError):
    """A JobSpec failed validation; ``field`` names the offender."""

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        self.field = field
        if field is not None:
            message = f"jobspec field {field!r}: {message}"
        super().__init__(message)


def _require_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(
            f"expected an integer, got {type(value).__name__}", field=name
        )
    if value < minimum:
        raise JobSpecError(f"must be >= {minimum}, got {value}", field=name)


@dataclass(frozen=True)
class JobSpec:
    """One versioned, cacheable simulation request.

    ``scenario`` declares *what* to simulate; the remaining fields say
    how to drive it.  Execution-topology knobs (worker count, queue
    position, streaming subscribers) are deliberately **not** part of
    the spec: results are a pure function of the spec, so the digest
    may key a cache that is valid at any worker count.
    """

    scenario: Scenario
    mode: str = "scenario"
    seed: int = 0
    repetitions: int = 1
    engine: str = "jump"
    backend: str = "python"
    max_events: Optional[int] = None
    max_interactions: Optional[int] = None
    trace: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, Scenario):
            raise JobSpecError(
                f"expected a Scenario, got {type(self.scenario).__name__}",
                field="scenario",
            )
        if self.mode not in _MODES:
            raise JobSpecError(
                f"unknown mode {self.mode!r}; expected one of {_MODES}",
                field="mode",
            )
        if self.engine not in _ENGINES:
            raise JobSpecError(
                f"unknown engine {self.engine!r}; expected one of {_ENGINES}",
                field="engine",
            )
        if self.backend not in _BACKENDS:
            raise JobSpecError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{_BACKENDS}",
                field="backend",
            )
        _require_int("seed", self.seed, minimum=0)
        _require_int("repetitions", self.repetitions, minimum=1)
        for name in ("max_events", "max_interactions"):
            value = getattr(self, name)
            if value is not None:
                _require_int(name, value, minimum=0)
        if not isinstance(self.trace, bool):
            raise JobSpecError(
                f"expected a boolean, got {type(self.trace).__name__}",
                field="trace",
            )
        if self.mode == "simulate":
            phases = self.scenario.phases
            if len(phases) != 1 or not isinstance(phases[0], RunPhase):
                raise JobSpecError(
                    "simulate mode wraps exactly one run phase (no faults); "
                    "use mode='scenario' for fault campaigns",
                    field="mode",
                )
            if self.scenario.timeline:
                raise JobSpecError(
                    "simulate mode cannot carry an epoch timeline; "
                    "use mode='scenario'",
                    field="mode",
                )
            if not self.scenario.scheduler.is_uniform:
                raise JobSpecError(
                    "simulate mode runs under the uniform scheduler; "
                    "use mode='scenario' for biased schedulers",
                    field="mode",
                )
        else:
            if self.engine != "jump":
                raise JobSpecError(
                    "scenario mode picks engines from the scheduler spec; "
                    "engine applies to simulate mode only",
                    field="engine",
                )
            if self.max_interactions is not None:
                raise JobSpecError(
                    "scenario mode caps interactions per run phase "
                    "(phases[].run.max_interactions), not globally",
                    field="max_interactions",
                )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Sparse JSON form (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {
            "version": JOBSPEC_VERSION,
            "mode": self.mode,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "engine": self.engine,
            "backend": self.backend,
            "trace": self.trace,
            "scenario": self.scenario.to_dict(),
        }
        if self.max_events is not None:
            data["max_events"] = self.max_events
        if self.max_interactions is not None:
            data["max_interactions"] = self.max_interactions
        return data

    @classmethod
    def from_dict(cls, data) -> "JobSpec":
        """Strict parse: every violation names the offending field."""
        if not isinstance(data, dict):
            raise JobSpecError(
                f"jobspec must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version")
        if version is None:
            raise JobSpecError("required (stamp the schema version)",
                               field="version")
        if version != JOBSPEC_VERSION:
            raise JobSpecError(
                f"version {version!r} is not supported "
                f"(expected {JOBSPEC_VERSION})",
                field="version",
            )
        if "scenario" not in data:
            raise JobSpecError("required", field="scenario")
        known = set(_OPTIONAL_FIELDS) | {"version", "scenario"}
        for key in data:
            if key not in known:
                raise JobSpecError(
                    f"unknown field (known fields: {sorted(known)})",
                    field=str(key),
                )
        try:
            scenario = Scenario.from_dict(data["scenario"])
        except ExperimentError as error:
            raise JobSpecError(str(error), field="scenario") from error
        kwargs: Dict[str, object] = {}
        for name, expected in _OPTIONAL_FIELDS.items():
            if name not in data:
                continue
            value = data[name]
            nullable = name in ("max_events", "max_interactions")
            if value is None and nullable:
                continue
            if (
                not isinstance(value, expected)
                or (expected is int and isinstance(value, bool))
            ):
                raise JobSpecError(
                    f"expected {expected.__name__}, "
                    f"got {type(value).__name__}",
                    field=name,
                )
            kwargs[name] = value
        return cls(scenario=scenario, **kwargs)

    # ------------------------------------------------------------------
    # Canonical form and content hash
    # ------------------------------------------------------------------
    def canonical_json(self) -> str:
        """The canonical v1 serialisation: every field materialised
        (defaults included, ``None`` explicit), keys sorted, compact
        separators, version stamped.  This exact string is what
        :meth:`digest` hashes — and what the golden-file test pins."""
        scenario = {
            "name": self.scenario.name,
            "description": self.scenario.description,
            "protocol": asdict(self.scenario.protocol),
            "start": asdict(self.scenario.start),
            "scheduler": asdict(self.scenario.scheduler),
            "phases": [
                {"run" if isinstance(p, RunPhase) else "fault": asdict(p)}
                for p in self.scenario.phases
            ],
            "timeline": [asdict(epoch) for epoch in self.scenario.timeline],
        }
        payload = {
            "version": JOBSPEC_VERSION,
            "mode": self.mode,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "engine": self.engine,
            "backend": self.backend,
            "max_events": self.max_events,
            "max_interactions": self.max_interactions,
            "trace": self.trace,
            "scenario": scenario,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def canonical(self) -> Dict[str, object]:
        """The canonical form as plain JSON-safe data (tuples already
        lists) — ``JobSpec.from_dict`` accepts it unchanged."""
        return json.loads(self.canonical_json())

    def digest(self) -> str:
        """Hex SHA-256 of the canonical form: the content-addressed
        cache key.  The seed is part of the canonical form, so the
        digest alone identifies ``(canonical_jobspec, seed)``."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Legacy adapters
    # ------------------------------------------------------------------
    @classmethod
    def from_legacy_kwargs(cls, **kwargs) -> "JobSpec":
        """Build a simulate-mode spec from the historical flag surface.

        Accepts the vocabulary of ``repro simulate`` / the declarative
        subset of ``run_protocol``: ``protocol`` (kind name), ``n``,
        ``start``, ``k``, ``m``, ``seed``, ``engine``, ``backend``,
        ``max_interactions``, ``max_events``, ``trace``.  A
        ``DeprecationWarning`` fires only on genuinely conflicting
        combinations (an ignored ``k``, a backend the chosen engine
        cannot use) — plain legacy calls stay silent.
        """
        known = (
            "protocol", "n", "start", "k", "m", "seed", "engine",
            "backend", "max_interactions", "max_events", "trace",
        )
        for key in kwargs:
            if key not in known:
                raise JobSpecError(
                    f"unknown legacy kwarg (known: {list(known)})",
                    field=str(key),
                )
        kind = kwargs.get("protocol", "tree")
        n = kwargs.get("n", 100)
        start_name = kwargs.get("start", "random")
        k = kwargs.get("k")
        engine = kwargs.get("engine", "jump")
        backend = kwargs.get("backend", "python")
        if start_name not in _LEGACY_STARTS:
            raise JobSpecError(
                f"unknown start {start_name!r}; expected one of "
                f"{sorted(_LEGACY_STARTS)}",
                field="start",
            )
        start_kind = _LEGACY_STARTS[start_name]
        if k is not None and start_kind != "k_distant":
            warnings.warn(
                f"k={k} conflicts with start={start_name!r} and is "
                "ignored; pass start='k-distant' to use it",
                DeprecationWarning,
                stacklevel=2,
            )
            k = None
        if engine == "sequential" and backend == "numpy":
            warnings.warn(
                "backend='numpy' applies to engine='jump' only; the "
                "sequential engine runs its scalar loop — dropping the "
                "backend override",
                DeprecationWarning,
                stacklevel=2,
            )
            backend = "python"
        try:
            protocol = ProtocolSpec(
                kind=kind, num_agents=n, m=kwargs.get("m")
            )
            start = StartSpec(kind=start_kind, k=k)
        except ExperimentError as error:
            raise JobSpecError(str(error), field="protocol") from error
        scenario = Scenario(
            name=f"simulate-{kind}-n{n}",
            protocol=protocol,
            phases=(RunPhase(until="silence"),),
            start=start,
        )
        return cls(
            scenario=scenario,
            mode="simulate",
            seed=kwargs.get("seed", 0),
            engine=engine,
            backend=backend,
            max_events=kwargs.get("max_events"),
            max_interactions=kwargs.get("max_interactions"),
            trace=bool(kwargs.get("trace", False)),
        )

    def to_run_kwargs(self) -> Dict[str, object]:
        """Expand a simulate-mode spec into ``run_protocol(**kwargs)``.

        Reproduces the legacy CLI path exactly: the protocol is built
        from the spec, the start configuration is drawn from a fresh
        generator seeded with the integer seed (the same seeding the
        old ``repro simulate`` used), and the remaining kwargs feed
        ``run_protocol`` verbatim — so re-routed entry points produce
        bit-identical trajectories.
        """
        if self.mode != "simulate":
            raise JobSpecError(
                "to_run_kwargs applies to simulate mode; scenario mode "
                "runs through run_scenario/run_campaign",
                field="mode",
            )
        protocol = self.scenario.protocol.build()
        return {
            "protocol": protocol,
            "configuration": self.start_configuration(protocol),
            "seed": self.seed,
            "engine": self.engine,
            "max_interactions": self.max_interactions,
            "max_events": self.max_events,
            "backend": self.backend,
        }

    def start_configuration(self, protocol):
        """The spec's start configuration against a built protocol.

        Seeding matches the legacy CLI: kinds that draw randomness get
        a fresh generator from the integer seed (independent of the run
        stream, which ``run_protocol`` seeds separately).
        """
        return self.scenario.start.build(protocol, self.seed)

    @classmethod
    def from_campaign(
        cls,
        campaign_id: str,
        scale: str = "smoke",
        seed: int = 0,
        repetitions: Optional[int] = None,
        max_events: Optional[int] = None,
        trace: bool = False,
    ) -> "JobSpec":
        """A scenario-mode spec for one catalogued campaign at a scale.

        This is the spec ``repro scenario run`` and the ensemble runner
        build internally — the ensemble manifest records its digest so
        a resume can refuse a directory produced by a different spec.
        """
        from .scenarios.catalog import get_campaign

        campaign = get_campaign(campaign_id)
        if repetitions is None:
            repetitions = campaign.repetitions_for(scale)
        return cls(
            scenario=campaign.build(scale),
            mode="scenario",
            seed=seed,
            repetitions=repetitions,
            max_events=max_events,
            trace=trace,
        )


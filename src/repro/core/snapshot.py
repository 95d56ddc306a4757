"""Engine checkpoints: plain-data snapshots with exact resumption.

An :class:`EngineSnapshot` captures everything an engine needs to
continue a run bit-for-bit — the counts, the interaction/event
counters, the epoch cursor, the exact bit-generator state, and any
buffered batched draws — while staying **compiled-index-free**: no
Fenwick trees, transition programs, or family objects are serialised.
Restoration reuses the engines' in-place ``resync(counts)`` fault seam,
so restoring never recompiles anything the constructor did not already
build.

The exactness contract (property-tested in
``tests/property/test_prop_snapshot.py``):

* ``snapshot()`` first *canonicalises* the live sampler through the
  resync seam — the same legal re-partition the fast loops already
  perform periodically, so the step distribution is untouched — and
  then captures plain data.  At a recorder-free ``run()`` boundary the
  engine is already canonical, making ``snapshot()`` state-preserving
  there: ``run → continue`` and ``run → snapshot → restore → continue``
  produce identical trajectories and final counts.
* After manual ``step()`` driving the sampler may hold a drifted
  (history-dependent) partition; ``snapshot()`` canonicalises it, so
  the engine that took the snapshot and any engine restored from it
  still continue identically to *each other*.

Snapshots are picklable and JSON-serialisable (:meth:`~EngineSnapshot.to_dict`
/ :meth:`~EngineSnapshot.from_dict` — numpy bit-generator states are
plain nested dicts of ints, and Python floats round-trip JSON exactly).
The ``repro serve`` runner parks a paused simulate job as such a dict,
held in memory until the job resumes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError

__all__ = ["EngineSnapshot", "resume_engine"]

#: Snapshot schema version — bumped on any incompatible field change.
SNAPSHOT_VERSION = 2

_KINDS = ("jump", "sequential", "scheduled", "agent", "weighted", "batch")

#: Fields every snapshot dict must carry.
_REQUIRED = (
    "kind", "num_states", "num_agents", "counts", "interactions", "events",
)
_INT = ((int, np.integer), "an int")
_NUMBER = ((int, float, np.integer, np.floating), "a number")
#: Scalar fields and the type each holds.
_SCALARS = {
    "version": _INT,
    "kind": ((str,), "a string"),
    "rng_state": ((dict,), "a dict"),
    **dict.fromkeys(
        ("num_states", "num_agents", "interactions", "events",
         "uniform_pos", "epoch", "start_events", "start_interactions",
         "next_predicate_check"),
        _INT,
    ),
}
#: Fields stored as tuples, and the type of their elements
#: (``agent_states`` may also be ``None``).
_TUPLES = {
    "counts": _INT, "uniforms": _NUMBER, "raws": _INT,
    "pair_buffer": _INT, "accepts": _NUMBER, "agent_states": _INT,
}


def _check_type(key: str, value, expected, what: str = "") -> None:
    """Raise :class:`SimulationError` naming ``key`` unless ``value`` has
    the ``(types, description)`` type ``expected`` (never a bool)."""
    types, name = expected
    if not isinstance(value, types) or isinstance(value, bool):
        raise SimulationError(
            f"snapshot field {key!r} {what}must be {name}, got "
            f"{type(value).__name__}"
        )


@dataclass(frozen=True)
class EngineSnapshot:
    """Plain-data checkpoint of a running engine.

    Only the ``kind``-relevant fields are populated; the rest keep
    their defaults.  All fields are built-in scalars, tuples, or dicts
    of ints — nothing compiled, nothing holding object references.
    """

    kind: str
    num_states: int
    num_agents: int
    counts: Tuple[int, ...]
    interactions: int
    events: int
    #: Full ``rng.bit_generator.state`` dict (includes the generator name).
    rng_state: Dict = field(default_factory=dict)
    #: Buffered float-uniform batch (jump/weighted engines). Empty means
    #: exhausted — the next draw refills from the restored stream.
    uniforms: Tuple[float, ...] = ()
    uniform_pos: int = 0
    #: Remaining buffered 64-bit raws (stored as the unconsumed tail).
    raws: Tuple[int, ...] = ()
    #: Remaining buffered ordered-pair draws, flattened (sequential family).
    pair_buffer: Tuple[int, ...] = ()
    #: Remaining buffered acceptance uniforms (rejection engines).
    accepts: Tuple[float, ...] = ()
    #: Explicit per-agent states (sequential family only).
    agent_states: Optional[Tuple[int, ...]] = None
    # Epoch cursor (scheduled/weighted engines).
    epoch: int = 0
    start_events: int = 0
    start_interactions: int = 0
    next_predicate_check: int = 0
    version: int = SNAPSHOT_VERSION

    def to_dict(self) -> Dict:
        """JSON-safe dict (tuples become lists; ints stay exact)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "EngineSnapshot":
        """Inverse of :meth:`to_dict`; coerces sequences back to tuples.

        A damaged dict fails with :class:`SimulationError` naming the
        field: an unknown key, a missing required field, a scalar of
        the wrong type (``kind`` is a string, ``rng_state`` a dict,
        every other scalar an int), or a tuple field that is not a
        sequence or holds an element of the wrong type.
        """
        data = dict(data)
        version = data.get("version", SNAPSHOT_VERSION)
        _check_type("version", version, _INT)
        if version != SNAPSHOT_VERSION:
            raise SimulationError(
                f"snapshot version {version} is not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        known = {f.name for f in fields(cls)}
        unknown = [key for key in data if key not in known]
        if unknown:
            raise SimulationError(
                "snapshot has unknown field(s) "
                + ", ".join(repr(key) for key in unknown)
            )
        for key in _REQUIRED:
            if key not in data:
                raise SimulationError(f"snapshot is missing field {key!r}")
        for key, value in data.items():
            if key in _SCALARS:
                _check_type(key, value, _SCALARS[key])
            elif not (key == "agent_states" and value is None):
                _check_type(key, value, ((list, tuple), "a sequence"))
                for item in value:
                    _check_type(key, item, _TUPLES[key], "element ")
                data[key] = tuple(value)
        return cls(**data)


def check_snapshot(
    snapshot: EngineSnapshot, kind: str, num_states: int, num_agents: int
) -> None:
    """Validate a snapshot against the engine about to adopt it."""
    if snapshot.kind != kind:
        raise SimulationError(
            f"snapshot of a {snapshot.kind!r} engine cannot restore a "
            f"{kind!r} engine"
        )
    if snapshot.num_states != num_states:
        raise SimulationError(
            f"snapshot has {snapshot.num_states} states, "
            f"engine has {num_states}"
        )
    if snapshot.num_agents != num_agents:
        raise SimulationError(
            f"snapshot has {snapshot.num_agents} agents, "
            f"engine has {num_agents}"
        )
    if len(snapshot.counts) != num_states:
        raise SimulationError(
            f"snapshot counts cover {len(snapshot.counts)} states, "
            f"engine has {num_states}"
        )
    if any(c < 0 for c in snapshot.counts):
        raise SimulationError("snapshot has negative counts")
    if sum(snapshot.counts) != num_agents:
        raise SimulationError(
            f"snapshot counts sum to {sum(snapshot.counts)}, "
            f"engine has {num_agents} agents"
        )
    if not snapshot.rng_state:
        raise SimulationError("snapshot carries no generator state")


def resume_engine(protocol, snapshot: EngineSnapshot, scheduler=None):
    """Build a fresh engine of ``snapshot.kind`` and restore it.

    The engine class is chosen by the snapshot's ``kind`` tag directly,
    not re-routed through :func:`~repro.core.engine.build_engine`, so a
    run resumes on the engine that took the snapshot (a rejection run
    started with ``engine="sequential"`` included).  Scheduled,
    agent, and weighted kinds need the original ``scheduler`` (or epoch
    timeline) object back; it is deliberately not serialised in the
    snapshot, which stays plain data.
    """
    # Local imports: snapshot.py sits below the engine modules.
    from .configuration import Configuration
    from .jump import JumpEngine
    from .scheduler import (
        AgentScheduledEngine,
        ScheduledEngine,
        WeightedScheduledEngine,
    )
    from .sequential import SequentialEngine

    if snapshot.kind not in _KINDS:
        raise SimulationError(
            f"unknown snapshot kind {snapshot.kind!r}; "
            f"expected one of {_KINDS}"
        )
    if protocol.num_states != snapshot.num_states:
        raise SimulationError(
            f"protocol has {protocol.num_states} states, "
            f"snapshot has {snapshot.num_states}"
        )
    if protocol.num_agents != snapshot.num_agents:
        raise SimulationError(
            f"protocol has {protocol.num_agents} agents, "
            f"snapshot has {snapshot.num_agents}"
        )
    configuration = Configuration(list(snapshot.counts))
    # Throwaway stream: restore() installs the captured state.
    rng = np.random.default_rng(0)
    if snapshot.kind == "jump":
        engine = JumpEngine(protocol, configuration, rng)
    elif snapshot.kind == "sequential":
        engine = SequentialEngine(protocol, configuration, rng)
    elif snapshot.kind == "batch":
        from .batch import BatchEngine

        engine = BatchEngine(protocol, configuration, rng)
    else:
        if scheduler is None:
            raise SimulationError(
                f"restoring a {snapshot.kind!r} engine needs the original "
                "scheduler (it is not part of the snapshot)"
            )
        if snapshot.kind == "scheduled":
            engine = ScheduledEngine(
                protocol, configuration, rng, scheduler,
                start_epoch=snapshot.epoch,
            )
        elif snapshot.kind == "agent":
            engine = AgentScheduledEngine(
                protocol, configuration, rng, scheduler
            )
        else:  # weighted
            engine = WeightedScheduledEngine(
                protocol, configuration, rng, scheduler,
                start_epoch=snapshot.epoch,
            )
    engine.restore(snapshot)
    return engine

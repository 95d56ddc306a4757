"""Pluggable pair-selection schedulers and the engines that honour them.

The paper's model fixes the *uniform* scheduler: every step draws one
ordered pair of distinct agents uniformly at random.  Self-stabilisation
claims, however, are often stressed under *adversarial* schedulers that
are still fair but bias which pairs meet (clustered populations, slow
links, starved states).  This module is the engine-side seam:

* :class:`PairScheduler` — a distribution over ordered agent pairs,
  expressed as a relative weight ``pair_weight(si, sj) ∈ (0, 1]`` on the
  *states* of the two agents (agents are anonymous, so state-level
  weights are fully general for count-based protocols);
* :class:`UniformScheduler` — the identity scheduler.  It is a pure
  sentinel: :func:`repro.core.engine.run_protocol` routes uniform runs
  to the allocation-free jump fast path, so selecting it costs nothing;
* :class:`WeightedScheduledEngine` — the **weighted jump fast path**: a
  geometric-jump engine over a
  :class:`~repro.core.fused.WeightedFusedIndex` — the uniform engine's
  composite-first fused layout with every slot scaled by its class
  factor (exact dyadic rationals), plus the scheduler's total step
  mass — run by the uniform engine's own fused jump loop, so biased
  runs sample productive steps directly instead of rejecting draw after
  draw;
* :class:`ScheduledEngine` — the rejection reference: a
  sequential-style engine that realises an arbitrary scheduler exactly
  by accepting uniform draws with probability ``pair_weight(si, sj)``.
  Cost per step is ``O(1/acceptance-rate)``; it remains the fallback
  for schedulers the weighted index cannot compile and the ground
  truth the weighted path is property-tested against;
* :class:`EpochScheduler` — a **time-varying** adversary: an ordered
  timeline of ``(boundary, PairScheduler)`` segments whose bias
  switches at boundaries on productive-event count, scheduler steps
  (simulated time), silence, or a configuration predicate.  Both biased
  engines accept it natively: the weighted engine precompiles one
  :class:`~repro.core.fused.WeightedFusedIndex` per distinct segment
  scheduler and hot-swaps via the in-place ``resync(counts)`` seam at
  each boundary, so every segment still runs at full jump speed;
* :class:`AgentScheduler` / :class:`AgentScheduledEngine` — adversaries
  biasing *agent identities* rather than states (targeted suppression,
  skewed contact rates).  Count-based engines cannot express these, so
  they run on the explicit-agent :class:`SequentialEngine` via the same
  rejection filter.

One rule picks the engine, applied by
:func:`repro.core.engine.build_engine` for every surface
(``run_protocol``, the scenario engine, ``repro serve``): a state-level
scheduler or timeline runs on the weighted engine whenever every
segment compiles into its index, and on the rejection engine otherwise
or when ``engine="sequential"`` asks for it.  Inside the weighted
engine a segment has one realisation: the fused jump loop shared with
:class:`~repro.core.jump.JumpEngine`, or the per-event loop while a
recorder watches.

The biased engines realise the identical step distribution: the
weighted index's slot weights use the dyadic numerators
``ceil(w·2⁵³)`` — exactly the acceptance probability the rejection
engine's 53-bit uniform threshold implements for a float weight ``w``.
Epoch switching preserves this: boundaries are stopping times of the
step process, and the geometric skip is memoryless, so clamping an
overshooting skip at a boundary and redrawing under the next segment's
weights is exact.

Concrete adversarial schedulers (state-biased, clustered, targeted,
degree-skewed) live in :mod:`repro.scenarios.schedulers`; anything
implementing the ABCs plugs in through the same
``run_protocol(..., scheduler=...)`` hook.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SimulationError
from .configuration import Configuration
from .draws import DrawStream
from .engine import Event, Recorder, checked_counts
from .fused import (
    WEIGHT_DENOMINATOR,
    WeightedFusedIndex,
    WeightedIndexUnsupported,
    dyadic_weight_numerator,
)
from .jump import _compile_program, _run_fused
from .protocol import PopulationProtocol
from .sequential import SequentialEngine
from .snapshot import EngineSnapshot, check_snapshot

__all__ = [
    "AgentScheduledEngine",
    "AgentScheduler",
    "EpochBoundary",
    "EpochScheduler",
    "PairScheduler",
    "UniformScheduler",
    "ScheduledEngine",
    "WeightedScheduledEngine",
    "try_weighted_engine",
]

# Beyond this many weight classes the blocked index stops paying off
# (slots grow as classes², updates as classes); rejection takes over.
_MAX_CLASSES = 64
# Without declared classes they are derived from the dense weight
# matrix, which is O(num_states²) — only worth it for modest spaces.
_DENSE_CLASS_LIMIT = 2048
# Targets splice two 64-bit raws, which keeps rejection efficient while
# the step mass (at most 2⁵³·n²) stays below this bound.
_MAX_WEIGHTED_MASS = 1 << 126


class PairScheduler(ABC):
    """A fair scheduler biasing which ordered state pairs interact.

    ``pair_weight`` must return a relative selection weight in
    ``(0, 1]`` for every ordered state pair; the realised step
    distribution is proportional to it.  Weights of exactly zero would
    break fairness (a productive pair that can never fire stalls
    silence), so implementations must keep every weight positive.
    """

    #: Uniform schedulers short-circuit to the jump fast path.
    is_uniform: bool = False

    @property
    def name(self) -> str:
        """Short scheduler name used in results and tables."""
        return type(self).__name__

    @abstractmethod
    def pair_weight(self, initiator_state: int, responder_state: int) -> float:
        """Relative weight of an ordered state pair, in ``(0, 1]``."""

    def state_classes(self, num_states: int) -> Optional[List[int]]:
        """Partition of the state space under which weights are uniform.

        Returns one class id per state such that ``pair_weight(si, sj)``
        depends only on ``(class(si), class(sj))``, or ``None`` when no
        such partition is declared.  Concrete schedulers override this
        (per-state weights group by value, clustered schedulers return
        their cluster map); the weighted jump engine then compiles its
        index from class representatives without ever densifying the
        ``num_states²`` weight matrix.
        """
        return None

    def weight_matrix(self, num_states: int) -> np.ndarray:
        """Dense ``pair_weight`` table (engine precomputation)."""
        matrix = np.empty((num_states, num_states), dtype=np.float64)
        for si in range(num_states):
            for sj in range(num_states):
                matrix[si, sj] = self.pair_weight(si, sj)
        if matrix.min() <= 0.0 or matrix.max() > 1.0:
            raise SimulationError(
                f"{self.name}: pair weights must lie in (0, 1], got range "
                f"[{matrix.min()}, {matrix.max()}]"
            )
        return matrix


class UniformScheduler(PairScheduler):
    """The paper's scheduler: every ordered pair equally likely."""

    is_uniform = True

    def pair_weight(self, initiator_state: int, responder_state: int) -> float:
        return 1.0

    def state_classes(self, num_states: int) -> List[int]:
        return [0] * num_states


_BOUNDARY_KINDS = ("events", "interactions", "silence", "predicate")


@dataclass(frozen=True)
class EpochBoundary:
    """When one epoch segment ends and the next scheduler takes over.

    ``kind`` selects the trigger:

    * ``events`` — the segment ends after ``value`` *productive* events
      (counted from segment entry);
    * ``interactions`` — after ``value`` accepted scheduler steps, the
      simulated-time clock (parallel time is ``interactions / n``);
    * ``silence`` — when the population goes silent under the segment's
      scheduler (silence is scheduler-independent, so this matters for
      timelines whose later segments govern post-fault recovery);
    * ``predicate`` — when ``predicate(counts)`` first holds, checked
      every ``check_every`` productive events (the scenario layer's
      phase-stop machinery resolves named predicates into callables).
    """

    kind: str
    value: Optional[int] = None
    predicate: Optional[Callable[[Sequence[int]], bool]] = None
    check_every: int = 1024

    def __post_init__(self) -> None:
        if self.kind not in _BOUNDARY_KINDS:
            raise SimulationError(
                f"unknown epoch boundary kind {self.kind!r}; expected one "
                f"of {_BOUNDARY_KINDS}"
            )
        if self.kind in ("events", "interactions"):
            if self.value is None or self.value < 1:
                raise SimulationError(
                    f"epoch boundary on {self.kind} needs value >= 1, "
                    f"got {self.value}"
                )
        if self.kind == "predicate":
            if self.predicate is None:
                raise SimulationError(
                    "epoch boundary on predicate needs a predicate callable"
                )
            if self.check_every < 1:
                raise SimulationError(
                    f"check_every must be >= 1, got {self.check_every}"
                )


class EpochScheduler:
    """A time-varying adversary: an ordered timeline of scheduler segments.

    ``segments`` is a sequence of ``(boundary, scheduler)`` pairs; every
    segment except the last needs an :class:`EpochBoundary` (the last
    one may carry ``None`` and runs forever).  Segment schedulers are
    ordinary :class:`PairScheduler` instances — uniform segments are
    allowed and stay exact.

    The timeline itself is immutable and engine-independent: epoch
    progress (which segment is active) lives in the engine, so one
    ``EpochScheduler`` can drive many engines concurrently.  Boundary
    durations (``events`` / ``interactions``) count from segment entry.
    """

    #: Epoch timelines never short-circuit to the uniform fast path.
    is_uniform: bool = False

    def __init__(
        self,
        segments: Sequence[Tuple[Optional[EpochBoundary], PairScheduler]],
        name: Optional[str] = None,
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        segments = tuple(
            (boundary, scheduler) for boundary, scheduler in segments
        )
        if not segments:
            raise SimulationError("EpochScheduler needs at least one segment")
        for index, (boundary, scheduler) in enumerate(segments):
            if not isinstance(scheduler, PairScheduler):
                raise SimulationError(
                    f"epoch segment {index} scheduler must be a "
                    f"PairScheduler, got {type(scheduler).__name__}"
                )
            if boundary is None and index != len(segments) - 1:
                raise SimulationError(
                    f"epoch segment {index} has no boundary but is not "
                    "the last segment"
                )
        if labels is not None and len(labels) != len(segments):
            raise SimulationError(
                f"epoch timeline has {len(segments)} segments but "
                f"{len(labels)} labels"
            )
        self.segments = segments
        self._name = name
        self._labels = tuple(labels) if labels is not None else None

    @property
    def name(self) -> str:
        """Short timeline name used in results and tables."""
        if self._name is not None:
            return self._name
        inner = "->".join(s.name for _, s in self.segments)
        return f"epoch({inner})"

    @property
    def num_epochs(self) -> int:
        return len(self.segments)

    def schedulers(self) -> List[PairScheduler]:
        """The segment schedulers, in timeline order."""
        return [scheduler for _, scheduler in self.segments]

    def segment_label(self, index: int) -> str:
        """Human-readable name of one segment (its label, else the
        segment scheduler's name) — what results and tables print."""
        if self._labels is not None and self._labels[index]:
            return self._labels[index]
        return self.segments[index][1].name


class _EpochCursor:
    """Engine-side epoch bookkeeping, shared by both biased engines.

    Tracks which segment is active and the counter values at segment
    entry, so boundary durations are relative to the segment.  Keeping
    the logic in one place is what makes the rejection engine an exact
    reference for the weighted one: both consult the same cursor
    semantics (``met`` / ``caps`` / ``advance``).
    """

    __slots__ = ("segments", "epoch", "start_events", "start_interactions",
                 "next_predicate_check")

    def __init__(
        self,
        scheduler: Union[PairScheduler, EpochScheduler],
        start_epoch: int = 0,
    ) -> None:
        if isinstance(scheduler, EpochScheduler):
            self.segments = scheduler.segments
        else:
            self.segments = ((None, scheduler),)
        if not 0 <= start_epoch < len(self.segments):
            raise SimulationError(
                f"start_epoch {start_epoch} outside timeline of "
                f"{len(self.segments)} segment(s)"
            )
        self.epoch = start_epoch
        self.start_events = 0
        self.start_interactions = 0
        self.next_predicate_check = 0

    @property
    def last(self) -> bool:
        return self.epoch == len(self.segments) - 1

    @property
    def boundary(self) -> Optional[EpochBoundary]:
        return self.segments[self.epoch][0]

    @property
    def scheduler(self) -> PairScheduler:
        return self.segments[self.epoch][1]

    def met(self, events: int, interactions: int, counts, silent: bool) -> bool:
        """Has the current (non-final) segment's boundary been reached?

        Predicate boundaries are evaluated every ``check_every``
        productive events, with the window tracked *here* so the
        weighted engine and the rejection reference fire the boundary
        at the identical evaluation points regardless of how their
        loops chunk the run (a negative evaluation schedules the next
        one — this method is deliberately stateful for that kind).
        """
        if self.last:
            return False
        boundary = self.segments[self.epoch][0]
        if boundary is None:
            return False
        if boundary.kind == "events":
            return events - self.start_events >= boundary.value
        if boundary.kind == "interactions":
            return interactions - self.start_interactions >= boundary.value
        if boundary.kind == "silence":
            return silent
        if events < self.next_predicate_check:
            return False
        if boundary.predicate(counts):
            return True
        self.next_predicate_check = events + boundary.check_every
        return False

    def caps(
        self,
        events: int,
        interactions: int,
        max_interactions: Optional[int],
        max_events: Optional[int],
    ) -> Tuple[Optional[int], Optional[int]]:
        """Effective ``(max_interactions, max_events)`` for one chunk.

        Clamps the caller's budgets to the current segment's boundary
        (or its predicate check window), so the engine's single-segment
        loop can run at full speed between boundary checks.
        """
        boundary = self.segments[self.epoch][0]
        if self.last or boundary is None or boundary.kind == "silence":
            return max_interactions, max_events
        if boundary.kind == "events":
            seg = self.start_events + boundary.value
            max_events = seg if max_events is None else min(max_events, seg)
        elif boundary.kind == "interactions":
            seg = self.start_interactions + boundary.value
            max_interactions = (
                seg if max_interactions is None
                else min(max_interactions, seg)
            )
        elif boundary.kind == "predicate":
            seg = max(self.next_predicate_check, events + 1)
            max_events = seg if max_events is None else min(max_events, seg)
        return max_interactions, max_events

    def advance(self, events: int, interactions: int) -> PairScheduler:
        """Enter the next segment; returns its scheduler."""
        self.epoch += 1
        self.start_events = events
        self.start_interactions = interactions
        # A fresh segment's predicate (if any) is checked immediately.
        self.next_predicate_check = events
        return self.segments[self.epoch][1]


def _drive_epoch_timeline(
    engine,
    run_segment: Callable[[Optional[int], Optional[Recorder], Optional[int]], bool],
    max_interactions: Optional[int],
    recorder: Optional[Recorder],
    max_events: Optional[int],
) -> bool:
    """The epoch-driver loop shared by both biased engines.

    Alternates boundary checks / epoch advances with budget-clamped
    chunks of ``run_segment`` (the engine's single-scheduler loop).
    Living in one place is what keeps the rejection engine an *exact*
    reference for the weighted one: any change to the boundary
    semantics applies to both by construction.
    """
    cursor = engine._cursor
    silent = False
    while True:
        if engine._boundary_met():
            engine._advance_epoch()
            continue
        cap_interactions, cap_events = cursor.caps(
            engine.events, engine.interactions, max_interactions, max_events
        )
        silent = run_segment(cap_interactions, recorder, cap_events)
        if silent:
            if engine._boundary_met():
                # A silence (or satisfied-predicate) boundary fires on
                # the way out; the remaining timeline segments matter
                # to callers injecting faults afterwards.
                engine._advance_epoch()
                continue
            break
        if max_events is not None and engine.events >= max_events:
            break
        if (
            max_interactions is not None
            and engine.interactions >= max_interactions
        ):
            break
        # Otherwise only a segment cap was hit; loop to re-check the
        # boundary and advance.
    return silent


def _normalise_classes(raw: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Renumber class ids by first occurrence; returns (map, representatives)."""
    remap: Dict[int, int] = {}
    class_of: List[int] = []
    reps: List[int] = []
    for state, cls in enumerate(raw):
        idx = remap.get(cls)
        if idx is None:
            idx = len(reps)
            remap[cls] = idx
            reps.append(state)
        class_of.append(idx)
    return class_of, reps


def _derive_classes(
    scheduler: PairScheduler, num_states: int
) -> Tuple[List[int], List[int]]:
    """State classes for a scheduler, declared or matrix-derived.

    Raises :class:`~repro.core.fused.WeightedIndexUnsupported` when the
    class structure cannot be obtained at acceptable cost.
    """
    declared = scheduler.state_classes(num_states)
    if declared is not None:
        if len(declared) != num_states:
            raise SimulationError(
                f"{scheduler.name}: state_classes returned "
                f"{len(declared)} entries for {num_states} states"
            )
        class_of, reps = _normalise_classes(declared)
    else:
        if num_states > _DENSE_CLASS_LIMIT:
            raise WeightedIndexUnsupported(
                f"{scheduler.name} declares no state classes and the "
                f"state space ({num_states}) is too large to derive them "
                "from the dense weight matrix"
            )
        matrix = scheduler.weight_matrix(num_states)
        # States with identical rows *and* columns are interchangeable:
        # the weight of any block pair is then constant.
        keys = [
            (matrix[s].tobytes(), np.ascontiguousarray(matrix[:, s]).tobytes())
            for s in range(num_states)
        ]
        remap: Dict[object, int] = {}
        raw: List[int] = []
        for key in keys:
            raw.append(remap.setdefault(key, len(remap)))
        class_of, reps = _normalise_classes(raw)
    if len(reps) > _MAX_CLASSES:
        raise WeightedIndexUnsupported(
            f"{scheduler.name} induces {len(reps)} weight classes "
            f"(cap {_MAX_CLASSES}); falling back to rejection"
        )
    return class_of, reps


class WeightedScheduledEngine:
    """Geometric-jump engine for biased schedulers (no rejection loop).

    Same run/step/recorder interface as the other engines.  Conditioned
    on the configuration, a scheduler step is *productive* with
    probability ``W_w / T_w`` where ``W_w`` is the weighted productive
    mass (the fused index total) and ``T_w`` the weighted mass of all
    ordered agent pairs — both exact integers maintained incrementally —
    so null steps collapse into a geometric skip exactly as in the
    uniform jump chain, and the productive pair itself is drawn from
    the weighted index in one ``find``.  That index is the uniform
    engine's fused layout with every slot scaled by its class factor
    (:class:`~repro.core.fused.WeightedFusedIndex`), and recorder-free
    segments run the uniform engine's fused jump loop on it
    (``repro.core.jump._run_fused``): the same draw, find, decode and
    update path, and the same compiled transition programs, cached per
    index as a pair dict plus a dense same-state list.  The index has
    no proposal pool, so the loop never sprints on it.  ``step()`` and
    the recorder loop read their transitions from the same cache.

    Accepts an :class:`EpochScheduler` natively: one
    :class:`~repro.core.fused.WeightedFusedIndex` is precompiled per
    *distinct* segment scheduler, and epoch boundaries hot-swap the
    active index via the in-place ``resync(counts)`` seam — no
    recompilation, every segment runs the full-speed jump loop.
    ``start_epoch`` resumes a timeline mid-way (the scenario engine uses
    it to carry the epoch across churn-induced engine rebuilds; the
    current segment's elapsed duration restarts with the new engine's
    counters).

    Raises :class:`~repro.core.fused.WeightedIndexUnsupported` when any
    scheduler/protocol combination cannot be compiled exactly;
    :func:`~repro.core.engine.build_engine` then falls back to the
    rejection engine.  A population whose step mass ``2⁵³·n²`` reaches
    ``2¹²⁶`` raises :class:`~repro.exceptions.SimulationError`, as
    :class:`~repro.core.jump.JumpEngine` does past ``n(n−1) = 2⁶²``:
    the loop's two-raw targets stay efficient only below it.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng: np.random.Generator,
        scheduler: Union[PairScheduler, EpochScheduler],
        start_epoch: int = 0,
        instrumentation=None,
    ) -> None:
        protocol.validate_configuration(configuration)
        n = protocol.num_agents
        if WEIGHT_DENOMINATOR * n * n >= _MAX_WEIGHTED_MASS:
            raise SimulationError(
                f"population {n} too large for exact weighted pair sampling"
            )
        self._protocol = protocol
        self._scheduler = scheduler
        # Optional telemetry bag (see repro.obs); the segment loops
        # flush chunk-level deltas, never per-event increments.
        self._instr = instrumentation
        self.counts: List[int] = configuration.counts_list()
        self._num_states = protocol.num_states
        self.interactions = 0
        self.events = 0
        self._cursor = _EpochCursor(scheduler, start_epoch=start_epoch)
        families = protocol.build_families(self.counts)
        # Deduplicate on the *derived* (classes, dyadic matrix): the
        # scenario layer builds a fresh scheduler object per timeline
        # segment, so value-equal segments (the common "flip back"
        # pattern) must still share one compiled index.  Each index
        # comes with its own program caches, a pair dict plus a dense
        # same-state list (slot ids and classes are per index).
        compiled: Dict[tuple, Tuple[WeightedFusedIndex, dict, list]] = {}
        self._segments: List[Tuple[WeightedFusedIndex, dict, list]] = []
        for _, segment_scheduler in self._cursor.segments:
            class_of, reps = _derive_classes(
                segment_scheduler, self._num_states
            )
            matrix = [
                [
                    dyadic_weight_numerator(
                        segment_scheduler.pair_weight(ri, rj)
                    )
                    for rj in reps
                ]
                for ri in reps
            ]
            key = (
                tuple(class_of),
                tuple(tuple(row) for row in matrix),
            )
            if key not in compiled:
                compiled[key] = (
                    WeightedFusedIndex(
                        families,
                        self._num_states,
                        self.counts,
                        class_of,
                        matrix,
                    ),
                    {},
                    [None] * self._num_states,
                )
            self._segments.append(compiled[key])
        self._index, self._pair_table, self._ss_progs = (
            self._segments[self._cursor.epoch]
        )
        self._draws = DrawStream(rng, uniforms=True)

    @property
    def scheduler(self) -> Union[PairScheduler, EpochScheduler]:
        """The scheduler (or epoch timeline) this engine realises."""
        return self._scheduler

    @property
    def epoch(self) -> int:
        """Index of the active timeline segment (0 for plain schedulers)."""
        return self._cursor.epoch

    @property
    def current_scheduler(self) -> PairScheduler:
        """The segment scheduler currently driving pair selection."""
        return self._cursor.scheduler

    def _advance_epoch(self) -> None:
        """Enter the next segment, hot-swapping its precompiled index."""
        self._cursor.advance(self.events, self.interactions)
        segment = self._segments[self._cursor.epoch]
        swapped = segment[0] is not self._index
        if swapped:
            # The incoming index went stale while another segment ran;
            # one in-place resync from the live counts revalidates it.
            segment[0].resync(self.counts)
            self._index, self._pair_table, self._ss_progs = segment
        if self._instr is not None:
            self._instr.add("epoch_switches")
            if swapped:
                self._instr.add("resyncs")
            self._instr.mark(
                "epoch_switch",
                epoch=self._cursor.epoch,
                events=self.events,
                interactions=self.interactions,
            )

    def _boundary_met(self) -> bool:
        return self._cursor.met(
            self.events, self.interactions, self.counts,
            self._index.total == 0,
        )

    @property
    def productive_weight(self) -> int:
        """Weighted mass of productive ordered pairs (scaled by 2⁵³)."""
        return self._index.total

    def total_mass(self) -> int:
        """Weighted mass of all ordered pairs (scaled by 2⁵³)."""
        return self._index.total_mass()

    def is_silent(self) -> bool:
        """True iff no productive interaction exists."""
        return self._index.total == 0

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _transition(self, si: int, sj: int) -> tuple:
        """``(ti, tj, ops, ...)`` for a productive pair, from the active
        index's program cache."""
        table = self._pair_table
        entry = table.get(si * self._num_states + sj)
        if entry is None:
            entry = _compile_program(self._protocol, self._index, si, sj)
            table[si * self._num_states + sj] = entry
        return entry

    def _apply_ops(self, ops) -> None:
        counts = self.counts
        index = self._index
        for state, delta in ops:
            old = counts[state]
            new = old + delta
            if new < 0:
                raise SimulationError(
                    f"state {state} count went negative applying transition"
                )
            counts[state] = new
            index.apply_count_change(state, old, new)
            index.add_class_count(state, delta)

    def reset_configuration(self, configuration) -> None:
        """Adopt an externally mutated configuration mid-run.

        Fault-injection seam mirroring the other engines: the *active*
        weighted index is resynced in place from the new counts (slot
        layouts are count-independent); counters, the epoch cursor, the
        program caches, and the generator stream are preserved.
        Inactive segment indexes stay stale — the epoch swap resyncs the
        incoming index anyway.
        """
        counts = checked_counts(
            configuration, self._num_states, self._protocol.num_agents
        )
        self.counts = counts
        self._index.resync(counts)
        if self._instr is not None:
            self._instr.add("resyncs")
            self._instr.mark(
                "resync", events=self.events, interactions=self.interactions
            )

    def snapshot(self) -> EngineSnapshot:
        """Plain-data checkpoint for bit-exact resumption.

        Resyncs the active weighted index first (deterministic — no
        randomness is consumed), then captures counts, counters, the
        epoch cursor, and the exact generator state.
        """
        self._index.resync(self.counts)
        if self._instr is not None:
            self._instr.add("snapshots")
            self._instr.mark(
                "snapshot", events=self.events, interactions=self.interactions
            )
        cursor = self._cursor
        return EngineSnapshot(
            kind="weighted",
            num_states=self._num_states,
            num_agents=self._protocol.num_agents,
            counts=tuple(self.counts),
            interactions=self.interactions,
            events=self.events,
            **self._draws.capture(),
            epoch=cursor.epoch,
            start_events=cursor.start_events,
            start_interactions=cursor.start_interactions,
            next_predicate_check=cursor.next_predicate_check,
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Adopt a snapshot in place; continues bit-for-bit.

        The segment indices stay as compiled at construction — only the
        incoming epoch's index is resynced from the restored counts
        (the epoch hot-swap seam); the rest resync at their swap, like
        in an uninterrupted run.
        """
        check_snapshot(
            snapshot, "weighted", self._num_states,
            self._protocol.num_agents,
        )
        cursor = self._cursor
        if not 0 <= snapshot.epoch < len(cursor.segments):
            raise SimulationError(
                f"snapshot epoch {snapshot.epoch} outside timeline of "
                f"{len(cursor.segments)} segment(s)"
            )
        self.counts = [int(c) for c in snapshot.counts]
        cursor.epoch = snapshot.epoch
        cursor.start_events = snapshot.start_events
        cursor.start_interactions = snapshot.start_interactions
        cursor.next_predicate_check = snapshot.next_predicate_check
        self._index, self._pair_table, self._ss_progs = (
            self._segments[snapshot.epoch]
        )
        self._index.resync(self.counts)
        self.interactions = snapshot.interactions
        self.events = snapshot.events
        self._draws.restore(snapshot)
        if self._instr is not None:
            self._instr.add("restores")
            self._instr.mark(
                "restore", events=self.events, interactions=self.interactions
            )

    def step(self) -> Optional[Event]:
        """Advance to (and apply) the next productive interaction.

        Epoch boundaries already met are crossed first; a geometric
        skip overshooting an ``interactions`` boundary clamps there and
        redraws under the next segment (exact, by memorylessness).
        Predicate boundaries are evaluated every ``check_every``
        productive events — the window lives in the cursor, so run- and
        step-driven execution (and both engines) fire them identically.
        """
        while self._boundary_met():
            self._advance_epoch()
        index = self._index
        weight = index.total
        if weight == 0:
            return None
        skip = self._draws.geometric_skip(weight / index.total_mass())
        boundary = self._cursor.boundary
        if (
            not self._cursor.last
            and boundary is not None
            and boundary.kind == "interactions"
        ):
            limit = self._cursor.start_interactions + boundary.value
            if self.interactions + skip > limit:
                self.interactions = limit
                self._advance_epoch()
                return self.step()
        self.interactions += skip
        si, sj = index.sample(self._draws.rand_below)
        ti, tj, ops = self._transition(si, sj)[:3]
        self._apply_ops(ops)
        self.events += 1
        return Event(self.interactions, si, sj, ti, tj)

    def _run_segment(
        self,
        max_interactions: Optional[int],
        recorder: Optional[Recorder],
        max_events: Optional[int],
    ) -> bool:
        """One epoch-segment chunk: the shared fused jump loop on the
        active index, or the per-event loop when a recorder watches."""
        events0 = self.events
        interactions0 = self.interactions
        if recorder is None:
            name = "weighted_events"
            index = self._index
            silent = _run_fused(
                self, index, index.total_mass(), max_interactions, max_events
            )
        else:
            name = "slow_events"
            silent = self._run_segment_slow(
                max_interactions, recorder, max_events
            )
        if self._instr is not None:
            # Flush this chunk's event delta under the loop that ran it.
            events = self.events - events0
            self._instr.add_counters(
                events=events,
                interactions=self.interactions - interactions0,
                **{name: events},
            )
        return silent

    def _run_segment_slow(
        self,
        max_interactions: Optional[int],
        recorder: Optional[Recorder],
        max_events: Optional[int],
    ) -> bool:
        """The per-event single-scheduler jump loop (recorders)."""
        index = self._index
        draws = self._draws
        while True:
            weight = index.total
            if weight == 0:
                return True
            if max_events is not None and self.events >= max_events:
                return False
            if max_interactions is not None and self.interactions >= max_interactions:
                return False
            skip = draws.geometric_skip(weight / index.total_mass())
            if (
                max_interactions is not None
                and self.interactions + skip > max_interactions
            ):
                self.interactions = max_interactions
                return False
            self.interactions += skip
            si, sj = index.sample(draws.rand_below)
            ti, tj, ops = self._transition(si, sj)[:3]
            self._apply_ops(ops)
            self.events += 1
            if recorder is not None:
                recorder.on_event(
                    Event(self.interactions, si, sj, ti, tj), self.counts
                )

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent.

        ``interactions`` counts the scheduler's accepted steps (null
        ones included) — the same clock the rejection engine reports.
        A skip overshooting ``max_interactions`` (or an epoch boundary
        on interactions) clamps there without applying the pending
        event; at an epoch boundary the next draw then happens under
        the new segment's weights, which is exact because the geometric
        skip is memoryless.
        """
        if recorder is not None:
            recorder.on_start(self.counts)
        silent = _drive_epoch_timeline(
            self, self._run_segment, max_interactions, recorder, max_events
        )
        if recorder is not None:
            recorder.on_finish(silent, self.interactions, self.counts)
        return silent

    def configuration(self) -> Configuration:
        """Snapshot of the current configuration."""
        return Configuration(self.counts)


def try_weighted_engine(
    protocol: PopulationProtocol,
    configuration: Configuration,
    rng: np.random.Generator,
    scheduler: Union[PairScheduler, EpochScheduler],
    start_epoch: int = 0,
    instrumentation=None,
) -> Optional[WeightedScheduledEngine]:
    """Weighted jump engine, or ``None`` when its index cannot compile.

    Callers fall back to the rejection :class:`ScheduledEngine`, which
    handles any scheduler/protocol combination.  For an epoch timeline,
    *every* segment scheduler must compile — a single unsupported
    segment sends the whole timeline to the rejection engine, so the
    step distribution never changes mid-run for engine reasons.
    """
    try:
        return WeightedScheduledEngine(
            protocol, configuration, rng, scheduler, start_epoch=start_epoch,
            instrumentation=instrumentation,
        )
    except WeightedIndexUnsupported:
        return None


class ScheduledEngine(SequentialEngine):
    """Per-interaction rejection engine honouring an arbitrary scheduler.

    Extends :class:`~repro.core.sequential.SequentialEngine` (explicit
    agent identities, same run/recorder interface) with a rejection
    filter on the uniform pair stream: each candidate pair is accepted
    with probability ``scheduler.pair_weight(si, sj)``, so accepted
    draws — the steps this engine counts — follow the scheduler's
    distribution exactly.  Cost per step is ``O(1/acceptance-rate)``;
    budgets (``max_interactions`` / ``max_events``) remain the guard
    against schedulers that slow convergence arbitrarily.  The weighted
    jump engine above is the fast path; this engine is the obviously
    correct reference and the fallback for exotic schedulers.

    Accepts an :class:`EpochScheduler` through the same seam as the
    weighted engine: one dense weight matrix is precomputed per
    distinct segment scheduler and the active matrix swaps at each
    boundary (the same :class:`_EpochCursor` semantics, step by step —
    which is what makes this the exact reference for the weighted
    engine's epoch hot-swap).
    """

    snapshot_kind = "scheduled"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng: np.random.Generator,
        scheduler: Union[PairScheduler, EpochScheduler],
        start_epoch: int = 0,
        instrumentation=None,
    ) -> None:
        super().__init__(
            protocol, configuration, rng, instrumentation=instrumentation
        )
        self._scheduler = scheduler
        self._cursor = _EpochCursor(scheduler, start_epoch=start_epoch)
        # Value-level dedup (matrix bytes): value-equal segments built
        # as distinct objects by the scenario layer share one matrix.
        matrices: Dict[bytes, np.ndarray] = {}
        self._matrices: List[np.ndarray] = []
        for _, segment_scheduler in self._cursor.segments:
            matrix = segment_scheduler.weight_matrix(protocol.num_states)
            self._matrices.append(
                matrices.setdefault(matrix.tobytes(), matrix)
            )
        self._weights = self._matrices[self._cursor.epoch]

    @property
    def scheduler(self) -> Union[PairScheduler, EpochScheduler]:
        """The scheduler (or epoch timeline) this engine realises."""
        return self._scheduler

    @property
    def epoch(self) -> int:
        """Index of the active timeline segment (0 for plain schedulers)."""
        return self._cursor.epoch

    @property
    def current_scheduler(self) -> PairScheduler:
        """The segment scheduler currently driving pair selection."""
        return self._cursor.scheduler

    def _advance_epoch(self) -> None:
        self._cursor.advance(self.events, self.interactions)
        self._weights = self._matrices[self._cursor.epoch]
        if self._instr is not None:
            self._instr.add("epoch_switches")
            self._instr.mark(
                "epoch_switch",
                epoch=self._cursor.epoch,
                events=self.events,
                interactions=self.interactions,
            )

    def _boundary_met(self) -> bool:
        return self._cursor.met(
            self.events, self.interactions, self.counts, self.is_silent()
        )

    def _next_pair(self) -> tuple:
        """One *accepted* ordered pair of distinct agent indices."""
        weights = self._weights
        states = self.agent_states
        draws = self._draws
        while True:
            a, b = draws.next_pair()
            if draws.next_accept() < weights[states[a], states[b]]:
                return a, b

    def _snapshot_fields(self) -> dict:
        cursor = self._cursor
        return {
            "epoch": cursor.epoch,
            "start_events": cursor.start_events,
            "start_interactions": cursor.start_interactions,
            "next_predicate_check": cursor.next_predicate_check,
        }

    def _restore_fields(self, snapshot: EngineSnapshot) -> None:
        cursor = self._cursor
        if not 0 <= snapshot.epoch < len(cursor.segments):
            raise SimulationError(
                f"snapshot epoch {snapshot.epoch} outside timeline of "
                f"{len(cursor.segments)} segment(s)"
            )
        cursor.epoch = snapshot.epoch
        cursor.start_events = snapshot.start_events
        cursor.start_interactions = snapshot.start_interactions
        cursor.next_predicate_check = snapshot.next_predicate_check
        self._weights = self._matrices[snapshot.epoch]

    def step(self) -> Optional[Event]:
        """One accepted scheduler step under the active epoch segment."""
        while self._boundary_met():
            self._advance_epoch()
        return super().step()

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent."""
        if recorder is not None:
            recorder.on_start(self.counts)
        events0 = self.events
        interactions0 = self.interactions
        accepts0 = self._draws.accepts_consumed()
        silent = _drive_epoch_timeline(
            self, self._run_loop, max_interactions, recorder, max_events
        )
        if self._instr is not None:
            # Every accepted step is one consumed threshold; the rest
            # were rejections of the uniform candidate stream.
            tests = self._draws.accepts_consumed() - accepts0
            self._instr.add_counters(
                events=self.events - events0,
                interactions=self.interactions - interactions0,
                accept_tests=tests,
                accept_rejects=tests - (self.interactions - interactions0),
            )
        if recorder is not None:
            recorder.on_finish(silent, self.interactions, self.counts)
        return silent


class AgentScheduler(ABC):
    """A fair scheduler biasing which *agents* (by identity) interact.

    State-level schedulers cannot express adversaries that care about
    identity — a jammed sensor that is rarely scheduled regardless of
    its state, or a contact graph where some agents are hubs.  An
    ``AgentScheduler`` assigns each agent a selection weight in
    ``(0, 1]``; an ordered pair ``(a, b)`` of distinct agents fires
    with relative weight ``agent_weight(a) · agent_weight(b)``
    (initiator and responder drawn independently under the same bias).

    Count-based engines collapse agent identities away, so these
    schedulers run on the explicit-agent
    :class:`~repro.core.sequential.SequentialEngine` via
    :class:`AgentScheduledEngine` — an exact rejection filter, the same
    construction as :class:`ScheduledEngine` one level down.  Weights
    must stay strictly positive: fairness (and therefore the
    self-stabilisation contract) survives arbitrary slow-down but not
    starvation.
    """

    #: Agent schedulers never short-circuit to the uniform fast path.
    is_uniform: bool = False

    @property
    def name(self) -> str:
        """Short scheduler name used in results and tables."""
        return type(self).__name__

    @abstractmethod
    def agent_weight(self, agent: int, num_agents: int) -> float:
        """Relative selection weight of one agent, in ``(0, 1]``."""

    def weight_vector(self, num_agents: int) -> np.ndarray:
        """Dense per-agent weight table (engine precomputation)."""
        weights = np.empty(num_agents, dtype=np.float64)
        for agent in range(num_agents):
            weights[agent] = self.agent_weight(agent, num_agents)
        if weights.min() <= 0.0 or weights.max() > 1.0:
            raise SimulationError(
                f"{self.name}: agent weights must lie in (0, 1], got range "
                f"[{weights.min()}, {weights.max()}]"
            )
        return weights


class AgentScheduledEngine(SequentialEngine):
    """Rejection engine honouring an agent-identity scheduler.

    Each uniform candidate pair ``(a, b)`` is accepted with probability
    ``agent_weight(a) · agent_weight(b)``, so accepted steps follow the
    agent-level distribution exactly.  Agent identities are positional:
    agent ``i`` is the ``i``-th slot of the explicit agent array (the
    initial configuration lays agents out in state order; faults through
    ``reset_configuration`` relabel states but keep the weights attached
    to positions, which is the point — the adversary targets devices,
    not their current memory).
    """

    snapshot_kind = "agent"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng: np.random.Generator,
        scheduler: AgentScheduler,
        instrumentation=None,
    ) -> None:
        super().__init__(
            protocol, configuration, rng, instrumentation=instrumentation
        )
        self._scheduler = scheduler
        self._agent_weights = scheduler.weight_vector(protocol.num_agents)

    @property
    def scheduler(self) -> AgentScheduler:
        """The agent scheduler this engine realises."""
        return self._scheduler

    def _next_pair(self) -> tuple:
        """One *accepted* ordered pair of distinct agent indices."""
        weights = self._agent_weights
        draws = self._draws
        while True:
            a, b = draws.next_pair()
            if draws.next_accept() < weights[a] * weights[b]:
                return a, b

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent."""
        interactions0 = self.interactions
        accepts0 = self._draws.accepts_consumed()
        silent = super().run(max_interactions, recorder, max_events)
        if self._instr is not None:
            tests = self._draws.accepts_consumed() - accepts0
            self._instr.add_counters(
                accept_tests=tests,
                accept_rejects=tests - (self.interactions - interactions0),
            )
        return silent

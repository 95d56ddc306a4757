"""Exact jump-chain simulation of the random pairwise scheduler.

The naive scheduler draws ``T = n(n−1)`` equally likely ordered agent
pairs per step and most draws are null.  Conditioned on the current
configuration, the number of steps until the next *productive*
interaction is geometric with success probability ``p = W/T`` (``W`` =
current number of productive ordered pairs), and the productive pair
itself is uniform over the ``W`` possibilities.  The jump engine samples
exactly that: a geometric skip via inverse-CDF from a uniform, then a
weighted pair draw.  The resulting joint distribution of (trajectory,
interaction counts) is identical to the naive process — there is no
approximation.  Under a biased scheduler (see
:mod:`~repro.core.scheduler`) ``W`` and ``T`` become the scheduler's
class-scaled masses of the productive and of all ordered pairs, and
the same engine samples the same two steps.

Hot-path layout
---------------

The engine compiles the protocol's weight families into one
:class:`~repro.core.fused.FusedIndex` — a single flat integer weight
index over all productive pair slots.  The index accepts exactly the
three family shapes of :mod:`~repro.core.families`, so a protocol with
any other family type fails at construction (it runs with
``engine="sequential"``), and the engine never rebuilds its index:
faults, snapshots, restores and the exit of each uniform ``run()``
canonicalise it with one in-place resync.  The engine runs the index
through the fused jump loop, :func:`_run_fused`, which samples a
productive ordered pair with one Fenwick ``find`` (the residual target
decodes within-slot draws; no per-family dispatch) and updates weights
through precompiled per-state plans with O(1)-amortised slot deltas.
Given a scheduler, the engine compiles one class-scaled
:class:`~repro.core.fused.WeightedFusedIndex` per distinct timeline
segment instead (``WeightedScheduledEngine`` names the same class),
and the same loop runs every segment on the active one: its few
biased-only branches (two-raw targets, the scaled slot codes, the
step-mass update after a class move) are ones the uniform index never
enters.  The fused loop is the index's one realisation: ``step()`` is
one call of it for one event, and a recorder or ``debug`` mode runs it
one event per call.  The loop keeps its state on the engine between
calls, so those runs follow the recorder-free trajectory.
The uniform index is *hybrid*: same-state slots whose counts sit in the
classifier's window pool their mass into a proposal pseudo-slot served
by O(1) agent-proposal rejection (and O(1) member moves on update),
while the rest keep the Fenwick walk.  When the pool holds every
remaining unit of weight — the steady state of same-state-heavy drains
like the §4 line — the loop *sprints*: the routed target draw is
skipped and the loop enters the pool's one proposal block directly.
A transition whose product slots all weigh zero skips the refresh pass
(its product steps collapse to a stale-mark), and the dominant −1/+1
transfer becomes a single flat re-label.
The protocol's transition function is precompiled into lookup tables
(per-state for same-state-only protocols, a lazily filled per-pair dict
of update programs otherwise) so the inner loop never re-sums family
weights or re-enters ``delta()``; ``delta`` must therefore be a pure
function.  A compiled program is plain integer data — the transition's
``(state, delta)`` ops, the composite slot ids to refresh, the sprint
guard's ``(slot, initiator delta)`` pairs, the transfer shortcut and the
class moves — and so are the index's per-state plans it runs through
(``state_steps``, a plain list laid out for every state at the index's
first compile): each plan step names its structure by slot and its
position there as an offset from its state, and the loop reaches
payloads and side trees through the index's ``slot_kind``/
``slot_payload`` lists.  Every state of one run of consecutive members
shares its plan, so the §5 tree has two.  Each index has its own
program cache, a pair dict plus a dense same-state list.  A same-state
program keeps absolute states.  A cross-state program names its pair by
the codes -1 and -2, which the loop resolves against the pair it drew,
so one program serves every pair with the same plans and coded targets
(:func:`_compile_program`).  A §5 reset storm fills tens of thousands
of pair keys with a few dozen such programs: a miss costs one ``delta``
call and a lookup, and only a new key compiles.  ``run()`` calls the
loop with the cyclic garbage collector paused
(:func:`~repro.core.fused.collector_paused`), so what the loop
allocates meets one young pass after it instead of many during it.

For protocols whose productive pairs are all same-state (every
state-optimal protocol in the paper), the recorder-free ``run()``
additionally dispatches between two exact samplers:

* a *proposal* sampler — draw a uniform agent (state ``s`` w.p.
  ``c_s/n``), accept with probability ``(c_s − 1)/M̂`` where ``M̂`` is an
  upper bound on the maximum count, yielding state ``s`` with
  probability exactly ``c_s(c_s − 1)/W``.  O(1) per proposal, efficient
  while the configuration is far from silent;
* a *count-bucket* sampler for the low-acceptance drain toward
  silence — bucket ``c`` lists the rule states holding exactly ``c ≥ 2``
  agents, and a Fenwick tree over the count axis weighs it by
  ``|B_c|·c(c−1)``.  One exact target in ``[0, W)`` walks the axis to a
  bucket and its residual divided by ``c(c−1)`` picks the state, so a
  draw costs ``O(log max count)`` rather than ``O(log N)``: near
  silence few states hold two agents or more, and none holds many.
  An event that moves one agent from the drawn state (count ``c``) to
  a rule state holding ``c − 1`` is a *count swap*: the two counts
  trade places, ``W`` and the axis stay, and the loop edits the two
  buckets in place with no axis update — nearly every event of a ring
  of traps' k-distant drain.  Its periodic acceptance re-test scans the
  counts for their maximum only when the switch could pass with the top
  non-empty bucket, a lower bound on that maximum, in its place.

Both are exact, so the engine switches between them adaptively (with
hysteresis) based on the acceptance rate ``W/(n·M̂)``.

All pair draws use exact integer rejection sampling from batched 64-bit
draws (:class:`~repro.core.draws.DrawStream`), so selection is unbiased
for any ``W < 2^62``.  Cost is
``O(log N)`` (or amortised O(1)) per *productive* event, independent of
how many null interactions are skipped, which is what makes the paper's
``Θ(n²)``-interaction protocols simulatable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import SimulationError
from .configuration import Configuration
from .draws import BATCH, RAW_SPAN, DrawStream
from .engine import Event, Recorder, checked_counts
from .families import SameStatePairs
from .fenwick import fill_tree
from .fused import (
    PRODUCT,
    PROPOSAL,
    SAME,
    SCALED,
    SCANNED,
    TRIANGULAR,
    WEIGHT_DENOMINATOR,
    _RECLASSIFY_EVENTS,
    FusedIndex,
    WeightedFusedIndex,
    _ProductSlot,
    collector_paused,
    dyadic_weight_numerator,
)
from .protocol import PopulationProtocol
from .snapshot import EngineSnapshot, check_snapshot

if TYPE_CHECKING:  # the scheduler module imports this one
    from .scheduler import EpochScheduler, PairScheduler

__all__ = ["JumpEngine"]

# Above this bound rejection sampling from 64-bit draws gets inefficient
# (and the float64 geometric-skip probability loses resolution).
_MAX_EXACT = 1 << 62
# Class-scaled targets splice two 64-bit raws, which keeps rejection
# efficient while the step mass (at most 2⁵³·n²) stays below this bound.
_MAX_WEIGHTED_MASS = 1 << 126

# How often (in productive events) the fast loop recomputes the exact
# maximum count and re-evaluates its sampler choice.
_REFRESH_EVENTS = 8192

# A pool draw burning more proposals than this signals a degraded
# acceptance bound (a member count drifted far from m̂ since the last
# partition) and forces an immediate reclassification — rate-limited by
# a cooldown so a structurally poor regime cannot thrash the O(n) pass.
_RECLASSIFY_PROPOSALS = 32
_RECLASSIFY_COOLDOWN = 64

# Exclusive bound of a target spliced from two raws (class-scaled
# weights carry the 2⁵³ dyadic scale).
_WIDE_SPAN = RAW_SPAN * RAW_SPAN
# The interactions cap of a run without one: no clock reaches it.
_NO_CAP = 1 << 128

# A same-state transition's net effect: ((state, count_delta, weight
# coefficient), ...) — the coefficient is count_delta for states whose
# (s, s) pair is a rule and 0 otherwise, so the productive-weight change
# of moving a count c0 → c1 is coefficient · (c0 + c1 − 1).
_Ops = Tuple[Tuple[int, int, int], ...]


def _transition_ops(si: int, sj: int, ti: int, tj: int):
    """Net per-state count changes of one transition, deduplicated.

    Nonzero changes only, each state once, in the order its state first
    appears among ``si, sj, ti, tj``.  The few overlap shapes resolve
    branch-wise: a miss of the fused loop's program cache pays for this
    call, and a dict over the four states cost several times as much.
    """
    if si == sj:
        if ti == tj:
            return () if ti == si else ((si, -2), (ti, 2))
        if ti == si:
            return ((si, -1), (tj, 1))
        if tj == si:
            return ((si, -1), (ti, 1))
        return ((si, -2), (ti, 1), (tj, 1))
    if ti == si:
        if tj == sj:
            return ()
        if tj == si:
            return ((si, 1), (sj, -1))
        return ((sj, -1), (tj, 1))
    if ti == sj:
        if tj == si:
            return ()
        if tj == sj:
            return ((si, -1), (sj, 1))
        return ((si, -1), (tj, 1))
    if tj == si:
        return ((sj, -1), (ti, 1))
    if tj == sj:
        return ((si, -1), (ti, 1))
    if tj == ti:
        return ((si, -1), (sj, -1), (ti, 2))
    return ((si, -1), (sj, -1), (ti, 1), (tj, 1))


def _compile_program(
    protocol: PopulationProtocol, fused: FusedIndex, si: int, sj: int
) -> tuple:
    """``(ti, tj, ops, refresh, prods, transfer, moves)`` — the program
    of the pair ``(si, sj)`` on ``fused``.

    ``ops`` is the program body, ``((state, delta), …)``, which the
    fused loop applies through each state's plan in the index's
    ``state_steps``; the last four fields are the composite slots to
    refresh, the sprint guard, the transfer shortcut and the class moves
    (see :meth:`~repro.core.fused.FusedIndex.compile_transition`).
    Every field is an int, ``None`` or a tuple of those, so a cached
    entry holds no reference the cyclic garbage collector has to follow.
    This runs once per miss of the fused loop's program cache, and
    calls ``delta`` once.

    A same-state pair compiles a program of its own, with absolute
    states.  A cross-state program names the initiator and the responder
    by the codes -1 and -2 wherever they appear, in ``ops``, in
    ``transfer`` and as ``ti`` or ``tj``, and the fused loop resolves
    them against the pair it drew.  Such a program is shared through
    the index's ``programs`` by every pair with the same plans and the
    same coded targets: it compiles only for a new key.  The key needs
    no classes: on a class-scaled index every composite slot lies in
    one class on each side, and a cross-state pair's two states feed
    the slot it was drawn from, so their plans name their classes.
    During a §5 reset storm the red R4 events pair line states with
    tens of thousands of ranks, and all of them resolve to a few dozen
    programs.
    """
    out = protocol.delta(si, sj)
    if out is None:
        raise SimulationError(
            f"families sampled null pair ({si}, {sj}) — "
            "family coverage does not match delta"
        )
    ti, tj = out
    if si == sj:
        ops = _transition_ops(si, si, ti, tj)
        return (ti, tj, ops) + fused.compile_transition(ops)
    ti = -1 if ti == si else -2 if ti == sj else ti
    tj = -1 if tj == si else -2 if tj == sj else tj
    steps = fused.plans()
    key = (steps[si], steps[sj], ti, tj)
    program = fused.programs.get(key)
    if program is None:
        ops = _transition_ops(-1, -2, ti, tj)
        program = fused.programs[key] = (
            (ti, tj, ops) + fused.compile_transition(ops, si, sj)
        )
    return program


def _fill_count_axis(axis: List[int], buckets: List[List[int]]) -> None:
    """(Re)fill the same-state loop's count-axis Fenwick tree in place.

    ``buckets[c]`` lists the rule states holding exactly ``c`` agents,
    and node ``c`` of ``axis`` weighs that bucket by ``|B_c|·c(c−1)``.
    ``len(buckets)`` is a power of two above every count.
    """
    fill_tree(axis, len(buckets), [
        len(bucket) * c * (c - 1) for c, bucket in enumerate(buckets)
    ][1:])


def _top_count(axis: List[int], weight: int) -> int:
    """The count of the top non-empty bucket on the count axis.

    The walk for the last unit of weight, target ``W − 1``, ends at the
    highest count whose bucket weighs anything; counts 0 and 1 weigh
    nothing.  ``O(log size)``.
    """
    pos = 0
    bit = (len(axis) - 1) >> 1
    target = weight - 1
    while bit:
        nxt = pos + bit
        below = axis[nxt]
        if below <= target:
            target -= below
            pos = nxt
        bit >>= 1
    return pos + 1


def _grow_count_axis(
    axis: List[int], buckets: List[List[int]], count: int
) -> int:
    """Double the count axis until it holds ``count``; returns its size.

    The bucket list and the tree are both rebuilt in place, so the
    loop's references to them stay valid.
    """
    while len(buckets) <= count:
        buckets.extend([[] for _ in buckets])
    _fill_count_axis(axis, buckets)
    return len(buckets)


class JumpEngine:
    """Drives one protocol run; create a new engine per run.

    Without a ``scheduler`` the engine realises the paper's uniform
    scheduler: an unscaled fused index with its proposal pool, plus the
    same-state table for protocols whose productive pairs are all
    same-state.  A :class:`~repro.core.scheduler.PairScheduler` or an
    :class:`~repro.core.scheduler.EpochScheduler` timeline makes it the
    *weighted* jump engine (``WeightedScheduledEngine`` is this class):
    a scheduler step is productive with probability ``W_w / T_w``,
    where ``W_w`` is the class-scaled productive mass (the index total)
    and ``T_w`` the scheduler's mass of all ordered agent pairs, both
    exact integers kept incrementally.  One class-scaled
    :class:`~repro.core.fused.WeightedFusedIndex` is compiled per
    *distinct* segment scheduler, with its own program caches, and an
    epoch boundary hot-swaps the active one through its in-place
    ``resync(counts)``.  ``start_epoch`` starts a timeline at a later
    segment (the scenario engine carries the epoch across churn
    rebuilds; the segment's elapsed duration restarts with the new
    engine's counters).  A scheduler whose classes the index cannot
    compile exactly raises
    :class:`~repro.core.fused.WeightedIndexUnsupported`, and
    :func:`~repro.core.engine.build_engine` then falls back to the
    rejection engine.

    ``debug=True`` runs ``run()`` on the fused loop one event per call,
    as a recorder does, and re-verifies after every productive event,
    of ``run()`` and of ``step()``, that the index total the loop keeps
    matches :meth:`recomputed_weight`.  At each canonical point (a
    uniform ``run()``'s exit, :meth:`snapshot` and an epoch swap) it
    also checks that the active index equals a fresh compile from the
    counts, field by field.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng: np.random.Generator,
        scheduler: Optional[Union[PairScheduler, EpochScheduler]] = None,
        start_epoch: int = 0,
        instrumentation=None,
        debug: bool = False,
    ) -> None:
        protocol.validate_configuration(configuration)
        n = protocol.num_agents
        if scheduler is None:
            if n * (n - 1) >= _MAX_EXACT:
                raise SimulationError(
                    f"population {n} too large for exact pair sampling"
                )
        elif WEIGHT_DENOMINATOR * n * n >= _MAX_WEIGHTED_MASS:
            raise SimulationError(
                f"population {n} too large for exact weighted pair sampling"
            )
        # Opt-in telemetry (repro.obs.Instrumentation).  The fast loops
        # account for it per chunk via batch-consumption arithmetic and
        # locals flushed at loop exit; counters never consume
        # randomness, so instrumented runs stay bit-identical.
        self._instr = instrumentation
        self._protocol = protocol
        self._scheduler = scheduler
        self._debug = bool(debug)
        self.counts: List[int] = configuration.counts_list()
        self._num_states = num_states = protocol.num_states
        self._total_pairs = n * (n - 1)
        self.interactions = 0
        self.events = 0
        # The fused loop's state between calls, and its last event (see
        # _run_fused); None drops the state.
        self._loop_state: Optional[tuple] = None
        self._last_event: Optional[tuple] = None
        self._cursor = None
        self._ss_table = self._ss_transfer = None
        if scheduler is not None:
            # Deferred: the scheduler module imports this one.
            from .scheduler import _derive_classes, _EpochCursor

            self._cursor = _EpochCursor(scheduler, start_epoch)
        # The families are compiled into the fused indexes and then only
        # serve as the structural description; all mutable sampling
        # state lives in the indexes.  Every compile pass allocates per
        # state, so the collector waits until construction ends.  Each
        # index comes with its own program caches, a pair dict plus a
        # dense same-state list (same-state draws dominate the hybrid
        # loop, and a list index beats hashing the pair key).
        with collector_paused():
            families = protocol.build_families(self.counts)
            if scheduler is None:
                self._segments = [(
                    FusedIndex(families, num_states, self.counts),
                    {}, [None] * num_states,
                )]
                self._ss_table, self._ss_transfer = (
                    self._compile_same_state_table(families)
                )
            else:
                # Deduplicate on the *derived* (classes, dyadic matrix):
                # the scenario layer builds a fresh scheduler object per
                # timeline segment, so value-equal segments (the common
                # "flip back" pattern) must still share one index.
                compiled: Dict[tuple, tuple] = {}
                self._segments = []
                for _, segment_scheduler in self._cursor.segments:
                    class_of, reps = _derive_classes(
                        segment_scheduler, num_states
                    )
                    matrix = tuple(
                        tuple(
                            dyadic_weight_numerator(
                                segment_scheduler.pair_weight(ri, rj)
                            )
                            for rj in reps
                        )
                        for ri in reps
                    )
                    key = (tuple(class_of), matrix)
                    if key not in compiled:
                        compiled[key] = (
                            WeightedFusedIndex(
                                families, num_states, self.counts,
                                class_of, matrix,
                            ),
                            {}, [None] * num_states,
                        )
                    self._segments.append(compiled[key])
        self._index, self._pair_table, self._ss_progs = (
            self._segments[self.epoch]
        )
        # Drawn only once every index compiled: a biased build that
        # raises WeightedIndexUnsupported leaves a shared generator
        # untouched for the rejection fallback.
        self._draws = DrawStream(rng, uniforms=True)
        # Mask of the states without a same-state rule (they carry no
        # weight and never enter a count bucket), built on the
        # same-state loop's first count-bucket entry.
        self._ss_idle: Optional[np.ndarray] = None

    def _compile_same_state_table(self, families):
        """Per-state transition table for same-state-only protocols,
        and its transfer list: ``(table, transfer)``.

        ``table[s]`` is ``(ti, tj, ops)`` for each state ``s`` with a
        same-state rule, where ``ops`` lists ``(state, count delta,
        weight coefficient)``: ``_transition_ops``'s net moves, and the
        coefficient is the delta for a state with a rule and 0 for one
        without (its count never weighs in ``W``).  A count move
        ``c0 → c1 = c0 + d`` changes ``c(c−1)`` by ``d·(c0 + c1 − 1)``.
        States without a rule keep ``None``.

        ``transfer[s]`` is the other state ``b`` of a rule
        ``(s, s) → (s, b)`` or ``(b, s)`` whose ``b`` has a rule too,
        and ``s`` itself for every other rule state.  Such a rule moves
        one agent from ``s`` to ``b``; when ``b`` holds one agent fewer
        than ``s``, the two counts trade places (a *count swap*), which
        the count-bucket loop serves without its op loop.  A state's
        own count never equals itself minus one, so ``s`` needs no
        separate "no transfer" test.  States without a rule hold -1;
        the loop never draws them.

        One pass over the rule states, with a byte mask for the rule
        test and the four same-state shapes of ``_transition_ops``
        inlined; the transfer target is one list write in that pass.
        A per-state generator over ``_transition_ops`` and a set of the
        rule states cost several times the ``delta`` calls: for the
        ring of traps at n = 90 300 (collector paused) that build took
        217 ms and this one takes 87 ms, 35 ms of it in ``delta``.

        Returns ``(None, None)`` when the protocol has cross-state
        families or (defensively) claims a same-state pair its
        ``delta`` reports as null — the general sampler then raises the
        coverage error lazily.
        """
        if len(families) != 1 or type(families[0]) is not SameStatePairs:
            return None, None
        rule_states = families[0].rule_states()
        is_rule = bytearray(self._num_states)
        for s in rule_states:
            is_rule[s] = 1
        delta = self._protocol.delta
        table: List[Optional[tuple]] = [None] * self._num_states
        transfer = [-1] * self._num_states
        for s in rule_states:
            out = delta(s, s)
            if out is None:
                return None, None
            ti, tj = out
            ops: _Ops
            if ti == tj:
                ops = () if ti == s else (
                    (s, -2, -2), (ti, 2, 2 * is_rule[ti])
                )
                transfer[s] = s
            elif ti == s:
                ops = ((s, -1, -1), (tj, 1, is_rule[tj]))
                transfer[s] = tj if is_rule[tj] else s
            elif tj == s:
                ops = ((s, -1, -1), (ti, 1, is_rule[ti]))
                transfer[s] = ti if is_rule[ti] else s
            else:
                ops = (
                    (s, -2, -2), (ti, 1, is_rule[ti]), (tj, 1, is_rule[tj])
                )
                transfer[s] = s
            table[s] = (ti, tj, ops)
        return table, transfer

    # ------------------------------------------------------------------
    # Scheduler, epochs and weight bookkeeping
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> Optional[Union[PairScheduler, EpochScheduler]]:
        """The scheduler (or epoch timeline) this engine realises;
        ``None`` for the uniform scheduler."""
        return self._scheduler

    @property
    def epoch(self) -> int:
        """Index of the active timeline segment (0 for plain schedulers)."""
        return 0 if self._cursor is None else self._cursor.epoch

    @property
    def current_scheduler(self) -> Optional[PairScheduler]:
        """The segment scheduler currently driving pair selection
        (``None`` under the uniform scheduler)."""
        return None if self._cursor is None else self._cursor.scheduler

    def _advance_epoch(self) -> None:
        """Enter the next segment, hot-swapping its precompiled index."""
        self._cursor.advance(self.events, self.interactions)
        segment = self._segments[self._cursor.epoch]
        swapped = segment[0] is not self._index
        if swapped:
            # The incoming index went stale while another segment ran;
            # one full in-place resync from the live counts revalidates
            # it.  The loop state belongs to the outgoing index.
            self._loop_state = None
            segment[0].live = False
            segment[0].resync(self.counts)
            self._index, self._pair_table, self._ss_progs = segment
            if self._debug:
                self._assert_canonical()
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
        """Productive mass of the active index (cached): the number of
        productive ordered pairs ``W``, or under a scheduler their
        class-scaled mass (scaled by 2⁵³)."""
        return self._index.total

    def total_mass(self) -> int:
        """Step mass of all ordered agent pairs: ``n(n−1)``, or under a
        scheduler its class-scaled mass (scaled by 2⁵³)."""
        if self._cursor is None:
            return self._total_pairs
        return self._index.total_mass()

    def recomputed_weight(self) -> int:
        """:attr:`productive_weight` recomputed independently (debug /
        test cross-check).

        Rebuilds the families from the live counts, so it checks the
        active index against an independent computation: the families'
        summed weights, or under a scheduler the total of a fresh
        class-scaled index for the active segment.
        """
        families = self._protocol.build_families(self.counts)
        if self._cursor is None:
            return sum(family.weight for family in families)
        return self._fresh_index(families).total

    def _fresh_index(self, families) -> FusedIndex:
        """The active index's layout compiled afresh from the counts."""
        index = self._index
        if self._cursor is None:
            return FusedIndex(families, self._num_states, self.counts)
        return WeightedFusedIndex(
            families, self._num_states, self.counts,
            index.class_of, index.class_matrix,
        )

    def _assert_weight_sync(self) -> None:
        recomputed = self.recomputed_weight()
        if self._index.total != recomputed:
            raise AssertionError(
                f"cached weight {self._index.total} != recomputed "
                f"{recomputed} after {self.events} events"
            )

    def _assert_canonical(self) -> None:
        """Debug check at a canonical point: the active index equals a
        fresh compile from the live counts, field by field."""
        fresh = self._fresh_index(self._protocol.build_families(self.counts))
        if self._index.sampling_state() != fresh.sampling_state():
            raise AssertionError(
                f"index differs from a fresh compile after {self.events} "
                "events"
            )

    def is_silent(self) -> bool:
        """True iff no productive interaction exists."""
        return self._index.total == 0

    def configuration(self) -> Configuration:
        """Snapshot of the current configuration."""
        return Configuration(self.counts)

    def reset_configuration(self, configuration) -> None:
        """Adopt an externally mutated configuration mid-run.

        This is the fault-injection seam used by the scenario engine:
        the population is corrupted *outside* the protocol's own
        dynamics, so the active index (and with it ``W``) is resynced in
        place from the new counts.  The compiled transition programs are
        count-independent and stay valid; the counters, the epoch cursor
        and the generator stream are deliberately preserved, so a run
        continues exactly where it left off.  Inactive segment indexes
        stay stale: the epoch swap resyncs the incoming one anyway.  The
        population size and state space must not change — churn
        rebuilds the engine instead.
        """
        self.counts = checked_counts(
            configuration, self._num_states, self._protocol.num_agents
        )
        self._loop_state = None
        self._index.live = False
        self._index.resync(self.counts)
        if self._instr is not None:
            self._instr.add("resyncs")
            self._instr.mark(
                "resync", events=self.events, interactions=self.interactions
            )

    def snapshot(self) -> EngineSnapshot:
        """Plain-data checkpoint for bit-exact resumption.

        Drops the fused loop's state and canonicalises the active index
        first with one in-place resync (see :mod:`repro.core.snapshot`
        for the exactness contract), then captures counts, counters, the
        epoch cursor of a biased engine, the exact bit-generator state
        and the unconsumed buffered draws.  A uniform engine writes a
        ``jump`` snapshot, a biased one a ``weighted`` snapshot.
        """
        self._loop_state = None
        self._index.resync(self.counts)
        if self._debug:
            self._assert_canonical()
        if self._instr is not None:
            self._instr.add("snapshots")
            self._instr.mark(
                "snapshot", events=self.events,
                interactions=self.interactions,
            )
        cursor = self._cursor
        return EngineSnapshot(
            kind="jump" if cursor is None else "weighted",
            num_states=self._num_states,
            num_agents=self._protocol.num_agents,
            counts=tuple(self.counts),
            interactions=self.interactions,
            events=self.events,
            **self._draws.capture(),
            **({} if cursor is None else cursor.capture()),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Adopt a snapshot in place; continues bit-for-bit.

        Reuses the ``resync`` fault seam, so nothing recompiles — the
        transition tables are count-independent and stay valid.  A
        biased engine adopts the snapshot's epoch and resyncs only that
        segment's index; the rest resync at their swap, as in an
        uninterrupted run.  Every field is checked before anything
        changes, so a refused snapshot leaves the engine as it was.
        """
        cursor = self._cursor
        check_snapshot(
            snapshot, "jump" if cursor is None else "weighted",
            self._num_states, self._protocol.num_agents,
            self._draws.rng.bit_generator,
        )
        if cursor is not None:
            # Checks the epoch before it changes anything.
            cursor.restore(snapshot)
            self._index, self._pair_table, self._ss_progs = (
                self._segments[cursor.epoch]
            )
        # The adopted counts are not the ones the index followed.
        self._index.live = False
        self.counts = [int(c) for c in snapshot.counts]
        self._loop_state = None
        self._index.resync(self.counts)
        self.interactions = snapshot.interactions
        self.events = snapshot.events
        self._draws.restore(snapshot)
        if self._instr is not None:
            self._instr.add("restores")
            self._instr.mark(
                "restore", events=self.events,
                interactions=self.interactions,
            )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Advance to (and apply) the next productive interaction.

        Returns ``None`` when the configuration is silent.  The event is
        one :func:`_run_fused` call of one event, which continues from
        the loop state the previous call left on the engine, so ``k``
        calls replay one ``k``-event call of the loop bit for bit.  The
        call runs with the cyclic collector on: a pause per event would
        cost the step-driven experiments more than the loop's compiles.
        Epoch boundaries already met are crossed first; a geometric skip
        overshooting an ``interactions`` boundary clamps there and
        redraws under the next segment.  Predicate boundaries are
        evaluated every ``check_every`` productive events — the window
        lives in the cursor, so run- and step-driven execution (and the
        rejection engine) fire them identically.
        """
        cursor = self._cursor
        while True:
            while cursor is not None and self._boundary_met():
                self._advance_epoch()
            if self._index.total == 0:
                return None
            cap = None
            if cursor is not None:
                cap = cursor.caps(self.events, self.interactions, None, None)[0]
            events = self.events
            interactions = self.interactions
            _run_fused(self, cap, events + 1)
            if self._instr is not None:
                self._instr.add_counters(
                    events=self.events - events,
                    interactions=self.interactions - interactions,
                    slow_events=self.events - events,
                )
            if self.events != events:
                if self._debug:
                    self._assert_weight_sync()
                return Event(self.interactions, *self._last_event)

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent.

        ``interactions`` counts the scheduler's steps, null ones
        included.  When the geometric skip would overshoot
        ``max_interactions`` (or an epoch boundary on interactions) the
        clock is clamped there and the pending productive event is
        *not* applied; at an epoch boundary the next draw happens under
        the new segment's weights, which is exact because the skip is
        memoryless.  A budget the clock has already reached draws
        nothing, so the clock never moves back.  ``max_events``
        additionally bounds the number of *productive* events — the
        engine's actual work — which is the effective guard for runs
        that churn without converging.

        A uniform run without a recorder, an interaction budget or
        ``debug`` mode on a same-state-only protocol takes the
        same-state loop; every other run takes the fused loop
        (:func:`_run_fused`), a biased one segment by segment.  A
        recorder or ``debug`` mode runs that loop one event per call,
        which continues the previous call's loop state, so the
        trajectory is the recorder-free one.  On exit the loop state is
        dropped, and a uniform run then canonicalises the index with
        one in-place resync and discards the buffered draws.  After the
        fused loop the index is live, so the resync rebuilds only the
        product sides the loop left stale and re-partitions the pool
        (nothing to do for an idle, empty pool); after the same-state
        loop it reloads in full.
        """
        cursor = self._cursor
        if recorder is not None:
            recorder.on_start(self.counts)
        if cursor is not None:
            silent = cursor.drive(
                self, self._run_segment, max_interactions, recorder,
                max_events,
            )
        elif (
            self._ss_table is not None and recorder is None
            and max_interactions is None and not self._debug
        ):
            silent = self._run_fast_same_state(max_events)
        else:
            silent = self._run_segment(max_interactions, recorder, max_events)
        self._loop_state = None
        if cursor is None:
            # Canonicalise the sampler at the run boundary: the pool
            # partition and any stale product sides drift with the
            # loop's history, so one in-place resync makes the post-run
            # state a pure function of the final counts — the same
            # re-partition the loop performs every
            # ``_RECLASSIFY_EVENTS``, and the contract the checkpoint
            # seam (``snapshot``/``restore``) relies on for
            # bit-identical resumption.  The same-state loop leaves the
            # index stale (not live), which the resync also repairs.
            self._index.resync(self.counts)
            if self._debug:
                self._assert_canonical()
            # Discard any shared buffered draws so the next run starts
            # from fresh batches of the (advanced) generator stream.
            self._draws.discard()
        if recorder is not None:
            recorder.on_finish(silent, self.interactions, self.counts)
        return silent

    def _run_segment(
        self,
        max_interactions: Optional[int],
        recorder: Optional[Recorder],
        max_events: Optional[int],
    ) -> bool:
        """One chunk under the active index: one fused-loop call, or one
        call per event with a recorder or in ``debug`` mode."""
        events0 = self.events
        interactions0 = self.interactions
        if recorder is None and not self._debug:
            with collector_paused():
                silent = _run_fused(self, max_interactions, max_events)
            name = None if self._cursor is None else "weighted_events"
        else:
            silent = self._run_events(max_interactions, recorder, max_events)
            name = "slow_events"
        if self._instr is not None:
            # Flush this chunk's event delta under the loop that ran it.
            events = self.events - events0
            self._instr.add_counters(
                events=events, interactions=self.interactions - interactions0
            )
            if name is not None:
                self._instr.add(name, events)
        return silent

    def _run_events(
        self,
        max_interactions: Optional[int],
        recorder: Optional[Recorder],
        max_events: Optional[int],
    ) -> bool:
        """The fused loop one event per call: recorders and debug mode."""
        while max_events is None or self.events < max_events:
            events = self.events
            silent = _run_fused(self, max_interactions, events + 1)
            if self.events == events:
                # Silent, or the interactions budget stopped the call.
                return silent
            if self._debug:
                self._assert_weight_sync()
            if recorder is not None:
                recorder.on_event(
                    Event(self.interactions, *self._last_event), self.counts
                )
        return self._index.total == 0

    # ------------------------------------------------------------------
    # The uniform same-state loop — no recorder, no interaction budget
    # ------------------------------------------------------------------
    def _run_fast_same_state(self, max_events: Optional[int]) -> bool:
        """Adaptive dual-sampler loop for same-state-only protocols.

        Alternates between the O(1) proposal sampler (efficient while
        the acceptance rate ``W/(n·M̂)`` is high) and the count-bucket
        sampler (efficient in the low-weight drain toward silence: a
        Fenwick walk over the count axis, then an O(1) pick within the
        bucket), with a 2× hysteresis band so mode switches — each O(n)
        to rebuild the active sampler's structure — stay rare.  The
        count axis doubles in place when a count outgrows it; that is
        not a mode switch.  Both samplers draw from the exact jump-chain
        distribution; only the constant factor differs.  The loop
        leaves the fused index stale, so it marks it not live for
        ``run()``'s exit resync to reload in full.

        In the bucket mode a *count swap* — the drawn state ``s`` (count
        ``c``) moves one agent to its transfer target ``b`` (see
        :meth:`_compile_same_state_table`) while ``b`` holds ``c − 1`` —
        trades the two counts, so ``W`` and the axis stay, and skips the
        op loop: in bucket ``c``, ``s``'s slot takes the last entry and
        ``b`` the last slot; for ``c > 2``, ``s`` takes ``b``'s slot in
        bucket ``c − 1``.  The buckets and ``where`` end exactly as the
        op loop's remove/append sequence leaves them, so every
        trajectory is the same.  Every ``_REFRESH_EVENTS`` events the
        bucket mode re-tests acceptance, ``4·W ≥ n·max(counts)``; the
        top non-empty bucket (one axis walk) bounds that maximum from
        below, so the O(n) ``max`` pass runs only when the test could
        pass with it.
        """
        self._index.live = False
        protocol = self._protocol
        draws = self._draws
        counts = self.counts
        table = self._ss_table
        transfer = self._ss_transfer
        num_states = self._num_states
        n = protocol.num_agents
        total_pairs = self._total_pairs
        log1p, ceil = math.log1p, math.ceil

        weight = self._index.total
        interactions = self.interactions
        events = self.events
        # max(0, ...): an already-exhausted budget must stop immediately,
        # not underflow past the -1 "unlimited" sentinel.
        remaining = -1 if max_events is None else max(0, max_events - events)
        # Telemetry: batch-refill tallies are unconditional (once per
        # 8192 draws); everything per-event or per-segment is gated on
        # `instr_on` and flushed once at loop exit.
        ins = self._instr
        instr_on = ins is not None
        events0 = events
        interactions0 = interactions
        nub = nrb = npb = 0
        c_pdisc = c_prop_events = c_fen_events = c_modes = c_swaps = 0

        # Skip draws are consumed as precomputed log(1-u): the geometric
        # inverse-CDF needs only ceil(log(1-u)/log(1-p)), and batching
        # the numerator log through numpy is ~3x cheaper than math.log
        # per event.  log(1-u) >= log(1-p) iff skip == 1.
        lus: List[float] = []
        upos = BATCH  # empty buffer — filled on first use
        raws: List[int] = []
        rpos = 0
        # log1p(-W/M) cached on W, as in `_run_fused`: a count swap
        # leaves W unchanged, so the drain mostly reuses it.
        lp = 0.0
        lp_weight = -1

        mhat = max(counts)  # upper bound on the maximum count
        while remaining != 0 and weight:
            if 4 * weight >= n * mhat:
                # ---- proposal sampler ------------------------------------
                # Agent identities are exchangeable: any assignment
                # consistent with the counts yields the exact law of the
                # counts process, so members lists are (re)built freely.
                agent_state = np.repeat(
                    np.arange(num_states), counts
                ).tolist()
                members: List[List[int]] = []
                next_id = 0
                for c in counts:
                    members.append(list(range(next_id, next_id + c)))
                    next_id += c
                # One draw v in [0, n*mhat) fuses the proposal with its
                # acceptance test: a = v // mhat is a uniform agent and
                # t = v % mhat an independent uniform threshold, so
                # accepting iff t < c_a - 1 hits state s with probability
                # exactly c_s(c_s - 1)/(n*mhat) — proportional to its
                # weight.  Batches are discarded whenever mhat changes.
                prop_bound = n * mhat
                demote_bound = (prop_bound + 7) // 8  # weight < this ⇔ 8W < n·mhat
                props: List[int] = []
                ppos = 0
                refresh = _REFRESH_EVENTS
                c_modes += 1
                seg0 = events
                while remaining != 0 and weight:
                    if weight < demote_bound:
                        break  # acceptance too low — switch to the buckets
                    if refresh == 0:
                        refresh = _REFRESH_EVENTS
                        exact_max = max(counts)
                        if exact_max != mhat:
                            mhat = exact_max
                            prop_bound = n * mhat
                            demote_bound = (prop_bound + 7) // 8
                            if instr_on:
                                c_pdisc += len(props) - ppos
                            ppos = len(props)
                    # Geometric skip.
                    if weight >= total_pairs:
                        interactions += 1
                    else:
                        if upos == BATCH:
                            lus = draws.log_uniform_batch()
                            upos = 0
                            nub += 1
                        lu = lus[upos]
                        upos += 1
                        if weight != lp_weight:
                            lp_weight = weight
                            lp = log1p(-weight / total_pairs)
                        if lu >= lp:
                            interactions += 1
                        else:
                            interactions += ceil(lu / lp)
                    # Propose until acceptance.
                    while True:
                        if ppos == len(props):
                            props = draws.integers(prop_bound).tolist()
                            ppos = 0
                            npb += 1
                        v = props[ppos]
                        ppos += 1
                        s = agent_state[v // mhat]
                        if v % mhat < counts[s] - 1:
                            entry = table[s]
                            if entry is not None:
                                break
                    ti, tj, ops = entry
                    for st, d, w in ops:
                        c0 = counts[st]
                        c1 = c0 + d
                        counts[st] = c1
                        if w:
                            weight += w * (c0 + c1 - 1)
                        if c1 > mhat:
                            mhat = c1
                            prop_bound = n * mhat
                            demote_bound = (prop_bound + 7) // 8
                            if instr_on:
                                c_pdisc += len(props) - ppos
                            ppos = len(props)
                    moved = members[s]
                    a1 = moved.pop()
                    a2 = moved.pop()
                    members[ti].append(a1)
                    agent_state[a1] = ti
                    members[tj].append(a2)
                    agent_state[a2] = tj
                    events += 1
                    remaining -= 1
                    refresh -= 1
                if instr_on:
                    c_prop_events += events - seg0
                    c_pdisc += len(props) - ppos
            else:
                # ---- count-bucket sampler --------------------------------
                # Bucket c lists the rule states holding exactly c ≥ 2
                # agents; ``where[s]`` is s's slot in its bucket, so a
                # removal is one swap with the last entry.
                if self._ss_idle is None:
                    self._ss_idle = np.array(
                        [entry is None for entry in table]
                    )
                live = np.flatnonzero(
                    (np.asarray(counts) >= 2) & ~self._ss_idle
                ).tolist()
                top = max([counts[s] for s in live])
                buckets: List[List[int]] = [
                    [] for _ in range(1 << top.bit_length())
                ]
                where = [0] * num_states
                for s in live:
                    bucket = buckets[counts[s]]
                    where[s] = len(bucket)
                    bucket.append(s)
                axis: List[int] = []
                _fill_count_axis(axis, buckets)
                size = len(buckets)
                refresh = _REFRESH_EVENTS
                c_modes += 1
                seg0 = events
                while remaining != 0 and weight:
                    if refresh == 0:
                        refresh = _REFRESH_EVENTS
                        # The top non-empty bucket bounds the maximum
                        # count from below, so the O(n) max pass runs
                        # only when the switch test can still pass.
                        if 4 * weight >= n * _top_count(axis, weight):
                            mhat = max(counts)
                            if 4 * weight >= n * mhat:
                                break  # acceptance recovered — switch back
                    # Geometric skip.
                    if weight >= total_pairs:
                        interactions += 1
                    else:
                        if upos == BATCH:
                            lus = draws.log_uniform_batch()
                            upos = 0
                            nub += 1
                        lu = lus[upos]
                        upos += 1
                        if weight != lp_weight:
                            lp_weight = weight
                            lp = log1p(-weight / total_pairs)
                        if lu >= lp:
                            interactions += 1
                        else:
                            interactions += ceil(lu / lp)
                    # Exact uniform target in [0, weight).
                    while True:
                        if rpos == len(raws):
                            raws = draws.raw_batch()
                            rpos = 0
                            nrb += 1
                        raw = raws[rpos]
                        rpos += 1
                        target = raw % weight
                        if raw - target <= RAW_SPAN - weight:
                            break
                    # The axis walk picks bucket c; the residual, in
                    # [0, |B_c|·c(c−1)), divided by c(c−1) picks the
                    # state.  Counts stay below ``size``, so the walk
                    # never reaches the root node (nor do the updates).
                    pos = 0
                    bit = size >> 1
                    while bit:
                        nxt = pos + bit
                        below = axis[nxt]
                        if below <= target:
                            target -= below
                            pos = nxt
                        bit >>= 1
                    pos += 1
                    bucket = buckets[pos]
                    s = bucket[target // (pos * (pos - 1))]
                    b = transfer[s]
                    if counts[b] == pos - 1:
                        # Count swap: s and b trade counts, so W, the
                        # axis and the multiset of counts stay.  The
                        # buckets end as the op loop's remove/append
                        # sequence leaves them: s's slot in bucket c
                        # takes the last entry, b the last slot, and s
                        # takes b's slot in bucket c − 1.
                        counts[s] = pos - 1
                        counts[b] = pos
                        slot = where[s]
                        end = len(bucket) - 1
                        last = bucket[end]
                        bucket[slot] = last
                        where[last] = slot
                        bucket[end] = b
                        if pos > 2:
                            slot = where[b]
                            buckets[pos - 1][slot] = s
                            where[s] = slot
                        where[b] = end
                        if instr_on:
                            c_swaps += 1
                        events += 1
                        remaining -= 1
                        refresh -= 1
                        continue
                    ti, tj, ops = table[s]
                    for st, d, w in ops:
                        c0 = counts[st]
                        c1 = c0 + d
                        counts[st] = c1
                        if w:
                            weight += w * (c0 + c1 - 1)
                            if c0 > 1:
                                bucket = buckets[c0]
                                last = bucket.pop()
                                if last != st:
                                    slot = where[st]
                                    bucket[slot] = last
                                    where[last] = slot
                                dw = c0 * (1 - c0)
                                node = c0
                                while node < size:
                                    axis[node] += dw
                                    node += node & -node
                            if c1 > 1:
                                if c1 >= size:
                                    size = _grow_count_axis(axis, buckets, c1)
                                bucket = buckets[c1]
                                where[st] = len(bucket)
                                bucket.append(st)
                                dw = c1 * (c1 - 1)
                                node = c1
                                while node < size:
                                    axis[node] += dw
                                    node += node & -node
                    events += 1
                    remaining -= 1
                    refresh -= 1
                if instr_on:
                    c_fen_events += events - seg0
            mhat = max(counts)

        self.interactions = interactions
        self.events = events
        if ins is not None:
            cu = nub * BATCH - (BATCH - upos) if nub else 0
            cr = nrb * BATCH - (len(raws) - rpos) if nrb else 0
            ins.add_counters(
                events=events - events0,
                interactions=interactions - interactions0,
                skip_draws=cu,
                raw_draws=cr,
                proposal_draws=npb * BATCH - c_pdisc,
                pool_draws=c_prop_events,
                proposal_mode_events=c_prop_events,
                fenwick_mode_events=c_fen_events,
                fenwick_finds=c_fen_events,
                swap_events=c_swaps,
                mode_switches=c_modes - 1 if c_modes else 0,
            )
        return weight == 0


def _run_fused(
    engine,
    max_interactions: Optional[int],
    max_events: Optional[int],
) -> bool:
    """The fused jump loop, shared by uniform and biased runs.

    Runs ``engine`` (a :class:`JumpEngine`) on its active index — the
    unscaled one or, under a scheduler, the active segment's
    class-scaled one — until silence, ``max_events`` or
    ``max_interactions``.  The geometric skip succeeds with probability
    ``W / M``, where ``M`` is the scheduler's step mass over all ordered
    agent pairs (``n(n−1)`` for the uniform scheduler).  A skip
    overshooting ``max_interactions`` clamps the clock there and drops
    the pending event; a cap at or behind the clock on entry draws
    nothing.  Returns True iff the configuration is silent.  From
    ``engine`` the loop reads the protocol, counts, draw stream,
    counters and telemetry bag, and the program caches of the index
    (the engine's ``_pair_table`` and ``_ss_progs``, swapped with it).

    One exact weighted draw per event resolves to a slot of the fused
    index (inlined Fenwick ``find``); the residual target decodes the
    within-slot pair, so same-state and product slots need no further
    randomness.  Draws landing in the proposal-pool pseudo-slot switch
    to O(1) agent-proposal rejection — the fast regime for
    same-state-heavy protocols like the §4 line, whose mass the Fenwick
    walk used to re-search on every event.  While the pool holds every
    remaining unit of weight the routed draw is skipped (the *sprint*)
    and the loop proposes directly.  Transitions execute as precompiled
    plain-integer programs ``(ti, tj, ops, refresh, prods, transfer,
    moves)``: each op runs its state's plan from ``fused.state_steps``
    (O(1) count moments for the reset line, a side-total move on a
    scanned product side, one-sided Fenwick writes on a tree side, O(1)
    member moves for pooled slots), followed by one deduplicated weight
    refresh per composite slot.  Plan steps are plain integers too; the
    loop reaches each step's payload (and a product step's side tree)
    through ``slot_payload[slot]``, and each refreshed slot through
    ``slot_kind``/``slot_payload`` — no per-event family dispatch
    anywhere.  A cross-state program names the drawn pair by the codes
    -1 (``si``) and -2 (``sj``): the loop maps a negative op state and
    ``ti``/``tj`` to ``si`` or ``sj``, and adds the resolved state to
    each positional step's offset (and a transfer's ``dst`` to its slot
    and node offsets).  It never takes a cross-state program's
    transfer: the ops of a pair drawn from a product touch that slot
    while its responder side is occupied, which fails the sprint
    guard, and a line pair has no guard.  The transfers it takes name
    absolute states.  Pair-table misses
    count as ``pair_fills``, and the programs they and the same-state
    misses compile as ``programs_compiled`` (see
    :func:`_compile_program`).  A transition whose product slots all
    weigh zero skips the refresh, and a −1/+1 move between two pool
    members is a single re-label.  The pool partition is re-evaluated
    every ``_RECLASSIFY_EVENTS`` so it tracks the drifting count
    profile.  ``run()`` makes its calls under
    :func:`~repro.core.fused.collector_paused`, so the containers the
    loop allocates (pool member lists, draw batches) wait for one young
    pass after it.

    A class-scaled index has no pool, so it never sprints.  Its weights
    carry the 2⁵³ dyadic scale, so each target splices two raws; its
    :data:`~repro.core.fused.SCALED` composite slots decode through
    their payloads and weigh with their factor, and its same-state steps
    carry their class factor.  A program whose ``moves`` shift agents
    between classes updates the class sums and recomputes the step
    mass.  The unscaled index meets none of these branches and
    multiplies no factor.

    The loop writes back the counters, the index total and its loop
    state, ``engine._loop_state``: the log-uniform and raw batches with
    their positions, the count bound ``gmax`` with its pending base
    ``gbase``, and the event counts of the next periodic re-partition
    and of the end of the acceptance trigger's cooldown.  The next call
    continues from that state, so ``k`` calls of one event each replay
    one call of ``k`` events bit for bit; the last event's ``(si, sj,
    ti, tj)`` is left in ``engine._last_event``.  Whatever else changes
    the counts or swaps the index drops the state (``None``), and the
    next call starts afresh: empty batches, a full period to the
    re-partition, and the count bound reset to a copy of the counts
    (``gbase``, whose maximum joins ``gmax`` at the first stale decode)
    — which keeps the bound above every count, as decoding a stale
    product side needs.  The pool partition and stale product sides the
    loop leaves behind are for the caller to canonicalise or keep.  The index's ``live`` flag is
    cleared while the loop runs and restored when it returns: a fault
    that escapes it leaves the counts, slot values and tree ahead of the
    total and the pool fields, which only a full reload repairs.
    """
    fused = engine._index
    live = fused.live
    fused.live = False
    draws = engine._draws
    counts = engine.counts
    protocol = engine._protocol
    tree = fused.tree
    values = fused.values
    num_composite = fused.num_composite
    fensize = fused.fenwick_size
    highbit = 1 << (fensize.bit_length() - 1) if fensize else 0
    slot_kind = fused.slot_kind
    slot_payload = fused.slot_payload
    plans = fused.state_steps
    num_states = engine._num_states
    pair_table = engine._pair_table
    ss_progs = engine._ss_progs
    log1p, ceil = math.log1p, math.ceil
    # A class-scaled index: two spliced raws per target, and class sums
    # for the step mass.
    wide = fused.class_of is not None
    span = _WIDE_SPAN if wide else RAW_SPAN
    if wide:
        class_counts = fused.class_counts
        row_dot = fused._row_dot
        mass = fused.total_mass()
    else:
        class_counts = row_dot = None
        mass = engine._total_pairs

    pool = fused.pool
    if pool is not None:
        pagents = pool.agents
        pwhere = pool.where
        ppositions = pool.positions
        pslot = pool.slot
    else:
        pagents = pwhere = ppositions = None
        pslot = -1

    weight = fused.total
    interactions = engine.interactions
    events = engine.events
    events0 = events
    # Event-count schedules instead of per-event countdowns: the loop
    # stops at `stop` events (-1: no budget; an exhausted budget stops
    # at once), re-partitions at `reclassify_at`, and the acceptance
    # trigger below may force an early pass once `events` reaches
    # `cooldown_end`.
    stop = -1 if max_events is None else max(events, max_events)
    icap = _NO_CAP if max_interactions is None else max_interactions
    if interactions >= icap:
        # An interactions cap at or behind the clock: draw nothing.
        stop = events
    # Batched draws: log(1-u) skip numerators through numpy, raw 64-bit
    # integers for exact weighted targets and pool proposals; a batch
    # position of BATCH refills before the next read.  `gmax` bounds
    # every state count — the acceptance bound for decoding stale
    # product sides by rejection instead of rebuilding their trees.  It
    # is reset at loop entry without carried state and at each periodic
    # pass: `gbase` copies the counts there and `gmax` restarts from 0,
    # tracking every count set since.  The O(n) max() of the copy joins
    # `gmax` at the first stale decode after the reset (then `gbase` is
    # None), so a run that decodes no stale side pays a list copy per
    # reset instead of a max(); at every stale decode the bound is the
    # one an eager max() at the reset would have grown to.
    carried = engine._loop_state
    if carried is None:
        lus: List[float] = []
        raws: List[int] = []
        upos = rpos = BATCH
        gmax = 0
        gbase = counts[:]
        reclassify_at = events + _RECLASSIFY_EVENTS
        cooldown_end = events
    else:
        (lus, upos, raws, rpos, gmax, gbase, reclassify_at,
         cooldown_end) = carried
    upos0 = upos
    rpos0 = rpos
    # Telemetry: draw totals derive from batch-refill tallies and batch
    # positions at loop exit (the `nub`/`nrb` increments below run once
    # per 8192 draws); the per-branch counters only tick when
    # instrumentation is attached (`instr_on`), so the off path pays
    # one local bool test per event at most.
    ins = engine._instr
    instr_on = ins is not None
    nub = nrb = 0
    c_sprint = c_pool = c_prop = 0
    c_fen = c_comp = c_reclass = c_compiled = c_fills = 0
    # Shared cross-state programs compiled in this call: the growth of
    # the index's program cache.
    shared0 = len(fused.programs)
    pmhat = pool.mhat if pool is not None else 1
    # The pool pseudo-slot value is mirrored in a local and written
    # back only at sync points (routing through the general find,
    # reclassification, loop exit) — pooled same-state updates then
    # touch a single local instead of three shared structures.
    pool_w = values[pslot] if pool is not None else -1

    # log1p(-W/M) cached on W (reset when the mass M moves): the drain's
    # dominant transfer events leave the total weight unchanged, so the
    # skip denominator is usually reusable.  `sure`: every step is
    # productive, so the skip is 1 and draws nothing.
    lp = 0.0
    lp_weight = -1
    sure = False

    while events != stop and weight:
        # Geometric skip.
        if weight != lp_weight:
            lp_weight = weight
            ratio = weight / mass
            sure = ratio >= 1.0
            if not sure:
                lp = log1p(-ratio)
        if sure:
            interactions += 1
        else:
            if upos == BATCH:
                lus = draws.log_uniform_batch()
                upos = 0
                nub += 1
            lu = lus[upos]
            upos += 1
            if lu >= lp:
                interactions += 1
            else:
                interactions += ceil(lu / lp)
        if interactions > icap:
            # The skip overshoots the cap: clamp there and drop the
            # pending event (the skip is memoryless, so this is exact).
            interactions = icap
            break
        if weight == pool_w:
            # Sprint: every remaining unit of weight is pooled (the
            # steady state of a same-state-heavy drain), so the routed
            # target draw is a foregone conclusion — propose directly.
            kind = PROPOSAL
            if instr_on:
                c_sprint += 1
        else:
            if pslot >= 0:
                values[pslot] = pool_w
            # Exact uniform target in [0, weight).  A class-scaled
            # weight takes two spliced raws; the batch is even, so a
            # pair never straddles a refill.
            while True:
                if rpos == BATCH:
                    raws = draws.raw_batch()
                    rpos = 0
                    nrb += 1
                raw = raws[rpos]
                rpos += 1
                if wide:
                    raw = (raw << 64) | raws[rpos]
                    rpos += 1
                target = raw % weight
                if raw - target <= span - weight:
                    break
            # Fused-index find: the few composite slots (the pool
            # pseudo-slot included) short-circuit with a linear scan;
            # only draws landing in the tree-mode same-state block walk
            # the Fenwick tree.
            pos = -1
            for ci in range(num_composite):
                v = values[ci]
                if target < v:
                    pos = ci
                    break
                target -= v
            if pos < 0:
                pos = 0
                bit = highbit
                while bit:
                    nxt = pos + bit
                    if nxt <= fensize:
                        below = tree[nxt]
                        if below <= target:
                            target -= below
                            pos = nxt
                    bit >>= 1
                pos += num_composite
                if instr_on:
                    c_fen += 1
            elif instr_on:
                c_comp += 1
            kind = slot_kind[pos]
        if kind == PROPOSAL:
            # The pool proposal: one raw draw fuses the uniform
            # pool-agent proposal with its acceptance threshold; a
            # routed residual target is discarded (it is independent
            # of the fresh proposal draws).
            mh = pmhat
            pbound = len(pagents) * mh
            plimit = RAW_SPAN - pbound
            proposals = 0
            while True:
                if rpos == BATCH:
                    raws = draws.raw_batch()
                    rpos = 0
                    nrb += 1
                raw = raws[rpos]
                rpos += 1
                v = raw % pbound
                if raw - v > plimit:
                    continue
                proposals += 1
                s = pagents[v // mh]
                # Member invariant: len(positions[s]) == counts[s],
                # so the threshold test reads the counts directly.
                if v % mh < counts[s] - 1:
                    si = sj = s
                    break
            if (
                proposals > _RECLASSIFY_PROPOSALS
                and events >= cooldown_end
            ):
                # Acceptance degraded since the last partition (a
                # member count drifted far from m̂) — re-partition at
                # the end of this event instead of waiting out the
                # periodic schedule.
                reclassify_at = events
            if instr_on:
                c_pool += 1
                c_prop += proposals
        elif kind == SCALED:
            # A class-scaled product or line run: its payload divides
            # the class factor out of the residual target.
            si, sj = slot_payload[pos].pair_from_target(target)
        elif kind == TRIANGULAR:
            # Inlined _TriangularSlot.pair_from_target (factor 1).
            tri = slot_payload[pos]
            tcounts = tri.counts
            line = tri.line
            suffix = tri.s
            tlen = len(tcounts)
            si = -1
            for i in range(tlen):
                c = tcounts[i]
                if c == 0:
                    continue
                suffix -= c
                block = c * (c - 1 + suffix)
                if target < block:
                    same = c * (c - 1)
                    if target < same:
                        si = sj = line[i]
                        break
                    si = line[i]
                    sj = -1
                    j_target = (target - same) // c
                    for j in range(i + 1, tlen):
                        cj = tcounts[j]
                        if j_target < cj:
                            sj = line[j]
                            break
                        j_target -= cj
                    break
                target -= block
            if si < 0 or sj < 0:
                raise SimulationError(
                    "fused triangular sample out of range"
                )
        elif kind == SAME:
            si = sj = slot_payload[pos]
        else:  # PRODUCT
            prod = slot_payload[pos]
            if prod.stale:
                # Decode around the stale sides: rejection against the
                # global count bound, rebuilding only if the profile is
                # too skewed for it.  The bound's base pass runs here,
                # at the first stale decode since the loop took it.
                if gbase is not None:
                    top = max(gbase)
                    if top > gmax:
                        gmax = top
                    gbase = None
                si, sj = prod.sample_stale(gmax, draws.rand_below)
            else:
                # Both side draws decode from the one residual target.
                # A scanned side walks the live counts; a tree side
                # descends from below its top node (the side total).
                rtotal = prod.resp_total
                t1 = target // rtotal
                t2 = target - t1 * rtotal
                itree = prod.init_tree
                if itree is None:
                    for si in prod.initiators:
                        c = counts[si]
                        if t1 < c:
                            break
                        t1 -= c
                    else:
                        raise SimulationError(
                            "fused product sample out of range"
                        )
                else:
                    p1 = 0
                    bit = prod.init_size >> 1
                    while bit:
                        below = itree[p1 + bit]
                        if below <= t1:
                            t1 -= below
                            p1 += bit
                        bit >>= 1
                    si = prod.initiators[p1]
                rtree = prod.resp_tree
                if rtree is None:
                    for sj in prod.responders:
                        c = counts[sj]
                        if t2 < c:
                            break
                        t2 -= c
                    else:
                        raise SimulationError(
                            "fused product sample out of range"
                        )
                else:
                    p2 = 0
                    bit = prod.resp_size >> 1
                    while bit:
                        below = rtree[p2 + bit]
                        if below <= t2:
                            t2 -= below
                            p2 += bit
                        bit >>= 1
                    sj = prod.responders[p2]
        # Transition: the precompiled program.
        if si == sj:
            # Same-state draws dominate the hybrid loop: a
            # dense per-state list beats hashing the pair key.
            entry = ss_progs[si]
            if entry is None:
                entry = _compile_program(protocol, fused, si, si)
                ss_progs[si] = entry
                c_compiled += 1
        else:
            key = si * num_states + sj
            entry = pair_table.get(key)
            if entry is None:
                # A fill costs one delta call and a shared-program
                # lookup; a new key compiles too.
                entry = _compile_program(protocol, fused, si, sj)
                pair_table[key] = entry
                c_fills += 1
        ops = entry[2]
        prods = entry[4]
        if prods is not None:
            # Sprint guard: while every product slot the
            # transition touches has an empty responder side (it
            # has no responder-side ops, or prods would be None)
            # the slots weigh zero before and after — the product
            # steps only stale-mark and add to the initiator
            # total, and no refresh pass is needed.
            for slot, _ in prods:
                if slot_payload[slot].resp_total:
                    prods = None
                    break
        if prods is None:
            refresh = entry[3]
        else:
            refresh = ()
            transfer = entry[5]
            if transfer is not None:
                # One agent moves src → dst; when both states
                # are pool members this is a single flat
                # re-label (no swap-removal, no insertion).
                # An applied re-label empties the ops and does
                # their product part here.  Only a same-state
                # program gets here, so both states are absolute.
                src = transfer[0]
                dst = transfer[1]
                pls = ppositions[src]
                pld = ppositions[dst]
                if pls is not None and pld is not None:
                    old_s = counts[src]
                    old_d = counts[dst]
                    counts[src] = old_s - 1
                    counts[dst] = old_d + 1
                    if old_d + 1 > gmax:
                        gmax = old_d + 1
                    p = pls.pop()
                    pagents[p] = dst
                    pwhere[p] = len(pld)
                    pld.append(p)
                    if old_s == 2:
                        # src drained below a pair: expel its
                        # last agent.
                        p = pls.pop()
                        last = len(pagents) - 1
                        if p != last:
                            moved = pagents[last]
                            mw = pwhere[last]
                            pagents[p] = moved
                            pwhere[p] = mw
                            ppositions[moved][mw] = p
                        pagents.pop()
                        pwhere.pop()
                        ppositions[src] = None
                    if old_d + 1 > pool.hi:
                        # Expel dst above the window.
                        pld = ppositions[dst]
                        w = (old_d + 1) * old_d
                        for _ in range(old_d + 1):
                            p = pld.pop()
                            last = len(pagents) - 1
                            if p != last:
                                moved = pagents[last]
                                mw = pwhere[last]
                                pagents[p] = moved
                                pwhere[p] = mw
                                ppositions[moved][mw] = p
                            pagents.pop()
                            pwhere.pop()
                        ppositions[dst] = None
                        # src keeps its pool delta; dst mass
                        # moves from the pool to the tree.
                        pool_w -= old_d * (old_d - 1)
                        values[dst + transfer[2]] = w
                        node = dst + transfer[3]
                        while node <= fensize:
                            tree[node] += w
                            node += node & -node
                        weight += w - old_d * (old_d - 1)
                        dw = -(old_s + old_s - 2)
                        pool_w += dw
                        weight += dw
                    else:
                        dw = (old_d - old_s + 1) * 2
                        if dw:
                            pool_w += dw
                            weight += dw
                    ops = ()
                elif (
                    pls is not None
                    and counts[dst] == 1
                    and pool.lo <= 2 <= pool.hi
                ):
                    # dst migrates in: its lone agent plus the
                    # moved one form a fresh two-member list.
                    old_s = counts[src]
                    counts[src] = old_s - 1
                    counts[dst] = 2
                    if 2 > gmax:
                        gmax = 2
                    p = pls.pop()
                    pagents[p] = dst
                    pwhere[p] = 0
                    ppositions[dst] = [p, len(pagents)]
                    pwhere.append(1)
                    pagents.append(dst)
                    if old_s == 2:
                        p = pls.pop()
                        last = len(pagents) - 1
                        if p != last:
                            moved = pagents[last]
                            mw = pwhere[last]
                            pagents[p] = moved
                            pwhere[p] = mw
                            ppositions[moved][mw] = p
                        pagents.pop()
                        pwhere.pop()
                        ppositions[src] = None
                    dw = (2 - old_s) * 2
                    if dw:
                        pool_w += dw
                        weight += dw
                    ops = ()
                if not ops:
                    for slot, dinit in prods:
                        prod = slot_payload[slot]
                        prod.stale |= 1
                        prod.init_total += dinit
        for state, delta in ops:
            if state < 0:
                # A cross-state program's code for si (-1) or sj (-2).
                state = si if state == -1 else sj
            old = counts[state]
            new = old + delta
            if new < 0:
                raise SimulationError(
                    f"state {state} count went negative applying "
                    "transition"
                )
            counts[state] = new
            if new > gmax:
                gmax = new
            for step in plans[state]:
                code = step[0]
                if code == TRIANGULAR:
                    tri = slot_payload[step[1]]
                    tri.counts[state + step[2]] = new
                    tri.s += delta
                    tri.q += new * new - old * old
                elif code == PRODUCT:
                    # Scalar side totals always; the padded-tree
                    # walk only while the slot can be sampled
                    # (the other side occupied) — a gated side
                    # goes stale and rebuilds on next decode.
                    prod = slot_payload[step[1]]
                    if step[3]:
                        prod.init_total += delta
                        if prod.stale & 1 or prod.resp_total == 0:
                            prod.stale |= 1
                            continue
                        ptree = prod.init_tree
                        psize = prod.init_size
                    else:
                        prod.resp_total += delta
                        if prod.stale & 2 or prod.init_total == 0:
                            prod.stale |= 2
                            continue
                        ptree = prod.resp_tree
                        psize = prod.resp_size
                    node = state + step[2]
                    while node <= psize:
                        ptree[node] += delta
                        node += node & -node
                elif code == SCANNED:
                    # A scanned side keeps no tree: its total moves,
                    # and it takes the stale mark a tree side would.
                    prod = slot_payload[step[1]]
                    if step[2]:
                        prod.init_total += delta
                        if not prod.resp_total:
                            prod.stale |= 1
                    else:
                        prod.resp_total += delta
                        if not prod.init_total:
                            prod.stale |= 2
                elif code == SAME:
                    # Hybrid dispatch: the state's current pool
                    # membership picks an O(1) member move or
                    # the Fenwick walk (SAME steps only exist
                    # when the pool does).
                    plist = ppositions[state]
                    if plist is None:
                        slot = state + step[1]
                        if pool.lo <= new <= pool.hi:
                            # Migrate into the pool window: zero
                            # the Fenwick slot once, O(1) moves
                            # from here on.
                            w = new * (new - 1)
                            old_w = values[slot]
                            if old_w:
                                values[slot] = 0
                                node = state + step[2]
                                while node <= fensize:
                                    tree[node] -= old_w
                                    node += node & -node
                            base = len(pagents)
                            ppositions[state] = list(
                                range(base, base + new)
                            )
                            pagents.extend([state] * new)
                            pwhere.extend(range(new))
                            if new > pmhat:
                                pmhat = new
                            pool_w += w
                            weight += w - old_w
                        else:
                            w = new * (new - 1)
                            dw = w - values[slot]
                            if dw:
                                values[slot] = w
                                weight += dw
                                node = state + step[2]
                                while node <= fensize:
                                    tree[node] += dw
                                    node += node & -node
                    else:
                        if delta > 0:
                            for _ in range(delta):
                                pwhere.append(len(plist))
                                plist.append(len(pagents))
                                pagents.append(state)
                            if new > pool.hi:
                                # Expel above the window: keeping
                                # the member would stretch m̂ (and
                                # the acceptance of every small
                                # member) — the Fenwick serves
                                # outgrown slots better.
                                for _ in range(new):
                                    p = plist.pop()
                                    last = len(pagents) - 1
                                    if p != last:
                                        moved = pagents[last]
                                        mw = pwhere[last]
                                        pagents[p] = moved
                                        pwhere[p] = mw
                                        ppositions[moved][mw] = p
                                    pagents.pop()
                                    pwhere.pop()
                                ppositions[state] = None
                                w = new * (new - 1)
                                pool_w -= old * (old - 1)
                                weight -= old * (old - 1)
                                values[state + step[1]] = w
                                node = state + step[2]
                                while node <= fensize:
                                    tree[node] += w
                                    node += node & -node
                                weight += w
                                continue
                        else:
                            removals = -delta if new >= 2 else old
                            for _ in range(removals):
                                p = plist.pop()
                                last = len(pagents) - 1
                                if p != last:
                                    moved = pagents[last]
                                    mw = pwhere[last]
                                    pagents[p] = moved
                                    pwhere[p] = mw
                                    ppositions[moved][mw] = p
                                pagents.pop()
                                pwhere.pop()
                            if new < 2:
                                # Expel: weightless members only
                                # dilute proposal acceptance.
                                ppositions[state] = None
                        dw = new * (new - 1) - old * (old - 1)
                        if dw:
                            pool_w += dw
                            weight += dw
                else:
                    # SCALED_SAME, a class-scaled same-state slot: no
                    # pool, and the step's factor scales c(c−1).
                    slot = state + step[1]
                    dw = step[3] * new * (new - 1) - values[slot]
                    if dw:
                        values[slot] += dw
                        weight += dw
                        node = state + step[2]
                        while node <= fensize:
                            tree[node] += dw
                            node += node & -node
        # One deferred weight refresh per touched composite
        # slot — a plain values[] write, composite slots live
        # outside the Fenwick tree.
        for slot in refresh:
            rkind = slot_kind[slot]
            if rkind == SCALED:
                # A class-scaled payload's weight(), inlined: the method
                # call would cost a biased run several percent.
                pay = slot_payload[slot]
                if type(pay) is _ProductSlot:
                    w = pay.factor * pay.init_total * pay.resp_total
                else:
                    s_ = pay.s
                    q_ = pay.q
                    w = pay.factor * ((q_ - s_) + (s_ * s_ - q_) // 2)
            elif rkind == TRIANGULAR:
                tri = slot_payload[slot]
                s_ = tri.s
                q_ = tri.q
                w = (q_ - s_) + (s_ * s_ - q_) // 2
            else:  # PRODUCT
                prod = slot_payload[slot]
                w = prod.init_total * prod.resp_total
            weight += w - values[slot]
            values[slot] = w
        moves = entry[6]
        if moves:
            # Agents changed class: update the class sums, then the
            # step mass (and with it the skip denominator).
            for cls, delta, column in moves:
                class_counts[cls] += delta
                p = 0
                for u_pc in column:
                    row_dot[p] += u_pc * delta
                    p += 1
            mass = fused.total_mass()
            lp_weight = -1
        events += 1
        if events >= reclassify_at:
            reclassify_at = events + _RECLASSIFY_EVENTS
            cooldown_end = events + _RECLASSIFY_COOLDOWN
            gmax = 0
            gbase = counts[:]
            if pool is not None:
                # Re-partition pool vs Fenwick from the live counts; the
                # idle rule reads the index total, written back first.
                # All pool arrays mutate in place, so every local alias
                # above stays valid; the total is unchanged.
                fused.total = weight
                fused.reclassify(counts)
                pool_w = pool.weight
                pmhat = pool.mhat
                if instr_on:
                    c_reclass += 1
    if pool is not None:
        values[pslot] = pool_w
        pool.weight = pool_w
        pool.mhat = pmhat
    fused.total = weight
    fused.live = live
    engine.interactions = interactions
    engine.events = events
    engine._loop_state = (
        lus, upos, raws, rpos, gmax, gbase, reclassify_at, cooldown_end
    )
    if events != events0:
        ti, tj = entry[0], entry[1]
        if ti < 0:
            ti = si if ti == -1 else sj
        if tj < 0:
            tj = si if tj == -1 else sj
        engine._last_event = (si, sj, ti, tj)
    if ins is not None:
        # Draw totals by batch-consumption arithmetic: the batches
        # refilled here plus the positions moved, which counts the
        # draws taken from a carried batch too.
        ins.add_counters(
            skip_draws=nub * BATCH + upos - upos0,
            raw_draws=nrb * BATCH + rpos - rpos0,
            proposal_draws=c_prop,
            pool_draws=c_pool,
            sprint_events=c_sprint,
            fenwick_finds=c_fen,
            composite_finds=c_comp,
            reclassifications=c_reclass,
            programs_compiled=c_compiled + len(fused.programs) - shared0,
            pair_fills=c_fills,
        )
    return weight == 0

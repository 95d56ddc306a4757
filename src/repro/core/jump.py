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
approximation.

Hot-path layout
---------------

The engine compiles the protocol's weight families into one
:class:`~repro.core.fused.FusedIndex` — a single flat integer weight
index over all productive pair slots.  The index accepts exactly the
three family shapes of :mod:`~repro.core.families`, so a protocol with
any other family type fails at construction (it runs with
``engine="sequential"``), and the engine never rebuilds its index:
faults, snapshots, restores and the exit of each fast loop
canonicalise it with one in-place resync.  The engine runs the index
through the fused jump loop, :func:`_run_fused`, which samples a
productive ordered pair with one Fenwick ``find`` (the residual target
decodes within-slot draws; no per-family dispatch) and updates weights
through precompiled per-state plans with O(1)-amortised slot deltas.
The same loop runs every recorder-free segment of the biased
:class:`~repro.core.scheduler.WeightedScheduledEngine`, on that
engine's class-scaled index: its few biased-only branches (two-raw
targets, the scaled slot codes, the step-mass update after a class
move, the interactions cap) are ones the uniform index never enters.
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
class moves — and the loop reaches the payload objects through the
index's per-state plans (``state_steps``, a plain list filled when a
transition touching the state compiles) and its
``slot_kind``/``slot_payload`` lists.  Each index has its own program
cache, a pair dict plus a dense same-state list, which during a §5
reset storm holds tens of thousands of programs and nothing the cyclic
garbage collector must traverse on every pass.

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
from typing import Dict, List, Optional, Tuple

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
    TRIANGULAR,
    FusedIndex,
    _ProductSlot,
)
from .protocol import PopulationProtocol
from .snapshot import EngineSnapshot, check_snapshot

__all__ = ["JumpEngine"]

# Above this bound rejection sampling from 64-bit draws gets inefficient
# (and the float64 geometric-skip probability loses resolution).
_MAX_EXACT = 1 << 62

# How often (in productive events) the fast loop recomputes the exact
# maximum count and re-evaluates its sampler choice.
_REFRESH_EVENTS = 8192

# How often (in productive events) the fused general loop re-partitions
# same-state slots between the proposal pool and the Fenwick block.
# Any partition is exact, so this is purely a constant-factor tracker:
# eager migration/expulsion keeps membership tight in between, and the
# acceptance trigger below forces an early pass when the bound m̂
# degrades, so the periodic pass can be long.
_RECLASSIFY_EVENTS = 8192

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
    """Net per-state count changes of one transition, deduplicated."""
    if si == sj:
        # Same-state rules dominate compilation; resolve their few
        # overlap shapes branch-wise instead of through a dict.
        if ti == tj:
            return () if ti == si else ((si, -2), (ti, 2))
        if ti == si:
            return ((si, -1), (tj, 1))
        if tj == si:
            return ((si, -1), (ti, 1))
        return ((si, -2), (ti, 1), (tj, 1))
    # Keys in first-appearance order: si, sj, ti, tj.
    net = {si: 0, sj: 0, ti: 0, tj: 0}
    net[si] -= 1
    net[sj] -= 1
    net[ti] += 1
    net[tj] += 1
    return tuple([(s, d) for s, d in net.items() if d])


def _compile_program(
    protocol: PopulationProtocol, fused: FusedIndex, si: int, sj: int
) -> tuple:
    """``(ti, tj, ops, refresh, prods, transfer, moves)`` — one
    transition, compiled for ``fused``.

    ``ops`` is the program body, ``((state, delta), …)``, which the
    fused loop applies through each state's plan in the index's
    ``state_steps``; the last four fields are the composite slots to
    refresh, the sprint guard, the transfer shortcut and the class moves
    (see :meth:`~repro.core.fused.FusedIndex.compile_transition`).
    Every field is an int, ``None`` or a tuple of those, so a cached
    entry holds no reference the cyclic garbage collector has to follow.
    """
    out = protocol.delta(si, sj)
    if out is None:
        raise SimulationError(
            f"families sampled null pair ({si}, {sj}) — "
            "family coverage does not match delta"
        )
    ti, tj = out
    ops = _transition_ops(si, sj, ti, tj)
    return (ti, tj, ops) + fused.compile_transition(ops)


def _fill_count_axis(axis: List[int], buckets: List[List[int]]) -> None:
    """(Re)fill the same-state loop's count-axis Fenwick tree in place.

    ``buckets[c]`` lists the rule states holding exactly ``c`` agents,
    and node ``c`` of ``axis`` weighs that bucket by ``|B_c|·c(c−1)``.
    ``len(buckets)`` is a power of two above every count.
    """
    fill_tree(axis, len(buckets), [
        len(bucket) * c * (c - 1) for c, bucket in enumerate(buckets)
    ][1:])


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

    ``debug=True`` re-verifies after every productive event that the
    cached total weight matches the weights re-summed from the families
    (and routes ``run()`` through the instrumented general loop).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng: np.random.Generator,
        debug: bool = False,
        instrumentation=None,
    ) -> None:
        protocol.validate_configuration(configuration)
        # Opt-in telemetry (repro.obs.Instrumentation).  The fast loops
        # account for it per chunk via batch-consumption arithmetic and
        # locals flushed at loop exit; counters never consume
        # randomness, so instrumented runs stay bit-identical.
        self._instr = instrumentation
        n = protocol.num_agents
        if n * (n - 1) >= _MAX_EXACT:
            raise SimulationError(
                f"population {n} too large for exact pair sampling"
            )
        self._protocol = protocol
        self._draws = DrawStream(rng, uniforms=True)
        self._debug = bool(debug)
        self.counts: List[int] = configuration.counts_list()
        self._num_states = protocol.num_states
        self._total_pairs = n * (n - 1)
        self.interactions = 0
        self.events = 0
        # The families are compiled into the fused index and then only
        # serve as the structural description; all mutable sampling
        # state lives in the index.
        families = protocol.build_families(self.counts)
        self._fused = FusedIndex(families, self._num_states, self.counts)
        self._weight = self._fused.total
        self._pair_table: Dict[int, tuple] = {}
        # Dense same-state program cache: same-state draws dominate the
        # hybrid loop, and a list index beats hashing the pair key.
        self._ss_progs: List[Optional[tuple]] = [None] * self._num_states
        self._ss_table = self._compile_same_state_table(families)
        # Mask of the states without a same-state rule (they carry no
        # weight and never enter a count bucket), built on the
        # same-state loop's first count-bucket entry.
        self._ss_idle: Optional[np.ndarray] = None

    def _compile_same_state_table(self, families):
        """Per-state transition table for same-state-only protocols.

        Returns ``None`` when the protocol has cross-state families or
        (defensively) claims a same-state pair its ``delta`` reports as
        null — the general sampler then raises the coverage error
        lazily.
        """
        if len(families) != 1:
            return None
        family = families[0]
        if type(family) is not SameStatePairs:
            return None
        rule_states = {s for s, _ in family.pairs()}
        table: List[Optional[tuple]] = [None] * self._num_states
        for s in rule_states:
            out = self._protocol.delta(s, s)
            if out is None:
                return None
            ti, tj = out
            # Third field: weight coefficient — Δ(c(c−1)) for a count
            # move c0 → c1 = c0+d is d·(c0+c1−1), and 0 for states
            # without a same-state rule (they never contribute to W).
            ops: _Ops = tuple(
                (st, d, d if st in rule_states else 0)
                for st, d in _transition_ops(s, s, ti, tj)
            )
            table[s] = (ti, tj, ops)
        return table

    # ------------------------------------------------------------------
    # Weight bookkeeping
    # ------------------------------------------------------------------
    @property
    def productive_weight(self) -> int:
        """Current number of productive ordered pairs ``W`` (cached)."""
        return self._weight

    def recomputed_weight(self) -> int:
        """``W`` re-summed from fresh families (debug / test cross-check).

        Rebuilds the families from the live counts, so it checks the
        fused index against an independent from-scratch computation.
        """
        return sum(
            family.weight
            for family in self._protocol.build_families(self.counts)
        )

    def _assert_weight_sync(self) -> None:
        recomputed = self.recomputed_weight()
        if not (self._weight == self._fused.total == recomputed):
            raise AssertionError(
                f"cached weight {self._weight} (fused {self._fused.total}) "
                f"!= recomputed {recomputed} after {self.events} events"
            )

    def is_silent(self) -> bool:
        """True iff no productive interaction exists."""
        return self._weight == 0

    def reset_configuration(self, configuration) -> None:
        """Adopt an externally mutated configuration mid-run.

        This is the fault-injection seam used by the scenario engine:
        the population is corrupted *outside* the protocol's own
        dynamics, so the fused index and the cached weight ``W`` are
        rebuilt from the new counts.  The compiled transition tables are
        count-independent and stay valid; the interaction/event counters
        and the generator stream are deliberately preserved, so a run
        continues exactly where it left off.  The population size and
        state space must not change — churn rebuilds the engine instead.
        """
        self.counts = checked_counts(
            configuration, self._num_states, self._protocol.num_agents
        )
        # The in-place resync keeps the compiled transition programs
        # valid.
        self._canonicalise_index()
        if self._instr is not None:
            self._instr.add("resyncs")
            self._instr.mark(
                "resync", events=self.events, interactions=self.interactions
            )

    def _canonicalise_index(self) -> None:
        """Make the fused index (and ``W``) a pure function of the live
        counts.

        One in-place resync — exactly the re-partition the fast loops
        run periodically, so the step distribution is unchanged.  At
        recorder-free ``run()`` boundaries the index is already
        canonical and this is a no-op state-wise.
        """
        self._fused.resync(self.counts)
        self._weight = self._fused.total

    def snapshot(self) -> EngineSnapshot:
        """Plain-data checkpoint for bit-exact resumption.

        Canonicalises the hybrid sampler first (see
        :mod:`repro.core.snapshot` for the exactness contract), then
        captures counts, counters, the exact bit-generator state, and
        the unconsumed buffered draws.
        """
        self._canonicalise_index()
        if self._instr is not None:
            self._instr.add("snapshots")
            self._instr.mark(
                "snapshot", events=self.events,
                interactions=self.interactions,
            )
        return EngineSnapshot(
            kind="jump",
            num_states=self._num_states,
            num_agents=self._protocol.num_agents,
            counts=tuple(self.counts),
            interactions=self.interactions,
            events=self.events,
            **self._draws.capture(),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Adopt a snapshot in place; continues bit-for-bit.

        Reuses the ``resync`` fault seam, so nothing recompiles — the
        transition tables are count-independent and stay valid.
        """
        check_snapshot(
            snapshot, "jump", self._num_states, self._protocol.num_agents
        )
        self.counts = [int(c) for c in snapshot.counts]
        self._canonicalise_index()
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
    def _transition(self, si: int, sj: int) -> tuple:
        """``(ti, tj, ops, ...)`` for a productive pair, via the table."""
        table = self._pair_table
        entry = table.get(si * self._num_states + sj)
        if entry is None:
            entry = _compile_program(self._protocol, self._fused, si, sj)
            table[si * self._num_states + sj] = entry
        return entry

    def _apply_ops(self, ops) -> None:
        """Apply precomputed count deltas, keeping the index and ``W`` synced."""
        counts = self.counts
        fused = self._fused
        delta_w = 0
        for state, delta in ops:
            old = counts[state]
            new = old + delta
            if new < 0:
                raise SimulationError(
                    f"state {state} count went negative applying transition"
                )
            counts[state] = new
            delta_w += fused.apply_count_change(state, old, new)
        self._weight += delta_w

    def step(self) -> Optional[Event]:
        """Advance to (and apply) the next productive interaction.

        Returns ``None`` when the configuration is silent.
        """
        weight = self._weight
        if weight == 0:
            return None
        draws = self._draws
        self.interactions += draws.geometric_skip(weight / self._total_pairs)
        si, sj = self._fused.sample(draws.rand_below)
        ti, tj, ops = self._transition(si, sj)[:3]
        self._apply_ops(ops)
        self.events += 1
        if self._debug:
            self._assert_weight_sync()
        return Event(self.interactions, si, sj, ti, tj)

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent.

        When the geometric skip would overshoot ``max_interactions`` the
        clock is clamped to the budget and the pending productive event
        is *not* applied (no interaction beyond the budget happened); a
        budget the clock has already reached draws nothing, so the clock
        never moves back.  ``max_events`` additionally bounds the number of *productive*
        events — the engine's actual work — which is the effective guard
        for runs that churn without converging.

        The common recorder-free, unbounded-interaction case dispatches
        to allocation-free specialised loops; a recorder, an interaction
        budget, or ``debug`` mode selects the instrumented general loop.
        """
        if recorder is None and max_interactions is None and not self._debug:
            if self._ss_table is not None:
                return self._run_fast_same_state(max_events)
            return self._run_fast_general(max_events)
        return self._run_general(max_interactions, recorder, max_events)

    # ------------------------------------------------------------------
    # General (instrumented) loop — recorders, budgets, debug
    # ------------------------------------------------------------------
    def _run_general(
        self,
        max_interactions: Optional[int],
        recorder: Optional[Recorder],
        max_events: Optional[int],
    ) -> bool:
        if recorder is not None:
            recorder.on_start(self.counts)
        draws = self._draws
        total_pairs = self._total_pairs
        events0 = self.events
        interactions0 = self.interactions
        silent = False
        while True:
            weight = self._weight
            if weight == 0:
                silent = True
                break
            if max_events is not None and self.events >= max_events:
                break
            if max_interactions is not None and self.interactions >= max_interactions:
                break
            skip = draws.geometric_skip(weight / total_pairs)
            if (
                max_interactions is not None
                and self.interactions + skip > max_interactions
            ):
                self.interactions = max_interactions
                break
            self.interactions += skip
            si, sj = self._fused.sample(draws.rand_below)
            ti, tj, ops = self._transition(si, sj)[:3]
            self._apply_ops(ops)
            self.events += 1
            if self._debug:
                self._assert_weight_sync()
            if recorder is not None:
                recorder.on_event(
                    Event(self.interactions, si, sj, ti, tj), self.counts
                )
        if recorder is not None:
            recorder.on_finish(silent, self.interactions, self.counts)
        if self._instr is not None:
            self._instr.add_counters(
                events=self.events - events0,
                interactions=self.interactions - interactions0,
            )
        return silent

    # ------------------------------------------------------------------
    # Fast loops — no recorder, no interaction budget, no Event objects
    # ------------------------------------------------------------------
    def _run_fast_general(self, max_events: Optional[int]) -> bool:
        """The shared fused loop on the uniform index (see
        :func:`_run_fused`), then the run-boundary canonicalisation."""
        events0 = self.events
        interactions0 = self.interactions
        silent = _run_fused(
            self, self._fused, self._total_pairs, None, max_events
        )
        if self._instr is not None:
            self._instr.add_counters(
                events=self.events - events0,
                interactions=self.interactions - interactions0,
            )
        # Canonicalise the sampler at the run boundary: the pool
        # partition and any stale product sides drift with the loop's
        # history, so one in-place resync makes the post-run state a
        # pure function of the final counts — the same re-partition the
        # loop performs every ``_RECLASSIFY_EVENTS``, and the contract
        # the checkpoint seam (``snapshot``/``restore``) relies on for
        # bit-identical resumption.
        self._canonicalise_index()
        # Discard any shared buffered draws so later step() calls start
        # from fresh batches of the (advanced) generator stream.
        self._draws.discard()
        return silent

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
        distribution; only the constant factor differs.  The fused
        index is left stale inside the loop and rebuilt from the final
        counts on exit.
        """
        protocol = self._protocol
        draws = self._draws
        counts = self.counts
        table = self._ss_table
        num_states = self._num_states
        n = protocol.num_agents
        total_pairs = self._total_pairs
        log1p, ceil = math.log1p, math.ceil

        weight = self._weight
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
        c_pdisc = c_prop_events = c_fen_events = c_modes = 0

        # Skip draws are consumed as precomputed log(1-u): the geometric
        # inverse-CDF needs only ceil(log(1-u)/log(1-p)), and batching
        # the numerator log through numpy is ~3x cheaper than math.log
        # per event.  log(1-u) >= log(1-p) iff skip == 1.
        lus: List[float] = []
        upos = BATCH  # empty buffer — filled on first use
        raws: List[int] = []
        rpos = 0

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
                    s = buckets[pos][target // (pos * (pos - 1))]
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
                mode_switches=c_modes - 1 if c_modes else 0,
            )
        # The loop mutated counts without notifying the fused index;
        # resync it so step()/recorders stay usable after a fast run.
        self._canonicalise_index()
        # Discard any shared buffered draws so later step() calls start
        # from fresh batches of the (advanced) generator stream.
        draws.discard()
        if self._debug:
            self._assert_weight_sync()
        return weight == 0


def _run_fused(
    engine,
    fused: FusedIndex,
    mass: int,
    max_interactions: Optional[int],
    max_events: Optional[int],
) -> bool:
    """The fused jump loop, shared by the uniform and the biased engines.

    Runs ``engine`` (a :class:`JumpEngine` on its unscaled index, or a
    :class:`~repro.core.scheduler.WeightedScheduledEngine` on the active
    segment's class-scaled index) until silence, ``max_events`` or
    ``max_interactions``; ``mass`` is the scheduler's step mass over all
    ordered agent pairs (``n(n−1)`` for the uniform scheduler), so the
    geometric skip succeeds with probability ``W / mass``.  A skip
    overshooting ``max_interactions`` clamps the clock there and drops
    the pending event; a cap at or behind the clock on entry draws
    nothing.  Returns True iff the configuration is silent.
    From ``engine`` the loop reads the protocol, counts, draw stream,
    counters and telemetry bag, and the program caches of ``fused``
    (``_pair_table`` and ``_ss_progs``).

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
    (O(1) count moments for the reset line, one-sided Fenwick writes for
    products, O(1) member moves for pooled slots), followed by one
    deduplicated weight refresh per composite slot, read through
    ``slot_kind``/``slot_payload`` — no per-event family dispatch
    anywhere.  Cache misses count as ``programs_compiled``.  A
    transition whose product slots all weigh zero skips the refresh,
    and a −1/+1 move between two pool members is a single re-label.
    The pool partition is re-evaluated every ``_RECLASSIFY_EVENTS`` so
    it tracks the drifting count profile.

    A class-scaled index has no pool, so it never sprints.  Its weights
    carry the 2⁵³ dyadic scale, so each target splices two raws; its
    :data:`~repro.core.fused.SCALED` composite slots decode through
    their payloads and weigh with their factor, and its same-state steps
    carry their class factor.  A program whose ``moves`` shift agents
    between classes updates the class sums and recomputes the step
    mass.  The unscaled index meets none of these branches and
    multiplies no factor.

    The loop writes back the counters and ``fused.total``; the pool
    partition, stale product sides and buffered draws it leaves behind
    are for the caller to canonicalise or keep.
    """
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
    else:
        class_counts = row_dot = None

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
    reclassify_at = events + _RECLASSIFY_EVENTS
    cooldown_end = events
    # Telemetry: draw totals derive from batch-refill tallies at loop
    # exit (the `nub`/`nrb` increments below run once per 8192 draws);
    # the per-branch counters only tick when instrumentation is
    # attached (`instr_on`), so the off path pays one local bool test
    # per event at most.
    ins = engine._instr
    instr_on = ins is not None
    nub = nrb = 0
    c_sprint = c_pool = c_prop = 0
    c_fen = c_comp = c_reclass = c_compiled = 0
    # Monotone upper bound on every state count (reset at each
    # reclassification) — the acceptance bound for decoding stale
    # product sides by rejection instead of rebuilding their trees.
    gmax = max(counts)
    pmhat = pool.mhat if pool is not None else 1
    # The pool pseudo-slot value is mirrored in a local and written
    # back only at sync points (routing through the general find,
    # reclassification, loop exit) — pooled same-state updates then
    # touch a single local instead of three shared structures.
    pool_w = values[pslot] if pool is not None else -1

    # Batched draws: log(1-u) skip numerators through numpy, raw 64-bit
    # integers for exact weighted targets and pool proposals.
    lus: List[float] = []
    upos = BATCH
    raws: List[int] = []
    raw_len = 0
    rpos = 0
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
                if rpos == raw_len:
                    raws = draws.raw_batch()
                    raw_len = BATCH
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
            # Inlined _ProposalPool.sample_state: one raw draw fuses
            # the uniform pool-agent proposal with its acceptance
            # threshold; a routed residual target is discarded (it
            # is independent of the fresh proposal draws).
            mh = pmhat
            pbound = len(pagents) * mh
            plimit = RAW_SPAN - pbound
            proposals = 0
            while True:
                if rpos == raw_len:
                    raws = draws.raw_batch()
                    raw_len = BATCH
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
                # Decode around the stale side trees: rejection
                # against the global count bound, rebuilding only
                # if the profile is too skewed for it.
                si, sj = prod.sample_stale(gmax, draws.rand_below)
            else:
                rtree = prod.resp_tree
                rsize = prod.resp_size
                # Both side draws decode from the one residual target.
                t1 = target // rtree[rsize]
                t2 = target - t1 * rtree[rsize]
                p1 = 0
                bit = prod.init_size
                itree = prod.init_tree
                while bit:
                    nxt = p1 + bit
                    if nxt <= prod.init_size:
                        below = itree[nxt]
                        if below <= t1:
                            t1 -= below
                            p1 = nxt
                    bit >>= 1
                si = prod.initiators[p1]
                p2 = 0
                bit = rsize
                while bit:
                    nxt = p2 + bit
                    if nxt <= rsize:
                        below = rtree[nxt]
                        if below <= t2:
                            t2 -= below
                            p2 = nxt
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
                entry = _compile_program(protocol, fused, si, sj)
                pair_table[key] = entry
                c_compiled += 1
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
                # their product part here.
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
                        values[transfer[2]] = w
                        node = transfer[3]
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
                    tri = step[1]
                    tri.counts[step[2]] = new
                    tri.s += delta
                    tri.q += new * new - old * old
                elif code == PRODUCT:
                    # Scalar side totals always; the padded-tree
                    # walk only while the slot can be sampled
                    # (the other side occupied) — a gated side
                    # goes stale and rebuilds on next decode.
                    prod = step[5]
                    if step[6]:
                        prod.init_total += delta
                        if prod.stale & 1 or prod.resp_total == 0:
                            prod.stale |= 1
                            continue
                    else:
                        prod.resp_total += delta
                        if prod.stale & 2 or prod.init_total == 0:
                            prod.stale |= 2
                            continue
                    ptree = step[1]
                    node = step[2]
                    psize = step[3]
                    while node <= psize:
                        ptree[node] += delta
                        node += node & -node
                elif code == SAME:
                    # Hybrid dispatch: the state's current pool
                    # membership picks an O(1) member move or
                    # the Fenwick walk (SAME steps only exist
                    # when the pool does).
                    plist = ppositions[state]
                    if plist is None:
                        slot = step[1]
                        if pool.lo <= new <= pool.hi:
                            # Migrate into the pool window: zero
                            # the Fenwick slot once, O(1) moves
                            # from here on.
                            w = new * (new - 1)
                            old_w = values[slot]
                            if old_w:
                                values[slot] = 0
                                node = step[2]
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
                                node = step[2]
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
                                slot = step[1]
                                values[slot] = w
                                node = step[2]
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
                    slot = step[1]
                    dw = step[3] * new * (new - 1) - values[slot]
                    if dw:
                        values[slot] += dw
                        weight += dw
                        node = step[2]
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
            gmax = max(counts)
            if pool is not None:
                # Re-partition pool vs Fenwick from the live counts.
                # All pool arrays mutate in place, so every local
                # alias above stays valid; the total is unchanged.
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
    engine.interactions = interactions
    engine.events = events
    if ins is not None:
        # Draw totals by batch-consumption arithmetic: full batches
        # refilled minus whatever is left unconsumed in the tail.
        cu = nub * BATCH - (BATCH - upos) if nub else 0
        cr = nrb * BATCH - (raw_len - rpos) if nrb else 0
        ins.add_counters(
            skip_draws=cu,
            raw_draws=cr,
            proposal_draws=c_prop,
            pool_draws=c_pool,
            sprint_events=c_sprint,
            fenwick_finds=c_fen,
            composite_finds=c_comp,
            reclassifications=c_reclass,
            programs_compiled=c_compiled,
        )
    return weight == 0

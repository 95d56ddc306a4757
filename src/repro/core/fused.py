"""Fused cross-family sampler: one compiled weight index per protocol.

The jump engine's general loop used to dispatch every productive event
across the protocol's :mod:`~repro.core.families` — re-walking the
family list to locate the sampled pair, then notifying *every* family of
*every* count change.  For the multi-family protocols (the §4 line and
§5 tree constructions, the whole point of the paper) that dispatch, plus
``TriangularLine``'s per-change recompute, dominated the hot path.

:class:`FusedIndex` compiles the families once into a single flat
integer weight index:

* every same-state rule gets its **own slot** (weight ``c(c−1)``), so a
  single weighted ``find`` yields the pair directly;
* each :class:`~repro.core.families.OrderedProduct` family collapses to
  **one slot** of weight ``A·B`` (the side sums), with the two side
  draws decoded from the *residual* find target — no extra randomness;
* each :class:`~repro.core.families.TriangularLine` family collapses to
  **one slot** whose weight follows from the count moments ``S``/``Q``
  in O(1) per change.

These three shapes cover every protocol of the paper; a family of any
other type fails at construction.

Composite slots (product / triangular) are laid out *first*,
so the engine's hot loop resolves the overwhelmingly common draws (the
reset line during a §5 reset storm) with a couple of comparisons before
falling back to the Fenwick walk over the same-state block.  Side
Fenwick trees are padded to powers of two so their top node *is* the
side total — updates become bare add-delta walks with no bookkeeping.

Per-state **update plans** are compiled from the families' membership
(:meth:`~repro.core.families.Family.states`) the first time a state is
touched, and whole transitions compile to plain-integer programs
(:meth:`FusedIndex.compile_transition`) that the engine's fast loop
executes through those plans without any per-event family dispatch.
All weights stay exact Python integers; the passes over the whole state
space (construction, :meth:`FusedIndex.resync`,
:meth:`FusedIndex.reclassify`) compute them with numpy from one int64
copy of the counts.

**Hybrid proposal/Fenwick sampling.**  Same-state slots are further
split into two pools.  Slots whose counts sit near the current maximum
are *proposal-mode*: their combined mass lives in one pseudo-slot
(:class:`_ProposalPool`) sampled by O(1) agent-proposal rejection — draw
a uniform agent of the pool, accept against a per-pool count bound
``m̂`` — and updated in O(1) per count change with no Fenwick writes at
all.  The remaining *tree-mode* slots keep the Fenwick walk, which
stays cheap as their mass drains toward silence.  The pseudo-slot sits
in the composite block, so the index's one residual draw routes to the
right regime with a single comparison.  Any partition is exact (the
rejection draw realises ``c(c−1)/W_pool`` within the pool, and the
top-level split weights the pools exactly); classification only moves
constants, and is re-evaluated cheaply on :meth:`FusedIndex.resync` and
by the engines' periodic :meth:`FusedIndex.reclassify` calls.

**Class factors.**  Given a partition of the states into scheduler
weight classes and a class matrix ``u`` of dyadic numerators
(denominator ``2⁵³`` — the resolution of the rejection engine's float
acceptance test, so both engines realise the *identical* step
distribution), every slot carries its class factor: a same-state slot
weighs ``u(c,c)·c(c−1)``, a product family splits into one slot per
(initiator class, responder class) block, and a triangular line splits
into its runs of consecutive same-class states — one triangular slot
per run plus one product slot per ordered pair of runs.  Without a
partition the index is one class with factor 1, the uniform layout.
The class-scaled layout has its own codes, so the engines' shared fused
loop multiplies no factor on the uniform path: its product and
triangular slots are :data:`SCALED`, decoded through the payloads'
``pair_from_target`` and weighed with their factor, and its same-state
plan steps are :data:`SCALED_SAME`, which carry the slot's factor.  Its
compiled transitions also list their net class-count moves.
:class:`WeightedFusedIndex` adds the per-class count sums that give a
biased scheduler's total step mass; see :mod:`repro.core.scheduler`
for the engine built on top of it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .families import Family, OrderedProduct, SameStatePairs, TriangularLine
from .fenwick import fill_tree

__all__ = [
    "FusedIndex",
    "WeightedFusedIndex",
    "WeightedIndexUnsupported",
    "WEIGHT_DENOMINATOR",
    "dyadic_weight_numerator",
]


class WeightedIndexUnsupported(SimulationError):
    """The weighted fused index cannot realise this scheduler exactly.

    Raised during compilation (custom family types, underivable state
    classes, too many classes).  Callers fall back to the rejection
    engine, which handles any scheduler.
    """

# Slot kinds, which double as the codes of the per-state plan steps.
SAME, PRODUCT, TRIANGULAR = 0, 1, 2
# Slot kind of a class-scaled composite slot: a product or triangular
# payload that carries its class factor, decoded through the payload's
# ``pair_from_target`` and weighed with the factor.  Its plan steps keep
# the PRODUCT/TRIANGULAR codes (the payload updates are the same).
SCALED = 3
# Slot kind of a proposal-pool pseudo-slot (hybrid same-state sampling).
PROPOSAL = 4
# Plan-step code of a class-scaled same-state slot; the step carries the
# slot's class factor.
SCALED_SAME = 5

#: Relative cost of serving one unit of same-state mass through the
#: Fenwick walk versus one O(1) proposal — the constant in the window
#: classifier's cost model (a find plus its update walks run a few
#: dozen list ops, a proposal roughly a dozen).
_POOL_TREE_COST_RATIO = 4
#: Windows whose expected proposals per draw exceed this are never
#: selected, so the classifier cannot install a partition that the
#: engines' acceptance trigger would immediately tear down.
_POOL_MAX_PROPOSALS = 16

#: Acceptance thresholds in the rejection engine are 53-bit uniforms
#: (``k·2⁻⁵³``), so every float pair weight acts with effective
#: probability ``ceil(w·2⁵³)/2⁵³``.  Scaling slot weights by the same
#: dyadic numerators makes the weighted index *exactly* equivalent.
WEIGHT_DENOMINATOR = 1 << 53


def dyadic_weight_numerator(weight: float) -> int:
    """``ceil(weight · 2⁵³)`` computed exactly (no float rounding).

    This is the number of 53-bit uniform thresholds a rejection test
    with probability ``weight`` accepts — the exact effective weight of
    the pair under the rejection engine.
    """
    if not 0.0 < weight <= 1.0:
        raise SimulationError(
            f"scheduler pair weight {weight} outside (0, 1]"
        )
    scaled = Fraction(weight) * WEIGHT_DENOMINATOR
    return -(-scaled.numerator // scaled.denominator)


def _padded_size(length: int) -> int:
    """Smallest power of two ``>= length`` (1 for an empty side).

    With a power-of-two size, a Fenwick array's top node ``tree[size]``
    is the total weight, so callers need no separate total bookkeeping;
    updates are bare add-delta walks.
    """
    return 1 << max(length - 1, 0).bit_length()


def _tree_find(tree: List[int], size: int, target: int) -> int:
    """Weighted-draw slot of a padded Fenwick array (``size`` = pow2)."""
    pos = 0
    bit = size
    while bit:
        nxt = pos + bit
        if nxt <= size:
            below = tree[nxt]
            if below <= target:
                target -= below
                pos = nxt
        bit >>= 1
    return pos


class _ProposalPool:
    """Proposal-mode same-state slots, sampled by O(1) agent rejection.

    The pool owns an explicit agent array over its *member* states
    (agents are exchangeable, so any assignment consistent with the
    counts realises the exact law): ``agents[p]`` is the state of the
    agent at flat position ``p``, ``positions[s]`` lists the flat
    positions currently holding state ``s`` (``None`` marks a candidate
    state that is tree-mode right now), and ``where[p]`` is ``p``'s
    index inside its state's position list — the indexed-multiset trick
    that makes both insertion and swap-removal O(1).

    Sampling: one draw ``v`` uniform on ``[0, N·m̂)`` fuses the agent
    proposal with its acceptance test (``p = v // m̂`` is a uniform
    pool agent, ``v % m̂`` an independent uniform threshold), so state
    ``s`` is returned with probability exactly ``c_s(c_s−1)/(N·m̂)``
    per attempt — proportional to its slot weight.  ``m̂`` only ever
    grows between reclassifications (set on every count increase), so
    the bound ``m̂ >= c_s`` can never be violated mid-run.
    """

    __slots__ = ("slot", "states", "positions", "agents",
                 "where", "weight", "mhat", "lo", "hi", "_candidates")

    def __init__(
        self,
        num_states: int,
        candidate_states: Sequence[int],
    ) -> None:
        self.slot = -1  # pseudo-slot id, assigned by the owning index
        self.states = list(candidate_states)
        self._candidates = np.asarray(self.states, dtype=np.intp)
        self.positions: List[Optional[List[int]]] = [None] * num_states
        self.agents: List[int] = []
        self.where: List[int] = []
        self.weight = 0
        self.mhat = 1
        self.lo = 2
        self.hi = 0

    def classify(self, counts: Sequence[int]) -> np.ndarray:
        """(Re)partition candidate states by count, in place.

        Members are the count *window* ``[lo, hi]`` minimising the cost
        model ``hi·Σc + R·(T − Σc(c−1))``: the first term is the
        expected proposal work of serving the pooled mass (``hi`` is
        the acceptance bound ``m̂``, ``Σc`` the proposal targets), the
        second the Fenwick work for whatever is left tree-mode (``T``
        the total same-state mass, ``R`` the relative walk cost).  A
        window (rather than a plain threshold) matters: one high-count
        outlier would otherwise inflate ``m̂`` for every small member,
        while the Fenwick walk serves a lone fat slot perfectly well.
        Counts drifting *into* the window after classification are
        migrated eagerly by the update paths (see ``lo``/``hi``);
        drifting out is harmless (drained members are expelled on the
        spot and overgrown ones only stretch ``m̂``) until the next
        reclassification re-balances.

        The count histogram is one ``np.unique`` over the candidates
        holding a pair (count ``>= 2``); only the O(distinct²) window
        search and the members' position lists are built in Python.
        Members are laid out bucket by bucket, buckets in order of
        their count's first appearance among the candidates and
        candidate order inside a bucket, each state's agents at
        consecutive flat positions.  The agent array is rebuilt via
        in-place list mutation so hot loops holding references stay
        valid.  ``counts`` is the full per-state count vector (list or
        numpy array).

        Returns the membership mask over the candidate states, in
        candidate order.  It describes the partition as classified: the
        update paths migrate members in and out afterwards without
        touching it.
        """
        positions = self.positions
        candidate_counts = np.asarray(counts, dtype=np.int64)[self._candidates]
        paired = np.flatnonzero(candidate_counts >= 2)
        distinct, first, bucket, sizes = np.unique(
            candidate_counts[paired],
            return_index=True, return_inverse=True, return_counts=True,
        )
        distinct = distinct.tolist()
        sizes = sizes.tolist()
        window = None
        if distinct:
            pair_mass = [k * c * (c - 1) for c, k in zip(distinct, sizes)]
            agent_mass = [k * c for c, k in zip(distinct, sizes)]
            total_pairs = sum(pair_mass)
            best = _POOL_TREE_COST_RATIO * total_pairs  # empty pool
            # O(distinct²) window search — distinct counts are few (the
            # profile at any moment clusters around a handful of
            # values), and reclassification is off the per-event path.
            for hi_idx in range(len(distinct) - 1, -1, -1):
                hi = distinct[hi_idx]
                pairs = 0
                members = 0
                for lo_idx in range(hi_idx, -1, -1):
                    pairs += pair_mass[lo_idx]
                    members += agent_mass[lo_idx]
                    if hi * members > _POOL_MAX_PROPOSALS * pairs:
                        break
                    cost = (
                        hi * members
                        + _POOL_TREE_COST_RATIO * (total_pairs - pairs)
                    )
                    if cost < best:
                        best = cost
                        window = (lo_idx, hi_idx)
        positions[:] = [None] * len(positions)
        member = np.zeros(len(candidate_counts), dtype=bool)
        if window is None:
            self.agents[:] = []
            self.where[:] = []
            self.lo, self.hi = 2, 0  # empty window: nothing migrates in
            self.mhat = 1
            self.weight = 0
            return member
        lo_idx, hi_idx = window
        chosen = (bucket >= lo_idx) & (bucket <= hi_idx)
        # Sorting by the index of each count's first appearance orders
        # the buckets as first seen; the stable sort keeps candidate
        # order inside each bucket.
        inside = paired[chosen][
            np.argsort(first[bucket[chosen]], kind="stable")
        ]
        member[inside] = True
        member_counts = candidate_counts[inside]
        states = self._candidates[inside]
        ends = np.cumsum(member_counts)
        starts = ends - member_counts
        num_agents = int(ends[-1])
        self.agents[:] = np.repeat(states, member_counts).tolist()
        self.where[:] = (
            np.arange(num_agents) - np.repeat(starts, member_counts)
        ).tolist()
        flat = list(range(num_agents))
        # One new list per member state.  They hold only ints, so they
        # cannot form reference cycles; with the cyclic collector on,
        # creating hundreds of thousands of them would trigger repeated
        # full collections (about half the resync time at n = 10⁶).
        collecting = gc.isenabled()
        gc.disable()
        try:
            for state, start, end in zip(
                states.tolist(), starts.tolist(), ends.tolist()
            ):
                positions[state] = flat[start:end]
        finally:
            if collecting:
                gc.enable()
        self.lo, self.hi = distinct[lo_idx], distinct[hi_idx]
        self.mhat = self.hi
        self.weight = int((member_counts * (member_counts - 1)).sum())
        return member

    def count_change(self, state: int, old: int, new: int) -> Optional[int]:
        """Adopt a member state's new count; returns the raw weight delta.

        Returns ``None`` when ``state`` is tree-mode (caller falls back
        to the Fenwick update).  Members draining below a pair are
        expelled on the spot — a weightless member only dilutes the
        proposal acceptance, and with eager expulsion the pool never
        accumulates drag between reclassifications.
        """
        plist = self.positions[state]
        if plist is None:
            return None
        agents = self.agents
        where = self.where
        if new > old:
            for _ in range(new - old):
                pos = len(agents)
                where.append(len(plist))
                plist.append(pos)
                agents.append(state)
            if new > self.mhat:
                self.mhat = new
        else:
            removals = old - new if new >= 2 else old
            for _ in range(removals):
                pos = plist.pop()
                last = len(agents) - 1
                if pos != last:
                    moved = agents[last]
                    moved_where = where[last]
                    agents[pos] = moved
                    where[pos] = moved_where
                    self.positions[moved][moved_where] = pos
                agents.pop()
                where.pop()
            if new < 2:
                self.positions[state] = None
        delta = new * (new - 1) - old * (old - 1)
        self.weight += delta
        return delta

    def migrate_in(self, state: int, count: int) -> int:
        """Adopt a tree-mode state whose count drifted into the window.

        Returns the raw weight gained by the pool; the caller zeroes the
        state's Fenwick slot, so subsequent updates to this state are
        O(1) member moves instead of tree walks.
        """
        agents = self.agents
        base = len(agents)
        self.positions[state] = list(range(base, base + count))
        agents.extend([state] * count)
        self.where.extend(range(count))
        if count > self.mhat:
            self.mhat = count
        gained = count * (count - 1)
        self.weight += gained
        return gained

    def sample_state(self, rand_below) -> int:
        """One member state, drawn ∝ ``c(c−1)`` (callers ensure weight > 0)."""
        agents = self.agents
        positions = self.positions
        mhat = self.mhat
        bound = len(agents) * mhat
        while True:
            draw = rand_below(bound)
            state = agents[draw // mhat]
            if draw % mhat < len(positions[state]) - 1:
                return state


class _ProductSlot:
    """One fused slot for an ``OrderedProduct`` family (or one class
    block of it), or for the pairs across two class runs of a line.

    Weight is ``factor · A · B`` where ``A``/``B`` are the side totals,
    maintained as O(1) scalars.  ``factor`` is 1 for the uniform index
    and the scheduler's dyadic numerator otherwise.  The two private
    padded Fenwick arrays are needed only to *decode* a draw, so their
    maintenance is **gated**: while the opposite side's total is zero
    the slot cannot be sampled (weight 0), updates skip the tree walk
    and mark the side stale, and the first decode after reactivation
    rebuilds the stale side from the live counts — which turns the §4
    line's per-event routing-tree writes into no-ops for the whole
    X-empty drain toward silence.
    """

    __slots__ = ("initiators", "responders", "init_tree", "init_size",
                 "resp_tree", "resp_size", "init_total", "resp_total",
                 "stale", "counts", "factor", "_init_states",
                 "_resp_states")

    def __init__(
        self,
        counts: Sequence[int],
        initiators: Sequence[int],
        responders: Sequence[int],
        factor: int = 1,
    ) -> None:
        self.initiators = list(initiators)
        self.responders = list(responders)
        self._init_states = np.asarray(self.initiators, dtype=np.intp)
        self._resp_states = np.asarray(self.responders, dtype=np.intp)
        self.init_size = _padded_size(len(self.initiators))
        self.resp_size = _padded_size(len(self.responders))
        self.init_tree = [0] * (self.init_size + 1)
        self.resp_tree = [0] * (self.resp_size + 1)
        self.factor = factor
        self.resync(counts, np.asarray(counts, dtype=np.int64))

    def weight(self) -> int:
        return self.factor * self.init_total * self.resp_total

    def sample_stale(self, bound: int, rand_below) -> Tuple[int, int]:
        """Decode a draw while some side tree is stale, without rebuilding.

        Each stale side is sampled by rejection against ``bound`` (any
        upper bound on every state count): propose a uniform side state,
        accept with probability ``count/bound`` — exactly proportional
        to the counts, which is all the tree find realises.  In the
        steady gated cycle (a line drain whose X excursions reactivate
        the slot for one event at a time) this replaces an O(side)
        rebuild per excursion with a handful of O(1) proposals.  When
        the count profile is too skewed for rejection (a reset storm
        piling agents onto a few states) the escape hatch rebuilds the
        trees once and the eager walks keep them live from then on.
        A clean side keeps the ordinary tree find (fresh randomness is
        fine: the two side draws just need to be independent and
        count-proportional).
        """
        counts = self.counts
        pair = []
        for states, stale_bit, tree, size in (
            (self.initiators, 1, self.init_tree, self.init_size),
            (self.responders, 2, self.resp_tree, self.resp_size),
        ):
            if len(states) == 1:
                pair.append(states[0])
                continue
            if self.stale & stale_bit:
                span = len(states) * bound
                proposals = 0
                choice = -1
                while True:
                    draw = rand_below(span)
                    state = states[draw // bound]
                    if draw % bound < counts[state]:
                        choice = state
                        break
                    proposals += 1
                    if proposals > 64:
                        # Rejection sampling is memoryless: abandoning
                        # it for an exact tree draw is still exact.
                        self.rebuild_stale()
                        break
                if choice >= 0:
                    pair.append(choice)
                    continue
            total = tree[size]
            pair.append(states[_tree_find(tree, size, rand_below(total))])
        return pair[0], pair[1]

    def rebuild_stale(self) -> None:
        """Refill stale side trees from the live counts (decode guard)."""
        counts = self.counts
        if self.stale & 1:
            fill_tree(
                self.init_tree, self.init_size,
                [counts[s] for s in self.initiators],
            )
        if self.stale & 2:
            fill_tree(
                self.resp_tree, self.resp_size,
                [counts[s] for s in self.responders],
            )
        self.stale = 0

    def resync(self, counts: Sequence[int], count_array: np.ndarray) -> None:
        """Reload both side trees from a counts list, in place.

        ``count_array`` is ``counts`` as an int64 array, read once per
        pass by the owning index; each side tree is one gather plus one
        :func:`fill_tree`.  Per-state update plans hold direct
        references to the tree lists, so a resync must refill rather
        than replace them.  The ``counts`` list reference is
        re-captured — this is the seam through which engines adopt an
        externally supplied configuration (stale side trees are later
        rebuilt from it).
        """
        self.counts = counts
        self.init_total = fill_tree(
            self.init_tree, self.init_size, count_array[self._init_states]
        )
        self.resp_total = fill_tree(
            self.resp_tree, self.resp_size, count_array[self._resp_states]
        )
        self.stale = 0

    def pair_from_target(self, target: int) -> Tuple[int, int]:
        """Decode both side draws from a residual target in ``[0, w)``.

        ``target`` uniform on ``[0, f·A·B)`` factors into independent
        uniforms for the two sides — an exact bijection, so no fresh
        randomness is needed.
        """
        if self.stale:
            self.rebuild_stale()
        span = self.factor * self.resp_total
        initiator = self.initiators[
            _tree_find(self.init_tree, self.init_size, target // span)
        ]
        responder = self.responders[
            _tree_find(
                self.resp_tree, self.resp_size, (target % span) // self.factor
            )
        ]
        return initiator, responder


class _TriangularSlot:
    """One fused slot for a ``TriangularLine`` family.

    Weight ``factor · [(Q − S) + (S² − Q)/2]`` from the running count
    moments ``S = Σc``, ``Q = Σc²`` — O(1) per count change, the fix for
    the old per-change O(len) recompute.  The line is one run of a
    single weight class, so one factor scales all of it.
    """

    __slots__ = ("line", "counts", "s", "q", "factor")

    def __init__(
        self, counts: Sequence[int], line: Sequence[int], factor: int = 1
    ) -> None:
        self.line = list(line)
        self.counts = [counts[s] for s in self.line]
        self.s = sum(self.counts)
        self.q = sum(c * c for c in self.counts)
        self.factor = factor

    def weight(self) -> int:
        s, q = self.s, self.q
        return self.factor * ((q - s) + (s * s - q) // 2)

    def resync(self, count_array: np.ndarray) -> None:
        """Reload line counts and moments from a counts array, in place."""
        line_counts = self.counts
        line_counts[:] = count_array[self.line].tolist()
        self.s = sum(line_counts)
        self.q = sum(c * c for c in line_counts)

    def pair_from_target(self, target: int) -> Tuple[int, int]:
        """Decode a line pair from a residual target in ``[0, w)``."""
        target //= self.factor
        counts = self.counts
        line = self.line
        suffix = self.s
        for i in range(len(counts)):
            c = counts[i]
            if c == 0:
                continue
            suffix -= c
            block = c * (c - 1 + suffix)
            if target < block:
                same = c * (c - 1)
                if target < same:
                    return line[i], line[i]
                j_target = (target - same) // c
                for j in range(i + 1, len(counts)):
                    if j_target < counts[j]:
                        return line[i], line[j]
                    j_target -= counts[j]
                raise SimulationError("fused triangular sample overflow")
            target -= block
        raise SimulationError("fused triangular sample out of range")


class _StatePlans:
    """Per-state update plans (``FusedIndex.state_steps``), built lazily.

    ``steps`` is a plain list indexed by state: ``steps[state]`` is the
    tuple of update steps one count change of ``state`` must apply — one
    per structure the state feeds, in the order the structures were
    registered (composite families in family order, then the same-state
    slot) — or ``None`` until :meth:`plan` first builds it.  Index
    construction therefore runs no per-state Python loop, and the
    engines only ever build the states their runs reach.

    The step tuples hold the payload objects and side trees they update,
    so a plan is built once per state and shared by every compiled
    transition that touches the state; the compiled programs themselves
    stay plain integers.  :meth:`FusedIndex.compile_transition` builds
    the plans of its states, which is what lets the inlined loops read
    ``steps[state]`` with a bare list subscript (CPython specialises
    subscripts on exact lists, not on a dict subclass with
    ``__missing__``).
    """

    __slots__ = ("steps", "_sources")

    def __init__(self, num_states: int) -> None:
        self.steps: List[Optional[tuple]] = [None] * num_states
        self._sources: List[Tuple[np.ndarray, Callable[[int], tuple]]] = []

    def add(
        self, states: Sequence[int], make_step: Callable[[int], tuple]
    ) -> None:
        """Register a structure: ``make_step(pos)`` steps ``states[pos]``."""
        position = np.full(len(self.steps), -1, dtype=np.int64)
        position[np.asarray(states, dtype=np.intp)] = np.arange(len(states))
        self._sources.append((position, make_step))

    def plan(self, state: int) -> tuple:
        """``state``'s plan, built and stored on first use."""
        plan = self.steps[state]
        if plan is None:
            built = []
            for position, make_step in self._sources:
                pos = position.item(state)
                if pos >= 0:
                    built.append(make_step(pos))
            plan = self.steps[state] = tuple(built)
        return plan


class FusedIndex:
    """Flat integer weight index over all productive pair slots.

    Built once per engine from ``protocol.build_families(counts)``; the
    families are only *read* during compilation — the index owns all
    mutable sampling state afterwards (the engine may let the family
    objects go stale).

    Layout: composite slots (product / triangular / proposal pool) occupy
    ``0..num_composite-1`` and live *outside* the Fenwick tree — their
    weights change on almost every event, the linear ``find`` pre-scan
    resolves them anyway, and keeping them out makes their per-event
    refresh an O(1) ``values[]`` write instead of a full tree walk.  The
    Fenwick tree covers only the same-state block (slot ``s`` maps to
    tree position ``s - num_composite``), whose per-slot weights change
    far less often than the composite aggregates.

    Attributes exposed for the engine's inlined hot loop: ``tree`` /
    ``values``, ``num_slots``, ``num_composite``, ``fenwick_size``
    (``num_slots - num_composite``), ``slot_kind``, ``slot_payload``,
    ``same_factors`` and ``total`` (the cached total weight ``W``).

    ``class_of`` (one class id per state) and ``class_matrix`` (the
    dyadic numerators ``u(p,q)`` per ordered class pair) scale every
    slot by its class factor (see the module docstring); both stay
    ``None`` without a partition.  A class-scaled index marks its
    composite slots :data:`SCALED` (their payloads keep the factor) and
    its same-state plan steps :data:`SCALED_SAME` (the step carries the
    factor); ``same_factors`` lists the same-state block's factors in
    slot order (``None`` without a partition).  Only the unscaled index
    builds the proposal pool, whose rejection draw realises ``c(c−1)``
    and nothing else.  A family whose type is not exactly one of the
    three raises :class:`~repro.exceptions.SimulationError` naming it
    (:class:`WeightedIndexUnsupported` on a partitioned index).
    """

    __slots__ = ("num_slots", "num_composite", "fenwick_size", "tree",
                 "values", "total", "slot_kind", "slot_payload",
                 "state_steps", "pool", "same_factors", "class_of",
                 "class_matrix", "_num_states", "_same_states", "_plans")

    def __init__(
        self,
        families: Sequence[Family],
        num_states: int,
        counts: Sequence[int],
        class_of: Optional[Sequence[int]] = None,
        class_matrix: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self._num_states = num_states
        self.class_of: Optional[List[int]] = None
        self.class_matrix: Optional[List[List[int]]] = None
        if class_of is None:
            u = [[1]]
        elif len(class_of) != num_states:
            raise SimulationError(
                f"state classes cover {len(class_of)} states, "
                f"expected {num_states}"
            )
        else:
            u = [[int(w) for w in row] for row in class_matrix]
            self.class_of = list(class_of)
            self.class_matrix = u
        scaled = class_of is not None
        kinds: List[int] = []
        payloads: List[object] = []
        weights: List[int] = []
        plans = _StatePlans(num_states)

        def class_blocks(states, runs=False):
            """``(class, states)`` groups of ``states``: its maximal runs
            of consecutive same-class states when ``runs``, else one
            block per class in order of first appearance."""
            if class_of is None:
                return [(0, list(states))]
            groups: List[Tuple[int, List[int]]] = []
            for state in states:
                cls = class_of[state]
                for group in groups[-1:] if runs else groups:
                    if group[0] == cls:
                        group[1].append(state)
                        break
                else:
                    groups.append((cls, [state]))
            return groups

        def add_product(initiators, responders, factor):
            slot = len(kinds)
            payload = _ProductSlot(counts, initiators, responders, factor)
            kinds.append(SCALED if scaled else PRODUCT)
            payloads.append(payload)
            weights.append(payload.weight())
            plans.add(
                payload.initiators,
                lambda pos, p=payload, slot=slot: (
                    PRODUCT, p.init_tree, pos + 1, p.init_size, slot, p,
                    True,
                ),
            )
            plans.add(
                payload.responders,
                lambda pos, p=payload, slot=slot: (
                    PRODUCT, p.resp_tree, pos + 1, p.resp_size, slot, p,
                    False,
                ),
            )

        # Composite slots first: the hot loop short-circuits the find
        # for them, and a handful of comparisons resolves the draws that
        # dominate reset-heavy runs.
        same_state: List[SameStatePairs] = []
        for family in families:
            if type(family) is SameStatePairs:
                same_state.append(family)
            elif type(family) is OrderedProduct:
                for p, initiators in class_blocks(family.initiators):
                    for q, responders in class_blocks(family.responders):
                        add_product(initiators, responders, u[p][q])
            elif type(family) is TriangularLine:
                # A line pair (i ≤ j) lies inside one run or across two;
                # the earlier run initiates a cross-run pair.
                runs = class_blocks(family.line_states(), runs=True)
                for cls, line in runs:
                    slot = len(kinds)
                    payload = _TriangularSlot(counts, line, u[cls][cls])
                    kinds.append(SCALED if scaled else TRIANGULAR)
                    payloads.append(payload)
                    weights.append(payload.weight())
                    plans.add(
                        payload.line,
                        lambda pos, p=payload, slot=slot: (
                            TRIANGULAR, p, pos, slot,
                        ),
                    )
                for r, (p, initiators) in enumerate(runs):
                    for q, responders in runs[r + 1:]:
                        add_product(initiators, responders, u[p][q])
            else:
                # A biased run falls back to the rejection engine.
                error = WeightedIndexUnsupported if scaled else SimulationError
                raise error(
                    f"fused index cannot compile custom family "
                    f"{type(family).__name__} (only SameStatePairs, "
                    "OrderedProduct and TriangularLine); run this protocol "
                    + ("on the rejection engine" if scaled
                       else 'with engine="sequential"')
                )
        composite_mass = sum(weights)
        # Hybrid same-state sampling: one proposal-pool pseudo-slot at
        # the end of the composite block carries the pooled mass; the
        # per-state slots below hold only the tree-mode residue (value 0
        # while pooled — exact for any partition).
        rule_states = [
            state
            for family in same_state
            for state in family.rule_states()
        ]
        self.same_factors: Optional[List[int]] = None
        if scaled:
            self.same_factors = [
                u[class_of[state]][class_of[state]] for state in rule_states
            ]
        pool: Optional[_ProposalPool] = None
        if rule_states and not scaled:
            pool = _ProposalPool(num_states, rule_states)
            pool.slot = len(kinds)
            kinds.append(PROPOSAL)
            payloads.append(pool)
            weights.append(0)  # set when the same-state block is filled
        self.pool = pool
        num_composite = len(kinds)
        self.num_composite = num_composite
        # One same-state slot per rule state, in rule-state order (which
        # is also the pool's candidate order).  A plan step's third
        # field is the slot's first Fenwick node (the tree only spans
        # the same-state block); a class-scaled step's fourth is the
        # slot's factor.
        kinds.extend([SAME] * len(rule_states))
        payloads.extend(rule_states)
        weights.extend([0] * len(rule_states))
        if scaled:
            plans.add(
                rule_states,
                lambda pos, factors=self.same_factors: (
                    SCALED_SAME, num_composite + pos, pos + 1, factors[pos],
                ),
            )
        else:
            plans.add(
                rule_states, lambda pos: (SAME, num_composite + pos, pos + 1)
            )

        self.num_slots = len(kinds)
        self.fenwick_size = self.num_slots - num_composite
        self.slot_kind = kinds
        self.slot_payload = payloads
        self.values = weights
        self.tree = [0] * (self.fenwick_size + 1)
        self._plans = plans
        self.state_steps = plans.steps
        self._same_states = np.asarray(rule_states, dtype=np.intp)
        self.total = composite_mass + self._fill_same_state(
            np.asarray(counts, dtype=np.int64)
        )

    def layout(self) -> tuple:
        """Plain structural description of the slot layout.

        One hashable tuple per slot, count-independent — the structural
        skeleton the compiled index is built around.  The batch backend
        (:mod:`repro.core.batch`) compiles its weight bookkeeping from
        this export and uses it as the cross-run program-cache key, so
        both backends share one source of truth for how productive
        pairs decompose into slots:

        * ``("same", state)`` — one same-state rule slot;
        * ``("product", initiators, responders)`` — an ordered-product
          family slot (disjoint side tuples);
        * ``("triangular", line)`` — a triangular line family slot (the
          line in position order);
        * ``("proposal-pool", states)`` — the hybrid same-state pool
          pseudo-slot (candidate states).
        """
        slots = []
        for slot in range(self.num_slots):
            kind = self.slot_kind[slot]
            payload = self.slot_payload[slot]
            if kind == SAME:
                slots.append(("same", payload))
            elif kind == PROPOSAL:
                slots.append(("proposal-pool", tuple(payload.states)))
            elif type(payload) is _ProductSlot:
                slots.append(
                    (
                        "product",
                        tuple(payload.initiators),
                        tuple(payload.responders),
                    )
                )
            else:
                slots.append(("triangular", tuple(payload.line)))
        return tuple(slots)

    # ------------------------------------------------------------------
    # Slot-level primitives
    # ------------------------------------------------------------------
    def _set(self, slot: int, weight: int) -> int:
        """Set one slot's weight; returns the delta applied."""
        values = self.values
        delta = weight - values[slot]
        if delta == 0:
            return 0
        values[slot] = weight
        self.total += delta
        num_composite = self.num_composite
        if slot >= num_composite:
            tree = self.tree
            node = slot - num_composite + 1
            size = self.fenwick_size
            while node <= size:
                tree[node] += delta
                node += node & -node
        return delta

    def find(self, target: int) -> Tuple[int, int]:
        """Slot hit by a weighted draw, plus the residual target.

        The handful of composite slots resolve with a linear scan; only
        draws landing in the same-state block walk the Fenwick tree.
        """
        if not 0 <= target < self.total:
            raise SimulationError(
                f"fused find target {target} outside [0, {self.total})"
            )
        values = self.values
        residual = target
        for slot in range(self.num_composite):
            value = values[slot]
            if residual < value:
                return slot, residual
            residual -= value
        tree = self.tree
        size = self.fenwick_size
        pos = 0
        bit = 1 << (size.bit_length() - 1) if size else 0
        while bit:
            nxt = pos + bit
            if nxt <= size:
                below = tree[nxt]
                if below <= residual:
                    residual -= below
                    pos = nxt
            bit >>= 1
        return pos + self.num_composite, residual

    def pair_from_slot(
        self, slot: int, residual: int, rand_below
    ) -> Tuple[int, int]:
        """Decode the sampled ordered state pair of one slot."""
        kind = self.slot_kind[slot]
        payload = self.slot_payload[slot]
        if kind == SAME:
            return payload, payload
        if kind == PROPOSAL:
            state = payload.sample_state(rand_below)
            return state, state
        return payload.pair_from_target(residual)

    def sample(self, rand_below) -> Tuple[int, int]:
        """Draw a productive ordered state pair ∝ its slot weight."""
        slot, residual = self.find(rand_below(self.total))
        return self.pair_from_slot(slot, residual, rand_below)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def resync(self, counts: Sequence[int]) -> None:
        """Reload every slot weight from a counts list, in place.

        The slot layout, payload objects, and any compiled transition
        programs stay valid — only the weights move.  This is the
        fault-injection seam: adopting an externally mutated
        configuration costs one pass, with no program recompilation.
        The pass reads ``counts`` into one int64 array and works on it
        with numpy: a gather plus a :func:`fill_tree` per side tree, the
        pool classification, and the same-state block.  The only
        per-state Python work left is building each pool member's
        position list.  Every slot is a pure function of the counts, so
        the pass cannot fail.

        Resync is also the **canonicalisation seam** the checkpoint
        layer relies on: the proposal/Fenwick partition and product
        stale-flags it produces are a pure function of ``counts``
        (history-independent), so an engine that resyncs at a run
        boundary holds exactly the state a fresh engine (or one
        restored from an :class:`~repro.core.snapshot.EngineSnapshot`)
        would compile from the same counts.  That is what lets
        snapshots stay compiled-index-free while restores stay
        bit-exact.
        """
        self._reload(counts, np.asarray(counts, dtype=np.int64))

    def _reload(self, counts: Sequence[int], count_array: np.ndarray) -> None:
        """Reload every slot weight (the body of :meth:`resync`)."""
        kinds = self.slot_kind
        payloads = self.slot_payload
        values = self.values
        total = 0
        for slot in range(self.num_composite):
            if kinds[slot] == PROPOSAL:
                continue  # refilled with the same-state block
            payload = payloads[slot]
            if type(payload) is _ProductSlot:
                payload.resync(counts, count_array)
            else:
                payload.resync(count_array)
            weight = payload.weight()
            values[slot] = weight
            total += weight
        # Resync doubles as reclassification: the new counts decide
        # which same-state slots are proposal-mode.
        self.total = total + self._fill_same_state(count_array)

    def reclassify(self, counts: Sequence[int]) -> None:
        """Re-partition same-state slots between the pools, in place.

        Periodically called by the engines' fast loops so the proposal
        pool tracks the drifting count profile (its members drain, new
        mass grows in tree-mode slots).  Moves weight between the pool
        pseudo-slot and the per-state Fenwick slots without changing
        :attr:`total` — classification is a constant-factor choice, the
        sampled distribution is identical for any partition.
        """
        if self.pool is not None:
            self._fill_same_state(np.asarray(counts, dtype=np.int64))

    def _fill_same_state(self, count_array: np.ndarray) -> int:
        """Classify the pool and refill the same-state block; returns its mass.

        Each same-state slot weighs ``f·c(c−1)`` for its class factor
        ``f``, or 0 while its state is a pool member (the pool
        pseudo-slot carries that mass).  The return value is the pooled
        plus the tree-mode mass.
        """
        block = count_array[self._same_states]
        block *= block - 1
        pooled = 0
        pool = self.pool
        if pool is not None:
            block[pool.classify(count_array)] = 0
            pooled = pool.weight
            self.values[pool.slot] = pooled
        weights = block.tolist()
        if self.same_factors is not None:
            # Dyadic factors reach 2⁵³, past int64: exact Python ints.
            block = weights = [
                f * w for f, w in zip(self.same_factors, weights)
            ]
        self.values[self.num_composite:] = weights
        return pooled + fill_tree(self.tree, self.fenwick_size, block)

    def apply_count_change(self, state: int, old: int, new: int) -> int:
        """Route one count change to every structure touching ``state``.

        Returns the total-weight delta (also applied to :attr:`total`).
        This is the generic path used by ``step()`` and by protocols
        that opt out of transition compilation; hot loops execute the
        precompiled programs from :meth:`compile_transition` instead.
        """
        delta = new - old
        delta_w = 0
        pool = self.pool
        for step in self._plans.plan(state):
            kind = step[0]
            if kind == SAME:
                pooled = (
                    pool.count_change(state, old, new)
                    if pool is not None else None
                )
                if pooled is not None:
                    if pooled:
                        self.values[pool.slot] += pooled
                        self.total += pooled
                        delta_w += pooled
                elif pool is not None and pool.lo <= new <= pool.hi:
                    # Count drifted into the pool window: migrate now so
                    # further updates are O(1) member moves.
                    gained = pool.migrate_in(state, new)
                    self.values[pool.slot] += gained
                    self.total += gained
                    delta_w += gained + self._set(step[1], 0)
                else:
                    delta_w += self._set(step[1], new * (new - 1))
            elif kind == SCALED_SAME:
                delta_w += self._set(step[1], step[3] * new * (new - 1))
            elif kind == PRODUCT:
                tree, node, size, slot, payload = (
                    step[1], step[2], step[3], step[4], step[5]
                )
                if step[6]:
                    payload.init_total += delta
                    if payload.stale & 1 or payload.resp_total == 0:
                        payload.stale |= 1
                        node = size + 1  # gated: skip the walk
                else:
                    payload.resp_total += delta
                    if payload.stale & 2 or payload.init_total == 0:
                        payload.stale |= 2
                        node = size + 1  # gated: skip the walk
                while node <= size:
                    tree[node] += delta
                    node += node & -node
                delta_w += self._set(slot, payload.weight())
            else:  # TRIANGULAR
                payload, pos, slot = step[1], step[2], step[3]
                payload.counts[pos] = new
                payload.s += delta
                payload.q += new * new - old * old
                delta_w += self._set(slot, payload.weight())
        return delta_w

    def compile_transition(
        self, ops: Sequence[Tuple[int, int]]
    ) -> Tuple[tuple, Optional[tuple], Optional[tuple], tuple]:
        """Compile one transition into ``(refresh, prods, transfer, moves)``.

        The result is plain integer data: ints, ``None`` and tuples of
        those, which the cyclic garbage collector stops tracking at its
        first pass — engines cache one program per distinct pair, and a
        §5 reset storm compiles tens of thousands of them.  The program
        body is ``ops`` itself: the inlined loops apply each
        ``(state, delta)`` through the state's plan in
        :attr:`state_steps`, which this call builds for every state of
        the transition, and read each refreshed slot's kind and payload
        from :attr:`slot_kind` and :attr:`slot_payload`.

        ``refresh`` lists the *deduplicated* composite slots the
        transition's states feed, in first-touch order: each fused
        weight is recomputed once after all payload updates, so a
        transition touching three line states costs one slot refresh,
        not three.

        ``prods`` is the transition's *sprint guard*, ``((slot,
        net_init_delta), …)`` over the product slots it touches, or
        ``None`` when it touches a triangular slot or changes
        a product's responder side.  While every listed slot has
        ``resp_total == 0`` it weighs zero before and after the event:
        the product steps then only stale-mark and add to the initiator
        total, and the engine may skip the refresh pass — which is what
        lets the §4 line's drain run at the same-state loop's
        O(1)-per-event pace.  ``transfer`` additionally pre-resolves the
        dominant −1/+1 shape between two same-state slots (``(src, dst,
        dst_slot, dst_node)``): one agent moves between two states, so
        when both are pool members their same-state update is a single
        flat re-label instead of a removal plus an insertion.

        ``moves`` lists the transition's net class-count changes on a
        class-scaled index, ``((class, delta, column), …)``: each class
        once, in first-touch order, with the matrix column ``u(·, class)``
        for the step-mass update.  A transition inside one class has no
        moves, and neither has any transition of the unscaled index.
        """
        plan = self._plans.plan
        refresh: List[int] = []
        prods: Dict[int, List[int]] = {}
        guarded = True
        same: List[Tuple[int, int, int, int]] = []
        for state, delta in ops:
            for step in plan(state):
                kind = step[0]
                if kind == SAME:
                    same.append((state, delta, step[1], step[2]))
                    continue
                if kind == SCALED_SAME:
                    continue
                if kind == PRODUCT:
                    slot = step[4]
                    net = prods.setdefault(slot, [0, 0])
                    net[0 if step[6] else 1] += delta
                else:  # TRIANGULAR
                    guarded = False
                    slot = step[3]
                if slot not in refresh:
                    refresh.append(slot)
        moves = ()
        if self.class_of is not None:
            classes: Dict[int, int] = {}
            for state, delta in ops:
                cls = self.class_of[state]
                classes[cls] = classes.get(cls, 0) + delta
            moves = tuple([
                (cls, delta, tuple([row[cls] for row in self.class_matrix]))
                for cls, delta in classes.items()
                if delta
            ])
        if not guarded or any(dr for _, dr in prods.values()):
            return tuple(refresh), None, None, moves
        transfer = None
        if len(ops) == 2 and len(same) == 2:
            src, dst = same if same[0][1] < 0 else same[::-1]
            if (src[1], dst[1]) == (-1, 1):
                transfer = (src[0], dst[0], dst[2], dst[3])
        return (
            tuple(refresh),
            tuple([(slot, di) for slot, (di, _) in prods.items()]),
            transfer,
            moves,
        )


class WeightedFusedIndex(FusedIndex):
    """Fused index scaled by a biased scheduler, plus its total step mass.

    Exactness contract: pair weights enter as dyadic numerators
    (:func:`dyadic_weight_numerator`), and the scheduler must be
    *class-uniform* — its ``pair_weight`` depends only on the (state
    class, state class) pair for a given partition of the state space
    (see ``PairScheduler.state_classes``).  The slots are
    :class:`FusedIndex`'s class-scaled layout, without a proposal pool.

    The index also tracks the scheduler's **total step mass** over all
    ordered agent pairs (productive or not) through per-class count
    sums, which is what turns the rejection loop into a geometric jump:
    the probability of a step being productive is
    ``total / total_mass()``, both exact integers.
    """

    __slots__ = ("class_counts", "_row_dot", "_class_array")

    def __init__(
        self,
        families: Sequence[Family],
        num_states: int,
        counts: Sequence[int],
        class_of: Sequence[int],
        class_matrix: Sequence[Sequence[int]],
    ) -> None:
        super().__init__(families, num_states, counts, class_of, class_matrix)
        self._class_array = np.asarray(class_of, dtype=np.intp)
        self.class_counts = [0] * len(self.class_matrix)
        self._row_dot = [0] * len(self.class_matrix)
        self._load_class_sums(np.asarray(counts, dtype=np.int64))

    def _load_class_sums(self, count_array: np.ndarray) -> None:
        """Per-class count sums and ``row_dot[p] = Σ_q u(p,q)·C_q``."""
        sums = np.zeros(len(self.class_counts), dtype=np.int64)
        np.add.at(sums, self._class_array, count_array)
        class_counts = self.class_counts
        class_counts[:] = sums.tolist()
        self._row_dot[:] = [
            sum(w * count for w, count in zip(row, class_counts))
            for row in self.class_matrix
        ]

    def add_class_count(self, state: int, delta: int) -> None:
        """Adopt one state's count change in the class sums."""
        cls = self.class_of[state]
        self.class_counts[cls] += delta
        row_dot = self._row_dot
        for p, row in enumerate(self.class_matrix):
            row_dot[p] += row[cls] * delta

    def resync(self, counts: Sequence[int]) -> None:
        """Reload every slot weight and class sum from a counts list, in place.

        The slot layout and payload objects stay valid — only the
        weights move.  One pass serves two seams: adopting an
        externally mutated configuration (fault injection) and **epoch
        hot-swap** — an engine switching scheduler segments resyncs the
        incoming precompiled index from the live counts instead of
        recompiling it.
        """
        count_array = np.asarray(counts, dtype=np.int64)
        self._reload(counts, count_array)
        self._load_class_sums(count_array)

    def total_mass(self) -> int:
        """Scheduler mass of *all* ordered agent pairs (incl. null ones).

        ``Σ u(sᵢ,sⱼ)·cᵢ·cⱼ − Σ u(s,s)·c_s`` over classes — the weighted
        analogue of ``n(n−1)``, and the denominator of the geometric
        jump's success probability.  O(#classes) per call.
        """
        u = self.class_matrix
        class_counts = self.class_counts
        row_dot = self._row_dot
        cross = 0
        diagonal = 0
        for p, count in enumerate(class_counts):
            cross += count * row_dot[p]
            diagonal += u[p][p] * count
        return cross - diagonal

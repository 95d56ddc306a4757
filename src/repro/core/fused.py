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
falling back to the Fenwick walk over the same-state block.  A product
side of at most ``_SCAN_SIDE_STATES`` states keeps no tree at all: its
decode scans the live counts in side order, and a count change moves
only the side total.  That covers the §5 reset line (``2k = 4⌈log₂ n⌉``
states, at most 128 for every ``n ≤ 2³²``), whose R4 draws land on its
first state or two, and every side of the §4 line at ``m = 2``.  Longer
sides (the tree's ``n`` ranks, the §4 line's rank side at ``m ≥ 4``)
keep Fenwick trees padded to powers of two, so their top node *is* the
side total: updates are bare add-delta walks with no bookkeeping, and
a find starts one level below the top.

Per-state **update plans** are laid out from the index's structures at
the first compiled transition, all states at once, and whole
transitions compile to programs (:meth:`FusedIndex.compile_transition`)
that the engine's fast loop executes through those plans without any
per-event family dispatch.  Plans and programs are plain integers; a
plan step names its payload by slot and its position in the structure
as an offset from its state, so every state of one run of consecutive
members shares one plan (the §5 tree has two: the ranks and the reset
line), and a cross-state program that names its pair by codes is
shared by every pair of the same plans.
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
constants, and is re-evaluated on :meth:`FusedIndex.resync` and by the
engines' periodic :meth:`FusedIndex.reclassify` calls.

**The idle pool.**  A pool is worth laying out only if it serves draws.
When fewer than one same-state draw is expected before the next
periodic re-partition — ``_RECLASSIFY_EVENTS · T < W`` for the
same-state mass ``T`` (pooled plus tree-mode) and the index total ``W``
— the pool stays empty and every same-state slot stays on the Fenwick
walk.  The test reads two totals the counts determine, so the partition
stays a pure function of the counts.  A §5 reset storm spends its
events on the reset line and the ``(line × rank)`` product: in a served
tree job at n = 65 536 (200 000 events in 4 096-event ``run()`` calls)
the same-state mass stays below ``1.1·10⁻⁴`` of the total from the
second call on, so a laid-out pool would serve almost no draws.

**Live canonicalisation.**  An index that only the fused loop has
changed since its last full reload is *live*
(:attr:`FusedIndex.live`): its composite weights, side totals, clean
side trees, same-state block and total already equal what a reload from
the counts would compute.  Only two things drift with the loop's
history — product sides the loop left stale, and the pool partition —
so :meth:`FusedIndex.resync` on a live index rebuilds the stale sides
and re-partitions.  The re-partition costs nothing while the pool is
idle and empty, and one O(n) pass over the same-state block otherwise.
The fused loop clears :attr:`live` while it runs, so a fault that
escapes it leaves the index not live; engines clear it too whenever
the counts change behind the index's back (a reset, a restore, the
same-state loop, a segment swap), and the next resync reloads
everything.

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

import contextlib
import gc
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
# the PRODUCT/SCANNED/TRIANGULAR codes (the payload updates are the
# same).
SCALED = 3
# Slot kind of a proposal-pool pseudo-slot (hybrid same-state sampling).
PROPOSAL = 4
# Plan-step code of a class-scaled same-state slot; the step carries the
# slot's class factor.
SCALED_SAME = 5
# Plan-step code of a state on a scanned product side (one that keeps no
# tree, see ``_SCAN_SIDE_STATES``): the step moves only the side total.
SCANNED = 6

#: Product sides of at most this many states keep no Fenwick tree.  A
#: decode scans the side's live counts in side order with the residual
#: target, which picks the state a tree find would pick, and a count
#: change moves only the side total instead of walking a padded tree.
#: The §5 reset line (``2k = 4⌈log₂ n⌉`` states) stays within it for
#: every ``n ≤ 2³²``, and a reset storm's R4 draws land on its first
#: state or two, so the scan is short where the tree walks were not.
_SCAN_SIDE_STATES = 128

#: Relative cost of serving one unit of same-state mass through the
#: Fenwick walk versus one O(1) proposal — the constant in the window
#: classifier's cost model (a find plus its update walks run a few
#: dozen list ops, a proposal roughly a dozen).
_POOL_TREE_COST_RATIO = 4
#: Windows whose expected proposals per draw exceed this are never
#: selected, so the classifier cannot install a partition that the
#: engines' acceptance trigger would immediately tear down.
_POOL_MAX_PROPOSALS = 16
#: Productive events between the fused loop's periodic re-partitions
#: (``repro.core.jump._run_fused``), and the horizon of the idle rule:
#: the pool stays empty while fewer than one same-state draw is expected
#: before the next re-partition.  Any partition is exact, so the pass is
#: purely a constant-factor tracker: eager migration and expulsion keep
#: membership tight in between, and the loop's acceptance trigger forces
#: an early pass when the bound m̂ degrades, so the period can be long.
_RECLASSIFY_EVENTS = 8192

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


@contextlib.contextmanager
def collector_paused():
    """Run the block with Python's cyclic garbage collector paused.

    Compile passes over a whole state space allocate one container per
    state (lists, tuples, plan entries), and none of them forms a
    reference cycle.  With the collector on, every 700 such allocations
    start a young collection, and the survivors pile into the older
    generations until full collections traverse them again: building
    the engine for AG at n = 10⁶ ran 5 226 young, 475 middle and 15
    full collections, which took more than half its time.  Paused, the
    objects are traversed once, by the first young collection after the
    block.

    The jump engine's fused loop runs under it too, for what the loop
    allocates (pool member lists, draw batches).  A §5 reset storm no
    longer allocates per new pair: one ``serve-tree-large`` job (tree
    n = 65 536, 200 000 events in 49 ``run()`` calls) fills about
    52 000 pair-table entries with references to 8 shared
    plain-integer programs and lays out two plans, and its ``run()``
    calls start one young collection, paused or not.  When each pair
    compiled its own program and each rank built its own plan, the
    same calls started 523 young, 47 middle and 4 full collections
    with the collector on in the loop, against 65, 6 and 1 paused.  The
    exit resync runs with the collector on; on a live index with an
    idle, empty pool it allocates almost nothing.

    The collector is restored to the state it was found in, also when
    the block raises; a caller that had already disabled it keeps it
    disabled.  The switch is process-wide: a block that found the
    collector on turns it back on when it ends, whatever another thread
    did in between.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _side_tree(length: int) -> Tuple[Optional[List[int]], int]:
    """``(tree, size)`` of a product side of ``length`` states: a Fenwick
    array padded to the smallest power-of-two ``size >= length``, or
    ``(None, 0)`` for a scanned side.

    With a power-of-two size the array's top node ``tree[size]`` is the
    side total, which no find target reaches, so a find starts one level
    below it; updates are bare add-delta walks.
    """
    if length <= _SCAN_SIDE_STATES:
        return None, 0
    size = 1 << (length - 1).bit_length()
    return [0] * (size + 1), size


def _side_find(
    states: List[int],
    tree: Optional[List[int]],
    size: int,
    counts: Sequence[int],
    target: int,
) -> int:
    """The state of a product side that ``target`` picks.

    ``target`` lies in ``[0, side total)``; the pick is the first state
    (in side order) whose running count sum exceeds it.  A scanned side
    (``tree`` is ``None``) walks the live counts; a tree side descends
    its padded Fenwick array from one level below the top node, which
    holds the total that no target reaches, so every probe lies inside
    the array.  Both pick the same state for every target.
    """
    if tree is None:
        for state in states:
            count = counts[state]
            if target < count:
                return state
            target -= count
        raise SimulationError("fused product side draw out of range")
    pos = 0
    bit = size >> 1
    while bit:
        below = tree[pos + bit]
        if below <= target:
            target -= below
            pos += bit
        bit >>= 1
    return states[pos]


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
    the bound ``m̂ >= c_s`` can never be violated mid-run.  The jump
    engine's fused loop (``repro.core.jump._run_fused``) draws and moves
    members inline; this class builds the partition it works on.
    """

    __slots__ = ("slot", "positions", "agents",
                 "where", "weight", "mhat", "lo", "hi", "_candidates")

    def __init__(
        self,
        num_states: int,
        candidate_states: Sequence[int],
    ) -> None:
        self.slot = -1  # pseudo-slot id, assigned by the owning index
        # The owning index hands down its intp array of the rule states,
        # which this adopts without a copy.
        self._candidates = np.asarray(candidate_states, dtype=np.intp)
        self.positions: List[Optional[List[int]]] = [None] * num_states
        self.agents: List[int] = []
        self.where: List[int] = []
        self.weight = 0
        self.mhat = 1
        self.lo = 2
        self.hi = 0

    @property
    def states(self) -> List[int]:
        """The candidate states, in candidate order."""
        return self._candidates.tolist()

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
        migrated eagerly by the fused loop (see ``lo``/``hi``);
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
        fused loop migrates members in and out afterwards without
        touching it.

        This is the busy pool's partition.  The owning index skips the
        pass while its idle rule holds (see :meth:`FusedIndex.reclassify`)
        and empties the pool instead, so the O(n) histogram and the
        member layout are paid only while the pool serves draws.
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
        if window is None:
            self.release()
            return np.zeros(len(candidate_counts), dtype=bool)
        positions[:] = [None] * len(positions)
        member = np.zeros(len(candidate_counts), dtype=bool)
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
        with collector_paused():
            for state, start, end in zip(
                states.tolist(), starts.tolist(), ends.tolist()
            ):
                positions[state] = flat[start:end]
        self.lo, self.hi = distinct[lo_idx], distinct[hi_idx]
        self.mhat = self.hi
        self.weight = int((member_counts * (member_counts - 1)).sum())
        return member

    def release(self) -> None:
        """Empty the pool in place: the partition of an idle pool.

        O(pool agents): a state has a position list exactly while it
        holds pool agents, so only the members' lists are dropped.
        """
        positions = self.positions
        for state in self.agents:
            positions[state] = None
        self.agents[:] = []
        self.where[:] = []
        self.lo, self.hi = 2, 0  # empty window: nothing migrates in
        self.mhat = 1
        self.weight = 0



class _ProductSlot:
    """One fused slot for an ``OrderedProduct`` family (or one class
    block of it), or for the pairs across two class runs of a line.

    Weight is ``factor · A · B`` where ``A``/``B`` are the side totals,
    maintained as O(1) scalars.  ``factor`` is 1 for the uniform index
    and the scheduler's dyadic numerator otherwise.  A side only needs
    more than its total to *decode* a draw.  A side of at most
    ``_SCAN_SIDE_STATES`` states keeps nothing more (its tree is
    ``None``, its size 0): a decode scans the live counts.  A longer
    side keeps a private padded Fenwick array, whose maintenance is
    **gated**: while the opposite side's total is zero the slot cannot
    be sampled (weight 0), updates skip the tree walk and mark the side
    stale, and a decode while a side is stale samples it by rejection
    (:meth:`sample_stale`) — which turns the §4 line's per-event
    routing-tree writes into no-ops for the whole X-empty drain toward
    silence.  A scanned side keeps the same stale mark, set and cleared
    at the same points, so its stale decodes take the same rejection
    draws as a tree side would.
    """

    __slots__ = ("initiators", "responders", "init_tree", "init_size",
                 "resp_tree", "resp_size", "init_total", "resp_total",
                 "stale", "counts", "factor", "_init_states",
                 "_resp_states")

    def __init__(
        self,
        counts: Sequence[int],
        count_array: np.ndarray,
        initiators: Sequence[int],
        responders: Sequence[int],
        factor: int = 1,
    ) -> None:
        self.initiators = list(initiators)
        self.responders = list(responders)
        self._init_states = np.asarray(self.initiators, dtype=np.intp)
        self._resp_states = np.asarray(self.responders, dtype=np.intp)
        self.init_tree, self.init_size = _side_tree(len(self.initiators))
        self.resp_tree, self.resp_size = _side_tree(len(self.responders))
        self.factor = factor
        self.resync(counts, count_array)

    def weight(self) -> int:
        return self.factor * self.init_total * self.resp_total

    def sample_stale(self, bound: int, rand_below) -> Tuple[int, int]:
        """Decode a draw while some side is stale, without rebuilding.

        Each stale side is sampled by rejection against ``bound`` (any
        upper bound on every state count): propose a uniform side state,
        accept with probability ``count/bound`` — exactly proportional
        to the counts, which is all a side find realises.  In the
        steady gated cycle (a line drain whose X excursions reactivate
        the slot for one event at a time) this replaces an O(side)
        rebuild per excursion with a handful of O(1) proposals.  When
        the count profile is too skewed for rejection (a reset storm
        piling agents onto a few states) the escape hatch rebuilds the
        stale trees once and the eager walks keep them live from then
        on.  A clean side keeps the ordinary side find with a fresh
        draw (fresh randomness is fine: the two side draws just need to
        be independent and count-proportional).
        """
        counts = self.counts
        pair = []
        for states, stale_bit, tree, size, total in (
            (self.initiators, 1, self.init_tree, self.init_size,
             self.init_total),
            (self.responders, 2, self.resp_tree, self.resp_size,
             self.resp_total),
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
                        # it for an exact side find is still exact.
                        self.rebuild_stale()
                        break
                if choice >= 0:
                    pair.append(choice)
                    continue
            pair.append(
                _side_find(states, tree, size, counts, rand_below(total))
            )
        return pair[0], pair[1]

    def rebuild_stale(self) -> None:
        """Refill stale side trees from the live counts (decode guard);
        a stale scanned side only drops its mark."""
        counts = self.counts
        if self.stale & 1 and self.init_tree is not None:
            fill_tree(
                self.init_tree, self.init_size,
                [counts[s] for s in self.initiators],
            )
        if self.stale & 2 and self.resp_tree is not None:
            fill_tree(
                self.resp_tree, self.resp_size,
                [counts[s] for s in self.responders],
            )
        self.stale = 0

    def resync(self, counts: Sequence[int], count_array: np.ndarray) -> None:
        """Reload both sides from a counts list, in place.

        ``count_array`` is ``counts`` as an int64 array, read once per
        pass by the owning index; each side is one gather plus one
        :func:`fill_tree` into the side tree, in place (a tree side),
        or one sum (a scanned side).  The ``counts`` list reference is
        re-captured — this is the seam through which engines adopt an
        externally supplied configuration (scanned sides and stale
        side trees are later read from it).
        """
        self.counts = counts
        side = count_array[self._init_states]
        self.init_total = (
            int(side.sum()) if self.init_tree is None
            else fill_tree(self.init_tree, self.init_size, side)
        )
        side = count_array[self._resp_states]
        self.resp_total = (
            int(side.sum()) if self.resp_tree is None
            else fill_tree(self.resp_tree, self.resp_size, side)
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
        counts = self.counts
        return (
            _side_find(
                self.initiators, self.init_tree, self.init_size, counts,
                target // span,
            ),
            _side_find(
                self.responders, self.resp_tree, self.resp_size, counts,
                (target % span) // self.factor,
            ),
        )


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
    """Per-state update plans (``FusedIndex.state_steps``), relative to
    their state.

    ``steps`` is a plain list indexed by state: ``steps[state]`` is the
    tuple of update steps one count change of ``state`` must apply — one
    per structure the state feeds, in the order the structures were
    registered (composite families in family order, then the same-state
    block).  It stays empty until the first compiled transition calls
    :meth:`lay_out`, which fills it for every state in place, so an
    engine that never runs the fused loop (a same-state-only protocol
    on the same-state loop) lays out nothing.  The loops read
    ``steps[state]`` with a bare list subscript.

    A step is a tuple of plain integers that names its structure by slot
    and its position in the structure as an offset from the state; the
    loops reach the payload and its side trees through the index's
    ``slot_payload``:

    * ``(PRODUCT, slot, off, initiator)`` — the state's first node
      ``state + off`` in one side tree of a product slot, and whether
      that side is the initiator side;
    * ``(SCANNED, slot, initiator)`` — the same for a scanned product
      side (at most ``_SCAN_SIDE_STATES`` states), which keeps no tree:
      the step moves only the side total and its stale mark;
    * ``(TRIANGULAR, slot, off)`` — the state's position ``state + off``
      on a line;
    * ``(SAME, slot_off, node_off)`` — the state's same-state slot
      ``state + slot_off`` and its first Fenwick node
      ``state + node_off`` (the tree spans only the same-state block);
    * ``(SCALED_SAME, slot_off, node_off, factor)`` — the same on a
      class-scaled index, with the slot's class factor.

    Offsets make a plan a function of *runs*.  Each structure's member
    list splits into runs where consecutive positions hold consecutive
    states (a scanned side, whose steps name no position, into runs of
    consecutive states), and the same-state block splits further where
    its class factor changes, so every field of a structure's step is
    constant along a run.  States that lie in the same run of every
    structure they feed get equal steps, and :meth:`lay_out` gives them
    one plan tuple, assigned to their range of ``steps`` by slice; any
    states whose steps come out equal share a tuple as well.  The §5
    tree has two plans at every ``n``, one for the ranks and one for
    the reset line.  A structure whose members are scattered gives each
    of them a run of its own, which is exact and costs only plan
    objects.  Plans hold nothing the cyclic garbage collector keeps
    tracking once it has seen them.
    """

    __slots__ = ("steps", "_num_states", "_structures")

    def __init__(self, num_states: int) -> None:
        self.steps: List[tuple] = []
        self._num_states = num_states
        self._structures: List[tuple] = []

    def add(
        self, states: np.ndarray, code: int, slot: int, extra=None
    ) -> None:
        """Register a structure over ``states`` (an intp array).

        ``code`` is its step code and ``slot`` its composite slot, or
        for the same-state block (``SAME``/``SCALED_SAME``) the block's
        first slot.  ``extra`` is a product side's ``initiator`` flag
        (``PRODUCT``/``SCANNED``) or the same-state block's class
        factors.
        """
        self._structures.append((states, code, slot, extra))

    def lay_out(self) -> List[tuple]:
        """Fill :attr:`steps` for every state, in place; returns it.

        The bounds of every structure's runs cut the state space into
        ranges on which each structure's run is fixed, and each range
        gets one plan, built from the steps of the runs that cover it.
        """
        runs: List[List[Tuple[int, int, tuple]]] = []
        bounds = {0, self._num_states}
        for states, code, slot, extra in self._structures:
            split = None
            if code == SCANNED:
                states = np.sort(states)
            elif code == SCALED_SAME:
                split = np.asarray(extra)
            first, lengths = _runs(states, split)
            structure = []
            for pos, state, length in zip(
                first, states[first].tolist(), lengths
            ):
                off = pos - state
                if code == PRODUCT:
                    step = (PRODUCT, slot, off + 1, extra)
                elif code == SCANNED:
                    step = (SCANNED, slot, extra)
                elif code == TRIANGULAR:
                    step = (TRIANGULAR, slot, off)
                elif code == SAME:
                    step = (SAME, slot + off, off + 1)
                else:  # SCALED_SAME
                    step = (SCALED_SAME, slot + off, off + 1, extra[pos])
                structure.append((state, state + length, step))
                bounds.add(state)
                bounds.add(state + length)
            structure.sort(key=lambda run: run[0])
            runs.append(structure)
        steps = self.steps
        plans: Dict[tuple, tuple] = {}
        cursors = [0] * len(runs)
        cuts = sorted(bounds)
        for lo, hi in zip(cuts, cuts[1:]):
            built = []
            for k, structure in enumerate(runs):
                i = cursors[k]
                while i < len(structure) and structure[i][1] <= lo:
                    i += 1
                cursors[k] = i
                if i < len(structure) and structure[i][0] <= lo:
                    built.append(structure[i][2])
            plan = tuple(built)
            steps[lo:hi] = [plans.setdefault(plan, plan)] * (hi - lo)
        return steps


def _runs(
    states: np.ndarray, split: Optional[np.ndarray] = None
) -> Tuple[List[int], List[int]]:
    """``(first positions, lengths)`` of the runs of ``states``: maximal
    position ranges that hold consecutive states (and one value of
    ``split``, when given)."""
    if not len(states):
        return [], []
    breaks = np.diff(states) != 1
    if split is not None:
        breaks |= split[1:] != split[:-1]
    first = np.flatnonzero(breaks) + 1
    lengths = np.diff(first, prepend=0, append=len(states))
    return [0] + first.tolist(), lengths.tolist()


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
    ``same_factors``, ``total`` (the cached total weight ``W``), the
    per-state plans ``state_steps`` (empty until :meth:`plans` lays
    them out; described under :class:`_StatePlans`) and ``programs``,
    the shared cross-state programs (see
    ``repro.core.jump._compile_program``), keyed by ``(plan of si, plan
    of sj, ti, tj)`` with the targets coded.  ``_shapes`` memoises the
    count-independent part of every compiled transition (see
    :meth:`compile_transition`).

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

    ``live`` is True while everything that changed the index since its
    last full reload (or its construction) is the fused loop, applying
    transitions to the counts list the index was loaded from.  The loop
    clears it while it runs and restores it when it returns, so a fault
    that escapes the loop leaves it cleared; the engine that owns the
    index clears it whenever the counts change another way.
    :meth:`resync` then reloads everything, and otherwise canonicalises
    only what the loop's history left behind.
    """

    __slots__ = ("num_slots", "num_composite", "fenwick_size", "tree",
                 "values", "total", "slot_kind", "slot_payload",
                 "state_steps", "programs", "pool", "same_factors",
                 "class_of", "class_matrix", "live", "_num_states",
                 "_same_states", "_plans", "_shapes")

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
        # Each list the build reads with numpy is converted once and
        # handed down: the counts here, the rule states below.
        count_array = np.asarray(counts, dtype=np.int64)

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
            payload = _ProductSlot(
                counts, count_array, initiators, responders, factor
            )
            kinds.append(SCALED if scaled else PRODUCT)
            payloads.append(payload)
            weights.append(payload.weight())
            plans.add(
                payload._init_states,
                SCANNED if payload.init_tree is None else PRODUCT, slot, True,
            )
            plans.add(
                payload._resp_states,
                SCANNED if payload.resp_tree is None else PRODUCT, slot, False,
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
                        np.asarray(line, dtype=np.intp), TRIANGULAR, slot
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
        rule_array = np.asarray(rule_states, dtype=np.intp)
        self.same_factors: Optional[List[int]] = None
        if scaled:
            self.same_factors = [
                u[class_of[state]][class_of[state]] for state in rule_states
            ]
        pool: Optional[_ProposalPool] = None
        if rule_states and not scaled:
            pool = _ProposalPool(num_states, rule_array)
            pool.slot = len(kinds)
            kinds.append(PROPOSAL)
            payloads.append(pool)
            weights.append(0)  # set when the same-state block is filled
        self.pool = pool
        num_composite = len(kinds)
        self.num_composite = num_composite
        # One same-state slot per rule state, in rule-state order (which
        # is also the pool's candidate order).
        kinds.extend([SAME] * len(rule_states))
        payloads.extend(rule_states)
        weights.extend([0] * len(rule_states))
        if scaled:
            plans.add(
                rule_array, SCALED_SAME, num_composite, self.same_factors
            )
        else:
            plans.add(rule_array, SAME, num_composite)

        self.num_slots = len(kinds)
        self.fenwick_size = self.num_slots - num_composite
        self.slot_kind = kinds
        self.slot_payload = payloads
        self.values = weights
        self.tree = [0] * (self.fenwick_size + 1)
        self._plans = plans
        self.state_steps = plans.steps
        self.programs: Dict[tuple, tuple] = {}
        self._shapes: Dict[tuple, tuple] = {}
        self._same_states = rule_array
        self.total = composite_mass + self._fill_same_state(
            count_array, composite_mass
        )
        self.live = True

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
    # Updates
    # ------------------------------------------------------------------
    def resync(self, counts: Sequence[int]) -> None:
        """Make every slot weight a pure function of ``counts``, in place.

        The slot layout, payload objects, and any compiled transition
        programs stay valid — only the weights move.  This is the
        fault-injection seam (an engine adopting an externally mutated
        configuration clears :attr:`live` first), and the
        **canonicalisation seam** the checkpoint layer relies on: the
        proposal/Fenwick partition and product stale-flags it leaves are
        a pure function of ``counts`` (history-independent), so an engine
        that resyncs at a run boundary holds exactly the state a fresh
        engine (or one restored from an
        :class:`~repro.core.snapshot.EngineSnapshot`) would compile from
        the same counts.  That is what lets snapshots stay
        compiled-index-free while restores stay bit-exact.

        A :attr:`live` index already holds the reload's weights, so only
        the loop's history is undone: stale product sides are rebuilt
        from the counts, and the pool is re-partitioned by
        :meth:`reclassify`, which costs nothing while the pool is idle
        and empty.  Any other index takes the full reload: it reads
        ``counts`` into one int64 array and works on it with numpy (a
        gather plus a :func:`fill_tree` or a sum per product side, the
        pool classification and the same-state block), which leaves it
        live.
        The only per-state Python work left is building each pool
        member's position list.  Every slot is a pure function of the
        counts, so neither path can fail.
        """
        if self.live:
            self._canonicalise(counts)
        else:
            self._reload(counts, np.asarray(counts, dtype=np.int64))

    def _canonicalise(self, counts: Sequence[int]) -> None:
        """Undo a live index's history: stale sides and the partition."""
        for payload in self.slot_payload[:self.num_composite]:
            if type(payload) is _ProductSlot and payload.stale:
                payload.rebuild_stale()
        self.reclassify(counts)

    def _reload(self, counts: Sequence[int], count_array: np.ndarray) -> None:
        """Reload every slot weight (the full :meth:`resync`)."""
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
        self.total = total + self._fill_same_state(count_array, total)
        self.live = True

    def reclassify(self, counts: Sequence[int]) -> None:
        """Re-partition same-state slots between the pools, in place.

        Called on a live index whose :attr:`total` is current: by
        :meth:`resync`, and periodically by the engines' fused loop so
        the proposal pool tracks the drifting count profile (its members
        drain, new mass grows in tree-mode slots).  Moves weight between
        the pool pseudo-slot and the per-state Fenwick slots without
        changing :attr:`total` — classification is a constant-factor
        choice, the sampled distribution is identical for any partition.

        The idle rule comes first, an O(1) test on totals: while
        ``_RECLASSIFY_EVENTS · T < W`` (``T`` the same-state mass,
        ``W`` the total) the pool is left empty.  A pool that is already
        empty then costs nothing: only its window and bound are reset,
        so no state migrates in before the next re-partition.  Any other
        pool takes the O(n) pass over the whole block, which empties an
        idle pool (a busy-to-idle switch, after a busy pass) and
        classifies a busy one.  Either way the partition is the one a
        fresh compile from ``counts`` lays out.
        """
        pool = self.pool
        if pool is None:
            return
        values = self.values
        outside = sum(values[:self.num_composite]) - values[pool.slot]
        if not pool.agents and (
            _RECLASSIFY_EVENTS * (self.total - outside) < self.total
        ):
            pool.release()
            values[pool.slot] = 0
            return
        self._fill_same_state(np.asarray(counts, dtype=np.int64), outside)

    def _fill_same_state(self, count_array: np.ndarray, outside: int) -> int:
        """Partition the pool and refill the same-state block; returns its
        mass.

        Each same-state slot weighs ``f·c(c−1)`` for its class factor
        ``f``, or 0 while its state is a pool member (the pool
        pseudo-slot carries that mass).  ``outside`` is the index's mass
        outside the same-state block, which with the block's mass decides
        the idle rule (see :meth:`reclassify`).  The return value is the
        pooled plus the tree-mode mass.
        """
        block = count_array[self._same_states]
        block *= block - 1
        pooled = 0
        pool = self.pool
        if pool is not None:
            mass = int(block.sum())
            if _RECLASSIFY_EVENTS * mass < outside + mass:
                pool.release()
            else:
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

    def sampling_state(self) -> Dict[str, object]:
        """Every count-dependent field of the index, as plain data.

        Slot values, the same-state Fenwick tree and the total; the
        pool's agent array, positions, window, bound and weight; each
        product slot's side trees (``None`` for a scanned side), side
        totals and stale bits; and each triangular slot's line counts
        and moments (:class:`WeightedFusedIndex` adds its class sums).  Two indexes
        of one layout sample alike exactly when these agree, so an index
        at a canonical point must equal a fresh compile from the same
        counts (the engines' debug mode checks this, and so do the
        tests).  Compiled programs and plans are count-independent and
        not included.
        """
        state: Dict[str, object] = {
            "values": list(self.values),
            "tree": list(self.tree),
            "total": self.total,
        }
        pool = self.pool
        if pool is not None:
            state["pool"] = (
                list(pool.agents), list(pool.where),
                [None if p is None else list(p) for p in pool.positions],
                pool.lo, pool.hi, pool.mhat, pool.weight,
            )
        payloads = []
        for payload in self.slot_payload[:self.num_composite]:
            if type(payload) is _ProductSlot:
                payloads.append((
                    None if payload.init_tree is None
                    else list(payload.init_tree),
                    None if payload.resp_tree is None
                    else list(payload.resp_tree),
                    payload.init_total, payload.resp_total, payload.stale,
                ))
            elif type(payload) is _TriangularSlot:
                payloads.append((list(payload.counts), payload.s, payload.q))
        state["payloads"] = payloads
        return state

    def plans(self) -> List[tuple]:
        """:attr:`state_steps`, laid out first if nothing has yet."""
        steps = self.state_steps
        if not steps:
            self._plans.lay_out()
        return steps

    def compile_transition(
        self,
        ops: Sequence[Tuple[int, int]],
        si: Optional[int] = None,
        sj: Optional[int] = None,
    ) -> Tuple[tuple, Optional[tuple], Optional[tuple], tuple]:
        """Compile one transition into ``(refresh, prods, transfer, moves)``.

        The result is plain integer data: ints, ``None`` and tuples of
        those, which the cyclic garbage collector stops tracking once it
        has seen them.  The program body is ``ops`` itself: the inlined
        loops apply each ``(state, delta)`` through the state's plan in
        :attr:`state_steps`, which this call lays out if nothing has
        yet, and read each refreshed slot's kind and payload from
        :attr:`slot_kind` and :attr:`slot_payload`.  An op's state may be
        the code -1 or -2, which stands for ``si`` or ``sj``: a
        cross-state program names its pair that way, so that every pair
        of the same two plans shares it (see
        ``repro.core.jump._compile_program``).  A code whose state is
        not given raises :class:`ValueError`.

        ``refresh`` lists the *deduplicated* composite slots the
        transition's states feed, in first-touch order: each fused
        weight is recomputed once after all payload updates, so a
        transition touching three line states costs one slot refresh,
        not three.  A product slot whose net initiator and net responder
        deltas are both zero is left out: its weight ``f·A·B`` cannot
        change.  Every R3 line event of the §5 tree is such a transition
        (its three line ops sum to zero on the R4 product's initiator
        side), and so is a tree rank moving to another rank (two
        responder ops of the reset product).

        ``prods`` is the transition's *sprint guard*, ``((slot,
        net_init_delta), …)`` over the product slots it touches, or
        ``None`` when it touches a triangular slot or changes
        a product's responder side.  While every listed slot has
        ``resp_total == 0`` it weighs zero before and after the event:
        the product steps then only stale-mark and add to the initiator
        total, and the engine may skip the refresh pass — which is what
        lets the §4 line's drain run at the same-state loop's
        O(1)-per-event pace.  ``transfer`` additionally pre-resolves the
        dominant −1/+1 shape between two same-state slots, ``(src, dst,
        slot_off, node_off)``: the two states as ``ops`` names them, and
        the offsets of ``dst``'s same-state slot and first node from
        ``dst`` (its plan step's).  One agent moves between two states,
        so when both are pool members their same-state update is a
        single flat re-label instead of a removal plus an insertion.

        ``moves`` lists the transition's net class-count changes on a
        class-scaled index, ``((class, delta, column), …)``: each class
        once, in first-touch order, with the matrix column ``u(·, class)``
        for the step-mass update.  A transition inside one class has no
        moves, and neither has any transition of the unscaled index.

        All of this but ``transfer``'s two states depends only on the
        transition's *shape*: each op's delta and its state's plan, and
        on a class-scaled index its class.  The index compiles each
        shape once and memoises it in ``_shapes``, with ``transfer``'s
        states given as positions in ``ops``; a transition of a known
        shape then costs one lookup and, for a transfer, one tuple.  A
        same-state program per rule state (the §4 line's drain reaches
        hundreds) mostly meets known shapes.
        """
        steps = self.plans()
        class_of = self.class_of
        states = []
        key = []
        for state, delta in ops:
            if state < 0:
                code = state
                state = si if code == -1 else sj
                if state is None:
                    raise ValueError(
                        f"op state code {code} needs the pair it stands for"
                    )
            states.append(state)
            key.append(delta)
            key.append(steps[state])
            if class_of is not None:
                key.append(class_of[state])
        key = tuple(key)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = self._compile_shape(ops, states)
        transfer = shape[2]
        if transfer is None:
            return shape
        return (
            shape[0], shape[1],
            (ops[transfer[0]][0], ops[transfer[1]][0]) + transfer[2:],
            shape[3],
        )

    def _compile_shape(
        self, ops: Sequence[Tuple[int, int]], states: List[int]
    ) -> Tuple[tuple, Optional[tuple], Optional[tuple], tuple]:
        """:meth:`compile_transition`'s result for ``ops``, whose states
        resolve to ``states``, with ``transfer``'s two states given as
        their positions in ``ops``."""
        steps = self.state_steps
        refresh: List[int] = []
        prods: Dict[int, List[int]] = {}
        guarded = True
        same: List[Tuple[int, int]] = []
        for index, state in enumerate(states):
            delta = ops[index][1]
            for step in steps[state]:
                kind = step[0]
                if kind == SAME:
                    same.append((index, delta))
                    continue
                if kind == SCALED_SAME:
                    continue
                slot = step[1]
                if kind == PRODUCT or kind == SCANNED:
                    # The side flag ends both product step layouts.
                    net = prods.setdefault(slot, [0, 0])
                    net[0 if step[-1] else 1] += delta
                else:  # TRIANGULAR
                    guarded = False
                if slot not in refresh:
                    refresh.append(slot)
        # A product slot whose sides both net zero keeps its weight.
        refresh = [
            slot for slot in refresh if slot not in prods or any(prods[slot])
        ]
        moves = ()
        if self.class_of is not None:
            classes: Dict[int, int] = {}
            for state, (_, delta) in zip(states, ops):
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
                # The same-state step comes last.
                step = steps[states[dst[0]]][-1]
                transfer = (src[0], dst[0], step[1], step[2])
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

    def sampling_state(self) -> Dict[str, object]:
        """:meth:`FusedIndex.sampling_state` plus the class sums."""
        state = super().sampling_state()
        state["classes"] = (list(self.class_counts), list(self._row_dot))
        return state

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

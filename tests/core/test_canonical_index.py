"""Canonical points of the fused index equal a fresh compile.

An index the fused loop has run on is *live*: ``FusedIndex.resync``
then rebuilds only the product sides the loop left stale and
re-partitions the pool — nothing for an idle, empty pool, otherwise a
pass over the same-state block that empties an idle pool or classifies
a busy one.  A fault that escapes the loop leaves the index not live,
for a full reload.  Whichever path ran, the index at a canonical point
(a ``run()`` exit, ``snapshot()``, an epoch swap) must equal an index
compiled afresh from the same counts, field by field: slot values,
the Fenwick tree, the total, the pool, every product side and triangular
moment, and a class-scaled index's class sums.  Right after the loop's
periodic re-partition, everything but the stale product sides must
already match.

The pool's partition follows the idle rule: empty while
``_RECLASSIFY_EVENTS · T < W`` (``T`` the same-state mass, ``W`` the
total), and otherwise exactly the window classifier the index used
before the rule.  That classifier is kept verbatim below as the oracle.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest

from repro import (
    AGProtocol,
    EpochBoundary,
    EpochScheduler,
    JumpEngine,
    LineOfTrapsProtocol,
    ModifiedTreeProtocol,
    StateBiasedScheduler,
    TreeDispersalProtocol,
    TreeRankingProtocol,
    random_configuration,
)
from repro.configurations import k_distant_configuration
from repro.core.fused import (
    _POOL_MAX_PROPOSALS,
    _POOL_TREE_COST_RATIO,
    _RECLASSIFY_EVENTS,
    FusedIndex,
    WeightedFusedIndex,
    _ProductSlot,
    _TriangularSlot,
)
from repro.core.jump import _run_fused


def oracle_classify(candidates, num_states, counts):
    """The window classifier before the idle rule, verbatim but for
    returning the partition instead of writing it into a pool:
    ``(agents, where, positions, lo, hi, mhat, weight)``."""
    positions: List[Optional[List[int]]] = [None] * num_states
    candidates = np.asarray(candidates, dtype=np.intp)
    candidate_counts = np.asarray(counts, dtype=np.int64)[candidates]
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
        return [], [], positions, 2, 0, 1, 0
    lo_idx, hi_idx = window
    chosen = (bucket >= lo_idx) & (bucket <= hi_idx)
    inside = paired[chosen][
        np.argsort(first[bucket[chosen]], kind="stable")
    ]
    member_counts = candidate_counts[inside]
    states = candidates[inside]
    ends = np.cumsum(member_counts)
    starts = ends - member_counts
    num_agents = int(ends[-1])
    agents = np.repeat(states, member_counts).tolist()
    where = (
        np.arange(num_agents) - np.repeat(starts, member_counts)
    ).tolist()
    flat = list(range(num_agents))
    for state, start, end in zip(
        states.tolist(), starts.tolist(), ends.tolist()
    ):
        positions[state] = flat[start:end]
    weight = int((member_counts * (member_counts - 1)).sum())
    return (
        agents, where, positions, distinct[lo_idx], distinct[hi_idx],
        distinct[hi_idx], weight,
    )


def fresh_index(engine):
    """The active index's kind, compiled afresh from the counts."""
    index = engine._index
    families = engine._protocol.build_families(engine.counts)
    if index.class_of is None:
        return FusedIndex(families, engine._num_states, engine.counts)
    return WeightedFusedIndex(
        families, engine._num_states, engine.counts,
        index.class_of, index.class_matrix,
    )


def assert_canonical(engine) -> Optional[bool]:
    """The active index equals a fresh compile, and its pool follows the
    idle rule and otherwise the oracle; returns whether the pool is idle
    (``None`` without a pool)."""
    index = engine._index
    assert index.sampling_state() == fresh_index(engine).sampling_state()
    pool = index.pool
    if pool is None:
        return None
    rule_states = pool.states
    same_mass = sum(engine.counts[s] * (engine.counts[s] - 1)
                    for s in rule_states)
    partition = (
        pool.agents, pool.where, pool.positions, pool.lo, pool.hi,
        pool.mhat, pool.weight,
    )
    idle = _RECLASSIFY_EVENTS * same_mass < index.total
    if idle:
        assert partition == ([], [], [None] * len(pool.positions),
                             2, 0, 1, 0)
    else:
        assert partition == oracle_classify(
            rule_states, engine._num_states, engine.counts
        )
    return idle


def _tree(n):
    def build():
        protocol = TreeRankingProtocol(n)
        return protocol, random_configuration(
            protocol, seed=5, include_extras=True
        )
    return build


def _displaced_tree():
    protocol = TreeRankingProtocol(16384)
    return protocol, k_distant_configuration(protocol, 60, 3)


def _line():
    protocol = LineOfTrapsProtocol(m=2)
    return protocol, random_configuration(
        protocol, seed=3, include_extras=True
    )


def _modified_tree():
    protocol = ModifiedTreeProtocol(300)
    return protocol, random_configuration(
        protocol, seed=2, include_extras=True
    )


# (build, warm-up events before the chunked calls).  From a random start
# at n = 16 384 the pool is busy after the 4 096-event warm-up and idle
# from about 8 192 events on.  Sixty agents displaced from the ranked
# configuration pool 120 agents until a leaf collision starts a reset.
CASES = {
    "tree-n150": (_tree(150), 0),
    "tree-n16384": (_tree(16384), 4096),
    "tree-n16384-displaced": (_displaced_tree, 0),
    "line-m2": (_line, 0),
    "modified-tree": (_modified_tree, 0),
}
#: run() calls per chunk size, after the warm-up.
CALLS = {1: 24, 7: 24, 4096: 4}
#: Cases and chunk sizes whose calls end with a busy pool going idle at
#: a run() exit, from a large pool and from a small one.
GOES_IDLE = {
    "tree-n16384": {4096},
    "tree-n16384-displaced": {7, 4096},
}


@pytest.mark.parametrize("chunk", sorted(CALLS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_exits_equal_a_fresh_compile(name, chunk):
    build, warm = CASES[name]
    protocol, start = build()
    engine = JumpEngine(protocol, start, np.random.default_rng(7))
    idle = [assert_canonical(engine)]
    if warm:
        engine.run(max_events=warm)
        idle.append(assert_canonical(engine))
    for _ in range(CALLS[chunk]):
        silent = engine.run(max_events=engine.events + chunk)
        # Only the fused loop ran: the exit resync took the live path.
        assert engine._index.live
        idle.append(assert_canonical(engine))
        if silent:
            break
    if chunk in GOES_IDLE.get(name, ()):
        assert any(
            busy is False and now is True
            for busy, now in zip(idle, idle[1:])
        )


def test_run_crossing_periodic_repartitions_equals_a_fresh_compile():
    protocol, start = _tree(16384)()
    engine = JumpEngine(protocol, start, np.random.default_rng(7))
    for _ in range(3):
        engine.run(max_events=engine.events + 3 * _RECLASSIFY_EVENTS // 2)
        assert_canonical(engine)


@pytest.mark.parametrize("name", ["tree-n16384", "line-m2"])
def test_periodic_repartition_leaves_only_stale_sides(name):
    """Right after the loop's periodic pass, rebuilding the stale product
    sides (the exit resync's other job) is all that stands between the
    index and a fresh compile."""
    build, _ = CASES[name]
    protocol, start = build()
    engine = JumpEngine(protocol, start, np.random.default_rng(7))
    for _ in range(3):
        # The carried loop state re-partitions on this call's last event.
        _run_fused(engine, None, engine.events + _RECLASSIFY_EVENTS)
        if engine.is_silent():
            break
        for payload in engine._index.slot_payload:
            if type(payload) is _ProductSlot and payload.stale:
                payload.rebuild_stale()
        assert_canonical(engine)


def test_periodic_pass_reads_the_current_total(monkeypatch):
    """The loop writes its running total back before the periodic pass,
    whose idle rule reads it (the total at loop entry is stale)."""
    protocol, start = _tree(16384)()
    engine = JumpEngine(protocol, start, np.random.default_rng(7))
    reclassify = FusedIndex.reclassify
    passes = []

    def checked(index, counts):
        assert index.total == engine.recomputed_weight()
        passes.append(index.total)
        reclassify(index, counts)

    monkeypatch.setattr(FusedIndex, "reclassify", checked)
    _run_fused(engine, None, 2 * _RECLASSIFY_EVENTS)
    assert len(passes) >= 2


class _DeltaFailsLater(TreeRankingProtocol):
    """The tree with a ``delta`` that raises on its ``fuse``-th call
    once armed, after the fused loop has applied events."""

    fuse: Optional[int] = None

    def delta(self, initiator, responder):
        if self.fuse is not None:
            self.fuse -= 1
            if self.fuse == 0:
                raise RuntimeError("delta failed")
        return super().delta(initiator, responder)


@pytest.mark.parametrize("through", ["run", "step"])
def test_fault_inside_the_loop_leaves_the_index_for_a_full_reload(through):
    """A ``delta`` raising inside the fused loop leaves the counts, slot
    values and tree ahead of the total and the pool fields, so the index
    is not live and ``snapshot()`` reloads it in full."""
    protocol = _DeltaFailsLater(16384)
    engine = JumpEngine(
        protocol, random_configuration(protocol, seed=5, include_extras=True),
        np.random.default_rng(7),
    )
    engine.run(max_events=100)
    before = list(engine.counts)
    protocol.fuse = 40
    with pytest.raises(RuntimeError, match="delta failed"):
        if through == "run":
            engine.run(max_events=engine.events + 10_000)
        else:
            for _ in range(10_000):
                engine.step()
    assert engine.counts != before
    assert not engine._index.live
    protocol.fuse = None
    engine.snapshot()
    assert engine._index.live
    assert_canonical(engine)


@pytest.mark.parametrize("name", ["tree-n150", "line-m2"])
def test_snapshots_between_steps_equal_a_fresh_compile(name):
    build, _ = CASES[name]
    protocol, start = build()
    engine = JumpEngine(protocol, start, np.random.default_rng(7))
    for burst in (1, 7, 40, 7):
        for _ in range(burst):
            if engine.step() is None:
                break
        engine.snapshot()
        assert engine._index.live
        assert_canonical(engine)


def test_ag_through_step_and_the_same_state_loop():
    """``step()`` runs the fused loop (live); ``run()`` takes the
    same-state loop, after which the exit resync reloads in full."""
    protocol = AGProtocol(300)
    engine = JumpEngine(
        protocol, random_configuration(protocol, seed=1),
        np.random.default_rng(7),
    )
    for burst in (1, 7, 200):
        for _ in range(burst):
            engine.step()
        engine.snapshot()
        assert engine._index.live
        assert_canonical(engine)
        engine.run(max_events=engine.events + burst)
        assert_canonical(engine)


def test_tree_dispersal_under_an_interaction_budget():
    protocol = TreeDispersalProtocol(200)
    engine = JumpEngine(
        protocol, random_configuration(protocol, seed=4, include_extras=True),
        np.random.default_rng(7),
    )
    for _ in range(20):
        silent = engine.run(max_interactions=engine.interactions + 500)
        assert_canonical(engine)
        if silent:
            break
    assert engine.events > 0


def test_epoch_swaps_reload_the_incoming_index():
    protocol = TreeRankingProtocol(150)
    biased = StateBiasedScheduler(
        [1.0] * protocol.num_ranks + [0.2] * protocol.num_extra_states
    )
    skewed = StateBiasedScheduler(
        [0.80 + 0.02 * (s % 9) for s in range(protocol.num_states)]
    )
    scheduler = EpochScheduler([
        (EpochBoundary(kind="events", value=300), biased),
        (EpochBoundary(kind="events", value=700), skewed),
        (None, biased),
    ])
    engine = JumpEngine(
        protocol, random_configuration(protocol, seed=5, include_extras=True),
        np.random.default_rng(7), scheduler,
    )
    advance = engine._advance_epoch
    swaps = []

    def checked_advance():
        advance()
        swaps.append(engine.epoch)
        assert engine._index.live
        assert_canonical(engine)

    engine._advance_epoch = checked_advance
    for _ in range(40):
        engine.run(max_events=engine.events + 50)
        engine.snapshot()
        assert_canonical(engine)
        if engine.is_silent():
            break
    assert swaps == [1, 2]


def _product(index):
    return next(p for p in index.slot_payload if type(p) is _ProductSlot)


def _line_slot(index):
    return next(p for p in index.slot_payload if type(p) is _TriangularSlot)


def _bump(obj, attr):
    setattr(obj, attr, getattr(obj, attr) + 1)


def _bump_item(items, position=1):
    items[position] += 1


#: One change per count-dependent field.
FIELD_CHANGES = {
    "values": lambda ix: _bump_item(ix.values, -1),
    "tree": lambda ix: _bump_item(ix.tree),
    "total": lambda ix: _bump(ix, "total"),
    "pool.agents": lambda ix: ix.pool.agents.append(0),
    "pool.where": lambda ix: ix.pool.where.append(0),
    "pool.positions": lambda ix: ix.pool.positions.__setitem__(0, [99]),
    "pool.lo": lambda ix: _bump(ix.pool, "lo"),
    "pool.hi": lambda ix: _bump(ix.pool, "hi"),
    "pool.mhat": lambda ix: _bump(ix.pool, "mhat"),
    "pool.weight": lambda ix: _bump(ix.pool, "weight"),
    "product.init_tree": lambda ix: _bump_item(_product(ix).init_tree),
    "product.resp_tree": lambda ix: _bump_item(_product(ix).resp_tree),
    "product.init_total": lambda ix: _bump(_product(ix), "init_total"),
    "product.resp_total": lambda ix: _bump(_product(ix), "resp_total"),
    "product.stale": lambda ix: _bump(_product(ix), "stale"),
    "triangular.counts": lambda ix: _bump_item(_line_slot(ix).counts, 0),
    "triangular.s": lambda ix: _bump(_line_slot(ix), "s"),
    "triangular.q": lambda ix: _bump(_line_slot(ix), "q"),
    "class_counts": lambda ix: _bump_item(ix.class_counts, 0),
    "row_dot": lambda ix: _bump_item(ix._row_dot, 0),
}


@pytest.mark.parametrize("field", sorted(FIELD_CHANGES))
def test_sampling_state_covers_every_field(field):
    """Each count-dependent field shows in ``sampling_state()``, which
    the checks above (and debug mode) compare.  The reset line at
    n = 150 (32 states) is a scanned product side, which keeps no tree,
    so the initiator side's tree is bumped on a line of 2k = 130
    states, above the scan bound."""
    if field == "product.init_tree":
        protocol = TreeRankingProtocol(150, k=65)
        start = random_configuration(protocol, seed=5, include_extras=True)
    else:
        protocol, start = _tree(150)()
    counts = start.counts_list()
    families = protocol.build_families(counts)
    if field in ("class_counts", "row_dot"):
        classes = [0] * protocol.num_ranks + [1] * protocol.num_extra_states
        index = WeightedFusedIndex(
            families, protocol.num_states, counts, classes, [[4, 2], [2, 1]]
        )
    else:
        index = FusedIndex(families, protocol.num_states, counts)
        assert index.pool.agents  # the random start pools its ranks
    reference = index.sampling_state()
    FIELD_CHANGES[field](index)
    assert index.sampling_state() != reference

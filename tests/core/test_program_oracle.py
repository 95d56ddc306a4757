"""Compiled transition programs against the per-pair compiler they replaced.

The fused index lays out plain-integer plans relative to their state,
compiles a cross-state program once per key of plans and coded targets
(the pair named by -1 and -2), and ``_transition_ops`` resolves
cross-state pairs branch-wise.  The oracle below keeps the earlier
bodies verbatim: the dict-based ``_transition_ops`` and the per-pair
``compile_transition``, which read the plans in their earlier layout
(payload references in the steps, rebuilt here from the index's slots)
and name every state absolutely.  Every program, resolved against the
pair it was looked up for, must equal the oracle's field by field.  The
oracle carries one later rule: a product slot whose net initiator and
net responder deltas are both zero is left out of ``refresh``, since
its weight cannot change.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro import (
    AGProtocol,
    Configuration,
    JumpEngine,
    LineOfTrapsProtocol,
    ModifiedTreeProtocol,
    PopulationProtocol,
    RingOfTrapsProtocol,
    SingleTrapProtocol,
    TreeDispersalProtocol,
    TreeRankingProtocol,
    random_configuration,
)
from repro.core.families import OrderedProduct, SameStatePairs
from repro.core.fused import (
    PRODUCT,
    PROPOSAL,
    SAME,
    SCALED_SAME,
    TRIANGULAR,
    FusedIndex,
    _ProductSlot,
)
from repro.core.jump import _compile_program, _transition_ops


def oracle_transition_ops(si, sj, ti, tj):
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


def oracle_state_steps(index):
    """Per-state plans in the earlier layout: product steps
    ``(PRODUCT, tree, node, size, slot, payload, initiator)``,
    triangular steps ``(TRIANGULAR, payload, pos, slot)``, same-state
    steps unchanged — structures in slot order, the same-state block
    last."""
    steps: List[list] = [[] for _ in range(index._num_states)]
    for slot in range(index.num_composite):
        kind = index.slot_kind[slot]
        payload = index.slot_payload[slot]
        if kind == PROPOSAL:
            continue
        if type(payload) is _ProductSlot:
            for pos, state in enumerate(payload.initiators):
                steps[state].append(
                    (PRODUCT, payload.init_tree, pos + 1,
                     payload.init_size, slot, payload, True)
                )
            for pos, state in enumerate(payload.responders):
                steps[state].append(
                    (PRODUCT, payload.resp_tree, pos + 1,
                     payload.resp_size, slot, payload, False)
                )
        else:
            for pos, state in enumerate(payload.line):
                steps[state].append((TRIANGULAR, payload, pos, slot))
    for slot in range(index.num_composite, index.num_slots):
        state = index.slot_payload[slot]
        pos = slot - index.num_composite
        if index.same_factors is None:
            steps[state].append((SAME, slot, pos + 1))
        else:
            steps[state].append(
                (SCALED_SAME, slot, pos + 1, index.same_factors[pos])
            )
    return [tuple(plan) for plan in steps]


def oracle_compile_transition(index, plans, ops):
    """The per-pair compile body, reading ``plans`` (earlier layout)."""
    plan = plans.__getitem__
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
    # A product slot whose sides both net zero keeps its weight.
    refresh = [
        slot for slot in refresh if slot not in prods or any(prods[slot])
    ]
    moves = ()
    if index.class_of is not None:
        classes: Dict[int, int] = {}
        for state, delta in ops:
            cls = index.class_of[state]
            classes[cls] = classes.get(cls, 0) + delta
        moves = tuple([
            (cls, delta, tuple([row[cls] for row in index.class_matrix]))
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


def test_transition_ops_match_oracle_on_every_overlap():
    """All 4⁴ overlap patterns of ``(si, sj, ti, tj)`` over four states."""
    for code in range(4 ** 4):
        si, sj, ti, tj = (code >> 6) & 3, (code >> 4) & 3, (code >> 2) & 3, code & 3
        assert _transition_ops(si, sj, ti, tj) == oracle_transition_ops(
            si, sj, ti, tj
        ), (si, sj, ti, tj)


class RelabelProtocol(PopulationProtocol):
    """Two initiator states with same-state rules that move one agent
    to the other, and the same move across a product with a third
    state: the only protocol here whose cross-state programs compile a
    transfer (with the initiator's code as its source)."""

    def __init__(self, num_agents=30):
        super().__init__(num_states=3, num_agents=num_agents)

    def delta(self, initiator, responder):
        if initiator == responder and initiator < 2:
            return initiator, 1 - initiator
        if initiator < 2 and responder == 2:
            return 1 - initiator, 2
        return None

    def build_families(self, counts):
        return [
            SameStatePairs(counts, [0, 1]),
            OrderedProduct(counts, [0, 1], [2]),
        ]


PROTOCOLS = [
    pytest.param(AGProtocol(9), id="ag"),
    pytest.param(RingOfTrapsProtocol(m=4), id="ring"),
    pytest.param(LineOfTrapsProtocol(m=2), id="line-m2"),
    pytest.param(TreeRankingProtocol(33, k=2), id="tree-k2"),
    pytest.param(TreeRankingProtocol(37, k=5), id="tree-k5"),
    pytest.param(ModifiedTreeProtocol(21, k=3), id="modified-tree"),
    pytest.param(TreeDispersalProtocol(33), id="dispersal"),
    pytest.param(
        SingleTrapProtocol(inner_size=16, num_agents=40), id="trap"
    ),
    pytest.param(RelabelProtocol(), id="relabel"),
]


def absolute_program(program, si, sj):
    """``program`` with the pair codes resolved against ``(si, sj)`` and
    its transfer's slot and node offsets against the transfer's ``dst``:
    the absolute form the earlier compiler produced."""

    def state(code):
        return si if code == -1 else sj if code == -2 else code

    ti, tj, ops, refresh, prods, transfer, moves = program
    if transfer is not None:
        src, dst, slot_off, node_off = transfer
        dst = state(dst)
        transfer = (state(src), dst, dst + slot_off, dst + node_off)
    return (
        state(ti), state(tj), tuple((state(s), d) for s, d in ops),
        refresh, prods, transfer, moves,
    )


@pytest.mark.parametrize(
    "matrix",
    [None, [[2, 3], [5, 7]], [[2, 3], [5, 2]]],
    ids=["unscaled", "scaled", "scaled-equal-diagonal"],
)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_programs_match_oracle(protocol, matrix, monkeypatch):
    """Every productive pair, compiled in a scrambled order on a fresh
    index: a cross-state pair's key is met cold (first of its key) or
    warm (shared), and both must resolve to the oracle's program.  The
    scaled indexes have two classes (state parity); with equal diagonal
    factors, states of both classes share same-state plans, so only
    their classes tell their programs' class moves apart."""
    counts = random_configuration(
        protocol, seed=2, include_extras=True
    ).counts_list()
    families = protocol.build_families(counts)
    num_states = protocol.num_states
    classes = ()
    if matrix is not None:
        classes = ([s % 2 for s in range(num_states)], matrix)
    index = FusedIndex(families, num_states, counts, *classes)
    reference = FusedIndex(families, num_states, counts, *classes)
    plans = oracle_state_steps(reference)
    pairs = sorted({pair for family in families for pair in family.pairs()})
    order = np.random.default_rng(7).permutation(len(pairs)).tolist()
    cross = {}
    compiled = []
    compile_shape = FusedIndex._compile_shape

    def counted(self, ops, states):
        compiled.append(ops)
        return compile_shape(self, ops, states)

    monkeypatch.setattr(FusedIndex, "_compile_shape", counted)
    for k in order:
        si, sj = pairs[k]
        ti, tj = protocol.delta(si, sj)
        ops = oracle_transition_ops(si, sj, ti, tj)
        expected = (ti, tj, ops) + oracle_compile_transition(
            reference, plans, ops
        )
        program = _compile_program(protocol, index, si, sj)
        assert len(program) == len(expected)
        got = absolute_program(program, si, sj)
        for field, (value, want) in enumerate(zip(got, expected)):
            assert value == want, (si, sj, field)
        if si != sj:
            cross[si, sj] = program
    # Cross-state programs are the index's shared ones, each compiled
    # once per key; the paper's protocols have fewer keys than pairs
    # (the two pairs of the relabel protocol have targets of their own).
    shared = {id(program) for program in index.programs.values()}
    assert {id(program) for program in cross.values()} == shared
    assert len(shared) == len(index.programs)
    if cross and type(protocol) is not RelabelProtocol:
        assert len(shared) < len(cross)
    # Shapes were shared: each memoised shape compiled once, and fewer
    # shapes than the compiles that met them (one per same-state pair
    # and one per shared program), so fewer than pairs.  Tree dispersal
    # is exempt from the count: its rule states break at every leaf, so
    # each same-state program meets a shape of its own (CHANGES.md, the
    # FOUND line on same-state compiles over scattered rule states).
    assert len(compiled) == len(index._shapes)
    compiles = sum(si == sj for si, sj in pairs) + len(index.programs)
    if type(protocol) is not TreeDispersalProtocol:
        assert 0 < len(index._shapes) < compiles <= len(pairs)


def test_a_cross_state_transfer_is_never_taken():
    """A cross-state program's coded transfer compiles, but the loop
    never takes it: the pair's own product slot is touched with its
    responder side occupied, so the sprint guard fails.  Debug mode
    checks the weight after every event of a run that draws both
    same-state and cross-state pairs."""
    protocol = RelabelProtocol()
    index = JumpEngine(
        protocol, Configuration([10, 10, 10]), np.random.default_rng(0)
    )._index
    program = _compile_program(protocol, index, 0, 2)
    assert program[5] is not None and program[5][0] == -1
    engine = JumpEngine(
        protocol, Configuration([10, 10, 10]), np.random.default_rng(3),
        debug=True,
    )
    engine.run(max_events=400)
    assert engine.events == 400
    assert sum(engine.counts) == 30 and engine.counts[2] == 10



def test_a_coded_op_needs_its_pair():
    """The codes -1 and -2 resolve only against a pair that is given:
    without one, ``compile_transition`` raises rather than read the
    plan of the last state."""
    counts = [10, 10, 10]
    protocol = RelabelProtocol()
    index = FusedIndex(protocol.build_families(counts), 3, counts)
    for ops in (((-1, -1), (1, 1)), ((1, -1), (-2, 1))):
        with pytest.raises(ValueError, match="needs the pair"):
            index.compile_transition(ops)
    coded = index.compile_transition(((-1, -1), (1, 1)), 0, 2)
    plain = index.compile_transition(((0, -1), (1, 1)))
    assert coded[:2] == plain[:2] and coded[3] == plain[3]

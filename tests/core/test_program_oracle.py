"""Compiled transition programs against the per-pair compiler they replaced.

The fused index memoises a transition's count-independent program part
on its shape (each op's delta and its state's signature), builds plain
integer plans, and ``_transition_ops`` resolves cross-state pairs
branch-wise.  The oracle below keeps the earlier bodies verbatim: the
dict-based ``_transition_ops`` and the per-pair ``compile_transition``,
which read the plans in their earlier layout (payload references in the
steps, rebuilt here from the index's slots).  Every program must equal
the oracle's field by field.  The oracle carries one later rule: a
product slot whose net initiator and net responder deltas are both zero
is left out of ``refresh``, since its weight cannot change.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro import (
    AGProtocol,
    LineOfTrapsProtocol,
    ModifiedTreeProtocol,
    RingOfTrapsProtocol,
    SingleTrapProtocol,
    TreeDispersalProtocol,
    TreeRankingProtocol,
    random_configuration,
)
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
]


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_programs_match_oracle(protocol, scaled):
    """Every productive pair, compiled in a scrambled order on a fresh
    index: a pair's shape is met cold (first of its shape) or warm
    (memoised), and both must give the oracle's program.  The scaled
    index has two classes (state parity)."""
    counts = random_configuration(
        protocol, seed=2, include_extras=True
    ).counts_list()
    families = protocol.build_families(counts)
    num_states = protocol.num_states
    classes = ()
    if scaled:
        classes = ([s % 2 for s in range(num_states)], [[2, 3], [5, 7]])
    index = FusedIndex(families, num_states, counts, *classes)
    reference = FusedIndex(families, num_states, counts, *classes)
    plans = oracle_state_steps(reference)
    pairs = sorted({pair for family in families for pair in family.pairs()})
    order = np.random.default_rng(7).permutation(len(pairs)).tolist()
    for k in order:
        si, sj = pairs[k]
        ti, tj = protocol.delta(si, sj)
        ops = oracle_transition_ops(si, sj, ti, tj)
        expected = (ti, tj, ops) + oracle_compile_transition(
            reference, plans, ops
        )
        program = _compile_program(protocol, index, si, sj)
        assert len(program) == len(expected)
        for field, (got, want) in enumerate(zip(program, expected)):
            assert got == want, (si, sj, field)
    # Shapes were shared: fewer memoised shapes than programs.
    assert 0 < len(index._shapes) < len(pairs)

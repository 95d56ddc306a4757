"""Level-wise tree construction against the per-node stack construction.

``PerfectlyBalancedTree`` fills its per-node lists level by level with
numpy; the stack construction it replaced is kept here verbatim as the
oracle.  Every list must come out identical, and ``kind`` must still
hold ``NodeKind`` members.
"""

from typing import List, Tuple

import pytest

from repro.protocols.tree import NodeKind, PerfectlyBalancedTree


def stack_build(size):
    """The iterative pre-order construction, one stack entry per node."""
    kind = [NodeKind.LEAF] * size
    left = [-1] * size
    right = [-1] * size
    parent = [-1] * size
    level = [0] * size
    subtree = [0] * size

    stack: List[Tuple[int, int, int, int]] = [(0, size, 0, -1)]
    while stack:
        node, k, depth, par = stack.pop()
        subtree[node] = k
        level[node] = depth
        parent[node] = par
        if k == 1:
            kind[node] = NodeKind.LEAF
        elif k % 2 == 1:
            half = (k - 1) // 2
            kind[node] = NodeKind.BRANCHING
            left[node] = node + 1
            right[node] = node + half + 1
            stack.append((node + 1, half, depth + 1, node))
            stack.append((node + half + 1, half, depth + 1, node))
        else:
            kind[node] = NodeKind.NON_BRANCHING
            left[node] = node + 1
            stack.append((node + 1, k - 1, depth + 1, node))
    leaves = [p for p in range(size) if kind[p] == NodeKind.LEAF]
    return {
        "_kind": kind,
        "_left": left,
        "_right": right,
        "_parent": parent,
        "_level": level,
        "_subtree": subtree,
        "_height": max(level),
        "_leaves": leaves,
    }


@pytest.mark.parametrize("size", [1, 2, 3, 9, 150, 4099, 65536])
def test_level_build_matches_stack_build(size):
    tree = PerfectlyBalancedTree(size)
    expected = stack_build(size)
    for name, value in expected.items():
        assert getattr(tree, name) == value, name
    assert all(type(kind) is NodeKind for kind in tree._kind)
    for name in ("_left", "_right", "_parent", "_level", "_subtree",
                 "_leaves"):
        assert all(type(x) is int for x in getattr(tree, name)), name
    assert type(tree.height) is int

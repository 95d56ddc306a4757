"""Perfectly balanced binary trees over ``n`` rank states (paper §5).

The §5 protocol spans the ``n`` rank states over a *perfectly balanced*
binary tree defined recursively for any integer size:

* a subtree of odd size ``k = 2l + 1`` has a **branching** root with two
  children that root two *identical* subtrees of size ``l`` (size 1 is
  the degenerate odd case: a **leaf**);
* a subtree of even size ``k`` has a **non-branching** root with a
  single child rooting a subtree of size ``k − 1``.

Nodes are identified with rank states through *pre-order* numbering:
the root is state 0, the lone child of ``p`` is ``p + 1``, and the
children of a branching ``p`` (subtree sizes ``l``) are ``p + 1`` and
``p + l + 1``.  Figure 2 of the paper shows the ``n = 9`` instance;
:mod:`tests` check this module reproduces it exactly.

Structural properties proved in the paper and validated in tests:
all nodes at the same level are uniform (same kind, same subtree size),
and the height satisfies ``h <= 2·log2(n)``.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterator, List

import numpy as np

from ..exceptions import ProtocolError

__all__ = ["NodeKind", "PerfectlyBalancedTree"]


class NodeKind(IntEnum):
    """Role of a node in the perfectly balanced tree."""

    LEAF = 0
    NON_BRANCHING = 1
    BRANCHING = 2


class PerfectlyBalancedTree:
    """The size-``n`` perfectly balanced binary tree, pre-order indexed.

    All structure is precomputed into flat arrays at construction, so
    the protocol's transition function is a couple of O(1) lookups.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ProtocolError(f"tree size must be >= 1, got {size}")
        self._size = size
        kind = np.zeros(size, dtype=np.int8)  # NodeKind values
        left = np.full(size, -1, dtype=np.int64)
        right = np.full(size, -1, dtype=np.int64)
        parent = np.full(size, -1, dtype=np.int64)
        level = np.zeros(size, dtype=np.int64)
        subtree = np.zeros(size, dtype=np.int64)

        # Every level is uniform (one kind, one subtree size ``k``), so
        # the pre-order ids of each level follow from the level above
        # with array arithmetic, and the per-node fields fill by fancy
        # indexing: O(height) numpy passes instead of one Python stack
        # entry per node.  Each level's ids stay ascending: a node's
        # subtree spans the ids ``[p, p + k)``, so interleaving the two
        # children of every branching node keeps their order.
        ids = np.zeros(1, dtype=np.int64)
        k = size
        depth = 0
        while True:
            subtree[ids] = k
            level[ids] = depth
            if k == 1:
                break  # a level of leaves (kind 0) ends the tree
            first = ids + 1
            left[ids] = first
            parent[first] = ids
            if k % 2 == 1:
                half = (k - 1) // 2
                second = first + half
                kind[ids] = NodeKind.BRANCHING
                right[ids] = second
                parent[second] = ids
                children = np.empty(2 * len(ids), dtype=np.int64)
                children[0::2] = first
                children[1::2] = second
                k = half
            else:
                kind[ids] = NodeKind.NON_BRANCHING
                children = first
                k -= 1
            ids = children
            depth += 1

        kinds = list(NodeKind)  # indexed by value
        self._kind = [kinds[code] for code in kind.tolist()]
        self._left = left.tolist()
        self._right = right.tolist()
        self._parent = parent.tolist()
        self._level = level.tolist()
        self._subtree = subtree.tolist()
        self._height = depth
        self._leaves = ids.tolist()

    # ------------------------------------------------------------------
    # Node queries (all O(1))
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes (== rank states spanned)."""
        return self._size

    @property
    def height(self) -> int:
        """Maximum node level; the paper proves ``height <= 2·log2(n)``."""
        return self._height

    @property
    def leaves(self) -> List[int]:
        """Pre-order ids of all leaves."""
        return list(self._leaves)

    def kind(self, node: int) -> NodeKind:
        """Whether ``node`` is a leaf, non-branching, or branching."""
        return self._kind[node]

    def is_leaf(self, node: int) -> bool:
        """True iff ``node`` is a leaf."""
        return self._kind[node] == NodeKind.LEAF

    def left_child(self, node: int) -> int:
        """Left (or only) child, or -1 for leaves."""
        return self._left[node]

    def right_child(self, node: int) -> int:
        """Right child, or -1 unless branching."""
        return self._right[node]

    def parent(self, node: int) -> int:
        """Parent, or -1 for the root."""
        return self._parent[node]

    def level(self, node: int) -> int:
        """Distance from the root."""
        return self._level[node]

    def subtree_size(self, node: int) -> int:
        """Number of nodes in the subtree rooted at ``node``."""
        return self._subtree[node]

    def children(self, node: int) -> List[int]:
        """The 0, 1 or 2 children of ``node``."""
        result = []
        if self._left[node] >= 0:
            result.append(self._left[node])
        if self._right[node] >= 0:
            result.append(self._right[node])
        return result

    # ------------------------------------------------------------------
    # Path / traversal helpers used by the Lemma 19–20 analyses
    # ------------------------------------------------------------------
    def root_to_leaf_path(self, leaf: int) -> List[int]:
        """Nodes from the root down to ``leaf`` inclusive."""
        if not self.is_leaf(leaf):
            raise ProtocolError(f"node {leaf} is not a leaf")
        path = [leaf]
        while self._parent[path[-1]] >= 0:
            path.append(self._parent[path[-1]])
        path.reverse()
        return path

    def iter_levels(self) -> Iterator[List[int]]:
        """Yield the node lists of each level, root downward."""
        by_level: List[List[int]] = [[] for _ in range(self._height + 1)]
        for node in range(self._size):
            by_level[self._level[node]].append(node)
        return iter(by_level)

    def __repr__(self) -> str:
        return (
            f"PerfectlyBalancedTree(size={self._size}, "
            f"height={self._height}, leaves={len(self._leaves)})"
        )

"""Fenwick (binary indexed) tree over non-negative integer weights.

The simulation engine needs two operations on a vector of per-state
weights, both on the hot path of every productive interaction:

* update the weight of one state in ``O(log N)``, and
* sample a state with probability proportional to its weight, which is a
  prefix-sum search, also ``O(log N)``.

Weights here are plain Python integers (pair counts), so all arithmetic
is exact — no floating point drift can bias the sampler.  Bulk builds
(:func:`fill_tree`) run as one numpy prefix-sum pass with the same
exact integer results.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["FenwickTree", "fill_tree"]

#: Bound below which every partial sum of a build fits int64 with room.
_INT64_SAFE = 1 << 62


def fill_tree(tree: List[int], size: int, values: Sequence[int]) -> int:
    """(Re)build a raw Fenwick array in place; returns the total.

    ``tree`` must have ``size + 1`` entries; ``values`` (a sequence or a
    numpy integer array) may be shorter than ``size`` (missing slots
    count as zero — used for power-of-two padded trees, whose top node
    is then the total).  In-place filling matters: hot loops hold
    direct references to the list, so a resync must not swap the
    object out from under them.

    One vectorised prefix-sum pass: with ``P`` the zero-padded
    cumulative sum of the values, node ``i`` covers the slots
    ``(i − lowbit(i), i]``, so ``tree[i] = P[i] − P[i − (i & −i)]``.
    The subtraction runs level by level in place: the nodes with
    ``lowbit = 2^k`` only read nodes whose lowbit is larger, which later
    levels have not overwritten yet.  The arithmetic is int64 when
    ``len(values) · max(values)`` (a bound on every partial sum) stays
    below ``2⁶²`` — always true for pair counts, ``n(n−1) < 2⁶²`` — and
    exact Python integers otherwise (the weighted index's dyadic slot
    weights reach ``2⁵³·n²``).  Either way the result is exact.

    Raises :class:`ValueError` for a negative value or for more values
    than slots.
    """
    num_values = len(values)
    if num_values > size:
        raise ValueError(
            f"{num_values} Fenwick values do not fit in {size} slots"
        )
    try:
        weights = np.asarray(values, dtype=np.int64)
    except OverflowError:
        weights = np.asarray(values, dtype=object)
    if num_values:
        if weights.min() < 0:
            raise ValueError("Fenwick weights must be >= 0")
        if int(weights.max()) * num_values >= _INT64_SAFE:
            weights = weights.astype(object)
    sums = np.zeros(size + 1, dtype=weights.dtype)
    np.cumsum(weights, out=sums[1:num_values + 1])
    sums[num_values + 1:] = sums[num_values]
    total = int(sums[size])
    step = 1
    while step <= size:
        sums[step::2 * step] -= sums[:size + 1 - step:2 * step]
        step <<= 1
    tree[:] = sums.tolist()
    return total


class FenwickTree:
    """Prefix-sum tree over ``size`` slots of non-negative integers.

    Slots are indexed ``0..size-1``.  The tree stores the weights
    redundantly (``self._values``) so single-slot reads are O(1).
    """

    __slots__ = ("_size", "_tree", "_values", "_total")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"FenwickTree size must be >= 0, got {size}")
        self._size = size
        self._tree: List[int] = [0] * (size + 1)
        self._values: List[int] = [0] * size
        self._total = 0

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "FenwickTree":
        """Build a tree from initial weights (an iterable or numpy array)."""
        if isinstance(values, np.ndarray):
            weights, values = values, values.tolist()
        else:
            weights = values = list(values)
        tree = cls(len(values))
        tree._values = values
        tree._total = fill_tree(tree._tree, len(values), weights)
        return tree

    @property
    def size(self) -> int:
        """Number of slots."""
        return self._size

    @property
    def total(self) -> int:
        """Sum of all weights (cached, O(1))."""
        return self._total

    def get(self, index: int) -> int:
        """Current weight of ``index`` (O(1))."""
        return self._values[index]

    def set(self, index: int, value: int) -> None:
        """Set slot ``index`` to ``value`` (O(log N))."""
        if value < 0:
            raise ValueError(f"Fenwick weights must be >= 0, got {value}")
        delta = value - self._values[index]
        if delta == 0:
            return
        self._values[index] = value
        self._total += delta
        pos = index + 1
        tree = self._tree
        size = self._size
        while pos <= size:
            tree[pos] += delta
            pos += pos & -pos

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` to slot ``index`` (O(log N))."""
        self.set(index, self._values[index] + delta)

    def prefix_sum(self, index: int) -> int:
        """Sum of weights of slots ``0..index-1`` (O(log N))."""
        total = 0
        tree = self._tree
        pos = index
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    def find(self, target: int) -> int:
        """Smallest index ``i`` with ``prefix_sum(i + 1) > target``.

        Equivalently: the slot selected by a weighted draw when
        ``target`` is uniform over ``[0, total)``.  Requires
        ``0 <= target < total``.
        """
        if not 0 <= target < self._total:
            raise ValueError(
                f"find target {target} outside [0, {self._total})"
            )
        pos = 0
        # Highest power of two <= size.
        bit = 1 << (self._size.bit_length() - 1) if self._size else 0
        tree = self._tree
        size = self._size
        while bit:
            nxt = pos + bit
            if nxt <= size and tree[nxt] <= target:
                target -= tree[nxt]
                pos = nxt
            bit >>= 1
        return pos

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        preview = self._values[:8]
        suffix = "..." if self._size > 8 else ""
        return f"FenwickTree(size={self._size}, total={self._total}, values={preview}{suffix})"

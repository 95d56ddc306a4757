"""Bulk builds of raw Fenwick (binary indexed) trees.

The fused index (:mod:`repro.core.fused`) and the same-state loop's
count-bucket sampler keep their weights in raw Fenwick arrays, which
their hot loops update and search inline: update the weight of one slot
in ``O(log N)``, and sample a slot with probability proportional to its
weight, a prefix-sum search, also ``O(log N)``.  :func:`fill_tree`
(re)builds such an array in one numpy prefix-sum pass.  Weights are
exact integers (pair counts), so no floating point drift can bias a
sampler.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["fill_tree"]

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

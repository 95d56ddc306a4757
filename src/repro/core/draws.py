"""One engine's randomness: a generator and its batched draw channels.

Every engine owns one :class:`DrawStream`.  The stream wraps the
engine's ``numpy.random.Generator`` and serves the handful of draw
kinds the engines consume, each from its own buffer that refills in
one vectorised batch when it runs dry:

* **uniform** — one float64 batch in ``[0, 1)`` that the jump engine
  draws at construction.  No loop reads it: the jump loops take their
  skips from log-uniform batches.  The draw stays because the
  generator state after it starts every jump trajectory, but the batch
  is marked consumed as soon as it is drawn, so a snapshot carries
  none of it.  A stored version-2 snapshot that holds a batch (a
  biased engine's did: 8 192 floats) restores it as given;
* **raw** — 64-bit integers, the source of every exact integer draw
  (:meth:`~DrawStream.next_raw`, :meth:`~DrawStream.rand_below`), the
  fused loop's routed targets and pool proposals included;
* **log-uniform** — precomputed ``log(1 − u)``, the skip numerators of
  the jump loops and the batch kernel
  (:meth:`~DrawStream.next_log_uniform`);
* **accept** — float64 thresholds for rejection acceptance tests
  (:meth:`~DrawStream.next_accept`);
* **pair** — uniform ordered pairs of distinct agents for the
  explicit-agent engines (:meth:`~DrawStream.next_pair`).

Which channel an engine reads, and in what order, fixes its generator
consumption — and with it every trajectory — so the refill batch sizes
and the exact numpy calls here are part of the engines' bit-exactness
contract.  The hand-inlined hot loops keep their own cursors over
batches from the ``*_batch`` producers, which advance the generator
and nothing else.

Checkpoints: :meth:`~DrawStream.capture` returns the
:class:`~repro.core.snapshot.EngineSnapshot` fields for the exact
generator state and the unconsumed tails of the uniform, raw, pair and
accept channels; :meth:`~DrawStream.restore` adopts them.  The
log-uniform tail never travels: the batch kernel, which keeps it in
the stream across calls, :meth:`~DrawStream.discard`\\ s it before
capturing, and the jump engine's fused loop, which carries its own
log-uniform and raw batches between calls, drops them.  Both are exact
because unconsumed i.i.d. draws at a stopping time can be dropped.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

import numpy as np

from .snapshot import EngineSnapshot

__all__ = ["DrawStream", "BATCH", "RAW_SPAN"]

#: Refill size of the uniform, raw and log-uniform channels.
BATCH = 8192
#: Refill size of the accept and pair channels.
SMALL_BATCH = 4096
#: Exclusive upper bound of one raw 64-bit draw.
RAW_SPAN = 1 << 64
# Single-raw rejection sampling stays efficient below this bound;
# larger bounds splice several raws.
_SINGLE_RAW_MAX = 1 << 62


class DrawStream:
    """A generator plus the batched draw channels one engine reads.

    ``uniforms=True`` draws the uniform batch at construction, as the
    jump engine's trajectories require, and marks it consumed.
    ``agents`` is the population size, needed only by the pair channel.
    """

    __slots__ = (
        "rng", "agents",
        "uniforms", "uniform_pos",
        "raws", "raw_pos", "raw_batches",
        "lus", "lu_pos", "lu_batches",
        "accepts", "accept_pos", "accepts_drawn",
        "pairs", "pair_pos", "pairs_drawn",
    )

    def __init__(
        self, rng: np.random.Generator, uniforms: bool = False, agents: int = 0
    ) -> None:
        self.rng = rng
        self.agents = agents
        self.uniforms: np.ndarray = (
            self.uniform_batch() if uniforms else np.empty(0)
        )
        self.uniform_pos = len(self.uniforms)
        self.raws: List[int] = []
        self.raw_pos = 0
        self.lus: List[float] = []
        self.lu_pos = 0
        self.accepts: List[float] = []
        self.accept_pos = 0
        self.pairs: List[Tuple[int, int]] = []
        self.pair_pos = 0
        # Refill tallies for telemetry: batches drawn (raw, log-uniform)
        # and draws handed out by exhausted buffers (accept, pair).
        self.raw_batches = 0
        self.lu_batches = 0
        self.accepts_drawn = 0
        self.pairs_drawn = 0

    # ------------------------------------------------------------------
    # Batch producers (advance the generator; no cursor state)
    # ------------------------------------------------------------------
    def uniform_batch(self) -> np.ndarray:
        # Kept as an array: engines mostly discard this batch unread, so
        # a list conversion would cost every construction.
        return self.rng.random(BATCH)

    def log_uniform_batch(self) -> List[float]:
        """``log(1 − u)`` for a batch of uniforms: one numpy log per
        batch instead of one ``math.log`` per skip."""
        return np.log1p(-self.rng.random(BATCH)).tolist()

    def raw_batch(self) -> List[int]:
        return self.rng.integers(
            0, RAW_SPAN, size=BATCH, dtype=np.uint64
        ).tolist()

    def integers(self, bound: int, size: int = BATCH) -> np.ndarray:
        """``size`` uniform int64 draws in ``[0, bound)``."""
        return self.rng.integers(0, bound, size=size, dtype=np.int64)

    # ------------------------------------------------------------------
    # Buffered channels
    # ------------------------------------------------------------------
    def refill_raws(self) -> List[int]:
        """Replace the raw buffer with a fresh batch and return it."""
        self.raws = raws = self.raw_batch()
        self.raw_pos = 0
        self.raw_batches += 1
        return raws

    def next_raw(self) -> int:
        """One uniform integer in ``[0, 2^64)``."""
        pos = self.raw_pos
        raws = self.raws
        if pos >= len(raws):
            raws = self.refill_raws()
            pos = 0
        self.raw_pos = pos + 1
        return raws[pos]

    def rand_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``, exact for any bound.

        Rejection sampling from 64-bit raws: a draw is accepted iff it
        falls in a complete bucket of ``bound`` values, so the result
        is unbiased — unlike float multiplication, which misweights
        values once ``bound`` approaches 2⁵³.  Bounds of 2⁶² and more
        (weighted masses carry a 2⁵³ scale) splice several raws and
        reject into the largest multiple of ``bound``.
        """
        if bound < _SINGLE_RAW_MAX:
            limit = RAW_SPAN - bound
            next_raw = self.next_raw
            while True:
                raw = next_raw()
                value = raw % bound
                if raw - value <= limit:
                    return value
        words = (bound.bit_length() + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % bound
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | self.next_raw()
            if value < limit:
                return value % bound

    def refill_log_uniforms(self) -> List[float]:
        """Replace the log-uniform buffer with a fresh batch; return it."""
        self.lus = lus = self.log_uniform_batch()
        self.lu_pos = 0
        self.lu_batches += 1
        return lus

    def next_log_uniform(self) -> float:
        pos = self.lu_pos
        lus = self.lus
        if pos >= len(lus):
            lus = self.refill_log_uniforms()
            pos = 0
        self.lu_pos = pos + 1
        return lus[pos]

    def next_accept(self) -> float:
        """One acceptance threshold — a uniform in ``[0, 1)``."""
        pos = self.accept_pos
        if pos >= len(self.accepts):
            self.accepts_drawn += len(self.accepts)
            self.accepts = self.rng.random(SMALL_BATCH).tolist()
            pos = 0
        self.accept_pos = pos + 1
        return self.accepts[pos]

    def accepts_consumed(self) -> int:
        """Thresholds handed out so far (exhausted batches + head)."""
        return self.accepts_drawn + self.accept_pos

    def next_pair(self) -> Tuple[int, int]:
        """Uniform ordered pair of distinct agent indices."""
        pos = self.pair_pos
        if pos >= len(self.pairs):
            self.pairs_drawn += len(self.pairs)
            n = self.agents
            first = self.rng.integers(0, n, size=SMALL_BATCH)
            second = self.rng.integers(0, n - 1, size=SMALL_BATCH)
            second += second >= first
            self.pairs = list(zip(first.tolist(), second.tolist()))
            pos = 0
        self.pair_pos = pos + 1
        return self.pairs[pos]

    def pairs_consumed(self) -> int:
        """Pairs handed out so far (exhausted batches + head)."""
        return self.pairs_drawn + self.pair_pos

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def discard(self) -> None:
        """Drop the buffered uniform, raw and log-uniform draws; the
        next read refills from the (advanced) generator."""
        self.uniform_pos = len(self.uniforms)
        self.raws = []
        self.raw_pos = 0
        self.lus = []
        self.lu_pos = 0

    def capture(self) -> Dict:
        """Snapshot fields: exact generator state plus unconsumed tails.

        The uniform channel travels as its whole batch and cursor (an
        exhausted batch as ``()``); the others as their tails.
        """
        fields: Dict = {
            "rng_state": copy.deepcopy(self.rng.bit_generator.state),
            "raws": tuple(self.raws[self.raw_pos:]),
            "pair_buffer": tuple(
                v for pair in self.pairs[self.pair_pos:] for v in pair
            ),
            "accepts": tuple(self.accepts[self.accept_pos:]),
        }
        if len(self.uniforms):
            live = self.uniform_pos < len(self.uniforms)
            fields["uniforms"] = tuple(self.uniforms.tolist()) if live else ()
            fields["uniform_pos"] = self.uniform_pos
        return fields

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Adopt a captured generator state and buffered tails.

        The engine has checked the snapshot first, its generator state
        included (:func:`~repro.core.snapshot.check_snapshot`).
        """
        self.rng.bit_generator.state = copy.deepcopy(snapshot.rng_state)
        if snapshot.uniforms:
            self.uniforms = np.asarray(snapshot.uniforms, dtype=np.float64)
            self.uniform_pos = snapshot.uniform_pos
        else:
            self.uniform_pos = len(self.uniforms)
        self.raws = [int(r) for r in snapshot.raws]
        self.raw_pos = 0
        self.lus = []
        self.lu_pos = 0
        self.accepts = [float(u) for u in snapshot.accepts]
        self.accept_pos = 0
        flat = [int(v) for v in snapshot.pair_buffer]
        self.pairs = list(zip(flat[0::2], flat[1::2]))
        self.pair_pos = 0

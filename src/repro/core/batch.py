"""Vectorised numpy batch kernel: the ``backend="numpy"`` jump engine.

The scalar :class:`~repro.core.jump.JumpEngine` already pays O(1) per
productive event, but that O(1) is a Python-interpreter constant —
per-event proposal draws, dict dispatch, Fenwick walks.  This kernel
amortises those constants by drawing **event-pair proposals in bulk
with numpy** and committing them through a much thinner scalar loop.

The algorithm — *frozen-stratum rejection with modified-agent
correction* — simulates the exact jump chain (skip ~ Geometric(W/T),
then a uniform productive ordered pair):

* At each *epoch* the configuration is frozen: per-state counts ``c⁰``
  define canonical agent ids (state ``s`` owns the contiguous id block
  ``[start⁰_s, start⁰_s + c⁰_s)``; agents are exchangeable, so any
  consistent identification realises the exact law).  An agent is
  *modified* once an event changes its state; unmodified agents
  provably still hold their frozen state.
* Live productive ordered pairs split into **K1** (both endpoints
  unmodified — mass ``W1``, maintained in O(1) per event from the
  per-state unmodified counts ``c̃`` through the same family weight
  formulas the fused index uses) and **K2** (at least one modified
  endpoint — mass ``W − W1``, never enumerated).
* K1 pairs are served from a **vectorised proposal buffer**: thousands
  of candidate pairs drawn at once from the frozen-count envelope of
  each family slot (same-state / ordered-product / triangular-line
  decodes, all ``searchsorted``/``divmod`` array arithmetic) and then
  confirmed at commit time with two dict lookups (both endpoints still
  unmodified).  The envelope equals the frozen family weights exactly
  and ``c̃`` only decreases, so the confirm test is a valid rejection
  sampler for uniform-over-K1 and consumes no chain time.
* K2 events are resolved by an exact *group-structured* decomposition:
  ``W − W1`` splits per family into closed-form strata (modified
  initiator × live partners, unmodified initiator × modified
  responders), with modified agents indexed by live state and by
  product side in O(1)-maintained groups — no walk over the modified
  set, so K2 stays cheap even when epochs run long.

Per-event work between Python-level batch refills is then: one exact
``rand_below(W)`` (buffered raw 64-bit draws), one geometric skip
(buffered ``log1p`` uniforms, the same formula as the scalar engine),
a candidate confirm, and a handful of integer aggregate updates.

The slot structure is **compiled from the fused index's layout export**
(:meth:`~repro.core.fused.FusedIndex.layout`) — one source of truth for
how productive pairs decompose — and cached across runs keyed by
protocol shape (:data:`_PROGRAM_CACHE`).  A protocol with a custom
family type has no fused layout; :func:`batch_supported` reports it and
:func:`~repro.core.engine.build_engine` routes it to the scalar
engines.

Equivalence contract: **step-distribution-identical** to the scalar
engines (every draw is exact — integer rejection sampling, the scalar
engine's own geometric-skip formula), not bit-identical: the RNG
consumption pattern differs.  ``snapshot()`` canonicalises (buffered
draws are discarded — memorylessness makes that distribution-exact), so
the engine that took a snapshot and any engine restored from it
continue bit-identically to *each other*.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from .configuration import Configuration
from .draws import BATCH, RAW_SPAN, DrawStream
from .engine import Event, Recorder, checked_counts
from .fused import FusedIndex
from .protocol import PopulationProtocol
from .snapshot import EngineSnapshot, check_snapshot

__all__ = ["BatchEngine", "batch_supported"]

#: Overflow guard for exact integer draws (matches the jump engine).
_MAX_EXACT = 1 << 62

#: Refresh when the unmodified stratum drops under half the live mass
#: (bounds the K2 fraction — K2 selection is cheap group arithmetic, so
#: the kernel tolerates a large modified stratum) …
_REFRESH_NUM, _REFRESH_DEN = 1, 2
#: … or when the frozen envelope exceeds this multiple of ``W1`` (bounds
#: expected proposal candidates per confirmed K1 event at ≥ 1/8).
_ENVELOPE_FACTOR = 8

#: Proposal batch sizing: first refill of an epoch, growth cap.
_MIN_BATCH = 256
_MAX_BATCH = 16384

# Aggregate-update step codes (per-state compiled programs).
_ST_SAME, _ST_PROD_I, _ST_PROD_R, _ST_TRI = 0, 1, 2, 3


def _tri_term(s: int, q: int) -> int:
    """Triangular family weight from its (sum, sum-of-squares) stats."""
    return (q - s) + (s * s - q) // 2


class _BatchProgram:
    """Compiled, count-independent structure shared across runs.

    Built from :meth:`FusedIndex.layout` — the same slot decomposition
    the scalar fast path compiles against — plus the lazily filled
    transition table (``(s1, s2) -> (t1, t2, merged count deltas)``).
    """

    __slots__ = (
        "num_states", "same_states", "same_rule", "products", "tris",
        "same_idx", "prod_idx", "tri_idx", "tri_pos",
        "state_steps", "state_prod_sides", "state_tri_pos", "transitions",
    )

    def __init__(self, num_states: int, layout: tuple) -> None:
        self.num_states = num_states
        self.same_states: List[int] = []
        self.same_rule = bytearray(num_states)
        #: per product: (initiator states, responder states)
        self.products: List[Tuple[tuple, tuple]] = []
        #: per triangular: the line (position-ordered state tuple)
        self.tris: List[tuple] = []
        for slot in layout:
            kind = slot[0]
            if kind == "same":
                state = slot[1]
                if not self.same_rule[state]:
                    self.same_rule[state] = 1
                    self.same_states.append(state)
            elif kind == "product":
                _, initiators, responders = slot
                self.products.append((initiators, responders))
            elif kind == "triangular":
                _, line = slot
                self.tris.append(line)
            # A "proposal-pool" slot is a sampling detail of the scalar
            # hot loop.
        # Static decode-index arrays (counts are gathered per epoch).
        self.same_idx = np.asarray(self.same_states, dtype=np.int64)
        self.prod_idx = [
            (
                np.asarray(initiators, dtype=np.int64),
                np.asarray(responders, dtype=np.int64),
            )
            for initiators, responders in self.products
        ]
        self.tri_idx = [
            np.asarray(line, dtype=np.int64) for line in self.tris
        ]
        self.tri_pos = [
            np.arange(len(line), dtype=np.int64) for line in self.tris
        ]
        # Per-state aggregate-update steps, product-side memberships,
        # and triangular-line positions.
        steps: List[List[tuple]] = [[] for _ in range(num_states)]
        sides: List[List[tuple]] = [[] for _ in range(num_states)]
        tripos: List[List[tuple]] = [[] for _ in range(num_states)]
        for s in self.same_states:
            steps[s].append((_ST_SAME, 0))
        for p, (initiators, responders) in enumerate(self.products):
            for s in initiators:
                steps[s].append((_ST_PROD_I, p))
                sides[s].append((p, 0))
            for s in responders:
                steps[s].append((_ST_PROD_R, p))
                sides[s].append((p, 1))
        for t, line in enumerate(self.tris):
            for q, s in enumerate(line):
                steps[s].append((_ST_TRI, t))
                tripos[s].append((t, q))
        self.state_steps = [tuple(e) for e in steps]
        self.state_prod_sides = [tuple(e) for e in sides]
        self.state_tri_pos = [tuple(e) for e in tripos]
        #: (s1, s2) -> (t1, t2, ops) — filled lazily from protocol.delta.
        self.transitions: Dict[Tuple[int, int], tuple] = {}

    def transition(self, protocol, s1: int, s2: int) -> tuple:
        entry = self.transitions.get((s1, s2))
        if entry is None:
            out = protocol.delta(s1, s2)
            if out is None:
                raise SimulationError(
                    f"family coverage violated: pair ({s1}, {s2}) was "
                    "sampled but delta is silent"
                )
            t1, t2 = out
            deltas: Dict[int, int] = {}
            for state, d in ((s1, -1), (s2, -1), (t1, 1), (t2, 1)):
                deltas[state] = deltas.get(state, 0) + d
            ops = tuple(
                (state, d) for state, d in deltas.items() if d != 0
            )
            entry = (t1, t2, ops)
            self.transitions[(s1, s2)] = entry
        return entry


#: Cross-run program cache.  Keyed by the protocol's *shape* — type,
#: name, population, and state count — so two equal-shaped protocol
#: instances share one compiled program (and its transition table).
_PROGRAM_CACHE: Dict[tuple, object] = {}
_UNSUPPORTED = object()


def _layout_for(protocol: PopulationProtocol) -> tuple:
    """The fused slot layout of ``protocol`` (count-independent)."""
    zeros = [0] * protocol.num_states
    families = protocol.build_families(zeros)
    index = FusedIndex(families, protocol.num_states, zeros)
    return index.layout()


def _program_for(protocol: PopulationProtocol) -> Optional[_BatchProgram]:
    """Compiled batch program for ``protocol``, or None if unsupported."""
    n = protocol.num_agents
    if n * (n - 1) >= _MAX_EXACT:
        return None
    key = (
        type(protocol).__name__,
        protocol.name,
        n,
        protocol.num_states,
    )
    cached = _PROGRAM_CACHE.get(key)
    if cached is _UNSUPPORTED:
        return None
    if cached is not None:
        return cached
    try:
        layout = _layout_for(protocol)
        program = _BatchProgram(protocol.num_states, layout)
    except SimulationError:
        _PROGRAM_CACHE[key] = _UNSUPPORTED
        return None
    _PROGRAM_CACHE[key] = program
    return program


def batch_supported(protocol: PopulationProtocol) -> bool:
    """True iff the batch kernel can compile this protocol's families.

    Supported slot kinds: same-state rules, ordered products, and
    triangular lines — the only families the fused index compiles, and
    everything the paper's protocols use.
    """
    return _program_for(protocol) is not None


class BatchEngine:
    """Numpy-vectorised exact jump-chain engine (uniform scheduler).

    Same driver interface as the scalar engines: ``run`` / ``step`` /
    ``snapshot`` / ``restore`` / ``reset_configuration`` /
    ``configuration``, plus the ``counts`` / ``interactions`` /
    ``events`` result fields.  Construct through
    :func:`~repro.core.engine.build_engine` with ``backend="numpy"``.
    """

    snapshot_kind = "batch"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng,
        instrumentation=None,
    ) -> None:
        protocol.validate_configuration(configuration)
        program = _program_for(protocol)
        if program is None:
            raise SimulationError(
                f"protocol {protocol.name!r} is not supported by the "
                "batch kernel (use the scalar engines)"
            )
        self._protocol = protocol
        self._program = program
        # Buffered exact draws (consumed scalar, refilled vectorised);
        # the raw and log-uniform buffers persist across run() calls.
        self._draws = DrawStream(rng)
        self._instr = instrumentation
        self._n = protocol.num_agents
        self._total_pairs = self._n * (self._n - 1)
        self.counts: List[int] = configuration.counts_list()
        self._counts_np = np.asarray(self.counts, dtype=np.int64)
        self.interactions = 0
        self.events = 0
        self._lp_weight = -1
        self._lp = 0.0
        # Telemetry (flushed into the Instrumentation bag per run).
        self._c_refreshes = 0
        self._c_refills = 0
        self._c_proposals = 0
        self._c_candidates = 0
        self._c_confirm_rejects = 0
        self._c_k2 = 0
        self._epoch_candidates_mark = 0
        self._batch_size = _MIN_BATCH
        self._live_from_counts()
        self._refresh()

    # ------------------------------------------------------------------
    # Aggregates: live and unmodified-stratum family weights
    # ------------------------------------------------------------------
    def _live_from_counts(self) -> None:
        """Rebuild the live weight aggregates (and ``W``) from counts."""
        counts = self.counts
        program = self._program
        self._sw = sum(
            counts[s] * (counts[s] - 1) for s in program.same_states
        )
        self._it = [
            sum(counts[s] for s in initiators)
            for initiators, _ in program.products
        ]
        self._rt = [
            sum(counts[s] for s in responders)
            for _, responders in program.products
        ]
        self._ts = [sum(counts[s] for s in line) for line in program.tris]
        self._tq = [
            sum(counts[s] * counts[s] for s in line)
            for line in program.tris
        ]
        self._tterm = [
            _tri_term(s, q) for s, q in zip(self._ts, self._tq)
        ]
        self._w = (
            self._sw
            + sum(i * r for i, r in zip(self._it, self._rt))
            + sum(self._tterm)
        )

    @property
    def productive_weight(self) -> int:
        """Current number of productive ordered pairs ``W``."""
        return self._w

    def is_silent(self) -> bool:
        """True iff no productive interaction exists."""
        return self._w == 0

    def _retire_unmod(self, state: int) -> None:
        """One frozen-state-``state`` agent left the unmodified stratum."""
        ctilde = self._ctilde
        old = ctilde[state]
        new = old - 1
        ctilde[state] = new
        w1 = self._w1
        for code, idx in self._program.state_steps[state]:
            if code == 0:  # same
                d = new * (new - 1) - old * (old - 1)
                self._sw1 += d
                w1 += d
            elif code == 1:  # product initiator side
                self._it1[idx] -= 1
                w1 -= self._rt1[idx]
            elif code == 2:  # product responder side
                self._rt1[idx] -= 1
                w1 -= self._it1[idx]
            else:  # triangular
                sv = self._ts1[idx] - 1
                self._ts1[idx] = sv
                qv = self._tq1[idx] + new * new - old * old
                self._tq1[idx] = qv
                nt = (qv - sv) + (sv * sv - qv) // 2
                w1 += nt - self._tterm1[idx]
                self._tterm1[idx] = nt
        self._w1 = w1

    # ------------------------------------------------------------------
    # Epochs: freeze, envelopes, vectorised proposal refills
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Start a new epoch: freeze counts, rebuild envelopes.

        Deterministic (consumes no randomness — proposals are drawn
        lazily by :meth:`_refill`), so snapshot canonicalisation can
        schedule one on both the live and the restored engine.  All
        count-dependent decode tables are numpy gathers over static
        per-slot index arrays — O(states) of C work, no Python loops.
        """
        program = self._program
        cnp = self._counts_np
        self._c0 = self.counts.copy()
        ends = np.cumsum(cnp)
        self._start0 = ends - cnp  # frozen id-block starts, per state
        self._ctilde = self.counts.copy()
        # Modified-agent groups: live state -> [agent ids], plus each
        # agent's position for O(1) swap-removal; product-side mirrors.
        self._modified: Dict[int, int] = {}
        self._by_state: Dict[int, List[int]] = {}
        self._state_pos: Dict[int, int] = {}
        self._pgroups = [
            ([], []) for _ in program.products
        ]
        self._ppos = [
            ({}, {}) for _ in program.products
        ]
        # Per-line modified counts by position (mirrors the by-state
        # group sizes for triangular states, maintained incrementally).
        self._mod_tri = [[0] * len(line) for line in program.tris]
        # Unmodified aggregates start equal to the live ones.
        self._sw1 = self._sw
        self._it1 = list(self._it)
        self._rt1 = list(self._rt)
        self._ts1 = list(self._ts)
        self._tq1 = list(self._tq)
        self._tterm1 = list(self._tterm)
        self._w1 = self._w
        # Frozen-envelope decode tables, one branch per fused slot.
        # Zero-count states stay in the arrays: they decode to
        # zero-width cumsum segments that searchsorted never selects.
        branches = []
        sizes = []
        if len(program.same_idx):
            c0s = cnp[program.same_idx]
            w = c0s * (c0s - 1)
            cum = np.cumsum(w)
            total = int(cum[-1])
            if total:
                branches.append(
                    ("same", program.same_idx, c0s,
                     self._start0[program.same_idx], cum)
                )
                sizes.append(total)
        side_tables = []
        for p, (iidx, ridx) in enumerate(program.prod_idx):
            tables = []
            for idx in (iidx, ridx):
                cc = cnp[idx]
                cum = np.cumsum(cc)
                pad = cum - cc
                tables.append(
                    (idx, cum, pad, self._start0[idx], int(cum[-1]))
                )
            side_tables.append(tuple(tables))
            total = tables[0][4] * tables[1][4]
            if total:
                branches.append(("prod", tables[0], tables[1]))
                sizes.append(total)
        self._side0 = side_tables
        for t, idx in enumerate(program.tri_idx):
            cc = cnp[idx]
            cum = np.cumsum(cc)
            members = int(cum[-1])
            if members >= 2:
                branches.append(
                    ("tri", idx, program.tri_pos[t], cum,
                     self._start0[idx], members)
                )
                sizes.append(members * members)
        self._branches = branches
        self._env_total = sum(sizes)
        self._branch_cum = (
            np.cumsum(np.asarray(sizes, dtype=np.int64)) if sizes else None
        )
        # Candidate buffer: drop leftovers (i.i.d. — discard is exact);
        # size the next epoch's first refill from this epoch's demand.
        used = self._c_candidates - self._epoch_candidates_mark
        self._epoch_candidates_mark = self._c_candidates
        self._batch_size = min(_MAX_BATCH, max(_MIN_BATCH, used))
        self._cand_s1: List[int] = []
        self._cand_s2: List[int] = []
        self._cand_id1: List[int] = []
        self._cand_id2: List[int] = []
        self._cand_pos = 0
        self._c_refreshes += 1

    def _refill(self) -> None:
        """Draw one vectorised proposal batch from the frozen envelope.

        All decodes are array arithmetic; acceptance masks keep the
        candidates in draw order, so the surviving stream is i.i.d.
        uniform over the frozen productive support.
        """
        total = self._env_total
        if total <= 0:
            raise SimulationError("batch refill with an empty envelope")
        size = self._batch_size
        self._batch_size = min(_MAX_BATCH, size * 2)
        r = self._draws.integers(total, size)
        s1 = np.zeros(size, dtype=np.int64)
        s2 = np.zeros(size, dtype=np.int64)
        id1 = np.zeros(size, dtype=np.int64)
        id2 = np.zeros(size, dtype=np.int64)
        ok = np.ones(size, dtype=bool)
        cum = self._branch_cum
        branch = np.searchsorted(cum, r, side="right")
        base = np.concatenate((np.zeros(1, dtype=np.int64), cum))
        offset = r - base[branch]
        for b, spec in enumerate(self._branches):
            mask = branch == b
            if not mask.any():
                continue
            x = offset[mask]
            kind = spec[0]
            if kind == "same":
                _, st, c0, start, wcum = spec
                pad = np.concatenate((np.zeros(1, dtype=np.int64), wcum))
                k = np.searchsorted(wcum, x, side="right")
                rem = x - pad[k]
                c = c0[k]
                u = rem // (c - 1)
                t = rem % (c - 1)
                v = t + (t >= u)
                s1[mask] = st[k]
                s2[mask] = st[k]
                id1[mask] = start[k] + u
                id2[mask] = start[k] + v
            elif kind == "prod":
                _, (ist, icum, ipad, istart, _itot), \
                    (rst, rcum, rpad, rstart, rtot) = spec
                ipart = x // rtot
                rpart = x - ipart * rtot
                ki = np.searchsorted(icum, ipart, side="right")
                kr = np.searchsorted(rcum, rpart, side="right")
                s1[mask] = ist[ki]
                s2[mask] = rst[kr]
                id1[mask] = istart[ki] + (ipart - ipad[ki])
                id2[mask] = rstart[kr] + (rpart - rpad[kr])
            else:  # triangular
                _, st, pos, ccum, start, members = spec
                u = x // members
                v = x - u * members
                pad = np.concatenate((np.zeros(1, dtype=np.int64), ccum))
                ku = np.searchsorted(ccum, u, side="right")
                kv = np.searchsorted(ccum, v, side="right")
                pu = pos[ku]
                pv = pos[kv]
                s1[mask] = st[ku]
                s2[mask] = st[kv]
                id1[mask] = start[ku] + (u - pad[ku])
                id2[mask] = start[kv] + (v - pad[kv])
                # Ordered-pair envelope: initiator position must not
                # exceed the responder's; the diagonal needs distinct
                # member indices.
                ok[mask] = (pu < pv) | ((ku == kv) & (u != v))
        acc = np.flatnonzero(ok)
        self._cand_s1 = s1[acc].tolist()
        self._cand_s2 = s2[acc].tolist()
        self._cand_id1 = id1[acc].tolist()
        self._cand_id2 = id2[acc].tolist()
        self._cand_pos = 0
        self._c_proposals += size
        self._c_refills += 1

    # ------------------------------------------------------------------
    # Buffered exact scalar draws
    # ------------------------------------------------------------------
    def _geometric_skip(self, weight: int) -> int:
        """Steps to the next productive interaction — the jump formula
        on one log-uniform draw (consumed even when ``p = 1``)."""
        if weight != self._lp_weight:
            self._lp_weight = weight
            p = weight / self._total_pairs
            self._lp = math.log1p(-p) if p < 1.0 else -math.inf
        lu = self._draws.next_log_uniform()
        lp = self._lp
        if lp == -math.inf:
            return 1
        skip = math.ceil(lu / lp)
        return skip if skip >= 1 else 1

    # ------------------------------------------------------------------
    # Modified-agent groups (live-state and product-side indexes)
    # ------------------------------------------------------------------
    def _group_add(self, aid: int, state: int) -> None:
        lst = self._by_state.get(state)
        if lst is None:
            lst = self._by_state[state] = []
        self._state_pos[aid] = len(lst)
        lst.append(aid)
        program = self._program
        for p, side in program.state_prod_sides[state]:
            g = self._pgroups[p][side]
            self._ppos[p][side][aid] = len(g)
            g.append(aid)
        for t, q in program.state_tri_pos[state]:
            self._mod_tri[t][q] += 1

    def _group_remove(self, aid: int, state: int) -> None:
        lst = self._by_state[state]
        pos = self._state_pos.pop(aid)
        last = lst.pop()
        if last != aid:
            lst[pos] = last
            self._state_pos[last] = pos
        if not lst:
            del self._by_state[state]
        program = self._program
        for p, side in program.state_prod_sides[state]:
            g = self._pgroups[p][side]
            pm = self._ppos[p][side]
            gpos = pm.pop(aid)
            glast = g.pop()
            if glast != aid:
                g[gpos] = glast
                pm[glast] = gpos
        for t, q in program.state_tri_pos[state]:
            self._mod_tri[t][q] -= 1

    # ------------------------------------------------------------------
    # Uniform draws over the unmodified stratum
    # ------------------------------------------------------------------
    def _draw_unmod(self, state: int) -> int:
        """Uniform unmodified agent of frozen state ``state`` (id).

        Rejection against the frozen id block; after a pathological run
        of hits on modified agents, falls back to an exact indexed scan.
        """
        c0 = self._c0[state]
        base = int(self._start0[state])
        modified = self._modified
        for _ in range(64):
            aid = base + self._draws.rand_below(c0)
            if aid not in modified:
                return aid
        return self._nth_unmod(state, self._draws.rand_below(self._ctilde[state]))

    def _nth_unmod(self, state: int, k: int) -> int:
        base = int(self._start0[state])
        modified = self._modified
        for aid in range(base, base + self._c0[state]):
            if aid not in modified:
                if k == 0:
                    return aid
                k -= 1
        raise SimulationError("unmodified stratum exhausted mid-scan")

    def _draw_unmod_side(self, p: int, side: int) -> Tuple[int, int]:
        """Uniform unmodified agent over a product side: (id, state).

        Rejection against the frozen side envelope (scalar searchsorted
        decode); exact mass-indexed scan as the pathological fallback.
        """
        idx, cum, pad, start, total0 = self._side0[p][side]
        modified = self._modified
        for _ in range(64):
            x = self._draws.rand_below(total0)
            k = int(np.searchsorted(cum, x, side="right"))
            aid = int(start[k]) + x - int(pad[k])
            if aid not in modified:
                return aid, int(idx[k])
        states = self._program.products[p][side]
        ctilde = self._ctilde
        k = self._draws.rand_below(sum(ctilde[s] for s in states))
        for s in states:
            c = ctilde[s]
            if k < c:
                return self._nth_unmod(s, k), s
            k -= c
        raise SimulationError("unmodified side mass exhausted mid-draw")

    # ------------------------------------------------------------------
    # K2: pairs touching the modified stratum (group-structured, exact)
    # ------------------------------------------------------------------
    def _k2_sample(self, x: int) -> tuple:
        """Resolve a draw landing in the modified stratum.

        ``x`` is uniform on ``[0, W − W1)``.  The mass splits per family
        into closed-form strata — for each, "initiator modified" counts
        every live partner and "initiator unmodified" counts modified
        responders only, so every K2 ordered pair is covered exactly
        once.  Group lookups replace any walk over the modified set.
        Returns ``(s1, s2, id1, id2)``.
        """
        program = self._program
        counts = self.counts
        ctilde = self._ctilde
        by_state = self._by_state
        m_same = self._sw - self._sw1
        if x < m_same:
            for s, lst in by_state.items():
                if not program.same_rule[s]:
                    continue
                m = len(lst)
                c = counts[s]
                ct = ctilde[s]
                mass = m * (c - 1) + ct * m
                if x < mass:
                    a_mass = m * (c - 1)
                    if x < a_mass:
                        i = x // (c - 1)
                        y = x % (c - 1)
                        id1 = lst[i]
                        if y < ct:
                            return s, s, id1, self._draw_unmod(s)
                        z = y - ct
                        return s, s, id1, lst[z + (z >= i)]
                    xx = x - a_mass
                    return s, s, self._draw_unmod(s), lst[xx // ct]
                x -= mass
            raise SimulationError("K2 same-state walk overflow")
        x -= m_same
        for p in range(len(program.products)):
            gi, gr = self._pgroups[p]
            itm = len(gi)
            rtm = len(gr)
            rt = self._rt[p]
            it1 = self._it1[p]
            rt1 = self._rt1[p]
            a_mass = itm * rt
            if x < a_mass:
                id1 = gi[x // rt]
                y = x % rt
                s1 = self._modified[id1]
                if y < rt1:
                    id2, s2 = self._draw_unmod_side(p, 1)
                else:
                    id2 = gr[y - rt1]
                    s2 = self._modified[id2]
                return s1, s2, id1, id2
            x -= a_mass
            b_mass = it1 * rtm
            if x < b_mass:
                id2 = gr[x // it1]
                id1, s1 = self._draw_unmod_side(p, 0)
                return s1, self._modified[id2], id1, id2
            x -= b_mass
        for t in range(len(program.tris)):
            mass_t = self._tterm[t] - self._tterm1[t]
            if x < mass_t:
                return self._k2_tri(t, x)
            x -= mass_t
        raise SimulationError("K2 walk overflow (mass accounting broken)")

    def _k2_tri(self, t: int, x: int) -> tuple:
        """K2 pair within one triangular line, ``x`` uniform on its mass.

        Per position ``q`` (modified count ``m_q``, unmodified ``c̃_q``):
        stratum A — modified initiator at ``q`` with any live partner at
        the same state or a later position, mass ``m_q(c_q − 1 +
        suffix_live)``; stratum B — unmodified initiator at ``q`` with a
        modified responder at the same state or later, mass
        ``c̃_q(m_q + suffix_mod)``.  Summed over ``q`` these masses
        telescope to exactly ``T(live) − T(unmodified)``.
        """
        counts = self.counts
        ctilde = self._ctilde
        by_state = self._by_state
        line = self._program.tris[t]
        length = len(line)
        m = self._mod_tri[t]
        suff_live = [0] * (length + 1)
        suff_mod = [0] * (length + 1)
        for q in range(length - 1, -1, -1):
            suff_live[q] = suff_live[q + 1] + counts[line[q]]
            suff_mod[q] = suff_mod[q + 1] + m[q]
        for q in range(length):
            mq = m[q]
            s = line[q]
            c = counts[s]
            ct = ctilde[s]
            if mq:
                a_span = (c - 1) + suff_live[q + 1]
                a_mass = mq * a_span
                if x < a_mass:
                    lst = by_state[s]
                    i = x // a_span
                    y = x % a_span
                    id1 = lst[i]
                    if y < c - 1:
                        if y < ct:
                            return s, s, id1, self._draw_unmod(s)
                        z = y - ct
                        return s, s, id1, lst[z + (z >= i)]
                    y -= c - 1
                    for r in range(q + 1, length):
                        sr = line[r]
                        cr = counts[sr]
                        if y < cr:
                            ctr = ctilde[sr]
                            if y < ctr:
                                return s, sr, id1, self._draw_unmod(sr)
                            return s, sr, id1, by_state[sr][y - ctr]
                        y -= cr
                    raise SimulationError("K2 tri suffix overflow")
                x -= a_mass
            if ct:
                b_mass = ct * (mq + suff_mod[q + 1])
                if x < b_mass:
                    y = x // ct
                    id1 = self._draw_unmod(s)
                    if y < mq:
                        return s, s, id1, by_state[s][y]
                    y -= mq
                    for r in range(q + 1, length):
                        sr = line[r]
                        mr = m[r]
                        if y < mr:
                            return s, line[r], id1, by_state[sr][y]
                        y -= mr
                    raise SimulationError("K2 tri mod-suffix overflow")
                x -= b_mass
        raise SimulationError("K2 tri walk overflow")

    # ------------------------------------------------------------------
    # The commit loop
    # ------------------------------------------------------------------
    def _next_k1(self) -> tuple:
        """Next confirmed candidate — uniform over K1."""
        modified = self._modified
        pos = self._cand_pos
        id1s = self._cand_id1
        id2s = self._cand_id2
        size = len(id1s)
        rejects = 0
        while True:
            if pos >= size:
                self._refill()
                pos = 0
                id1s = self._cand_id1
                id2s = self._cand_id2
                size = len(id1s)
                continue
            a = id1s[pos]
            b = id2s[pos]
            if a not in modified and b not in modified:
                self._c_candidates += pos - self._cand_pos + 1
                self._c_confirm_rejects += rejects
                s1 = self._cand_s1[pos]
                s2 = self._cand_s2[pos]
                self._cand_pos = pos + 1
                return s1, s2, a, b
            rejects += 1
            pos += 1

    def _commit(self, s1: int, s2: int, id1: int, id2: int) -> tuple:
        """Apply the transition for the sampled pair; returns (t1, t2).

        Updates counts, the live aggregates (and ``W``) incrementally,
        and the modified-stratum bookkeeping for any agent whose state
        actually changed.
        """
        t1, t2, ops = self._program.transition(self._protocol, s1, s2)
        counts = self.counts
        cnp = self._counts_np
        steps = self._program.state_steps
        it = self._it
        rt = self._rt
        ts = self._ts
        tq = self._tq
        tterm = self._tterm
        w = self._w
        sw = self._sw
        for state, d in ops:
            old = counts[state]
            new = old + d
            if new < 0:
                raise SimulationError(
                    f"state {state} count went negative applying transition"
                )
            counts[state] = new
            cnp[state] = new
            for code, idx in steps[state]:
                if code == 0:  # same
                    dd = new * (new - 1) - old * (old - 1)
                    sw += dd
                    w += dd
                elif code == 1:  # product initiator side
                    it[idx] += d
                    w += d * rt[idx]
                elif code == 2:  # product responder side
                    rt[idx] += d
                    w += d * it[idx]
                else:  # triangular
                    sv = ts[idx] + d
                    ts[idx] = sv
                    qv = tq[idx] + new * new - old * old
                    tq[idx] = qv
                    nt = (qv - sv) + (sv * sv - qv) // 2
                    w += nt - tterm[idx]
                    tterm[idx] = nt
        self._w = w
        self._sw = sw
        modified = self._modified
        if t1 != s1:
            if id1 in modified:
                self._group_remove(id1, s1)
            else:
                self._retire_unmod(s1)
            modified[id1] = t1
            self._group_add(id1, t1)
        if t2 != s2:
            if id2 in modified:
                self._group_remove(id2, s2)
            else:
                self._retire_unmod(s2)
            modified[id2] = t2
            self._group_add(id2, t2)
        self.events += 1
        return t1, t2

    def _run_loop(
        self,
        max_interactions: Optional[int],
        recorder: Optional[Recorder],
        max_events: Optional[int],
    ) -> bool:
        total_pairs = self._total_pairs
        draws = self._draws
        ceil = math.ceil
        neg_inf = -math.inf
        while True:
            w = self._w
            if w == 0:
                return True
            if max_events is not None and self.events >= max_events:
                return False
            if max_interactions is not None and self.interactions >= max_interactions:
                return False
            w1 = self._w1
            if self._modified and (
                _REFRESH_DEN * w1 < _REFRESH_NUM * w
                or self._env_total > _ENVELOPE_FACTOR * w1
            ):
                self._refresh()
                w1 = w
            # Geometric skip, inlined (the jump engine's exact formula).
            if w != self._lp_weight:
                self._lp_weight = w
                p = w / total_pairs
                self._lp = math.log1p(-p) if p < 1.0 else neg_inf
            pos = draws.lu_pos
            lus = draws.lus
            if pos >= len(lus):
                lus = draws.refill_log_uniforms()
                pos = 0
            lu = lus[pos]
            draws.lu_pos = pos + 1
            lp = self._lp
            if lp == neg_inf:
                skip = 1
            else:
                skip = ceil(lu / lp)
                if skip < 1:
                    skip = 1
            if (
                max_interactions is not None
                and self.interactions + skip > max_interactions
            ):
                self.interactions = max_interactions
                return False
            self.interactions += skip
            # Exact uniform in [0, W) — inlined rand_below.
            limit = RAW_SPAN - w
            rpos = draws.raw_pos
            raws = draws.raws
            rsize = len(raws)
            while True:
                if rpos >= rsize:
                    raws = draws.refill_raws()
                    rpos = 0
                    rsize = BATCH
                raw = raws[rpos]
                rpos += 1
                u = raw % w
                if raw - u <= limit:
                    break
            draws.raw_pos = rpos
            if u < w1:
                s1, s2, id1, id2 = self._next_k1()
            else:
                s1, s2, id1, id2 = self._k2_sample(u - w1)
                self._c_k2 += 1
            t1, t2 = self._commit(s1, s2, id1, id2)
            if recorder is not None:
                recorder.on_event(
                    Event(self.interactions, s1, s2, t1, t2), self.counts
                )

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent."""
        if recorder is not None:
            recorder.on_start(self.counts)
        events0 = self.events
        interactions0 = self.interactions
        marks = (
            self._c_refreshes, self._c_refills, self._c_proposals,
            self._c_candidates, self._c_confirm_rejects, self._c_k2,
            self._draws.raw_batches, self._draws.lu_batches,
        )
        silent = self._run_loop(max_interactions, recorder, max_events)
        if self._instr is not None:
            events = self.events - events0
            self._instr.add_counters(
                events=events,
                interactions=self.interactions - interactions0,
                skip_draws=events,
                batch_refreshes=self._c_refreshes - marks[0],
                batch_refills=self._c_refills - marks[1],
                proposal_draws=self._c_proposals - marks[2],
                batch_candidates=self._c_candidates - marks[3],
                batch_confirm_rejects=self._c_confirm_rejects - marks[4],
                batch_k2_events=self._c_k2 - marks[5],
                raw_draws=(self._draws.raw_batches - marks[6]) * BATCH,
                uniform_draws=(self._draws.lu_batches - marks[7]) * BATCH,
            )
        if recorder is not None:
            recorder.on_finish(silent, self.interactions, self.counts)
        return silent

    def step(self) -> Optional[Event]:
        """Advance to (and apply) the next productive interaction.

        Returns ``None`` when the configuration is silent.  One event
        per call — the batch machinery still amortises the draws.
        """
        w = self._w
        if w == 0:
            return None
        w1 = self._w1
        if self._modified and (
            _REFRESH_DEN * w1 < _REFRESH_NUM * w
            or self._env_total > _ENVELOPE_FACTOR * w1
        ):
            self._refresh()
            w1 = w
        self.interactions += self._geometric_skip(w)
        u = self._draws.rand_below(w)
        if u < w1:
            s1, s2, id1, id2 = self._next_k1()
        else:
            s1, s2, id1, id2 = self._k2_sample(u - w1)
            self._c_k2 += 1
        t1, t2 = self._commit(s1, s2, id1, id2)
        return Event(self.interactions, s1, s2, t1, t2)

    # ------------------------------------------------------------------
    # Fault seam / checkpoints
    # ------------------------------------------------------------------
    def reset_configuration(self, configuration) -> None:
        """Adopt an externally mutated configuration mid-run.

        The fault-injection ``resync`` seam: counts, aggregates, and
        the frozen epoch are rebuilt from the new configuration; the
        counters and the generator stream are preserved.
        """
        counts = checked_counts(
            configuration, self._protocol.num_states, self._n
        )
        self.counts = counts
        self._counts_np = np.asarray(counts, dtype=np.int64)
        self._live_from_counts()
        self._refresh()
        if self._instr is not None:
            self._instr.add("resyncs")
            self._instr.mark(
                "resync", events=self.events, interactions=self.interactions
            )

    def snapshot(self) -> EngineSnapshot:
        """Plain-data checkpoint (canonicalising — see module docstring).

        Buffered draws and the candidate batch are discarded (exact by
        memorylessness) and a fresh epoch is started on *this* engine
        too, so the snapshotting engine and any engine restored from
        the snapshot continue bit-identically to each other.
        """
        self._draws.discard()
        self._lp_weight = -1
        self._refresh()
        self._c_refreshes -= 1  # canonicalisation, not a policy refresh
        # Pin the adaptive proposal sizing: the taker and any restored
        # engine must consume the generator stream identically.
        self._batch_size = _MIN_BATCH
        if self._instr is not None:
            self._instr.add("snapshots")
            self._instr.mark(
                "snapshot", events=self.events, interactions=self.interactions
            )
        return EngineSnapshot(
            kind=self.snapshot_kind,
            num_states=self._protocol.num_states,
            num_agents=self._n,
            counts=tuple(self.counts),
            interactions=self.interactions,
            events=self.events,
            **self._draws.capture(),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Adopt a snapshot in place; continues identically to the taker."""
        check_snapshot(
            snapshot, self.snapshot_kind, self._protocol.num_states, self._n,
            self._draws.rng.bit_generator,
        )
        self.counts = [int(c) for c in snapshot.counts]
        self._counts_np = np.asarray(self.counts, dtype=np.int64)
        self.interactions = snapshot.interactions
        self.events = snapshot.events
        self._draws.restore(snapshot)
        self._lp_weight = -1
        self._live_from_counts()
        self._refresh()
        self._c_refreshes -= 1
        self._batch_size = _MIN_BATCH
        if self._instr is not None:
            self._instr.add("restores")
            self._instr.mark(
                "restore", events=self.events, interactions=self.interactions
            )

    def configuration(self) -> Configuration:
        """Snapshot of the current configuration."""
        return Configuration(self.counts)

    # ------------------------------------------------------------------
    # Test hook
    # ------------------------------------------------------------------
    def _check_invariants(self) -> None:
        """Assert the incremental aggregates match a full recompute.

        Property-test hook — not used on any hot path.
        """
        live = (
            self._sw, list(self._it), list(self._rt), list(self._ts),
            list(self._tq), list(self._tterm), self._w,
        )
        self._live_from_counts()
        fresh = (
            self._sw, self._it, self._rt, self._ts, self._tq,
            self._tterm, self._w,
        )
        if live != fresh:
            raise AssertionError(
                f"live aggregates drifted: {live} != {fresh}"
            )
        program = self._program
        ctilde = self._ctilde
        sw1 = sum(ctilde[s] * (ctilde[s] - 1) for s in program.same_states)
        it1 = [
            sum(ctilde[s] for s in initiators)
            for initiators, _ in program.products
        ]
        rt1 = [
            sum(ctilde[s] for s in responders)
            for _, responders in program.products
        ]
        ts1 = [sum(ctilde[s] for s in line) for line in program.tris]
        tq1 = [
            sum(ctilde[s] * ctilde[s] for s in line)
            for line in program.tris
        ]
        tterm1 = [_tri_term(s, q) for s, q in zip(ts1, tq1)]
        w1 = sw1 + sum(i * r for i, r in zip(it1, rt1)) + sum(tterm1)
        unmod = (sw1, it1, rt1, ts1, tq1, tterm1, w1)
        held = (
            self._sw1, self._it1, self._rt1, self._ts1, self._tq1,
            self._tterm1, self._w1,
        )
        if held != unmod:
            raise AssertionError(
                f"unmodified aggregates drifted: {held} != {unmod}"
            )
        for s, lst in self._by_state.items():
            if self.counts[s] != ctilde[s] + len(lst):
                raise AssertionError(
                    f"state {s}: live {self.counts[s]} != unmodified "
                    f"{ctilde[s]} + modified {len(lst)}"
                )
        grouped = sum(len(lst) for lst in self._by_state.values())
        if grouped != len(self._modified):
            raise AssertionError(
                f"{grouped} grouped agents != {len(self._modified)} modified"
            )
        for t, line in enumerate(program.tris):
            expected = [
                len(self._by_state.get(s, ())) for s in line
            ]
            if self._mod_tri[t] != expected:
                raise AssertionError(
                    f"line {t} modified-count mirror drifted: "
                    f"{self._mod_tri[t]} != {expected}"
                )

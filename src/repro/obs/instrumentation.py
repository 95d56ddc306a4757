"""Opt-in engine counters with per-chunk accounting.

:class:`Instrumentation` is a plain counter bag handed to
``build_engine``/``run_protocol`` (or any engine constructor).  The
engines treat it as *chunk-level* telemetry: fast loops keep their
counts in locals or derive them from batch-consumption arithmetic
(``batches * BATCH - unconsumed - discarded``) and flush once per call
of the loop, never per event inside one.  A call is a ``run()`` chunk,
or a single event when ``step()``, a recorder or ``debug`` mode drives
the jump engine, so step-driven runs flush their counters once per
call.  When no instrumentation is attached the only residue on the hot
path is a single ``is not None`` test per call, so throughput is
unchanged — the committed bench floors gate that.

Counters never consume randomness, so a run with instrumentation
attached is bit-identical to the same seed without it (the
trajectory-equality property test asserts exactly that).

Counter vocabulary (engines only touch the ones their loop has):

``events``, ``interactions``
    Productive events and scheduler steps covered by the run.
``skip_draws``, ``raw_draws``
    Uniforms consumed for geometric skips and 64-bit raws consumed for
    routing targets (two per target on a class-scaled index), pool
    proposals and rejection, from batch arithmetic.  The jump engine's
    fused loop carries its batches from one call to the next, and each
    call counts the draws it took, from carried batches too.
``pool_draws``, ``sprint_events``, ``proposal_draws``
    Events served by the proposal pool, the subset taken on the sprint
    shortcut (no routing draw), and agent proposals consumed including
    rejected ones — ``proposal_draws / pool_draws`` is the ROADMAP's
    "proposals per draw" residual-cost number.
``fenwick_finds``, ``composite_finds``
    Routed target draws resolved by a Fenwick walk vs the composite
    linear scan, in the fused loop (uniform or biased index); the
    same-state loop's count-bucket draws count as Fenwick finds too
    (one walk over the count axis each).
``programs_compiled``, ``pair_fills``
    Transition programs the fused loop compiled, on either engine, and
    its pair-table misses.  A same-state miss compiles the state's own
    program.  A cross-state miss is a *fill*: one ``delta`` call and a
    lookup of the index's shared program for the pair's plans and coded
    targets, which compiles only for a new key.  A §5 reset storm fills
    a pair per new (red line state, rank) pair, but compiles a few
    dozen programs in all; ``programs_compiled / events`` and
    ``pair_fills / events`` are the shares of events that paid each.
``proposal_mode_events``, ``fenwick_mode_events``, ``mode_switches``
    The same-state dual sampler's adaptive split: events served by the
    proposal mode and by the low-acceptance count-bucket mode, and the
    switches between them (a count-axis growth is not a switch).
``swap_events``
    Count-bucket events that were *count swaps* — one agent moved from
    a state holding ``c`` agents to a rule state holding ``c − 1``, so
    the two counts traded places and the loop served the event with an
    in-place bucket edit, no count-axis walk.  A subset of
    ``fenwick_mode_events``; ``swap_events / fenwick_mode_events`` is
    the swap share (about 0.96–0.99 on the ring of traps' k-distant
    drain).
``accept_tests``, ``accept_rejects``
    Acceptance tests and rejections of the rejection engines
    (``ScheduledEngine``, ``AgentScheduledEngine``); the weighted
    engine draws productive pairs directly and never emits them.
``weighted_events``, ``slow_events``
    Events of a recorder-free biased jump ``run()``, one fused-loop
    call per segment, and jump-engine events run one fused-loop call
    at a time: by ``step()``, and by ``run()`` with a recorder or in
    ``debug`` mode.  A uniform run's
    interactions budget runs on the fused loop in one call, and counts
    as neither.
``pair_draws``
    Ordered agent pairs drawn by the sequential reference engine (from
    batch arithmetic, the rejection engines' rejected draws included).
``batch_refreshes``, ``batch_refills``, ``batch_candidates``,
``batch_confirm_rejects``, ``batch_k2_events``, ``uniform_draws``
    The numpy batch kernel's epoch machinery: frozen-stratum refreshes,
    vectorised proposal refills (each one Python-level touch of numpy),
    proposal candidates consumed / rejected by the modified-agent
    confirm, events resolved through the closed-form K2 strata, and
    uniforms consumed for geometric-skip batches —
    ``events / batch_refills`` is the "events per Python touch"
    amortisation number.
``reclassifications``, ``resyncs``, ``epoch_switches``
``snapshots``, ``restores``
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["Instrumentation"]


class Instrumentation:
    """Counter bag plus an optional structured mark log.

    ``marks`` records rare structural events (epoch switches, resyncs,
    snapshot/restore) as plain dicts when ``trace=True`` — the scenario
    tracer folds them into the run trace.  Counters are plain ints in a
    dict; everything is picklable so instrumentation survives worker
    round-trips.
    """

    __slots__ = ("counters", "marks", "trace")

    def __init__(self, trace: bool = False) -> None:
        self.counters: Dict[str, int] = {}
        self.marks: List[Dict] = []
        self.trace = trace

    def add(self, name: str, value: int = 1) -> None:
        """Bump one counter (chunk-level call sites only)."""
        if value:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def add_counters(self, **deltas: int) -> None:
        """Flush a fast loop's local tallies in one call."""
        counters = self.counters
        for name, value in deltas.items():
            if value:
                counters[name] = counters.get(name, 0) + int(value)

    def mark(self, kind: str, **fields) -> None:
        """Record one structural event (no-op unless tracing)."""
        if self.trace:
            record = {"kind": kind}
            record.update(fields)
            self.marks.append(record)

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def merge(self, other: "Instrumentation") -> None:
        """Fold another bag's counters (and marks) into this one."""
        self.add_counters(**other.counters)
        if self.trace:
            self.marks.extend(other.marks)

    def derived(self) -> Dict[str, float]:
        """Ratios answering the residual-cost questions.

        Only ratios whose denominators are non-zero appear, so the dict
        reflects which loops actually ran.
        """
        c = self.counters.get
        out: Dict[str, float] = {}
        events = c("events", 0)
        pool = c("pool_draws", 0)
        finds = c("fenwick_finds", 0) + c("composite_finds", 0)
        if pool:
            out["proposals_per_pool_draw"] = c("proposal_draws", 0) / pool
            out["sprint_share"] = c("sprint_events", 0) / pool
        if events:
            out["skip_draws_per_event"] = c("skip_draws", 0) / events
            out["raw_draws_per_event"] = c("raw_draws", 0) / events
            out["compiles_per_event"] = c("programs_compiled", 0) / events
            out["pair_fills_per_event"] = c("pair_fills", 0) / events
        if pool or finds:
            out["fenwick_share"] = finds / (pool + finds)
        tests = c("accept_tests", 0)
        if tests:
            out["acceptance"] = 1.0 - c("accept_rejects", 0) / tests
        refills = c("batch_refills", 0)
        if refills and events:
            # Events amortised per Python-level numpy touch.
            out["events_per_batch_refill"] = events / refills
        refreshes = c("batch_refreshes", 0)
        if refreshes and events:
            out["batch_refresh_rate"] = refreshes / events
        candidates = c("batch_candidates", 0)
        if candidates:
            out["batch_confirm_acceptance"] = (
                1.0 - c("batch_confirm_rejects", 0) / candidates
            )
        if events:
            k2 = c("batch_k2_events", 0)
            if k2 or refills:
                out["batch_k2_share"] = k2 / events
        return out

    def to_dict(self) -> Dict[str, object]:
        """Stable plain-data view (sorted counters + derived ratios)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "derived": dict(sorted(self.derived().items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{k}={v}" for k, v in sorted(self.counters.items())
        )
        return f"Instrumentation({inner})"

"""Observability: engine counters and structured run traces.

Zero-cost-when-off instrumentation for the simulation stack:

* :class:`~repro.obs.instrumentation.Instrumentation` — an opt-in
  counter bag passed to ``build_engine``/``run_protocol``; the fast
  loops account for it per chunk (batch consumption arithmetic at loop
  exits), never per event, so the bench floors stay green when it is
  off.
* :mod:`repro.obs.trace` — versioned JSONL run traces with
  deterministic logical content (no wall-clock in compared fields), so
  traces taken at any worker count merge to identical histories.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".instrumentation": ("Instrumentation",),
    ".trace": (
        "TRACE_VERSION",
        "TraceReader",
        "TraceWriter",
        "diff_traces",
        "merge_trace_events",
        "summarize_trace",
        "validate_trace",
    ),
})

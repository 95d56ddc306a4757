"""In-memory spans for the benchmark's traced runs.

A span is one timed call into a layer of the ``repro`` package: name,
start, end, parent span and the op it belongs to.  :class:`Tracer` keeps
them in a list; nothing is written until the run ends.  The wrappers are
installed from the benchmark's own code (:func:`install`), so the package
itself is unchanged.  Parents come from a per-thread stack, so the
serve executor thread and the event-loop thread nest independently.

Times are ``time.perf_counter()`` readings, which on Linux is the
system-wide monotonic clock: spans recorded in the ``repro serve``
process line up with the client's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    """Records spans; ``op`` stamps every span begun while it is set."""

    def __init__(self, id_offset: int = 0) -> None:
        self.spans: List[Dict] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(id_offset + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "op": self.op,
            "name": name,
            "start": clock(),
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: Dict) -> None:
        span["end"] = clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """``with tracer.span(name):`` times the block as one span."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def record(
        self, name: str, start: float, end: float,
        parent: Optional[Dict] = None,
    ) -> Dict:
        """Add a finished span measured outside a call (a wait, say).
        Its parent is ``parent``, else the innermost open span of this
        thread; it belongs to its parent's op."""
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "op": parent["op"] if parent is not None else self.op,
            "name": name,
            "start": start,
            "end": end,
        }
        with self._lock:
            self.spans.append(span)
        return span


def _wrap(tracer: Tracer, layer: str, fn: Callable, probe=None) -> Callable:
    """``fn`` inside a span named ``layer``.  ``probe(args, kwargs)``,
    when given, runs before the call and returns a function mapping
    the call's result to extra span attributes."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        finish = probe(args, kwargs) if probe is not None else None
        span = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if finish is not None:
            span["attrs"] = finish(result)
        return result

    return traced


def _events_probe(args, kwargs):
    engine = args[0]
    before = engine.events
    return lambda result: {"events": engine.events - before}


def _commit_probe(args, kwargs):
    def finish(result):
        from repro.ensemble.manifest import shard_path

        return {"bytes": os.path.getsize(shard_path(args[0], args[1]))}

    return finish


# (module, attribute, layer, probe).  Functions are replaced wherever a
# loaded ``repro`` module holds them; methods are replaced on the class.
TARGETS = [
    ("repro.jobspec", "JobSpec.from_legacy_kwargs", "jobspec.parse", None),
    ("repro.jobspec", "JobSpec.from_dict", "jobspec.parse", None),
    ("repro.jobspec", "JobSpec.from_campaign", "jobspec.parse", None),
    ("repro.jobspec", "JobSpec.digest", "jobspec.parse", None),
    ("repro.scenarios.spec", "ProtocolSpec.build", "protocols.build", None),
    ("repro.jobspec", "JobSpec.start_configuration",
     "configurations.start", None),
    ("repro.configurations.generators", "random_configuration",
     "configurations.start", None),
    ("repro.configurations.generators", "k_distant_configuration",
     "configurations.start", None),
    ("repro.configurations.generators", "solved_configuration",
     "configurations.start", None),
    ("repro.configurations.generators", "all_in_state_configuration",
     "configurations.start", None),
    ("repro.configurations.generators", "all_in_extras_configuration",
     "configurations.start", None),
    ("repro.core.engine", "build_engine", "core.build", None),
    ("repro.core.jump", "JumpEngine.__init__", "core.build", None),
    ("repro.core.sequential", "SequentialEngine.__init__", "core.build", None),
    ("repro.core.batch", "BatchEngine.__init__", "core.build", None),
    ("repro.core.scheduler", "ScheduledEngine.__init__", "core.build", None),
    ("repro.core.scheduler", "AgentScheduledEngine.__init__",
     "core.build", None),
    ("repro.core.scheduler", "try_weighted_engine",
     "core.weighted_build", None),
    ("repro.core.jump", "JumpEngine.run", "core.run", _events_probe),
    ("repro.core.sequential", "SequentialEngine.run", "core.run",
     _events_probe),
    ("repro.core.batch", "BatchEngine.run", "core.run", _events_probe),
    ("repro.core.scheduler", "WeightedScheduledEngine.run", "core.run",
     _events_probe),
    ("repro.core.scheduler", "ScheduledEngine.run", "core.run",
     _events_probe),
    ("repro.core.scheduler", "AgentScheduledEngine.run", "core.run",
     _events_probe),
    ("repro.core.fused", "FusedIndex.resync", "core.resync", None),
    ("repro.core.jump", "JumpEngine.reset_configuration", "core.resync", None),
    ("repro.core.sequential", "SequentialEngine.reset_configuration",
     "core.resync", None),
    ("repro.core.batch", "BatchEngine.reset_configuration",
     "core.resync", None),
    ("repro.core.scheduler", "WeightedScheduledEngine.reset_configuration",
     "core.resync", None),
    ("repro.core.fused", "WeightedFusedIndex.resync",
     "core.weighted_resync", None),
    ("repro.core.faults", "corrupt_agents", "core.faults", None),
    ("repro.core.faults", "crash_and_replace", "core.faults", None),
    ("repro.core.faults", "adversarial_swap", "core.faults", None),
    ("repro.core.faults", "depart_agents", "core.faults", None),
    ("repro.core.faults", "arrive_agents", "core.faults", None),
    ("repro.scenarios.engine", "run_scenario", "scenarios.run", None),
    ("repro.analysis.supervision", "supervised_map", "supervision", None),
    ("repro.ensemble.manifest", "commit_shard", "ensemble.commit",
     _commit_probe),
    ("repro.ensemble.manifest", "save_manifest", "ensemble.manifest", None),
    ("repro.serve.runner", "execute_jobspec", "serve.execute", None),
]

#: Modules whose ``from x import f`` bindings must exist before the
#: wrappers go in, so that every holder of a target is rebound.
_PRELOAD = [
    "repro.cli",
    "repro.serve.server",
    "repro.ensemble.runner",
    "repro.scenarios.campaign",
    "repro.core.batch",
]


def install(tracer: Tracer) -> None:
    """Wrap every target in a span recorded by ``tracer``."""
    for name in _PRELOAD:
        importlib.import_module(name)
    for module_name, attr, layer, probe in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, layer, raw.__func__, probe))
            else:
                new = _wrap(tracer, layer, raw, probe)
            setattr(cls, method, new)
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, layer, original, probe)
        for holder_name, holder in list(sys.modules.items()):
            if holder is None or not (
                holder_name == "repro" or holder_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Dict]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = _covered(
            (max(lo, c["start"]), min(hi, c["end"]))
            for c in children[span["id"]]
            if c["end"] > lo and c["start"] < hi
        )
        out[span["id"]] = (hi - lo) - covered
    return out


def layer_summary(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self time, outermost-call count, and summed
    attributes.  A call nested in a call of the same layer (a
    constructor inside ``build_engine``) adds self time, not a call."""
    by_id = {span["id"]: span for span in spans}
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0}
    )
    for span in spans:
        row = out[span["name"]]
        row["self_s"] += selfs[span["id"]]
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != span["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            row["calls"] += 1
            for key, value in span.get("attrs", {}).items():
                row[key] = row.get(key, 0) + value
    return dict(out)


def check_nesting(spans: List[Dict]) -> List[str]:
    """Problems found: a child outside its parent, a negative self time,
    a dangling parent, or spans of one op under another op's span."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    slack = 1e-6
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ends before it starts")
        parent_id = span["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {span['id']} has unknown parent {parent_id}")
            continue
        if (
            span["start"] < parent["start"] - slack
            or span["end"] > parent["end"] + slack
        ):
            problems.append(
                f"span {span['id']} ({span['name']}) leaves its parent "
                f"{parent_id} ({parent['name']})"
            )
        if span["op"] != parent["op"]:
            problems.append(f"span {span['id']} and its parent differ in op")
    for span_id, value in self_times(spans).items():
        if value < -slack:
            problems.append(f"span {span_id} has self time {value:.3g}")
    return problems

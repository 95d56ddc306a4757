"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures the per-layer ones from spans recorded
around calls into the ``repro`` modules.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and bounds are declared in
``BENCHMARK.json``; ``perfbench/NOTES.md`` explains them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _percentile(values, p):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values):
    """The highest of p50/p75/p90/p95/p99/p99.9 with at least ten
    samples beyond it, as ``(label, value)``; ``None`` when there are
    too few samples for any."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(values) * (1 - p / 100.0) >= 10:
            best = (f"p{p:g}", _percentile(values, p))
    return best


def src_digest() -> str:
    """sha256 over the package sources: identifies the code measured."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def descriptor(workload: str, seed: int, tiny: bool, code: str) -> dict:
    """Machine and input stamp printed with every result."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": code,
        "workload": workload,
        "seed": seed,
        "size": "tiny" if tiny else "full",
    }


class RefStore:
    """Result fingerprints per op index, kept across runs of one code
    version at one seed: a later run must reproduce every op an earlier
    one ran."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.refs = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.refs = json.load(handle)

    def check(self, outcome) -> None:
        if outcome.fingerprint is None:
            return
        key = str(outcome.index)
        known = self.refs.setdefault(key, outcome.fingerprint)
        if known != outcome.fingerprint and outcome.error is None:
            outcome.error = (
                f"op {outcome.index} result {outcome.fingerprint[:40]} "
                f"differs from an earlier run's {known[:40]}"
            )

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.refs, handle, sort_keys=True)
        os.replace(tmp, self.path)


def run_ops(workload, tracer, seconds=None, count=None, inject=False):
    """The closed loop: ops back to back until ``seconds`` have passed
    (at least one op) or ``count`` ops are done.  The first op warms the
    process up and is left out of the metrics; its checks still count."""
    from spans import clock
    from workloads import Outcome

    outcomes = []
    begin = None
    index = 0
    while True:
        if count is not None:
            if index >= count:
                break
        elif index > 1 and clock() - begin >= seconds:
            break
        if index == 1:
            begin = clock()
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = index
            span = tracer.span("op")
        started = clock()
        try:
            with span:
                if inject and index == 1:
                    raise RuntimeError("injected failure")
                outcome = workload.op(index, tracer)
        except Exception as exc:
            outcome = Outcome(
                index=index, started=started, wall=clock() - started,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            if tracer is not None:
                tracer.op = None
        outcome.warmup = index == 0
        outcomes.append(outcome)
        index += 1
    return outcomes


def end_to_end(outcomes, setup, peak_rss_mb, sampler):
    """Every timing is the run's median, at the reference machine speed
    (``calibrate.py``): each op, unit or setup interval is scaled by the
    kernel passes taken inside it.  Returns these metrics and the same
    medians as measured."""
    measured = [o for o in outcomes if not o.warmup] or outcomes
    good = [o for o in measured if o.error is None] or measured
    units = [u for o in good for u in o.samples] or [
        (o.started, o.started + o.wall) for o in good
    ]

    def first(o):
        span = o.wall if o.first_progress is None else o.first_progress
        return o.started, o.started + span

    def whole(o):
        return o.started, o.started + o.wall

    median = statistics.median

    def timings(duration):
        return {
            "events_per_s": median(
                o.events / duration(*whole(o)) for o in good
            ),
            "ops_per_s": median(o.units / duration(*whole(o)) for o in good),
            "job_s": median(duration(*u) for u in units),
            "first_progress_s": median(duration(*first(o)) for o in good),
        }

    metrics = timings(sampler.at_reference)
    raw = timings(lambda begin, end: end - begin)
    metrics["setup_s"] = median(at_reference for _, at_reference in setup)
    raw["setup_s"] = median(seconds for seconds, _ in setup)
    metrics["peak_rss_mb"] = peak_rss_mb
    units_of = {"events_per_s": "1/s", "ops_per_s": "1/s",
                "peak_rss_mb": "MB"}
    return (
        {name: (value, units_of.get(name, "s"))
         for name, value in metrics.items()},
        raw,
        [end - begin for begin, end in units],
    )


def per_layer(untraced, traced, spans_list, divergence):
    import spans as spanlib

    traced = [o for o in traced if not o.warmup]
    untraced = [o for o in untraced if not o.warmup]
    measured = {o.index for o in traced}
    ops = max(1, len(traced))
    layers = spanlib.layer_summary(
        [s for s in spans_list if s["op"] in measured]
    )

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) / ops

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / ops

    run = layers.get("core.run", {})
    counters = {}
    for outcome in traced:
        for key, value in outcome.extra.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    attempts = sum(
        counters.get(key, 0)
        for key in ("proposal_draws", "fenwick_finds", "composite_finds")
    )
    served = [o for o in traced if "frames" in o.extra]
    untraced_wall = sum(o.wall for o in untraced)
    return {
        "jobspec.parse_s": (self_s("jobspec.parse"), "s"),
        "protocols.build_s": (self_s("protocols.build"), "s"),
        "configurations.start_s": (self_s("configurations.start"), "s"),
        "core.build_s": (self_s("core.build"), "s"),
        "core.build_calls": (calls("core.build"), "count"),
        "core.run_s": (self_s("core.run"), "s"),
        "core.run_calls": (calls("core.run"), "count"),
        "core.run_events_per_s": (
            run.get("events", 0) / run["self_s"]
            if run.get("self_s") else 0.0,
            "1/s",
        ),
        "core.resync_s": (self_s("core.resync"), "s"),
        "core.resync_calls": (calls("core.resync"), "count"),
        "core.weighted_build_s": (self_s("core.weighted_build"), "s"),
        "core.weighted_resync_calls": (
            calls("core.weighted_resync"), "count"
        ),
        "core.faults_s": (self_s("core.faults"), "s"),
        "core.proposal_accept": (
            counters.get("events", 0) / attempts if attempts else 0.0,
            "ratio",
        ),
        "scenarios.run_s": (self_s("scenarios.run"), "s"),
        "scenarios.runs": (calls("scenarios.run"), "count"),
        "supervision.overhead_s": (self_s("supervision"), "s"),
        "ensemble.commit_s": (self_s("ensemble.commit"), "s"),
        "ensemble.commit_bytes": (
            layers.get("ensemble.commit", {}).get("bytes", 0) / ops, "bytes"
        ),
        "ensemble.manifest_s": (self_s("ensemble.manifest"), "s"),
        "ensemble.aggregate_s": (self_s("ensemble.aggregate"), "s"),
        "serve.submit_s": (self_s("serve.submit"), "s"),
        "serve.queue_wait_s": (self_s("serve.queue_wait"), "s"),
        "serve.execute_s": (self_s("serve.execute"), "s"),
        "serve.stream_tail_s": (self_s("serve.stream_tail"), "s"),
        "serve.frames": (
            sum(o.extra["frames"] for o in served) / ops, "count"
        ),
        "serve.bytes": (sum(o.extra["bytes"] for o in served) / ops, "bytes"),
        "serve.replay_s": (
            sum(o.extra["replay_s"] for o in served) / ops, "s"
        ),
        "serve.cache_hit_ratio": (
            sum(o.extra["replay_cached"] for o in served) / len(served)
            if served else 0.0,
            "ratio",
        ),
        "serve.surface_divergence": (divergence, "count"),
        "trace.overhead": (
            sum(o.wall for o in traced) / untraced_wall
            if untraced_wall else 0.0,
            "ratio",
        ),
    }


def merge_server_spans(tracer, server_spans, outcomes):
    """Attach the server's spans to the client's op spans (by time, one
    op at a time) and add each op's stream tail: from the end of
    ``execute_jobspec`` in the server to the client closing the stream."""
    ops = [s for s in tracer.spans if s["name"] == "op"]
    for span in server_spans:
        owner = next(
            (
                op for op in ops
                if op["start"] <= span["start"] and span["end"] <= op["end"]
            ),
            None,
        )
        span["op"] = owner["op"] if owner is not None else None
        if span["parent"] is None and owner is not None:
            span["parent"] = owner["id"]
    tracer.spans.extend(server_spans)
    closed = {o.index: o.extra.get("closed") for o in outcomes}
    for span in server_spans:
        if span["name"] != "serve.execute" or span["op"] is None:
            continue
        end = closed.get(span["op"])
        if end is not None and end >= span["end"]:
            owner = next(op for op in ops if op["op"] == span["op"])
            tracer.record("serve.stream_tail", span["end"], end, parent=owner)


def write_trace(path, stamp, outcomes, all_spans, passes) -> None:
    """The run's record: descriptor, ops, kernel passes, spans and
    per-layer summary."""
    import spans as spanlib

    timed = [s for s in all_spans if s["op"] is not None]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "descriptor": stamp,
                "ops": [
                    {"index": o.index, "warmup": o.warmup,
                     "started": o.started, "wall": o.wall,
                     "events": o.events, "samples": o.samples,
                     "first_progress": o.first_progress,
                     "error": o.error, "digest": o.digest}
                    for o in outcomes
                ],
                "kernel_passes": passes,
                "spans": all_spans,
                "layers": spanlib.layer_summary(timed),
            },
            handle,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs, for the self-test",
    )
    parser.add_argument(
        "--inject-failure", action="store_true",
        help="make the first measured op fail, for the self-test",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no package sources at {SRC}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORK, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    code = src_digest()
    stamp = descriptor(args.workload, args.seed, args.tiny, code)
    size = "tiny" if args.tiny else "full"
    refs = RefStore(os.path.join(
        WORK, "refs", code[:16], f"{args.workload}-{size}-{args.seed}.json"
    ))
    os.makedirs(WORK, exist_ok=True)

    try:
        return measure(args, workload, refs, stamp, size)
    finally:
        workload.close()


def measure(args, workload, refs, stamp, size) -> int:
    import spans as spanlib
    from calibrate import REFERENCE_S
    from workloads import WORK

    untraced = []
    raw = {}
    if args.trace == 0:
        setup = workload.measure_setup()
        workload.start(traced=False, sample=True)
        outcomes = run_ops(
            workload, None, seconds=args.seconds, inject=args.inject_failure
        )
        finished = workload.stop()
        sampler = finished["sampler"]
        workload.verify(outcomes)
        metrics, raw, samples = end_to_end(
            outcomes, setup, finished["peak_rss_mb"], sampler
        )
        stamp["kernel_median_s"] = sampler.median_s()
        stamp["kernel_passes"] = len(sampler.samples)
        passes = sampler.samples
        all_spans = []
    else:
        # Untraced for half the time, then the same ops traced: the
        # ratio of the two is the tracing overhead.
        workload.start(traced=False)
        untraced = run_ops(
            workload, None, seconds=args.seconds / 2,
            inject=args.inject_failure,
        )
        workload.stop()
        tracer = spanlib.Tracer()
        spanlib.install(tracer)
        span_path = os.path.join(WORK, f"server-spans-{os.getpid()}.json")
        workload.start(traced=True, span_path=span_path)
        outcomes = run_ops(
            workload, tracer, count=len(untraced),
            inject=args.inject_failure,
        )
        finished = workload.stop()
        merge_server_spans(tracer, finished["spans"], outcomes)
        divergence = 0
        if hasattr(workload, "surface_divergence"):
            divergence = workload.surface_divergence(outcomes)
        workload.verify(untraced)
        workload.verify(outcomes)
        all_spans = tracer.spans
        problems = spanlib.check_nesting(
            [s for s in all_spans if s["op"] is not None]
        )
        if problems:
            print("span problems: " + "; ".join(problems[:5]),
                  file=sys.stderr)
        metrics = per_layer(untraced, outcomes, all_spans, divergence)
        samples = []
        passes = []
    checked = outcomes if args.trace == 0 else untraced + outcomes
    for outcome in checked:
        refs.check(outcome)
    refs.save()
    failed = [o for o in checked if o.error is not None]
    attempted = len(checked)
    digests = [o.digest for o in outcomes]
    stamp["jobspec_digests_sha256"] = hashlib.sha256(
        "\n".join(map(str, digests)).encode("ascii")
    ).hexdigest()
    trace_path = os.path.join(
        WORK, f"trace-{args.workload}-{size}-s{args.seed}-t{args.trace}.json"
    )
    write_trace(
        trace_path, dict(stamp, jobspec_digests=digests), outcomes,
        all_spans, passes,
    )
    print("descriptor " + json.dumps(stamp, sort_keys=True))
    for outcome in failed:
        print(f"failed op {outcome.index}: {outcome.error}")
    for name, (value, unit) in metrics.items():
        measured = f"  (as measured {raw[name]:.6g})" if name in raw else ""
        print(f"{name:28s} {value:14.6g} {unit}{measured}")
    if raw:
        print(f"kernel pass: median {stamp['kernel_median_s']} s over "
              f"{stamp['kernel_passes']} passes, reference {REFERENCE_S} s")
    if samples:
        extreme = tail(samples)
        note = f", {extreme[0]} {extreme[1]:.6g} s" if extreme else ""
        print(f"job_s samples {len(samples)}: best {min(samples):.6g} s, "
              f"median {statistics.median(samples):.6g} s{note}")
    print(f"error_rate {len(failed)}/{attempted}")
    print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks, for each workload, that the untraced run emits every end-to-end
metric of ``BENCHMARK.json`` with its unit and the traced run every
per-layer metric; that the traced run's spans nest, with no negative
self time, and cover the layers the workload is meant to exercise; that
an injected failing op is counted; and that the benchmark refuses to run
in a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

#: Layers each workload must reach (at least one call per traced run).
EXPECTED_LAYERS = {
    "simulate-ring-large": [
        "jobspec.parse", "protocols.build", "configurations.start",
        "core.build", "core.run", "core.resync",
    ],
    "serve-tree-large": [
        "jobspec.parse", "protocols.build", "core.build", "core.run",
        "core.resync", "serve.submit", "serve.queue_wait", "serve.execute",
        "serve.stream_tail", "serve.replay",
    ],
    "ensemble-tree-small": [
        "jobspec.parse", "protocols.build", "core.build", "core.run",
        "core.resync", "core.faults", "scenarios.run", "supervision",
        "ensemble.commit", "ensemble.manifest", "ensemble.aggregate",
    ],
    "scenario-epoch-tree": [
        "jobspec.parse", "core.weighted_build", "core.weighted_resync",
        "core.run", "core.faults", "scenarios.run", "supervision",
    ],
}


def run_bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse_result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    trace_path = next(
        line.split("trace written to ", 1)[1]
        for line in lines if line.startswith("trace written to ")
    )
    return result, os.path.join(ROOT, trace_path)


def check_metrics(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    for entry in declared:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            problems.append(f"{entry['name']} missing")
        elif metric.get("unit") != entry["unit"]:
            problems.append(f"{entry['name']} unit {metric.get('unit')!r}")
        elif not math.isfinite(metric.get("value", float("nan"))):
            problems.append(f"{entry['name']} value {metric.get('value')!r}")
    extra = set(result["metrics"]) - {entry["name"] for entry in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def check_workload(name, config):
    problems = []
    result, _ = parse_result(run_bench(name, 0, "--tiny"))
    problems += check_metrics(result, config["end_to_end"])
    if not result["correct"] or result["failed"]:
        problems.append(f"untraced run not correct: {result}")

    result, trace_path = parse_result(run_bench(name, 1, "--tiny"))
    problems += check_metrics(result, config["per_layer"])
    if not result["correct"] or result["failed"]:
        problems.append(f"traced run not correct: {result}")
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    timed = [s for s in trace["spans"] if s["op"] is not None]
    problems += spans.check_nesting(timed)[:5]
    layers = spans.layer_summary(timed)
    for layer in EXPECTED_LAYERS[name]:
        if layers.get(layer, {}).get("calls", 0) == 0:
            problems.append(f"layer {layer} never entered")

    result, _ = parse_result(run_bench(name, 0, "--tiny", "--inject-failure"))
    if result["correct"] or result["failed"] < 1:
        problems.append(f"injected failure not counted: {result}")
    return problems


def check_bare_directory():
    """Without the package sources the benchmark must fail, silently."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
        proc = run_bench("simulate-ring-large", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory run exited 0")
    if '"metrics"' in proc.stdout:
        problems.append("bare directory run printed a result")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    failures = 0
    for workload in config["workloads"]:
        problems = check_workload(workload["name"], config)
        failures += bool(problems)
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{workload['name']:24s} {status}", flush=True)
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"{'bare directory':24s} "
          f"{'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

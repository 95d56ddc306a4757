"""Benchmarks: hot-path events/sec of the jump engine vs the seed engine.

Runs the fixed ``repro bench`` suite (see :mod:`repro.analysis.bench`)
under pytest-benchmark and asserts the headline acceptance bar of the
fast-path overhaul: the current engine must beat the seed engine by
>= 5x events/sec on the AG protocol at n = 10^4, both at the reference
speed (the seed engine's number is recorded in the bench module).

Direct invocation (``python benchmarks/bench_hotpath.py [--quick]``)
runs the full comparison and writes ``BENCH_<timestamp>.json``, exactly
like the ``repro bench`` CLI subcommand.
"""

import sys

import numpy as np
import pytest

from repro import AGProtocol, Configuration, JumpEngine
from repro.analysis.bench import run_bench

# Trimmed sizes keep the pytest-benchmark pass at seconds; the CLI
# (`repro bench`) measures the full acceptance suite including n=10^4.
_BENCH_N = 2_000
_BENCH_EVENTS = 40_000


def _throughput(engine_cls, n, max_events, seed=7):
    protocol = AGProtocol(n)
    start = Configuration.all_in_state(0, n, n)
    engine = engine_cls(protocol, start, np.random.default_rng(seed))
    engine.run(max_events=max_events)
    return engine


@pytest.mark.benchmark(group="hotpath")
def test_current_engine_ag_throughput(benchmark):
    """Events/sec of the overhauled engine on AG (fixed event budget)."""
    engine = benchmark(_throughput, JumpEngine, _BENCH_N, _BENCH_EVENTS)
    assert engine.events == _BENCH_EVENTS


@pytest.mark.benchmark(group="hotpath")
def test_headline_speedup_at_least_5x():
    """Acceptance bar: >= 5x events/sec on AG at n=10^4 vs the seed
    engine's recorded reference-speed number."""
    record = run_bench(quick=False)
    head = record["headline"]
    assert head["case"] == "ag-n10000"
    assert head["speedup"] >= 5.0, (
        f"hot-path speedup regressed: {head['speedup']:.2f}x "
        f"({head['legacy_events_per_sec']:,.0f} -> "
        f"{head['current_events_per_sec']:,.0f} events/s)"
    )


if __name__ == "__main__":
    from repro.cli import main

    argv = ["bench"] + sys.argv[1:]
    sys.exit(main(argv))

"""Shared benchmark plumbing.

Every benchmark runs one registered experiment (the same code the CLI
runs), prints the regenerated table, and asserts the paper's *shape*
claims — who wins, how growth scales, where crossovers fall.  Absolute
numbers are not asserted (our substrate is a simulator, not the
authors' testbed), and nothing here is timed: `repro bench` gates
engine throughput.

Scale selection: benchmarks default to the ``small`` scale; export
``REPRO_BENCH_SCALE=paper`` for the EXPERIMENTS.md sweeps or
``REPRO_BENCH_SCALE=smoke`` for a quick pass.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.experiments.base import bench_scale_from_env


@pytest.fixture(scope="session")
def scale() -> str:
    """The benchmark scale, from REPRO_BENCH_SCALE (default: small)."""
    return bench_scale_from_env()


@pytest.fixture
def run_and_show(scale, capsys):
    """Run an experiment and print its tables."""

    def runner(experiment_id: str):
        result = run_experiment(experiment_id, scale=scale)
        with capsys.disabled():
            print(f"\n[{experiment_id} @ scale={scale}]")
            print(result.render())
        return result

    return runner

"""Tests for the paper-claim suite in ``benchmarks/``: its scale
selection via the environment, and its collection as plain pytest."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exceptions import ExperimentError
from repro.experiments.base import bench_scale_from_env


class TestBenchScaleFromEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale_from_env() == "small"

    def test_explicit_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale_from_env(default="smoke") == "smoke"

    @pytest.mark.parametrize("scale", ["smoke", "small", "paper"])
    def test_env_override(self, monkeypatch, scale):
        monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
        assert bench_scale_from_env() == scale

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "enormous")
        with pytest.raises(ExperimentError):
            bench_scale_from_env()


class TestPaperClaimSuite:
    def test_collects_as_plain_pytest(self):
        """Every claim resolves its fixtures without pytest-benchmark,
        and no test carries a mark that only that plugin registers."""
        src = Path(repro.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks", "--setup-plan",
             "-q", "-p", "no:benchmark", "-p", "no:cacheprovider",
             "-W", "error::pytest.PytestUnknownMarkWarning"],
            cwd=src.parent, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)), check=False,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        claims = set(re.findall(r"bench_\w+\.py::test_\w+", result.stdout))
        assert len(claims) == 17, result.stdout

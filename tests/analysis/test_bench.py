"""Unit tests for the hot-path benchmark harness (``repro bench``)."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.analysis import bench
from repro.analysis.bench import (
    _RECORDING_SEED,
    _REFERENCE_S,
    _SEED_EVENTS_PER_SEC,
    _measure,
    _reference_kernel,
    _timed_run,
    append_bench_history,
    bench_ratios,
    bench_suite,
    check_speedup_floors,
    compare_bench,
    load_bench,
    read_bench_history,
    render_bench,
    run_bench,
    write_bench_json,
)
from repro.exceptions import SimulationError
from repro.viz.ascii import render_trend_table

ROOT = Path(__file__).resolve().parents[2]


def _fake_record(timestamp="20260101T000000", speedup=3.0, wvr=2.0):
    """A minimal synthetic bench record for trend-machinery tests."""
    def engine_case(case_id, ratio):
        return {
            "case": case_id,
            "legacy": {"events_per_sec": 100_000.0, "events": 1000},
            "current": {
                "events_per_sec": 100_000.0 * ratio, "events": 1000
            },
            "speedup": ratio,
        }

    return {
        "timestamp": timestamp,
        "cases": [
            engine_case("tree-n256", speedup),
            engine_case("line-m4", speedup * 0.7),
        ],
        "scheduler_cases": [
            {
                "case": "tree-epoch-n128",
                "rejection": {"events_per_sec": 50_000.0},
                "weighted": {"events_per_sec": 50_000.0 * wvr},
                "weighted_vs_rejection": wvr,
            }
        ],
    }


class TestBenchSuite:
    def test_quick_suite_cases(self):
        cases = bench_suite(quick=True)
        assert len(cases) >= 3
        assert all(case.max_events <= 20_000 for case in cases)
        # The hybrid sampler's headline workload gates every PR.
        assert "line-m4" in {case.case_id for case in cases}

    def test_full_suite_includes_acceptance_case(self):
        cases = bench_suite(quick=False)
        by_id = {case.case_id: case for case in cases}
        assert "ag-n10000" in by_id
        assert by_id["ag-n10000"].num_agents == 10_000
        protocols = {case.protocol_name.split("(")[0] for case in cases}
        assert {"AG", "SingleTrap", "RingOfTraps", "TreeRanking"} <= protocols

    def test_every_engine_case_has_a_recorded_seed_number(self):
        cases = bench_suite(quick=True) + bench_suite(quick=False)
        assert {
            (case.case_id, case.max_events) for case in cases
        } == set(_SEED_EVENTS_PER_SEC)


class _CountingEngine:
    """A stand-in engine: ``run`` takes ``max_events`` events."""

    def __init__(self, label, order):
        order.append(label)
        self.events = self.interactions = 0

    def run(self, max_events):
        self.events = max_events
        self.interactions = 3 * max_events
        return False


class TestMeasure:
    def test_round_robin_medians(self):
        order = []
        jobs = {
            label: (lambda label=label: _CountingEngine(label, order), events)
            for label, events in (("a", 10), ("b", 20))
        }
        measured = _measure(jobs, repeats=3)
        # One run of every job per round, so both sides of a ratio
        # spread over the same stretch of the host's speed changes.
        assert order == ["a", "b"] * 3
        assert measured["b"]["events"] == 20
        assert measured["b"]["interactions"] == 60
        assert measured["b"]["silent"] is False
        assert measured["a"]["events_per_sec"] > 0
        assert measured["a"]["wall_time_s"] > 0

    def test_keeps_the_median_run(self, monkeypatch):
        speeds = iter([5.0, 1.0, 4.0, 2.0, 3.0])
        monkeypatch.setattr(
            bench, "_timed_run",
            lambda engine, max_events: {"events_per_sec": next(speeds)},
        )
        measured = _measure({"a": (object, 10)}, repeats=5)
        assert measured["a"]["events_per_sec"] == 3.0

    def test_runs_every_job_once_at_least(self):
        order = []
        jobs = {"a": (lambda: _CountingEngine("a", order), 10)}
        assert _measure(jobs, repeats=0)["a"]["events"] == 10
        assert order == ["a"]


class TestReferenceTiming:
    def test_kernel_result_is_pinned(self):
        """``_REFERENCE_S`` and the recorded seed numbers hold for this
        kernel only; an edit to what it computes shows here."""
        bench._kernel_pass()  # fills the kernel's table
        assert _reference_kernel() == 15271

    def test_import_leaves_the_kernel_table_empty(self):
        # Importing the bench module leaves it empty; only a bench run
        # pays for the kernel's 2 MB table.
        code = (
            "import repro\n"
            "from repro.analysis import bench\n"
            "assert not bench._KERNEL_TABLE\n"
        )
        env = dict(
            os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1])
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120, check=False,
        )
        assert result.returncode == 0, result.stderr

    def test_run_sits_between_two_kernel_passes(self, monkeypatch):
        order = []

        def kernel_pass():
            order.append("pass")
            return _REFERENCE_S

        class Engine:
            events = interactions = 0

            def run(self, max_events):
                order.append("run")
                self.events = max_events
                return True

        monkeypatch.setattr(bench, "_kernel_pass", kernel_pass)
        monkeypatch.setattr(
            bench, "gc", SimpleNamespace(collect=lambda: order.append("gc"))
        )
        timed = _timed_run(Engine(), 50)
        assert order == ["gc", "pass", "run", "pass"]
        assert timed["events"] == 50
        assert timed["silent"] is True

    def test_wall_time_is_scaled_by_the_mean_pass_speed(self, monkeypatch):
        # The core ran at the reference speed before the run and twice
        # as fast after it: the mean speed factor is (1 + 2) / 2.
        passes = iter([_REFERENCE_S, _REFERENCE_S / 2])
        monkeypatch.setattr(bench, "_kernel_pass", lambda: next(passes))
        timed = _timed_run(_CountingEngine("a", []), 1000)
        assert timed["events_per_sec"] == pytest.approx(
            1000 / (timed["wall_time_s"] * 1.5)
        )


class TestRunBench:
    def test_record_roundtrips_and_renders(self, tmp_path):
        record = run_bench(quick=True, repeats=1)
        assert record["quick"] is True
        assert len(record["cases"]) == len(bench_suite(quick=True))
        for case in record["cases"]:
            assert case["current"]["events"] > 0
            assert case["legacy"]["events_per_sec"] == _SEED_EVENTS_PER_SEC[
                (case["case"], case["max_events"])
            ]
            assert case["speedup"] == pytest.approx(
                case["current"]["events_per_sec"]
                / case["legacy"]["events_per_sec"]
            )
        text = render_bench(record)
        rows = (
            record["cases"] + record["scheduler_cases"]
            + record["backend_cases"]
        )
        for case in rows:
            # Every engine runs at seed 7, the seed-engine table's.
            assert case["seed"] == _RECORDING_SEED == 7
            assert case["case"] in text
        path = write_bench_json(record, output_dir=str(tmp_path))
        assert path.endswith(f"BENCH_{record['timestamp']}.json")
        assert load_bench(path) == record

    def test_case_without_a_seed_number_is_refused_before_measuring(
        self, monkeypatch
    ):
        unrecorded = bench._tree_case(256, 6_000)
        monkeypatch.setattr(bench, "bench_suite", lambda quick: [unrecorded])

        def no_measure(jobs, repeats):
            raise AssertionError("measured before refusing the case")

        monkeypatch.setattr(bench, "_measure", no_measure)
        with pytest.raises(SimulationError, match="'tree-n256' at 6000 events"):
            run_bench(quick=True)


def _gated_record():
    """A synthetic record with an engine, a scheduler and a backend case."""
    record = _fake_record(speedup=3.0, wvr=2.0)
    record["backend_cases"] = [{
        "case": "line-m4-np",
        "scalar": {"events_per_sec": 100_000.0},
        "batch": {"events_per_sec": 50_000.0},
        "batch_vs_scalar": 0.5,
    }]
    return record


class TestSpeedupFloors:
    def test_ratios_at_or_above_their_floors_pass(self):
        check_speedup_floors(_gated_record(), {
            "tree-n256": 3.0,
            "line-m4": 2.0,
            "tree-epoch-n128": 2.0,
            "line-m4-np": 0.5,
        })

    @pytest.mark.parametrize(
        "case_id, metric",
        [
            ("tree-n256", "speedup vs seed engine"),
            ("tree-epoch-n128", "weighted vs rejection"),
            ("line-m4-np", "batch vs scalar"),
        ],
        ids=["engine", "scheduler", "backend"],
    )
    def test_each_case_kind_gates_its_own_ratio(self, case_id, metric):
        record = _gated_record()
        ratio = bench_ratios(record)[case_id][1]
        check_speedup_floors(record, {case_id: ratio})
        with pytest.raises(SimulationError, match=f"{case_id}: {metric} "):
            check_speedup_floors(record, {case_id: ratio + 0.01})

    def test_floor_naming_an_unknown_case_is_refused(self):
        with pytest.raises(SimulationError, match="unknown case 'tree-n512'"):
            check_speedup_floors(_gated_record(), {"tree-n512": 1.0})


class TestBenchTrendGating:
    def test_ratios_cover_engine_and_scheduler_cases(self):
        ratios = bench_ratios(_fake_record())
        assert ratios["tree-n256"][0] == "speedup"
        assert ratios["tree-epoch-n128"][0] == "weighted_vs_rejection"
        assert ratios["tree-epoch-n128"][1] == 2.0

    def test_compare_passes_within_tolerance(self):
        baseline = _fake_record(speedup=3.0, wvr=2.0)
        current = _fake_record("20260102T000000", speedup=2.7, wvr=1.8)
        lines = compare_bench(current, baseline, tolerance=0.15)
        # every shared case reported, none failing
        assert len(lines) == 3
        assert all("->" in line for line in lines)

    def test_compare_fails_on_regression_beyond_tolerance(self):
        baseline = _fake_record(speedup=3.0, wvr=2.0)
        current = _fake_record("20260102T000000", speedup=2.0, wvr=2.0)
        with pytest.raises(SimulationError, match="tree-n256"):
            compare_bench(current, baseline, tolerance=0.15)

    def test_compare_fails_on_scheduler_ratio_regression(self):
        baseline = _fake_record(speedup=3.0, wvr=2.0)
        current = _fake_record("20260102T000000", speedup=3.0, wvr=1.2)
        with pytest.raises(SimulationError, match="tree-epoch-n128"):
            compare_bench(current, baseline, tolerance=0.15)

    def test_compare_tolerates_suite_growth(self):
        baseline = _fake_record()
        current = _fake_record("20260102T000000")
        current["cases"].append({
            "case": "brand-new",
            "legacy": {"events_per_sec": 1.0, "events": 1},
            "current": {"events_per_sec": 2.0, "events": 1},
            "speedup": 2.0,
        })
        lines = compare_bench(current, baseline)
        assert any("new case" in line for line in lines)
        # and removal is reported, not fatal
        del current["cases"][0]
        lines = compare_bench(current, baseline)
        assert any("baseline only" in line for line in lines)

    def test_compare_refuses_a_baseline_of_the_other_tier(self):
        # The tiers share case ids (ag-n1000, line-m4, line-m4-np) at
        # different event budgets, so their ratios do not compare.
        quick = load_bench(str(ROOT / "BENCH_BASELINE.json"))
        full = load_bench(str(ROOT / "BENCH_BASELINE_FULL.json"))
        with pytest.raises(SimulationError, match="full-suite record"):
            compare_bench(quick, full)
        with pytest.raises(SimulationError, match="quick-suite record"):
            compare_bench(full, quick)

    def test_committed_baselines_load_and_self_compare(self):
        for name in ("BENCH_BASELINE.json", "BENCH_BASELINE_FULL.json"):
            record = load_bench(str(ROOT / name))
            assert compare_bench(record, record, tolerance=0.0)

    def test_history_roundtrip_and_trend_table(self, tmp_path):
        path = str(tmp_path / "bench_history.csv")
        first = append_bench_history(_fake_record(), path)
        second = append_bench_history(
            _fake_record("20260102T000000", speedup=3.3, wvr=2.2), path
        )
        assert first == second == 3
        rows = read_bench_history(path)
        assert len(rows) == 6
        assert rows[0]["case"] == "tree-n256"
        assert float(rows[0]["ratio"]) == 3.0
        table = render_trend_table(rows)
        assert "tree-n256" in table and "tree-epoch-n128" in table
        # second run's drift against the first is rendered
        assert "+10.0%" in table

    def test_history_of_another_header_is_refused_untouched(self, tmp_path):
        path = tmp_path / "bench_history.csv"
        path.write_text("timestamp,case,ratio\n", encoding="utf-8")
        with pytest.raises(SimulationError, match="has header"):
            append_bench_history(_fake_record(), str(path))
        assert path.read_text(encoding="utf-8") == "timestamp,case,ratio\n"

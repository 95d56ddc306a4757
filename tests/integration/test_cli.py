"""Integration tests for the command-line interface."""

import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[2]
FULL = ROOT / "BENCH_BASELINE_FULL.json"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.protocol == "tree"
        assert args.n == 100
        assert args.engine == "jump"

    def test_experiment_args(self):
        args = build_parser().parse_args(
            ["experiment", "figure1", "--scale", "smoke", "--seed", "9"]
        )
        assert args.experiment_id == "figure1"
        assert args.scale == "smoke"
        assert args.seed == 9


class TestCommands:
    def test_ensemble_run_progress_rerun_and_refusal(self, tmp_path, capsys):
        out = str(tmp_path / "ens")
        argv = [
            "ensemble", "run", "--campaign", "ag_corrupt_recover",
            "--runs", "4", "--shard-size", "2", "--seed", "17", "--out", out,
        ]
        assert main(argv + ["--progress"]) == 0
        err = capsys.readouterr().err
        dashboard = [line for line in err.splitlines() if line.startswith("[")]
        assert len(dashboard) == 2  # one line per committed shard
        assert "4/4 runs | shard 2/2" in dashboard[-1]
        # `--out` alone continues the directory: here, already complete.
        assert main(["ensemble", "run", "--out", out]) == 0
        assert "(2 already done)" in capsys.readouterr().err
        # A rerun's dashboard counts the shards committed before it.
        for name in ("shard-00001.done", "shard-00001.json"):
            os.unlink(os.path.join(out, name))
        assert main(["ensemble", "run", "--out", out, "--progress"]) == 0
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if line.startswith("[")]
        assert "4/4 runs | shard 2/2" in line and "- runs/s" not in line
        assert main(["ensemble", "run", "--out", out, "--seed", "18"]) == 2
        assert "seed 17, not 18" in capsys.readouterr().err

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "tree_scaling" in out

    def test_simulate_ring(self, capsys):
        code = main([
            "simulate", "--protocol", "ring", "--n", "30",
            "--start", "k-distant", "--k", "2", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "correctly ranked    : True" in out
        assert "unique leader       : True" in out

    def test_simulate_budget_exhaustion_nonzero_exit(self, capsys):
        code = main([
            "simulate", "--protocol", "ag", "--n", "64",
            "--start", "pileup", "--max-interactions", "10",
        ])
        assert code == 1
        assert "silent              : False" in capsys.readouterr().out

    def test_simulate_solved_start(self, capsys):
        code = main([
            "simulate", "--protocol", "tree", "--n", "20",
            "--start", "solved",
        ])
        assert code == 0
        assert "interactions        : 0" in capsys.readouterr().out

    def test_experiment_markdown(self, capsys):
        code = main([
            "experiment", "figure2", "--scale", "smoke", "--markdown",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("###")

    def test_unknown_experiment_exits_2(self, capsys):
        code = main(["experiment", "bogus"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "structure", ["figure1", "figure2", "graph", "tree", "ring"]
    )
    def test_render_structures(self, structure, capsys):
        assert main(["render", structure]) == 0
        assert capsys.readouterr().out.strip()

    def test_render_with_size(self, capsys):
        assert main(["render", "tree", "--size", "17"]) == 0
        assert "n=17" in capsys.readouterr().out

    def test_bench_quick_writes_json(self, capsys, tmp_path):
        code = main(["bench", "--quick", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out and "line-m4" in out
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1

    # A full-suite record is of the other tier, and has no CSV header.
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--output-dir", "/nonexistent/dir"], "does not exist"),
            (["--compare", str(FULL)], "full-suite record"),
            (["--history", str(FULL)], "has header"),
            (["--require-speedup", "tree-n256"], "expects CASE:FLOOR"),
            (["--require-speedup", ":2.0"], "expects CASE:FLOOR"),
            (["--require-speedup", "tree-n256:fast"], "'fast' is not a number"),
        ],
        ids=[
            "no-output-dir", "other-tier", "history-header", "no-floor",
            "no-case", "not-a-number",
        ],
    )
    def test_bench_refuses_bad_input_before_measuring(
        self, capsys, monkeypatch, extra, message
    ):
        from repro.analysis import bench

        def no_run(**kwargs):
            raise AssertionError("measured before refusing the input")

        monkeypatch.setattr(bench, "run_bench", no_run)
        assert main(["bench", "--quick", "--output-dir", "-"] + extra) == 2
        assert message in capsys.readouterr().err

    def test_bench_floors_gate_the_run(self, capsys, tmp_path, monkeypatch):
        # The committed quick baseline stands in for a fresh run.
        from repro.analysis import bench

        baseline = bench.load_bench(str(ROOT / "BENCH_BASELINE.json"))
        monkeypatch.setattr(bench, "run_bench", lambda **kwargs: baseline)
        monkeypatch.chdir(tmp_path)
        ratio = bench.bench_ratios(baseline)["tree-n256"][1]
        argv = ["bench", "--quick", "--output-dir", "-", "--require-speedup"]
        assert main(argv + [f"tree-n256:{ratio * 0.99}"]) == 0
        assert "speedup floors ok" in capsys.readouterr().out
        assert main(argv + [f"tree-n256:{ratio * 1.01}"]) == 2
        assert "below the committed floor" in capsys.readouterr().err
        # --output-dir - writes no record.
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestScenarioCommand:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "ag_corrupt_recover" in out
        assert "line_churn_storm" in out

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_run_smoke(self, capsys):
        code = main([
            "scenario", "run", "ag_corrupt_recover",
            "--scale", "smoke", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered    : 100%" in out
        assert "Recovery after faults" in out
        assert "Phase timeline" in out

    def test_scenario_run_markdown_and_overrides(self, capsys):
        code = main([
            "scenario", "run", "line_churn_storm", "--scale", "smoke",
            "--repetitions", "1", "--workers", "1", "--markdown",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "### Recovery after faults" in out
        assert "repetitions  : 1" in out

    def test_scenario_run_matches_across_worker_counts(self, capsys):
        argv = ["scenario", "run", "tree_corrupt_recover",
                "--scale", "smoke", "--seed", "5"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled

    def test_scenario_unknown_campaign_exits_2(self, capsys):
        code = main(["scenario", "run", "bogus"])
        assert code == 2
        assert "unknown campaign" in capsys.readouterr().err

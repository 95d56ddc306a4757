"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
        assert "headline" in out and "speedup" in out
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1

    def test_bench_missing_output_dir_fails_fast(self, capsys):
        code = main(["bench", "--quick", "--output-dir", "/nonexistent/dir"])
        err = capsys.readouterr().err
        assert code == 2
        assert "does not exist" in err

    def test_bench_other_tier_baseline_fails_fast(self, capsys, monkeypatch):
        import pathlib

        from repro.analysis import bench

        def no_run(**kwargs):
            raise AssertionError("measured before refusing the baseline")

        monkeypatch.setattr(bench, "run_bench", no_run)
        full = pathlib.Path(__file__).resolve().parents[2] / (
            "BENCH_BASELINE_FULL.json"
        )
        code = main([
            "bench", "--quick", "--output-dir", "-", "--compare", str(full),
        ])
        assert code == 2
        assert "full-suite record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("tree-n256", "expects CASE:FLOOR"),
            (":2.0", "expects CASE:FLOOR"),
            ("tree-n256:fast", "floor 'fast' is not a number"),
        ],
        ids=["no-floor", "no-case", "not-a-number"],
    )
    def test_bench_malformed_floor_fails_fast(
        self, capsys, monkeypatch, spec, message
    ):
        from repro.analysis import bench

        def no_run(**kwargs):
            raise AssertionError("measured before refusing the floor")

        monkeypatch.setattr(bench, "run_bench", no_run)
        code = main([
            "bench", "--quick", "--output-dir", "-",
            "--require-speedup", spec,
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_bench_floors_gate_the_run(self, capsys, monkeypatch):
        # The committed quick baseline stands in for a fresh run.
        import pathlib

        from repro.analysis import bench

        baseline = bench.load_bench(str(
            pathlib.Path(__file__).resolve().parents[2]
            / "BENCH_BASELINE.json"
        ))
        monkeypatch.setattr(bench, "run_bench", lambda **kwargs: baseline)
        ratio = bench.bench_ratios(baseline)["tree-n256"][1]
        argv = ["bench", "--quick", "--output-dir", "-", "--require-speedup"]
        assert main(argv + [f"tree-n256:{ratio * 0.99}"]) == 0
        assert "speedup floors ok" in capsys.readouterr().out
        assert main(argv + [f"tree-n256:{ratio * 1.01}"]) == 2
        assert "below the committed floor" in capsys.readouterr().err

    def test_bench_quick_no_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--quick", "--output-dir", "-"])
        assert code == 0
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

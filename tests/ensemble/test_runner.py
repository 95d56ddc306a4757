"""Ensemble runner: manifests, atomic persistence, resume, bit-identity."""

import dataclasses
import json
import os

import pytest

from repro.analysis.supervision import SupervisionPolicy
from repro.ensemble import ensemble_status, run_ensemble
from repro.ensemble.manifest import (
    atomic_write_json,
    create_manifest,
    done_marker_path,
    file_sha256,
    load_manifest,
    save_manifest,
    shard_path,
)
from repro.ensemble.runner import _default_policy
from repro.exceptions import ExperimentError


class TestManifest:
    def test_shards_cover_total_exactly(self):
        manifest = create_manifest("c", "smoke", 0, 25, 10, None)
        spans = [(s["start"], s["stop"]) for s in manifest["shards"]]
        assert spans == [(0, 10), (10, 20), (20, 25)]
        assert all(s["status"] == "pending" for s in manifest["shards"])

    def test_validation(self):
        with pytest.raises(ExperimentError):
            create_manifest("c", "smoke", 0, 0, 10, None)
        with pytest.raises(ExperimentError):
            create_manifest("c", "smoke", 0, 10, 0, None)

    def test_atomic_write_is_deterministic(self, tmp_path):
        path = str(tmp_path / "x.json")
        atomic_write_json(path, {"b": 2, "a": 1})
        first = open(path, "rb").read()
        atomic_write_json(path, {"a": 1, "b": 2})
        assert open(path, "rb").read() == first
        assert not [
            name for name in os.listdir(tmp_path)
            if name.startswith(".tmp-")
        ]

    def test_load_rejects_missing_and_corrupt(self, tmp_path):
        with pytest.raises(ExperimentError, match="no ensemble manifest"):
            load_manifest(str(tmp_path))
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ExperimentError, match="corrupt"):
            load_manifest(str(tmp_path))

    def test_load_rejects_inconsistent_shards(self, tmp_path):
        manifest = create_manifest("c", "smoke", 0, 20, 10, None)
        manifest["shards"][1]["start"] = 5
        save_manifest(str(tmp_path), manifest)
        with pytest.raises(ExperimentError, match="inconsistent shard"):
            load_manifest(str(tmp_path))


class TestRunEnsemble:
    CAMPAIGN = "ag_corrupt_recover"

    def _run(self, out_dir, **overrides):
        kwargs = dict(
            campaign_id=self.CAMPAIGN,
            scale="smoke",
            total_runs=12,
            shard_size=5,
            seed=17,
            workers=None,
        )
        kwargs.update(overrides)
        return run_ensemble(str(out_dir), **kwargs)

    def test_fresh_run_produces_complete_directory(self, tmp_path):
        aggregate = self._run(tmp_path / "a")
        assert aggregate["aggregates"]["runs"] == 12
        assert aggregate["aggregates"]["failed_jobs"] == 0
        status = ensemble_status(str(tmp_path / "a"))
        assert status["complete"] and status["has_aggregates"]
        assert status["shards_done"] == 3

    def test_shard_records_carry_no_wall_clock(self, tmp_path):
        self._run(tmp_path / "a")
        payload = json.load(open(shard_path(str(tmp_path / "a"), 0)))
        for record in payload["records"]:
            assert "wall_time_s" not in record
            for phase in record["phases"]:
                assert "wall_time_s" not in phase

    def test_refuses_to_overwrite_without_resume(self, tmp_path):
        self._run(tmp_path / "a")
        with pytest.raises(ExperimentError, match="already holds"):
            self._run(tmp_path / "a")

    def test_resume_rejects_contradicting_parameters(self, tmp_path):
        self._run(tmp_path / "a")
        with pytest.raises(ExperimentError, match="campaign"):
            run_ensemble(
                str(tmp_path / "a"), campaign_id="tree_corrupt_recover",
                resume=True,
            )
        with pytest.raises(ExperimentError, match="runs"):
            run_ensemble(str(tmp_path / "a"), total_runs=99, resume=True)

    def test_fresh_run_requires_campaign(self, tmp_path):
        with pytest.raises(ExperimentError, match="campaign id"):
            run_ensemble(str(tmp_path / "a"))

    def test_resume_recomputes_only_the_gap_bit_identically(self, tmp_path):
        reference = self._run(tmp_path / "ref")
        self._run(tmp_path / "int")
        out = str(tmp_path / "int")
        # Simulate a crash: lose the aggregate, corrupt shard 1,
        # delete shard 2 — the manifest still says "done" for both.
        os.remove(os.path.join(out, "aggregates.json"))
        with open(shard_path(out, 1), "a") as handle:
            handle.write("trailing garbage")
        os.remove(shard_path(out, 2))
        untouched_sha = file_sha256(shard_path(out, 0))
        resumed = run_ensemble(out, resume=True)
        # Corrupt shard quarantined, not destroyed.
        assert os.path.exists(shard_path(out, 1) + ".corrupt")
        # Untouched shard neither recomputed nor rewritten.
        assert file_sha256(shard_path(out, 0)) == untouched_sha
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        ref_bytes = open(
            os.path.join(str(tmp_path / "ref"), "aggregates.json"), "rb"
        ).read()
        int_bytes = open(os.path.join(out, "aggregates.json"), "rb").read()
        assert ref_bytes == int_bytes

    def test_results_identical_across_worker_counts(self, tmp_path):
        serial = self._run(tmp_path / "serial", workers=None)
        pooled = self._run(tmp_path / "pooled", workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_status_on_partial_ensemble(self, tmp_path):
        out = str(tmp_path / "a")
        self._run(out)
        # Demote one shard to pending to fake an interrupted ensemble
        # (the commit marker is the authority, so it goes too).
        manifest = load_manifest(out)
        manifest["shards"][2]["status"] = "pending"
        manifest["shards"][2]["sha256"] = None
        save_manifest(out, manifest)
        os.unlink(done_marker_path(out, 2))
        status = ensemble_status(out)
        assert status["shards_done"] == 2
        assert status["runs_done"] == 10
        assert not status["complete"]


def test_default_policy_turns_off_fail_fast_only():
    # Every other field off its default, so one added later is checked.
    others = [
        f for f in dataclasses.fields(SupervisionPolicy) if f.name != "fail_fast"
    ]
    policy = SupervisionPolicy(**{
        f.name: 1.5 if f.default is None else f.default * 2 + 1 for f in others
    })
    forced = _default_policy(policy)
    assert forced.fail_fast is False
    for f in others:
        assert getattr(policy, f.name) != f.default, f.name
        assert getattr(forced, f.name) == getattr(policy, f.name), f.name


class TestStatusThroughput:
    CAMPAIGN = "ag_corrupt_recover"

    def _run(self, out_dir, **overrides):
        kwargs = dict(
            campaign_id=self.CAMPAIGN,
            scale="smoke",
            total_runs=9,
            shard_size=3,
            seed=17,
            workers=None,
        )
        kwargs.update(overrides)
        return run_ensemble(str(out_dir), **kwargs)

    def test_throughput_and_eta_from_shard_mtimes(self, tmp_path):
        out = str(tmp_path / "a")
        self._run(out)
        # Space the shard files one second apart so rates are exact.
        for index, offset in enumerate((0, 1, 2)):
            path = shard_path(out, index)
            os.utime(path, (1_000_000 + offset, 1_000_000 + offset))
        status = ensemble_status(out)
        rows = {row["index"]: row for row in status["shards"]}
        assert rows[0]["throughput_runs_per_s"] is None  # no predecessor
        assert rows[1]["throughput_runs_per_s"] == pytest.approx(3.0)
        assert rows[2]["throughput_runs_per_s"] == pytest.approx(3.0)
        # 6 runs over 2 seconds since the first completed shard.
        assert status["throughput_runs_per_s"] == pytest.approx(3.0)
        assert status["eta_s"] is None  # complete: nothing left to do

    def test_partial_ensemble_gets_an_eta(self, tmp_path):
        out = str(tmp_path / "a")
        self._run(out)
        manifest = load_manifest(out)
        manifest["shards"][2]["status"] = "pending"
        manifest["shards"][2]["sha256"] = None
        save_manifest(out, manifest)
        os.unlink(shard_path(out, 2))
        os.unlink(done_marker_path(out, 2))
        for index, offset in enumerate((0, 1)):
            path = shard_path(out, index)
            os.utime(path, (1_000_000 + offset, 1_000_000 + offset))
        status = ensemble_status(out)
        assert status["throughput_runs_per_s"] == pytest.approx(3.0)
        assert status["eta_s"] == pytest.approx(1.0)  # 3 runs at 3 runs/s

    def test_single_done_shard_has_no_rate(self, tmp_path):
        out = str(tmp_path / "a")
        self._run(out)
        manifest = load_manifest(out)
        for shard in manifest["shards"][1:]:
            shard["status"] = "pending"
            shard["sha256"] = None
            os.unlink(done_marker_path(out, shard["index"]))
        save_manifest(out, manifest)
        status = ensemble_status(out)
        assert status["throughput_runs_per_s"] is None
        assert status["eta_s"] is None


class TestObserverSeam:
    def test_shard_lifecycle_events_fire_in_order(self, tmp_path):
        events = []
        run_ensemble(
            str(tmp_path / "a"),
            campaign_id="ag_corrupt_recover",
            scale="smoke",
            total_runs=4,
            shard_size=2,
            seed=17,
            observer=lambda kind, fields: events.append((kind, fields)),
        )
        kinds = [kind for kind, _ in events]
        assert kinds == [
            "shard_start", "shard_commit", "shard_done",
            "shard_start", "shard_commit", "shard_done",
        ]
        starts = [f for k, f in events if k == "shard_start"]
        assert [(f["start"], f["stop"]) for f in starts] == [(0, 2), (2, 4)]
        commits = [f for k, f in events if k == "shard_commit"]
        assert all(len(f["sha256"]) == 64 for f in commits)
        done = [f for k, f in events if k == "shard_done"]
        assert all(f["quarantined"] == 0 for f in done)

    def test_observer_does_not_change_aggregates(self, tmp_path):
        plain = run_ensemble(
            str(tmp_path / "plain"),
            campaign_id="ag_corrupt_recover",
            scale="smoke", total_runs=4, shard_size=2, seed=17,
        )
        observed = run_ensemble(
            str(tmp_path / "observed"),
            campaign_id="ag_corrupt_recover",
            scale="smoke", total_runs=4, shard_size=2, seed=17,
            observer=lambda kind, fields: None,
        )
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            observed, sort_keys=True
        )

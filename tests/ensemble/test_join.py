"""Cooperative ensembles: interleaved workers, steals, bit-identity."""

import json
import os

import pytest

from repro.analysis.supervision import ShutdownLatch
from repro.ensemble import (
    CooperativeWorker,
    create_manifest,
    create_manifest_exclusive,
    join_ensemble,
    run_ensemble,
)
from repro.ensemble.manifest import (
    load_manifest,
    read_done_marker,
    save_manifest,
)
from repro.ensemble.runner import AGGREGATES_NAME
from repro.exceptions import ExperimentError

CAMPAIGN = "ag_corrupt_recover"
RUNS = 20
SHARD = 5
SEED = 23


def fresh_manifest(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    manifest = create_manifest(CAMPAIGN, "smoke", SEED, RUNS, SHARD, None)
    save_manifest(out_dir, manifest)
    return manifest


def serial_reference(tmp_path):
    out = str(tmp_path / "serial")
    run_ensemble(
        out, campaign_id=CAMPAIGN, scale="smoke",
        total_runs=RUNS, shard_size=SHARD, seed=SEED,
    )
    with open(os.path.join(out, AGGREGATES_NAME), "rb") as handle:
        return handle.read()


def make_worker(out_dir, name, clock, events, ttl=10.0):
    return CooperativeWorker(
        out_dir,
        worker=name,
        ttl=ttl,
        clock=clock,
        sleep=lambda seconds: None,
        heartbeat=False,
        observer=lambda kind, fields: events.append((kind, dict(fields))),
    )


class TestInterleavedWorkers:
    def test_two_workers_drain_without_double_commit(self, tmp_path):
        reference = serial_reference(tmp_path)
        out = str(tmp_path / "coop")
        fresh_manifest(out)
        now = [0.0]
        events = []
        w1 = make_worker(out, "w1", lambda: now[0], events)
        w2 = make_worker(out, "w2", lambda: now[0], events)

        outcomes = []
        workers = [w1, w2]
        turn = 0
        while not all(
            read_done_marker(out, s["index"]) for s in w1.manifest["shards"]
        ):
            outcomes.append(workers[turn % 2].step())
            turn += 1
            assert turn < 50  # each step commits or abandons — must halt
        aggregate = w1.run()  # nothing pending: verify + finalise
        assert w2.run() is not None  # idempotent for the other worker too

        committed = [f["shard"] for k, f in events if k == "shard_commit"]
        assert sorted(committed) == [0, 1, 2, 3]  # exactly once each
        owners = {f["shard"]: f["owner"] for k, f in events
                  if k == "shard_commit"}
        assert set(owners.values()) == {"w1", "w2"}  # both actually worked
        assert aggregate["total_runs"] == RUNS
        with open(os.path.join(out, AGGREGATES_NAME), "rb") as handle:
            assert handle.read() == reference

    def test_deterministic_steal_schedule(self, tmp_path):
        reference = serial_reference(tmp_path)
        out = str(tmp_path / "coop")
        fresh_manifest(out)
        now = [0.0]
        events = []
        w1 = make_worker(out, "w1", lambda: now[0], events)
        w2 = make_worker(out, "w2", lambda: now[0], events)

        # Freeze w1 mid-compute on shard 0: its lease TTL elapses and
        # w2 steals the shard before w1 reaches its commit.
        compute = w1.plan.compute_shard
        hijacked = []

        def stall_then_compute(shard, observer):
            result = compute(shard, observer)
            if shard["index"] == 0 and not hijacked:
                hijacked.append(True)
                now[0] += 11.0  # TTL is 10 — w1's lease expires
                stolen = w2.manager.claim(0)
                assert stolen is not None
                assert stolen.token == 2  # fencing token moved on
            return result

        w1.plan.compute_shard = stall_then_compute
        assert w1.step() == "abandoned"  # renew sees the foreign token
        assert read_done_marker(out, 0) is None  # no commit under a lost lease

        # w2 now drains everything (reclaiming its own stolen lease).
        while w2.step() != "complete":
            pass
        aggregate = w2.run()
        assert aggregate is not None

        steals = [f for k, f in events if k == "lease_steal"]
        assert [(s["shard"], s["owner"], s["previous_owner"])
                for s in steals] == [(0, "w2", "w1")]
        committed = {f["shard"]: f["owner"] for k, f in events
                     if k == "shard_commit"}
        assert committed == {0: "w2", 1: "w2", 2: "w2", 3: "w2"}
        with open(os.path.join(out, AGGREGATES_NAME), "rb") as handle:
            assert handle.read() == reference


class TestJoinEnsemble:
    def test_join_bootstraps_and_completes_alone(self, tmp_path):
        reference = serial_reference(tmp_path)
        out = str(tmp_path / "coop")
        aggregate = join_ensemble(
            out, campaign_id=CAMPAIGN, scale="smoke",
            total_runs=RUNS, shard_size=SHARD, seed=SEED,
        )
        assert aggregate["total_runs"] == RUNS
        with open(os.path.join(out, AGGREGATES_NAME), "rb") as handle:
            assert handle.read() == reference

    def test_join_empty_directory_needs_a_campaign(self, tmp_path):
        with pytest.raises(ExperimentError, match="campaign id"):
            join_ensemble(str(tmp_path / "empty"))

    def test_join_rejects_contradicting_parameters(self, tmp_path):
        out = str(tmp_path / "coop")
        fresh_manifest(out)
        with pytest.raises(ExperimentError, match="campaign"):
            join_ensemble(out, campaign_id="tree_adversarial_mix")
        with pytest.raises(ExperimentError, match="runs"):
            join_ensemble(out, campaign_id=CAMPAIGN, total_runs=RUNS + 1)

    def test_join_resumes_a_half_finished_run_ensemble(self, tmp_path):
        # A dir half-drained by the classic runner is joinable: markers
        # say what is done, the joiner computes exactly the gap.
        out = str(tmp_path / "mixed")
        fresh_manifest(out)
        manifest = load_manifest(out)
        now = [0.0]
        events = []
        w0 = make_worker(out, "w0", lambda: now[0], events)
        assert w0.step() == "committed"  # shard 0 done the cooperative way
        del manifest
        aggregate = join_ensemble(out, worker="w1")
        assert aggregate is not None
        reference = serial_reference(tmp_path)
        with open(os.path.join(out, AGGREGATES_NAME), "rb") as handle:
            assert handle.read() == reference

    def test_shutdown_latch_stops_before_completion(self, tmp_path):
        out = str(tmp_path / "coop")
        fresh_manifest(out)
        latch = ShutdownLatch()
        latch.trip()
        assert join_ensemble(out, shutdown=latch) is None
        # Nothing was computed, nothing committed, no leases left.
        assert not any(
            name.endswith((".done", ".lease")) for name in os.listdir(out)
        )


class TestManifestBootstrapRace:
    def test_exclusive_creation_single_winner(self, tmp_path):
        out = str(tmp_path / "race")
        os.makedirs(out)
        manifest = create_manifest(CAMPAIGN, "smoke", SEED, RUNS, SHARD, None)
        wins = [create_manifest_exclusive(out, manifest) for _ in range(3)]
        assert wins == [True, False, False]
        assert load_manifest(out)["total_runs"] == RUNS


class TestReconcileBackfill:
    def test_markers_are_the_authority_over_the_manifest(self, tmp_path):
        out = str(tmp_path / "coop")
        fresh_manifest(out)
        now = [0.0]
        w1 = make_worker(out, "w1", lambda: now[0], [])
        while w1.step() != "complete":
            pass
        assert w1.run() is not None
        # The durable manifest agrees with the markers after finalise.
        manifest = load_manifest(out)
        assert all(s["status"] == "done" for s in manifest["shards"])
        for shard in manifest["shards"]:
            marker = read_done_marker(out, shard["index"])
            assert marker["sha256"] == shard["sha256"]
            assert marker["owner"] == "w1"

    def test_corrupt_shard_is_requeued_on_join(self, tmp_path):
        out = str(tmp_path / "coop")
        fresh_manifest(out)
        now = [0.0]
        w1 = make_worker(out, "w1", lambda: now[0], [])
        while w1.step() != "complete":
            pass
        assert w1.run() is not None
        # Flip a byte in shard 2; a fresh join must detect and recompute.
        from repro.ensemble.manifest import shard_path

        path = shard_path(out, 2)
        with open(path, "r+b") as handle:
            handle.seek(10)
            byte = handle.read(1)
            handle.seek(10)
            handle.write(b"X" if byte != b"X" else b"Y")
        messages = []
        aggregate = join_ensemble(out, progress=messages.append)
        assert aggregate is not None
        assert any("corrupt" in line for line in messages)
        assert os.path.exists(path + ".corrupt")
        assert read_done_marker(out, 2)["sha256"]


class TestShutdownLatch:
    def test_trip_and_context_manager(self):
        import signal

        latch = ShutdownLatch()
        assert not latch.requested
        before = signal.getsignal(signal.SIGTERM)
        with latch:
            assert signal.getsignal(signal.SIGTERM) == latch.trip
            latch.trip()
            assert latch.requested
        assert signal.getsignal(signal.SIGTERM) == before


def test_shard_commit_records_are_trace_valid(tmp_path):
    """Acceptance: lease/commit events pass trace schema validation."""
    from repro.obs import TraceWriter, validate_trace

    out = str(tmp_path / "coop")
    fresh_manifest(out)
    writer = TraceWriter(str(tmp_path / "t.jsonl"), source="test-join")
    now = [0.0]
    w1 = CooperativeWorker(
        out, worker="w1", ttl=10.0, clock=lambda: now[0],
        sleep=lambda s: None, heartbeat=False,
        observer=lambda kind, fields: writer.emit(kind, **fields),
    )
    while w1.step() != "complete":
        pass
    assert w1.run() is not None
    validate_trace(writer.records)
    kinds = {record["kind"] for record in writer.records}
    assert {"lease_claim", "shard_commit", "shard_start",
            "shard_done"} <= kinds
    assert json.loads(json.dumps(writer.records[0]))["source"] == "test-join"

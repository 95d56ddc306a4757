"""Multi-process chaos: SIGKILL cooperative workers, converge anyway.

The cooperative contract of ``repro ensemble run``: N processes drain
one shared directory through crash-tolerant shard leases; killing any
subset of them at any instant loses nothing — committed shards carry
exclusive, checksummed ``.done`` markers, dead workers' leases are
reclaimed (at once on their own host, after the TTL from elsewhere),
and the survivors (or a late rerun) finish the ensemble with
``aggregates.json`` byte-identical to an uninterrupted single-process
run.  This drives the real CLI in subprocesses — the same recipe as the
CI ``chaos-smoke`` job's cooperative leg.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.ensemble.manifest import load_manifest

pytestmark = pytest.mark.slow

CAMPAIGN = "ag_corrupt_recover"
RUNS = "600"
SHARD_SIZE = "50"
SEED = "11"


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_cmd(out_dir, *extra):
    return [
        sys.executable, "-m", "repro", "ensemble", "run",
        "--campaign", CAMPAIGN, "--scale", "smoke",
        "--runs", RUNS, "--shard-size", SHARD_SIZE, "--seed", SEED,
        "--out", out_dir, *extra,
    ]


def _worker_cmd(out_dir, *extra):
    """One cooperating worker: the same command, with a short TTL."""
    return _run_cmd(out_dir, "--ttl", "3", *extra)


def _reference_bytes(tmp_path):
    reference = str(tmp_path / "reference")
    subprocess.run(
        _run_cmd(reference), env=_env(), check=True,
        capture_output=True, timeout=300,
    )
    with open(os.path.join(reference, "aggregates.json"), "rb") as handle:
        return handle.read()


def _shards_done(out_dir):
    try:
        manifest = load_manifest(out_dir)
    except Exception:
        return 0, 0
    done = sum(
        1
        for shard in manifest["shards"]
        if os.path.exists(
            os.path.join(out_dir, f"shard-{shard['index']:05d}.done")
        )
    )
    return done, len(manifest["shards"])


def test_sigkilled_workers_do_not_stop_the_fleet(tmp_path):
    reference = _reference_bytes(tmp_path)
    coop = str(tmp_path / "coop")
    trace = str(tmp_path / "w1.jsonl")

    survivor = subprocess.Popen(
        _worker_cmd(coop, "--trace", trace), env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    victims = [
        subprocess.Popen(
            _worker_cmd(coop), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(2)
    ]

    # SIGKILL the victims as soon as real progress exists but work
    # remains — mid-shard with probability ~1, leases still held.
    deadline = time.monotonic() + 240.0
    killed = False
    while time.monotonic() < deadline:
        done, total = _shards_done(coop)
        if total and done >= 2 and done < total:
            for victim in victims:
                victim.send_signal(signal.SIGKILL)
            for victim in victims:
                victim.wait(timeout=30)
            killed = True
            break
        if survivor.poll() is not None:
            break
        time.sleep(0.05)
    if not killed:
        for victim in victims:
            victim.kill()
            victim.wait(timeout=30)
        survivor.wait(timeout=60)
        pytest.skip("fleet finished before the kills could land")

    # The survivor alone must finish the whole ensemble: dead workers'
    # leases are reclaimed (their pids are gone from this namespace) and
    # their shards recomputed.
    assert survivor.wait(timeout=240) == 0

    with open(os.path.join(coop, "aggregates.json"), "rb") as handle:
        assert handle.read() == reference

    # The survivor's operational trace validates and shows the lease
    # protocol at work (acceptance: lease lifecycle in the run trace).
    check = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "validate", trace],
        env=_env(), capture_output=True, timeout=60,
    )
    assert check.returncode == 0, check.stderr
    kinds = set()
    with open(trace, "r", encoding="utf-8") as handle:
        for line in handle:
            kinds.add(json.loads(line).get("kind"))
    assert "lease_claim" in kinds
    assert "shard_commit" in kinds


def test_late_rerun_finishes_an_abandoned_directory(tmp_path):
    reference = _reference_bytes(tmp_path)
    coop = str(tmp_path / "coop")

    victim = subprocess.Popen(
        _worker_cmd(coop), env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 240.0
    killed = False
    while time.monotonic() < deadline:
        done, total = _shards_done(coop)
        if total and 0 < done < total:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            killed = True
            break
        if victim.poll() is not None:
            break
        time.sleep(0.05)
    if not killed:
        victim.wait(timeout=60)
        pytest.skip("worker finished before the kill could land")

    # A rerun arriving later reclaims the dead worker's lease and
    # completes the ensemble bit-identically.
    subprocess.run(
        _worker_cmd(coop), env=_env(), check=True,
        capture_output=True, timeout=300,
    )
    with open(os.path.join(coop, "aggregates.json"), "rb") as handle:
        assert handle.read() == reference


def test_sigterm_is_a_graceful_shutdown(tmp_path):
    coop = str(tmp_path / "coop")
    worker = subprocess.Popen(
        _worker_cmd(coop), env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    # Give it time to claim (and likely finish) a first shard.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        done, total = _shards_done(coop)
        if done >= 1 or worker.poll() is not None:
            break
        time.sleep(0.05)
    if worker.poll() is not None:
        pytest.skip("worker finished before SIGTERM could land")
    worker.send_signal(signal.SIGTERM)
    try:
        _, stderr = worker.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        worker.kill()
        raise
    assert worker.returncode == 143
    assert f"`repro ensemble run --out {coop}`".encode() in stderr
    # Graceful exit leaves no leases behind.
    assert not any(
        name.endswith(".lease") for name in os.listdir(coop)
    )

"""Chaos test: SIGKILL an ensemble mid-flight, rerun, compare bytes.

The durability contract of :mod:`repro.ensemble`: a hard kill at any
moment loses at most the in-flight shard.  Committed shards stay valid
(their ``.done`` markers carry checksums), rerunning the same command
recomputes only the gap — reclaiming the dead process's shard lease at
once, since its owner is gone from this pid namespace — and the final
``aggregates.json`` is byte-identical to a run that was never
interrupted.  This drives the real CLI in subprocesses — the same
recipe as the CI ``chaos-smoke`` job.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.ensemble.manifest import load_manifest, read_done_marker

pytestmark = pytest.mark.slow

CAMPAIGN = "ag_corrupt_recover"

#: Far longer than the rerun takes, so a rerun that had to wait out the
#: dead process's lease would overrun its timeout instead of passing.
TTL_S = 600


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def _ensemble_cmd(out_dir, *extra):
    return [
        sys.executable, "-m", "repro", "ensemble", "run",
        "--campaign", CAMPAIGN, "--scale", "smoke",
        "--runs", "600", "--shard-size", "50", "--seed", "11",
        "--workers", "2", "--out", out_dir, *extra,
    ]


def _shards_done(out_dir):
    try:
        shards = load_manifest(out_dir)["shards"]
    except Exception:
        return 0, 0
    done = sum(
        1 for shard in shards
        if read_done_marker(out_dir, shard["index"]) is not None
    )
    return done, len(shards)


def test_sigkill_mid_ensemble_reruns_byte_identically(tmp_path):
    reference = str(tmp_path / "reference")
    interrupted = str(tmp_path / "interrupted")

    subprocess.run(
        _ensemble_cmd(reference), env=_env(), check=True,
        capture_output=True, timeout=300,
    )

    # Kill the second, identical run mid-flight.  The reference run
    # takes a few seconds, so a kill shortly after the first shards
    # land leaves a genuinely partial directory.
    victim = subprocess.Popen(
        _ensemble_cmd(interrupted, "--ttl", str(TTL_S)), env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 240.0
    killed = False
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            break
        done, total = _shards_done(interrupted)
        if 0 < done < total:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            killed = True
            break
        time.sleep(0.05)
    if not killed:
        victim.wait(timeout=60)
        pytest.skip("ensemble finished before the kill could land")

    assert not os.path.exists(os.path.join(interrupted, "aggregates.json"))

    began = time.monotonic()
    subprocess.run(
        _ensemble_cmd(interrupted, "--ttl", str(TTL_S)), env=_env(),
        check=True, capture_output=True, timeout=300,
    )
    assert time.monotonic() - began < TTL_S / 4

    ref_bytes = open(os.path.join(reference, "aggregates.json"), "rb").read()
    int_bytes = open(os.path.join(interrupted, "aggregates.json"), "rb").read()
    assert ref_bytes == int_bytes
    assert not any(
        name.endswith(".lease") for name in os.listdir(interrupted)
    )

    aggregates = json.loads(ref_bytes)
    assert aggregates["aggregates"]["runs"] == 600
    assert aggregates["aggregates"]["failed_jobs"] == 0


def test_keyboard_interrupt_exits_cleanly_with_rerun_hint(tmp_path):
    out = str(tmp_path / "interrupted")
    victim = subprocess.Popen(
        _ensemble_cmd(out), env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    # Interrupt as the first shard lands: the next one is starting, its
    # lease just claimed and its pool forking.
    interrupted = False
    deadline = time.monotonic() + 240.0
    while time.monotonic() < deadline and victim.poll() is None:
        done, total = _shards_done(out)
        if 0 < done < total:
            os.killpg(victim.pid, signal.SIGINT)
            interrupted = True
            break
        time.sleep(0.05)
    try:
        _, stderr = victim.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(victim.pid, signal.SIGKILL)
        raise
    if not interrupted:
        pytest.skip("ensemble finished before the interrupt could land")
    assert victim.returncode == 130, stderr.decode()[-2000:]
    assert b"interrupted" in stderr
    assert f"`repro ensemble run --out {out}`".encode() in stderr
    # The interrupted shard's lease went with the process.
    assert not any(name.endswith(".lease") for name in os.listdir(out))

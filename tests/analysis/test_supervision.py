"""Supervised executor: loss isolation, quarantine, and pre-checks.

The central claim under test: one poison job (crash / hang / raise)
costs exactly that job — every other job's result is bit-identical to
an unsupervised serial run — and is reported as data, not as a dead
ensemble.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.supervision import (
    JobFailure,
    SupervisionPolicy,
    check_picklable,
    supervised_map,
)
from repro.analysis.sweep import fan_out, measure_stabilisation, run_sweep
from repro.exceptions import ExperimentError


# ----------------------------------------------------------------------
# Module-level workers (process pools require picklable callables).
# ----------------------------------------------------------------------
def _double(job):
    return job * 2


def _crash_on(job):
    value, poison = job
    if value == poison:
        os._exit(23)  # hard worker death, not an exception
    return value * 2


def _hang_on(job):
    value, poison = job
    if value == poison:
        time.sleep(120.0)
    return value * 2


def _raise_on(job):
    value, poison = job
    if value == poison:
        raise ValueError(f"poison value {value}")
    return value * 2


QUARANTINE = SupervisionPolicy(
    max_attempts=2, backoff_base=0.01, backoff_cap=0.05, fail_fast=False
)


class TestSupervisedMap:
    def test_happy_path_matches_serial(self):
        jobs = list(range(12))
        serial, _ = supervised_map(_double, jobs, workers=1)
        pooled, failures = supervised_map(_double, jobs, workers=3)
        assert pooled == serial == [j * 2 for j in jobs]
        assert failures == []

    def test_crash_quarantines_only_the_poison_job(self):
        jobs = [(value, 7) for value in range(12)]
        results, failures = supervised_map(
            _crash_on, jobs, workers=3, policy=QUARANTINE
        )
        assert [f.index for f in failures] == [7]
        assert failures[0].kind == "crash"
        assert failures[0].attempts == QUARANTINE.max_attempts
        assert results[7] is None
        # Loss isolation: everything else is bit-identical to serial.
        expected = [value * 2 for value, _ in jobs]
        survivors = [r for i, r in enumerate(results) if i != 7]
        assert survivors == [e for i, e in enumerate(expected) if i != 7]

    def test_hang_quarantined_with_deadline(self):
        policy = SupervisionPolicy(
            timeout=1.0, max_attempts=2, backoff_base=0.01,
            backoff_cap=0.05, fail_fast=False,
        )
        jobs = [(value, 4) for value in range(8)]
        results, failures = supervised_map(
            _hang_on, jobs, workers=2, policy=policy
        )
        assert [f.index for f in failures] == [4]
        assert failures[0].kind == "hang"
        assert results[4] is None
        survivors = [r for i, r in enumerate(results) if i != 4]
        assert survivors == [v * 2 for v, _ in jobs if v != 4]

    def test_worker_exception_fails_fast_by_default(self):
        jobs = [(value, 5) for value in range(8)]
        with pytest.raises(ValueError, match="poison value 5"):
            supervised_map(_raise_on, jobs, workers=2)
        with pytest.raises(ValueError, match="poison value 5"):
            supervised_map(_raise_on, jobs, workers=1)

    def test_worker_exception_quarantined_without_fail_fast(self):
        jobs = [(value, 5) for value in range(8)]
        for workers in (1, 3):
            results, failures = supervised_map(
                _raise_on, jobs, workers=workers, policy=QUARANTINE
            )
            assert [f.index for f in failures] == [5]
            assert failures[0].kind == "error"
            assert failures[0].error == "ValueError"
            assert results[5] is None

    def test_empty_jobs(self):
        results, failures = supervised_map(_double, [], workers=4)
        assert results == [] and failures == []

    def test_workers_validation(self):
        with pytest.raises(ExperimentError):
            supervised_map(_double, [1], workers=0)


#: A parent that maps two jobs over two pool workers; each job records
#: its worker's pid and sleeps.
_ORPHANING_PARENT = textwrap.dedent("""
    import os
    import sys
    import time

    from repro.analysis.supervision import supervised_map


    def record_pid_and_sleep(path):
        with open(path + ".tmp", "w") as handle:
            handle.write(str(os.getpid()))
        os.replace(path + ".tmp", path)
        time.sleep(120.0)
        return path


    if __name__ == "__main__":
        directory = sys.argv[1]
        supervised_map(
            record_pid_and_sleep,
            [os.path.join(directory, f"worker{i}") for i in range(2)],
            workers=2,
        )
""")


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process states in /proc"
)
def test_pool_workers_exit_when_their_parent_is_killed(tmp_path):
    """A SIGKILLed parent leaves no pool worker running: each worker
    exits within seconds once its parent is gone."""
    script = tmp_path / "parent.py"
    script.write_text(_ORPHANING_PARENT)
    env = dict(
        os.environ, PYTHONPATH=str(Path(__file__).parents[2] / "src")
    )
    parent = subprocess.Popen(
        [sys.executable, str(script), str(tmp_path)], env=env
    )
    pid_files = [tmp_path / f"worker{i}" for i in range(2)]
    pids = []
    try:
        deadline = time.monotonic() + 60
        while not all(path.exists() for path in pid_files):
            assert parent.poll() is None, "the parent exited early"
            assert time.monotonic() < deadline, "the jobs never started"
            time.sleep(0.05)
        pids = [int(path.read_text()) for path in pid_files]
        assert all(_running(pid) for pid in pids)
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, "a pool worker outlived it"
            time.sleep(0.1)
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestPickleChecks:
    def test_unpicklable_worker_named(self):
        with pytest.raises(ExperimentError, match="worker.*lambda"):
            supervised_map(lambda j: j, [1, 2], workers=2)

    def test_unpicklable_job_named_by_index(self):
        jobs = [1, 2, (lambda: 3), 4]
        with pytest.raises(ExperimentError, match="job #2"):
            check_picklable(_double, jobs)

    def test_serial_runs_skip_the_check(self):
        # Serial execution never pickles, so lambdas are fine there.
        results, _ = supervised_map(lambda j: j + 1, [1, 2], workers=1)
        assert results == [2, 3]


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ExperimentError):
            SupervisionPolicy(timeout=0.0)
        with pytest.raises(ExperimentError):
            SupervisionPolicy(max_attempts=0)
        with pytest.raises(ExperimentError):
            SupervisionPolicy(jitter=-0.1)
        with pytest.raises(ExperimentError):
            SupervisionPolicy(backoff_base=-1.0)

    def test_backoff_doubles_and_caps(self):
        policy = SupervisionPolicy(
            backoff_base=1.0, backoff_cap=3.0, jitter=0.0
        )
        assert policy.backoff_delay(1) == 1.0
        assert policy.backoff_delay(2) == 2.0
        assert policy.backoff_delay(3) == 3.0  # capped, not 4.0


class TestFanOutContract:
    def test_fan_out_raises_on_quarantine(self):
        jobs = [(value, 3) for value in range(6)]
        with pytest.raises(ExperimentError, match="failed under supervision"):
            fan_out(_crash_on, jobs, workers=2, policy=QUARANTINE)

    def test_fan_out_plain_results(self):
        assert fan_out(_double, [1, 2, 3], workers=2) == [2, 4, 6]
        assert fan_out(_double, [1, 2, 3]) == [2, 4, 6]


def _tiny_build(params, rng):
    from repro import AGProtocol, random_configuration

    protocol = AGProtocol(int(params["n"]))
    return protocol, random_configuration(protocol, seed=rng)


class TestSweepValidation:
    def test_run_sweep_rejects_empty_points(self):
        with pytest.raises(ExperimentError, match="at least one parameter"):
            run_sweep([], _tiny_build)

    def test_measure_stabilisation_rejects_empty_xs(self):
        with pytest.raises(ExperimentError, match="at least one n value"):
            measure_stabilisation(_tiny_build, [])

    def test_sweep_results_identical_across_worker_counts(self):
        serial = run_sweep(
            [{"n": 8}], _tiny_build, repetitions=4, seed=3, workers=1
        )
        pooled = run_sweep(
            [{"n": 8}], _tiny_build, repetitions=4, seed=3, workers=3
        )
        assert [r.interactions for r in serial[0].runs] == [
            r.interactions for r in pooled[0].runs
        ]
        assert [
            r.final_configuration.counts_list() for r in serial[0].runs
        ] == [r.final_configuration.counts_list() for r in pooled[0].runs]
        assert serial[0].failures == [] and pooled[0].failures == []


class TestJobFailureRepr:
    def test_repr_is_informative(self):
        failure = JobFailure(
            index=3, kind="crash", error="BrokenProcessPool",
            message="worker died", attempts=2,
        )
        text = repr(failure)
        assert "#3" in text and "crash" in text and "2 attempt" in text

"""The supervision observer seam, counted into metrics.

The observer seam on :func:`supervised_map` turns retries, quarantines,
and pool rebuilds into per-kind event counts without touching the
results contract.
"""

import os
from collections import Counter

from repro.analysis.supervision import SupervisionPolicy, supervised_map


# ----------------------------------------------------------------------
# Module-level workers (process pools require picklable callables).
# ----------------------------------------------------------------------
def _flaky(job):
    """Crash on the poison value until its scratch file has 2 deaths."""
    value, poison, scratch = job
    if value == poison:
        attempts = 0
        if os.path.exists(scratch):
            with open(scratch, "r", encoding="utf-8") as handle:
                attempts = int(handle.read() or 0)
        attempts += 1
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(str(attempts))
        if attempts <= 2:
            os._exit(23)
    return value * 2


def _always_crash(job):
    value, poison = job
    if value == poison:
        os._exit(23)
    return value * 2


class TestSupervisionObserver:
    def test_injected_retries_aggregate_into_metrics(self, tmp_path):
        scratch = str(tmp_path / "flaky-attempts")
        jobs = [(value, 3, scratch) for value in range(8)]
        policy = SupervisionPolicy(
            max_attempts=4, backoff_base=0.01, backoff_cap=0.02,
            fail_fast=False,
        )
        counts = Counter()
        events = []

        def observer(kind, fields):
            events.append((kind, fields))
            counts[kind] += 1

        results, failures = supervised_map(
            _flaky, jobs, workers=2, policy=policy, observer=observer
        )
        # The flaky job eventually succeeded — results are complete and
        # identical to an unsupervised run.
        assert failures == []
        assert results == [value * 2 for value, _, _ in jobs]
        assert counts["retry"] >= 1
        assert counts["pool_rebuild"] >= 1
        retry = next(f for k, f in events if k == "retry")
        assert retry["job"] == 3 and retry["attempt"] >= 1
        assert retry["failure"] in ("crash", "hang")

    def test_quarantine_event_fires_with_job_index(self):
        jobs = [(value, 5) for value in range(8)]
        policy = SupervisionPolicy(
            max_attempts=2, backoff_base=0.01, backoff_cap=0.02,
            fail_fast=False,
        )
        events = []
        results, failures = supervised_map(
            _always_crash, jobs, workers=2, policy=policy,
            observer=lambda kind, fields: events.append((kind, fields)),
        )
        assert [f.index for f in failures] == [5]
        quarantines = [f for k, f in events if k == "quarantine"]
        assert [q["job"] for q in quarantines] == [5]
        assert quarantines[0]["failure"] == "crash"

    def test_broken_observer_never_breaks_the_map(self):
        jobs = [(value, 2) for value in range(6)]
        policy = SupervisionPolicy(
            max_attempts=2, backoff_base=0.01, backoff_cap=0.02,
            fail_fast=False,
        )

        def exploding_observer(kind, fields):
            raise RuntimeError("observer bug")

        results, failures = supervised_map(
            _always_crash, jobs, workers=2, policy=policy,
            observer=exploding_observer,
        )
        assert [f.index for f in failures] == [2]
        survivors = [r for i, r in enumerate(results) if i != 2]
        assert survivors == [v * 2 for v, _ in jobs if v != 2]

    def test_serial_error_quarantine_reports(self):
        def worker(job):
            if job == 1:
                raise ValueError("bad job")
            return job

        events = []
        results, failures = supervised_map(
            worker, [0, 1, 2], workers=1,
            policy=SupervisionPolicy(fail_fast=False),
            observer=lambda kind, fields: events.append((kind, fields)),
        )
        assert [f.index for f in failures] == [1]
        assert events == [("quarantine", {"job": 1, "failure": "error"})]

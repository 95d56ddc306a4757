"""Shard leases: exclusive claims, expiry/steal, fencing, heartbeats."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.ensemble.lease import (
    LeaseHeartbeat,
    LeaseManager,
    _pid_namespace,
    lease_path,
    list_leases,
    worker_identity,
)
from repro.exceptions import ExperimentError


class FakeClock:
    """A mutable clock shared by every manager in a deterministic test."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def manager(out_dir, owner, clock, ttl=10.0, events=None):
    observer = None
    if events is not None:
        observer = lambda kind, fields: events.append((kind, dict(fields)))
    return LeaseManager(
        str(out_dir), owner=owner, ttl=ttl, clock=clock, observer=observer
    )


class TestClaim:
    def test_fresh_claim_wins_with_token_one(self, tmp_path, clock):
        events = []
        lease = manager(tmp_path, "w1", clock, events=events).claim(0)
        assert lease is not None
        assert (lease.owner, lease.token) == ("w1", 1)
        assert lease.deadline == 10.0
        assert os.path.exists(lease_path(str(tmp_path), 0))
        assert events == [
            ("lease_claim", {"shard": 0, "owner": "w1", "token": 1})
        ]

    def test_live_lease_blocks_other_workers(self, tmp_path, clock):
        assert manager(tmp_path, "w1", clock).claim(0) is not None
        clock.advance(5.0)  # inside the TTL
        assert manager(tmp_path, "w2", clock).claim(0) is None

    def test_expired_lease_is_stolen_with_bumped_token(self, tmp_path, clock):
        assert manager(tmp_path, "w1", clock).claim(0) is not None
        clock.advance(10.5)  # past the TTL
        events = []
        stolen = manager(tmp_path, "w2", clock, events=events).claim(0)
        assert stolen is not None
        assert (stolen.owner, stolen.token) == ("w2", 2)
        kinds = [kind for kind, _ in events]
        assert kinds == ["lease_expire", "lease_steal"]
        expire = dict(events[0][1])
        assert (expire["owner"], expire["token"]) == ("w1", 1)
        steal = dict(events[1][1])
        assert steal["previous_owner"] == "w1"
        assert (steal["owner"], steal["token"]) == ("w2", 2)

    def test_corrupt_lease_is_stealable(self, tmp_path, clock):
        path = lease_path(str(tmp_path), 3)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"torn')  # killed mid-exclusive-create
        lease = manager(tmp_path, "w2", clock).claim(3)
        assert lease is not None
        assert lease.token == 1  # corrupt reads as token 0

    def test_distinct_shards_are_independent(self, tmp_path, clock):
        w1 = manager(tmp_path, "w1", clock)
        w2 = manager(tmp_path, "w2", clock)
        assert w1.claim(0) is not None
        assert w2.claim(1) is not None
        assert w2.claim(0) is None

    def test_ttl_must_be_positive(self, tmp_path, clock):
        with pytest.raises(ExperimentError):
            LeaseManager(str(tmp_path), ttl=0.0, clock=clock)


class TestRenewRelease:
    def test_renew_extends_the_deadline(self, tmp_path, clock):
        w1 = manager(tmp_path, "w1", clock)
        lease = w1.claim(0)
        clock.advance(6.0)
        assert w1.renew(lease)
        assert lease.deadline == 16.0
        clock.advance(6.0)  # would be past the original deadline
        assert manager(tmp_path, "w2", clock).claim(0) is None

    def test_renew_after_steal_is_the_fencing_signal(self, tmp_path, clock):
        w1 = manager(tmp_path, "w1", clock)
        lease = w1.claim(0)
        clock.advance(10.5)
        assert manager(tmp_path, "w2", clock).claim(0) is not None
        assert not w1.renew(lease)

    def test_release_removes_only_our_lease(self, tmp_path, clock):
        w1 = manager(tmp_path, "w1", clock)
        lease = w1.claim(0)
        w1.release(lease)
        assert not os.path.exists(lease_path(str(tmp_path), 0))
        # After a steal, the stale handle must not release the thief's.
        lease = w1.claim(0)
        clock.advance(10.5)
        assert manager(tmp_path, "w2", clock).claim(0) is not None
        w1.release(lease)
        assert os.path.exists(lease_path(str(tmp_path), 0))


def _exited_child(reaped):
    """A child process that has exited, reaped or left a zombie."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    if reaped:
        child.wait()
        return child
    deadline = time.time() + 30.0
    while time.time() < deadline:
        with open(f"/proc/{child.pid}/stat", "rb") as handle:
            if handle.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                return child
        time.sleep(0.01)
    raise AssertionError("the child never exited")


def _dead_pid():
    """The pid of a child process that has exited and been reaped."""
    return _exited_child(reaped=True).pid


def _rewrite(path, **changes):
    """Edit a lease on disk; a ``None`` value drops the field."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    for key, value in changes.items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


#: The pid shortcut needs this process's pid namespace from ``/proc``.
needs_namespace = pytest.mark.skipif(
    _pid_namespace() is None, reason="reads /proc namespace ids"
)


class TestOrphanedLease:
    def test_claim_records_pid_and_namespace(self, tmp_path, clock):
        manager(tmp_path, "w1", clock).claim(0)
        with open(lease_path(str(tmp_path), 0), encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["pid"] == os.getpid()
        assert payload["pid_namespace"] == _pid_namespace()

    @needs_namespace
    @pytest.mark.parametrize("reaped", [True, False])
    def test_dead_owner_in_this_namespace_is_reclaimed_at_once(
        self, tmp_path, clock, reaped
    ):
        child = _exited_child(reaped)
        try:
            manager(tmp_path, "w1", clock).claim(0)
            _rewrite(lease_path(str(tmp_path), 0), pid=child.pid)
            # `repro ensemble status` shows it reclaimable at once too.
            [row] = list_leases(str(tmp_path), clock=clock)
            assert row["expired"] and row["expires_in_s"] > 0
            events = []
            # Well inside the TTL: no clock advance.
            stolen = manager(tmp_path, "w2", clock, events=events).claim(0)
        finally:
            child.wait()
        assert stolen is not None
        assert (stolen.owner, stolen.token) == ("w2", 2)
        assert [kind for kind, _ in events] == ["lease_expire", "lease_steal"]
        assert (events[0][1]["owner"], events[0][1]["token"]) == ("w1", 1)
        assert events[1][1]["previous_owner"] == "w1"

    def test_live_foreign_or_unknown_owner_waits_out_the_ttl(
        self, tmp_path, clock
    ):
        path = lease_path(str(tmp_path), 0)
        manager(tmp_path, "w1", clock).claim(0)  # owned by this live pid
        w2 = manager(tmp_path, "w2", clock)
        assert w2.claim(0) is None
        # A container or cloned machine that shares this host's name
        # but not its pid table: its pid is missing here, yet alive.
        _rewrite(
            path, owner=worker_identity(), pid=_dead_pid(),
            pid_namespace="another-boot:4:4026531836",
        )
        assert w2.claim(0) is None
        assert not list_leases(str(tmp_path), clock=clock)[0]["expired"]
        _rewrite(path, pid=None, pid_namespace=None)  # neither recorded
        assert w2.claim(0) is None
        clock.advance(10.5)
        assert w2.claim(0) is not None

    @needs_namespace
    def test_claimant_without_a_namespace_waits_out_the_ttl(
        self, tmp_path, clock
    ):
        # Where /proc does not show the claimant's namespace, a dead pid
        # recorded under this one cannot be tested.
        manager(tmp_path, "w1", clock).claim(0)
        _rewrite(lease_path(str(tmp_path), 0), pid=_dead_pid())
        w2 = manager(tmp_path, "w2", clock)
        w2.namespace = None
        assert w2.claim(0) is None
        assert manager(tmp_path, "w3", clock).claim(0) is not None


class TestListLeases:
    def test_annotates_liveness(self, tmp_path, clock):
        manager(tmp_path, "w1", clock).claim(0)
        clock.advance(10.5)
        manager(tmp_path, "w2", clock).claim(1)
        rows = list_leases(str(tmp_path), clock=clock)
        assert [(r["shard"], r["owner"], r["expired"]) for r in rows] == [
            (0, "w1", True),
            (1, "w2", False),
        ]
        assert rows[1]["expires_in_s"] == pytest.approx(10.0)

    def test_empty_and_missing_directories(self, tmp_path, clock):
        assert list_leases(str(tmp_path), clock=clock) == []
        assert list_leases(str(tmp_path / "nope"), clock=clock) == []


class TestWorkerIdentity:
    def test_unique_even_for_one_process(self):
        assert worker_identity() != worker_identity()
        assert str(os.getpid()) in worker_identity()


class TestHeartbeat:
    def test_heartbeat_renews_until_stopped(self, tmp_path):
        w1 = LeaseManager(str(tmp_path), owner="w1", ttl=0.4)
        lease = w1.claim(0)
        beat = LeaseHeartbeat(w1, lease, interval=0.05).start()
        try:
            time.sleep(0.8)  # several TTLs — only renewal keeps it alive
            assert not beat.lost.is_set()
            w2 = LeaseManager(str(tmp_path), owner="w2", ttl=0.4)
            assert w2.claim(0) is None  # still live
        finally:
            beat.stop()

    def test_heartbeat_flags_a_stolen_lease(self, tmp_path):
        w1 = LeaseManager(str(tmp_path), owner="w1", ttl=0.4)
        lease = w1.claim(0)
        beat = LeaseHeartbeat(w1, lease, interval=0.05).start()
        try:
            # Forge a foreign takeover directly on disk.
            path = lease_path(str(tmp_path), 0)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "version": 1, "shard": 0, "owner": "w2",
                        "token": 2, "deadline": time.time() + 60.0,
                        "ttl": 0.4,
                    },
                    handle,
                )
            deadline = time.time() + 5.0
            while not beat.lost.is_set() and time.time() < deadline:
                time.sleep(0.02)
            assert beat.lost.is_set()
        finally:
            beat.stop()

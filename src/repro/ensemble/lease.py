"""Crash-tolerant shard leases for cooperative multi-worker ensembles.

N independent ``repro ensemble join`` processes — different machines
included, as long as they share the ensemble directory's filesystem —
drain one manifest concurrently.  Coordination is a per-shard *lease
file* (``shard-<index>.lease``):

* **Claim.**  A pending shard is claimed by creating its lease file
  with ``O_CREAT|O_EXCL`` — the one filesystem primitive that is
  atomic-and-exclusive even on NFS-style shared mounts.  The lease
  carries the claimant's identity (host/pid/uuid), a monotonic
  *fencing token*, and a deadline ``now + ttl``.
* **Heartbeat.**  The owner renews by atomically rewriting the lease
  with a fresh deadline (same token); :class:`LeaseHeartbeat` does
  this from a daemon thread at ``ttl/3`` while the shard computes.
* **Expiry and steal.**  A lease whose deadline has passed is fair
  game: a reclaimer rewrites it with ``token + 1`` and re-reads to
  confirm it won (last-writer-wins with read-back).  The previous
  owner's next renewal sees the foreign owner/token, returns ``False``,
  and the worker abandons the shard gracefully.
* **Correctness does not depend on mutual exclusion.**  Shards are
  pure functions of ``(seed, index)``, so even if two workers briefly
  both believe they own a shard, both compute byte-identical files and
  the commit path (:func:`repro.ensemble.manifest.commit_shard`) is
  idempotent: sha-verified content, first ``shard-<i>.done`` marker
  wins.  Leases exist to avoid *duplicate work*, not to guard
  integrity — which is what makes the protocol safe under arbitrary
  clock skew (bounded only by: skew much smaller than the TTL keeps
  duplicate computation rare).

Every lease event is reported through the observer seam with the
vocabulary of :mod:`repro.obs.trace`: ``lease_claim``, ``lease_renew``,
``lease_expire``, ``lease_steal``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .._io import atomic_write_text
from ..exceptions import ExperimentError

__all__ = [
    "Lease",
    "LeaseHeartbeat",
    "LeaseManager",
    "lease_path",
    "list_leases",
    "worker_identity",
]

LEASE_VERSION = 1


def worker_identity() -> str:
    """A globally unique worker id: ``<host>-<pid>-<uuid8>``.

    The uuid component matters: pids recycle, and a respawned worker on
    the same host must not be able to renew its predecessor's leases.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def lease_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"shard-{index:05d}.lease")


@dataclass
class Lease:
    """One worker's live claim on one shard."""

    shard: int
    owner: str
    token: int
    deadline: float
    path: str


def _read_lease(path: str) -> Optional[Dict]:
    """The lease file's payload, or ``None`` if absent or unreadable.

    An unreadable lease (torn exclusive create from a worker killed
    mid-write) is indistinguishable from an expired one to claimants —
    both are stealable — so corruption can only ever *shorten* a dead
    worker's hold on a shard, never wedge it.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


class LeaseManager:
    """Claim / renew / release shard leases in one ensemble directory.

    ``clock`` is injectable (defaults to wall-clock ``time.time`` —
    deadlines must be comparable *across machines*, so monotonic clocks
    are out) which is also what makes lease schedules deterministic in
    tests.  ``observer(kind, fields)`` receives the lease lifecycle
    events; observer failures never affect leasing.
    """

    def __init__(
        self,
        out_dir: str,
        owner: Optional[str] = None,
        ttl: float = 30.0,
        clock: Callable[[], float] = time.time,
        observer: Optional[Callable[[str, Dict], None]] = None,
    ) -> None:
        if ttl <= 0:
            raise ExperimentError(f"lease ttl must be positive, got {ttl}")
        self.out_dir = out_dir
        self.owner = owner or worker_identity()
        self.ttl = float(ttl)
        self.clock = clock
        self.observer = observer

    def _emit(self, kind: str, **fields) -> None:
        if self.observer is None:
            return
        try:
            self.observer(kind, fields)
        except Exception:
            pass

    def _payload(self, index: int, token: int, deadline: float) -> Dict:
        return {
            "version": LEASE_VERSION,
            "shard": index,
            "owner": self.owner,
            "token": token,
            "deadline": deadline,
            "ttl": self.ttl,
        }

    def claim(self, index: int) -> Optional[Lease]:
        """Try to claim one shard; ``None`` on live contention.

        A fresh claim starts at fencing token 1; reclaiming an expired
        (or unreadable) lease increments the token it found, so tokens
        are monotone along each shard's ownership history.
        """
        path = lease_path(self.out_dir, index)
        now = self.clock()
        deadline = now + self.ttl
        try:
            descriptor = os.open(
                path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            return self._reclaim(path, index, now)
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(self._payload(index, 1, deadline), handle)
            handle.write("\n")
            handle.flush()
        self._emit("lease_claim", shard=index, owner=self.owner, token=1)
        return Lease(index, self.owner, 1, deadline, path)

    def _reclaim(self, path: str, index: int, now: float) -> Optional[Lease]:
        """Steal an expired/corrupt lease; ``None`` if live or outraced."""
        current = _read_lease(path)
        if current is None:
            if not os.path.exists(path):
                # Released between our O_EXCL failure and the read; the
                # caller's next attempt will take the fresh-claim path.
                return None
            current = {"owner": "?", "token": 0, "deadline": float("-inf")}
        held_by = str(current.get("owner", "?"))
        held_token = int(current.get("token", 0) or 0)
        held_deadline = float(current.get("deadline", 0.0) or 0.0)
        expired = held_deadline <= now
        if not expired and held_by != self.owner:
            return None  # live contention — back off and try elsewhere
        if expired:
            self._emit(
                "lease_expire", shard=index, owner=held_by, token=held_token,
            )
        token = held_token + 1
        deadline = now + self.ttl
        atomic_write_text(
            path,
            json.dumps(self._payload(index, token, deadline), sort_keys=True)
            + "\n",
            suffix=".lease",
        )
        readback = _read_lease(path)
        if (
            readback is None
            or readback.get("owner") != self.owner
            or int(readback.get("token", -1) or -1) != token
        ):
            return None  # another stealer wrote after us — they win
        if held_by == self.owner:
            # Re-acquiring our own lease (fresh handle, bumped token) is
            # a claim, not a steal — ownership never left this worker.
            self._emit(
                "lease_claim", shard=index, owner=self.owner, token=token,
            )
        else:
            self._emit(
                "lease_steal",
                shard=index, owner=self.owner, token=token,
                previous_owner=held_by,
            )
        return Lease(index, self.owner, token, deadline, path)

    def renew(self, lease: Lease) -> bool:
        """Extend the deadline; ``False`` means the lease was lost.

        A ``False`` return is the fencing signal: the on-disk lease now
        carries a foreign owner or a higher token, so this worker must
        abandon the shard (its eventual commit would be byte-identical
        anyway, but abandoning avoids duplicate work and keeps the
        ownership story in the trace truthful).
        """
        current = _read_lease(lease.path)
        if (
            current is None
            or current.get("owner") != lease.owner
            or int(current.get("token", -1) or -1) != lease.token
        ):
            return False
        deadline = self.clock() + self.ttl
        atomic_write_text(
            lease.path,
            json.dumps(
                self._payload(lease.shard, lease.token, deadline),
                sort_keys=True,
            )
            + "\n",
            suffix=".lease",
        )
        readback = _read_lease(lease.path)
        if (
            readback is None
            or readback.get("owner") != lease.owner
            or int(readback.get("token", -1) or -1) != lease.token
        ):
            return False
        lease.deadline = deadline
        self._emit(
            "lease_renew",
            shard=lease.shard, owner=lease.owner, token=lease.token,
        )
        return True

    def release(self, lease: Lease) -> None:
        """Drop the lease if still ours; never raises."""
        current = _read_lease(lease.path)
        if (
            current is not None
            and current.get("owner") == lease.owner
            and int(current.get("token", -1) or -1) == lease.token
        ):
            try:
                os.unlink(lease.path)
            except OSError:
                pass


def list_leases(
    out_dir: str, clock: Callable[[], float] = time.time
) -> List[Dict]:
    """All lease files in a directory, annotated with liveness.

    Feeds ``repro ensemble status``: unexpired rows are the live
    workers (one heartbeat each), expired rows are claims whose owner
    died and whose shards are about to be reclaimed.
    """
    now = clock()
    rows: List[Dict] = []
    try:
        names = sorted(os.listdir(out_dir))
    except OSError:
        return rows
    for name in names:
        if not name.endswith(".lease"):
            continue
        payload = _read_lease(os.path.join(out_dir, name))
        if payload is None:
            continue
        deadline = float(payload.get("deadline", 0.0) or 0.0)
        rows.append(
            {
                "shard": int(payload.get("shard", -1)),
                "owner": str(payload.get("owner", "?")),
                "token": int(payload.get("token", 0) or 0),
                "expires_in_s": deadline - now,
                "expired": deadline <= now,
            }
        )
    return rows


class LeaseHeartbeat:
    """Daemon thread renewing one lease at a fraction of its TTL.

    ``lost`` is set (and renewal stops) the moment a renew fails —
    the worker checks it after computing and abandons the shard
    instead of committing under a stolen lease.
    """

    def __init__(
        self,
        manager: LeaseManager,
        lease: Lease,
        interval: Optional[float] = None,
    ) -> None:
        self.manager = manager
        self.lease = lease
        self.interval = (
            interval if interval is not None else max(manager.ttl / 3.0, 0.05)
        )
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            name=f"lease-heartbeat-{lease.shard}",
            daemon=True,
        )

    def start(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                renewed = self.manager.renew(self.lease)
            except Exception:
                renewed = False
            if not renewed:
                self.lost.set()
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=max(self.interval * 4, 1.0))

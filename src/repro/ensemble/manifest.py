"""Ensemble manifests and crash-safe JSON persistence.

An ensemble directory is self-describing:

* ``manifest.json`` — the plan: campaign id, scale, root seed, total
  run count, shard size, and one entry per shard (``pending`` or
  ``done``, with the SHA-256 of the finished shard file);
* ``shard-<index>.json`` — one file per shard of run records;
* ``shard-<index>.done`` — the commit marker: the shard file's SHA-256
  (plus, in cooperative mode, the committing worker and its fencing
  token).  Markers are placed with ``O_CREAT|O_EXCL`` *after* the
  shard file is durably in place and checksum-verified, so marker
  presence — not manifest state — is the authoritative commit record;
* ``shard-<index>.lease`` — a live worker's claim on a pending shard
  (:mod:`repro.ensemble.lease`), only meaningful while unexpired;
* ``aggregates.json`` — the streamed fold over all shards.

Every file is written atomically (temp file in the same directory,
flush + fsync, ``os.replace``, directory fsync), so a crash — including
SIGKILL — can never leave a half-written file under a valid name: a
file either has its complete content or does not exist.  Because a
shard is a pure function of ``(seed, index)``, commits are *idempotent
by construction*: any number of workers may compute the same shard and
the bytes are identical, so the first marker wins and every later
commit is a no-op.  The manifest's per-shard statuses are merely a
cached view, rebuilt from the markers by :func:`reconcile_manifest` —
no multi-writer manifest races are possible because cooperative
workers never write it mid-run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

from .._io import atomic_write_json, atomic_write_text, fsync_directory
from ..exceptions import ExperimentError

__all__ = [
    "MANIFEST_NAME",
    "atomic_write_json",
    "commit_shard",
    "create_manifest",
    "create_manifest_exclusive",
    "done_marker_path",
    "file_sha256",
    "load_json",
    "load_manifest",
    "read_done_marker",
    "reconcile_manifest",
    "save_manifest",
    "shard_path",
    "write_done_marker",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def load_json(path: str) -> Dict:
    """Read one JSON file; corrupt content raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def file_sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def shard_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"shard-{index:05d}.json")


def done_marker_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"shard-{index:05d}.done")


def read_done_marker(out_dir: str, index: int) -> Optional[Dict]:
    """The shard's commit marker, or ``None`` if absent or unreadable.

    A torn marker (possible only if the committing process died inside
    the exclusive create) reads as ``None`` — the shard is simply
    recomputed, and :func:`reconcile_manifest` clears the debris.
    """
    path = done_marker_path(out_dir, index)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or not payload.get("sha256"):
        return None
    return payload


def write_done_marker(
    out_dir: str,
    index: int,
    sha256: str,
    owner: Optional[str] = None,
    token: Optional[int] = None,
) -> bool:
    """Place the commit marker exclusively; ``False`` if already placed.

    ``O_CREAT|O_EXCL`` makes the *first* committer win even across
    machines on a shared filesystem; a loser's shard bytes are
    identical anyway (shards are pure functions of ``(seed, index)``),
    so losing is not an error.  An unreadable leftover marker is
    cleared and the create retried once.
    """
    payload: Dict = {"index": index, "sha256": sha256}
    if owner is not None:
        payload["owner"] = owner
    if token is not None:
        payload["token"] = token
    text = json.dumps(payload, sort_keys=True) + "\n"
    path = done_marker_path(out_dir, index)
    for attempt in (0, 1):
        try:
            descriptor = os.open(
                path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            if attempt == 0 and read_done_marker(out_dir, index) is None:
                # Torn marker from a killed committer: clear and retry.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            return False
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(os.path.dirname(os.path.abspath(path)))
        return True
    return False


def commit_shard(
    out_dir: str,
    index: int,
    payload: Dict,
    owner: Optional[str] = None,
    token: Optional[int] = None,
) -> Tuple[str, bool]:
    """Idempotent, fenced shard commit; returns ``(sha256, placed)``.

    The payload is serialised exactly as :func:`atomic_write_json`
    would (sorted keys, indent 1, trailing newline) and its SHA-256
    computed *before* touching disk.  If a commit marker already
    exists, its digest must match — two workers computing the same
    shard must produce the same bytes, anything else is a determinism
    bug worth failing loudly on.  Otherwise the shard file is written
    atomically, re-hashed from disk (the checksum-before-marker
    verification), and the marker placed exclusively.  ``placed`` is
    ``False`` when another worker committed first.
    """
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _check(marker: Dict) -> None:
        if marker["sha256"] != digest:
            raise ExperimentError(
                f"shard {index} was already committed with sha256 "
                f"{marker['sha256'][:12]}… but this worker computed "
                f"{digest[:12]}… — shards must be pure functions of "
                "(seed, index); refusing to overwrite"
            )

    existing = read_done_marker(out_dir, index)
    if existing is not None:
        _check(existing)
        return digest, False
    path = shard_path(out_dir, index)
    atomic_write_text(path, text, suffix=".json")
    if file_sha256(path) != digest:
        raise ExperimentError(
            f"shard {index} file {path} did not read back with the "
            "checksum just written — refusing to mark it done"
        )
    if write_done_marker(out_dir, index, digest, owner=owner, token=token):
        return digest, True
    late = read_done_marker(out_dir, index)
    if late is not None:
        _check(late)
    return digest, False


def reconcile_manifest(
    out_dir: str,
    manifest: Dict,
    repair: bool = True,
    verify: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Rebuild per-shard statuses from commit markers; returns demotions.

    Markers are the commit authority; the manifest's statuses are a
    cache that may be stale (cooperative workers never write the
    manifest mid-run) or wrong (a crash between shard write and
    manifest save).  For every shard: the expected checksum comes from
    its marker, falling back to the manifest entry for pre-marker
    directories; a shard whose file is missing or (with ``verify``)
    fails its checksum goes back to ``pending``.

    ``repair=True`` additionally mutates the directory: corrupt shard
    files are renamed to ``*.corrupt`` (kept for post-mortems), their
    stale markers removed, and markers are backfilled for legacy
    ``done`` entries that predate markers.  ``repair=False`` (the
    ``status`` view) touches nothing on disk.
    """
    demoted = 0
    for shard in manifest["shards"]:
        index = shard["index"]
        marker = read_done_marker(out_dir, index)
        if marker is not None:
            expected = marker["sha256"]
        elif shard["status"] == "done" and shard["sha256"]:
            expected = shard["sha256"]
        else:
            if repair and os.path.exists(done_marker_path(out_dir, index)):
                # Torn marker with no other evidence: clear the debris.
                try:
                    os.unlink(done_marker_path(out_dir, index))
                except OSError:
                    pass
            shard["status"] = "pending"
            shard["sha256"] = None
            continue
        path = shard_path(out_dir, index)
        reason = None
        if not os.path.exists(path):
            reason = "file missing"
        elif verify and file_sha256(path) != expected:
            reason = "checksum mismatch"
        if reason is None:
            shard["status"] = "done"
            shard["sha256"] = expected
            if repair and marker is None:
                write_done_marker(out_dir, index, expected)
            continue
        demoted += 1
        if repair:
            if os.path.exists(path):
                os.replace(path, path + ".corrupt")
            try:
                os.unlink(done_marker_path(out_dir, index))
            except OSError:
                pass
        shard["status"] = "pending"
        shard["sha256"] = None
        if progress:
            progress(
                f"shard {index} is corrupt ({reason}); "
                "quarantined and queued for recompute"
            )
    return demoted


def create_manifest_exclusive(out_dir: str, manifest: Dict) -> bool:
    """Create ``manifest.json`` only if absent; ``False`` when it exists.

    The first of N concurrently launched workers wins the creation race
    atomically: the manifest is written to a temp file (full content,
    fsynced) and *linked* into place — ``os.link`` fails with
    ``FileExistsError`` if any other worker got there first, and a
    reader can never observe a torn manifest.  Filesystems without hard
    links fall back to an exclusive create of the complete bytes.
    """
    path = os.path.join(out_dir, MANIFEST_NAME)
    text = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    descriptor, temp_path = tempfile.mkstemp(
        dir=out_dir, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(temp_path, path)
        except FileExistsError:
            return False
        except OSError:
            # No hard links here (some network/FAT mounts): exclusive
            # create of the full bytes is the best available fallback.
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
        fsync_directory(os.path.abspath(out_dir))
        return True
    finally:
        try:
            os.unlink(temp_path)
        except OSError:
            pass


def create_manifest(
    campaign_id: str,
    scale: str,
    seed: int,
    total_runs: int,
    shard_size: int,
    default_max_events: Optional[int],
    jobspec_digest: Optional[str] = None,
) -> Dict:
    """Build a fresh manifest dict (all shards pending).

    ``jobspec_digest`` pins the submitting request: the sha256 of the
    canonical :class:`~repro.jobspec.JobSpec` this ensemble computes.
    ``ensemble status`` surfaces it, and a rerun recomputes it from the
    manifest parameters and refuses to continue when the campaign's
    current definition no longer hashes to the recorded value — a
    silently drifted spec can then never masquerade as a continuation.
    """
    if total_runs < 1:
        raise ExperimentError(f"total_runs must be >= 1, got {total_runs}")
    if shard_size < 1:
        raise ExperimentError(f"shard_size must be >= 1, got {shard_size}")
    shards: List[Dict] = []
    start = 0
    index = 0
    while start < total_runs:
        stop = min(start + shard_size, total_runs)
        shards.append(
            {
                "index": index,
                "start": start,
                "stop": stop,
                "status": "pending",
                "sha256": None,
            }
        )
        start = stop
        index += 1
    return {
        "version": MANIFEST_VERSION,
        "campaign": campaign_id,
        "scale": scale,
        "seed": seed,
        "total_runs": total_runs,
        "shard_size": shard_size,
        "default_max_events": default_max_events,
        "jobspec_digest": jobspec_digest,
        "shards": shards,
    }


def save_manifest(out_dir: str, manifest: Dict) -> None:
    atomic_write_json(os.path.join(out_dir, MANIFEST_NAME), manifest)


def load_manifest(out_dir: str) -> Dict:
    """Load and structurally validate an ensemble manifest."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ExperimentError(
            f"no ensemble manifest at {path} — start one with "
            "`repro ensemble run --campaign ID`"
        )
    try:
        manifest = load_json(path)
    except ValueError as exc:
        raise ExperimentError(
            f"ensemble manifest {path} is corrupt: {exc}"
        ) from exc
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise ExperimentError(
            f"ensemble manifest version {version!r} is not supported "
            f"(expected {MANIFEST_VERSION})"
        )
    required = (
        "campaign", "scale", "seed", "total_runs", "shard_size", "shards",
    )
    missing = [key for key in required if key not in manifest]
    if missing:
        raise ExperimentError(
            f"ensemble manifest {path} is missing fields: {missing}"
        )
    covered = 0
    for position, shard in enumerate(manifest["shards"]):
        if shard.get("index") != position or shard.get("start") != covered:
            raise ExperimentError(
                f"ensemble manifest {path} has an inconsistent shard "
                f"table at position {position}"
            )
        if shard.get("stop", 0) <= shard["start"]:
            raise ExperimentError(
                f"ensemble manifest {path} shard {position} is empty"
            )
        covered = shard["stop"]
    if covered != manifest["total_runs"]:
        raise ExperimentError(
            f"ensemble manifest {path} shards cover {covered} runs, "
            f"expected {manifest['total_runs']}"
        )
    return manifest

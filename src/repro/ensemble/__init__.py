"""Resumable sharded ensembles over the scenario campaign catalog.

The orchestration layer for very large (10⁵+ run) fault-tolerance
studies: shard the seeded runs, execute each shard under worker
supervision, persist shards atomically with checksums and exclusive
commit markers, stream the records through online reducers, and resume
exactly the missing gap after any crash.  Cooperative mode
(:func:`~repro.ensemble.runner.join_ensemble`) lets N processes — on
any machines sharing the ensemble directory's filesystem — drain one
manifest concurrently through crash-tolerant shard leases
(:mod:`repro.ensemble.lease`).  See :mod:`repro.ensemble.runner` for
the mechanics.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".lease": (
        "Lease",
        "LeaseHeartbeat",
        "LeaseManager",
        "lease_path",
        "list_leases",
        "worker_identity",
    ),
    ".manifest": (
        "atomic_write_json",
        "commit_shard",
        "create_manifest",
        "create_manifest_exclusive",
        "done_marker_path",
        "file_sha256",
        "load_manifest",
        "read_done_marker",
        "reconcile_manifest",
        "save_manifest",
        "shard_path",
        "write_done_marker",
    ),
    ".reducers": (
        "EnsembleAggregates",
        "P2Quantile",
        "RecoveryTable",
        "SurvivalCurve",
        "Welford",
    ),
    ".runner": (
        "CooperativeWorker",
        "ensemble_status",
        "join_ensemble",
        "run_ensemble",
        "run_record",
    ),
})

"""Versioned JSONL run traces with deterministic logical content.

A trace file is one JSON object per line: a ``header`` record first
(carrying ``version``), then event records.  Records split into two
classes:

* **logical** records — the run's history (run/phase lifecycle, faults,
  epoch switches, snapshot/restore).  They carry *no wall-clock
  fields*: every value is a pure function of the scenario and its seed,
  so traces of the same campaign taken at ``workers=1`` and
  ``workers=N`` merge (in run-index order) to byte-identical logical
  histories.
* **operational** records (:data:`OPERATIONAL_KINDS`) — supervision
  retries/quarantines/pool-rebuilds, shard lifecycle (including the
  cooperative-mode lease protocol: ``lease_claim``/``lease_renew``/
  ``lease_expire``/``lease_steal`` and the fenced ``shard_commit``),
  and served-job lifecycle.  They describe *this execution* and are
  excluded from logical comparison.

Files are written atomically via :func:`repro._io.atomic_write_text`
(the ensemble manifest's temp/fsync/rename discipline), so a killed
writer never leaves a torn trace under a valid name.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace
from typing import Dict, Iterable, List, Sequence

from .._io import atomic_write_text
from ..exceptions import ExperimentError

__all__ = [
    "OPERATIONAL_KINDS",
    "TRACE_VERSION",
    "TraceReader",
    "TraceWriter",
    "diff_traces",
    "merge_trace_events",
    "summarize_trace",
    "validate_trace",
]

TRACE_VERSION = 1

#: Execution-specific record kinds, excluded from logical comparison.
OPERATIONAL_KINDS = frozenset(
    {
        "retry",
        "quarantine",
        "pool_rebuild",
        "shard_start",
        "shard_done",
        "shard_commit",
        "lease_claim",
        "lease_renew",
        "lease_expire",
        "lease_steal",
        "job_start",
        "job_progress",
        "job_paused",
        "job_resumed",
        "job_done",
    }
)

#: All record kinds a version-1 trace may contain.
KNOWN_KINDS = OPERATIONAL_KINDS | frozenset(
    {
        "header",
        "run_start",
        "phase_start",
        "fault",
        "epoch_switch",
        "resync",
        "snapshot",
        "restore",
        "phase_end",
        "run_end",
    }
)

#: Wall-clock-ish fields stripped before logical comparison (defensive:
#: logical emitters never set them, operational ones may).
VOLATILE_FIELDS = ("wall_s", "t", "attempts_wall_s")

#: Per-kind required fields (beyond ``kind``) for schema validation.
_REQUIRED: Dict[str, Sequence[str]] = {
    "header": ("version", "source"),
    "run_start": ("run", "scenario", "protocol", "num_agents"),
    "phase_start": ("run", "phase", "phase_kind", "label"),
    "fault": ("run", "phase", "label", "num_agents"),
    "epoch_switch": ("run", "epoch"),
    "phase_end": (
        "run", "phase", "phase_kind", "label", "num_agents",
        "interactions", "events", "silent", "stop_reason", "scheduler",
    ),
    "run_end": ("run", "recovered_all", "total_events"),
    "retry": ("job", "attempt", "failure"),
    "quarantine": ("job", "failure"),
    "pool_rebuild": ("rebuilds",),
    "shard_start": ("shard", "start", "stop"),
    "shard_done": ("shard", "start", "stop"),
    "shard_commit": ("shard", "sha256"),
    "lease_claim": ("shard", "owner", "token"),
    "lease_renew": ("shard", "owner", "token"),
    "lease_expire": ("shard", "owner", "token"),
    "lease_steal": ("shard", "owner", "token", "previous_owner"),
    "job_start": ("digest",),
    "job_progress": ("events", "interactions"),
    "job_paused": ("digest",),
    "job_resumed": ("digest",),
    "job_done": ("digest", "status"),
}


def merge_trace_events(per_run_events: Sequence[Sequence[Dict]]) -> List[Dict]:
    """Merge per-run event lists into one logical history.

    Entry ``i`` of ``per_run_events`` is run ``i``'s event list (as
    collected by ``run_scenario(..., collect_trace=True)``); the merge
    annotates each record with its run index and concatenates in run
    order — which is what makes the result independent of how many
    workers produced the runs.
    """
    merged: List[Dict] = []
    for run_index, events in enumerate(per_run_events):
        for record in events:
            annotated = {"kind": record["kind"], "run": run_index}
            annotated.update(
                (k, v) for k, v in record.items() if k != "kind"
            )
            merged.append(annotated)
    return merged


class TraceWriter:
    """Accumulates records and writes the whole file atomically.

    ``write()`` may be called repeatedly (e.g. once per finished shard
    for a live trace); each call atomically replaces the file with the
    full record list, so readers only ever see complete traces.
    """

    def __init__(self, path: str, source: str, **meta) -> None:
        self.path = path
        header: Dict = {
            "kind": "header", "version": TRACE_VERSION, "source": source,
        }
        header.update(meta)
        self._records: List[Dict] = [header]

    def emit(self, kind: str, **fields) -> None:
        record: Dict = {"kind": kind}
        record.update(fields)
        self._records.append(record)

    def extend(self, records: Iterable[Dict]) -> None:
        """Append already-formed records (each must carry ``kind``)."""
        for record in records:
            if "kind" not in record:
                raise ExperimentError(
                    f"trace record without a kind: {record!r}"
                )
            self._records.append(dict(record))

    @property
    def records(self) -> List[Dict]:
        return list(self._records)

    def write(self) -> str:
        """Atomically persist the trace; returns the path."""
        text = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self._records
        )
        atomic_write_text(self.path, text, suffix=".jsonl")
        return self.path


class TraceReader:
    """Parses one trace file; validates the header on construction."""

    def __init__(self, path: str) -> None:
        if not os.path.exists(path):
            raise ExperimentError(f"no trace file at {path}")
        self.path = path
        self.records: List[Dict] = []
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ExperimentError(
                        f"{path}:{number} is not valid JSON: {exc}"
                    ) from exc
                if not isinstance(record, dict):
                    raise ExperimentError(
                        f"{path}:{number} is not a JSON object"
                    )
                self.records.append(record)
        if not self.records or self.records[0].get("kind") != "header":
            raise ExperimentError(
                f"{path} does not start with a trace header record"
            )
        version = self.records[0].get("version")
        if version != TRACE_VERSION:
            raise ExperimentError(
                f"{path} has trace version {version!r}, "
                f"expected {TRACE_VERSION}"
            )

    @property
    def header(self) -> Dict:
        return self.records[0]

    def logical(self) -> List[Dict]:
        """Deterministic history: header and operational records out,
        volatile fields stripped."""
        out: List[Dict] = []
        for record in self.records[1:]:
            if record.get("kind") in OPERATIONAL_KINDS:
                continue
            out.append(
                {
                    k: v
                    for k, v in record.items()
                    if k not in VOLATILE_FIELDS
                }
            )
        return out

    def operational(self) -> List[Dict]:
        return [
            r for r in self.records[1:] if r.get("kind") in OPERATIONAL_KINDS
        ]


def validate_trace(records: Sequence[Dict]) -> None:
    """Structural schema check; raises ``ExperimentError`` on violation.

    Pass ``TraceReader(path).records`` (header included).  Checks: the
    header leads with the supported version, every record's kind is
    known, and each kind carries its required fields.
    """
    if not records:
        raise ExperimentError("trace is empty (no header record)")
    if records[0].get("kind") != "header":
        raise ExperimentError("trace does not start with a header record")
    if records[0].get("version") != TRACE_VERSION:
        raise ExperimentError(
            f"unsupported trace version {records[0].get('version')!r}"
        )
    for position, record in enumerate(records):
        kind = record.get("kind")
        if not isinstance(kind, str):
            raise ExperimentError(
                f"trace record {position} has no string kind: {record!r}"
            )
        if kind not in KNOWN_KINDS:
            raise ExperimentError(
                f"trace record {position} has unknown kind {kind!r}"
            )
        if position > 0 and kind == "header":
            raise ExperimentError(
                f"trace record {position} is a second header"
            )
        missing = [
            field
            for field in _REQUIRED.get(kind, ())
            if field not in record
        ]
        if missing:
            raise ExperimentError(
                f"trace record {position} ({kind}) is missing "
                f"fields: {missing}"
            )


def diff_traces(
    a: Sequence[Dict], b: Sequence[Dict], limit: int = 10
) -> List[str]:
    """Compare two *logical* histories; returns difference lines.

    Empty result means the histories are identical.  Pass the output of
    :meth:`TraceReader.logical` for both sides.
    """
    lines: List[str] = []
    if len(a) != len(b):
        lines.append(f"record counts differ: {len(a)} vs {len(b)}")
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            lines.append(
                f"record {index} differs:\n"
                f"  a: {json.dumps(left, sort_keys=True)}\n"
                f"  b: {json.dumps(right, sort_keys=True)}"
            )
            if len(lines) >= limit:
                lines.append("... (further differences suppressed)")
                break
    return lines


def _phase_logs_from_records(records: Sequence[Dict]):
    """Rebuild ``PhaseLog`` objects from one run's phase_end records."""
    from ..scenarios.engine import PhaseLog

    logs = []
    for record in sorted(
        (r for r in records if r.get("kind") == "phase_end"),
        key=lambda r: r["phase"],
    ):
        logs.append(
            PhaseLog(
                index=record["phase"],
                kind=record["phase_kind"],
                label=record["label"],
                num_agents=record["num_agents"],
                interactions=record["interactions"],
                events=record["events"],
                silent=record["silent"],
                stop_reason=record["stop_reason"],
                distance=record.get("distance"),
                wall_time_s=0.0,
                scheduler=record.get("scheduler", "uniform"),
            )
        )
    return logs


def summarize_trace(records: Sequence[Dict]) -> str:
    """Rebuild the campaign tables from a trace's logical history.

    Groups logical records by run, reconstructs each run's phase logs,
    and renders the same per-fault recovery and per-phase tables
    ``repro scenario run`` prints — so a trace file alone reproduces
    the campaign's analysis.
    """
    from ..analysis.recovery import phase_table, recovery_table
    from ..scenarios.engine import ScenarioResult

    validate_trace(records)
    logical = [
        r for r in records[1:] if r.get("kind") not in OPERATIONAL_KINDS
    ]
    by_run: Dict[int, List[Dict]] = {}
    for record in logical:
        run = record.get("run")
        if run is None:
            continue
        by_run.setdefault(int(run), []).append(record)
    if not by_run:
        return "trace has no run records"

    scenario_name = "?"
    protocol_name = "?"
    results = []
    for run in sorted(by_run):
        run_records = by_run[run]
        start = next(
            (r for r in run_records if r["kind"] == "run_start"), None
        )
        if start is not None:
            scenario_name = start.get("scenario", scenario_name)
            protocol_name = start.get("protocol", protocol_name)
        results.append(
            ScenarioResult(
                scenario_name=scenario_name,
                protocol_name=protocol_name,
                seed=None,
                phase_logs=_phase_logs_from_records(run_records),
            )
        )

    # Duck-typed stand-in for a CampaignResult: the table builders only
    # touch .scenario.name, .repetitions, and .results.
    campaign = SimpleNamespace(
        scenario=SimpleNamespace(name=scenario_name),
        repetitions=len(results),
        results=results,
    )
    epoch_switches = sum(
        1 for r in logical if r["kind"] == "epoch_switch"
    )
    faults = sum(1 for r in logical if r["kind"] == "fault")
    header = [
        f"trace        : {len(records) - 1} records, "
        f"{len(results)} runs, {faults} faults, "
        f"{epoch_switches} epoch switches",
        f"scenario     : {scenario_name}",
        f"protocol     : {protocol_name}",
        "",
    ]
    tables = [recovery_table(campaign), phase_table(campaign)]
    return "\n".join(header) + "\n\n".join(
        table.render() for table in tables
    )

"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands:

* ``list`` — show all registered experiments;
* ``experiment <id>`` — run one experiment and print its tables;
* ``simulate`` — run one protocol from a chosen start and report the
  stabilisation time (and leader);
* ``scenario`` — list or run scripted fault campaigns (mid-run
  corruption, crashes, churn, adversarial schedulers) and print the
  recovery-time tables;
* ``render`` — print the paper's structures (Figure 1 graph, Figure 2
  tree, ring/line occupancy);
* ``bench`` — measure hot-path events/sec at a reference speed against
  the seed engine's recorded numbers and write
  ``BENCH_<timestamp>.json`` (``--instrument`` reports engine counters
  instead of wall-clock);
* ``ensemble`` — run and inspect resumable sharded ensembles (10⁵+
  seeded scenario runs with crash recovery; rerunning ``run`` continues
  a directory, and several ``run`` processes drain one shared directory
  together through crash-tolerant shard leases; see README);
* ``trace`` — summarize, diff, and validate structured run traces
  (``repro scenario run ... --trace out.jsonl``);
* ``serve`` — simulation-as-a-service: an HTTP + WebSocket server
  accepting versioned JobSpecs (see ``repro.jobspec``), with digest
  caching, bounded-queue backpressure, pause/resume, and live event
  streaming.

``simulate`` and ``scenario run`` construct the same
:class:`~repro.jobspec.JobSpec` the server accepts, so every entry
point speaks one schema; trajectories are bit-identical to the
pre-JobSpec flag handling.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .exceptions import ReproError
from .experiments.base import SCALES

__all__ = ["main", "build_parser"]

# Module level holds only what the parser needs; each ``_cmd_*`` imports
# the machinery it runs, so a command loads only its own modules.
_PROTOCOLS = ("ag", "line", "ring", "tree")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Self-stabilising ranking / leader election population "
            "protocols (PODC 2025 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered experiments")

    exp = sub.add_parser("experiment", help="run a registered experiment")
    exp.add_argument("experiment_id", help="experiment id (see `repro list`)")
    exp.add_argument("--scale", choices=SCALES, default="small")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for sweep repetitions (default: serial; "
        "results are bit-identical at any worker count)",
    )
    exp.add_argument(
        "--markdown", action="store_true",
        help="emit Markdown tables instead of fixed-width text",
    )

    sce = sub.add_parser(
        "scenario",
        help="run scripted fault campaigns (mid-run faults, churn, "
        "adversarial schedulers)",
    )
    sce_sub = sce.add_subparsers(dest="scenario_command", required=True)
    sce_sub.add_parser("list", help="list all canned campaigns")
    sce_run = sce_sub.add_parser("run", help="run one campaign")
    sce_run.add_argument(
        "campaign_id", help="campaign id (see `repro scenario list`)"
    )
    sce_run.add_argument("--scale", choices=SCALES, default="small")
    sce_run.add_argument("--seed", type=int, default=0)
    sce_run.add_argument(
        "--repetitions", type=int, default=None,
        help="override the campaign's per-scale repetition count",
    )
    sce_run.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for campaign repetitions (default: "
        "serial; bit-identical at any worker count)",
    )
    sce_run.add_argument(
        "--markdown", action="store_true",
        help="emit Markdown tables instead of fixed-width text",
    )
    sce_run.add_argument(
        "--trace", default=None, metavar="JSONL",
        help="write the campaign's merged logical trace to this file "
        "(deterministic: identical at any --workers count; inspect "
        "with `repro trace summarize`)",
    )

    sim = sub.add_parser("simulate", help="run one protocol to silence")
    sim.add_argument("--protocol", choices=_PROTOCOLS, default="tree")
    sim.add_argument("--n", type=int, default=100, help="population size")
    sim.add_argument(
        "--start", choices=["random", "k-distant", "pileup", "solved"],
        default="random",
    )
    sim.add_argument("--k", type=int, default=1, help="distance for k-distant")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--engine", choices=["jump", "sequential"], default="jump"
    )
    sim.add_argument(
        "--backend", choices=["python", "numpy"], default="python",
        help="execution substrate: 'python' (scalar hot paths, default) "
        "or 'numpy' (the vectorised batch kernel where supported; "
        "step-distribution-identical to the scalar engines)",
    )
    sim.add_argument(
        "--max-interactions", type=int, default=None,
        help="abort after this many scheduler steps",
    )

    ren = sub.add_parser("render", help="print a structure as text")
    ren.add_argument(
        "structure", choices=["figure1", "figure2", "graph", "tree", "ring"]
    )
    ren.add_argument(
        "--size", type=int, default=None,
        help="lines for graph, n for tree, m for ring",
    )

    rep = sub.add_parser(
        "report", help="run all experiments and write EXPERIMENTS.md"
    )
    rep.add_argument("--scale", choices=SCALES, default="small")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for sweep repetitions (default: serial)",
    )
    rep.add_argument(
        "--output", default="EXPERIMENTS.md",
        help="path to write (use '-' for stdout)",
    )

    ben = sub.add_parser(
        "bench",
        help="measure hot-path throughput vs the seed engine's recorded "
        "numbers",
    )
    ben.add_argument(
        "--quick", action="store_true",
        help="small populations and budgets (seconds, for CI smoke)",
    )
    ben.add_argument(
        "--output-dir", default=".",
        help="directory for BENCH_<timestamp>.json ('-' to skip writing)",
    )
    ben.add_argument(
        "--require-speedup", action="append", default=[],
        metavar="CASE:FLOOR",
        help="fail unless CASE's ratio is >= FLOOR: speedup over the "
        "seed engine for engine cases, weighted over rejection for "
        "tree-biased/tree-epoch cases, batch over scalar for -np cases "
        "(repeatable; the CI regression gate, e.g. tree-n256:2.0)",
    )
    ben.add_argument(
        "--compare", default=None, metavar="BASELINE_JSON",
        help="diff this run against a committed BENCH_*.json of the "
        "same tier (--quick or full) and fail on any >25%% regression of "
        "the machine-relative throughput ratios (the CI trend gate)",
    )
    ben.add_argument(
        "--history", default=None, metavar="CSV",
        help="append this run's per-case events/s to a bench_history.csv "
        "and print the ASCII trend table (the nightly trend artifact)",
    )
    ben.add_argument(
        "--instrument", action="store_true",
        help="report engine counters (draws per event, proposals per "
        "pool draw, sprint share) instead of timing — the residual-cost "
        "breakdown",
    )
    ben.add_argument(
        "--backend", choices=["python", "numpy"], default="python",
        help="backend for --instrument runs: 'numpy' routes cases onto "
        "the batch kernel and reports its batch-level counters (events "
        "per Python touch, refill/confirm rates); timing runs always "
        "measure both backends via the *-np cases",
    )

    ens = sub.add_parser(
        "ensemble",
        help="run / continue / inspect resumable sharded ensembles",
    )
    ens_sub = ens.add_subparsers(dest="ensemble_command", required=True)
    ens_run = ens_sub.add_parser(
        "run",
        help="run one sharded ensemble; rerun to continue it, or start "
        "several on one shared directory to drain it together",
    )
    ens_run.add_argument(
        "--campaign", default=None, metavar="ID",
        help="campaign id (see `repro scenario list`); required when "
        "--out holds no ensemble yet",
    )
    ens_run.add_argument(
        "--scale", choices=SCALES, default=None,
        help="campaign scale (default: smoke)",
    )
    ens_run.add_argument(
        "--seed", type=int, default=None, help="root seed (default 0)"
    )
    ens_run.add_argument(
        "--runs", type=int, default=None,
        help="total seeded runs (default: the campaign's per-scale "
        "repetition count)",
    )
    ens_run.add_argument(
        "--shard-size", type=int, default=None,
        help="runs per shard file (bounds peak memory; default 1000)",
    )
    ens_run.add_argument(
        "--out", required=True, metavar="DIR",
        help="ensemble directory (manifest, shards, aggregates); one that "
        "already holds an ensemble is continued, and any flag above "
        "that contradicts its manifest is refused",
    )
    ens_run.add_argument(
        "--workers", type=int, default=None,
        help="supervised process-pool size (default: serial; results "
        "are bit-identical at any worker count)",
    )
    ens_run.add_argument(
        "--max-events", type=int, default=None,
        help="default per-phase event budget for scenario run phases",
    )
    ens_run.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock deadline in seconds (hung runs are "
        "killed, retried, then quarantined)",
    )
    ens_run.add_argument(
        "--max-attempts", type=int, default=3,
        help="crash/hang attempts per run before quarantine (default 3)",
    )
    ens_run.add_argument(
        "--backoff", type=float, default=0.25,
        help="first retry delay in seconds, doubling per attempt "
        "(default 0.25)",
    )
    ens_run.add_argument(
        "--ttl", type=float, default=30.0,
        help="shard lease time-to-live in seconds; a worker silent "
        "longer than this has its shard reclaimed, at once if it died "
        "in this machine's pid namespace (default 30)",
    )
    ens_run.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="override the worker identity in leases and traces "
        "(default: <host>-<pid>-<uuid>)",
    )
    ens_run.add_argument(
        "--progress", action="store_true",
        help="live ASCII progress dashboard on stderr (shards, runs, "
        "throughput, ETA, supervision interventions)",
    )
    ens_run.add_argument(
        "--trace", default=None, metavar="JSONL",
        help="write this worker's operational trace (lease claims/"
        "renews/steals, shard commits, supervision events) to this "
        "file; inspect with `repro trace validate`",
    )
    ens_status = ens_sub.add_parser(
        "status", help="summarise an ensemble directory"
    )
    ens_status.add_argument("--out", required=True, metavar="DIR")

    trc = sub.add_parser(
        "trace", help="summarize / diff / validate structured run traces"
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    trc_sum = trc_sub.add_parser(
        "summarize",
        help="rebuild the campaign recovery tables from a trace file",
    )
    trc_sum.add_argument("trace_path", metavar="JSONL")
    trc_diff = trc_sub.add_parser(
        "diff",
        help="compare two traces' logical histories (exit 1 on any "
        "difference)",
    )
    trc_diff.add_argument("trace_a", metavar="A.JSONL")
    trc_diff.add_argument("trace_b", metavar="B.JSONL")
    trc_val = trc_sub.add_parser(
        "validate", help="schema-check a trace file"
    )
    trc_val.add_argument("trace_path", metavar="JSONL")

    srv = sub.add_parser(
        "serve",
        help="serve simulations over HTTP/WebSocket (versioned JobSpec "
        "API; digest-cached results, bounded-queue backpressure, live "
        "event streaming; see README 'Serving')",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; the bound port is printed)",
    )
    srv.add_argument(
        "--queue-size", type=int, default=16,
        help="bounded job-queue depth; submissions beyond it are "
        "rejected with 429 + Retry-After (default 16)",
    )
    srv.add_argument(
        "--cache-size", type=int, default=32,
        help="finished results kept for digest-identical replay "
        "(default 32)",
    )
    return parser


def _cmd_list() -> int:
    from .experiments.registry import list_experiments

    for experiment in list_experiments():
        print(f"{experiment.experiment_id:20s} {experiment.description}")
        print(f"{'':20s}   [{experiment.paper_reference}]")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.registry import run_experiment

    result = run_experiment(
        args.experiment_id,
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
    )
    print(result.to_markdown() if args.markdown else result.render())
    return 0


def _describe_epoch(epoch) -> str:
    """One-line rendering of a timeline segment for `scenario run`."""
    scheduler = epoch.label or epoch.scheduler.kind
    if epoch.until is None:
        return f"{scheduler} (until the run ends)"
    if epoch.until in ("events", "interactions"):
        return f"{scheduler} for {epoch.value} {epoch.until}"
    if epoch.until == "predicate":
        return f"{scheduler} until {epoch.predicate}"
    return f"{scheduler} until {epoch.until}"


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .analysis.recovery import (
        epoch_table,
        phase_table,
        recovery_table,
        survival_table,
    )
    from .scenarios import get_campaign, list_campaigns, run_campaign

    if args.scenario_command == "list":
        for campaign in list_campaigns():
            print(f"{campaign.campaign_id:24s} {campaign.description}")
        return 0

    from .jobspec import JobSpec

    campaign = get_campaign(args.campaign_id)
    # The run is specified by the same versioned JobSpec `repro serve`
    # accepts; run_campaign consumes the spec's fields, so the
    # trajectories are bit-identical to the pre-JobSpec flag handling.
    spec = JobSpec.from_campaign(
        args.campaign_id,
        scale=args.scale,
        seed=args.seed,
        repetitions=args.repetitions,
        trace=args.trace is not None,
    )
    scenario = spec.scenario
    repetitions = spec.repetitions
    result = run_campaign(
        scenario,
        repetitions=repetitions,
        seed=spec.seed,
        workers=args.workers,
        collect_trace=spec.trace,
    )
    if args.trace is not None:
        from .obs import TraceWriter, merge_trace_events

        writer = TraceWriter(
            args.trace,
            source="scenario-run",
            campaign=args.campaign_id,
            scale=args.scale,
            seed=args.seed,
            repetitions=repetitions,
            jobspec_digest=spec.digest(),
        )
        writer.extend(
            merge_trace_events([r.trace_events for r in result.results])
        )
        print(f"wrote trace {writer.write()}", file=sys.stderr)
    tables = [recovery_table(result), phase_table(result),
              survival_table(result)]
    if scenario.timeline:
        tables.append(epoch_table(result))
    print(f"campaign     : {campaign.campaign_id}")
    print(f"scenario     : {scenario.description or scenario.name}")
    print(f"protocol     : {scenario.protocol.kind} "
          f"(n={scenario.protocol.num_agents})")
    if scenario.timeline:
        print("scheduler    : epoch timeline — "
              + "; then ".join(
                  _describe_epoch(epoch) for epoch in scenario.timeline
              ))
    else:
        print(f"scheduler    : {scenario.scheduler.kind}")
    print(f"repetitions  : {repetitions} (seed {args.seed})")
    print(f"recovered    : {result.recovered_fraction:.0%} of repetitions "
          "re-silenced after every fault")
    print()
    print("\n\n".join(
        table.to_markdown() if args.markdown else table.render()
        for table in tables
    ))
    return 0 if result.recovered_fraction == 1.0 else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.engine import run_protocol
    from .jobspec import JobSpec
    from .protocols.leader import count_leaders

    legacy = dict(
        protocol=args.protocol,
        n=args.n,
        start=args.start,
        seed=args.seed,
        engine=args.engine,
        backend=args.backend,
        max_interactions=args.max_interactions,
    )
    if args.start == "k-distant":
        # k only reaches the spec when it actually applies — the
        # adapter warns on genuinely conflicting combinations.
        legacy["k"] = args.k
    spec = JobSpec.from_legacy_kwargs(**legacy)
    kwargs = spec.to_run_kwargs()
    protocol = kwargs.pop("protocol")
    start = kwargs.pop("configuration")
    result = run_protocol(protocol, start, **kwargs)
    final = result.final_configuration
    print(f"protocol            : {protocol.name}")
    print(f"population n        : {protocol.num_agents}")
    print(f"extra states x      : {protocol.num_extra_states}")
    print(f"silent              : {result.silent}")
    print(f"correctly ranked    : {protocol.is_ranked(final)}")
    print(f"unique leader       : {count_leaders(protocol, final) == 1}")
    print(f"interactions        : {result.interactions}")
    print(f"parallel time       : {result.parallel_time:.1f}")
    print(f"productive events   : {result.events}")
    print(f"wall time           : {result.wall_time_s:.3f}s")
    return 0 if result.silent else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    content = generate_report(
        scale=args.scale, seed=args.seed, workers=args.workers
    )
    if args.output == "-":
        print(content)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(content)
        print(f"wrote {args.output} ({len(content.splitlines())} lines)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from .analysis.bench import (
        COMPARE_TOLERANCE,
        append_bench_history,
        check_bench_history,
        check_same_tier,
        check_speedup_floors,
        compare_bench,
        load_bench,
        read_bench_history,
        render_bench,
        run_bench,
        write_bench_json,
    )

    # Validate before measuring — the suite takes a while and the JSON
    # is its whole point.
    if args.output_dir != "-" and not os.path.isdir(args.output_dir):
        raise ReproError(f"output directory {args.output_dir!r} does not exist")
    baseline = None
    if args.compare is not None:
        if not os.path.isfile(args.compare):
            raise ReproError(f"baseline record {args.compare!r} does not exist")
        baseline = load_bench(args.compare)
        check_same_tier(args.quick, baseline)
    if args.history is not None:
        check_bench_history(args.history)
    floors = {}
    for spec in args.require_speedup:
        case_id, sep, floor = spec.rpartition(":")
        if not sep or not case_id:
            raise ReproError(
                f"--require-speedup expects CASE:FLOOR, got {spec!r}"
            )
        try:
            floors[case_id] = float(floor)
        except ValueError:
            raise ReproError(
                f"--require-speedup floor {floor!r} is not a number"
            ) from None
    if args.instrument:
        from .analysis.bench import instrument_bench, render_instrument

        print(render_instrument(
            instrument_bench(quick=args.quick, backend=args.backend)
        ))
        return 0
    record = run_bench(quick=args.quick)
    print(render_bench(record))
    if args.output_dir != "-":
        path = write_bench_json(record, output_dir=args.output_dir)
        print(f"wrote {path}")
    if args.history is not None:
        rows = append_bench_history(record, args.history)
        print(f"appended {rows} rows to {args.history}")
        from .viz.ascii import render_trend_table

        print(render_trend_table(read_bench_history(args.history)))
    if floors:
        check_speedup_floors(record, floors)
        print(
            "speedup floors ok: "
            + ", ".join(f"{c}>={f}" for c, f in sorted(floors.items()))
        )
    if baseline is not None:
        lines = compare_bench(record, baseline)
        print(
            f"trend vs baseline {baseline.get('timestamp', '?')} "
            f"(tolerance {COMPARE_TOLERANCE:.0%}):"
        )
        for line in lines:
            print(f"  {line}")
    return 0


def _print_ensemble_summary(aggregate: dict, out_dir: str) -> int:
    """The end-of-run report of ``ensemble run``."""
    summary = aggregate["aggregates"]
    print(f"campaign      : {aggregate['campaign']} "
          f"(scale {aggregate['scale']}, seed {aggregate['seed']})")
    print(f"runs          : {summary['runs']} of "
          f"{aggregate['total_runs']} "
          f"({summary['failed_jobs']} quarantined)")
    recovered = summary["recovered_all"]
    print(f"recovered all : {recovered['count']} "
          f"({recovered['fraction']:.1%})")
    times = summary["parallel_time"]
    print(f"parallel time : mean {times['mean']:.1f}, "
          f"p50 {times['p50']:.1f}, p90 {times['p90']:.1f}, "
          f"p99 {times['p99']:.1f}")
    print(f"aggregates    : {out_dir}/aggregates.json")
    return 0 if summary["failed_jobs"] == 0 else 1


def _ensemble_dashboard(out_dir: str):
    """The ``--progress`` sink: one line per finished shard or fault.

    Done shards are counted from one listing of the directory's
    ``shard-<i>.done`` markers, so the line counts every cooperating
    worker's commits at O(1) file operations an event.  The rate and
    ETA cover the runs committed since this process began draining, not
    those of an earlier run of the directory.
    """
    import os
    import time

    from .ensemble.manifest import done_marker_path, load_manifest
    from .viz.ascii import render_ensemble_progress

    tally = {"quarantine": 0, "retry": 0}
    view = {}

    def committed():
        runs = [
            view["runs"][name]
            for name in os.listdir(out_dir) if name in view["runs"]
        ]
        return len(runs), sum(runs)

    def sink(kind, fields):
        if not view:
            # The first event (a lease claim) follows the manifest's
            # creation and precedes this process's first commit.
            manifest = load_manifest(out_dir)
            view["runs"] = {
                os.path.basename(done_marker_path(out_dir, shard["index"])):
                    shard["stop"] - shard["start"]
                for shard in manifest["shards"]
            }
            view["totals"] = (manifest["total_runs"], len(manifest["shards"]))
            view["begin"] = time.monotonic()
            view["baseline"] = committed()[1]
        if kind in tally:
            tally[kind] += 1
        elif kind != "shard_done":
            return
        shards_done, runs_done = committed()
        total_runs, shards_total = view["totals"]
        elapsed = time.monotonic() - view["begin"]
        runs_new = runs_done - view["baseline"]
        throughput = runs_new / elapsed if runs_new and elapsed > 0 else None
        remaining = total_runs - runs_done
        eta_s = remaining / throughput if throughput and remaining else None
        print(
            render_ensemble_progress(
                runs_done=runs_done,
                total_runs=total_runs,
                shards_done=shards_done,
                shards_total=shards_total,
                throughput=throughput,
                eta_s=eta_s,
                quarantined=tally["quarantine"],
                retries=tally["retry"],
            ),
            file=sys.stderr,
        )

    return sink


def _cmd_ensemble_status(args: argparse.Namespace) -> int:
    from .ensemble import ensemble_status

    status = ensemble_status(args.out)
    scalars = {
        k: v for k, v in status.items()
        if k not in ("shards", "throughput_runs_per_s", "eta_s", "workers")
    }
    width = max(len(key) for key in scalars)
    for key, value in scalars.items():
        print(f"{key:{width}s} : {value}")
    if status["shards"]:
        print(f"{'shards':{width}s} :")
        print(f"  {'shard':>5} {'runs':>6} {'runs/s':>10}")
        for row in status["shards"]:
            rate = row["throughput_runs_per_s"]
            rate_text = f"{rate:,.1f}" if rate is not None else "-"
            print(f"  {row['index']:>5} {row['runs']:>6} {rate_text:>10}")
    if status["workers"]:
        print(f"{'workers':{width}s} :")
        print(f"  {'shard':>5} {'token':>5} {'expires':>9}  owner")
        for row in status["workers"]:
            expiry = (
                "EXPIRED"
                if row["expired"]
                else f"{row['expires_in_s']:.1f}s"
            )
            print(
                f"  {row['shard']:>5} {row['token']:>5} "
                f"{expiry:>9}  {row['owner']}"
            )
    from .viz.ascii import render_ensemble_progress

    print(render_ensemble_progress(
        runs_done=status["runs_done"],
        total_runs=status["total_runs"],
        shards_done=status["shards_done"],
        shards_total=status["shards_total"],
        throughput=status["throughput_runs_per_s"],
        eta_s=status["eta_s"],
    ))
    return 0 if status["complete"] else 1


def _cmd_ensemble(args: argparse.Namespace) -> int:
    if args.ensemble_command == "status":
        return _cmd_ensemble_status(args)

    from .analysis.supervision import ShutdownLatch, SupervisionPolicy
    from .ensemble import run_ensemble, worker_identity

    policy = SupervisionPolicy(
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff,
        fail_fast=False,
    )
    worker = args.worker_id or worker_identity()
    sinks = []
    writer = None
    if args.trace is not None:
        from .obs import TraceWriter

        writer = TraceWriter(
            args.trace, source="ensemble-run", worker=worker, out_dir=args.out,
        )
        sinks.append(lambda kind, fields: writer.emit(kind, **fields))
    if args.progress:
        sinks.append(_ensemble_dashboard(args.out))

    def observer(kind, fields):
        for sink in sinks:
            sink(kind, fields)

    with ShutdownLatch() as latch:
        try:
            aggregate = run_ensemble(
                args.out,
                campaign_id=args.campaign,
                scale=args.scale,
                total_runs=args.runs,
                shard_size=args.shard_size,
                seed=args.seed,
                workers=args.workers,
                default_max_events=args.max_events,
                policy=policy,
                ttl=args.ttl,
                worker=worker,
                shutdown=latch,
                progress=lambda line: print(line, file=sys.stderr),
                observer=observer if sinks else None,
            )
        finally:
            if writer is not None:
                print(f"wrote trace {writer.write()}", file=sys.stderr)
    if aggregate is None:
        print(
            f"worker {worker} stopped on request — finished shards are "
            f"committed; continue with `repro ensemble run --out {args.out}`",
            file=sys.stderr,
        )
        return 143
    return _print_ensemble_summary(aggregate, args.out)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        TraceReader,
        diff_traces,
        summarize_trace,
        validate_trace,
    )

    if args.trace_command == "summarize":
        reader = TraceReader(args.trace_path)
        print(summarize_trace(reader.records))
        return 0
    if args.trace_command == "validate":
        reader = TraceReader(args.trace_path)
        validate_trace(reader.records)
        logical = len(reader.logical())
        operational = len(reader.operational())
        print(
            f"{args.trace_path}: valid v{reader.header['version']} trace "
            f"from {reader.header.get('source', '?')} — {logical} logical "
            f"+ {operational} operational records"
        )
        return 0
    lines = diff_traces(
        TraceReader(args.trace_a).logical(),
        TraceReader(args.trace_b).logical(),
    )
    if not lines:
        print("logical histories are identical")
        return 0
    for line in lines:
        print(line)
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    # The server module imports the engine stack (jobspec, scenarios,
    # engines), so the server pays for its imports before it prints its
    # `listening` line, not in its first job.
    from .serve import serve_forever

    # SIGTERM → graceful wind-down → exit 143 (the `ensemble run`
    # contract); SIGINT → 130.  A running job is parked at its next
    # safe boundary before the process exits.
    return asyncio.run(
        serve_forever(
            host=args.host,
            port=args.port,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
        )
    )


def _cmd_render(args: argparse.Namespace) -> int:
    from .configurations.generators import solved_configuration
    from .protocols.ring import RingOfTrapsProtocol
    from .protocols.routing import build_routing_graph
    from .protocols.tree import PerfectlyBalancedTree
    from .viz.ascii import render_ring, render_routing_graph, render_tree

    if args.structure == "figure1":
        print(render_routing_graph(build_routing_graph(16)))
    elif args.structure == "figure2":
        print(render_tree(PerfectlyBalancedTree(9)))
    elif args.structure == "graph":
        print(render_routing_graph(build_routing_graph(args.size or 16)))
    elif args.structure == "tree":
        print(render_tree(PerfectlyBalancedTree(args.size or 9)))
    else:
        protocol = RingOfTrapsProtocol(m=args.size or 4)
        counts = solved_configuration(protocol).counts_list()
        print(render_ring(protocol, counts))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "ensemble":
            return _cmd_ensemble(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_render(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # One clean line instead of a stack trace; long-running
        # commands are interrupted deliberately all the time.
        message = "interrupted"
        if getattr(args, "ensemble_command", None) == "run":
            message += (
                f" — committed shards are safe; continue with "
                f"`repro ensemble run --out {args.out}`"
            )
        print(message, file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())

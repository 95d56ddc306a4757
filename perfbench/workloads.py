"""The four workloads: how each builds its inputs, runs one op, and checks it.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  Op inputs are a pure function of
``(workload, seed, op index)``, so two runs at one seed submit the same
JobSpecs and must get the same results.

Each ``op`` returns an :class:`Outcome`.  Its ``wall`` is what the caller
waits for, so checks the benchmark makes afterwards are not timed.  Its
``samples`` are the ``(begin, end)`` clock readings of each unit, so the
kernel passes inside them can be found (``calibrate.py``).  ``verify``
runs once after the loop and marks failed outcomes.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from calibrate import Sampler
from spans import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Fresh interpreters (or servers) launched to measure ``setup_s``.
SETUP_LAUNCHES = 9


def op_seed(workload: str, seed: int, index: int) -> int:
    """A distinct, reproducible JobSpec seed for one op."""
    text = f"{workload}/{seed}/{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def spec_digest(spec) -> str:
    """``JobSpec.digest()``, computed without entering a traced call."""
    return hashlib.sha256(spec.canonical_json().encode("utf-8")).hexdigest()


def counts_digest(counts) -> str:
    return hashlib.sha256(
        json.dumps([int(c) for c in counts]).encode("ascii")
    ).hexdigest()


def child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


@dataclass
class Outcome:
    index: int
    started: float = 0.0
    wall: float = 0.0
    events: int = 0
    units: int = 1
    samples: List[Tuple[float, float]] = field(default_factory=list)
    first_progress: Optional[float] = None
    fingerprint: Optional[str] = None
    digest: Optional[str] = None
    error: Optional[str] = None
    warmup: bool = False
    extra: Dict = field(default_factory=dict)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_setup(modules: List[str]) -> List[Tuple[float, float]]:
    """``(seconds, seconds at the reference speed)`` from launching a
    fresh interpreter until ``modules`` are imported, once per launch.
    The child samples the kernel while it imports and reports the passes
    after its ``ready`` line."""
    code = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import calibrate\n"
        "sampler = calibrate.Sampler()\n"
        "sampler.start()\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "sampler.stop()\n"
        "print('ready', flush=True)\n"
        "print(json.dumps(sampler.samples), flush=True)\n"
    )
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            env=child_env(), text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = clock()
            passes = proc.stdout.readline()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup import failed: {line!r}")
        sampler = Sampler([tuple(s) for s in json.loads(passes)])
        samples.append((ready - start, sampler.at_reference(start, ready)))
    return samples


class Workload:
    """Shared defaults: in-process ops, setup measured by importing."""

    name = ""
    setup_modules: List[str] = []

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.sampler = Sampler()

    def measure_setup(self) -> List[Tuple[float, float]]:
        return _import_setup(self.setup_modules)

    def start(
        self, traced: bool, span_path: Optional[str] = None,
        sample: bool = False,
    ) -> None:
        """Get ready for ops (the serve workload launches its server).
        With ``sample``, the kernel is sampled where the ops run: here,
        in the benchmark process."""
        if sample:
            self.sampler.start()

    def stop(self) -> Dict:
        """Finish; returns ``{"peak_rss_mb": ..., "spans": [...],
        "sampler": ...}``."""
        self.sampler.stop()
        return {
            "peak_rss_mb": _self_peak_rss_mb(), "spans": [],
            "sampler": self.sampler,
        }

    def close(self) -> None:
        """Release whatever is still held after an error."""
        self.sampler.stop()

    def op(self, index: int, tracer) -> Outcome:
        raise NotImplementedError

    def verify(self, outcomes: List[Outcome]) -> None:
        """Deferred checks; sets ``error`` on failing outcomes."""


# ----------------------------------------------------------------------
# simulate-ring-large
# ----------------------------------------------------------------------
class SimulateRing(Workload):
    name = "simulate-ring-large"
    setup_modules = ["repro.cli", "repro.jobspec", "repro.core.jump"]

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.m = 4 if tiny else 300
        self.k = 3 if tiny else 1000
        self.max_events = 2000 if tiny else 300_000

    def spec_kwargs(self, index: int) -> Dict:
        return dict(
            protocol="ring", m=self.m, n=self.m * (self.m + 1),
            start="k-distant", k=self.k, max_events=self.max_events,
            seed=op_seed(self.name, self.seed, index),
        )

    def op(self, index: int, tracer) -> Outcome:
        from repro.core.engine import run_protocol
        from repro.jobspec import JobSpec

        legacy = self.spec_kwargs(index)
        instrumentation = None
        if tracer is not None:
            from repro.obs import Instrumentation

            instrumentation = Instrumentation()
        start = clock()
        # The `repro simulate` call chain.
        spec = JobSpec.from_legacy_kwargs(**legacy)
        kwargs = spec.to_run_kwargs()
        protocol = kwargs.pop("protocol")
        configuration = kwargs.pop("configuration")
        result = run_protocol(
            protocol, configuration, instrumentation=instrumentation,
            **kwargs,
        )
        wall = clock() - start
        final = result.final_configuration
        out = Outcome(
            index=index, started=start, wall=wall, events=result.events,
            samples=[(start, start + wall)], first_progress=wall,
            fingerprint=(
                f"{result.events}/{result.interactions}/"
                f"{counts_digest(final.counts_list())}"
            ),
            digest=spec_digest(spec),
        )
        if result.silent:
            if not protocol.is_ranked(final):
                out.error = "silent result is not ranked"
        elif result.events != self.max_events:
            out.error = (
                f"non-silent run stopped at {result.events} events, "
                f"budget {self.max_events}"
            )
        if instrumentation is not None:
            out.extra["counters"] = instrumentation.counters
        return out


# ----------------------------------------------------------------------
# serve-tree-large
# ----------------------------------------------------------------------
def _ws_stream(port: int, job_id: str, timeout: float):
    """Yield ``(arrival_time, payload)`` per text frame of a job's
    stream until the server closes it; the final item is
    ``(close_time, None)``."""
    from repro.serve.wire import OP_CLOSE, OP_TEXT, decode_frame, encode_frame

    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        sock.sendall(
            (
                f"GET /v1/ws/jobs/{job_id} HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        buffered = bytearray()
        while b"\r\n\r\n" not in buffered:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed during handshake")
            buffered.extend(chunk)
        head, _, rest = bytes(buffered).partition(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0] + b" ":
            raise RuntimeError(f"websocket refused: {head[:80]!r}")
        buffered = bytearray(rest)

        def recv_exact(count: int) -> bytes:
            while len(buffered) < count:
                chunk = sock.recv(65536)
                if not chunk:
                    raise RuntimeError("stream closed mid-frame")
                buffered.extend(chunk)
            taken = bytes(buffered[:count])
            del buffered[:count]
            return taken

        while True:
            opcode, payload = decode_frame(recv_exact)
            if opcode == OP_CLOSE:
                sock.sendall(encode_frame(b"", opcode=OP_CLOSE, mask=True))
                break
            if opcode == OP_TEXT:
                yield clock(), payload
    finally:
        sock.close()
    yield clock(), None


class _Server:
    """One ``repro serve --port 0`` subprocess: plain, or through
    ``launch_serve.py`` when it is to record spans or kernel passes into
    the files named."""

    def __init__(
        self, spans: Optional[str] = None, samples: Optional[str] = None
    ) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if spans is not None or samples is not None:
            argv = [sys.executable, os.path.join(HERE, "launch_serve.py")]
            if spans is not None:
                argv += ["--spans", spans]
            if samples is not None:
                argv += ["--samples", samples]
        self.launched = clock()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=child_env(), text=True,
            cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        self.ready = clock()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


class ServeTree(Workload):
    name = "serve-tree-large"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n = 256 if tiny else 65_536
        self.max_events = 6000 if tiny else 200_000
        self.server: Optional[_Server] = None
        self.span_path: Optional[str] = None
        self.sample_path: Optional[str] = None
        self.timeout = 120.0

    def spec(self, index: int):
        from repro.jobspec import JobSpec

        return JobSpec.from_legacy_kwargs(
            protocol="tree", n=self.n, start="random",
            max_events=self.max_events,
            seed=op_seed(self.name, self.seed, index),
        )

    def _sample_path(self) -> str:
        return os.path.join(WORK, f"server-passes-{os.getpid()}.json")

    def measure_setup(self) -> List[Tuple[float, float]]:
        samples = []
        path = self._sample_path()
        for _ in range(SETUP_LAUNCHES):
            server = _Server(samples=path)
            server.stop()
            sampler = Sampler.load(path)
            os.remove(path)
            samples.append((
                server.ready - server.launched,
                sampler.at_reference(server.launched, server.ready),
            ))
        return samples

    def start(
        self, traced: bool, span_path: Optional[str] = None,
        sample: bool = False,
    ) -> None:
        if traced:
            self.span_path = span_path
            self.server = _Server(spans=span_path)
        elif sample:
            self.sample_path = self._sample_path()
            self.server = _Server(samples=self.sample_path)
        else:
            self.server = _Server()

    def stop(self) -> Dict:
        server, self.server = self.server, None
        rss = server.peak_rss_mb()
        server.stop()
        finished = {"peak_rss_mb": rss, "spans": [], "sampler": Sampler()}
        if self.span_path is not None:
            with open(self.span_path, encoding="utf-8") as handle:
                finished["spans"] = json.load(handle)
            os.remove(self.span_path)
            self.span_path = None
        if self.sample_path is not None:
            finished["sampler"] = Sampler.load(self.sample_path)
            os.remove(self.sample_path)
            self.sample_path = None
        return finished

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _submit(self, client, spec_dict):
        status, _, body = client.submit(spec_dict)
        if not 200 <= status < 300:
            raise RuntimeError(f"submit returned {status}: {body}")
        return status, body

    def op(self, index: int, tracer) -> Outcome:
        from repro.serve.client import ServeClient

        spec = self.spec(index)
        spec_dict = spec.to_dict()
        client = ServeClient(port=self.server.port, timeout=self.timeout)
        out = Outcome(index=index, digest=spec_digest(spec))
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        start = clock()
        with span("serve.submit"):
            status, body = self._submit(client, spec_dict)
        submitted = clock()
        job_started = first_progress = done = None
        live: List[bytes] = []
        for arrival, payload in _ws_stream(
            self.server.port, body["id"], self.timeout
        ):
            if payload is None:
                closed = arrival
                break
            live.append(payload)
            kind = json.loads(payload)["kind"]
            if kind == "job_start" and job_started is None:
                job_started = arrival
            elif kind == "job_progress" and first_progress is None:
                first_progress = arrival
            elif kind == "job_done":
                done = arrival
        if done is None:
            raise RuntimeError("stream ended without job_done")
        job = client.job(body["id"])
        if tracer is not None and job_started is not None:
            tracer.record("serve.queue_wait", submitted, job_started)
        # The same spec again: answered from the digest-keyed cache.
        replay_start = clock()
        with span("serve.replay"):
            replay_status, replay_body = self._submit(client, spec_dict)
            replay = [
                payload
                for _, payload in _ws_stream(
                    self.server.port, replay_body["id"], self.timeout
                )
                if payload is not None
            ]
        end = clock()

        result = job.get("result") or {}
        out.started = start
        out.wall = end - start
        out.events = int(result.get("events", 0))
        out.samples = [(start, done)]
        out.first_progress = (
            first_progress - start if first_progress is not None
            else done - start
        )
        out.fingerprint = (
            f"{result.get('events')}/{result.get('interactions')}/"
            f"{counts_digest(result.get('counts', []))}"
        )
        out.extra = {
            "result": result,
            "closed": closed,
            "frames": len(live),
            "bytes": sum(len(p) for p in live),
            "replay_s": end - replay_start,
            "replay_cached": bool(replay_body.get("cached")),
        }
        if status != 202:
            out.error = f"first submission answered {status}, expected 202"
        elif json.loads(live[-1]).get("status") != "done":
            out.error = f"job ended {live[-1]!r}"
        elif replay_status != 200 or not replay_body.get("cached"):
            out.error = "resubmission was not answered from the cache"
        elif replay != live:
            out.error = "cached replay differs from the live stream"
        return out

    def verify(self, outcomes: List[Outcome]) -> None:
        from repro.core.configuration import Configuration
        from repro.scenarios.spec import ProtocolSpec

        protocol = None
        for out in outcomes:
            result = out.extra.get("result")
            if out.error is not None or result is None:
                continue
            if result.get("silent"):
                if protocol is None:
                    protocol = ProtocolSpec(
                        kind="tree", num_agents=self.n
                    ).build()
                if not protocol.is_ranked(Configuration(result["counts"])):
                    out.error = "silent result is not ranked"
            elif (
                result.get("stop_reason") != "events"
                or result.get("events") != self.max_events
            ):
                out.error = (
                    f"non-silent job stopped at {result.get('events')} "
                    f"events ({result.get('stop_reason')}), budget "
                    f"{self.max_events}"
                )

    def surface_divergence(self, outcomes: List[Outcome]) -> int:
        """Specs whose direct ``run_protocol`` result differs from the
        served one (same JobSpec, two surfaces)."""
        from repro.core.engine import run_protocol

        differing = 0
        for out in outcomes:
            if out.fingerprint is None:
                continue
            result = run_protocol(**self.spec(out.index).to_run_kwargs())
            direct = (
                f"{result.events}/{result.interactions}/"
                f"{counts_digest(result.final_configuration.counts_list())}"
            )
            differing += direct != out.fingerprint
        return differing


# ----------------------------------------------------------------------
# ensemble-tree-small
# ----------------------------------------------------------------------
class EnsembleTree(Workload):
    name = "ensemble-tree-small"
    setup_modules = ["repro.cli", "repro.ensemble", "repro.scenarios"]
    campaign = "tree_corrupt_recover"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.scale = "smoke" if tiny else "small"
        self.total_runs = 4 if tiny else 20
        self.shard_size = 2 if tiny else 5
        self.dirs: List[str] = []

    def op(self, index: int, tracer) -> Outcome:
        from repro.ensemble import run_ensemble

        out_dir = os.path.join(WORK, f"ensemble-{os.getpid()}-{index}")
        if tracer is not None:
            out_dir += "-traced"
        shutil.rmtree(out_dir, ignore_errors=True)
        self.dirs.append(out_dir)
        opened: Dict[int, float] = {}
        shards: List[Tuple[float, float]] = []
        done_at: List[float] = []

        def observer(kind, fields):
            if kind == "shard_start":
                opened[fields["shard"]] = clock()
            elif kind == "shard_done":
                now = clock()
                done_at.append(now)
                shards.append((opened.pop(fields["shard"]), now))

        start = clock()
        aggregate = run_ensemble(
            out_dir, campaign_id=self.campaign, scale=self.scale,
            total_runs=self.total_runs, shard_size=self.shard_size,
            seed=op_seed(self.name, self.seed, index), workers=1,
            observer=observer,
        )
        end = clock()
        if tracer is not None and done_at:
            tracer.record("ensemble.aggregate", done_at[-1], end)
        summary = aggregate["aggregates"]
        events = summary["total_events"]
        with open(os.path.join(out_dir, "aggregates.json"), "rb") as fh:
            aggregates_sha = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            digest = json.load(fh).get("jobspec_digest")
        out = Outcome(
            index=index, started=start, wall=end - start,
            events=round(events["mean"] * events["count"])
            if events["count"] else 0,
            units=summary["runs"], samples=shards,
            first_progress=(done_at[0] - start) if done_at else end - start,
            fingerprint=aggregates_sha, digest=digest,
        )
        if summary["failed_jobs"]:
            out.error = f"{summary['failed_jobs']} runs quarantined"
        elif summary["runs"] != self.total_runs:
            out.error = f"{summary['runs']} of {self.total_runs} runs done"
        return out

    def stop(self) -> Dict:
        for path in self.dirs:
            shutil.rmtree(path, ignore_errors=True)
        self.dirs = []
        return super().stop()


# ----------------------------------------------------------------------
# scenario-epoch-tree
# ----------------------------------------------------------------------
class ScenarioEpochTree(Workload):
    name = "scenario-epoch-tree"
    setup_modules = [
        "repro.cli", "repro.jobspec", "repro.scenarios",
        "repro.core.scheduler",
    ]
    campaign = "tree_epoch_bias_flip"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.scale = "smoke" if tiny else "small"
        self.repetitions = 2 if tiny else 4

    def op(self, index: int, tracer) -> Outcome:
        from repro.ensemble import run_record
        from repro.jobspec import JobSpec
        from repro.scenarios import run_campaign

        start = clock()
        # The `repro scenario run` path: a JobSpec, then run_campaign.
        spec = JobSpec.from_campaign(
            self.campaign, scale=self.scale,
            seed=op_seed(self.name, self.seed, index),
            repetitions=self.repetitions,
        )
        result = run_campaign(
            spec.scenario, repetitions=spec.repetitions, seed=spec.seed,
            workers=1, collect_trace=spec.trace,
        )
        wall = clock() - start
        records = [run_record(r, i) for i, r in enumerate(result.results)]
        out = Outcome(
            index=index, started=start, wall=wall,
            events=sum(r.total_events for r in result.results),
            units=len(result.results), samples=[(start, start + wall)],
            first_progress=wall,
            fingerprint=hashlib.sha256(
                json.dumps(records, sort_keys=True).encode("utf-8")
            ).hexdigest(),
            digest=spec_digest(spec),
        )
        if result.failures:
            out.error = f"{len(result.failures)} repetitions quarantined"
        elif len(records) != self.repetitions:
            out.error = f"{len(records)} of {self.repetitions} repetitions"
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (SimulateRing, ServeTree, EnsembleTree, ScenarioEpochTree)
}

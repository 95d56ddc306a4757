"""``repro serve``: simulation-as-a-service over one versioned JobSpec.

:class:`ReproServer` is a stdlib-only asyncio HTTP + WebSocket server.
Every request surface speaks the same :class:`~repro.jobspec.JobSpec`
the CLI and the programmatic API construct — there is no server-side
dialect.

Endpoints (all JSON):

* ``POST /v1/jobs`` — submit a v1 JobSpec.  ``202`` queued, ``200``
  when the digest is already cached (replayed without re-running) or
  already in flight (deduplicated), ``400`` naming the offending field,
  ``429`` + ``Retry-After`` when the bounded job queue is full.
* ``GET /v1/jobs`` / ``GET /v1/jobs/<id>`` — registry / one job
  (result included once done).
* ``POST /v1/jobs/<id>/pause`` / ``.../resume`` — park a running job
  via the engine-snapshot seam and re-enqueue it later.
* ``GET /v1/health`` — liveness + queue depth.
* ``GET /v1/ws/jobs/<id>`` (WebSocket) — the job's event stream:
  history replayed first, then live records as the executor emits them,
  closing after the terminal ``job_done`` record.

Concurrency model: one dispatcher task pulls jobs off a bounded
``asyncio.Queue`` (the backpressure boundary — submissions that do not
fit are rejected, never buffered) and runs each on a single executor
thread; the synchronous runner reports records back through
``loop.call_soon_threadsafe``, so all registry state is touched only on
the event loop, and the front door stays responsive while a job runs.

Results are cached by ``JobSpec.digest()`` — the sha256 of the
canonical spec, which already folds in the seed — and replays stream
the stored records byte-identically (no wall-clock fields, no job ids
in the stream).
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..jobspec import JobSpec, JobSpecError
from .runner import JobControl, execute_jobspec
from .wire import (
    OP_CLOSE,
    OP_TEXT,
    WireError,
    encode_frame,
    http_response,
    read_http_request,
    websocket_accept,
)

__all__ = ["Job", "ReproServer", "serve_forever"]

_JOB_PATH = re.compile(r"^/v1/jobs/(job-\d+)$")
_JOB_ACTION_PATH = re.compile(r"^/v1/jobs/(job-\d+)/(pause|resume)$")
_WS_PATH = re.compile(r"^/v1/ws/jobs/(job-\d+)$")

#: Retry hint (seconds) sent with a 429 queue-full rejection.
RETRY_AFTER_S = 1


class Job:
    """One submitted job: spec, lifecycle state, and its event history."""

    def __init__(self, job_id: str, spec: JobSpec, digest: str) -> None:
        self.id = job_id
        self.spec = spec
        self.digest = digest
        self.status = "queued"  # queued|running|paused|done|failed
        self.cached = False
        self.events: List[Dict] = []
        self.result: Optional[Dict] = None
        self.error: Optional[str] = None
        self.park: Optional[Dict] = None
        self.control = JobControl()
        self.subscribers: List[asyncio.Queue] = []

    def describe(self, include_result: bool = False) -> Dict:
        info = {
            "id": self.id,
            "digest": self.digest,
            "status": self.status,
            "cached": self.cached,
            "mode": self.spec.mode,
            "events": len(self.events),
        }
        if self.error is not None:
            info["error"] = self.error
        if include_result and self.result is not None:
            info["result"] = self.result
        return info


class ReproServer:
    """Asyncio front door; see the module docstring for the protocol.

    ``dispatch=False`` registers submissions without ever starting the
    dispatcher — jobs stay queued, which makes bounded-queue rejection
    deterministic to test.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 16,
        cache_size: int = 32,
        dispatch: bool = True,
    ) -> None:
        self.host = host
        self.requested_port = port
        self.queue_size = queue_size
        self.cache_size = cache_size
        self._dispatch_enabled = dispatch
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._active_by_digest: Dict[str, str] = {}
        self._cache: "OrderedDict[str, Dict]" = OrderedDict()
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._counter = 0
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-job"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._dispatch_enabled:
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return self.port

    async def stop(self) -> None:
        """Graceful wind-down: stop intake, park the running job, join."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for job in self._jobs.values():
            if job.status == "running":
                job.control.request_pause()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Job registry (event-loop-thread only)
    # ------------------------------------------------------------------
    def _new_job(self, spec: JobSpec, digest: str) -> Job:
        self._counter += 1
        job = Job(f"job-{self._counter:04d}", spec, digest)
        self._jobs[job.id] = job
        return job

    def _publish(self, job: Job, record: Dict) -> None:
        job.events.append(record)
        for queue in list(job.subscribers):
            queue.put_nowait(record)

    def _finish_subscribers(self, job: Job) -> None:
        for queue in list(job.subscribers):
            queue.put_nowait(None)

    def _cache_store(self, digest: str, entry: Dict) -> None:
        self._cache[digest] = entry
        self._cache.move_to_end(digest)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def submit_spec(self, spec: JobSpec) -> Tuple[int, Dict, Tuple]:
        """Register one spec; returns ``(status, payload, headers)``."""
        digest = spec.digest()
        cached = self._cache.get(digest)
        if cached is not None:
            # Replay: a finished job with the stored history — the
            # WebSocket stream and result are byte-identical to the
            # original run, and nothing is re-executed.
            self._cache.move_to_end(digest)
            job = self._new_job(spec, digest)
            job.status = "done"
            job.cached = True
            job.result = cached["result"]
            job.events = list(cached["events"])
            return 200, job.describe(), ()
        active_id = self._active_by_digest.get(digest)
        if active_id is not None and active_id in self._jobs:
            info = self._jobs[active_id].describe()
            info["deduplicated"] = True
            return 200, info, ()
        if self._queue is None:
            return 500, {"error": "server is not started"}, ()
        job = self._new_job(spec, digest)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            del self._jobs[job.id]
            self._counter -= 1
            return (
                429,
                {
                    "error": (
                        f"job queue is full ({self.queue_size} pending); "
                        f"retry in {RETRY_AFTER_S}s"
                    ),
                    "retry_after": RETRY_AFTER_S,
                },
                (("Retry-After", str(RETRY_AFTER_S)),),
            )
        self._active_by_digest[digest] = job.id
        return 202, job.describe(), ()

    def _pause_job(self, job: Job) -> Tuple[int, Dict]:
        if job.status != "running":
            return 409, {
                "error": f"job {job.id} is {job.status}, not running",
            }
        job.control.request_pause()
        info = job.describe()
        info["status"] = "pausing"
        return 202, info

    def _resume_job(self, job: Job) -> Tuple[int, Dict]:
        if job.status != "paused":
            return 409, {
                "error": f"job {job.id} is {job.status}, not paused",
            }
        try:
            job.status = "queued"
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            job.status = "paused"
            return 429, {
                "error": "job queue is full; retry resume later",
                "retry_after": RETRY_AFTER_S,
            }
        self._active_by_digest[job.digest] = job.id
        return 202, job.describe()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            job = await self._queue.get()
            if job.status != "queued":
                continue
            resuming = job.park is not None
            job.status = "running"
            self._publish(
                job,
                {
                    "kind": "job_resumed" if resuming else "job_start",
                    "digest": job.digest,
                },
            )

            def emit(record: Dict, target: Job = job) -> None:
                loop.call_soon_threadsafe(self._publish, target, record)

            try:
                outcome = await loop.run_in_executor(
                    self._executor,
                    execute_jobspec,
                    job.spec,
                    emit,
                    job.control,
                    job.park,
                )
            except Exception as exc:
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                self._active_by_digest.pop(job.digest, None)
                self._publish(
                    job,
                    {
                        "kind": "job_done",
                        "digest": job.digest,
                        "status": "failed",
                    },
                )
                self._finish_subscribers(job)
                continue
            if outcome["status"] == "paused":
                job.park = outcome["park"]
                job.control.clear_pause()
                job.status = "paused"
                self._active_by_digest.pop(job.digest, None)
                self._publish(
                    job, {"kind": "job_paused", "digest": job.digest}
                )
                continue
            job.result = outcome["result"]
            job.park = None
            job.status = "done"
            self._active_by_digest.pop(job.digest, None)
            self._publish(
                job,
                {"kind": "job_done", "digest": job.digest, "status": "done"},
            )
            self._cache_store(
                job.digest,
                {"result": job.result, "events": list(job.events)},
            )
            self._finish_subscribers(job)

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            method, path, headers, body = await read_http_request(reader)
        except (
            WireError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            writer.close()
            return
        try:
            if headers.get("upgrade", "").lower() == "websocket":
                await self._handle_websocket(reader, writer, path, headers)
                return
            status, payload, extra = self._route(method, path, body)
            body_bytes = (
                json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
            )
            writer.write(
                http_response(status, body_bytes, extra_headers=tuple(extra))
            )
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict, Tuple]:
        if path == "/v1/health" and method == "GET":
            return (
                200,
                {
                    "status": "ok",
                    "jobs": len(self._jobs),
                    "queue_depth": self._queue.qsize() if self._queue else 0,
                    "queue_size": self.queue_size,
                },
                (),
            )
        if path == "/v1/jobs" and method == "POST":
            try:
                data = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                return 400, {"error": f"body is not valid JSON: {exc}"}, ()
            try:
                spec = JobSpec.from_dict(data)
            except JobSpecError as exc:
                payload = {"error": str(exc)}
                if exc.field is not None:
                    payload["field"] = exc.field
                return 400, payload, ()
            return self.submit_spec(spec)
        if path == "/v1/jobs" and method == "GET":
            return (
                200,
                {
                    "jobs": [job.describe() for job in self._jobs.values()],
                    "queue_depth": self._queue.qsize() if self._queue else 0,
                },
                (),
            )
        match = _JOB_PATH.match(path)
        if match and method == "GET":
            job = self._jobs.get(match.group(1))
            if job is None:
                return 404, {"error": f"no job {match.group(1)}"}, ()
            return 200, job.describe(include_result=True), ()
        match = _JOB_ACTION_PATH.match(path)
        if match and method == "POST":
            job = self._jobs.get(match.group(1))
            if job is None:
                return 404, {"error": f"no job {match.group(1)}"}, ()
            if match.group(2) == "pause":
                status, payload = self._pause_job(job)
            else:
                status, payload = self._resume_job(job)
            return status, payload, ()
        if path.startswith("/v1/"):
            return 404, {"error": f"no route for {method} {path}"}, ()
        return 404, {"error": "unknown path (the API lives under /v1/)"}, ()

    # ------------------------------------------------------------------
    # WebSocket
    # ------------------------------------------------------------------
    async def _handle_websocket(self, reader, writer, path, headers) -> None:
        match = _WS_PATH.match(path)
        key = headers.get("sec-websocket-key")
        if match is None or key is None:
            writer.write(
                http_response(
                    400 if key is None else 404,
                    b'{"error": "bad websocket request"}\n',
                )
            )
            await writer.drain()
            return
        job = self._jobs.get(match.group(1))
        if job is None:
            writer.write(
                http_response(404, b'{"error": "no such job"}\n')
            )
            await writer.drain()
            return
        handshake = (
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n\r\n"
        )
        writer.write(handshake.encode("latin-1"))
        await writer.drain()

        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        # No awaits between subscribing and copying: records published
        # before this point are exactly the history, later ones land in
        # the queue — each record reaches the client exactly once.
        history = list(job.events)
        try:
            for record in history:
                await self._send_record(writer, record)
            while job.status not in ("done", "failed") or not queue.empty():
                record = await queue.get()
                if record is None:
                    break
                await self._send_record(writer, record)
            writer.write(encode_frame(b"", opcode=OP_CLOSE))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)

    @staticmethod
    async def _send_record(writer, record: Dict) -> None:
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        writer.write(encode_frame(payload, opcode=OP_TEXT))
        await writer.drain()


async def serve_forever(
    host: str = "127.0.0.1",
    port: int = 0,
    queue_size: int = 16,
    cache_size: int = 32,
) -> int:
    """Run the server until SIGTERM/SIGINT; returns the CLI exit code.

    Mirrors ``repro ensemble run``'s shutdown contract: SIGTERM winds
    down gracefully (running job parked at a safe boundary) and maps to
    exit code 143, SIGINT to 130.
    """
    server = ReproServer(
        host=host,
        port=port,
        queue_size=queue_size,
        cache_size=cache_size,
    )
    bound = await server.start()
    print(f"repro serve listening on {host}:{bound}", flush=True)
    loop = asyncio.get_event_loop()
    stopping = asyncio.Event()
    exit_code = {"code": 0}

    def request_stop(code: int) -> None:
        exit_code["code"] = code
        stopping.set()

    installed = []
    for signum, code in ((signal.SIGTERM, 143), (signal.SIGINT, 130)):
        try:
            loop.add_signal_handler(signum, request_stop, code)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        await stopping.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()
    print("repro serve stopped", flush=True)
    return exit_code["code"]

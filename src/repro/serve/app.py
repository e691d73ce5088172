"""The ATPG-as-a-service daemon.

One asyncio event loop accepts HTTP/1.1 connections (hand-rolled over
``asyncio.start_server`` — the stdlib ships no async HTTP server) and a
small set of dispatcher threads pulls admitted jobs off the
:class:`~repro.serve.queue.FairQueue` onto persistent single-worker
:class:`~repro.parallel.ResilientPool` instances.  The split keeps the
HTTP plane non-blocking (submissions, status reads and SSE streams
never wait on a flow) while execution inherits every resilience
property the pool already has — crash retry, serial fallback, joined
shutdown.

Endpoints::

    POST /jobs              submit (.bench or netlist JSON + config)
    GET  /jobs/<id>         status + result
    GET  /jobs/<id>/events  live SSE stream of the job's journal
    GET  /healthz           liveness + pool/queue occupancy
    GET  /stats             counters, gauges, queue depths, job states

Deduplication is the core invariant: every submission canonicalizes to
the ``(circuit fingerprint, run-config fingerprint)`` pair, and

* an **in-flight** job with the same key is joined, not re-run — the
  second client gets the same ``job_id`` with ``"source": "dedup"``;
* a **completed** job is replayed from the ``flow`` entry its worker
  left in the submitting tenant's result store — ``"source": "cache"``,
  served without touching the pool;
* only a genuinely novel key reaches the queue — ``"source": "new"``.

Tenancy: the ``X-Repro-Tenant`` header namespaces result caching (each
tenant an overlay over the shared base store, see
:mod:`repro.serve.store`) and fair queueing (round-robin across
per-tenant FIFOs, bounded depth, 429 on overflow).  Dedup of in-flight
work is deliberately global — results are bit-identical regardless of
who computes them — but every attached tenant's namespace receives a
copy of the completed job's ``flow`` entry.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..cache.stages import flow_entry_fp
from ..obs import context as obs
from ..parallel.pool import ResilientPool
from .jobs import (
    SubmissionError,
    canonical_submission,
    job_fingerprints,
    job_key,
    parse_submission,
    replay_result,
    run_job,
)
from .queue import DEFAULT_MAX_DEPTH, DEFAULT_TENANT, FairQueue, QueueFull
from .store import JobStore, tenant_cache_dir, tenant_store, valid_tenant

#: Job states a client can observe.
TERMINAL_STATES = frozenset(
    {"done", "failed", "budget_exceeded", "cancelled"})

_SERVER_HEADER = "repro-atpg-serve"


@dataclass(frozen=True)
class ServerConfig:
    """Everything the daemon needs, CLI-mappable one-to-one."""

    host: str = "127.0.0.1"
    port: int = 8349                    # 0 = ephemeral (tests)
    workers: int = 2                    # dispatcher threads = worker pools
    state_dir: str = ".repro-serve"     # job specs/journals/results
    cache_dir: Optional[str] = None     # base result store; default <state>/cache
    run_index: Optional[str] = None     # run history; default <state>/runs.sqlite
    queue_depth: int = DEFAULT_MAX_DEPTH
    wall_budget: Optional[float] = None   # per-job wall seconds
    cycle_budget: Optional[int] = None    # per-job faultsim cycles
    drain_timeout: float = 30.0           # shutdown grace for running jobs
    max_records: int = 1024               # retained terminal job records
    max_body_bytes: int = 16 * 1024 * 1024  # request-body cap (413 above)

    def effective_cache(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir \
            else Path(self.state_dir) / "cache"

    def effective_run_index(self) -> Path:
        return Path(self.run_index) if self.run_index \
            else Path(self.state_dir) / "runs.sqlite"


@dataclass
class JobRecord:
    """Server-side view of one job (registry entry; guarded by the
    server's lock — dispatcher threads and the event loop both touch
    it)."""

    job_id: str
    key: str
    circuit_fp: str
    config_fp: str
    flow: str
    source: str                      # new | dedup | cache
    status: str = "queued"
    tenants: Set[str] = field(default_factory=set)
    created: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: In-memory result for pure cache replays, which provision no job
    #: directory (the tenant store already holds the durable copy).
    cached_result: Optional[Dict] = None

    def public(self) -> Dict:
        view = {
            "job_id": self.job_id,
            "status": self.status,
            "source": self.source,
            "flow": self.flow,
            "circuit_fp": self.circuit_fp,
            "config_fp": self.config_fp,
            "created": round(self.created, 3),
        }
        if self.error:
            view["error"] = self.error
        if self.finished_at is not None:
            view["elapsed_seconds"] = round(
                self.finished_at - self.created, 3)
        return view


def _serial_run_job(payload: Dict) -> Dict:
    """In-parent fallback for :func:`run_job`.

    ``run_job`` unconditionally drops the active telemetry session
    (correct in a fork-started worker, destructive in the server
    process) — so the serial path saves and restores the daemon's
    session around it.  It also marks the payload ``in_process`` so the
    budget monitor records breaches instead of delivering SIGINT: here
    that signal would land on the *daemon* (whose main thread is the
    event loop, not the job), shutting down the whole server without
    interrupting the job at all."""
    previous = obs.active()
    try:
        return run_job({**payload, "in_process": True})
    finally:
        obs.deactivate(previous)


class ReproServer:
    """The daemon: HTTP plane + dispatcher threads + worker pools."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.job_store = JobStore(config.state_dir)
        self.cache_base = config.effective_cache()
        self.cache_base.mkdir(parents=True, exist_ok=True)
        self.queue = FairQueue(max_depth=config.queue_depth)
        self.pools: List[ResilientPool] = [
            ResilientPool(
                run_job, jobs=1, persistent=True, max_retries=1,
                serial_fn=_serial_run_job, label="serve.pool")
            for _ in range(max(1, config.workers))
        ]
        self._dispatchers: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}
        self._by_key: Dict[str, str] = {}    # in-flight dedup index
        self._seq = 0
        self._draining = False
        self._shutdown = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.host = config.host
        self.port = config.port              # rewritten once bound

    # ------------------------------------------------------------------
    # submission plane
    # ------------------------------------------------------------------

    def submit(self, body: Dict, tenant: str) -> Tuple[int, Dict]:
        """Admission decision for one POST /jobs; returns
        ``(http_status, response_payload)``."""
        circuit, cfg, flow = parse_submission(body)   # SubmissionError -> 400
        circuit_fp, config_fp = job_fingerprints(circuit, cfg, flow)
        key = job_key(circuit_fp, config_fp)

        with self._lock:
            in_flight = self._by_key.get(key)
            if in_flight is not None:
                record = self._jobs[in_flight]
                record.tenants.add(tenant)
                obs.incr("serve.deduped")
                obs.event("serve.dedup", job=record.job_id, tenant=tenant)
                return 200, {**record.public(), "source": "dedup"}

        cached = replay_result(tenant_store(self.cache_base, tenant),
                               circuit, cfg, flow)
        if cached is not None:
            # A pure replay: no job directory (the tenant store is the
            # durable copy — provisioning one per hit would grow disk
            # with every repeat request), result kept on the record
            # until it ages out of the bounded registry.
            record = self._register(key, circuit_fp, config_fp, flow,
                                    tenant, source="cache", status="done",
                                    in_flight=False)
            with self._lock:
                record.finished_at = time.time()
                record.cached_result = cached
            obs.incr("serve.cache_hits")
            obs.event("serve.cache_hit", job=record.job_id, tenant=tenant)
            return 200, {**record.public(), "result": cached}

        if self._draining:
            return 503, {"error": "server is draining"}
        record = self._register(key, circuit_fp, config_fp, flow, tenant,
                                source="new", status="queued",
                                in_flight=True)
        self.job_store.create(record.job_id,
                              canonical_submission(circuit, cfg, flow))
        try:
            depth = self.queue.push(tenant, record.job_id)
        except (QueueFull, RuntimeError) as exc:
            with self._lock:
                self._jobs.pop(record.job_id, None)
                if self._by_key.get(key) == record.job_id:
                    del self._by_key[key]
            if isinstance(exc, QueueFull):
                obs.incr("serve.rejected")
                return 429, {"error": str(exc), "tenant": tenant}
            return 503, {"error": "server is draining"}
        obs.incr("serve.queued")
        obs.event("serve.queued", job=record.job_id, tenant=tenant,
                  depth=depth)
        return 202, record.public()

    def _register(self, key: str, circuit_fp: str, config_fp: str,
                  flow: str, tenant: str, *, source: str, status: str,
                  in_flight: bool) -> JobRecord:
        with self._lock:
            self._seq += 1
            job_id = f"{key[:12]}-{self._seq:04d}"
            record = JobRecord(job_id=job_id, key=key,
                               circuit_fp=circuit_fp, config_fp=config_fp,
                               flow=flow, source=source, status=status,
                               tenants={tenant})
            self._jobs[job_id] = record
            if in_flight:
                self._by_key[key] = job_id
            self._evict_terminal_locked()
            return record

    def _evict_terminal_locked(self) -> None:
        """Drop the oldest *terminal* records once the registry exceeds
        ``max_records`` — a long-running daemon must not retain one
        JobRecord per request forever.  Executed jobs stay readable from
        their on-disk job directory after eviction; queued/running jobs
        are never evicted.  Caller holds the lock."""
        excess = len(self._jobs) - max(1, self.config.max_records)
        if excess <= 0:
            return
        evictable = [job_id for job_id, record in self._jobs.items()
                     if record.status in TERMINAL_STATES]
        for job_id in evictable[:excess]:
            del self._jobs[job_id]
        if evictable:
            obs.incr("serve.evicted", min(excess, len(evictable)))

    # ------------------------------------------------------------------
    # dispatch plane (threads)
    # ------------------------------------------------------------------

    def start_dispatchers(self) -> None:
        for slot, pool in enumerate(self.pools):
            thread = threading.Thread(
                target=self._dispatch_loop, args=(pool,),
                name=f"repro-serve-dispatch-{slot}", daemon=True)
            thread.start()
            self._dispatchers.append(thread)

    def _dispatch_loop(self, pool: ResilientPool) -> None:
        while True:
            popped = self.queue.pop(timeout=0.25)
            if popped is None:
                if self.queue.closed:
                    return
                continue
            tenant, job_id = popped
            self._execute(pool, tenant, job_id)

    def _execute(self, pool: ResilientPool, tenant: str,
                 job_id: str) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return
            record.status = "running"
        obs.incr("serve.started")
        obs.event("serve.started", job=job_id, tenant=tenant)
        spec = json.loads((self.job_store.job_dir(job_id) / "spec.json")
                          .read_text(encoding="utf-8"))
        payload = {
            "job_id": job_id,
            "submission": spec,
            "journal": str(self.job_store.journal_path(job_id)),
            "trace_id": job_id,
            # Workers run against the submitting tenant's overlay and
            # append to the shared run-history index.
            "cache_dir": str(tenant_cache_dir(self.cache_base, tenant)),
            "run_index": str(self.config.effective_run_index()),
            "wall_budget": self.config.wall_budget,
            "cycle_budget": self.config.cycle_budget,
        }
        started = time.perf_counter()
        outcomes = pool.run([payload])
        outcome = outcomes[0] if outcomes else {
            "job_id": job_id, "status": "failed",
            "error": "worker pool returned no result"}
        self._finish(record, outcome, tenant)
        obs.observe("serve.latency", time.perf_counter() - started)

    def _finish(self, record: JobRecord, outcome: Dict,
                submitter: str) -> None:
        status = outcome.get("status", "failed")
        outcome.setdefault("source", record.source)
        self.job_store.write_result(record.job_id, outcome)
        done = status == "done" and isinstance(outcome.get("result"), dict)
        # The worker wrote its ``flow`` entry into the submitter's
        # store; each tenant that joined through dedup gets a copy
        # *while the key is still in the in-flight index*, or an
        # identical submission landing between key removal and the
        # copy would miss both and re-execute.  Tenants can attach
        # during a copy round (under the lock, while the key is
        # present), so loop until none are pending, then drop the key
        # under the same lock.
        source = tenant_store(self.cache_base, submitter)
        entry = (record.circuit_fp, flow_entry_fp(record.config_fp))
        stored = {submitter}
        while True:
            with self._lock:
                pending = sorted(record.tenants - stored) if done else []
                if not pending:
                    record.status = status
                    record.finished_at = time.time()
                    record.error = outcome.get("error")
                    if self._by_key.get(record.key) == record.job_id:
                        del self._by_key[record.key]
                    break
            for tenant in pending:
                source.copy_to(tenant_store(self.cache_base, tenant),
                               *entry)
            stored.update(pending)
        obs.incr("serve.completed" if done else "serve.failed")
        obs.event("serve.finished", job=record.job_id, status=status)

    # ------------------------------------------------------------------
    # HTTP plane
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Bind, announce, serve until a shutdown signal, then drain."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        print(f"repro-serve listening on http://{self.host}:{self.port}",
              flush=True)
        obs.event("serve.listening", host=self.host, port=self.port,
                  workers=len(self.pools))
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX platform, or the loop runs in a non-main
                # thread (in-process tests): shutdown then comes from
                # request_shutdown() being called directly.
                pass
        self.start_dispatchers()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            await loop.run_in_executor(None, self._drain)
        print("repro-serve stopped", flush=True)

    def request_shutdown(self) -> None:
        """Stop admission, cancel queued jobs, let running jobs finish,
        then exit.  Idempotent; callable from the signal handler, the
        event loop, or any other thread (tests)."""
        if self._draining:
            return
        self._draining = True
        obs.event("serve.shutdown", queued=self.queue.depth())
        self.queue.close()
        for _tenant, job_id in self.queue.drain():
            with self._lock:
                record = self._jobs.get(job_id)
                if record is None:
                    continue
                record.status = "cancelled"
                record.finished_at = time.time()
                if self._by_key.get(record.key) == job_id:
                    del self._by_key[record.key]
            self.job_store.write_result(job_id, {
                "job_id": job_id, "status": "cancelled",
                "error": "server shut down before execution"})
            obs.incr("serve.cancelled")
        # Event.set() is not thread-safe; route through the loop so a
        # caller on another thread actually wakes the selector.
        loop = self._loop
        try:
            in_loop = asyncio.get_running_loop() is loop
        except RuntimeError:
            in_loop = False
        if in_loop or loop is None or not loop.is_running():
            self._shutdown.set()
        else:
            loop.call_soon_threadsafe(self._shutdown.set)

    def _drain(self) -> None:
        """Join dispatchers (which finish their running job) and worker
        pools; runs off the event loop."""
        deadline = time.monotonic() + self.config.drain_timeout
        for thread in self._dispatchers:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        for pool in self.pools:
            pool.close()
        obs.event("serve.drained")

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            method, path, headers = await self._read_request(reader)
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length < 0:
                raise ValueError("negative content-length")
            if length > self.config.max_body_bytes:
                # Refuse before buffering: Content-Length is attacker
                # controlled and readexactly() would allocate it all.
                await self._respond(writer, 413, {
                    "error": f"body too large ({length} bytes; "
                             f"limit {self.config.max_body_bytes})"})
                return
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=30)
            await self._route(method, path, headers, body, writer)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError, ValueError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    #: Header-section bound: readline() already caps line length at the
    #: stream's 64 KiB limit (raising ValueError on overrun); this caps
    #: how many such lines one request may send.
    MAX_HEADER_LINES = 128

    @classmethod
    async def _read_request(cls, reader: asyncio.StreamReader):
        request_line = await asyncio.wait_for(reader.readline(), timeout=30)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(cls.MAX_HEADER_LINES):
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError("too many header lines")
        return method, path, headers

    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     body: bytes, writer: asyncio.StreamWriter) -> None:
        if method == "POST" and path == "/jobs":
            await self._handle_submit(headers, body, writer)
        elif method == "GET" and path.startswith("/jobs/") and \
                path.endswith("/events"):
            await self._handle_events(path[len("/jobs/"):-len("/events")],
                                      writer)
        elif method == "GET" and path.startswith("/jobs/"):
            await self._handle_job(path[len("/jobs/"):], writer)
        elif method == "GET" and path == "/healthz":
            await self._respond(writer, 200, self.health())
        elif method == "GET" and path == "/stats":
            await self._respond(writer, 200, self.stats_view())
        else:
            await self._respond(writer, 404, {"error": "no such route"})

    async def _handle_submit(self, headers: Dict[str, str], body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        tenant = headers.get("x-repro-tenant", DEFAULT_TENANT)
        if not valid_tenant(tenant):
            await self._respond(writer, 400,
                                {"error": f"invalid tenant {tenant!r}"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            await self._respond(writer, 400, {"error": "body is not JSON"})
            return
        try:
            status, response = self.submit(payload, tenant)
        except SubmissionError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        await self._respond(writer, status, response)

    async def _handle_job(self, job_id: str,
                          writer: asyncio.StreamWriter) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            view = record.public() if record else None
            cached_result = record.cached_result if record else None
        if view is None:
            # Evicted from the bounded registry — the job directory
            # remains the durable record for executed jobs.
            outcome = self.job_store.read_result(job_id)
            if outcome is None:
                await self._respond(writer, 404,
                                    {"error": f"no such job {job_id!r}"})
                return
            view = {"job_id": job_id,
                    "status": outcome.get("status", "unknown"),
                    "source": outcome.get("source", "new")}
        if view["status"] in TERMINAL_STATES:
            if cached_result is not None:
                view["result"] = cached_result
            outcome = self.job_store.read_result(job_id)
            if outcome:
                for field_name in ("result", "metrics", "budget",
                                   "error", "elapsed_seconds"):
                    if field_name in outcome:
                        view[field_name] = outcome[field_name]
        await self._respond(writer, 200, view)

    async def _handle_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        from .stream import EventStream, sse_comment

        with self._lock:
            known = job_id in self._jobs
        if not known and not self.job_store.journal_path(job_id).exists():
            await self._respond(writer, 404,
                                {"error": f"no such job {job_id!r}"})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"Server: " + _SERVER_HEADER.encode() + b"\r\n\r\n")
        await writer.drain()
        stream = EventStream(self.job_store.journal_path(job_id))
        idle = 0.0
        grace_until: Optional[float] = None
        while True:
            chunks = stream.poll(time.time())
            for chunk in chunks:
                writer.write(chunk)
            if chunks:
                idle = 0.0
                await writer.drain()
            with self._lock:
                record = self._jobs.get(job_id)
                # Only terminal records are ever evicted, so a missing
                # record means the job finished long ago.
                terminal = record is None or \
                    record.status in TERMINAL_STATES
                replay = record is not None and record.source == "cache"
            if terminal:
                # Give the worker journal a moment to write its close,
                # then finish regardless.  Cache replays have no journal
                # at all — end immediately.
                now = time.monotonic()
                if grace_until is None:
                    grace_until = now if replay else now + 2.0
                if stream.finished or now >= grace_until:
                    break
            idle += 0.1
            if idle >= 10.0:
                writer.write(sse_comment())
                await writer.drain()
                idle = 0.0
            await asyncio.sleep(0.1)
        outcome = self.job_store.read_result(job_id) or {}
        status = record.status if record else \
            outcome.get("status", "unknown")
        result = outcome.get("result")
        if result is None and record is not None:
            result = record.cached_result
        for chunk in stream.end_frame(status, result):
            writer.write(chunk)
        await writer.drain()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def pool_occupancy(self) -> Dict[str, int]:
        """Aggregate worker/busy/pending across the per-slot pools and
        export the sums as ``parallel.pool.*`` gauges."""
        totals = {"workers": 0, "busy": 0, "pending": 0}
        for pool in self.pools:
            snapshot = pool.stats()
            totals["workers"] += snapshot.workers
            totals["busy"] += snapshot.busy
            totals["pending"] += snapshot.pending
        for name, value in totals.items():
            obs.set_gauge(f"parallel.pool.{name}", value)
        return totals

    def health(self) -> Dict:
        return {
            "status": "draining" if self._draining else "ok",
            "pool": self.pool_occupancy(),
            "queued": self.queue.depth(),
        }

    def stats_view(self) -> Dict:
        with self._lock:
            states: Dict[str, int] = {}
            for record in self._jobs.values():
                states[record.status] = states.get(record.status, 0) + 1
        telemetry = obs.active()
        metrics = telemetry.metrics.snapshot() if telemetry else {}
        return {
            "pool": self.pool_occupancy(),
            "queue": self.queue.depths(),
            "jobs": states,
            "metrics": metrics,
        }

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: Dict) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 413: "Payload Too Large",
                   429: "Too Many Requests", 503: "Service Unavailable"}
        blob = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(blob)}\r\n"
                f"Server: {_SERVER_HEADER}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + blob)
        await writer.drain()


def serve(config: ServerConfig) -> None:
    """Blocking entry point: run the daemon until SIGTERM/SIGINT."""
    server = ReproServer(config)
    asyncio.run(server.run())

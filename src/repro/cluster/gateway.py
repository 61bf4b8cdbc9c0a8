"""The serving core: an asyncio front door for the parallelization
service.

One :class:`ClusterGateway` multiplexes thousands of concurrent client
sessions over a single event loop, answering the wire protocol the
synchronous :class:`repro.service.client.ServiceClient` speaks
(``submit``/``status``/``result``/``cancel``/``health``/``metrics``/
``shutdown``).  It is the only server: ``repro serve`` runs it with
local workers over one in-process cache shard (``tier="single-node"``),
and ``repro cluster gateway`` runs it in front of shard and worker
fleets (``tier="cluster"``).

Scale-out happens behind that front door:

* the result cache is a :class:`repro.cluster.shardcache.ShardedCache` —
  payload digests route over a consistent-hash ring to cache-shard
  nodes;
* execution happens on a worker fleet (:mod:`repro.cluster.workers`)
  speaking five extra ops: ``work-pull`` (batched lease of queued jobs,
  long-poll), ``work-start`` (lease validity check — refused when the
  job was stolen, canceled, or re-assigned after a presumed death),
  ``work-done``, ``work-fail`` (kind: ``crash``/``error``/``timeout``),
  and ``heartbeat`` (liveness + a metrics-registry delta tagged with a
  monotonic sequence number, merged exactly once);
* an idle puller facing an empty queue *steals* an unstarted leased job
  from the node with the largest backlog — the victim's later
  ``work-start`` for it is refused, so a job never runs twice;
* a sweeper declares nodes dead after ``heartbeat_timeout`` silent
  seconds: their unstarted leases re-enter the queue immediately and
  their running jobs take the crash-retry path (exponential backoff,
  attempts respected) — the same semantics PR 2 gave in-process worker
  crashes;
* an observability plane: traced submissions (a ``trace_ctx`` beside
  the payload, like ``ctx``) open spans for the result-cache lookup
  (``cache-lookup``), queue wait, execution, and the whole job;
  worker/shard spans arrive piggybacked on heartbeats and cache
  responses together with remote wall clocks that feed a per-node
  :class:`ClockModel`; a ``telemetry`` op streams merged metric
  snapshots + health events, and a ``trace-export`` op hands
  everything to ``repro trace-collect`` for cross-node stitching.

Concurrency model: all mutable state (job table, queue, leases, node
table) is owned by the event loop and touched only from coroutines, so
there are no locks.  Embedded workers await their process-pool futures
on the loop; cache calls that can block (remote shards, a disk tier)
go through ``asyncio.to_thread``, with dedup re-checked after every
``await`` that could have admitted a competitor.

A gateway with ``local_workers > 0`` embeds its own executor fleet
driven through the *same* lease machinery as remote nodes, so one
process serves the full surface.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.shardcache import LocalShard, ShardedCache
from repro.experiments.executor import (WorkerCrashError, WorkerPool,
                                        WorkerTimeout, resolve_jobs)
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.distributed import (ClockModel, SpanRecorder, TraceContext,
                                   validate_trace_ctx)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import SpanStore, TelemetryStore
from repro.service import ops, protocol
from repro.service.execution import PAYLOAD_KINDS, run_job_observed
from repro.service.jobs import (FINAL_STATES, Job, JobState, payload_digest)

_log = obs_logging.get_logger("repro.cluster.gateway")

_LIVE_STATES = (JobState.QUEUED, JobState.RUNNING)

#: a node silent for this many seconds is declared dead
DEFAULT_HEARTBEAT_TIMEOUT = 5.0

#: tier -> (span node/category of the core, default run-id prefix)
_TIER_ROLES = {"single-node": ("daemon", "svc"),
               "cluster": ("gateway", "gw")}


class _Node:
    """Loop-owned view of one worker node (remote or embedded)."""

    __slots__ = ("name", "local", "last_seen", "last_seq", "boot",
                 "unstarted", "running", "lease_at", "done", "failed",
                 "stolen_from", "info")

    def __init__(self, name: str, local: bool = False):
        self.name = name
        self.local = local
        self.last_seen = time.monotonic()
        self.last_seq = 0            # highest merged metrics/span seq
        self.boot: Optional[str] = None  # node process incarnation id
        self.unstarted: set = set()  # leased job ids not yet started
        self.running: set = set()    # leased job ids executing
        self.lease_at: Dict[str, float] = {}  # job id -> lease monotonic
        self.done = 0
        self.failed = 0
        self.stolen_from = 0
        self.info: Dict[str, Any] = {}


class ClusterGateway:
    """Asyncio gateway: client front door + worker-fleet coordinator.

    ``port=0`` binds an ephemeral port; read ``gateway.address`` after
    start.  With no ``shards`` a single in-process shard backs the
    cache, so a bare gateway still dedups and caches.  ``tier`` is what
    ``health`` and ``telemetry`` report: ``single-node`` for
    ``repro serve``, ``cluster`` for ``repro cluster gateway``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 shards: Optional[ShardedCache] = None,
                 tier: str = "cluster",
                 queue_capacity: int = 256,
                 default_deadline: Optional[float] = None,
                 max_retries: int = 1, retry_backoff: float = 0.5,
                 drain_timeout: float = 30.0,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 local_workers: int = 0,
                 inline: Optional[bool] = None,
                 telemetry_dir: Optional[str] = None,
                 telemetry_interval: float = 2.0,
                 run_id: Optional[str] = None):
        self.host = host
        self.port = port
        self.tier = tier
        self._role, run_prefix = _TIER_ROLES[tier]
        self.queue_capacity = queue_capacity
        self.default_deadline = default_deadline
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.drain_timeout = drain_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.local_workers = local_workers
        self.telemetry_interval = telemetry_interval
        self.metrics = MetricsRegistry()
        self.m = ops.ServiceMetrics(self.metrics)
        self.cache = shards if shards is not None else ShardedCache(
            {"local": LocalShard()}, registry=self.metrics)
        self.pool = WorkerPool(resolve_jobs(local_workers or 1),
                               inline=inline) if local_workers else None

        # observability plane: spans recorded here + shipped from
        # workers/shards, wall-clock offsets per node, periodic
        # snapshots/events (persisted when telemetry_dir is given)
        self.run_id = run_id or f"{run_prefix}-{os.getpid()}"
        self.clock = ClockModel()
        self.spans = SpanRecorder(self._role)
        self.span_store = SpanStore(telemetry_dir, self.run_id)
        self.telemetry = TelemetryStore(telemetry_dir, self.run_id)
        self._traced: Dict[str, Dict[str, Any]] = {}  # job id -> trace
        self.cache.set_span_sink(self._ingest_spans)

        self.address: Optional[Tuple[str, int]] = None
        self._jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, str] = {}
        self._pending: deque = deque()            # job ids awaiting lease
        self._waiters: Dict[str, asyncio.Event] = {}
        self._nodes: Dict[str, _Node] = {}

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._work_available: Optional[asyncio.Event] = None
        self._stopped_async: Optional[asyncio.Event] = None
        self._tasks: List[asyncio.Task] = []
        self._draining = False
        self._stopping = False
        self._started_at: Optional[float] = None
        self._ready = threading.Event()    # address bound (background mode)
        self._finished = threading.Event()  # loop exited (background mode)
        self._thread: Optional[threading.Thread] = None

        m = self.metrics
        self._m_sessions = m.gauge(
            "repro_cluster_sessions", "connected protocol sessions")
        self._m_pulls = m.counter(
            "repro_cluster_pulls_total", "work-pull requests, by outcome "
            "(jobs/steal/empty)")
        self._m_steals = m.counter(
            "repro_cluster_steals_total", "jobs stolen from a busy "
            "node's unstarted backlog")
        self._m_dead = m.counter(
            "repro_cluster_dead_nodes_total", "worker nodes declared "
            "dead after missed heartbeats")
        self._m_heartbeats = m.counter(
            "repro_cluster_heartbeats_total", "worker heartbeats received")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start_async(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._work_available = asyncio.Event()
        self._stopped_async = asyncio.Event()
        self._started_at = time.monotonic()
        swept = self.cache.sweep()
        if swept:
            _log.warning("cache-sweep", removed=swept)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        self._tasks.append(asyncio.ensure_future(self._sweep_loop()))
        self._tasks.append(asyncio.ensure_future(self._telemetry_loop()))
        for i in range(self.local_workers):
            self._tasks.append(asyncio.ensure_future(
                self._local_worker_loop(f"local-{i}")))
        _log.info("gateway-start", host=self.address[0],
                  port=self.address[1], local_workers=self.local_workers,
                  shards=len(self.cache.shard_names))
        self._ready.set()
        return self.address

    async def run(self) -> None:
        """Start and serve until a shutdown request stops the gateway."""
        await self.start_async()
        await self._stopped_async.wait()

    async def stop_async(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        _log.info("gateway-stop", pending=self.pending_jobs())
        if self._server is not None:
            # no wait_closed(): since 3.12 it waits for every session to
            # end, and a forked pool worker can hold a session's socket
            # open; open sessions are cancelled when the loop exits
            self._server.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # nothing is served any more, so blocking the loop is harmless
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        self.cache.close()
        self._stopped_async.set()

    async def _shutdown_task(self, drain: bool,
                             drain_timeout: Optional[float]) -> None:
        if drain and not self._stopping:
            self._draining = True
            budget = self.drain_timeout if drain_timeout is None \
                else float(drain_timeout)
            deadline = time.monotonic() + max(0.0, budget)
            _log.info("drain-start", pending=self.pending_jobs())
            while self.pending_jobs() and time.monotonic() < deadline \
                    and not self._stopping:
                await asyncio.sleep(0.02)
            _log.info("drain-finish", pending=self.pending_jobs())
        await self.stop_async()

    # -- background (thread) mode: sync callers, tests, the CLI --------

    def start_background(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Run the gateway's event loop in a daemon thread; returns the
        bound address.  Pair with :meth:`stop` / :meth:`wait`."""
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-gateway", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError("gateway failed to start within "
                               f"{timeout}s")
        assert self.address is not None
        return self.address

    def _thread_main(self) -> None:
        try:
            asyncio.run(self.run())
        finally:
            self._finished.set()

    def stop(self, drain: bool = False,
             drain_timeout: Optional[float] = None) -> None:
        """Shut down from another thread (background mode); returns once
        the loop thread and the worker pool are gone.  ``drain`` first
        lets accepted jobs finish, as the ``shutdown`` op does."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown_task(drain, drain_timeout), loop)
            except RuntimeError:
                pass  # loop already closing
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._started_at is not None and not self._stopping

    @property
    def draining(self) -> bool:
        return self._draining

    def uptime(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def pending_jobs(self) -> int:
        return sum(1 for job in self._jobs.values()
                   if job.state not in FINAL_STATES)

    def get_job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._m_sessions.inc()
        try:
            while not self._stopping:
                try:
                    request = await protocol.read_message_async(reader)
                except protocol.ProtocolError:
                    return
                try:
                    response = await self.handle_request(request)
                except Exception as exc:
                    response = protocol.error_response(
                        f"{type(exc).__name__}: {exc}", code="internal")
                shutdown = response.pop("_shutdown", False)
                drain = response.pop("_drain", False)
                drain_timeout = response.pop("_drain_timeout", None)
                try:
                    await protocol.write_message_async(writer, response)
                except protocol.ProtocolError as exc:
                    # response exceeds the frame limit: tell the client
                    # instead of silently dropping the connection
                    try:
                        await protocol.write_message_async(
                            writer, protocol.error_response(
                                f"response too large for one frame: {exc}",
                                code="oversize"))
                    except (OSError, protocol.ProtocolError):
                        return
                except (OSError, ConnectionResetError):
                    return
                if shutdown:
                    asyncio.ensure_future(
                        self._shutdown_task(drain, drain_timeout))
                    return
        except asyncio.CancelledError:
            return  # loop teardown mid-request (e.g. a worker long-poll)
        finally:
            self._m_sessions.dec()
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionResetError,
                    asyncio.CancelledError):
                pass

    async def handle_request(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        """Answer one protocol request (also the unit-test entry point)."""
        op = request.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            self.m.requests.inc(op="unknown")
            return protocol.error_response(
                f"unknown op {op!r}; expected submit/status/result/cancel/"
                f"health/metrics/telemetry/trace-export/shutdown or "
                f"work-pull/work-start/work-done/work-fail/heartbeat",
                code="bad-op")
        self.m.requests.inc(op=op)
        with self.m.request_seconds.time():
            return await handler(self, request)

    # ------------------------------------------------------------------
    # client-facing ops (the single-node surface)
    # ------------------------------------------------------------------

    async def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        payload = request.get("payload")
        if not isinstance(payload, dict):
            return protocol.error_response(
                "submit needs a 'payload' object", code="bad-request")
        kind = payload.get("kind")
        if kind not in PAYLOAD_KINDS:
            return protocol.error_response(
                f"unknown payload kind {kind!r}; expected one of "
                f"{PAYLOAD_KINDS}", code="bad-request")
        ctx = request.get("ctx")
        ctx_problem = ops.validate_ctx(ctx)
        if ctx_problem:
            return protocol.error_response(ctx_problem, code="bad-request")
        trace_ctx = request.get("trace_ctx")
        trace_problem = validate_trace_ctx(trace_ctx)
        if trace_problem:
            return protocol.error_response(trace_problem,
                                           code="bad-request")
        trace = self._open_trace(trace_ctx)
        if self._draining or self._stopping:
            self.m.rejected.inc()
            return protocol.error_response(
                "service is draining before shutdown; no new jobs "
                "accepted", code="backpressure")

        digest = payload_digest(payload)
        job, deduped = self._live_job(digest), True
        if job is None:
            # competitors may admit the same digest while the lookup
            # awaits, so re-check dedup afterwards
            cached = await self._cache_lookup(digest, trace)
            job = self._live_job(digest)
            if job is not None:
                self.m.deduped.inc()
            elif self._draining or self._stopping:
                self.m.rejected.inc()
                return protocol.error_response(
                    "service is draining before shutdown; no new jobs "
                    "accepted", code="backpressure")
            else:
                deduped = False
                job = self._admit(digest, payload, request, ctx, cached,
                                  trace=trace)
                if job is None:
                    self.m.rejected.inc()
                    return protocol.error_response(
                        f"queue is full ({self.queue_capacity} jobs "
                        f"waiting); retry after the backlog drains",
                        code="backpressure")
        else:
            self.m.deduped.inc()
        if request.get("wait"):
            await self._wait_finished(job, request.get("wait_timeout"))
        return ops.job_response(
            job, deduped=deduped,
            include_result=bool(request.get("wait")),
            include_trace=bool(request.get("include_trace")))

    async def _cache_call(self, fn, *args):
        """Call the cache on the loop unless a shard could block it."""
        if self.cache.blocking:
            return await asyncio.to_thread(fn, *args)
        return fn(*args)

    async def _cache_lookup(self, digest: str,
                            trace: Optional[Dict[str, Any]]
                            ) -> Optional[Dict[str, Any]]:
        """Result-cache lookup; traced, it records a ``cache-lookup``
        span under the job span and hands that span's context to remote
        shards, which piggyback their own ``cache-get`` span."""
        if trace is None:
            return await self._cache_call(self.cache.get, digest)
        t0_wall, t0 = time.time(), time.perf_counter()
        cached = await self._cache_call(
            self.cache.get, digest,
            {"traceparent": trace["span"].to_traceparent()})
        self.spans.record(
            "cache-lookup", trace["span"].child(), cat="cache",
            start_wall=t0_wall, duration=time.perf_counter() - t0,
            parent_id=trace["span"].span_id, digest=digest,
            hit=cached is not None)
        return cached

    def _open_trace(self, trace_ctx: Any) -> Optional[Dict[str, Any]]:
        """Open the core's 'job' span for a traced submission.

        Returns None for untraced submits (the overwhelmingly common
        case — one dict lookup and an ``is None`` test is the whole
        cost of tracing being off).
        """
        if trace_ctx is None:
            return None
        try:
            root = TraceContext.from_dict(trace_ctx)
        except ValueError:
            return None  # validated earlier; defensive
        if root is None:
            return None
        return {"root": root, "span": root.child(),
                "submit_wall": time.time()}

    def _live_job(self, digest: str) -> Optional[Job]:
        live_id = self._by_digest.get(digest)
        if live_id is None:
            return None
        live = self._jobs[live_id]
        if live.state in _LIVE_STATES:
            return live
        del self._by_digest[digest]  # stale index entry
        return None

    def _admit(self, digest: str, payload: Dict[str, Any],
               request: Dict[str, Any], ctx: Optional[Dict[str, Any]],
               cached: Optional[Dict[str, Any]],
               trace: Optional[Dict[str, Any]] = None) -> Optional[Job]:
        deadline = request.get("deadline")
        if deadline is None:
            deadline = self.default_deadline
        max_retries = request.get("max_retries")
        if max_retries is None:
            max_retries = self.max_retries
        job = Job(digest=digest, payload=payload, deadline=deadline,
                  max_retries=max_retries, ctx=dict(ctx or {}))
        if trace is not None:
            # workers receive the *job span's* context, so worker-side
            # execute spans nest under the gateway's job span
            job.trace_ctx = {"traceparent": trace["span"].to_traceparent()}
            self._traced[job.id] = trace
        if cached is not None:
            self.m.cache_hits.inc()
            job.cached = True
            job.finish(JobState.DONE, result=cached)
            self.m.completed.inc(state=JobState.DONE)
            self._jobs[job.id] = job
            if trace is not None:
                self._record_job_span(job, trace)
            return job
        self.m.cache_misses.inc()
        if len(self._pending) >= self.queue_capacity:
            self._traced.pop(job.id, None)
            return None
        self.m.submitted.inc()
        self._jobs[job.id] = job
        self._by_digest[digest] = job.id
        self._waiters[job.id] = asyncio.Event()
        self._enqueue(job.id)
        return job

    def _enqueue(self, job_id: str, front: bool = False) -> None:
        if front:
            self._pending.appendleft(job_id)
        else:
            self._pending.append(job_id)
        self.m.depth.set(len(self._pending))
        if self._work_available is not None:
            self._work_available.set()

    async def _wait_finished(self, job: Job,
                             timeout: Optional[float]) -> None:
        if job.state in FINAL_STATES:
            return
        event = self._waiters.get(job.id)
        if event is None:
            return
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except TimeoutError:
            pass

    def _lookup(self, request: Dict[str, Any]):
        job_id = request.get("job_id")
        job = self._jobs.get(job_id) if job_id else None
        if job is None:
            return None, protocol.error_response(
                f"unknown job {job_id!r}", code="not-found")
        return job, None

    async def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job, err = self._lookup(request)
        return err if err else ops.job_response(job)

    async def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job, err = self._lookup(request)
        if err:
            return err
        if request.get("wait"):
            await self._wait_finished(job, request.get("wait_timeout"))
        if job.state == JobState.DONE:
            return ops.job_response(
                job, include_result=True,
                include_trace=bool(request.get("include_trace")))
        if job.state in FINAL_STATES:
            return protocol.error_response(
                f"job {job.id} finished as {job.state}: {job.error}",
                code=job.state)
        return protocol.error_response(
            f"job {job.id} is still {job.state}", code="not-ready")

    async def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job, err = self._lookup(request)
        if err:
            return err
        if job.state != JobState.QUEUED:
            ok, reason = False, f"job is {job.state}, not queued"
        else:
            # drop any unstarted lease so a later work-start is refused
            for node in self._nodes.values():
                node.unstarted.discard(job.id)
                node.lease_at.pop(job.id, None)
            self._finish_job(job, JobState.CANCELED,
                             error="canceled by client")
            ok, reason = True, "canceled"
        response = ops.job_response(job)
        response["canceled"] = ok
        response["detail"] = reason
        return response

    async def _op_health(self, request: Dict[str, Any]) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        now = time.monotonic()
        workers = {}
        for name, node in sorted(self._nodes.items()):
            age = now - node.last_seen
            leases = {job_id: round(now - at, 3)
                      for job_id, at in sorted(node.lease_at.items())}
            workers[name] = {
                "local": node.local,
                "alive": node.local or age <= self.heartbeat_timeout,
                "heartbeat_age": round(age, 3),
                "last_heartbeat_age": round(age, 3),
                "boot": node.boot,
                "unstarted": len(node.unstarted),
                "running": len(node.running),
                "leases": leases,
                "oldest_lease_age": max(leases.values(), default=None),
                "done": node.done,
                "failed": node.failed,
                "info": node.info,
            }
        shard_stats = await self._cache_call(self.cache.shard_stats)
        return {
            "ok": True,
            "tier": self.tier,
            "uptime": self.uptime(),
            "draining": self.draining,
            "workers": self.local_workers,
            "pool_mode": ("inline" if self.pool.inline else "process")
                         if self.pool is not None else "fleet",
            "queue_depth": len(self._pending),
            "queue_capacity": self.queue_capacity,
            "jobs_by_state": states,
            "cache_entries": sum(
                s.get("entries", 0) for s in shard_stats.values()
                if s.get("alive")),
            "cache_stats": self.cache.stats(),
            "cluster": {
                "ring": self.cache.ring_info(),
                "shards": shard_stats,
                "worker_nodes": workers,
                "workers_alive": sum(
                    1 for w in workers.values() if w["alive"]),
                "gateway_uptime": self.uptime(),
                "run_id": self.run_id,
                "clock_offsets": self.clock.to_dict(),
            },
        }

    def _exported_metrics(self) -> MetricsRegistry:
        combined = MetricsRegistry()
        combined.merge(self.metrics.export())
        combined.merge(obs_metrics.get_registry().export())
        return combined

    async def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.m.uptime.set(self.uptime())
        fmt = request.get("format", "json")
        if fmt == "prometheus":
            return {"ok": True, "format": "prometheus",
                    "text": self._exported_metrics().to_prometheus()}
        if fmt != "json":
            return protocol.error_response(
                f"unknown metrics format {fmt!r}", code="bad-request")
        return {"ok": True, "format": "json",
                "metrics": self._exported_metrics().to_json()}

    async def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        drain = bool(request.get("drain"))
        if drain:
            self._draining = True
        return {"ok": True, "stopping": True, "draining": drain,
                "_shutdown": True,
                "_drain": drain,
                "_drain_timeout": request.get("drain_timeout")}

    # ------------------------------------------------------------------
    # worker-fleet ops
    # ------------------------------------------------------------------

    def _touch_node(self, name: str, local: bool = False) -> _Node:
        node = self._nodes.get(name)
        if node is None:
            node = _Node(name, local=local)
            self._nodes[name] = node
            _log.info("node-join", node=name, local=local)
            self.telemetry.add_event("node-join", node=name, local=local)
        node.last_seen = time.monotonic()
        return node

    def _job_descriptor(self, job: Job) -> Dict[str, Any]:
        descriptor = {"job_id": job.id, "digest": job.digest,
                      "payload": job.payload, "ctx": job.ctx,
                      "attempts": job.attempts,
                      "max_retries": job.max_retries,
                      "remaining": job.remaining()}
        if job.trace_ctx is not None:
            descriptor["trace_ctx"] = job.trace_ctx
        return descriptor

    def _claim_jobs(self, node: _Node, limit: int) -> List[Job]:
        """Lease up to ``limit`` queued jobs to ``node``, finalizing any
        canceled/expired entries encountered on the way."""
        claimed: List[Job] = []
        while self._pending and len(claimed) < limit:
            job_id = self._pending.popleft()
            job = self._jobs.get(job_id)
            if job is None or job.state != JobState.QUEUED:
                continue  # canceled while queued
            if job.expired():
                self._finish_job(job, JobState.TIMEOUT,
                                 error="deadline expired while queued")
                continue
            node.unstarted.add(job.id)
            node.lease_at[job.id] = time.monotonic()
            claimed.append(job)
        self.m.depth.set(len(self._pending))
        if not self._pending and self._work_available is not None:
            self._work_available.clear()
        return claimed

    def _steal_job(self, thief: _Node) -> Optional[Job]:
        """Move one unstarted lease from the most-backlogged other node."""
        victim = None
        for node in self._nodes.values():
            if node is thief or not node.unstarted:
                continue
            if victim is None or len(node.unstarted) > len(victim.unstarted):
                victim = node
        if victim is None:
            return None
        for job_id in sorted(victim.unstarted):
            job = self._jobs.get(job_id)
            if job is None or job.state != JobState.QUEUED:
                victim.unstarted.discard(job_id)
                continue
            victim.unstarted.discard(job_id)
            victim.lease_at.pop(job_id, None)
            victim.stolen_from += 1
            thief.unstarted.add(job_id)
            thief.lease_at[job_id] = time.monotonic()
            self._m_steals.inc()
            _log.info("job-stolen", job_id=job_id, victim=victim.name,
                      thief=thief.name)
            self.telemetry.add_event("job-stolen", job_id=job_id,
                                     victim=victim.name, thief=thief.name)
            return job
        return None

    async def _op_work_pull(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        name = request.get("node")
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                "work-pull needs a 'node' name", code="bad-request")
        node = self._touch_node(name)
        if self._work_available is None:  # handler used without start_async
            self._work_available = asyncio.Event()
        limit = max(1, int(request.get("max_jobs", 1)))
        budget = float(request.get("wait", 0.0))
        deadline = time.monotonic() + budget
        claimed = self._claim_jobs(node, limit)
        while not claimed and not self._stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(self._work_available.wait(),
                                       min(remaining, 0.5))
            except TimeoutError:
                pass
            node.last_seen = time.monotonic()
            claimed = self._claim_jobs(node, limit)
        outcome = "jobs"
        if not claimed:
            stolen = self._steal_job(node)
            if stolen is not None:
                claimed = [stolen]
                outcome = "steal"
            else:
                outcome = "empty"
        self._m_pulls.inc(outcome=outcome)
        return {"ok": True, "draining": self._draining,
                "stopping": self._stopping,
                "jobs": [self._job_descriptor(job) for job in claimed]}

    async def _op_work_start(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        name = request.get("node")
        job_id = request.get("job_id")
        node = self._touch_node(name) if isinstance(name, str) and name \
            else None
        if node is None or not isinstance(job_id, str):
            return protocol.error_response(
                "work-start needs 'node' and 'job_id'", code="bad-request")
        job = self._jobs.get(job_id)
        if job is None or job_id not in node.unstarted:
            return {"ok": True, "granted": False,
                    "reason": "lease moved (stolen, reassigned, or "
                              "unknown job)"}
        node.unstarted.discard(job_id)
        if job.state != JobState.QUEUED:
            node.lease_at.pop(job_id, None)
            return {"ok": True, "granted": False,
                    "reason": f"job is {job.state}"}
        if job.expired():
            node.lease_at.pop(job_id, None)
            self._finish_job(job, JobState.TIMEOUT,
                             error="deadline expired while queued")
            return {"ok": True, "granted": False, "reason": "job timed out"}
        job.state = JobState.RUNNING
        job.started_at = time.monotonic()
        job.attempts += 1
        node.running.add(job_id)
        self.m.running.inc()
        trace = self._traced.get(job_id)
        if trace is not None:
            # submit -> first execution start = queue wait (includes any
            # lease hand-offs); crash retries open a second segment
            now = time.time()
            self.spans.record(
                "queue-wait", trace["span"].child(), cat=self._role,
                start_wall=trace.get("last_wait", trace["submit_wall"]),
                duration=max(0.0, now - trace.get("last_wait",
                                                  trace["submit_wall"])),
                parent_id=trace["span"].span_id, job_id=job_id,
                node=node.name, attempt=job.attempts)
            trace["last_wait"] = now
        _log.info("job-start", job_id=job_id, node=node.name,
                  attempt=job.attempts, digest=job.digest[:12])
        return {"ok": True, "granted": True, "attempts": job.attempts,
                "remaining": job.remaining()}

    def _validate_report(self, request: Dict[str, Any]):
        name = request.get("node")
        job_id = request.get("job_id")
        if not isinstance(name, str) or not name \
                or not isinstance(job_id, str):
            return None, None, protocol.error_response(
                "worker reports need 'node' and 'job_id'",
                code="bad-request")
        node = self._touch_node(name)
        job = self._jobs.get(job_id)
        if job is None or job_id not in node.running \
                or job.state != JobState.RUNNING:
            # stale report: the node was declared dead and its lease
            # re-assigned, or the job finished another way
            return node, None, None
        return node, job, None

    async def _op_work_done(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        node, job, err = self._validate_report(request)
        if err:
            return err
        if job is None:
            return {"ok": True, "accepted": False, "reason": "stale lease"}
        result = request.get("result")
        if not isinstance(result, dict):
            return protocol.error_response(
                "work-done needs a 'result' object", code="bad-request")
        node.running.discard(job.id)
        node.lease_at.pop(job.id, None)
        node.done += 1
        self.m.running.dec()
        await self._cache_call(self.cache.put, job.digest, result,
                               job.trace_ctx)
        self._finish_job(job, JobState.DONE, result=result)
        _log.info("job-done", job_id=job.id, node=node.name,
                  latency=round(job.latency() or 0.0, 4))
        return {"ok": True, "accepted": True}

    async def _op_work_fail(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        node, job, err = self._validate_report(request)
        if err:
            return err
        if job is None:
            return {"ok": True, "accepted": False, "reason": "stale lease"}
        kind = request.get("kind", "error")
        error = str(request.get("error", ""))
        node.running.discard(job.id)
        node.lease_at.pop(job.id, None)
        node.failed += 1
        self.m.running.dec()
        if kind == "timeout":
            self._finish_job(job, JobState.TIMEOUT,
                             error=error or "deadline expired while "
                                            "running")
        elif kind == "crash":
            self._handle_crash(job, error or "worker crashed")
        else:
            self._finish_job(job, JobState.FAILED,
                             error=error or "job failed")
        _log.warning("job-fail", job_id=job.id, node=node.name,
                     kind=kind, error=error)
        return {"ok": True, "accepted": True}

    async def _op_heartbeat(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        name = request.get("node")
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                "heartbeat needs a 'node' name", code="bad-request")
        node = self._touch_node(name)
        self._m_heartbeats.inc()
        info = request.get("info")
        if isinstance(info, dict):
            node.info = info
        boot = request.get("boot")
        if isinstance(boot, str) and boot and boot != node.boot:
            if node.boot is not None:
                # the node process restarted: its sequence counter is
                # back at zero, so accept its stream from scratch — a
                # replayed heartbeat from the *old* incarnation carries
                # the old boot id and never reaches this branch
                _log.info("node-reboot", node=name, boot=boot,
                          previous=node.boot)
                self.telemetry.add_event("node-restart", node=name,
                                         boot=boot, previous=node.boot)
                node.last_seq = 0
            node.boot = boot
        wall = request.get("wall")
        if isinstance(wall, (int, float)):
            # one clock-offset sample per heartbeat: the worker's wall
            # clock vs ours, biased by one-way delay — the ClockModel's
            # min-filter keeps the least-delayed sample
            self.clock.observe(name, float(wall))
        seq = request.get("seq")
        delta = request.get("metrics")
        merged = False
        if isinstance(seq, int) and isinstance(delta, dict) \
                and seq > node.last_seq:
            # exactly-once: deltas are cumulative per ship, tagged with a
            # monotonic sequence; replays (worker retrying a heartbeat it
            # never saw acked) never double-count.  Spans ride the same
            # sequence, so they inherit the same guarantee.
            obs_metrics.get_registry().merge(delta)
            spans = request.get("spans")
            if isinstance(spans, list) and spans:
                self._ingest_spans(spans)
            node.last_seq = seq
            merged = True
        return {"ok": True, "draining": self._draining,
                "stopping": self._stopping, "merged": merged,
                "seq": node.last_seq}

    # ------------------------------------------------------------------
    # telemetry plane: spans, snapshots, trace export
    # ------------------------------------------------------------------

    def _ingest_spans(self, spans: List[Dict[str, Any]],
                      remote_wall: Optional[float] = None) -> None:
        """Accept spans recorded on another node's clock.

        ``remote_wall`` (the sender's clock at response/heartbeat time)
        contributes one offset sample per distinct span node, so the
        stitcher can rebase those lanes onto gateway time.
        """
        if remote_wall is not None:
            local = time.time()
            for node in {s.get("node") for s in spans
                         if isinstance(s, dict)}:
                if isinstance(node, str) and node:
                    self.clock.observe(node, float(remote_wall), local)
        self.span_store.add(spans)

    async def _snapshot_telemetry(self) -> Dict[str, Any]:
        """One merged metric+health snapshot (also drains gateway spans
        into the store so ``trace-export`` sees them)."""
        self.m.uptime.set(self.uptime())
        self.span_store.add(self.spans.drain())
        metrics = self._exported_metrics().export()
        health = await self._op_health({})
        health.pop("ok", None)
        return self.telemetry.add_snapshot(metrics, health)

    async def _telemetry_loop(self) -> None:
        interval = max(0.2, self.telemetry_interval)
        while True:
            await asyncio.sleep(interval)
            try:
                await self._snapshot_telemetry()
            except asyncio.CancelledError:
                raise
            except Exception:
                pass  # telemetry must never take the gateway down

    async def _op_telemetry(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        snapshot = await self._snapshot_telemetry()
        since = request.get("events_since")
        events = self.telemetry.events_since(
            since if isinstance(since, int) else 0)
        return {"ok": True, "tier": self.tier, "run_id": self.run_id,
                "snapshot": snapshot, "events": events,
                "event_seq": self.telemetry.event_seq(),
                "spans_stored": len(self.span_store)}

    async def _op_trace_export(self, request: Dict[str, Any]
                               ) -> Dict[str, Any]:
        """Everything ``repro trace-collect`` needs to stitch one run:
        all stored spans (every tier), per-node clock offsets, and the
        decision records of finished traced jobs stamped with the span
        ids that produced them."""
        from repro.trace.tracer import Tracer
        self.span_store.add(self.spans.drain())
        trace_id = request.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            return protocol.error_response(
                "'trace_id' must be a string", code="bad-request")
        spans = self.span_store.spans(trace_id)
        seen: set = set()
        decisions: List[Dict[str, Any]] = []
        site_decisions: List[Dict[str, Any]] = []
        for job_id, trace in list(self._traced.items()):
            job = self._jobs.get(job_id)
            if job is None or not isinstance(job.result, dict):
                continue
            if trace_id and trace["span"].trace_id != trace_id:
                continue
            export = job.result.get("trace")
            if not isinstance(export, dict):
                continue
            link = {"job_id": job.id, "digest": job.digest,
                    "span_id": trace["span"].span_id,
                    "trace_id": trace["span"].trace_id}
            for kind, field, out in (
                    ("loop", "decisions", decisions),
                    ("site", "site_decisions", site_decisions)):
                for d in export.get(field) or ():
                    if not isinstance(d, dict):
                        continue
                    # same identity rule as Tracer.merge: a crash-retried
                    # job's re-exported decisions count exactly once
                    key = Tracer._decision_key(job.digest, kind, d)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append({**d, **link})
        return {"ok": True, "run_id": self.run_id, "spans": spans,
                "clock_offsets": self.clock.to_dict(),
                "trace_ids": self.span_store.trace_ids(),
                "decisions": decisions,
                "site_decisions": site_decisions,
                "dropped": self.span_store.dropped + self.spans.dropped}

    # ------------------------------------------------------------------
    # crash retry + dead-node sweeping
    # ------------------------------------------------------------------

    def _handle_crash(self, job: Job, error: str) -> None:
        if job.attempts > job.max_retries:
            self._finish_job(
                job, JobState.FAILED,
                error=f"worker crashed {job.attempts} times "
                      f"(retries exhausted): {error}")
            return
        self.m.retried.inc()
        job.state = JobState.QUEUED
        delay = self.retry_backoff * (2 ** (job.attempts - 1))
        remaining = job.remaining()
        if remaining is not None:
            delay = min(delay, max(0.0, remaining))

        def requeue() -> None:
            if self._stopping:
                self._finish_job(job, JobState.FAILED,
                                 error="service stopped during crash "
                                       "retry")
                return
            if job.state == JobState.QUEUED:
                self._enqueue(job.id, front=True)

        loop = self._loop
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                loop = None
        if delay <= 0 or loop is None:
            requeue()
        else:
            loop.call_later(delay, requeue)

    def _record_job_span(self, job: Job,
                         trace: Dict[str, Any]) -> None:
        """The whole-job span: submit to finish, child of the client's
        root context, parent of queue-wait/execute/cache spans."""
        if trace.get("recorded"):
            return
        trace["recorded"] = True
        self.spans.record(
            "job", trace["span"], cat=self._role,
            start_wall=trace["submit_wall"],
            duration=job.latency() or 0.0,
            parent_id=trace["root"].span_id,
            job_id=job.id, digest=job.digest, state=job.state,
            cached=job.cached, attempts=job.attempts)

    def _finish_job(self, job: Job, state: str,
                    result: Optional[Dict[str, Any]] = None,
                    error: str = "") -> None:
        job.finish(state, result=result, error=error)
        self.m.finished(job)
        trace = self._traced.get(job.id)
        if trace is not None:
            self._record_job_span(job, trace)
        if self._by_digest.get(job.digest) == job.id:
            del self._by_digest[job.digest]
        event = self._waiters.get(job.id)
        if event is not None:
            event.set()

    async def _sweep_loop(self) -> None:
        interval = max(0.1, self.heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            self._sweep_dead_nodes()

    def _sweep_dead_nodes(self) -> None:
        now = time.monotonic()
        for name in list(self._nodes):
            node = self._nodes[name]
            if node.local:
                continue
            if now - node.last_seen <= self.heartbeat_timeout:
                continue
            if not node.unstarted and not node.running:
                # silent but idle: just forget it (it can re-join)
                del self._nodes[name]
                continue
            self._m_dead.inc()
            _log.warning("node-dead", node=name,
                         unstarted=len(node.unstarted),
                         running=len(node.running),
                         silent=round(now - node.last_seen, 3))
            self.telemetry.add_event(
                "node-dead", node=name, unstarted=len(node.unstarted),
                running=len(node.running),
                silent=round(now - node.last_seen, 3))
            for job_id in sorted(node.unstarted):
                job = self._jobs.get(job_id)
                if job is not None and job.state == JobState.QUEUED:
                    self._enqueue(job_id, front=True)
            for job_id in sorted(node.running):
                job = self._jobs.get(job_id)
                if job is not None and job.state == JobState.RUNNING:
                    self.m.running.dec()
                    self._handle_crash(
                        job, f"worker node {name} stopped heartbeating")
            del self._nodes[name]

    # ------------------------------------------------------------------
    # embedded local workers (one-process cluster)
    # ------------------------------------------------------------------

    async def _local_worker_loop(self, name: str) -> None:
        """An embedded worker driven through the same lease machinery as
        a remote node, so local and fleet execution share code paths."""
        node = self._touch_node(name, local=True)
        while not self._stopping:
            node.last_seen = time.monotonic()
            claimed = self._claim_jobs(node, 1)
            if not claimed:
                stolen = self._steal_job(node)
                if stolen is not None:
                    claimed = [stolen]
            if not claimed:
                await self._work_available.wait()
                continue
            job = claimed[0]
            start = await self._op_work_start(
                {"node": name, "job_id": job.id})
            if not start.get("granted"):
                continue
            outcome = "done"
            t0_wall, t0 = time.time(), time.perf_counter()
            try:
                result, delta = await self.pool.run_async(
                    run_job_observed, (job.payload, job.ctx),
                    timeout=job.remaining())
            except WorkerTimeout:
                outcome = "timeout"
                await self._op_work_fail(
                    {"node": name, "job_id": job.id, "kind": "timeout",
                     "error": "deadline expired while running"})
            except WorkerCrashError as exc:
                outcome = "crash"
                await self._op_work_fail(
                    {"node": name, "job_id": job.id, "kind": "crash",
                     "error": str(exc)})
            except Exception as exc:
                outcome = "error"
                await self._op_work_fail(
                    {"node": name, "job_id": job.id, "kind": "error",
                     "error": f"{type(exc).__name__}: {exc}"})
            else:
                if delta:
                    obs_metrics.get_registry().merge(delta)
                await self._op_work_done(
                    {"node": name, "job_id": job.id, "result": result})
            trace = self._traced.get(job.id)
            if trace is not None:
                self.spans.record(
                    "execute", trace["span"].child(), cat="worker",
                    start_wall=t0_wall,
                    duration=time.perf_counter() - t0,
                    parent_id=trace["span"].span_id, job_id=job.id,
                    digest=job.digest, node=name, outcome=outcome,
                    attempt=job.attempts)

    # op dispatch table (client surface + worker surface)
    _OPS = {
        "submit": _op_submit,
        "status": _op_status,
        "result": _op_result,
        "cancel": _op_cancel,
        "health": _op_health,
        "metrics": _op_metrics,
        "shutdown": _op_shutdown,
        "work-pull": _op_work_pull,
        "work-start": _op_work_start,
        "work-done": _op_work_done,
        "work-fail": _op_work_fail,
        "heartbeat": _op_heartbeat,
        "telemetry": _op_telemetry,
        "trace-export": _op_trace_export,
    }

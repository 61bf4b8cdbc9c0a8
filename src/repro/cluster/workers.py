"""Worker nodes: the execution fleet behind the cluster gateway.

A :class:`WorkerNode` is a separate process (usually a separate machine)
that pulls leased jobs from the gateway, executes them in its own
crash-isolated :class:`~repro.experiments.executor.WorkerPool`, and
reports outcomes back — the remote counterpart of the gateway's
embedded local workers:

* each executor thread owns a private gateway connection and loops
  ``work-pull`` (long-poll) → ``work-start`` (lease check) → execute →
  ``work-done``/``work-fail``, so a slow job on one thread never blocks
  another thread's round trips;
* pool-worker crashes surface as ``work-fail kind=crash`` and the
  *gateway* owns the retry/backoff bookkeeping — a node can die
  mid-retry without losing the count;
* a heartbeat thread ships liveness plus a metrics-registry delta and
  any buffered distributed spans, tagged with a monotonic sequence
  number and this process's ``boot`` id.  The same ``(seq, delta,
  spans)`` triple is resent until the gateway acknowledges it, and the
  gateway merges each seq at most once — metric/span transfer is
  exactly-once even across lost responses (the cross-node extension of
  the PR 5 export/delta/merge arithmetic).  The boot id lets the
  gateway distinguish a *restarted* node (sequence counter reset to
  zero — accept from scratch) from a replayed heartbeat (drop);
* each heartbeat carries the node's wall clock, giving the gateway a
  stream of clock-offset samples for cross-node trace stitching;
* when the gateway reports ``stopping`` (or the link stays dead past
  the failure budget) the node shuts itself down.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.executor import (WorkerCrashError, WorkerPool,
                                        WorkerTimeout, resolve_jobs)
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.distributed import SpanRecorder, TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.service import protocol
from repro.service.execution import run_job_observed

_log = obs_logging.get_logger("repro.cluster.worker")


class GatewayUnreachable(Exception):
    """The gateway link failed and could not be re-established."""


class GatewayLink:
    """One persistent request/response connection to the gateway.

    Not shared across threads — every executor thread and the heartbeat
    thread carry their own link, so a long-poll on one never serializes
    another's reports.  Each request retries once on a fresh socket
    before raising :class:`GatewayUnreachable`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout)
                protocol.send_message(self._sock, message)
                return protocol.recv_message(self._sock)
            except (OSError, protocol.ProtocolError) as exc:
                self.close()
                if attempt:
                    raise GatewayUnreachable(
                        f"gateway {self.host}:{self.port} unreachable "
                        f"({exc})") from None

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


class WorkerNode:
    """One member of the worker fleet (see module docstring)."""

    def __init__(self, gateway_host: str, gateway_port: int,
                 name: Optional[str] = None,
                 threads: int = 1, jobs: Optional[int] = None,
                 pull_wait: float = 1.0,
                 heartbeat_interval: float = 1.0,
                 link_failure_budget: int = 5,
                 inline: Optional[bool] = None):
        self.gateway = (gateway_host, gateway_port)
        self.name = name or f"worker-{socket.gethostname()}-{os.getpid()}"
        self.threads = max(1, threads)
        self.pull_wait = pull_wait
        self.heartbeat_interval = heartbeat_interval
        self.link_failure_budget = link_failure_budget
        self.pool = WorkerPool(resolve_jobs(jobs if jobs is not None
                                            else self.threads),
                               inline=inline)
        self._stop = threading.Event()
        self._threads: list = []
        self.jobs_done = 0
        self.jobs_failed = 0
        self._count_lock = threading.Lock()
        #: distinguishes this process incarnation in heartbeats, so a
        #: restart (sequence counter back to zero) is not mistaken for
        #: a replay by the gateway's exactly-once merge
        self.boot = uuid.uuid4().hex[:12]
        #: distributed spans recorded while executing traced jobs,
        #: shipped with the heartbeat stream
        self.spans = SpanRecorder(self.name)
        # exactly-once metrics+span shipping state (heartbeat thread only)
        self._last_export = obs_metrics.get_registry().export()
        self._seq = 0
        self._pending_ship: Optional[Tuple[int, Dict, Dict, List]] = None

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        _log.info("worker-start", node=self.name, threads=self.threads,
                  gateway=f"{self.gateway[0]}:{self.gateway[1]}")
        for i in range(self.threads):
            t = threading.Thread(target=self._executor_loop,
                                 name=f"repro-worker-exec-{i}",
                                 daemon=True)
            t.start()
            self._threads.append(t)
        t = threading.Thread(target=self._heartbeat_loop,
                             name="repro-worker-heartbeat", daemon=True)
        t.start()
        self._threads.append(t)

    def stop(self) -> None:
        self._stop.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the node stops; True when it did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self._threads:
            budget = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            t.join(timeout=budget)
        self.pool.shutdown()
        return not any(t.is_alive() for t in self._threads)

    def run(self) -> None:
        """Start and block until the node stops (the CLI foreground)."""
        self.start()
        while not self._stop.is_set():
            self._stop.wait(timeout=0.2)
        self.wait(timeout=10.0)

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- the executor loop -------------------------------------------

    def _executor_loop(self) -> None:
        link = GatewayLink(*self.gateway)
        failures = 0
        try:
            while not self._stop.is_set():
                try:
                    response = link.request(
                        {"op": "work-pull", "node": self.name,
                         "max_jobs": 1, "wait": self.pull_wait})
                except GatewayUnreachable:
                    failures += 1
                    if failures >= self.link_failure_budget:
                        _log.warning("worker-link-dead", node=self.name)
                        self._stop.set()
                        return
                    self._stop.wait(timeout=0.5)
                    continue
                failures = 0
                if response.get("stopping"):
                    self._stop.set()
                    return
                for descriptor in response.get("jobs") or []:
                    self._run_one(link, descriptor)
        finally:
            link.close()

    def _run_one(self, link: GatewayLink,
                 descriptor: Dict[str, Any]) -> None:
        job_id = descriptor.get("job_id")
        payload = descriptor.get("payload") or {}
        ctx = descriptor.get("ctx") or {}
        trace_parent = None
        try:
            trace_parent = TraceContext.from_dict(
                descriptor.get("trace_ctx"))
        except ValueError:
            pass  # malformed context: run untraced rather than fail
        try:
            start = link.request({"op": "work-start", "node": self.name,
                                  "job_id": job_id})
        except GatewayUnreachable:
            return  # lease times out gateway-side; job is re-assigned
        if not start.get("granted"):
            _log.info("lease-refused", node=self.name, job_id=job_id,
                      reason=start.get("reason"))
            return
        report: Dict[str, Any]
        outcome = "done"
        t0_wall, t0 = time.time(), time.perf_counter()
        with obs_logging.log_context(job_id=job_id, **ctx):
            try:
                result, delta = self.pool.run(
                    run_job_observed, (payload, ctx),
                    timeout=start.get("remaining"))
            except WorkerTimeout:
                outcome = "timeout"
                report = {"op": "work-fail", "kind": "timeout",
                          "error": "deadline expired while running"}
            except WorkerCrashError as exc:
                outcome = "crash"
                report = {"op": "work-fail", "kind": "crash",
                          "error": str(exc)}
            except Exception as exc:
                outcome = "error"
                report = {"op": "work-fail", "kind": "error",
                          "error": f"{type(exc).__name__}: {exc}"}
            else:
                if delta:
                    obs_metrics.get_registry().merge(delta)
                report = {"op": "work-done", "result": result}
        if trace_parent is not None:
            self.spans.record(
                "execute", trace_parent.child(), cat="worker",
                start_wall=t0_wall,
                duration=time.perf_counter() - t0,
                parent_id=trace_parent.span_id, job_id=job_id,
                digest=descriptor.get("digest"), outcome=outcome,
                attempt=start.get("attempts"))
        report.update(node=self.name, job_id=job_id)
        with self._count_lock:
            if report["op"] == "work-done":
                self.jobs_done += 1
            else:
                self.jobs_failed += 1
        try:
            link.request(report)
        except GatewayUnreachable:
            # the gateway will declare this node dead and retry the job;
            # dedup/caching keeps the re-run cheap and correct
            _log.warning("report-lost", node=self.name, job_id=job_id)

    # -- heartbeats + exactly-once metric/span shipping --------------

    def _capture_ship(self) -> Tuple[int, Dict, Dict, List]:
        if self._pending_ship is None:
            export = obs_metrics.get_registry().export()
            delta = MetricsRegistry.delta(self._last_export, export)
            # spans drain into the pending ship and stay there until the
            # gateway acks the seq — a lost response resends the same
            # batch, and the gateway's seq check drops the replay
            self._pending_ship = (self._seq + 1, delta or {}, export,
                                  self.spans.drain())
        return self._pending_ship

    def _heartbeat_message(self) -> Tuple[Dict[str, Any], int, Dict]:
        seq, delta, export, spans = self._capture_ship()
        with self._count_lock:
            info = {"pid": os.getpid(), "threads": self.threads,
                    "pool_mode": "inline" if self.pool.inline
                                 else "process",
                    "boot": self.boot,
                    "jobs_done": self.jobs_done,
                    "jobs_failed": self.jobs_failed}
        message = {"op": "heartbeat", "node": self.name,
                   "boot": self.boot, "wall": time.time(),
                   "seq": seq, "metrics": delta, "info": info}
        if spans:
            message["spans"] = spans
        return message, seq, export

    def _heartbeat_loop(self) -> None:
        link = GatewayLink(*self.gateway)
        failures = 0
        try:
            while not self._stop.wait(timeout=self.heartbeat_interval):
                message, seq, export = self._heartbeat_message()
                try:
                    response = link.request(message)
                except GatewayUnreachable:
                    failures += 1
                    if failures >= self.link_failure_budget:
                        _log.warning("heartbeat-link-dead",
                                     node=self.name)
                        self._stop.set()
                        return
                    continue
                failures = 0
                if response.get("ok"):
                    # acked: advance the baseline; replays of this seq
                    # (had the response been lost) are no-ops gateway-side
                    self._seq = seq
                    self._last_export = export
                    self._pending_ship = None
                if response.get("stopping"):
                    self._stop.set()
                    return
        finally:
            # best-effort final flush so the last jobs' spans/metrics
            # reach the gateway before this process exits
            try:
                message, seq, export = self._heartbeat_message()
                response = link.request(message)
                if response and response.get("ok"):
                    self._seq = seq
                    self._last_export = export
                    self._pending_ship = None
            except (GatewayUnreachable, Exception):
                pass
            link.close()

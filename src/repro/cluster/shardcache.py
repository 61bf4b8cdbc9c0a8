"""The result cache, partitioned across cache-shard nodes.

A shard node is a tiny threaded TCP server (:class:`CacheShardServer`)
wrapping one existing :class:`repro.service.cache.ResultCache` — LRU
memory tier, bounded JSON disk tier, corrupt-entry sweep — behind the
same length-prefixed JSON protocol the rest of the system speaks
(``cache-get`` / ``cache-put`` / ``cache-stats`` / ``health`` /
``shutdown``).

:class:`ShardedCache` is the client the serving core holds: it routes
each payload digest over a :class:`repro.cluster.ring.HashRing` to one
shard backend and mirrors the ``ResultCache`` interface
(``get``/``put``/``stats``), so one box and a shard fleet look the
same to the core.  Backends are either in-process (:class:`LocalShard`,
``repro serve`` and tests) or remote (:class:`RemoteShard`, a
persistent reconnecting socket).

Failure model: the cache is an optimization, never a correctness
dependency.  A shard that is down makes ``get`` a miss and ``put`` a
no-op for its arc of the ring — jobs recompute, the cluster stays
correct — and every such failure is counted per shard
(``repro_cluster_shard_requests_total{shard=...,outcome=error}``).
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.distributed import SpanRecorder, TraceContext
from repro.service import protocol
from repro.service.cache import ResultCache

_log = obs_logging.get_logger("repro.cluster.shard")


class ShardError(Exception):
    """A shard backend could not serve a request (node down, bad frame)."""


# ---------------------------------------------------------------------------
# shard backends
# ---------------------------------------------------------------------------

class LocalShard:
    """In-process shard: wraps a ResultCache directly."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 capacity: int = 128, directory: Optional[str] = None):
        self.cache = cache if cache is not None \
            else ResultCache(capacity, directory=directory)

    @property
    def blocking(self) -> bool:
        """Whether a call can wait on I/O (only with a disk tier)."""
        return self.cache.directory is not None

    def get(self, digest: str, trace_ctx: Optional[Dict] = None
            ) -> Optional[Dict]:
        return self.cache.get(digest)

    def put(self, digest: str, result: Dict,
            trace_ctx: Optional[Dict] = None) -> None:
        self.cache.put(digest, result)

    def stats(self) -> Dict[str, object]:
        return {"entries": len(self.cache), **self.cache.stats()}

    def close(self) -> None:
        pass


class RemoteShard:
    """A shard reached over the wire: persistent socket, one reconnect
    attempt per request, :class:`ShardError` on failure."""

    blocking = True

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        #: callable(spans, remote_wall) receiving spans the shard node
        #: piggybacked on a traced response (set by the gateway)
        self.on_spans = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        return sock

    def request(self, message: Dict) -> Dict:
        with self._lock:
            for attempt in (0, 1):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    protocol.send_message(self._sock, message)
                    return protocol.recv_message(self._sock)
                except (OSError, protocol.ProtocolError) as exc:
                    # drop the (possibly half-dead) connection; retry
                    # once with a fresh one before giving up
                    if self._sock is not None:
                        try:
                            self._sock.close()
                        except OSError:
                            pass
                        self._sock = None
                    if attempt:
                        raise ShardError(
                            f"shard {self.host}:{self.port} unreachable "
                            f"({exc})") from None

    def _harvest_spans(self, response: Dict) -> None:
        spans = response.get("spans")
        if isinstance(spans, list) and spans and self.on_spans is not None:
            try:
                self.on_spans(spans, response.get("wall"))
            except Exception:
                pass  # span delivery must never fail a cache op

    def get(self, digest: str, trace_ctx: Optional[Dict] = None
            ) -> Optional[Dict]:
        message = {"op": "cache-get", "digest": digest}
        if trace_ctx is not None:
            message["trace_ctx"] = trace_ctx
        response = self.request(message)
        if not response.get("ok"):
            raise ShardError(response.get("error", "cache-get failed"))
        self._harvest_spans(response)
        return response.get("result") if response.get("found") else None

    def put(self, digest: str, result: Dict,
            trace_ctx: Optional[Dict] = None) -> None:
        message = {"op": "cache-put", "digest": digest, "result": result}
        if trace_ctx is not None:
            message["trace_ctx"] = trace_ctx
        response = self.request(message)
        if not response.get("ok"):
            raise ShardError(response.get("error", "cache-put failed"))
        self._harvest_spans(response)

    def stats(self) -> Dict[str, object]:
        response = self.request({"op": "cache-stats"})
        if not response.get("ok"):
            raise ShardError(response.get("error", "cache-stats failed"))
        return {"entries": response.get("entries", 0),
                **response.get("stats", {})}

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None


def parse_shard_spec(spec: str) -> Tuple[str, int]:
    """``host:port`` (or bare ``:port`` = 127.0.0.1) -> address tuple."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"bad shard spec {spec!r}; expected host:port")
    return host or "127.0.0.1", int(port)


# ---------------------------------------------------------------------------
# the sharded client
# ---------------------------------------------------------------------------

class ShardedCache:
    """Digest-partitioned result cache over a consistent-hash ring.

    Mirrors the single-node ``ResultCache`` surface (``get``/``put``/
    ``stats``) so the gateway treats one box and a shard fleet the same
    way.  All methods are thread-safe (backends carry their own locks;
    ring membership changes take the membership lock).
    """

    def __init__(self, shards: Optional[Dict[str, object]] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 registry: Optional[obs_metrics.MetricsRegistry] = None):
        self._lock = threading.Lock()
        self._shards: Dict[str, object] = {}
        self._ring = HashRing(replicas=replicas)
        registry = registry or obs_metrics.get_registry()
        self._m_requests = registry.counter(
            "repro_cluster_shard_requests_total",
            "shard cache requests by shard and outcome "
            "(hit/miss/put/error)")
        self._span_sink = None
        for name, backend in (shards or {}).items():
            self.add_shard(name, backend)

    def set_span_sink(self, sink) -> None:
        """Route the spans remote shards piggyback on traced responses
        to ``sink(spans, remote_wall)``; ``remote_wall`` (the shard
        node's clock) lets the receiver estimate the offset.  Local
        shards record nothing: the caller's own ``cache-lookup`` span
        covers them."""
        with self._lock:
            self._span_sink = sink
            for backend in self._shards.values():
                if hasattr(backend, "on_spans"):
                    backend.on_spans = sink

    @classmethod
    def from_specs(cls, specs: List[str], timeout: float = 10.0,
                   replicas: int = DEFAULT_REPLICAS,
                   registry=None) -> "ShardedCache":
        """Build from ``host:port`` strings (the gateway CLI path)."""
        shards = {}
        for spec in specs:
            host, port = parse_shard_spec(spec)
            shards[f"{host}:{port}"] = RemoteShard(host, port,
                                                   timeout=timeout)
        return cls(shards, replicas=replicas, registry=registry)

    # -- membership --------------------------------------------------

    def add_shard(self, name: str, backend) -> None:
        with self._lock:
            self._shards[name] = backend
            self._ring.add_node(name)
            if self._span_sink is not None \
                    and hasattr(backend, "on_spans"):
                backend.on_spans = self._span_sink

    def remove_shard(self, name: str) -> None:
        with self._lock:
            backend = self._shards.pop(name, None)
            self._ring.remove_node(name)
        if backend is not None:
            backend.close()

    @property
    def shard_names(self) -> List[str]:
        with self._lock:
            return sorted(self._shards)

    @property
    def replicas(self) -> int:
        return self._ring.replicas

    @property
    def blocking(self) -> bool:
        """Whether any shard call can wait on sockets or disk."""
        with self._lock:
            return any(shard.blocking for shard in self._shards.values())

    def _route(self, digest: str):
        with self._lock:
            name = self._ring.node_for(digest)
            return name, self._shards.get(name)

    # -- the ResultCache surface -------------------------------------

    def get(self, digest: str,
            trace_ctx: Optional[Dict] = None) -> Optional[Dict]:
        name, shard = self._route(digest)
        if shard is None:
            return None
        try:
            if trace_ctx is not None:
                result = shard.get(digest, trace_ctx=trace_ctx)
            else:
                result = shard.get(digest)
        except ShardError as exc:
            self._m_requests.inc(shard=name, outcome="error")
            _log.warning("shard-get-failed", shard=name, error=str(exc))
            return None
        self._m_requests.inc(shard=name,
                             outcome="hit" if result is not None else "miss")
        return result

    def put(self, digest: str, result: Dict,
            trace_ctx: Optional[Dict] = None) -> None:
        name, shard = self._route(digest)
        if shard is None:
            return
        try:
            if trace_ctx is not None:
                shard.put(digest, result, trace_ctx=trace_ctx)
            else:
                shard.put(digest, result)
        except ShardError as exc:
            self._m_requests.inc(shard=name, outcome="error")
            _log.warning("shard-put-failed", shard=name, error=str(exc))
            return
        self._m_requests.inc(shard=name, outcome="put")

    def sweep(self) -> int:
        """Sweep the in-process shards' disk tiers (remote shard nodes
        sweep their own at start); returns the entries removed."""
        with self._lock:
            shards = list(self._shards.values())
        return sum(shard.cache.sweep() for shard in shards
                   if isinstance(shard, LocalShard))

    def stats(self) -> Dict[str, int]:
        """Aggregate lookup counters across reachable shards (the
        single-node ``health`` shape)."""
        totals = {"hits": 0, "disk_hits": 0, "misses": 0, "evictions": 0}
        for stats in self.shard_stats().values():
            for key in totals:
                value = stats.get(key)
                if isinstance(value, int):
                    totals[key] += value
        return totals

    def shard_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-shard stats; unreachable shards report ``alive: False``."""
        with self._lock:
            shards = dict(self._shards)
        out: Dict[str, Dict[str, object]] = {}
        for name, shard in sorted(shards.items()):
            try:
                out[name] = {"alive": True, **shard.stats()}
            except ShardError as exc:
                out[name] = {"alive": False, "error": str(exc)}
        return out

    def ring_info(self) -> Dict[str, object]:
        with self._lock:
            return {"replicas": self._ring.replicas,
                    "shards": self._ring.nodes}

    def close(self) -> None:
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.close()


# ---------------------------------------------------------------------------
# the shard node server
# ---------------------------------------------------------------------------

class CacheShardServer:
    """One cache-shard node: a ResultCache behind the wire protocol.

    Deliberately tiny — no queue, no workers, no job table.  Each
    accepted connection gets a handler thread (the gateway holds one
    persistent connection per shard, so thread count stays small).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 capacity: int = 512, directory: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 name: Optional[str] = None):
        self.cache = ResultCache(capacity, directory=directory,
                                 max_bytes=max_bytes)
        self.host = host
        self.port = port
        self.name = name
        self.address: Optional[Tuple[str, int]] = None
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    def start(self) -> Tuple[str, int]:
        swept = self.cache.sweep()
        if swept:
            _log.warning("shard-sweep", removed=swept)
        self._sock = socket.create_server((self.host, self.port))
        self.address = self._sock.getsockname()[:2]
        if self.name is None:
            self.name = f"shard:{self.address[0]}:{self.address[1]}"
        t = threading.Thread(target=self._accept_loop,
                             name="repro-shard-accept", daemon=True)
        t.start()
        self._threads.append(t)
        return self.address

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        if self._sock is not None:
            # close() alone does not wake a thread blocked in accept()
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=5.0)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._stop.wait(timeout=timeout)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve_connection,
                                 args=(conn,), daemon=True)
            t.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request = protocol.recv_message(conn)
                except protocol.ProtocolError:
                    return
                try:
                    response = self.handle_request(request)
                except Exception as exc:
                    response = protocol.error_response(
                        f"{type(exc).__name__}: {exc}", code="internal")
                shutdown = response.pop("_shutdown", False)
                try:
                    protocol.send_message(conn, response)
                except (OSError, protocol.ProtocolError):
                    return
                if shutdown:
                    threading.Thread(target=self.stop,
                                     daemon=True).start()
                    return

    def handle_request(self, request: Dict) -> Dict:
        op = request.get("op")
        trace_ctx = request.get("trace_ctx")
        if op == "cache-get":
            digest = request.get("digest")
            if not isinstance(digest, str):
                return protocol.error_response("cache-get needs a "
                                               "'digest'", "bad-request")
            response = {"ok": True}
            with self._piggyback_span(response, "cache-get",
                                      trace_ctx) as span:
                result = self.cache.get(digest)
                span.set(hit=result is not None)
            response.update(found=result is not None, result=result)
            return response
        if op == "cache-put":
            digest = request.get("digest")
            result = request.get("result")
            if not isinstance(digest, str) or not isinstance(result, dict):
                return protocol.error_response(
                    "cache-put needs 'digest' and a 'result' object",
                    "bad-request")
            response = {"ok": True, "stored": True}
            with self._piggyback_span(response, "cache-put", trace_ctx):
                self.cache.put(digest, result)
            return response
        if op in ("cache-stats", "health"):
            return {"ok": True, "role": "cache-shard",
                    "entries": len(self.cache),
                    "capacity": self.cache.capacity,
                    "max_bytes": self.cache.max_bytes,
                    "directory": self.cache.directory,
                    "stats": self.cache.stats()}
        if op == "shutdown":
            return {"ok": True, "stopping": True, "_shutdown": True}
        return protocol.error_response(
            f"unknown op {op!r}; expected cache-get/cache-put/"
            f"cache-stats/health/shutdown", code="bad-op")

    @contextmanager
    def _piggyback_span(self, response: Dict, name: str, trace_ctx):
        """Time one cache op as a span under the caller's ``trace_ctx``
        and piggyback it on ``response`` with *this* node's wall clock
        (the caller's clock-offset sample for our lane).  A missing or
        malformed context must never make the op fail: it runs untraced."""
        try:
            parent = TraceContext.from_dict(trace_ctx)
        except ValueError:
            parent = None
        recorder = SpanRecorder(self.name
                                or f"shard:{self.host}:{self.port}")
        with recorder.span(name, parent, cat="shard") as span:
            yield span
        if parent is not None:
            response["spans"] = recorder.drain()
            response["wall"] = time.time()

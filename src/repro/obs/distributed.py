"""Distributed tracing: trace contexts, span recording, cross-node
stitching.

The cluster slices one job's causal story across machines — a submit
hits the gateway, the payload digest routes to a cache shard, a worker
node executes, decisions come back — and PR 3's in-process tracer
cannot follow it.  This module adds the three pieces that make the
story whole again:

* **Trace context** (:class:`TraceContext`): a W3C-traceparent-style
  identifier carried *beside* every payload (like the ``ctx``
  correlation IDs — never inside it, so payload digests and dedup are
  byte-identical with tracing on or off).  One ``trace_id`` names the
  whole distributed operation; each hop derives a child ``span_id``.

* **Span recording** (:class:`SpanRecorder`): a node-local, thread-safe
  buffer of completed spans stamped with *wall-clock* timestamps (the
  only clock that can be compared across machines).  Nodes drain their
  buffer into their existing streams — workers piggyback spans on
  heartbeats with an exactly-once sequence number, shards piggyback on
  cache responses — so tracing adds no new connections.

* **Stitching** (:class:`ClockModel`, :func:`stitch_spans`): every
  cross-node message carries the sender's wall clock; the receiver's
  offset sample ``local_recv - remote_send`` over-estimates the true
  clock offset by the one-way network delay, so the model keeps the
  *minimum* sample per node (the least-delayed message).  Rebasing each
  node's spans by its estimated offset puts the whole cluster on one
  timeline, emitted as a single Perfetto-loadable Chrome trace with
  one process lane per node.

Everything is JSON-safe and dependency-free; a request without a
``trace_ctx`` costs one ``is None`` test per hop.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: traceparent version emitted (the only one defined by W3C level 1)
TRACEPARENT_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

#: spans kept per recorder before the oldest are dropped (a guard
#: against an unbounded buffer on a node nobody drains)
DEFAULT_SPAN_BUFFER = 10_000


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class TraceContext:
    """One hop's view of a distributed trace (immutable value object)."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: Optional[str] = None,
                 span_id: Optional[str] = None, sampled: bool = True):
        self.trace_id = trace_id or new_trace_id()
        self.span_id = span_id or new_span_id()
        self.sampled = sampled

    def child(self) -> "TraceContext":
        """A fresh span id under the same trace (the next hop's parent
        is this context's span)."""
        return TraceContext(self.trace_id, new_span_id(), self.sampled)

    def to_traceparent(self) -> str:
        flags = "01" if self.sampled else "00"
        return (f"{TRACEPARENT_VERSION}-{self.trace_id}-"
                f"{self.span_id}-{flags}")

    def to_dict(self) -> Dict[str, str]:
        """The wire shape carried beside payloads."""
        return {"traceparent": self.to_traceparent()}

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        match = _TRACEPARENT_RE.match(header or "")
        if not match:
            raise ValueError(f"malformed traceparent {header!r}")
        _version, trace_id, span_id, flags = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            raise ValueError("traceparent trace-id/span-id must be "
                             "non-zero")
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 1))

    @classmethod
    def from_dict(cls, obj: Optional[Dict[str, Any]]
                  ) -> Optional["TraceContext"]:
        """Parse a wire ``trace_ctx``; None when absent, ValueError when
        present but malformed."""
        if obj is None:
            return None
        if not isinstance(obj, dict):
            raise ValueError("'trace_ctx' must be an object")
        return cls.from_traceparent(obj.get("traceparent", ""))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.to_traceparent()})"


def validate_trace_ctx(obj: Any) -> Optional[str]:
    """Problem description for a wire ``trace_ctx`` field, or None.

    Mirrors :func:`repro.service.ops.validate_ctx`: both ride beside the
    payload and must be rejected loudly rather than silently dropped.
    """
    if obj is None:
        return None
    try:
        TraceContext.from_dict(obj)
    except ValueError as exc:
        return f"bad 'trace_ctx': {exc}"
    return None


# ---------------------------------------------------------------------------
# span recording
# ---------------------------------------------------------------------------

class _OpenSpan:
    """Context manager for one in-flight span; usable as the parent
    context for downstream hops via ``.ctx``.  Arguments known only
    once the work is done go on with :meth:`set`.  Without a parent
    (untraced work) it records nothing."""

    __slots__ = ("_recorder", "_name", "_cat", "_args", "ctx",
                 "_parent_id", "_t0_wall", "_t0_perf")

    def __init__(self, recorder: "SpanRecorder", name: str, cat: str,
                 parent: Optional[TraceContext], args: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._args = args
        self._parent_id = parent and parent.span_id
        self.ctx = parent and parent.child()   # this span's own identity
        self._t0_wall = 0.0
        self._t0_perf = 0.0

    def __enter__(self) -> "_OpenSpan":
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        return self

    def set(self, **args: Any) -> None:
        self._args.update(args)

    def __exit__(self, exc_type, *exc) -> bool:
        if self.ctx is None:
            return False
        if exc_type is not None:
            self._args = dict(self._args, error=exc_type.__name__)
        self._recorder.record(
            self._name, self.ctx, cat=self._cat,
            start_wall=self._t0_wall,
            duration=time.perf_counter() - self._t0_perf,
            parent_id=self._parent_id, **self._args)
        return False


class SpanRecorder:
    """Node-local buffer of completed distributed spans.

    Thread-safe; bounded (oldest spans drop past ``max_buffer``, with
    the loss counted so a stitched trace can say it is partial).
    """

    def __init__(self, node: str, max_buffer: int = DEFAULT_SPAN_BUFFER):
        self.node = node
        self.max_buffer = max_buffer
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []

    def span(self, name: str, parent: Optional[TraceContext],
             cat: str = "cluster", **args: Any) -> _OpenSpan:
        """Context manager recording one timed span under ``parent``
        (nothing when ``parent`` is None)."""
        return _OpenSpan(self, name, cat, parent, args)

    def record(self, name: str, ctx: TraceContext, cat: str = "cluster",
               start_wall: Optional[float] = None, duration: float = 0.0,
               parent_id: Optional[str] = None, **args: Any) -> None:
        """Append one already-timed span (wall-clock seconds)."""
        span: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "node": self.node,
            "trace_id": ctx.trace_id,
            "span_id": ctx.span_id,
            "parent_id": parent_id,
            "ts_wall": start_wall if start_wall is not None else time.time(),
            "dur": max(0.0, float(duration)),
        }
        if args:
            span["args"] = args
        with self._lock:
            self._spans.append(span)
            overflow = len(self._spans) - self.max_buffer
            if overflow > 0:
                del self._spans[:overflow]
                self.dropped += overflow

    def add(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Ingest foreign span dicts (a shard's piggybacked spans)."""
        with self._lock:
            self._spans.extend(spans)
            overflow = len(self._spans) - self.max_buffer
            if overflow > 0:
                del self._spans[:overflow]
                self.dropped += overflow

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def drain(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Remove and return up to ``limit`` buffered spans (FIFO).

        The caller owns delivery: a worker keeps the drained batch in
        its pending heartbeat ship until the gateway acks its sequence
        number, so a lost response never loses spans.
        """
        with self._lock:
            if limit is None or limit >= len(self._spans):
                out, self._spans = self._spans, []
            else:
                out = self._spans[:limit]
                del self._spans[:limit]
            return out

    def snapshot(self) -> List[Dict[str, Any]]:
        """A copy of the buffer without draining (local collection)."""
        with self._lock:
            return list(self._spans)


# ---------------------------------------------------------------------------
# clock-offset estimation
# ---------------------------------------------------------------------------

class ClockModel:
    """Per-node wall-clock offset estimates from one-way samples.

    A message from node *n* stamped with its send time ``remote`` and
    received locally at ``local`` yields the sample
    ``local - remote = offset(n) + delay`` where ``delay >= 0`` is the
    network latency.  The minimum sample over many messages (heartbeats
    arrive every second) converges on ``offset(n)`` plus the *minimum*
    delay — the same filtering NTP applies.  ``rebase`` then maps a
    remote wall timestamp into the local clock: ``remote + offset``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._offsets: Dict[str, float] = {}
        self._samples: Dict[str, int] = {}

    def observe(self, node: str, remote_wall: float,
                local_wall: Optional[float] = None) -> float:
        sample = (local_wall if local_wall is not None
                  else time.time()) - float(remote_wall)
        with self._lock:
            if node in self._offsets:
                self._offsets[node] = min(self._offsets[node], sample)
            else:
                self._offsets[node] = sample
            self._samples[node] = self._samples.get(node, 0) + 1
        return sample

    def offset(self, node: str) -> float:
        """Estimated ``local - remote`` clock offset (0.0 = unknown or
        the local node itself)."""
        with self._lock:
            return self._offsets.get(node, 0.0)

    def rebase(self, node: str, remote_wall: float) -> float:
        return float(remote_wall) + self.offset(node)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {node: {"offset": offset,
                           "samples": self._samples.get(node, 0)}
                    for node, offset in sorted(self._offsets.items())}

    @classmethod
    def from_offsets(cls, offsets: Dict[str, Any]) -> "ClockModel":
        """Rebuild from a ``to_dict`` export (the trace-collect client
        applies the gateway's estimates offline)."""
        model = cls()
        for node, info in (offsets or {}).items():
            if isinstance(info, dict):
                model._offsets[node] = float(info.get("offset", 0.0))
                model._samples[node] = int(info.get("samples", 0))
            else:
                model._offsets[node] = float(info)
        return model


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------

def _assign_lanes(spans: List[Dict[str, Any]]) -> Dict[int, int]:
    """Greedy per-node thread-lane packing: overlapping spans get
    distinct tids so Perfetto renders them side by side, sequential
    spans reuse lane 0.  Returns index -> tid."""
    lanes: Dict[int, int] = {}
    busy_until: List[float] = []
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["_ts"], -spans[i]["dur"]))
    for i in order:
        start, end = spans[i]["_ts"], spans[i]["_ts"] + spans[i]["dur"]
        for tid, busy in enumerate(busy_until):
            if busy <= start:
                busy_until[tid] = end
                lanes[i] = tid
                break
        else:
            lanes[i] = len(busy_until)
            busy_until.append(end)
    return lanes


def stitch_spans(spans: Iterable[Dict[str, Any]],
                 clock: Optional[ClockModel] = None,
                 trace_id: Optional[str] = None,
                 label: str = "repro-cluster",
                 decisions: Optional[List[Dict[str, Any]]] = None,
                 site_decisions: Optional[List[Dict[str, Any]]] = None
                 ) -> Dict[str, Any]:
    """Merge per-node span dicts into one Chrome trace-event object.

    Each node gets its own ``pid`` lane (named after the node); span
    wall timestamps are rebased by the node's estimated clock offset,
    then the whole timeline shifts so the earliest span sits at t=0.
    Child spans are clamped to start no earlier than their parent —
    residual skew below the estimation error cannot produce a child
    that precedes its cause.  Decision records ride along under the
    PR 3 ``loopDecisions``/``siteDecisions`` keys, each carrying the
    ``span_id`` that links it to the execute span that produced it.
    """
    clock = clock or ClockModel()
    picked = [dict(span) for span in spans
              if trace_id is None or span.get("trace_id") == trace_id]
    for span in picked:
        span["dur"] = max(0.0, float(span.get("dur", 0.0)))
        span["_ts"] = clock.rebase(span.get("node", ""),
                                   float(span.get("ts_wall", 0.0)))

    # child-after-parent monotonicity: residual skew between two nodes'
    # estimates can leave a child a few hundred microseconds "before"
    # its parent; clamp it forward (never backwards) so causal order
    # survives into the rendered trace
    by_span_id = {s["span_id"]: s for s in picked if s.get("span_id")}
    for span in sorted(picked, key=lambda s: s["_ts"]):
        parent = by_span_id.get(span.get("parent_id") or "")
        if parent is not None and span["_ts"] < parent["_ts"]:
            span["_ts"] = parent["_ts"]

    t0 = min((s["_ts"] for s in picked), default=0.0)
    nodes = sorted({s.get("node", "?") for s in picked})
    pid_of = {node: i + 1 for i, node in enumerate(nodes)}

    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "ts": 0,
         "args": {"name": node}}
        for node, pid in pid_of.items()]
    by_node: Dict[str, List[Dict[str, Any]]] = {}
    for span in picked:
        by_node.setdefault(span.get("node", "?"), []).append(span)
    trace_ids = sorted({s.get("trace_id") for s in picked
                        if s.get("trace_id")})
    for node, node_spans in by_node.items():
        lanes = _assign_lanes(node_spans)
        for i, span in enumerate(node_spans):
            args = dict(span.get("args") or {})
            args["span_id"] = span.get("span_id")
            if span.get("parent_id"):
                args["parent_id"] = span["parent_id"]
            if span.get("trace_id"):
                args["trace_id"] = span["trace_id"]
            events.append({
                "name": span.get("name", "span"),
                "cat": span.get("cat", "cluster"),
                "ph": "X",
                "ts": round((span["_ts"] - t0) * 1e6, 1),
                "dur": round(span["dur"] * 1e6, 1),
                "pid": pid_of[node],
                "tid": lanes[i],
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.obs.distributed",
            "format": 1,
            "label": label,
            "nodes": nodes,
            "trace_ids": trace_ids,
            "clock_offsets": clock.to_dict(),
        },
        "loopDecisions": list(decisions or []),
        "siteDecisions": list(site_decisions or []),
    }


def spans_by_trace(spans: Iterable[Dict[str, Any]]
                   ) -> Dict[str, List[Dict[str, Any]]]:
    """Group span dicts by trace id (unknown-trace spans drop)."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        tid = span.get("trace_id")
        if tid:
            out.setdefault(tid, []).append(span)
    return out


def parent_child_monotonic(chrome: Dict[str, Any]) -> List[str]:
    """Validation helper: every X event whose ``args.parent_id`` names
    another event must not start before it.  Returns problems."""
    starts: Dict[str, float] = {}
    for event in chrome.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        span_id = (event.get("args") or {}).get("span_id")
        if span_id:
            starts[span_id] = float(event.get("ts", 0.0))
    problems = []
    for event in chrome.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        parent = args.get("parent_id")
        if parent and parent in starts \
                and float(event.get("ts", 0.0)) < starts[parent]:
            problems.append(
                f"span {args.get('span_id')} ({event.get('name')}) "
                f"starts before its parent {parent}")
    return problems

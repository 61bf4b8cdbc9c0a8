"""The tracer: nested spans, instant events, decision records.

Events follow the Chrome trace-event format (complete events, ``ph:
"X"``, microsecond timestamps) so a trace loads directly in
``chrome://tracing`` / Perfetto.  A tracer is cheap to carry around
disabled: :data:`NULL_TRACER` hands out one cached no-op context
manager and drops decisions in a single attribute test, keeping the
instrumented pipeline's overhead under measurement noise.

Every other tracer, enabled or not, keeps a per-name count and total
duration of the spans it closed; phase timings are read off that
aggregate (:meth:`Tracer.totals_since`), never off a second clock.

Cross-process story: worker processes build their own enabled tracer,
:meth:`Tracer.export` it to a plain JSON-safe dict (picklable across
the pool boundary, JSON-safe for the service result cache), and the
parent :meth:`Tracer.merge`\\ s each export back in.  Each process keeps
its own ``pid`` lane; timestamps are re-based onto the parent's clock
using the wall-clock epoch recorded at construction, so spans from
different workers line up on one timeline.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.trace.decisions import LoopDecision, SiteDecision


class _NullSpan:
    """A reusable, reentrant no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; closing it adds its duration to the tracer's
    aggregate and, when the tracer is enabled, appends one complete
    ('X') event."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        seconds = time.perf_counter() - self._start
        t = self._tracer
        total = t.aggregate.get(self._name)
        if total is None:
            t.aggregate[self._name] = [1, seconds]
        else:
            total[0] += 1
            total[1] += seconds
        if not t.enabled:
            return False
        event: Dict[str, Any] = {
            "name": self._name, "cat": self._cat, "ph": "X",
            "ts": round((self._start - t._perf0) * 1e6, 1),
            "dur": round(seconds * 1e6, 1),
            "pid": t.pid, "tid": t.tid,
        }
        if self._args:
            event["args"] = self._args
        t.events.append(event)
        return False


class Tracer:
    """Collects spans, instant events, and per-loop decision records.

    ``enabled=False`` keeps only the span aggregate (see
    :meth:`totals`).  Instrumentation points that fill no report should
    write ``tracer = tracer or NULL_TRACER`` and call through
    unconditionally; those whose report carries phase timings fall back
    to a fresh ``Tracer(enabled=False)`` instead.
    """

    def __init__(self, enabled: bool = True, label: str = "repro",
                 pid: Optional[int] = None, tid: int = 0):
        self.enabled = enabled
        self.label = label
        self.pid = os.getpid() if pid is None else pid
        self.tid = tid
        self.events: List[Dict[str, Any]] = []
        self.decisions: List[LoopDecision] = []
        self.site_decisions: List[SiteDecision] = []
        #: span name -> [closed spans, total seconds]; merged child
        #: traces do not add to it
        self.aggregate: Dict[str, List[float]] = {}
        self._perf0 = time.perf_counter()
        self._wall0 = time.time()
        # decision-record identities already merged, keyed by job — a
        # crash-retried job re-executes and its retry export repeats the
        # first attempt's decisions; counting them twice breaks the
        # Table II ↔ trace cross-check
        self._merged_decision_keys: set = set()

    # -- recording ---------------------------------------------------

    def span(self, name: str, cat: str = "pipeline", **args: Any):
        """Context manager timing one phase into the aggregate (and, when
        enabled, onto the timeline)."""
        return _Span(self, name, cat, args)

    def totals(self, names: Iterable[str]) -> Dict[str, Tuple[int, float]]:
        """``(count, seconds)`` of the spans closed so far under each of
        ``names`` — a mark for :meth:`totals_since`."""
        return {name: tuple(self.aggregate.get(name, (0, 0.0)))
                for name in names}

    def totals_since(self, mark: Dict[str, Tuple[int, float]]
                     ) -> Dict[str, float]:
        """Seconds spent in the spans closed since ``mark`` was taken,
        for each of its names under which at least one span closed."""
        out: Dict[str, float] = {}
        for name, (count, seconds) in mark.items():
            now = self.aggregate.get(name)
            if now is not None and now[0] > count:
                out[name] = now[1] - seconds
        return out

    def instant(self, name: str, cat: str = "pipeline",
                **args: Any) -> None:
        if not self.enabled:
            return
        event: Dict[str, Any] = {
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": round((time.perf_counter() - self._perf0) * 1e6, 1),
            "pid": self.pid, "tid": self.tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def decision(self, decision: LoopDecision) -> None:
        """Record one per-loop decision (and an instant event so the
        decision is visible on the Perfetto timeline)."""
        if not self.enabled:
            return
        self.decisions.append(decision)
        self.instant(f"loop {decision.origin or decision.var}",
                     cat="decision",
                     parallel=decision.parallel,
                     reason=decision.reason or "parallel")

    def site(self, decision: SiteDecision) -> None:
        """Record one demand-inlining call-site decision (and an instant
        event so the resolution is visible on the timeline)."""
        if not self.enabled:
            return
        self.site_decisions.append(decision)
        self.instant(f"site {decision.callee}", cat="site",
                     action=decision.action,
                     reason=decision.reason or decision.source)

    # -- merge / export ----------------------------------------------

    def export(self, job: Optional[str] = None) -> Dict[str, Any]:
        """JSON-safe snapshot for crossing a process or wire boundary.

        ``job`` (usually the payload digest) tags the export so a
        receiver can merge retried attempts of the same job without
        double-counting decisions.
        """
        out = {
            "label": self.label,
            "pid": self.pid,
            "wall0": self._wall0,
            "events": list(self.events),
            "decisions": [d.to_dict() for d in self.decisions],
            "site_decisions": [d.to_dict() for d in self.site_decisions],
        }
        if job is not None:
            out["job"] = job
        return out

    @staticmethod
    def _decision_key(job: str, kind: str, d: Dict[str, Any]) -> tuple:
        """Stable identity of one decision record within one job.

        A loop is (benchmark, config, unit, var, origin); a call site is
        (benchmark, config, unit, callee, site id).  Two attempts of the
        same job produce records with equal keys — one survives.
        """
        if kind == "loop":
            return (job, kind, d.get("benchmark", ""), d.get("config", ""),
                    d.get("unit", ""), d.get("var", ""),
                    d.get("origin") or "")
        return (job, kind, d.get("benchmark", ""), d.get("config", ""),
                d.get("unit", ""), d.get("callee", ""),
                d.get("site_id", 0))

    def merge(self, exported: Optional[Dict[str, Any]],
              pid: Optional[int] = None,
              job: Optional[str] = None) -> None:
        """Fold a child tracer's :meth:`export` into this trace.

        Child timestamps are re-based onto this tracer's clock via the
        wall-clock epochs, so worker spans land where they actually ran
        on the parent timeline.  ``pid`` overrides the child's process
        lane (useful for deterministic lane numbering in tests).

        When the export carries a job tag (or ``job`` is passed),
        decision records are deduplicated against every previous merge
        of the same job: a worker that exported partially, was
        SIGKILLed, and re-ran contributes each decision exactly once.
        Span events are *not* deduplicated — both attempts really
        consumed wall clock and belong on the timeline.
        """
        if not self.enabled or not exported:
            return
        offset_us = (float(exported.get("wall0", self._wall0))
                     - self._wall0) * 1e6
        child_pid = pid if pid is not None else exported.get("pid", 0)
        for event in exported.get("events", ()):
            merged = dict(event)
            merged["ts"] = round(float(merged.get("ts", 0.0)) + offset_us, 1)
            merged["pid"] = child_pid
            self.events.append(merged)
        job = job if job is not None else exported.get("job")
        for kind, records, cls, target in (
                ("loop", exported.get("decisions", ()),
                 LoopDecision, self.decisions),
                ("site", exported.get("site_decisions", ()),
                 SiteDecision, self.site_decisions)):
            for d in records:
                if job is not None:
                    key = self._decision_key(job, kind, d)
                    if key in self._merged_decision_keys:
                        continue
                    self._merged_decision_keys.add(key)
                target.append(cls.from_dict(d))

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object for this trace.

        ``traceEvents`` is the standard event array (plus one
        ``process_name`` metadata event per pid lane); the per-loop
        decision records ride along under the non-standard top-level key
        ``loopDecisions``, which trace viewers ignore.
        """
        pids = {e["pid"] for e in self.events} | {self.pid}
        meta = [{"name": "process_name", "ph": "M", "pid": p, "tid": 0,
                 "ts": 0,
                 "args": {"name": self.label if p == self.pid
                          else f"{self.label}-worker-{p}"}}
                for p in sorted(pids)]
        return {
            "traceEvents": meta + list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro.trace", "format": 1},
            "loopDecisions": [d.to_dict() for d in self.decisions],
            "siteDecisions": [d.to_dict() for d in self.site_decisions],
        }


class _NullTracer(Tracer):
    """A disabled tracer whose spans are one cached no-op."""

    def span(self, name: str, cat: str = "pipeline", **args: Any):
        return _NULL_SPAN


#: the shared disabled tracer — safe to use from any thread, records
#: nothing (not even the span aggregate), and never allocates per call
NULL_TRACER = _NullTracer(enabled=False, label="null", pid=0)

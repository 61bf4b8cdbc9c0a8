"""Job model for the parallelization service.

Lifecycle::

    submitted --(admitted)--> queued --> running --> done
                  |                        |    \\-> failed
                  |                        |-> timeout (deadline passed)
                  |                        \\-> queued again (worker crash,
                  |                             attempts left, backoff)
                  \\--(queue full)--> rejected with a backpressure reason
    queued --(cancel)--> canceled

Deadlines are wall-clock budgets covering queue wait *plus* execution;
a job that is already past its deadline when a worker leases it
times out without running.  Retries apply only to worker *crashes*
(:class:`~repro.experiments.executor.WorkerCrashError`) — a task that
raises an ordinary exception is deterministic and fails immediately.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class JobState:
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELED = "canceled"


FINAL_STATES = frozenset(
    (JobState.DONE, JobState.FAILED, JobState.TIMEOUT, JobState.CANCELED))

_ids = itertools.count(1)


def payload_digest(payload: Dict[str, Any]) -> str:
    """Canonical content digest of a submit payload.

    The payload fully determines the work (benchmark name or literal
    sources, annotations, configuration), so one digest keys in-flight
    deduplication and the result cache alike.
    """
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(b"repro-job-v1:" + canon.encode()).hexdigest()


@dataclass
class Job:
    digest: str
    payload: Dict[str, Any]
    deadline: Optional[float] = None      # seconds, queue wait + run
    max_retries: int = 1                  # crash retries, not failures
    id: str = field(default_factory=lambda: f"job-{next(_ids):06d}")
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: str = ""
    result: Optional[Dict[str, Any]] = None
    cached: bool = False                  # answered from the result cache
    #: correlation IDs carried from the submitting client (run_id, ...).
    #: Deliberately NOT part of the payload: two clients submitting the
    #: same work must dedup to one job regardless of who asked.
    ctx: Dict[str, Any] = field(default_factory=dict)
    #: W3C-traceparent-style distributed trace context, carried beside
    #: the payload exactly like ``ctx`` (never inside it — digests and
    #: dedup are identical with tracing on or off).  None = untraced.
    trace_ctx: Optional[Dict[str, Any]] = None
    finished: threading.Event = field(default_factory=threading.Event,
                                      repr=False)

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left before the deadline (None = no deadline)."""
        if self.deadline is None:
            return None
        now = time.monotonic() if now is None else now
        return self.deadline - (now - self.submitted_at)

    def expired(self, now: Optional[float] = None) -> bool:
        remaining = self.remaining(now)
        return remaining is not None and remaining <= 0

    def finish(self, state: str, result: Optional[Dict[str, Any]] = None,
               error: str = "") -> None:
        self.state = state
        self.result = result
        self.error = error
        self.finished_at = time.monotonic()
        self.finished.set()

    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe status view (no result body — fetch via ``result``)."""
        return {
            "job_id": self.id,
            "digest": self.digest,
            "state": self.state,
            "attempts": self.attempts,
            "max_retries": self.max_retries,
            "deadline": self.deadline,
            "cached": self.cached,
            "error": self.error,
            "latency": self.latency(),
        }

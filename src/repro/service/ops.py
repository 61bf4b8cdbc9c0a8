"""Protocol-op helpers and the service metric set.

The serving core (:class:`repro.cluster.gateway.ClusterGateway`, run by
both ``repro serve`` and ``repro cluster gateway``) answers the
client-facing operations (``submit``/``status``/``result``/``cancel``/
``health``/``metrics``/``shutdown``) with the response shapes the
synchronous :class:`repro.service.client.ServiceClient` expects.  This
module holds that shaping logic and defines the service metrics once
(:class:`ServiceMetrics`), so every entry point exports the same names.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import Job, JobState

#: scalar types allowed as correlation-context values on the wire
_CTX_SCALARS = (str, int, float, bool)


class ServiceMetrics:
    """The service metric set, registered on one registry."""

    def __init__(self, registry: MetricsRegistry):
        m = registry
        self.registry = registry
        self.submitted = m.counter(
            "repro_jobs_submitted_total", "jobs accepted into the queue")
        self.rejected = m.counter(
            "repro_jobs_rejected_total", "submissions rejected (queue full)")
        self.deduped = m.counter(
            "repro_jobs_deduped_total", "submissions joined to an "
            "in-flight job with the same digest")
        self.retried = m.counter(
            "repro_jobs_retried_total", "crash retries re-enqueued")
        self.completed = m.counter(
            "repro_jobs_completed_total", "jobs reaching a final state, "
            "by state")
        self.cache_hits = m.counter(
            "repro_cache_hits_total", "submissions answered from the "
            "result cache")
        self.cache_misses = m.counter(
            "repro_cache_misses_total", "submissions that had to run")
        self.depth = m.gauge(
            "repro_queue_depth", "jobs waiting in the queue")
        self.running = m.gauge(
            "repro_jobs_running", "jobs currently executing")
        self.uptime = m.gauge(
            "repro_uptime_seconds", "seconds since the service started")
        self.latency = m.histogram(
            "repro_job_latency_seconds", "submit-to-finish wall clock")
        self.requests = m.counter(
            "repro_requests_total", "protocol requests handled, by op")
        self.request_seconds = m.histogram(
            "repro_request_seconds", "protocol request handling time")
        self.loops_parallel = m.counter(
            "repro_loops_parallel_total", "loops parallelized by "
            "finished jobs")
        self.loops_serial = m.counter(
            "repro_loops_serial_total", "loops left serial by finished "
            "jobs, by reason")

    def finished(self, job: Job) -> None:
        """Count a job that just reached a final state."""
        self.completed.inc(state=job.state)
        latency = job.latency()
        if latency is not None:
            self.latency.observe(latency)
        result = job.result
        if result is None:
            return
        for phase, seconds in result.get("timings", {}).items():
            self.registry.histogram(
                f"repro_phase_{phase}_seconds",
                f"wall clock of the {phase} phase").observe(seconds)
        count = result.get("parallel_count")
        if isinstance(count, int):
            self.loops_parallel.inc(count)
        for reason, n in result.get("serial_reasons", {}).items():
            self.loops_serial.inc(n, reason=reason)


def validate_ctx(ctx: Any) -> Optional[str]:
    """Problem description for a submit ``ctx`` field, or None if fine."""
    if ctx is None:
        return None
    if not (isinstance(ctx, dict)
            and all(isinstance(k, str) and isinstance(v, _CTX_SCALARS)
                    for k, v in ctx.items())):
        return "'ctx' must map string keys to scalar values"
    return None


def strip_trace(result: Optional[Dict[str, Any]],
                include_trace: bool) -> Optional[Dict[str, Any]]:
    """Drop the bulky ``trace`` key unless the client asked for it."""
    if not include_trace and isinstance(result, dict) and "trace" in result:
        return {k: v for k, v in result.items() if k != "trace"}
    return result


def job_response(job: Job, deduped: bool = False,
                 include_result: bool = False,
                 include_trace: bool = False) -> Dict[str, Any]:
    """The standard job-status response."""
    response = {"ok": True, "deduped": deduped}
    response.update(job.snapshot())
    if include_result and job.state == JobState.DONE:
        response["result"] = strip_trace(job.result, include_trace)
    return response

"""Worker-side job execution, shared by every worker.

The serving core's local workers (:mod:`repro.cluster.gateway`, which
is also ``repro serve``) and the remote worker fleet
(:mod:`repro.cluster.workers`) run the same payloads the same way:
:func:`execute_payload` interprets a submit payload, and
:func:`run_job_observed` wraps it with correlation-ID propagation plus
a metrics-registry delta for the parent to merge.

Everything here is module-level and picklable — it must cross the
process-pool boundary intact.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, Optional, Tuple

from repro.experiments.executor import WorkerCrashError, in_worker
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics

#: payload kinds understood by :func:`execute_payload`
PAYLOAD_KINDS = ("benchmark", "sources", "probe", "parallelize")


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job payload to completion inside a worker.

    Payload kinds:

    * ``benchmark`` — a registered PERFECT substitute by name plus a
      pipeline configuration (``none``/``conventional``/``annotation``);
    * ``sources`` — literal ``{filename: fortran}`` sources with
      optional annotation text, same configurations;
    * ``probe`` — tiny diagnostic ops (``echo``/``sleep``/
      ``crash-once``) used by health checks and the service tests;
    * ``parallelize`` — real-world ``{filename: fortran}`` sources
      through the tolerant fixed-form frontend
      (:func:`repro.fortran.fixedform.parallelize_source`): the result
      carries the annotated OpenMP source plus recovery diagnostics and
      per-loop decision explanations.

    ``benchmark`` and ``sources`` payloads additionally accept an
    ``annotations_mode`` key (``hand``/``inferred``/``demand``) choosing
    the annotation source for ``annotation``-config runs.
    """
    kind = payload.get("kind")
    trace = bool(payload.get("trace"))
    backend = payload.get("backend")
    if kind == "probe":
        return _execute_probe(payload)
    if kind == "parallelize":
        return _execute_parallelize(payload)
    annotations_mode = payload.get("annotations_mode", "hand")
    if kind == "benchmark":
        from repro.perfect import get_benchmark
        benchmark = get_benchmark(payload["benchmark"])
        return _tag_trace(_run_pipeline(
            benchmark, payload.get("config", "annotation"),
            trace=trace, backend=backend,
            annotations_mode=annotations_mode), payload)
    if kind == "sources":
        from repro.perfect.suite import Benchmark
        sources = payload.get("sources")
        if not isinstance(sources, dict) or not sources:
            raise ValueError("'sources' payload needs a non-empty "
                             "{filename: text} mapping")
        benchmark = Benchmark(
            name=payload.get("name", "submitted"),
            description="submitted via repro.service",
            sources=dict(sources),
            annotations=payload.get("annotations", ""))
        return _tag_trace(_run_pipeline(
            benchmark, payload.get("config", "annotation"),
            trace=trace, backend=backend,
            annotations_mode=annotations_mode), payload)
    raise ValueError(f"unknown payload kind {kind!r}; "
                     f"expected one of {PAYLOAD_KINDS}")


def _tag_trace(result: Dict[str, Any],
               payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp a traced result's export with its job identity (the payload
    digest), so any later :meth:`Tracer.merge` of a crash-retried job's
    attempts counts each decision record exactly once."""
    trace = result.get("trace")
    if isinstance(trace, dict) and "job" not in trace:
        from repro.service.jobs import payload_digest
        trace["job"] = payload_digest(payload)
    return result


def _execute_parallelize(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.annotations.infer import ANNOTATION_MODES
    from repro.fortran.fixedform import parallelize_source
    sources = payload.get("sources")
    if not isinstance(sources, dict) or not sources:
        raise ValueError("'parallelize' payload needs a non-empty "
                         "{filename: text} mapping")
    config = payload.get("config", "annotation")
    if config not in ("none", "conventional", "annotation"):
        raise ValueError(f"unknown config {config!r}")
    mode = payload.get("annotations_mode", "inferred")
    if mode not in ANNOTATION_MODES:
        raise ValueError(f"unknown annotations mode {mode!r}; "
                         f"expected one of {ANNOTATION_MODES}")
    return parallelize_source(
        dict(sources), config=config, annotations_mode=mode,
        annotations_text=payload.get("annotations", ""),
        tolerant=bool(payload.get("tolerant", True)))


def _run_pipeline(benchmark, config_kind: str, trace: bool = False,
                  backend: Optional[str] = None,
                  annotations_mode: str = "hand") -> Dict[str, Any]:
    from repro.annotations.infer import ANNOTATION_MODES
    from repro.experiments.pipeline import (Config, run_config,
                                            summarize_result)
    from repro.runtime.backend import BACKEND_ENV, BACKENDS, default_backend
    if config_kind not in ("none", "conventional", "annotation"):
        raise ValueError(f"unknown config {config_kind!r}")
    if annotations_mode not in ANNOTATION_MODES:
        raise ValueError(f"unknown annotations mode {annotations_mode!r}; "
                         f"expected one of {ANNOTATION_MODES}")
    if backend is not None and backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"expected one of {BACKENDS}")
    tracer = None
    if trace:
        from repro.trace import Tracer
        tracer = Tracer(label=f"service {benchmark.name}/{config_kind}")
    saved = os.environ.get(BACKEND_ENV)
    if backend is not None:
        # scope the requested backend to this job: anything in the
        # pipeline that executes programs goes through make_interpreter,
        # which reads the env at construction time
        os.environ[BACKEND_ENV] = backend
    try:
        summary = summarize_result(
            run_config(benchmark,
                       Config(config_kind, annotations=annotations_mode),
                       tracer=tracer))
    finally:
        if backend is not None:
            if saved is None:
                os.environ.pop(BACKEND_ENV, None)
            else:
                os.environ[BACKEND_ENV] = saved
    summary["backend"] = backend or default_backend()
    if tracer is not None:
        summary["trace"] = tracer.export()
    return summary


def run_job_observed(item: Tuple[Dict[str, Any], Dict[str, Any]]
                     ) -> Tuple[Dict[str, Any], Optional[Dict]]:
    """Worker entry point wrapping :func:`execute_payload` with
    observability: the client's correlation IDs become log context, and
    every metric the pipeline touches in the worker comes back as a
    registry delta for the parent to merge (same protocol as
    :func:`repro.experiments.executor._observed_task`).

    Inline pools share the parent's default registry, so there the
    metrics already landed — the delta is None and merging is skipped.
    """
    payload, ctx = item
    if not in_worker():
        with obs_logging.log_context(**ctx):
            return execute_payload(payload), None
    obs_logging.configure()  # spawned fresh: read REPRO_LOG* env
    registry = obs_metrics.get_registry()
    before = registry.export()
    with obs_logging.log_context(**ctx):
        result = execute_payload(payload)
    return result, obs_metrics.MetricsRegistry.delta(before,
                                                     registry.export())


def _execute_probe(payload: Dict[str, Any]) -> Dict[str, Any]:
    op = payload.get("probe")
    if op == "echo":
        return {"echo": payload.get("value")}
    if op == "sleep":
        seconds = float(payload.get("seconds", 0.0))
        time.sleep(seconds)
        return {"slept": seconds}
    if op == "crash-once":
        # First attempt: leave a marker, then die the way a real crash
        # does (SIGKILL in a pool worker; a WorkerCrashError inline).
        # Second attempt sees the marker and succeeds — the retry path.
        marker = payload["marker"]
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("crashed\n")
            if in_worker():
                os.kill(os.getpid(), signal.SIGKILL)
            raise WorkerCrashError("simulated worker crash")
        return {"recovered": True}
    raise ValueError(f"unknown probe op {op!r}")

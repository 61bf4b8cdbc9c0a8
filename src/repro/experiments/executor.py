"""Parallel experiment executor.

The evaluation protocol (Table II, Figure 20, the ablations) decomposes
into independent ``(benchmark x config x machine)`` work units; this
module fans them out across a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping the *assembled* artifacts byte-identical to a serial run:

* task lists are built up front in a deterministic order and results come
  back in submission order (``pool.map`` semantics), so parallelism never
  reorders a table row or a figure bar;
* workers receive only picklable task descriptors and return only
  picklable summary data (origin sets, line counts, tuning results) —
  never live ASTs;
* ``jobs=1`` (the default), a single task, or any pool-infrastructure
  failure (no ``fork``/semaphores in the sandbox, unpicklable work, a
  broken pool) all degrade gracefully to an in-process serial loop;
* a worker process never spawns a nested pool: :func:`resolve_jobs`
  answers 1 inside a worker regardless of flags or environment.

Worker count resolution order: explicit ``jobs`` argument (the CLI's
``-j/--jobs``), then the ``REPRO_JOBS`` environment variable, then 1
(serial).  A value of 0 or less means "one worker per CPU".
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, TypeVar)

from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.trace import NULL_TRACER, Tracer

_log = obs_logging.get_logger("repro.executor")

T = TypeVar("T")
R = TypeVar("R")

#: environment variable consulted when no explicit job count is given
JOBS_ENV = "REPRO_JOBS"

#: set inside pool workers so nested run_tasks calls stay serial
_IN_WORKER_ENV = "_REPRO_POOL_WORKER"


class JobsError(ValueError):
    """An unusable worker-count setting (bad ``-j`` value or REPRO_JOBS)."""


def in_worker() -> bool:
    """True inside a pool worker process."""
    return bool(os.environ.get(_IN_WORKER_ENV))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``REPRO_JOBS`` > 1 (serial).

    ``jobs == 0`` requests one worker per CPU.  A non-integer
    ``REPRO_JOBS`` or a negative count (either path) raises
    :class:`JobsError` with an actionable message rather than surfacing a
    bare traceback.  Inside a pool worker the answer is always 1 so
    workers never fork nested pools.
    """
    if in_worker():
        return 1
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise JobsError(
                f"{JOBS_ENV}={raw!r} is not an integer; use a worker "
                f"count >= 1, or 0 for one worker per CPU") from None
    if jobs < 0:
        raise JobsError(
            f"job count must be >= 0, got {jobs} "
            f"(0 means one worker per CPU)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _mark_worker() -> None:  # pragma: no cover - runs in child processes
    os.environ[_IN_WORKER_ENV] = "1"


def _observed_task(fn: Callable[[T], R], ctx: Dict[str, object],
                   log_mode: str, log_level: str, task: T):
    """Worker-side wrapper around one task.

    Re-establishes the parent's log configuration and correlation
    context (CLI flags do not survive the process boundary, and a
    spawned worker starts with a fresh contextvars world), runs the
    task, and ships back ``(result, metrics-delta)`` — the delta of the
    worker's default registry around this one task, so long-lived
    workers never double-report and the parent can merge deltas exactly
    like PR 3 merges trace spans.
    """
    obs_logging.configure(mode=log_mode, level=log_level)
    registry = obs_metrics.get_registry()
    before = registry.export()
    hist = registry.histogram("repro_executor_task_seconds",
                              "per-task wall-clock in executor workers")
    with obs_logging.log_context(**ctx):
        with hist.time():
            result = fn(task)
    return result, obs_metrics.MetricsRegistry.delta(before,
                                                     registry.export())


def _run_serial(fn: Callable[[T], R], tasks: List[T]) -> List[R]:
    """In-process loop: metrics land directly in this registry."""
    hist = obs_metrics.histogram(
        "repro_executor_task_seconds",
        "per-task wall-clock in executor workers")
    out: List[R] = []
    for t in tasks:
        with hist.time():
            out.append(fn(t))
    return out


def run_tasks(fn: Callable[[T], R], tasks: Iterable[T],
              jobs: Optional[int] = None, chunksize: int = 1,
              tracer: Optional[Tracer] = None,
              label: str = "tasks") -> List[R]:
    """Map ``fn`` over ``tasks``, preserving task order in the result.

    With an effective worker count of 1 (or a single task) the map runs
    serially in-process.  Otherwise the tasks fan out over a process
    pool; any pool-infrastructure failure — pool startup, pickling of
    ``fn``/tasks/results, a worker dying — falls back to the serial loop,
    so callers always get the same result list.  ``fn`` must be a
    module-level callable and tasks/results picklable for the parallel
    path to engage.  (``chunksize`` is retained for signature
    compatibility; tasks are submitted individually so queue depth is
    observable.)

    ``tracer`` (optional) records one span over the whole batch plus an
    instant event if the pool degrades to the serial fallback — the
    fan-out itself becomes visible on the trace timeline.  Pool workers
    additionally inherit the caller's log context (so worker records
    carry the parent ``run_id``) and return per-task metric deltas that
    are merged into this process's default registry, keeping counter
    values identical for any ``-j``.
    """
    tracer = tracer or NULL_TRACER
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    batches = obs_metrics.counter(
        "repro_executor_batches_total",
        "task batches by execution mode (serial/pool/fallback)")
    obs_metrics.counter("repro_executor_tasks_total",
                        "tasks executed per batch label").inc(
                            len(tasks), label=label)
    pending = obs_metrics.gauge("repro_executor_pending_tasks",
                                "tasks submitted but not yet finished")
    with tracer.span(f"run_tasks {label}", cat="executor",
                     tasks=len(tasks), jobs=jobs):
        if jobs <= 1 or len(tasks) <= 1:
            batches.inc(mode="serial")
            return _run_serial(fn, tasks)
        _log.debug("batch-start", label=label, tasks=len(tasks), jobs=jobs)
        wrapped = partial(_observed_task, fn, obs_logging.current_context(),
                          obs_logging.configured_mode(),
                          obs_logging.configured_level())
        workers = min(jobs, len(tasks))
        obs_metrics.gauge("repro_executor_workers",
                          "worker processes in the most recent pool "
                          "batch").set(workers)
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_mark_worker) as pool:
                pending.inc(len(tasks))
                futures = []
                for t in tasks:
                    future = pool.submit(wrapped, t)
                    future.add_done_callback(lambda _f: pending.dec())
                    futures.append(future)
                # collect everything before merging any delta, so a
                # failure mid-batch leaves the registry untouched for
                # the serial rerun below (no double counting)
                pairs = [f.result() for f in futures]
        except (BrokenProcessPool, pickle.PicklingError, AttributeError,
                TypeError, OSError, ImportError):
            # pool could not be started or could not transport the work
            # (sandboxed semaphores, unpicklable closures, killed workers):
            # the tasks themselves are pure, so redo them serially
            pending.set(0)
            tracer.instant("serial-fallback", cat="executor",
                           tasks=len(tasks), jobs=jobs)
            _log.warning("serial-fallback", label=label, tasks=len(tasks),
                         jobs=jobs)
            batches.inc(mode="fallback")
            return _run_serial(fn, tasks)
        batches.inc(mode="pool")
        registry = obs_metrics.get_registry()
        for _result, delta in pairs:
            registry.merge(delta)
        return [result for result, _delta in pairs]


def merge_task_traces(tracer: Optional[Tracer],
                      exports: Iterable[Optional[Dict[str, Any]]]) -> None:
    """Fold worker-local trace exports back into the parent trace.

    ``exports`` follows :func:`run_tasks` result order (one entry per
    task, ``None`` where the task was not traced).  Each export keeps
    the process lane of the worker that really ran it; tasks executed
    in-process (serial runs, fallback) land on the parent's own lane.
    """
    if tracer is None or not tracer.enabled:
        return
    for exported in exports:
        tracer.merge(exported)


# ---------------------------------------------------------------------------
# persistent worker pool (the serving path)
# ---------------------------------------------------------------------------

class WorkerCrashError(RuntimeError):
    """A pool worker died mid-task (killed, OOM, segfault).

    The task itself may be fine — callers that know their tasks are pure
    (the service's job dispatcher) retry on this.
    """


class WorkerTimeout(RuntimeError):
    """A task exceeded its deadline; its worker was abandoned."""


class WorkerPool:
    """A long-lived, crash-tolerant wrapper over ProcessPoolExecutor.

    Unlike :func:`run_tasks` (one batch, assembled results), the service
    keeps a pool alive across many independent jobs and needs per-task
    deadlines plus crash *reporting* instead of silent serial fallback:

    * ``run(fn, arg, timeout=...)`` blocks the calling thread until the
      task finishes — concurrency comes from several callers sharing one
      pool (worker-node threads, or the serving core's local workers
      awaiting ``run_async`` on its event loop);
    * a worker death surfaces as :class:`WorkerCrashError` and the pool
      is rebuilt, so the *next* task runs normally (ProcessPoolExecutor
      marks itself broken forever after one crash);
    * a deadline miss surfaces as :class:`WorkerTimeout`; the busy
      worker cannot be interrupted, so the pool is recycled and the
      stale worker left to finish in the background;
    * if pool infrastructure is unavailable (sandboxes without
      semaphores) the pool degrades to inline execution in the calling
      thread — deadlines then apply only while a task is still queued,
      and a task can signal a simulated crash by raising
      :class:`WorkerCrashError` itself (the retry path stays testable).
    """

    def __init__(self, workers: int = 1, inline: Optional[bool] = None):
        self.workers = max(1, workers)
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        if inline is None:
            inline = in_worker()  # never nest pools
        self._inline = inline

    @property
    def inline(self) -> bool:
        return self._inline

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        with self._lock:
            if self._inline:
                return None
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers, initializer=_mark_worker)
                except (OSError, ImportError, ValueError):
                    self._inline = True
                    return None
            return self._pool

    def _recycle(self, broken: Optional[ProcessPoolExecutor]) -> None:
        """Discard a broken/abandoned pool so the next run starts fresh."""
        with self._lock:
            if self._pool is broken and broken is not None:
                self._pool = None
                try:
                    broken.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass

    def run(self, fn: Callable[[T], R], arg: T,
            timeout: Optional[float] = None) -> R:
        """Execute ``fn(arg)``, blocking until done or ``timeout`` seconds.

        Raises :class:`WorkerTimeout` on deadline miss and
        :class:`WorkerCrashError` when the worker process dies; any
        exception raised by ``fn`` itself propagates unchanged.
        """
        pool = self._ensure_pool()
        if pool is None:
            return fn(arg)  # inline mode; WorkerCrashError may propagate
        future = pool.submit(fn, arg)
        with self._mapping_failures(pool, future, timeout):
            return future.result(timeout=timeout)

    async def run_async(self, fn: Callable[[T], R], arg: T,
                        timeout: Optional[float] = None) -> R:
        """:meth:`run` for an asyncio caller: the worker's future is
        awaited on the event loop, with the same timeout and crash
        mapping.  Inline mode runs ``fn`` in a thread so the loop keeps
        serving."""
        import asyncio  # here, so the batch drivers never import it
        pool = self._ensure_pool()
        if pool is None:
            return await asyncio.to_thread(fn, arg)
        future = pool.submit(fn, arg)
        with self._mapping_failures(pool, future, timeout):
            try:
                return await asyncio.wait_for(asyncio.wrap_future(future),
                                              timeout)
            except asyncio.TimeoutError:  # not the same class before 3.11
                raise FutureTimeoutError from None

    @contextmanager
    def _mapping_failures(self, pool: ProcessPoolExecutor, future: Future,
                          timeout: Optional[float]) -> Iterator[None]:
        """Turn a deadline miss into :class:`WorkerTimeout` and a dead
        worker into :class:`WorkerCrashError`, recycling the pool."""
        try:
            yield
        except FutureTimeoutError:
            future.cancel()
            self._recycle(pool)
            raise WorkerTimeout(
                f"task exceeded its {timeout:.3g}s deadline") from None
        except BrokenProcessPool:
            self._recycle(pool)
            raise WorkerCrashError("worker process died mid-task") from None

    def shutdown(self, wait: bool = False) -> None:
        """Stop the pool; ``wait`` blocks until its processes are gone."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=True)
            except Exception:
                pass

"""The three workloads: ``analyze``, ``tune`` and ``serve``.

Each workload is a closed loop over *passes*.  A pass is a fixed list of
ops whose order the seed shuffles, so every pass does the same work and a
run ends on a pass boundary.  Count metrics are reported per pass, which
makes them independent of how many passes fit into a run.

``setup`` is what a user pays before the first op and is timed by the
caller; ``prepare`` builds the benchmark's own inputs and references and
is not timed.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import reference
from layers import Recorder, in_process_metrics
from measure import OpLog

#: annotations-axis runs of the ``analyze`` pass besides the three
#: Table II configurations
ANNOTATION_MODES = ("inferred", "demand")

#: Table II configuration -> column prefix in ``table2.txt``
TABLE2_PREFIX = {"none": "none", "conventional": "conv",
                 "annotation": "annot"}


class Workload:
    name = ""
    #: ops in one pass
    pass_size = 0
    #: a run measures at least this many passes (sets the fixed tail
    #: percentile, see ``run.py``)
    min_passes = 1

    def __init__(self, root: str, seed: int):
        self.root = root
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        """Build the inputs and references (not timed)."""

    def setup(self) -> None:
        """Bring the program to where the first op expects it (timed)."""
        raise NotImplementedError

    def run_pass(self, log: OpLog, traced: bool) -> float:
        """Run one pass; returns the seconds the program was busy with it
        (the benchmark's own checks left out)."""
        raise NotImplementedError

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        raise NotImplementedError

    def reset(self) -> None:
        """Undo ``setup`` before it is timed again (not timed)."""

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    def extra_peak_rss_kb(self) -> int:
        """Peak RSS of processes the workload started, beyond this one."""
        return 0


class _InProcess(Workload):
    """Shared by ``analyze`` and ``tune``: layer spans come from a
    :class:`Recorder` installed around traced passes only."""

    def __init__(self, root: str, seed: int):
        super().__init__(root, seed)
        self.recorder = Recorder()

    def run_pass(self, log: OpLog, traced: bool) -> float:
        # one client, no think time: busy is the sum of the op latencies
        first = log.attempted
        if not traced:
            self._pass(log, traced)
        else:
            self.recorder.install()
            try:
                self._pass(log, traced)
            finally:
                self.recorder.uninstall()
        return math.fsum(log.seconds[first:])

    def _pass(self, log: OpLog, traced: bool = False) -> None:
        raise NotImplementedError

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        return in_process_metrics(self.recorder, passes)


class Analyze(_InProcess):
    """One cold Table II run (12 benchmarks x none / conventional /
    annotation, plus annotation with inferred and demand annotations) and
    the 23 tolerant-frontend corpus programs."""

    name = "analyze"
    min_passes = 13

    def prepare(self) -> None:
        from repro.perfect import all_benchmarks
        self.table2 = reference.load_table2(self.root)
        self.ablation = reference.load_ablation(self.root)
        self.benchmarks = all_benchmarks()
        self.corpus = reference.load_corpus(self.root)
        self.ops: List[Tuple] = [("pipeline", b, kind, "hand")
                                 for b in self.benchmarks
                                 for kind in TABLE2_PREFIX]
        self.ops += [("pipeline", b, "annotation", mode)
                     for b in self.benchmarks for mode in ANNOTATION_MODES]
        self.ops += [("corpus",) + entry for entry in self.corpus]
        self.pass_size = len(self.ops)

    def setup(self) -> None:
        # one unmeasured pass finishes lazy imports and first-use
        # initialisation; every measured pass then starts from cleared
        # parse and base caches
        self._pass(OpLog())

    def _pass(self, log: OpLog, traced: bool = False) -> None:
        from repro.experiments import pipeline
        from repro.fortran.fixedform import pipeline as fixedform
        from repro.perfect.suite import clear_program_cache
        pipeline.clear_base_cache()
        clear_program_cache()
        origins: Dict[Tuple[str, str], Tuple[int, set]] = {}
        for op in self.rng.sample(self.ops, len(self.ops)):
            if op[0] == "corpus":
                _, fname, text, expect = op
                try:
                    t0 = perf_counter()
                    result = fixedform.parallelize_source(
                        {fname: text}, config="annotation",
                        annotations_mode="inferred")
                    seconds = perf_counter() - t0
                except Exception as exc:  # any error is a failed op
                    log.record(0.0, f"{fname}: {exc!r}")
                    continue
                log.record(seconds, reference.check_corpus(result, expect))
                continue
            _, bench, kind, mode = op
            try:
                t0 = perf_counter()
                result = pipeline.run_config(
                    bench, pipeline.Config(kind, annotations=mode))
                seconds = perf_counter() - t0
            except Exception as exc:  # any error is a failed op
                log.record(0.0, f"{bench.name}/{kind}/{mode}: {exc!r}")
                continue
            par = result.parallel_origins()
            index = log.record(seconds, self._check_cells(
                bench.name, kind, mode, len(par), result.code_lines))
            if mode == "hand":
                origins[(bench.name, kind)] = (index, par)
        self._check_loss_extra(origins, log)

    def _check_cells(self, name: str, kind: str, mode: str, par: int,
                     lines: int) -> Optional[str]:
        if mode != "hand":
            want = self.ablation[name][mode]
            return None if par == want else \
                f"{name} {mode}: #par-loops {par} != {want}"
        row = self.table2[name]
        prefix = TABLE2_PREFIX[kind]
        got = (par, lines)
        want = (row[f"{prefix}:par"], row[f"{prefix}:lines"])
        return None if got == want else \
            f"{name} {kind}: (par, lines) {got} != {want}"

    def _check_loss_extra(self, origins, log: OpLog) -> None:
        for bench in self.benchmarks:
            base = origins.get((bench.name, "none"))
            if base is None:
                continue
            row = self.table2[bench.name]
            for kind in ("conventional", "annotation"):
                entry = origins.get((bench.name, kind))
                if entry is None:
                    continue
                index, par = entry
                prefix = TABLE2_PREFIX[kind]
                got = (len(base[1] - par), len(par - base[1]))
                want = (row[f"{prefix}:loss"], row[f"{prefix}:extra"])
                if got != want:
                    log.fail(index, f"{bench.name} {kind}: (loss, extra) "
                                    f"{got} != {want}")


class Tune(_InProcess):
    """Figure 20: 12 benchmarks x 2 machines x 3 configurations, each cell
    through ``run_cell_task`` on pipeline results built in set-up."""

    name = "tune"
    min_passes = 2

    def prepare(self) -> None:
        from repro.experiments.figure20 import MACHINES, Figure20Task
        from repro.experiments.pipeline import CONFIGS
        from repro.perfect import all_benchmarks
        self.figure20 = reference.load_figure20(self.root)
        self.benchmarks = all_benchmarks()
        self.tasks = [Figure20Task(b, m, kind) for b in self.benchmarks
                      for m in MACHINES for kind in CONFIGS]
        self.pass_size = len(self.tasks)
        self.compile_misses = 0
        self.compile_hits = 0

    def setup(self) -> None:
        from repro.experiments import figure20, pipeline
        from repro.experiments.pipeline import CONFIGS
        from repro.perfect.suite import clear_program_cache
        pipeline.clear_base_cache()
        clear_program_cache()
        figure20.clear_pipeline_cache()
        # run_cell_task memoizes one pipeline result per (source digest,
        # config) in this cache; filling it here keeps the analysis
        # layers out of the measured ops (a cell that still runs its
        # pipeline is caught by the check on cell.timings)
        for bench in self.benchmarks:
            for kind in CONFIGS:
                figure20._PIPELINE_CACHE[(bench.digest(), kind)] = \
                    pipeline.run_config(bench, pipeline.Config(kind))

    def _pass(self, log: OpLog, traced: bool = False) -> None:
        from repro.experiments.figure20 import run_cell_task
        from repro.runtime.compiler import (clear_compile_cache,
                                            compile_cache_info)
        # each pass compiles cold, as one `repro figure20` process does
        clear_compile_cache()
        for task in self.rng.sample(self.tasks, len(self.tasks)):
            try:
                t0 = perf_counter()
                cell = run_cell_task(task)
                seconds = perf_counter() - t0
            except Exception as exc:  # any error is a failed op
                log.record(0.0, f"{task.benchmark.name}/{task.machine.name}"
                                f"/{task.kind}: {exc!r}")
                continue
            log.record(seconds, self._check(cell))
        if traced:
            info = compile_cache_info()
            self.compile_misses += info["misses"]
            self.compile_hits += info["hits"]

    def _check(self, cell) -> Optional[str]:
        key = (cell.machine, cell.benchmark, cell.config)
        got = f"{cell.speedup:.3f}"
        want = self.figure20.get(key)
        if got != want:
            return f"{key}: speedup {got} != {want}"
        if set(cell.timings) != {"tune"}:
            return f"{key}: pipeline ran inside the cell ({cell.timings})"
        return None

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        out = super().layer_metrics(passes)
        lookups = self.compile_misses + self.compile_hits
        out["runtime.compile.misses"] = self.compile_misses / passes
        out["runtime.compile.hit_ratio"] = \
            self.compile_hits / lookups if lookups else 0.0
        return out


class Serve(Workload):
    """``repro serve --port 0 --jobs 1`` driven by two closed-loop client
    sessions over a shared pass of real payloads."""

    name = "serve"
    min_passes = 4
    sessions = 2
    #: a repeat resubmits the exact payload of a slot this many to ten
    #: positions earlier; the distance keeps the original finished (a
    #: cache hit, not an in-flight dedup) and far from LRU eviction
    repeat_gap = (3, 10)
    #: share of a pass that repeats an earlier payload
    repeat_share = 0.25
    wait_timeout = 60.0

    def prepare(self) -> None:
        from repro.perfect import all_benchmarks
        from repro.service.execution import execute_payload
        self.contents: List[Dict] = [
            {"kind": "parallelize", "sources": {fname: text}}
            for fname, text, _ in reference.load_corpus(self.root)]
        for bench in all_benchmarks():
            for kind in TABLE2_PREFIX:
                self.contents.append(self._sources(bench, kind, "hand"))
            for mode in ANNOTATION_MODES:
                self.contents.append(
                    self._sources(bench, "annotation", mode))
        # the wire protocol sorts object keys, so the daemon sees each
        # payload's sources in file-name order; the reference must too
        self.contents = [json.loads(json.dumps(c, sort_keys=True))
                         for c in self.contents]
        # the reference: the same payloads run in this process
        self.expected = [reference.comparable(execute_payload(dict(c)))
                         for c in self.contents]
        repeats = round(len(self.contents) * self.repeat_share
                        / (1 - self.repeat_share))
        self.pass_size = len(self.contents) + repeats
        self.daemon: Optional[subprocess.Popen] = None
        self.passes_done = 0
        self.teardown_s: List[float] = []
        self.stats: Dict[str, float] = {}
        self.wire: List[float] = []

    @staticmethod
    def _sources(bench, kind: str, mode: str) -> Dict:
        return {"kind": "sources", "sources": dict(bench.sources),
                "annotations": bench.annotations, "config": kind,
                "annotations_mode": mode}

    # -- daemon lifecycle ---------------------------------------------

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env.pop("REPRO_DISK_CACHE", None)  # results stay in memory
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True)
        line = self.daemon.stdout.readline()
        match = re.search(r"listening on [^:]+:(\d+)", line)
        if not match:
            self.daemon.kill()
            self.daemon.wait()
            self.daemon.stdout.close()
            self.daemon = None
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServiceClient(port=int(match.group(1)),
                                    timeout=self.wait_timeout + 30)
        # warm the worker process: every payload once, under a tag no
        # measured op uses
        for i, content in enumerate(self.contents):
            self.client.submit({**content, "tag": f"warm-{i}"},
                               wait_timeout=self.wait_timeout)

    def _stop_daemon(self) -> None:
        from repro.service.client import ServiceError
        daemon, self.daemon = self.daemon, None
        t0 = perf_counter()
        try:
            self.client.shutdown()
        except ServiceError:
            daemon.terminate()
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
            raise RuntimeError("repro serve did not exit after shutdown")
        finally:
            daemon.stdout.close()
        self.teardown_s.append(perf_counter() - t0)

    def reset(self) -> None:
        self._stop_daemon()

    def close(self) -> None:
        if self.daemon is not None:
            self._stop_daemon()

    def extra_peak_rss_kb(self) -> int:
        if self.daemon is None:
            return 0
        return sum(_peak_rss_kb(pid) for pid in _process_tree(self.daemon.pid))

    # -- one pass -----------------------------------------------------

    def _plan(self) -> List[Tuple[int, Optional[int]]]:
        """The pass as (content index, repeated slot or None) per slot."""
        n = self.pass_size
        repeats = n - len(self.contents)
        lo, hi = self.repeat_gap
        while True:
            order = self.rng.sample(range(len(self.contents)),
                                    len(self.contents))
            spots = set(self.rng.sample(range(lo, n), repeats))
            plan: List[Tuple[int, Optional[int]]] = []
            fresh = iter(order)
            for slot in range(n):
                if slot not in spots:
                    plan.append((next(fresh), None))
                    continue
                targets = [t for t in range(max(0, slot - hi), slot - lo + 1)
                           if plan[t][1] is None]
                if not targets:
                    break
                target = self.rng.choice(targets)
                plan.append((plan[target][0], target))
            else:
                return plan

    def run_pass(self, log: OpLog, traced: bool) -> float:
        from repro.obs.distributed import TraceContext
        plan = self._plan()
        tag = f"p{self.passes_done}"
        self.passes_done += 1
        payloads: List[Dict] = []
        for slot, (content, target) in enumerate(plan):
            payloads.append(payloads[target] if target is not None
                            else {**self.contents[content],
                                  "tag": f"{tag}-{slot}"})
        done = [threading.Event() for _ in plan]
        results: List[Optional[Tuple[float, float, Optional[str], float]]] \
            = [None] * len(plan)
        root = TraceContext() if traced else None
        cursor = iter(range(len(plan)))
        lock = threading.Lock()
        before = self._service_counters() if traced else None

        def session() -> None:
            while True:
                with lock:
                    slot = next(cursor, None)
                if slot is None:
                    return
                content, target = plan[slot]
                if target is not None:
                    done[target].wait(self.wait_timeout)
                trace_ctx = root.child().to_dict() if root else None
                try:
                    results[slot] = self._submit(payloads[slot], content,
                                                 trace_ctx)
                finally:
                    done[slot].set()

        threads = [threading.Thread(target=session, name=f"session-{i}")
                   for i in range(self.sessions)]
        t0 = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        busy = perf_counter() - t0
        for entry in results:
            start, seconds, problem, server_latency = entry
            log.record(seconds, problem, at=start + seconds / 2)
            if traced and problem is None:
                self.wire.append((seconds - server_latency) * 1000.0)
        if traced:
            self._add_pass_trace(root.trace_id, before)
        return busy

    def _submit(self, payload: Dict, content: int,
                trace_ctx: Optional[Dict]
                ) -> Tuple[float, float, Optional[str], float]:
        """One checked round trip: (start, client seconds, problem or None,
        server-side job latency)."""
        from repro.service.client import ServiceError
        t0 = perf_counter()
        try:
            response = self.client.submit(payload,
                                          wait_timeout=self.wait_timeout,
                                          trace_ctx=trace_ctx)
        except ServiceError as exc:  # refusal or lost connection
            return t0, perf_counter() - t0, f"{exc.code}: {exc}", 0.0
        seconds = perf_counter() - t0
        result = response.get("result")
        if response.get("state") != "done" or not isinstance(result, dict):
            return t0, seconds, f"job {response.get('state')}", 0.0
        if reference.comparable(result) != self.expected[content]:
            return t0, seconds, "result differs from execute_payload", 0.0
        return t0, seconds, None, response.get("latency") or 0.0

    # -- counters the daemon exposes ------------------------------------

    def _service_counters(self) -> Dict[str, float]:
        metrics = self.client.metrics()["metrics"]

        def total(name: str) -> float:
            value = metrics.get(name, 0)
            return sum(value.values()) if isinstance(value, dict) else value

        return {key: total(name) for key, name in (
            ("hits", "repro_cache_hits_total"),
            ("misses", "repro_cache_misses_total"),
            ("dedup", "repro_jobs_deduped_total"),
            ("retries", "repro_jobs_retried_total"),
            ("rejected", "repro_jobs_rejected_total"))}

    def _add_pass_trace(self, trace_id: str, before: Dict[str, float]
                        ) -> None:
        after = self._service_counters()
        for key in after:
            self.stats[key] = self.stats.get(key, 0) + after[key] - before[key]
        spans = self.client.trace_export(trace_id)["spans"]
        for name, key in (("queue-wait", "queue_wait_s"),
                          ("execute", "execute_s"),
                          ("cache-lookup", "lookup_s")):
            self.stats[key] = self.stats.get(key, 0.0) + sum(
                s["dur"] for s in spans if s["name"] == name)

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        from measure import percentile
        s = self.stats
        lookups = s["hits"] + s["misses"]
        return {
            "service.wire_ms": percentile(self.wire, 50),
            "service.queue.wait_s": s["queue_wait_s"] / passes,
            "service.execute.busy_s": s["execute_s"] / passes,
            "service.cache.lookup_s": s["lookup_s"] / passes,
            "service.cache.hit_ratio": s["hits"] / lookups if lookups else 0.0,
            "service.dedup": s["dedup"] / passes,
            "service.retries": s["retries"] / passes,
            "service.rejected": s["rejected"] / passes,
            # median over every daemon this run started and shut down
            "service.teardown_s": percentile(self.teardown_s, 50),
        }


def _process_tree(pid: int) -> List[int]:
    """``pid`` and its descendants, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


WORKLOADS = {w.name: w for w in (Analyze, Tune, Serve)}

"""Per-layer tracing from outside the program.

The traced run installs thin wrappers around each layer's public
functions, from the benchmark's own files, and removes them again; the
untraced run never installs them.  A wrapper records one span (name,
start, end, enclosing span) per call and, for some layers, a count read
off the call's return value.  Nothing inside ``src/`` is changed.

Wrappers replace the attribute through which callers reach a function:
the class attribute for methods, and the importing module's name for
functions bound with ``from ... import`` (``run_config`` is called by the
benchmark through its module, ``tune`` by ``figure20`` and
``make_interpreter`` by ``tuning``).
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from measure import self_time, union_length


class Recorder:
    """Spans and counts from one traced stretch of a single thread."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None]
        self.spans: List[list] = []
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = perf_counter()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, value: float) -> None:
        self.values[name].append(value)

    # -- installing ---------------------------------------------------

    def patch(self, module: str, path: str, name: str,
              on_result: Optional[Callable] = None) -> None:
        """Wrap ``module.path`` (``path`` may be ``Class.method``)."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self) -> "Recorder":
        for module, path, name, on_result in _WRAP_POINTS:
            self.patch(module, path, name, on_result)
        self.patch("repro.experiments.tuning", "make_interpreter",
                   "runtime.make_interpreter", _wrap_interpreter_run)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------

    def busy(self, name: str) -> float:
        return union_length((s, e) for n, s, e, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def total(self, name: str) -> float:
        return math.fsum(self.values.get(name, ()))

    def self_time(self, name: str) -> float:
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, s, e, parent in self.spans:
            if parent is not None:
                children[parent].append((s, e))
        return math.fsum(self_time((s, e), children[i])
                         for i, (n, s, e, _) in enumerate(self.spans)
                         if n == name)

    def child_calls(self, parent_name: str, child_name: str) -> int:
        return sum(1 for n, _, _, parent in self.spans
                   if n == child_name and parent is not None
                   and self.spans[parent][0] == parent_name)


# -- what each wrapper reads off a return value ------------------------

def _count_inlined(rec: Recorder, result, args, kwargs) -> None:
    rec.add("inlining.conventional.sites_inlined", result.inlined_count)


def _polaris_report(rec: Recorder, report, args, kwargs) -> None:
    for phase in ("normalize", "summaries", "dependence"):
        rec.add(f"polaris.{phase}_s", report.timings.get(phase, 0.0))
    stats = report.test_stats
    hits = stats.get("cache_hits", 0)
    unique = sum(stats.get(k, 0) for k in (
        "ziv_independent", "gcd_independent", "banerjee_independent",
        "exact_independent", "assumed_dependent"))
    rec.add("analysis.dep.queries", unique + hits)
    rec.add("analysis.dep.memo_hits", hits)
    rec.add("polaris.loops", len(report.verdicts))
    rec.add("polaris.loops_parallel",
            sum(1 for v in report.verdicts if v.parallelized))


def _pipeline_lines(rec: Recorder, result, args, kwargs) -> None:
    rec.add("pipeline.ir_lines", result.code_lines)


def _fixedform_lines(rec: Recorder, result, args, kwargs) -> None:
    rec.add("pipeline.ir_lines", result["code_lines"])


def _tuning_result(rec: Recorder, result, args, kwargs) -> None:
    rec.add("tuning.disabled", len(result.disabled))


def _wrap_interpreter_run(rec: Recorder, interp, args, kwargs) -> None:
    kind = "omp" if kwargs.get("machine") is not None else "serial"
    name = f"runtime.exec.{kind}"

    def cost(rec_: Recorder, result, a, kw) -> None:
        rec_.add(f"{name}.cost_units", result.cost)

    interp.run = rec.wrap(name, interp.run, cost)


#: (module, attribute path, span name, return-value reader)
_WRAP_POINTS = (
    ("repro.perfect.suite", "Benchmark.program", "fortran.parse", None),
    ("repro.fortran.fixedform.pipeline", "parse_source_tolerant",
     "fortran.parse", None),
    ("repro.program", "Program.unparse", "fortran.unparse", None),
    ("repro.program", "Program.clone", "runtime.clone", None),
    ("repro.inlining.conventional", "ConventionalInliner.run",
     "inlining.conventional", _count_inlined),
    ("repro.inlining.demand", "DemandInliner.resolve", "inlining.demand",
     None),
    ("repro.experiments.pipeline", "infer_annotations",
     "annotations.infer", None),
    ("repro.annotations.infer", "infer_annotations", "annotations.infer",
     None),
    ("repro.annotations.inliner", "AnnotationInliner.run",
     "annotations.inline", None),
    ("repro.annotations.reverse", "ReverseInliner.run",
     "annotations.reverse", None),
    ("repro.polaris", "Polaris.run", "polaris.run", _polaris_report),
    ("repro.experiments.pipeline", "run_config", "experiments.pipeline",
     _pipeline_lines),
    ("repro.fortran.fixedform.pipeline", "parallelize_source",
     "fortran.fixedform", _fixedform_lines),
    ("repro.experiments.figure20", "tune", "tuning", _tuning_result),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def in_process_metrics(rec: Recorder, passes: int) -> Dict[str, float]:
    """Per-pass layer metrics of the in-process workloads."""
    per = 1.0 / passes
    queries = rec.total("analysis.dep.queries")
    hits = rec.total("analysis.dep.memo_hits")
    tunes = rec.calls("tuning")
    return {
        "fortran.parse.calls": rec.calls("fortran.parse") * per,
        "fortran.parse.busy_s": rec.busy("fortran.parse") * per,
        "fortran.unparse.busy_s": rec.busy("fortran.unparse") * per,
        "inlining.conventional.busy_s":
            rec.busy("inlining.conventional") * per,
        "inlining.conventional.sites_inlined":
            rec.total("inlining.conventional.sites_inlined") * per,
        "inlining.demand.resolves": rec.calls("inlining.demand") * per,
        "inlining.demand.busy_s": rec.busy("inlining.demand") * per,
        "annotations.infer.busy_s": rec.busy("annotations.infer") * per,
        "annotations.inline.busy_s": rec.busy("annotations.inline") * per,
        "annotations.reverse.busy_s": rec.busy("annotations.reverse") * per,
        "pipeline.ir_lines": rec.total("pipeline.ir_lines") * per,
        "polaris.run.busy_s": rec.busy("polaris.run") * per,
        "polaris.normalize_s": rec.total("polaris.normalize_s") * per,
        "polaris.summaries_s": rec.total("polaris.summaries_s") * per,
        "polaris.dependence_s": rec.total("polaris.dependence_s") * per,
        "analysis.dep.queries": queries * per,
        "analysis.dep.memo_hits": hits * per,
        "analysis.dep.memo_hit_ratio": _ratio(hits, queries),
        "polaris.loops": rec.total("polaris.loops") * per,
        "polaris.loops_parallel": rec.total("polaris.loops_parallel") * per,
        "experiments.pipeline.self_s":
            rec.self_time("experiments.pipeline") * per,
        "runtime.exec.serial.calls": rec.calls("runtime.exec.serial") * per,
        "runtime.exec.serial.busy_s": rec.busy("runtime.exec.serial") * per,
        "runtime.exec.serial.cost_units":
            rec.total("runtime.exec.serial.cost_units") * per,
        "runtime.exec.omp.calls": rec.calls("runtime.exec.omp") * per,
        "runtime.exec.omp.busy_s": rec.busy("runtime.exec.omp") * per,
        "runtime.exec.omp.cost_units":
            rec.total("runtime.exec.omp.cost_units") * per,
        "runtime.clone.busy_s": rec.busy("runtime.clone") * per,
        # every tune() measures the directives once before any round
        "tuning.rounds":
            (rec.child_calls("tuning", "runtime.exec.omp") - tunes) * per,
        "tuning.disabled": rec.total("tuning.disabled") * per,
        "tuning.self_s": rec.self_time("tuning") * per,
    }

"""The three-configuration evaluation pipeline (paper Figure 15 + the
Table II measurement protocol).

For one benchmark the pipeline runs:

* ``none`` — Polaris directly (no inlining);
* ``conventional`` — the Polaris default inliner, then Polaris;
* ``annotation`` — annotation-based inlining, Polaris, reverse inlining.

Counting protocol (the paper's): each *original* loop (origin identity)
counts once; a loop counts as parallelized in a configuration when any of
its copies in an *execution-reachable* unit received a directive.  A
procedure whose every call site was inlined away is dead code — its
still-parallelizable original no longer executes, which is exactly how
conventional inlining manifests ``#par-loss``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Set

from repro.analysis.callgraph import build_callgraph
from repro.analysis.loops import assign_origins
from repro.annotations.infer import ANNOTATION_MODES, infer_annotations
from repro.annotations.inliner import (AnnotationInlineResult,
                                       AnnotationInliner)
from repro.annotations.registry import AnnotationRegistry
from repro.annotations.reverse import ReverseInliner, ReverseResult
from repro.annotations.translate import TranslateOptions
from repro.inlining.conventional import ConventionalInliner, InlineResult
from repro.inlining.demand import DemandInliner
from repro.inlining.heuristics import InlinePolicy
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.perfect.suite import Benchmark, CacheStats
from repro.polaris import Polaris, PolarisOptions, Report
from repro.polaris.report import PHASES
from repro.program import Program
from repro.trace import SiteDecision, Tracer

CONFIGS = ("none", "conventional", "annotation")


@dataclass
class Config:
    kind: str = "none"
    polaris: PolarisOptions = field(default_factory=PolarisOptions)
    inline_policy: InlinePolicy = field(default_factory=InlinePolicy)
    translate: TranslateOptions = field(default_factory=TranslateOptions)
    #: the annotations axis (only meaningful for kind == "annotation"):
    #: "hand" uses the benchmark's hand-written annotations up front;
    #: "inferred" replaces them with inferred ones (hand ignored);
    #: "demand" merges both (hand wins) and inlines on demand during
    #: dependence analysis instead of up front
    annotations: str = "hand"


@dataclass
class PipelineResult:
    config: str
    program: Program
    report: Report
    conventional_result: Optional[InlineResult] = None
    annotation_result: Optional[AnnotationInlineResult] = None
    reverse_result: Optional[ReverseResult] = None
    #: which annotations-axis value produced this result
    annotations: str = "hand"
    #: the annotation registry used (the inferred one unless ``hand``)
    registry: Optional[AnnotationRegistry] = None
    #: lazily computed reachable-unit set and code size (the finished
    #: program never changes afterwards, so one traversal serves every
    #: later call)
    _reachable: Optional[Set[str]] = field(default=None, repr=False)
    _code_lines: Optional[int] = field(default=None, repr=False)

    @property
    def code_lines(self) -> int:
        if self._code_lines is None:
            self._code_lines = self.program.total_lines()
        return self._code_lines

    def reachable_units(self) -> Set[str]:
        if self._reachable is None:
            self._reachable = _reachable_units(self.program)
        return self._reachable

    def parallel_origins(self) -> Set[str]:
        """Origins parallelized in execution-reachable units."""
        reachable = self.reachable_units()
        return {v.origin for v in self.report.verdicts
                if v.parallelized and v.origin is not None
                and v.unit in reachable}


def _reachable_units(program: Program) -> Set[str]:
    graph = build_callgraph(program)
    roots = [u.name for u in program.units if u.kind == "PROGRAM"]
    seen: Set[str] = set(roots)
    stack = list(roots)
    while stack:
        name = stack.pop()
        for callee in graph.callees(name):
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return seen


#: source digest -> origin-stamped base program.  Stamping is
#: deterministic over a deterministic parse, so every configuration (in
#: every process) derives identical origin identities from its own copy;
#: the cached base itself is never mutated — callers always clone.
_BASE_CACHE: Dict[str, Program] = {}

#: hit/miss counters for the stamped-base cache (bench-gate observable)
BASE_CACHE_STATS = CacheStats()


def clear_base_cache() -> None:
    _BASE_CACHE.clear()


def prepare_base(benchmark: Benchmark) -> Program:
    """Parse the benchmark and stamp loop origins (done once, before any
    configuration clones the program, so origins are comparable)."""
    digest = benchmark.digest()
    lookups = obs_metrics.counter("repro_base_cache_total",
                                  "stamped-base cache lookups by outcome")
    base = _BASE_CACHE.get(digest)
    if base is None:
        BASE_CACHE_STATS.misses += 1
        lookups.inc(outcome="miss")
        base = benchmark.program()
        for unit in base.units:
            assign_origins(unit)
        _BASE_CACHE[digest] = base
    else:
        BASE_CACHE_STATS.memory_hits += 1
        lookups.inc(outcome="memory_hit")
    return base


def run_config(benchmark: Benchmark, config: Config,
               base: Optional[Program] = None,
               tracer: Optional[Tracer] = None) -> PipelineResult:
    # every log record inside the pipeline (and below it) carries the
    # benchmark/config correlation IDs, on top of whatever run_id/job_id
    # the caller established
    with obs_logging.log_context(benchmark=benchmark.name,
                                 config=config.kind):
        return _run_config(benchmark, config, base, tracer)


def _run_config(benchmark: Benchmark, config: Config,
                base: Optional[Program],
                tracer: Optional[Tracer]) -> PipelineResult:
    tracer = tracer or Tracer(enabled=False)
    before = tracer.totals(PHASES)
    if benchmark.library_units:
        config = replace(config, inline_policy=_policy_with_unavailable(
            config.inline_policy, benchmark.library_units))
    first_decision = len(tracer.decisions)
    first_site = len(tracer.site_decisions)
    with tracer.span("pipeline", benchmark=benchmark.name,
                     config=config.kind):
        if base is None:
            with tracer.span("parse", benchmark=benchmark.name):
                base = prepare_base(benchmark)
        with tracer.span("clone"):
            program = base.clone()
        hand = benchmark.registry() if config.kind == "annotation" else None
        result = run_program(program, hand, config, tracer)
    report = result.report
    report.timings = tracer.totals_since(before)
    if tracer.enabled:
        # attribute this run's records; each loop's reachability is the
        # trace-side half of the Table II counting protocol (see
        # repro.trace.count_parallel)
        reachable = result.reachable_units()
        for d in tracer.decisions[first_decision:]:
            d.benchmark, d.config = benchmark.name, config.kind
            d.reachable = d.unit in reachable
        for d in tracer.site_decisions[first_site:]:
            d.benchmark, d.config = benchmark.name, config.kind
    obs_logging.get_logger("repro.pipeline").info(
        "pipeline-done", parallel=len(report.parallel_origins()),
        lines=result.code_lines,
        seconds=round(sum(report.timings.values()), 4))
    return result


def run_program(program: Program, hand: Optional[AnnotationRegistry],
                config: Config,
                tracer: Optional[Tracer] = None) -> PipelineResult:
    """Run one configuration on ``program``, in place: inline (or infer
    annotations), parallelize with :class:`Polaris`, reverse-inline.

    ``hand`` is the hand-written annotation registry; only ``annotation``
    runs read it, and the ``inferred`` axis ignores it.  The report's
    timings are the phase spans this call closed on ``tracer``.
    """
    tracer = tracer or Tracer(enabled=False)
    before = tracer.totals(PHASES)
    conventional_result = annotation_result = reverse_result = None
    registry, demand = hand, None
    if config.kind == "conventional":
        with tracer.span("inline", kind="conventional"):
            conventional_result = ConventionalInliner(
                config.inline_policy).run(program)
    elif config.kind == "annotation":
        registry, demand = _prepare_annotations(hand, config, program,
                                                tracer)
        if demand is None:
            with tracer.span("inline", kind="annotation"):
                annotation_result = AnnotationInliner(
                    registry, config.translate).run(program)

    report = Polaris(config.polaris,
                     demand=demand).run(program, tracer=tracer)
    if demand is not None:
        annotation_result = demand._ann_result

    if config.kind == "annotation":
        with tracer.span("reverse"):
            reverse_result = ReverseInliner(registry,
                                            config.translate).run(program)
    report.timings = tracer.totals_since(before)
    return PipelineResult(config.kind, program, report,
                          conventional_result, annotation_result,
                          reverse_result, annotations=config.annotations,
                          registry=registry)


def _prepare_annotations(hand: AnnotationRegistry, config: Config,
                         program: Program, tracer: Tracer):
    """Resolve the annotations axis for an ``annotation`` run.

    Returns ``(registry, demand)``: the registry the reverse inliner
    will use, and the :class:`DemandInliner` to hand to Polaris (None
    for the up-front modes)."""
    mode = config.annotations
    if mode == "hand":
        return hand, None
    if mode not in ANNOTATION_MODES:
        raise ValueError(f"unknown annotations mode {mode!r}")
    with tracer.span("infer", mode=mode):
        inference = infer_annotations(
            program, hand=hand if mode == "demand" else None)
        registry = inference.registry()
    if tracer.enabled:
        for name, reason in inference.fallbacks().items():
            tracer.site(SiteDecision("", name, 0, "fallback",
                                     source="inferred", reason=reason))
    if mode == "inferred":
        return registry, None
    hand_names = frozenset(hand.names()) if hand is not None else frozenset()
    demand = DemandInliner(registry, config.translate, config.inline_policy,
                           inference=inference, hand_names=hand_names)
    return registry, demand


def summarize_result(result: PipelineResult) -> Dict[str, object]:
    """JSON-safe summary of one pipeline run.

    This is what the service hands back to clients (and persists in its
    result cache): the optimized source itself plus the numbers Table II
    is built from.  Everything here survives both pickling across the
    worker-pool boundary and JSON serialization on the wire.
    """
    origins = sorted(result.parallel_origins())
    return {
        "config": result.config,
        "annotations": result.annotations,
        "parallel_count": len(origins),
        "parallel_origins": origins,
        "code_lines": result.code_lines,
        "timings": dict(result.report.timings),
        "serial_reasons": result.report.reasons_histogram(),
        "output": "".join(result.program.unparse().values()),
    }


def run_all_configs(benchmark: Benchmark,
                    polaris: Optional[PolarisOptions] = None,
                    tracer: Optional[Tracer] = None,
                    ) -> Dict[str, PipelineResult]:
    """Every configuration of ``benchmark``; the first run parses and
    stamps the base program, the others clone it from the base cache."""
    polaris = polaris or PolarisOptions()
    return {kind: run_config(benchmark, Config(kind, polaris),
                             tracer=tracer)
            for kind in CONFIGS}


def _policy_with_unavailable(policy: InlinePolicy,
                             unavailable) -> InlinePolicy:
    """Wrap a policy so library procedures count as source-unavailable."""
    class _Wrapped(InlinePolicy):
        def rejection_reason(self, program, graph, callee_name, in_loop):
            if callee_name.upper() in unavailable:
                return "no-source"
            return InlinePolicy.rejection_reason(self, program, graph,
                                                 callee_name, in_loop)

    return _Wrapped(policy.max_statements, policy.allow_io,
                    policy.allow_calls, policy.require_loop_context)

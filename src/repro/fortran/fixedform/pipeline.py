"""The file-level pipeline: inline -> Polaris -> reverse-inline.

:func:`run_pipeline` is the one dispatch over the inlining
configuration (``none`` / ``conventional`` / ``annotation``) and the
annotation source (``hand`` / ``inferred`` / ``demand``); the CLI, the
fuzz oracle and :func:`parallelize_source` all run it.

:func:`parallelize_source` is the service/CLI entry point behind
``repro parallelize FILE.f`` and the ``{"kind": "parallelize"}`` job
payload: tolerant parse -> :func:`run_pipeline` -> OpenMP unparse, with
per-loop explanations.  It accepts real-world fixed-form input: dialect
constructs become conservative IR (EQUIVALENCE, computed/assigned GOTO,
ENTRY, alternate returns, CHARACTER substrings), and outright malformed
statements become :class:`~repro.fortran.ast.Opaque` markers — both
analyzed as "may touch anything", so every verdict stays sound.

The returned mapping is JSON-ready (service responses forward it as-is):

``output``
    the annotated source (OpenMP directives inserted);
``diagnostics``
    recovery actions from the tolerant frontend, one dict per action;
``loops``
    one dict per analyzed loop — the
    :class:`~repro.trace.decisions.LoopDecision` record plus its
    human-readable ``explanation``;
``parallel_count``
    loops that received a directive.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

from repro.fortran import ast
from repro.fortran.parser import parse_source_tolerant
from repro.program import Program
from repro.trace import Tracer

__all__ = ["parallelize_source", "run_pipeline"]


def run_pipeline(program: Program, registry, config: str,
                 annotations_mode: str = "hand", tracer=None):
    """Transform ``program`` in place for one configuration and return
    ``(report, registry)``, where ``registry`` is the annotation registry
    the pipeline used (the inferred one unless ``annotations_mode`` is
    ``hand``).  The report carries ``inline``/``reverse`` timings."""
    from repro.annotations import AnnotationInliner, ReverseInliner
    from repro.inlining import ConventionalInliner
    from repro.polaris import Polaris
    t0 = perf_counter()
    demand = None
    if config == "conventional":
        ConventionalInliner().run(program)
    elif config == "annotation":
        if annotations_mode != "hand":
            from repro.annotations.infer import infer_annotations
            from repro.inlining.demand import DemandInliner
            hand = registry if annotations_mode == "demand" else None
            inference = infer_annotations(program, hand=hand)
            registry = inference.registry()
            if annotations_mode == "demand":
                demand = DemandInliner(
                    registry, inference=inference,
                    hand_names=frozenset(hand.names()))
        if demand is None:
            AnnotationInliner(registry).run(program)
    inline_seconds = perf_counter() - t0
    report = Polaris(demand=demand).run(program, tracer)
    if config != "none":
        report.add_timing("inline", inline_seconds)
    if config == "annotation":
        t0 = perf_counter()
        ReverseInliner(registry).run(program)
        report.add_timing("reverse", perf_counter() - t0)
    return report, registry


def _build_program(sources: Dict[str, str], tolerant: bool,
                   diagnostics: List[dict]) -> Program:
    if not tolerant:
        return Program.from_sources(sources)
    files: List[ast.SourceFile] = []
    for fname, text in sources.items():
        sf, diags = parse_source_tolerant(text, fname)
        files.append(sf)
        diagnostics.extend(d.to_dict() for d in diags)
    prog = Program(files, "parallelize")
    prog.resolve()
    return prog


def parallelize_source(sources: Dict[str, str],
                       config: str = "annotation",
                       annotations_mode: str = "inferred",
                       annotations_text: str = "",
                       tolerant: bool = True,
                       tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Parallelize a ``{filename: text}`` mapping of fixed-form sources.

    ``config``/``annotations_mode`` select the inlining strategy exactly
    as the CLI flags do; the default (``annotation`` + ``inferred``)
    needs no hand-written annotation file, which is the right default
    for arbitrary ingested programs.  Raises
    :class:`~repro.errors.ReproError` only in strict mode
    (``tolerant=False``) on the first frontend error.
    """
    from repro.annotations import AnnotationRegistry

    diagnostics: List[dict] = []
    t0 = perf_counter()
    program = _build_program(sources, tolerant, diagnostics)
    parse_seconds = perf_counter() - t0

    registry = (AnnotationRegistry.from_text(annotations_text)
                if annotations_text else AnnotationRegistry())
    tracer = tracer or Tracer(label="parallelize")
    report, _ = run_pipeline(program, registry, config, annotations_mode,
                             tracer)
    report.add_timing("parse", parse_seconds)

    loops = []
    for d in tracer.decisions:
        rec = d.to_dict()
        rec["explanation"] = d.describe()
        loops.append(rec)
    output = "".join(program.unparse().values())
    return {
        "output": output,
        "code_lines": len(output.splitlines()),
        "diagnostics": diagnostics,
        "loops": loops,
        "parallel_count": report.parallel_count(),
        "config": config,
        "annotations_mode": annotations_mode,
        "units": [u.name for u in program.units],
    }

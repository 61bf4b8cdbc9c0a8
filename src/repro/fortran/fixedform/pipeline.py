"""Parallelizing real-world fixed-form files.

:func:`parallelize_source` is the service/CLI entry point behind
``repro parallelize FILE.f`` and the ``{"kind": "parallelize"}`` job
payload: tolerant parse -> the pipeline core that the experiments
share (:func:`repro.experiments.pipeline.run_program`: inline ->
Polaris -> reverse-inline) -> OpenMP unparse, with per-loop
explanations.  It accepts real-world fixed-form input: dialect
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

from typing import Dict, List, Optional

from repro.fortran import ast
from repro.fortran.parser import parse_source_tolerant
from repro.program import Program
from repro.trace import Tracer

__all__ = ["parallelize_source"]


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
    from repro.experiments.pipeline import Config, run_program

    diagnostics: List[dict] = []
    tracer = tracer or Tracer(label="parallelize")
    with tracer.span("parse"):
        program = _build_program(sources, tolerant, diagnostics)

    report = run_program(program,
                         AnnotationRegistry.from_text(annotations_text),
                         Config(config, annotations=annotations_mode),
                         tracer).report

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

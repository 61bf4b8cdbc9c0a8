"""Real-world fixed-form Fortran ingestion.

The frontend itself lives in :mod:`repro.fortran.parser`: one parse that
reports every malformed construct to a diagnostic sink.  This package
exposes its tolerant face:

* :func:`parse_source_tolerant` repairs malformed cards, boxes
  unclassifiable statements as :class:`~repro.fortran.ast.Opaque`
  markers and implicitly closes unterminated blocks, recording every
  action as a :class:`Diagnostic`;
* :func:`parallelize_source` runs the full paper pipeline (parse ->
  annotation inference -> Polaris -> OpenMP unparse) over the tolerant
  tree and returns annotated source plus per-loop decision records.

The strict :func:`repro.fortran.parser.parse_source` is the same parse
with a sink that raises on the first diagnostic.  See
``docs/frontend.md`` for the dialect table and recovery semantics.
"""

from repro.fortran.diagnostics import SEVERITIES, Diagnostic, DiagnosticSink
from repro.fortran.parser import parse_source_tolerant

from .pipeline import parallelize_source

__all__ = [
    "Diagnostic",
    "DiagnosticSink",
    "SEVERITIES",
    "parallelize_source",
    "parse_source_tolerant",
]

"""Fortran 77 frontend: fixed-form reader, lexer, parser, AST, unparser.

This subpackage is the substrate everything else stands on.  It handles the
Fortran 77 subset documented in DESIGN.md section 6, which covers all the
constructs exercised by the PERFECT-style benchmark programs as well as the
code produced by the inliners.

Public entry points:

* :func:`repro.fortran.parser.parse_source` — source text -> :class:`ast.SourceFile`,
  raising on the first diagnostic
* :func:`repro.fortran.parser.parse_source_tolerant` — the same parse,
  returning ``(SourceFile, [Diagnostic])`` instead of raising
* :func:`repro.fortran.unparser.unparse` — AST -> fixed-form source text
"""

from repro.fortran import ast  # noqa: F401
from repro.fortran.parser import parse_source  # noqa: F401
from repro.fortran.unparser import unparse  # noqa: F401

"""Structured diagnostics for the fixed-form frontend.

Every recovery action the reader/classifier/structurer takes is reported
to a :class:`DiagnosticSink` as one :class:`Diagnostic`: a *stable short
code* (the corpus expectation files match on it), a human message, the
card position (1-based line, 1-based column where known), the offending
source excerpt and a severity.

Strictness is the sink's policy.  :class:`DiagnosticSink` collects every
diagnostic (the tolerant parse); :class:`RaisingSink` raises on the
first diagnostic of any severity (the strict parse).

Severities:

* ``recovered`` — the construct was replaced by a conservative stand-in
  (usually an :class:`~repro.fortran.ast.Opaque` statement) and analysis
  continues soundly around it;
* ``skipped`` — the item could not be represented at all and was dropped
  (stray closers, statements outside any unit);
* ``note`` — the frontend repaired something silently repairable
  (implicit END, implicitly closed block).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.errors import LexError, ParseError, ReproError, SourceLocation

SEVERITIES = ("recovered", "skipped", "note")

#: card-level codes; a strict parse raises them as :class:`LexError`
LEX_CODES = frozenset({"orphan-continuation", "directive-in-continuation",
                       "bad-label", "unterminated-literal"})


@dataclass(frozen=True)
class Diagnostic:
    """One recovery action taken by the frontend."""

    code: str                  # stable short code, e.g. "parse-error"
    message: str
    file: str = "<string>"
    line: int = 0
    column: int = 0
    excerpt: str = ""
    severity: str = "recovered"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "Diagnostic":
        return Diagnostic(
            code=str(d.get("code", "")),
            message=str(d.get("message", "")),
            file=str(d.get("file", "<string>")),
            line=int(d.get("line", 0) or 0),
            column=int(d.get("column", 0) or 0),
            excerpt=str(d.get("excerpt", "")),
            severity=str(d.get("severity", "recovered")),
        )

    @staticmethod
    def from_error(err: ReproError, code: str,
                   severity: str = "recovered") -> "Diagnostic":
        """Build a diagnostic from an (enriched) frontend error."""
        loc = err.location or SourceLocation()
        return Diagnostic(
            code=code,
            message=err.bare_message,
            file=loc.filename,
            line=loc.line,
            column=loc.column,
            excerpt=err.excerpt or "",
            severity=severity,
        )

    def describe(self) -> str:
        where = f"{self.file}:{self.line}"
        if self.column:
            where += f":{self.column}"
        out = f"{where}: [{self.code}] {self.message}"
        if self.excerpt:
            out += f"\n    | {self.excerpt}"
        return out


class DiagnosticSink:
    """Accumulates diagnostics; shared by the reader, classifier and
    structurer so one parse yields one ordered list."""

    def __init__(self) -> None:
        self.items: List[Diagnostic] = []

    def add(self, diag: Diagnostic) -> None:
        self.items.append(diag)

    def emit(self, code: str, message: str,
             location: Optional[SourceLocation] = None,
             excerpt: str = "", severity: str = "recovered") -> None:
        loc = location or SourceLocation()
        self.add(Diagnostic(code=code, message=message, file=loc.filename,
                            line=loc.line, column=loc.column,
                            excerpt=excerpt, severity=severity))

    def error(self, err: ReproError, code: str,
              severity: str = "recovered") -> None:
        self.add(Diagnostic.from_error(err, code, severity))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class RaisingSink(DiagnosticSink):
    """The strict policy: raise on the first diagnostic of any severity.

    A diagnostic built from a caught error re-raises that error, which
    keeps its class, column and excerpt; any other diagnostic raises
    :class:`LexError` for a card-level code and :class:`ParseError`
    otherwise.
    """

    def add(self, diag: Diagnostic) -> None:
        cls = LexError if diag.code in LEX_CODES else ParseError
        raise cls(diag.message,
                  SourceLocation(diag.file, diag.line, diag.column),
                  excerpt=diag.excerpt or None)

    def error(self, err: ReproError, code: str,
              severity: str = "recovered") -> None:
        raise err

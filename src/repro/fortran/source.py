"""Fixed-form Fortran 77 source handling.

Fixed form rules implemented here:

* columns 1-5: statement label (digits);
* column 6: any non-blank, non-zero character marks a continuation line;
* columns 7-72: the statement field (columns beyond 72 are ignored);
* a ``C``, ``c`` or ``*`` in column 1 marks a comment line; ``!`` starts an
  inline comment in our (slightly extended) dialect;
* blank lines are ignored.

Two kinds of *structured comments* are preserved rather than discarded,
because downstream passes depend on them:

* OpenMP directives: lines whose comment body starts with ``$OMP``
  (i.e. ``C$OMP`` / ``!$OMP``), and
* inline tags produced by the annotation-based inliner: comment bodies
  starting with ``@INLINE`` (``C@INLINE BEGIN ...`` / ``C@INLINE END ...``).

The reader produces :class:`LogicalLine` objects: label, joined statement
text (continuations merged), attached directives, and the originating line
number (for diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import LexError, SourceLocation
from repro.fortran.diagnostics import DiagnosticSink, RaisingSink

#: maximum significant column of the statement field
STATEMENT_FIELD_END = 72


@dataclass
class Directive:
    """A structured comment that must survive parsing and unparsing.

    ``kind`` is ``"omp"`` for OpenMP directives and ``"tag"`` for inline
    annotation tags.  ``text`` is the body with the sentinel stripped, e.g.
    ``"PARALLEL DO"`` or ``"BEGIN MATMLT 3 PP(1,1,KS-1)|PHIT(1,1)|..."``.
    """

    kind: str
    text: str
    line: int = 0


@dataclass
class LogicalLine:
    """One logical Fortran statement after continuation merging."""

    label: Optional[int]
    text: str
    line: int  # first physical line number (1-based)
    filename: str = "<string>"
    #: directives encountered immediately before this statement
    leading: List[Directive] = field(default_factory=list)

    @property
    def location(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line)


def _classify_comment(body: str, line_no: int) -> Optional[Directive]:
    """Return a Directive if a comment body is structured, else None."""
    stripped = body.strip()
    upper = stripped.upper()
    if upper.startswith("$OMP"):
        return Directive("omp", stripped[4:].strip(), line_no)
    if upper.startswith("@INLINE"):
        return Directive("tag", stripped[7:].strip(), line_no)
    return None


def read_logical_lines(text: str, filename: str = "<string>",
                       sink: Optional[DiagnosticSink] = None
                       ) -> List[LogicalLine]:
    """Split fixed-form source text into logical lines.

    Continuation lines are appended to the statement field of the previous
    logical line.  Structured comments are attached to the *following*
    statement as ``leading`` directives (matching how OpenMP directives
    annotate the loop that follows them); structured comments at end of
    file are attached to a synthetic empty logical line so they are not
    lost.

    Malformed cards are reported to ``sink`` (default: a
    :class:`RaisingSink`, which raises :class:`LexError`) and repaired:

    * a continuation card with nothing to continue starts a fresh
      statement (``orphan-continuation``);
    * a directive between a statement and its continuation stays pending
      and attaches to the *next* statement (``directive-in-continuation``);
    * a non-numeric label field is dropped (``bad-label``).
    """
    sink = sink if sink is not None else RaisingSink()
    logical: List[LogicalLine] = []
    pending: List[Directive] = []
    current: Optional[LogicalLine] = None

    def flush() -> None:
        nonlocal current
        if current is not None:
            current.text = current.text.rstrip()
            logical.append(current)
            current = None

    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        first = line[0] if line else " "
        # full-line comments
        if first in ("C", "c", "*", "!"):
            directive = _classify_comment(line[1:], idx)
            if directive is not None:
                flush()
                pending.append(directive)
            continue
        # strip inline '!' comments (outside character literals)
        line = _strip_inline_comment(line)
        if not line.strip():
            continue
        if len(line) < 6:
            line = line.ljust(6)
        label_field = line[0:5].strip()
        cont_field = line[5]
        stmt_field = line[6:STATEMENT_FIELD_END]
        if cont_field not in (" ", "0"):
            if current is not None:
                if pending:
                    sink.emit("directive-in-continuation",
                              "directive between a statement and its "
                              "continuation; attaching it to the next "
                              "statement",
                              SourceLocation(filename, idx),
                              excerpt=raw.rstrip())
                current.text += stmt_field.rstrip()
                continue
            sink.emit("orphan-continuation",
                      "continuation line with no statement to continue; "
                      "treating it as a new statement",
                      SourceLocation(filename, idx, 6), excerpt=raw.rstrip())
            label_field = ""
        flush()
        label: Optional[int] = None
        if label_field.isdecimal():
            label = int(label_field)
        elif label_field:
            sink.emit("bad-label",
                      f"bad statement label {label_field!r}; ignoring the "
                      "label field",
                      SourceLocation(filename, idx, 1), excerpt=raw.rstrip())
        current = LogicalLine(
            label=label,
            text=stmt_field.rstrip(),
            line=idx,
            filename=filename,
            leading=pending,
        )
        pending = []
    flush()
    if pending:
        # trailing directives: attach to a synthetic end-marker line
        logical.append(
            LogicalLine(label=None, text="", line=pending[0].line,
                        filename=filename, leading=pending)
        )
    return logical


def _strip_inline_comment(line: str) -> str:
    """Remove a trailing ``! ...`` comment, respecting quoted strings."""
    in_quote: Optional[str] = None
    for i, ch in enumerate(line):
        if in_quote:
            if ch == in_quote:
                in_quote = None
        elif ch in ("'", '"'):
            in_quote = ch
        elif ch == "!" and i != 0:
            return line[:i]
    return line


def condense(stmt: str, location: Optional[SourceLocation] = None) -> str:
    """Remove blanks and upper-case a statement field, outside strings.

    Fixed-form Fortran treats blanks in the statement field as
    insignificant; the classic implementation strategy (used by PCF-era
    compilers, including Polaris) is to condense the statement before
    classification and tokenization.  Quoted character literals keep their
    spacing and case.
    """
    out: List[str] = []
    in_quote: Optional[str] = None
    for ch in stmt:
        if in_quote:
            out.append(ch)
            if ch == in_quote:
                in_quote = None
        elif ch in ("'", '"'):
            in_quote = ch
            out.append(ch)
        elif ch == " " or ch == "\t":
            continue
        else:
            out.append(ch.upper())
    if in_quote:
        raise LexError(f"unterminated character literal in {stmt!r}",
                       location)
    return "".join(out)


def condense_with_map(stmt: str) -> tuple:
    """Like :func:`condense`, but also map condensed indices back to the
    statement-field offsets they came from.

    Returns ``(condensed, indices, open_quote)`` where ``indices[i]`` is
    the 0-based offset into ``stmt`` of the character that produced
    ``condensed[i]``.  The fixed-form card column is ``7 + offset`` (the
    statement field starts at column 7), which is what diagnostics
    report.  An unterminated literal does not raise: ``open_quote`` is
    the condensed index of its opening quote (``-1`` when every literal
    is closed), and the tail is kept as literal text.
    """
    out: List[str] = []
    indices: List[int] = []
    in_quote: Optional[str] = None
    open_quote = -1
    for i, ch in enumerate(stmt):
        if in_quote:
            out.append(ch)
            indices.append(i)
            if ch == in_quote:
                in_quote = None
        elif ch in ("'", '"'):
            in_quote = ch
            open_quote = len(out)
            out.append(ch)
            indices.append(i)
        elif ch == " " or ch == "\t":
            continue
        else:
            out.append(ch.upper())
            indices.append(i)
    return "".join(out), indices, open_quote if in_quote else -1

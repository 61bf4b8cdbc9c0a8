"""Recursive-descent parser for the fixed-form Fortran 77 subset.

Parsing proceeds in three stages:

1. :func:`repro.fortran.source.read_logical_lines` merges continuations and
   extracts structured comments (OpenMP directives and inline tags);
2. each logical line is *classified* and parsed into a flat item — either a
   unit header, a complete simple statement, or a structural marker (DO
   header, IF header, ELSE, ENDIF, ENDDO, END, directive);
3. a structurer turns the flat item list into nested
   :class:`~repro.fortran.ast.Stmt` blocks, resolving classic
   label-terminated DO loops (including nests sharing one terminator, the
   ``DO 200 ... DO 200 ... 200 CONTINUE`` idiom from the paper's Figure 2),
   block IFs, OpenMP ``PARALLEL DO`` wrappers and inline-tag blocks.

There is one parse.  Every stage reports malformed input to a
:class:`~repro.fortran.diagnostics.DiagnosticSink` and repairs it: a bad
card is fixed up, a statement that fails to parse becomes an
:class:`~repro.fortran.ast.Opaque` marker, an unterminated block is
closed at the end of its enclosing block, and a stray closer or a
statement outside any unit is skipped.  Strictness is the sink's policy:
:func:`parse_source_tolerant` collects the diagnostics, and
:func:`parse_source` raises on the first one of any severity.

The expression grammar is standard Fortran 77 precedence; ``NAME(args)``
is parsed as :class:`~repro.fortran.ast.ArrayRef` and later reclassified by
the resolution pass in :mod:`repro.fortran.symbols`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import LexError, ParseError, ReproError, SourceLocation
from repro.fortran import ast
from repro.fortran.diagnostics import Diagnostic, DiagnosticSink, RaisingSink
from repro.fortran.lexer import tokenize
from repro.fortran.source import (Directive, LogicalLine, condense,
                                  condense_with_map, read_logical_lines)
from repro.fortran.tokens import DOT_OP_CANONICAL, Token, TokenType

# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------


class _ExprParser:
    """Precedence-climbing expression parser over a token list."""

    def __init__(self, tokens: Sequence[Token], location: SourceLocation):
        self.toks = list(tokens)
        self.i = 0
        self.location = location

    # -- token helpers ------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, ttype: TokenType, value: Optional[str] = None) -> Token:
        t = self.peek()
        if t.type is not ttype or (value is not None and t.value != value):
            raise ParseError(
                f"expected {value or ttype.name}, found {t.value!r}",
                self.location)
        return self.next()

    def at(self, ttype: TokenType, value: Optional[str] = None) -> bool:
        t = self.peek()
        return t.type is ttype and (value is None or t.value == value)

    def at_end(self) -> bool:
        return self.peek().type is TokenType.EOF

    # -- grammar ------------------------------------------------------
    def expression(self) -> ast.Expr:
        return self._equiv()

    def _equiv(self) -> ast.Expr:
        e = self._or()
        while self.at(TokenType.OP, ".EQV.") or self.at(TokenType.OP, ".NEQV."):
            op = self.next().value
            e = ast.BinOp(op, e, self._or())
        return e

    def _or(self) -> ast.Expr:
        e = self._and()
        while self.at(TokenType.OP, ".OR."):
            self.next()
            e = ast.BinOp(".OR.", e, self._and())
        return e

    def _and(self) -> ast.Expr:
        e = self._not()
        while self.at(TokenType.OP, ".AND."):
            self.next()
            e = ast.BinOp(".AND.", e, self._not())
        return e

    def _not(self) -> ast.Expr:
        if self.at(TokenType.OP, ".NOT."):
            self.next()
            return ast.UnOp(".NOT.", self._not())
        return self._relational()

    _REL_OPS = ("==", "/=", "<", "<=", ">", ">=",
                ".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.")

    def _relational(self) -> ast.Expr:
        e = self._concat()
        if self.peek().type is TokenType.OP and self.peek().value in self._REL_OPS:
            op = DOT_OP_CANONICAL.get(self.next().value) or op_canonical(
                self.toks[self.i - 1].value)
            e = ast.BinOp(op, e, self._concat())
        return e

    def _concat(self) -> ast.Expr:
        e = self._additive()
        while self.at(TokenType.OP, "//"):
            self.next()
            e = ast.BinOp("//", e, self._additive())
        return e

    def _additive(self) -> ast.Expr:
        if self.at(TokenType.OP, "-") or self.at(TokenType.OP, "+"):
            op = self.next().value
            operand = self._multiplicative_chain()
            e: ast.Expr = operand if op == "+" else ast.UnOp("-", operand)
        else:
            e = self._multiplicative_chain()
        while self.at(TokenType.OP, "+") or self.at(TokenType.OP, "-"):
            op = self.next().value
            e = ast.BinOp(op, e, self._multiplicative_chain())
        return e

    def _multiplicative_chain(self) -> ast.Expr:
        e = self._power()
        while self.at(TokenType.OP, "*") or self.at(TokenType.OP, "/"):
            op = self.next().value
            e = ast.BinOp(op, e, self._power())
        return e

    def _power(self) -> ast.Expr:
        base = self._primary()
        if self.at(TokenType.OP, "**"):
            self.next()
            # ** is right-associative; a signed exponent is permitted
            if self.at(TokenType.OP, "-"):
                self.next()
                return ast.BinOp("**", base, ast.UnOp("-", self._power()))
            return ast.BinOp("**", base, self._power())
        return base

    def _primary(self) -> ast.Expr:
        t = self.peek()
        if t.type is TokenType.INT:
            self.next()
            return ast.IntLit(int(t.value))
        if t.type is TokenType.REAL:
            self.next()
            kind = "DOUBLE" if ("D" in t.value or "Q" in t.value) else "REAL"
            value = float(t.value.replace("D", "E").replace("Q", "E"))
            return ast.RealLit(value, kind, t.value)
        if t.type is TokenType.STRING:
            self.next()
            return ast.StringLit(t.value)
        if t.type is TokenType.LOGICAL:
            self.next()
            return ast.LogicalLit(t.value == ".TRUE.")
        if t.type is TokenType.LPAREN:
            self.next()
            e = self.expression()
            self.expect(TokenType.RPAREN)
            return e
        if t.type is TokenType.NAME:
            self.next()
            if self.at(TokenType.LPAREN):
                self.next()
                args = self._subscript_list()
                self.expect(TokenType.RPAREN)
                return ast.ArrayRef(t.value, tuple(args))
            return ast.Var(t.value)
        raise ParseError(f"unexpected token {t.value!r} in expression",
                         self.location)

    def _subscript_list(self) -> List[ast.Expr]:
        """Parse a comma-separated subscript/argument list; each item may be
        a section triplet ``lo:hi[:step]`` (used by annotation-lowered
        code)."""
        items: List[ast.Expr] = []
        if self.at(TokenType.RPAREN):
            return items
        while True:
            items.append(self._subscript_item())
            if self.at(TokenType.COMMA):
                self.next()
                continue
            break
        return items

    def _subscript_item(self) -> ast.Expr:
        lo: Optional[ast.Expr] = None
        if not self.at(TokenType.COLON):
            if self.at(TokenType.OP, "*"):
                # assumed-size marker inside declarations
                self.next()
                return ast.RangeExpr(None, None)
            lo = self.expression()
            if not self.at(TokenType.COLON):
                return lo
        self.expect(TokenType.COLON)
        hi: Optional[ast.Expr] = None
        if not (self.at(TokenType.COMMA) or self.at(TokenType.RPAREN)
                or self.at(TokenType.COLON)):
            if self.at(TokenType.OP, "*"):
                self.next()
            else:
                hi = self.expression()
        step: Optional[ast.Expr] = None
        if self.at(TokenType.COLON):
            self.next()
            step = self.expression()
        return ast.RangeExpr(lo, hi, step)


def op_canonical(op: str) -> str:
    return DOT_OP_CANONICAL.get(op, op)


def parse_expression(text: str,
                     location: Optional[SourceLocation] = None) -> ast.Expr:
    """Parse a standalone expression from (possibly spaced) source text."""
    location = location or SourceLocation()
    p = _ExprParser(tokenize(condense(text, location), location), location)
    e = p.expression()
    if not p.at_end():
        raise ParseError(f"trailing tokens after expression in {text!r}",
                         location)
    return e


# ---------------------------------------------------------------------------
# Flat items
# ---------------------------------------------------------------------------

@dataclass
class _Flat:
    """One element of the flat statement stream fed to the structurer."""

    kind: str  # unit | stmt | decl | do | if | elseif | else | endif
    #            | enddo | end | omp | tag_begin | tag_end
    label: Optional[int] = None
    stmt: Optional[ast.Stmt] = None
    # do headers
    do_var: str = ""
    do_start: Optional[ast.Expr] = None
    do_stop: Optional[ast.Expr] = None
    do_step: Optional[ast.Expr] = None
    do_term: Optional[int] = None
    # if headers
    cond: Optional[ast.Expr] = None
    # directives
    text: str = ""
    location: SourceLocation = field(default_factory=SourceLocation)


_TYPE_KEYWORDS = {
    "INTEGER": "INTEGER", "REAL": "REAL", "DOUBLEPRECISION": "DOUBLE PRECISION",
    "LOGICAL": "LOGICAL", "CHARACTER": "CHARACTER",
}

_UNIT_HEADER_RE = re.compile(
    r"^(?:(INTEGER|REAL|DOUBLEPRECISION|LOGICAL))?"
    r"(PROGRAM|SUBROUTINE|FUNCTION)([A-Z][A-Z0-9_]*)(\(.*\))?$")

_ASSIGN_RE = re.compile(r"^[A-Z][A-Z0-9_$@]*")

#: length spec after a type keyword or entity: ``*n``, ``*(n)`` or ``*(*)``
#: (the parenthesized forms are CHARACTER-only; ``*(*)`` is the
#: assumed-length dummy, stored as char_len == -1)
_LENGTH_SPEC_RE = re.compile(r"^\*(?:(\d+)|\((\d+)\)|\((\*)\))")


class _StatementClassifier:
    """Parses one logical line into flat items.

    A statement that fails to parse is reported to the sink and boxed as
    an :class:`~repro.fortran.ast.Opaque` marker carrying the raw card
    text; analyses treat Opaque as "may read or write anything", so the
    recovery is conservative, never unsound.
    """

    def __init__(self, sink: DiagnosticSink):
        self.sink = sink

    def classify(self, line: LogicalLine) -> List[_Flat]:
        loc = line.location
        text, _, open_quote = condense_with_map(line.text)
        header = _UNIT_HEADER_RE.match(text) if text else None
        if header:
            # directives before a unit header are not meaningful; drop them
            params = header.group(4)[1:-1].split(",") if header.group(4) \
                else []
            unit = ast.ProgramUnit(header.group(2), header.group(3),
                                   [p for p in params if p], [], [],
                                   _TYPE_KEYWORDS.get(header.group(1) or "",
                                                      ""))
            return [_Flat("unit", stmt=unit, location=loc)]
        out: List[_Flat] = []
        for d in line.leading:
            try:
                out.extend(self._directive(d, loc))
            except ParseError as e:
                self.sink.error(e, "bad-directive", severity="skipped")
        if not text:
            return out
        try:
            if open_quote >= 0:
                err = LexError(f"unterminated character literal "
                               f"{text[open_quote:]!r}", loc)
                err.condensed_offset = open_quote  # type: ignore[attr-defined]
                raise err
            flat = self._statement(text, line.label, loc)
        except (LexError, ParseError) as e:
            code = ("unterminated-literal" if isinstance(e, LexError)
                    else "parse-error")
            self.sink.error(_locate(e, line), code)
            flat = _Flat("stmt", label=line.label, location=loc,
                         stmt=ast.Opaque(text=line.text.strip(), reason=code,
                                         label=line.label))
        if flat is not None:
            out.append(flat)
        return out

    # -- directives ---------------------------------------------------
    def _directive(self, d: Directive, loc: SourceLocation) -> List[_Flat]:
        if d.kind == "omp":
            return [_Flat("omp", text=d.text.upper(), location=loc)]
        body = d.text.strip()
        upper = body.upper()
        if upper.startswith("BEGIN"):
            return [_Flat("tag_begin", text=body[5:].strip(), location=loc)]
        if upper.startswith("END"):
            return [_Flat("tag_end", text=body[3:].strip(), location=loc)]
        raise ParseError(f"unknown inline tag {body!r}", loc, excerpt=d.text)

    # -- statements ---------------------------------------------------
    def _statement(self, text: str, label: Optional[int],
                   loc: SourceLocation) -> Optional[_Flat]:
        # DO header: DO [label[,]] var = e1, e2 [, e3]
        if text.startswith("DO") and _toplevel_comma(text) >= 0:
            m = re.match(r"^DO(\d*),?([A-Z][A-Z0-9_$]*)=", text)
            if m:
                return self._do_header(m, text, label, loc)
        # assignment: NAME [ (subs) ] = expr, with no top-level comma
        if self._looks_like_assignment(text):
            return _Flat("stmt", label=label, location=loc,
                         stmt=self._assignment(text, label, loc))
        return self._keyword_statement(text, label, loc)

    def _looks_like_assignment(self, text: str) -> bool:
        m = _ASSIGN_RE.match(text)
        if not m:
            return False
        i = m.end()
        if i < len(text) and text[i] == "(":
            depth = 0
            while i < len(text):
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        return i < len(text) and text[i] == "=" and _toplevel_comma(text) < 0

    def _assignment(self, text: str, label: Optional[int],
                    loc: SourceLocation) -> ast.Stmt:
        eq = _toplevel_eq(text)
        target = parse_expression(text[:eq], loc)
        if not isinstance(target, (ast.Var, ast.ArrayRef)):
            raise ParseError(f"bad assignment target in {text!r}", loc)
        value = parse_expression(text[eq + 1:], loc)
        return ast.Assign(target, value, label)

    def _do_header(self, m: "re.Match[str]", text: str,
                   label: Optional[int], loc: SourceLocation) -> _Flat:
        term = int(m.group(1)) if m.group(1) else None
        var = m.group(2)
        rest = text[m.end():]
        parts = _split_toplevel(rest, ",")
        if len(parts) not in (2, 3):
            raise ParseError(f"malformed DO statement {text!r}", loc)
        start = parse_expression(parts[0], loc)
        stop = parse_expression(parts[1], loc)
        step = parse_expression(parts[2], loc) if len(parts) == 3 else None
        return _Flat("do", label=label, do_var=var, do_start=start,
                     do_stop=stop, do_step=step, do_term=term, location=loc)

    def _keyword_statement(self, text: str, label: Optional[int],
                           loc: SourceLocation) -> Optional[_Flat]:
        def stmt(s: ast.Stmt) -> _Flat:
            return _Flat("stmt", label=label, stmt=s, location=loc)

        if text == "END":
            return _Flat("end", label=label, location=loc)
        if text == "ENDDO":
            return _Flat("enddo", label=label, location=loc)
        if text in ("ENDIF", "ELSE"):
            return _Flat("endif" if text == "ENDIF" else "else",
                         label=label, location=loc)
        if text.startswith("ELSEIF"):
            cond, rest = _balanced_paren(text[6:], loc)
            if rest != "THEN":
                raise ParseError(f"malformed ELSE IF {text!r}", loc)
            return _Flat("elseif", label=label,
                         cond=parse_expression(cond, loc), location=loc)
        if text.startswith("IF"):
            cond, rest = _balanced_paren(text[2:], loc)
            cond_expr = parse_expression(cond, loc)
            if rest == "THEN":
                return _Flat("if", label=label, cond=cond_expr, location=loc)
            inner = self._statement(rest, None, loc)
            if inner is None or inner.kind != "stmt":
                raise ParseError(
                    f"unsupported statement in logical IF: {text!r}", loc)
            return stmt(ast.IfBlock([(cond_expr, [inner.stmt])], label))
        if text.startswith("CALL"):
            rest = text[4:]
            m = re.match(r"^([A-Z][A-Z0-9_$]*)", rest)
            if not m:
                raise ParseError(f"malformed CALL {text!r}", loc)
            name = m.group(1)
            args: Tuple[ast.Expr, ...] = ()
            tail = rest[m.end():]
            if tail:
                inner, after = _balanced_paren(tail, loc)
                if after:
                    raise ParseError(f"trailing text after CALL {text!r}", loc)
                if inner:
                    args = tuple(self._call_arg(p, loc)
                                 for p in _split_toplevel(inner, ","))
            return stmt(ast.CallStmt(name, args, label))
        if text.startswith("GOTO"):
            return stmt(self._goto(text[4:], label, loc))
        m = re.match(r"^ASSIGN(\d+)TO([A-Z][A-Z0-9_$]*)$", text)
        if m:
            return stmt(ast.LabelAssign(int(m.group(1)), m.group(2), label))
        if text.startswith("ENTRY"):
            m = re.match(r"^ENTRY([A-Z][A-Z0-9_$]*)(\(.*\))?$", text)
            if not m:
                raise ParseError(f"malformed ENTRY {text!r}", loc)
            params: Tuple[str, ...] = ()
            if m.group(2):
                params = tuple(p for p in m.group(2)[1:-1].split(",") if p)
            return stmt(ast.EntryStmt(m.group(1), params, label))
        if text == "CONTINUE":
            return stmt(ast.Continue(label))
        if text.startswith("RETURN"):
            rest = text[6:]
            alt = parse_expression(rest, loc) if rest else None
            return stmt(ast.Return(label, alt))
        if text.startswith("STOP"):
            rest = text[4:]
            msg = None
            if rest:
                toks = tokenize(rest, loc)
                if toks[0].type is TokenType.STRING:
                    msg = toks[0].value
                else:
                    msg = rest
            return stmt(ast.Stop(msg, label))
        if text.startswith("WRITE") or text.startswith("READ"):
            kind = "WRITE" if text.startswith("WRITE") else "READ"
            control, rest = _balanced_paren(text[len(kind):], loc)
            items = tuple(parse_expression(p, loc)
                          for p in _split_toplevel(rest, ",") if p)
            return stmt(ast.IoStmt(kind, control, items, label))
        if text.startswith("PRINT"):
            parts = _split_toplevel(text[5:], ",")
            control = parts[0]
            items = tuple(parse_expression(p, loc) for p in parts[1:])
            return stmt(ast.IoStmt("PRINT", control, items, label))
        if text.startswith("FORMAT"):
            return None  # formats carry no dependence information
        decl = self._declaration(text, loc)
        if decl is not None:
            f = _Flat("stmt", label=label, location=loc)
            f.kind = "decl"
            f.stmt = decl  # type: ignore[assignment]
            return f
        raise ParseError(f"unrecognized statement {text!r}", loc)

    def _goto(self, rest: str, label: Optional[int],
              loc: SourceLocation) -> ast.Stmt:
        """Dispatch the three GOTO forms from condensed text after 'GOTO'."""
        if rest.isdigit():
            return ast.Goto(int(rest), label)
        if rest.startswith("("):
            inner, after = _balanced_paren(rest, loc)
            targets = self._label_list(inner, loc)
            if not targets or not after:
                raise ParseError(f"malformed computed GOTO {'GOTO' + rest!r}",
                                 loc)
            if after.startswith(","):
                after = after[1:]
            return ast.ComputedGoto(targets, parse_expression(after, loc),
                                    label)
        m = re.match(r"^([A-Z][A-Z0-9_$]*)", rest)
        if not m:
            raise ParseError(f"malformed GOTO {'GOTO' + rest!r}", loc)
        var = m.group(1)
        after = rest[m.end():]
        targets: Tuple[int, ...] = ()
        if after:
            if after.startswith(","):
                after = after[1:]
            inner, trailing = _balanced_paren(after, loc)
            if trailing:
                raise ParseError(
                    f"trailing text after assigned GOTO {'GOTO' + rest!r}",
                    loc)
            targets = self._label_list(inner, loc)
        return ast.AssignedGoto(var, targets, label)

    def _label_list(self, inner: str,
                    loc: SourceLocation) -> Tuple[int, ...]:
        try:
            return tuple(int(p) for p in _split_toplevel(inner, ",") if p)
        except ValueError:
            raise ParseError(f"non-label entry in GOTO label list "
                             f"({inner})", loc) from None

    def _call_arg(self, text: str, loc: SourceLocation) -> ast.Expr:
        m = re.match(r"^\*(\d+)$", text)
        if m:
            return ast.AltReturn(int(m.group(1)))
        return parse_expression(text, loc)

    # -- declarations ---------------------------------------------------
    def _declaration(self, text: str,
                     loc: SourceLocation) -> Optional[ast.Decl]:
        if text.startswith("IMPLICIT"):
            return ast.ImplicitDecl(text[8:])
        if text.startswith("DIMENSION"):
            return ast.DimensionDecl(self._entity_list(text[9:], loc))
        if text.startswith("COMMON"):
            rest = text[6:]
            block = ""
            if rest.startswith("/"):
                j = rest.find("/", 1)
                if j < 0:
                    raise ParseError(f"unterminated COMMON block name in "
                                     f"{text!r}", loc)
                block = rest[1:j]
                rest = rest[j + 1:]
            return ast.CommonDecl(block, self._entity_list(rest, loc))
        if text.startswith("PARAMETER"):
            inner, after = _balanced_paren(text[9:], loc)
            if after:
                raise ParseError(f"malformed PARAMETER {text!r}", loc)
            pairs: List[Tuple[str, ast.Expr]] = []
            for item in _split_toplevel(inner, ","):
                eq = _toplevel_eq(item)
                pairs.append((item[:eq], parse_expression(item[eq + 1:], loc)))
            return ast.ParameterDecl(pairs)
        if text.startswith("SAVE"):
            rest = text[4:]
            return ast.SaveDecl(_split_toplevel(rest, ",") if rest else [])
        if text.startswith("EXTERNAL"):
            return ast.ExternalDecl(_split_toplevel(text[8:], ","))
        if text.startswith("INTRINSIC"):
            return ast.IntrinsicDecl(_split_toplevel(text[9:], ","))
        if text.startswith("EQUIVALENCE"):
            return self._equivalence(text[11:], loc)
        if text.startswith("DATA"):
            return self._data(text, loc)
        for kw, typename in _TYPE_KEYWORDS.items():
            if text.startswith(kw):
                rest = text[len(kw):]
                char_len = None
                if rest.startswith("*"):
                    m = _LENGTH_SPEC_RE.match(rest)
                    if not m:
                        raise ParseError(f"malformed length in {text!r}", loc)
                    length = -1 if m.group(3) else int(m.group(1)
                                                      or m.group(2))
                    rest = rest[m.end():]
                    if kw == "CHARACTER":
                        char_len = length
                    elif kw == "REAL" and length == 8:
                        typename = "DOUBLE PRECISION"
                    elif kw == "INTEGER":
                        pass  # INTEGER*4/INTEGER*8 both map to INTEGER
                if not rest:
                    return None
                return ast.TypeDecl(typename, self._entity_list(rest, loc),
                                    char_len)
        return None

    def _equivalence(self, rest: str,
                     loc: SourceLocation) -> ast.EquivalenceDecl:
        groups: List[Tuple[ast.Expr, ...]] = []
        while rest:
            if rest.startswith(","):
                rest = rest[1:]
            inner, rest = _balanced_paren(rest, loc)
            refs = tuple(parse_expression(p, loc)
                         for p in _split_toplevel(inner, ",") if p)
            if len(refs) < 2 or not all(
                    isinstance(r, (ast.Var, ast.ArrayRef)) for r in refs):
                raise ParseError(
                    f"EQUIVALENCE group needs two or more variable "
                    f"references ({inner})", loc)
            groups.append(refs)
        if not groups:
            raise ParseError("empty EQUIVALENCE statement", loc)
        return ast.EquivalenceDecl(groups)

    def _entity_list(self, text: str, loc: SourceLocation) -> List[ast.Entity]:
        entities: List[ast.Entity] = []
        for item in _split_toplevel(text, ","):
            if not item:
                continue
            m = re.match(r"^([A-Z][A-Z0-9_$@]*)", item)
            if not m:
                raise ParseError(f"bad declaration entity {item!r}", loc)
            name = m.group(1)
            rest = item[m.end():]
            dims: Optional[Tuple[ast.Dim, ...]] = None
            char_len = None
            if rest.startswith("*"):
                m2 = _LENGTH_SPEC_RE.match(rest)
                if not m2:
                    raise ParseError(f"bad length spec {item!r}", loc)
                char_len = -1 if m2.group(3) else int(m2.group(1)
                                                     or m2.group(2))
                rest = rest[m2.end():]
            if rest.startswith("("):
                inner, after = _balanced_paren(rest, loc)
                if after:
                    raise ParseError(f"bad declaration entity {item!r}", loc)
                dims = tuple(self._dimension(d, loc)
                             for d in _split_toplevel(inner, ","))
            elif rest:
                raise ParseError(f"bad declaration entity {item!r}", loc)
            entities.append(ast.Entity(name, dims, char_len))
        return entities

    def _dimension(self, text: str, loc: SourceLocation) -> ast.Dim:
        parts = _split_toplevel(text, ":")
        if len(parts) == 1:
            if parts[0] == "*":
                return ast.Dim(ast.IntLit(1), None)
            return ast.Dim(ast.IntLit(1), parse_expression(parts[0], loc))
        if len(parts) == 2:
            lower = parse_expression(parts[0], loc)
            if parts[1] == "*":
                return ast.Dim(lower, None)
            return ast.Dim(lower, parse_expression(parts[1], loc))
        raise ParseError(f"bad dimension spec {text!r}", loc)

    def _data(self, text: str, loc: SourceLocation) -> ast.DataDecl:
        """Parse a condensed DATA statement (``text`` includes the DATA
        keyword, so reported offsets are absolute within the statement
        field — the classifier maps them back to card columns)."""
        targets: List[ast.Expr] = []
        values: List[ast.Expr] = []
        i = 4
        n = len(text)
        while i < n:
            j = _find_toplevel(text, "/", i)
            if j < 0:
                raise self._data_error(
                    f"malformed DATA statement {text!r}: missing '/' value "
                    f"list", loc, i)
            for t in _split_toplevel(text[i:j].strip(","), ","):
                if t:
                    targets.extend(self._expand_data_target(t, loc, {}, i))
            k = text.find("/", j + 1)
            if k < 0:
                raise self._data_error(
                    f"malformed DATA statement {text!r}: unterminated value "
                    f"list", loc, j)
            for v in _split_toplevel(text[j + 1:k], ","):
                m = re.match(r"^(\d+)\*(.+)$", v)
                if m:
                    rep = int(m.group(1))
                    val = parse_expression(m.group(2), loc)
                    values.extend([ast.clone(val) for _ in range(rep)])
                else:
                    values.append(parse_expression(v, loc))
            i = k + 1
            if i < n and text[i] == ",":
                i += 1
        # no target/value count check: a whole-array target (DATA A/10*0./)
        # legitimately consumes many values; the interpreter pairs them up
        return ast.DataDecl(targets, values)

    @staticmethod
    def _data_error(message: str, loc: SourceLocation,
                    offset: int) -> ParseError:
        err = ParseError(message, loc)
        # condensed offset of the failing region; the classifier converts
        # it to a card column for the structured diagnostic
        err.condensed_offset = offset  # type: ignore[attr-defined]
        return err

    def _expand_data_target(self, t: str, loc: SourceLocation,
                            env: dict, offset: int) -> List[ast.Expr]:
        """Expand one DATA target item; implied-DO loops over constant
        bounds become explicit element references."""
        if t.startswith("("):
            inner, after = _balanced_paren(t, loc)
            if not after:
                parts = _split_toplevel(inner, ",")
                ci = None
                m = None
                for idx, part in enumerate(parts):
                    m = re.match(r"^([A-Z][A-Z0-9_$]*)=", part)
                    if m and _find_toplevel(part, "=") >= 0:
                        ci = idx
                        break
                if ci is None or ci == 0:
                    raise self._data_error(
                        f"malformed implied-DO in DATA ({inner})", loc,
                        offset)
                ctrl = parts[ci:]
                if len(ctrl) not in (2, 3):
                    raise self._data_error(
                        f"implied-DO in DATA needs 2 or 3 control "
                        f"expressions ({inner})", loc, offset)
                var = m.group(1)
                start = self._const_int(ctrl[0][m.end():], loc, env, offset)
                stop = self._const_int(ctrl[1], loc, env, offset)
                step = (self._const_int(ctrl[2], loc, env, offset)
                        if len(ctrl) == 3 else 1)
                if step == 0:
                    raise self._data_error(
                        "implied-DO in DATA has step 0", loc, offset)
                out: List[ast.Expr] = []
                iv = start
                while (iv <= stop) if step > 0 else (iv >= stop):
                    env2 = dict(env)
                    env2[var] = iv
                    for item in parts[:ci]:
                        out.extend(self._expand_data_target(item, loc, env2,
                                                            offset))
                    iv += step
                return out
        e = parse_expression(t, loc)
        if env:
            e = _subst_const(e, env)
        return [e]

    def _const_int(self, text: str, loc: SourceLocation, env: dict,
                   offset: int) -> int:
        try:
            e = _subst_const(parse_expression(text, loc), env)
        except ParseError:
            e = None
        if not isinstance(e, ast.IntLit):
            raise self._data_error(
                f"implied-DO bound {text!r} in DATA is not a constant", loc,
                offset)
        return e.value


def _locate(e: ReproError, line: LogicalLine) -> ReproError:
    """Attach the offending source excerpt and a card column to a
    classification error (service responses render ``payload()``, which
    would otherwise lose the source line entirely)."""
    if e.excerpt is not None:
        return e
    _, cmap, _ = condense_with_map(line.text)
    offset = getattr(e, "condensed_offset", 0)
    column = 7 + cmap[min(max(offset, 0), len(cmap) - 1)] if cmap else 7
    loc = e.location or line.location
    return type(e)(e.bare_message,
                   SourceLocation(loc.filename, loc.line, column),
                   excerpt=line.text.rstrip())


def _subst_const(e: ast.Expr, env: dict) -> ast.Expr:
    """Substitute implied-DO variables with their integer values and fold
    the resulting constant integer arithmetic."""

    def fn(x: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(x, ast.Var) and x.name in env:
            return ast.IntLit(env[x.name])
        if isinstance(x, ast.UnOp) and x.op == "-" \
                and isinstance(x.operand, ast.IntLit):
            return ast.IntLit(-x.operand.value)
        if isinstance(x, ast.BinOp) and isinstance(x.left, ast.IntLit) \
                and isinstance(x.right, ast.IntLit):
            lv, rv = x.left.value, x.right.value
            if x.op == "+":
                return ast.IntLit(lv + rv)
            if x.op == "-":
                return ast.IntLit(lv - rv)
            if x.op == "*":
                return ast.IntLit(lv * rv)
            if x.op == "/" and rv != 0:
                # Fortran integer division truncates toward zero
                return ast.IntLit(int(lv / rv))
        return None

    return ast.map_expr(e, fn)


# ---------------------------------------------------------------------------
# top-level-character scanning helpers (operate on condensed text)
# ---------------------------------------------------------------------------

def _find_toplevel(text: str, ch: str, start: int = 0) -> int:
    depth = 0
    in_quote: Optional[str] = None
    for i in range(start, len(text)):
        c = text[i]
        if in_quote:
            if c == in_quote:
                in_quote = None
        elif c in ("'", '"'):
            in_quote = c
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and c == ch:
            return i
    return -1


def _toplevel_comma(text: str) -> int:
    return _find_toplevel(text, ",")


def _toplevel_eq(text: str) -> int:
    eq = _find_toplevel(text, "=")
    if eq < 0:
        raise ParseError(f"expected '=' in {text!r}")
    return eq


def _split_toplevel(text: str, sep: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    in_quote: Optional[str] = None
    cur: List[str] = []
    for c in text:
        if in_quote:
            cur.append(c)
            if c == in_quote:
                in_quote = None
        elif c in ("'", '"'):
            in_quote = c
            cur.append(c)
        elif c == "(":
            depth += 1
            cur.append(c)
        elif c == ")":
            depth -= 1
            cur.append(c)
        elif depth == 0 and c == sep:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def _balanced_paren(text: str, loc: SourceLocation) -> Tuple[str, str]:
    """``text`` must start with '('; return (inner, rest-after-close)."""
    if not text.startswith("("):
        raise ParseError(f"expected '(' in {text!r}", loc)
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1:]
    raise ParseError(f"unbalanced parentheses in {text!r}", loc)


# ---------------------------------------------------------------------------
# Structurer
# ---------------------------------------------------------------------------

class _Structurer:
    """Builds nested statement blocks from the flat item stream.

    A missing terminator closes its block at the end of the *enclosing*
    region (which is how most real compilers recover) and an unexpected
    closer is dropped; both are reported to the sink.
    """

    def __init__(self, items: List[_Flat], sink: DiagnosticSink):
        self.items = items
        self.sink = sink

    def build(self, lo: int, hi: int) -> List[ast.Stmt]:
        out: List[ast.Stmt] = []
        i = lo
        while i < hi:
            stmt, i = self._one(i, hi)
            if stmt is not None:
                out.append(stmt)
        return out

    def _one(self, i: int, hi: int) -> Tuple[Optional[ast.Stmt], int]:
        it = self.items[i]
        if it.kind == "stmt":
            return it.stmt, i + 1
        if it.kind == "do":
            return self._do(i, hi)
        if it.kind == "if":
            return self._if(i, hi)
        if it.kind == "omp":
            return self._omp(i, hi)
        if it.kind == "tag_begin":
            return self._tagged(i, hi)
        what = (f"unmatched inline END tag {it.text!r}"
                if it.kind == "tag_end" else f"unexpected {it.kind.upper()}")
        self.sink.emit("stray-closer", f"{what}; skipping it", it.location,
                       severity="skipped")
        return None, i + 1

    def _do(self, i: int, hi: int) -> Tuple[ast.Stmt, int]:
        it = self.items[i]
        term = it.do_term
        if term is not None:
            j = self._find_label(i + 1, hi, term)
            # the terminator is part of the body
            body_end = nxt = None if j is None else j + 1
        else:
            j = body_end = self._match_enddo(i + 1, hi)
            nxt = None if j is None else j + 1
        if j is None:
            code, what = (("missing-do-label",
                           f"DO terminator label {term} not found")
                          if term is not None
                          else ("missing-enddo", "missing ENDDO"))
            self.sink.emit(code, f"{what}; closing the loop at the end of "
                           "the enclosing block", it.location,
                           severity="note")
            term, body_end, nxt = None, hi, hi
        body = self.build(i + 1, body_end)
        return ast.DoLoop(it.do_var, it.do_start, it.do_stop, it.do_step,
                          body, it.label, term), nxt

    def _find_label(self, lo: int, hi: int, label: int) -> Optional[int]:
        for j in range(lo, hi):
            if self.items[j].label == label and self.items[j].kind == "stmt":
                return j
        return None

    def _match_enddo(self, lo: int, hi: int) -> Optional[int]:
        depth = 0
        for j in range(lo, hi):
            it = self.items[j]
            if it.kind == "do" and it.do_term is None:
                depth += 1
            elif it.kind == "enddo":
                if depth == 0:
                    return j
                depth -= 1
        return None

    def _if(self, i: int, hi: int) -> Tuple[ast.Stmt, int]:
        header = self.items[i]
        arms: List[Tuple[Optional[ast.Expr], List[ast.Stmt]]] = []
        cond: Optional[ast.Expr] = header.cond
        arm_start = i + 1
        depth = 0
        j = i + 1
        while j < hi:
            it = self.items[j]
            if it.kind == "if":
                depth += 1
            elif it.kind == "endif":
                if depth == 0:
                    arms.append((cond, self.build(arm_start, j)))
                    return ast.IfBlock(arms, header.label), j + 1
                depth -= 1
            elif depth == 0 and it.kind == "elseif":
                arms.append((cond, self.build(arm_start, j)))
                cond = it.cond
                arm_start = j + 1
            elif depth == 0 and it.kind == "else":
                arms.append((cond, self.build(arm_start, j)))
                cond = None
                arm_start = j + 1
            j += 1
        self.sink.emit("missing-endif", "missing ENDIF; closing the IF block "
                       "at the end of the enclosing block", header.location,
                       severity="note")
        arms.append((cond, self.build(arm_start, hi)))
        return ast.IfBlock(arms, header.label), hi

    def _omp(self, i: int, hi: int) -> Tuple[Optional[ast.Stmt], int]:
        it = self.items[i]
        text = it.text.replace(" ", "")
        if text.startswith("ENDPARALLELDO") or text.startswith("ENDDO") \
                or text.startswith("ENDPARALLEL"):
            return None, i + 1
        if not (text.startswith("PARALLELDO") or text.startswith("DO")
                or text.startswith("PARALLEL")):
            self.sink.emit("bad-omp", f"unsupported OpenMP directive "
                           f"{it.text!r}; dropping it", it.location,
                           severity="skipped")
            return None, i + 1
        private, reductions, schedule = _parse_omp_clauses(it.text)
        # the directive governs the next DO loop in the stream; intervening
        # companion directives (e.g. separate PARALLEL then DO) are merged
        j = i + 1
        while j < hi and self.items[j].kind == "omp":
            p2, r2, s2 = _parse_omp_clauses(self.items[j].text)
            private += p2
            reductions += r2
            schedule = schedule or s2
            j += 1
        if j >= hi or self.items[j].kind != "do":
            self.sink.emit("omp-no-loop", "OpenMP PARALLEL DO directive not "
                           "followed by a DO loop; dropping the directive",
                           it.location, severity="skipped")
            return None, j
        loop_stmt, nxt = self._do(j, hi)
        assert isinstance(loop_stmt, ast.DoLoop)
        return ast.OmpParallelDo(loop_stmt, tuple(private),
                                 tuple(reductions), schedule), nxt

    def _tagged(self, i: int, hi: int) -> Tuple[Optional[ast.Stmt], int]:
        it = self.items[i]
        try:
            callee, site_id, actuals = _parse_tag_begin(it.text, it.location)
        except ReproError as e:
            self.sink.error(e, "bad-tag", severity="skipped")
            return None, i + 1
        depth = 0
        for j in range(i + 1, hi):
            item = self.items[j]
            if item.kind == "tag_begin":
                depth += 1
            elif item.kind == "tag_end":
                if depth == 0:
                    self._check_end_tag(item, site_id)
                    body = self.build(i + 1, j)
                    return ast.TaggedBlock(callee, site_id, actuals, body,
                                           it.label), j + 1
                depth -= 1
        self.sink.emit("missing-end-tag", f"missing inline END tag for site "
                       f"{site_id}; closing it at the end of the enclosing "
                       "block", it.location, severity="note")
        body = self.build(i + 1, hi)
        return ast.TaggedBlock(callee, site_id, actuals, body,
                               it.label), hi

    def _check_end_tag(self, item: _Flat, site_id: int) -> None:
        """Report an END tag that does not name ``site_id``; it is still
        accepted as the closure."""
        words = item.text.split()
        if not words or not words[0].isdecimal():
            self.sink.emit("bad-tag", f"malformed inline END tag "
                           f"{item.text!r}; accepting it as the END of site "
                           f"{site_id}", item.location, excerpt=item.text,
                           severity="note")
        elif int(words[0]) != site_id:
            self.sink.emit("tag-mismatch", f"inline tag mismatch: BEGIN "
                           f"{site_id} closed by END {words[0]}; accepting "
                           "the closure", item.location, severity="note")


def _parse_omp_clauses(text: str):
    private: List[str] = []
    reductions: List[Tuple[str, str]] = []
    schedule: Optional[str] = None
    upper, _, _ = condense_with_map(text)
    for m in re.finditer(r"PRIVATE\(([^)]*)\)", upper):
        private.extend(x for x in m.group(1).split(",") if x)
    for m in re.finditer(r"REDUCTION\(([^:]+):([^)]*)\)", upper):
        op = m.group(1)
        for v in m.group(2).split(","):
            if v:
                reductions.append((op, v))
    m = re.search(r"SCHEDULE\(([^)]*)\)", upper)
    if m:
        schedule = m.group(1)
    return private, reductions, schedule


def _parse_tag_begin(text: str, loc: SourceLocation):
    """Parse ``<callee> <site_id> [actual|actual|...]``."""
    parts = text.split(None, 2)
    if len(parts) < 2 or not parts[1].isdecimal():
        raise ParseError(f"malformed inline BEGIN tag {text!r}", loc,
                         excerpt=text)
    callee = parts[0].upper()
    site_id = int(parts[1])
    actuals: Tuple[ast.Expr, ...] = ()
    if len(parts) == 3 and parts[2].strip():
        actuals = tuple(parse_expression(a, loc)
                        for a in parts[2].split("|") if a.strip())
    return callee, site_id, actuals


# ---------------------------------------------------------------------------
# Program-unit assembly
# ---------------------------------------------------------------------------

def _parse(text: str, filename: str,
           sink: DiagnosticSink) -> ast.SourceFile:
    """Parse fixed-form source, reporting every malformed construct to
    ``sink``.  Unless the sink raises, the tree is structurally valid."""
    classifier = _StatementClassifier(sink)
    units: List[ast.ProgramUnit] = []
    unit: Optional[ast.ProgramUnit] = None
    unit_loc = SourceLocation(filename, 0)
    items: List[_Flat] = []

    def finish_unit() -> None:
        nonlocal unit, items
        if unit is not None:
            body = [it for it in items if it.kind != "decl"]
            unit.decls = [it.stmt for it in items if it.kind == "decl"]
            unit.body = _Structurer(body, sink).build(0, len(body))
            units.append(unit)
        unit, items = None, []

    for line in read_logical_lines(text, filename, sink):
        for f in classifier.classify(line):
            if f.kind == "unit":
                finish_unit()
                unit, unit_loc = f.stmt, f.location
            elif f.kind == "end":
                finish_unit()
            elif unit is not None:
                items.append(f)
            elif f.kind not in ("omp", "tag_begin", "tag_end"):
                # (stray directives outside any unit are dropped silently)
                sink.emit("stray-statement", "statement outside any program "
                          "unit; skipping it", f.location,
                          excerpt=line.text.rstrip(), severity="skipped")
    if unit is not None:
        sink.emit("missing-end", "missing END for final program unit; "
                  "adding an implicit one", unit_loc, severity="note")
        finish_unit()
    return ast.SourceFile(units, filename)


def parse_source(text: str, filename: str = "<string>") -> ast.SourceFile:
    """Parse fixed-form source text into a :class:`~repro.fortran.ast.SourceFile`.

    Strict: raises :class:`~repro.errors.LexError` or
    :class:`~repro.errors.ParseError` on the first diagnostic of any
    severity.
    """
    return _parse(text, filename, RaisingSink())


def parse_source_tolerant(text: str, filename: str = "<string>"
                          ) -> Tuple[ast.SourceFile, List[Diagnostic]]:
    """Parse fixed-form source text, recovering from every malformed
    construct.  Returns ``(SourceFile, [Diagnostic])`` and never raises
    for malformed input.

    Statements that could not be understood appear as
    :class:`~repro.fortran.ast.Opaque` markers, which the analyses treat
    as "may touch anything".
    """
    sink = DiagnosticSink()
    return _parse(text, filename, sink), sink.items

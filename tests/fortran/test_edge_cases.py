"""Edge-case and error-path tests for the frontend."""

import pytest

from repro.errors import LexError, ParseError, SemanticError
from repro.fortran import ast
from repro.fortran.parser import parse_expression, parse_source
from repro.fortran.symbols import (build_symbol_table, expr_type,
                                   implicit_type, resolve_calls)
from repro.fortran.unparser import expr_to_str, unparse


class TestParserErrorPaths:
    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_source("      SUBROUTINE S\n      IF (A.GT.(B THEN\n"
                         "      END\n")

    def test_mercury_bug_semantics(self):
        # "DO 10 I = 1" (no comma) is legally an assignment to the
        # variable DO10I — the famous fixed-form trap.  The frontend must
        # honour it, not reject it.
        unit = parse_source("      SUBROUTINE S\n      DO 10 I = 1\n"
                            "   10 CONTINUE\n      END\n").units[0]
        assign = unit.body[0]
        assert isinstance(assign, ast.Assign)
        assert assign.target == ast.Var("DO10I")

    def test_else_without_if(self):
        with pytest.raises(ParseError):
            parse_source("      SUBROUTINE S\n      ELSE\n      END\n")

    def test_enddo_without_do(self):
        with pytest.raises(ParseError):
            parse_source("      SUBROUTINE S\n      END DO\n      END\n")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_source("      SUBROUTINE S\n      FROBNICATE X\n"
                         "      END\n")

    def test_missing_final_end(self):
        with pytest.raises(ParseError):
            parse_source("      SUBROUTINE S\n      X = 1\n")

    def test_bad_parameter(self):
        with pytest.raises(ParseError):
            parse_source("      SUBROUTINE S\n      PARAMETER (N=1) X\n"
                         "      END\n")

    def test_call_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_source("      SUBROUTINE S\n      CALL F(1)X\n"
                         "      END\n")

    def test_unterminated_common_block_name(self):
        with pytest.raises(ParseError) as info:
            parse_source("      SUBROUTINE S\n      COMMON /WRK\n"
                         "      END\n")
        assert info.value.location.line == 2


class TestParserCornerCases:
    def test_empty_units(self):
        f = parse_source("      SUBROUTINE S\n      END\n"
                         "      PROGRAM P\n      END\n")
        assert [u.name for u in f.units] == ["S", "P"]
        assert f.units[0].body == []

    def test_labelled_assignment_as_do_terminator(self):
        body = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(10)\n"
            "      DO 10 I = 1, 10\n"
            "   10 A(I) = 0.0\n"
            "      END\n").units[0].body
        loop = body[0]
        assert isinstance(loop.body[-1], ast.Assign)
        assert loop.body[-1].label == 10

    def test_deeply_nested_ifs(self):
        depth = 12
        src = "      SUBROUTINE S\n"
        for k in range(depth):
            src += f"      IF (X.GT.{k}.0) THEN\n"
        src += "      X = 0.0\n"
        for _ in range(depth):
            src += "      END IF\n"
        src += "      END\n"
        unit = parse_source(src).units[0]
        node = unit.body[0]
        for _ in range(depth - 1):
            assert isinstance(node, ast.IfBlock)
            node = node.arms[0][1][0]

    def test_triple_shared_terminator(self):
        body = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(8,8,8)\n"
            "      DO 10 I = 1, 8\n"
            "      DO 10 J = 1, 8\n"
            "      DO 10 K = 1, 8\n"
            "   10 A(I,J,K) = 0.0\n"
            "      END\n").units[0].body
        li = body[0]
        lj = li.body[-1]
        lk = lj.body[-1]
        assert (li.var, lj.var, lk.var) == ("I", "J", "K")
        assert isinstance(lk.body[-1], ast.Assign)

    def test_negative_literals_in_data(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(2)\n"
            "      DATA A /-1.5, -2/\n"
            "      END\n").units[0]
        d = unit.find_decls(ast.DataDecl)[0]
        assert d.values[0] == ast.UnOp("-", ast.RealLit(1.5))

    def test_lower_bound_declarations(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(-5:5, 0:9)\n"
            "      END\n").units[0]
        dims = unit.find_decls(ast.DimensionDecl)[0].entities[0].dims
        assert dims[0].lower == ast.UnOp("-", ast.IntLit(5))
        assert dims[1].lower == ast.IntLit(0)

    def test_blank_insensitivity(self):
        a = parse_source("      SUBROUTINE S\n      DO10I=1,5\n"
                         "   10 CONTINUE\n      END\n")
        b = parse_source("      SUBROUTINE S\n      DO 10 I = 1, 5\n"
                         "   10 CONTINUE\n      END\n")
        assert a.units == b.units


class TestSymbols:
    def test_implicit_typing_rule(self):
        for ch in "IJKLMN":
            assert implicit_type(ch + "X") == "INTEGER"
        for ch in "ABCHOZ":
            assert implicit_type(ch + "X") == "REAL"

    def test_implicit_none_enforced(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      IMPLICIT NONE\n"
            "      END\n").units[0]
        table = build_symbol_table(unit)
        with pytest.raises(SemanticError):
            table.info("UNDECLARED")

    def test_expr_type_promotion(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DOUBLE PRECISION D\n"
            "      INTEGER I\n"
            "      END\n").units[0]
        table = build_symbol_table(unit)
        assert expr_type(parse_expression("I + 1"), table) == "INTEGER"
        assert expr_type(parse_expression("I + 1.0"), table) == "REAL"
        assert expr_type(parse_expression("D*I"), table) \
            == "DOUBLE PRECISION"
        assert expr_type(parse_expression("I .GT. 1"), table) == "LOGICAL"

    def test_conflicting_dimensions_rejected(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(10)\n"
            "      REAL A(20)\n"
            "      END\n").units[0]
        with pytest.raises(SemanticError):
            build_symbol_table(unit)

    def test_resolution_prefers_declared_array(self):
        f = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION MAX(10)\n"
            "      X = MAX(3)\n"
            "      END\n")
        resolve_calls(f)
        assign = f.units[0].body[0]
        assert isinstance(assign.value, ast.ArrayRef)  # not the intrinsic


class TestUnparserEdges:
    def test_very_long_expression_roundtrip(self):
        # built via the AST (a raw 60-term source line would be truncated
        # at column 72, which is correct fixed-form behaviour)
        value = ast.Var("V0")
        for i in range(1, 60):
            value = ast.BinOp("+", value, ast.Var(f"V{i}"))
        unit = ast.ProgramUnit("SUBROUTINE", "S", [], [],
                               [ast.Assign(ast.Var("X"), value)])
        text = unparse(unit)
        assert any(line.startswith("     &") for line in text.splitlines())
        assert parse_source(text).units == [unit]

    def test_column_72_truncation_is_real(self):
        terms = "+".join(f"V{i}" for i in range(60))
        src = f"      SUBROUTINE S\n      X = {terms}\n      END\n"
        with pytest.raises(ParseError):
            parse_source(src)  # chopped mid-expression at column 72

    def test_deep_nesting_roundtrip(self):
        e = parse_expression("((((((A+B))))))*C")
        assert expr_to_str(e) == "(A+B)*C"

    def test_relational_inside_arith_error(self):
        # logical values are not arithmetic operands in our subset; the
        # unparser still renders them, the parser reparses equivalently
        e = ast.BinOp(".AND.", ast.BinOp(">", ast.Var("A"), ast.Var("B")),
                      ast.BinOp("<", ast.Var("C"), ast.Var("D")))
        assert parse_expression(expr_to_str(e)) == e

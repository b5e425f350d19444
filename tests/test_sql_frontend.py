"""Tests for the SQL lexer, parser, and expression evaluator."""

import numpy as np
import pytest

from repro.errors import SqlAnalysisError, SqlSyntaxError
from repro.vertica import expressions
from repro.vertica.sql import ast, parse, parse_expression, tokenize
from repro.vertica.sql.lexer import TokenType


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:3])

    def test_identifiers_preserve_case(self):
        token = tokenize("MyTable")[0]
        assert token.type is TokenType.IDENT
        assert token.value == "MyTable"

    def test_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.type is TokenType.IDENT
        assert token.value == "Weird Name"

    def test_string_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    @pytest.mark.parametrize("text", ["42", "3.14", "1e6", "2.5E-3", ".5"])
    def test_numbers(self, text):
        token = tokenize(text)[0]
        assert token.type is TokenType.NUMBER
        assert token.value == text

    def test_two_char_operators(self):
        values = [t.value for t in tokenize("a <= b >= c <> d != e")]
        assert "<=" in values and ">=" in values and "<>" in values and "!=" in values

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- a comment\n 1")
        assert [t.value for t in tokens[:2]] == ["SELECT", "1"]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")

    def test_eof_token_terminates(self):
        assert tokenize("")[-1].type is TokenType.EOF


class TestExpressionParsing:
    def test_precedence_multiplication_over_addition(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp)
        assert expr.right.op == "*"

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_and_binds_tighter_than_or(self):
        expr = parse_expression("a OR b AND c")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "NOT"

    def test_unary_minus(self):
        expr = parse_expression("-x * 2")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_between_desugars(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert expr.op == "AND"
        assert expr.left.op == ">="
        assert expr.right.op == "<="

    def test_is_null(self):
        expr = parse_expression("x IS NULL")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "is_null"

    def test_is_not_null(self):
        expr = parse_expression("x IS NOT NULL")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "NOT"

    def test_function_call(self):
        expr = parse_expression("power(x, 2)")
        assert isinstance(expr, ast.FunctionCall)
        assert len(expr.args) == 2

    def test_literals(self):
        assert parse_expression("42").value == 42
        assert parse_expression("4.5").value == 4.5
        assert parse_expression("'hi'").value == "hi"
        assert parse_expression("TRUE").value is True
        assert parse_expression("NULL").value is None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_expression("1 + 2 extra stuff everywhere (")


class TestStatementParsing:
    def test_basic_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert [i.output_name for i in stmt.items] == ["a", "b"]
        assert stmt.table == "t"

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.select_star

    def test_alias_forms(self):
        stmt = parse("SELECT a AS x, b y FROM t")
        assert [i.output_name for i in stmt.items] == ["x", "y"]

    def test_where_group_having_order_limit(self):
        stmt = parse(
            "SELECT a, COUNT(*) AS n FROM t WHERE b > 0 GROUP BY a "
            "HAVING COUNT(*) > 2 ORDER BY n DESC, a LIMIT 10"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].ascending is True
        assert stmt.limit == 10

    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        agg = stmt.items[0].expr
        assert isinstance(agg, ast.AggregateCall)
        assert agg.arg is None

    def test_count_distinct(self):
        stmt = parse("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].expr.distinct

    def test_udtf_with_parameters_and_partition_best(self):
        stmt = parse(
            "SELECT glmPredict(a, b USING PARAMETERS model='m1', type='link') "
            "OVER (PARTITION BEST) FROM t"
        )
        assert stmt.udtf is not None
        assert stmt.udtf.name == "glmpredict"
        assert stmt.udtf.parameters == {"model": "m1", "type": "link"}
        assert stmt.udtf.partition.kind is ast.PartitionKind.BEST

    def test_udtf_partition_by(self):
        stmt = parse("SELECT f(a) OVER (PARTITION BY k) FROM t")
        assert stmt.udtf.partition.kind is ast.PartitionKind.BY_COLUMN

    def test_udtf_partition_nodes(self):
        stmt = parse("SELECT f(a) OVER (PARTITION NODES) FROM t")
        assert stmt.udtf.partition.kind is ast.PartitionKind.NODES

    def test_udtf_numeric_parameter(self):
        stmt = parse("SELECT f(a USING PARAMETERS n=3, x=-1.5) OVER () FROM t")
        assert stmt.udtf.parameters == {"n": 3, "x": -1.5}

    def test_udtf_mixed_with_columns_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a, f(b) OVER (PARTITION BEST) FROM t")

    def test_create_table_segmented(self):
        stmt = parse(
            "CREATE TABLE t (a INT, b DOUBLE PRECISION, s VARCHAR) "
            "SEGMENTED BY HASH(a) ALL NODES"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert [c.name for c in stmt.columns] == ["a", "b", "s"]
        assert stmt.columns[1].type_name == "DOUBLE PRECISION"
        assert stmt.segmentation.kind == "hash"
        assert stmt.segmentation.column == "a"

    def test_create_table_unsegmented(self):
        stmt = parse("CREATE TABLE t (a INT) UNSEGMENTED")
        assert stmt.segmentation.kind == "unsegmented"

    def test_insert_values(self):
        stmt = parse("INSERT INTO t VALUES (1, 2.5, 'x'), (-3, 0, NULL)")
        assert isinstance(stmt, ast.Insert)
        assert stmt.rows == [[1, 2.5, "x"], [-3, 0, None]]

    def test_insert_non_literal_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO t VALUES (a + 1)")

    def test_drop_table(self):
        stmt = parse("DROP TABLE t")
        assert isinstance(stmt, ast.DropTable)
        assert not stmt.if_exists

    def test_drop_table_if_exists(self):
        stmt = parse("DROP TABLE IF EXISTS t;")
        assert stmt.if_exists

    def test_trailing_semicolon_ok(self):
        parse("SELECT a FROM t;")

    def test_garbage_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse("VACUUM FULL everything")


class TestExpressionEvaluation:
    def batch(self):
        return {
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "b": np.array([10, 20, 30, 40], dtype=np.int64),
            "s": np.array(["x", "y", "x", "z"], dtype=object),
        }

    def eval(self, text):
        return expressions.evaluate(parse_expression(text), self.batch())

    def test_arithmetic(self):
        assert np.allclose(self.eval("a * 2 + b"), [12, 24, 36, 48])

    def test_division_is_float(self):
        assert np.allclose(self.eval("b / 4"), [2.5, 5.0, 7.5, 10.0])

    def test_modulo(self):
        assert np.array_equal(self.eval("b % 3"), [1, 2, 0, 1])

    def test_division_by_zero_is_null(self):
        batch = {"b": np.array([10, 20, 30], dtype=np.int64),
                 "z": np.array([0, 3, 0], dtype=np.int64)}
        with np.errstate(all="raise"):  # no numpy divide warning either
            for text, want in (("b % z", [np.nan, 2.0, np.nan]),
                               ("mod(b, z)", [np.nan, 2.0, np.nan]),
                               ("b / z", [np.nan, 20 / 3, np.nan]),
                               ("b / 0", [np.nan] * 3)):
                got = expressions.evaluate(parse_expression(text), batch)
                assert np.array_equal(got, want, equal_nan=True), text

    def test_comparisons(self):
        assert np.array_equal(self.eval("a > 2"), [False, False, True, True])
        assert np.array_equal(self.eval("a <> 2"), [True, False, True, True])

    def test_boolean_logic(self):
        assert np.array_equal(
            self.eval("a > 1 AND b < 40"), [False, True, True, False]
        )
        assert np.array_equal(
            self.eval("NOT (a > 1 OR b = 10)"), [False, False, False, False]
        )

    def test_string_equality(self):
        assert np.array_equal(self.eval("s = 'x'"), [True, False, True, False])

    def test_string_concat(self):
        assert list(self.eval("s || '!'")) == ["x!", "y!", "x!", "z!"]

    def test_functions(self):
        assert np.allclose(self.eval("sqrt(a * a)"), [1, 2, 3, 4])
        assert np.allclose(self.eval("abs(0 - a)"), [1, 2, 3, 4])
        assert np.allclose(self.eval("power(a, 2)"), [1, 4, 9, 16])
        assert np.allclose(self.eval("greatest(a, 2.5)"), [2.5, 2.5, 3, 4])

    def test_string_functions(self):
        assert list(self.eval("upper(s)")) == ["X", "Y", "X", "Z"]
        assert np.array_equal(self.eval("length(s)"), [1, 1, 1, 1])

    def test_string_functions_of_literals_and_null(self):
        assert self.eval("upper('ab')") == "AB"
        assert self.eval("lower(NULL)").item() is None
        assert self.eval("length('abc')") == 3
        assert self.eval("length(NULL)") == 0

    def test_least_greatest_over_strings_with_null(self):
        batch = {"s": np.array(["a", None, "z"], dtype=object)}

        def run(text):
            return list(expressions.evaluate(parse_expression(text), batch))

        assert run("greatest(s, 'm')") == ["m", None, "z"]
        assert run("least(s, 'm')") == ["a", None, "m"]
        assert run("least('m', s, 'b')") == ["a", None, "b"]
        assert run("greatest(s, NULL)") == [None, None, None]

    def test_unknown_column_error_lists_available(self):
        with pytest.raises(SqlAnalysisError, match="available"):
            self.eval("missing + 1")

    def test_unknown_function(self):
        with pytest.raises(SqlAnalysisError):
            self.eval("frobnicate(a)")

    def test_aggregate_outside_context_rejected(self):
        with pytest.raises(SqlAnalysisError):
            expressions.evaluate(
                ast.AggregateCall("SUM", ast.ColumnRef("a")), self.batch()
            )

    def test_columns_referenced(self):
        expr = parse_expression("a + power(b, 2) > length(s)")
        assert expressions.columns_referenced(expr) == {"a", "b", "s"}

    def test_is_null_on_floats(self):
        batch = {"x": np.array([1.0, np.nan])}
        out = expressions.evaluate(parse_expression("x IS NULL"), batch)
        assert list(out) == [False, True]

    def test_coalesce(self):
        batch = {"x": np.array([1.0, np.nan, 3.0])}
        out = expressions.evaluate(parse_expression("coalesce(x, 0)"), batch)
        assert np.allclose(out, [1.0, 0.0, 3.0])

"""Run the SQL semantic analyzer over every SQL literal in tests/, examples/
and benchmarks/, and over the checked-in ``.sql`` corpora.

``make lint-sql`` entry point.  Walks the Python sources, extracts string
literals that look like SQL statements (they start with a statement
keyword), parses them with the real parser, and analyzes them in the
schema-less lenient mode (:class:`LenientProvider`): no catalog is
available, so only structural and scope diagnostics can fire — and none
are allowed.  Warnings are reported but do not fail the run.  A ``.sql``
file is split on ``;`` and every statement in it is linted; its ``{name}``
placeholders are rendered like f-string interpolations.

Literals inside ``pytest.raises(...)`` blocks are skipped (they are
*supposed* to be invalid), as is ``tests/test_sql_analyzer.py`` whose
golden corpus is invalid by design.  f-strings are linted when every
interpolation can be replaced by a placeholder identifier without changing
the statement's shape.

Exit status: 0 clean, 1 analysis errors or unparseable SQL, 2 usage error.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("tests", "examples", "benchmarks", "bench/olap_queries.sql")

#: Files whose SQL is deliberately malformed.
EXCLUDED_FILES = frozenset({
    "tests/test_sql_analyzer.py",
})

#: Sentinel substituted for every interpolation in f-strings and ``+``
#: concatenations.  At lint time each occurrence is rendered with every
#: entry of :data:`RENDERINGS` until one parses: an identifier fits
#: table/column slots, a number fits AT EPOCH / VALUES slots, a subquery
#: fits ``EXPLAIN``/``PROFILE``.  Interpolated SQL that fits none is
#: skipped (its shape is not statically knowable); a *pure* literal that
#: fails to parse is always an error.
PLACEHOLDER = "\x00"
RENDERINGS = ("ph", "1", "SELECT ph FROM ph")

#: A literal is treated as SQL when it starts with one of these keywords.
_SQL_START = re.compile(
    r"^\s*(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|REFRESH|EXPLAIN|PROFILE"
    r"|SHOW|AT\s+EPOCH)\b",
    re.IGNORECASE,
)


def _in_raises_block(node: ast.AST, raises_spans: list[tuple[int, int]]) -> bool:
    lineno = getattr(node, "lineno", None)
    if lineno is None:
        return False
    return any(start <= lineno <= end for start, end in raises_spans)


def _raises_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """Line ranges of every ``with pytest.raises(...)`` block."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            parts: list[str] = []
            while isinstance(expr, ast.Attribute):
                parts.append(expr.attr)
                expr = expr.value
            if isinstance(expr, ast.Name):
                parts.append(expr.id)
            if "raises" in parts:
                spans.append((node.lineno, node.end_lineno or node.lineno))
                break
    return spans


#: Calls whose string arguments are never full SQL statements: lexer-level
#: tests and prefix assertions.
_NON_SQL_CALLS = frozenset({"tokenize", "startswith", "endswith"})


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _non_sql_contexts(tree: ast.AST) -> set[int]:
    """ids of literal nodes that look like SQL but are not statements:
    ``tokenize(...)`` fixtures, ``.startswith(...)`` prefixes, and span
    attribute labels (``tracer.span(..., statement="SELECT 1")``)."""
    skip: set[int] = set()

    def mark(expr: ast.AST) -> None:
        for sub in ast.walk(expr):
            skip.add(id(sub))

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in _NON_SQL_CALLS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                mark(arg)
        elif name == "span":
            for kw in node.keywords:
                mark(kw.value)
    return skip


def _literal_sql(node: ast.AST) -> str | None:
    """The SQL text of a literal node, or None when it is not linteable.

    Plain constants are used verbatim; f-strings have each interpolation
    replaced by the identifier ``ph`` (a numeric placeholder would be wrong
    for table names, so an identifier keeps the statement's shape).
    Implicit concatenation arrives pre-joined in the Constant node.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append(PLACEHOLDER)
        return "".join(parts)
    return None


def _concat_sql(node: ast.BinOp) -> str | None:
    """Text of a ``"..." + expr + "..."`` chain, placeholders for exprs."""
    parts: list[str] = []
    found_string = False

    def flatten(expr: ast.AST) -> None:
        nonlocal found_string
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            flatten(expr.left)
            flatten(expr.right)
            return
        text = _literal_sql(expr)
        if text is None:
            parts.append(PLACEHOLDER)
        else:
            found_string = True
            parts.append(text)

    flatten(node)
    return "".join(parts) if found_string else None


def iter_sql_literals(path: Path, source: str) -> Iterator[tuple[int, str]]:
    """(line, sql) for every SQL-shaped literal outside pytest.raises."""
    tree = ast.parse(source, filename=str(path))
    spans = _raises_spans(tree)
    seen = _non_sql_contexts(tree)
    for node in ast.walk(tree):
        if id(node) in seen:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            sql = _concat_sql(node)
        else:
            sql = _literal_sql(node)
        if sql is None or not _SQL_START.match(sql):
            continue
        if len(sql.split()) < 2:
            continue  # a lone keyword (token-assertion fixture), not SQL
        # Mark constituents as consumed so the pieces of a concatenation
        # or f-string are not re-reported as independent literals.
        for sub in ast.walk(node):
            seen.add(id(sub))
        if _in_raises_block(node, spans):
            continue
        yield node.lineno, sql


#: ``{name}`` slots of a ``.sql`` corpus, filled in by whoever runs it.
_SQL_FILE_PLACEHOLDER = re.compile(r"\{\w+\}")

#: Quoted literal | ``--`` comment | statement separator | anything else.
_SQL_FILE_TOKEN = re.compile(r"'(?:[^']|'')*'|--[^\n]*|;|[^'\-;]+|['-]")


def iter_sql_statements(source: str) -> Iterator[tuple[int, str]]:
    """(first line, text) of each ``;``-separated statement of a ``.sql``
    file, ``--`` comments dropped and ``{name}`` placeholders left in place.
    Quoted literals are opaque: a ``;`` or ``--`` inside one is data."""
    parts: list[str] = []
    line = 1
    for match in _SQL_FILE_TOKEN.finditer(source + ";"):
        token = match.group()
        if token != ";":
            if not token.startswith("--"):
                parts.append(token)
            continue
        raw = "".join(parts)
        parts = []
        if raw.strip():
            lead = len(raw) - len(raw.lstrip())
            yield line + raw.count("\n", 0, lead), raw.strip()
        line += raw.count("\n")


def lint_file(path: Path, *, out=sys.stdout) -> tuple[int, int, int]:
    """Lint one file; returns (statements, errors, warnings)."""
    from repro.errors import SqlSyntaxError
    from repro.vertica.sql import parse
    from repro.vertica.sql.analyzer import LenientProvider, analyze

    rel = (path.relative_to(REPO_ROOT).as_posix()
           if path.is_relative_to(REPO_ROOT) else str(path))
    source = path.read_text(encoding="utf-8")
    statements = errors = warnings = 0
    provider = LenientProvider()
    if path.suffix == ".sql":
        templates: Iterator[tuple[int, str]] = (
            (lineno, _SQL_FILE_PLACEHOLDER.sub(PLACEHOLDER, text))
            for lineno, text in iter_sql_statements(source))
    else:
        templates = iter_sql_literals(path, source)
    for lineno, template in templates:
        statements += 1
        interpolated = PLACEHOLDER in template
        candidates = ([template.replace(PLACEHOLDER, r) for r in RENDERINGS]
                      if interpolated else [template])
        head = " ".join(candidates[0].split())[:60]
        stmt = None
        last_error: SqlSyntaxError | None = None
        for candidate in candidates:
            try:
                stmt = parse(candidate)
                break
            except SqlSyntaxError as exc:
                last_error = exc
        if stmt is None:
            if interpolated:
                continue  # shape depends on the interpolation: not linteable
            errors += 1
            print(f"{rel}:{lineno}: syntax error in {head!r}: {last_error}",
                  file=out)
            continue
        resolved = analyze(stmt, provider)
        for diag in resolved.diagnostics:
            if diag.severity == "error":
                errors += 1
            else:
                warnings += 1
            print(f"{rel}:{lineno}: {diag.render()} in {head!r}", file=out)
    return statements, errors, warnings


def main(argv: list[str] | None = None) -> int:
    raw = (argv if argv is not None else sys.argv[1:]) or list(DEFAULT_PATHS)
    files: list[Path] = []
    for entry in raw:
        path = (REPO_ROOT / entry) if not Path(entry).is_absolute() else Path(entry)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(p for p in path.rglob("*")
                                if p.suffix in (".py", ".sql")))
        else:
            print(f"sql-lint: no such file or directory: {entry}",
                  file=sys.stderr)
            return 2
    statements = errors = warnings = 0
    for path in files:
        if path.is_relative_to(REPO_ROOT) and \
                path.relative_to(REPO_ROOT).as_posix() in EXCLUDED_FILES:
            continue
        file_counts = lint_file(path)
        statements += file_counts[0]
        errors += file_counts[1]
        warnings += file_counts[2]
    print(f"sql-lint: {statements} statement(s) analyzed, "
          f"{errors} error(s), {warnings} warning(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

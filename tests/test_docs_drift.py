"""Drift checks: documentation tables vs their live registries.

``docs/metrics_reference.md`` embeds the table rendered by
``repro.obs.metrics.catalog_markdown_table()`` between ``catalog:begin`` /
``catalog:end`` markers; ``docs/sql_reference.md`` embeds
``repro.vertica.sql.analyzer.sa_codes_markdown_table()`` between
``sa-codes`` markers.  ``docs/observability.md`` and
``docs/fault_tolerance.md`` must name every span in ``SPAN_TAXONOMY`` and
every site in ``FAULT_SITES``.  These tests fail when either side moves
without the other.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.obs.metrics import (
    CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    catalog_markdown_table,
    declared_instruments,
)

DOC = Path(__file__).parent.parent / "docs" / "metrics_reference.md"


def documented_table() -> str:
    text = DOC.read_text()
    match = re.search(
        r"<!-- catalog:begin -->\n(.*?)\n<!-- catalog:end -->", text, re.DOTALL
    )
    assert match, "docs/metrics_reference.md lost its catalog markers"
    return match.group(1).strip()


def documented_names() -> set[str]:
    return set(re.findall(r"^\| `([a-z_]+)` \|", documented_table(), re.MULTILINE))


def test_doc_table_matches_rendered_catalog():
    """The embedded table is byte-identical to the generated rendering."""
    assert documented_table() == catalog_markdown_table(), (
        "docs/metrics_reference.md drifted from repro.obs.metrics.CATALOG; "
        "regenerate with `PYTHONPATH=src python -m repro.obs.metrics` and "
        "paste between the catalog:begin/end markers"
    )


def test_every_declared_metric_is_documented():
    missing = {spec.name for spec in declared_instruments()} - documented_names()
    assert not missing, f"declared but undocumented metrics: {sorted(missing)}"


def test_every_documented_metric_is_declared():
    stale = documented_names() - set(CATALOG)
    assert not stale, f"documented but undeclared metrics: {sorted(stale)}"


@pytest.mark.parametrize("spec", declared_instruments(),
                         ids=lambda spec: spec.name)
def test_declared_metric_instantiates_as_declared_kind(spec):
    """Every cataloged name creates a live instrument of its declared kind
    (so the doc's type column describes what snapshots actually contain)."""
    registry = MetricsRegistry()
    getter, kind = {"counter": (registry.counter, Counter),
                    "gauge": (registry.gauge, Gauge),
                    "histogram": (registry.histogram, Histogram)}[spec.kind]
    instrument = getter(spec.name)
    assert instrument.spec is spec
    assert isinstance(instrument, kind)


def test_emitting_modules_exist():
    """The 'emitted by' column names real importable modules."""
    import importlib

    for module in sorted({spec.module for spec in declared_instruments()}):
        importlib.import_module(module)


# ---------------------------------------------------------------------------
# SQL diagnostic codes: docs/sql_reference.md vs analyzer.SA_CODES
# ---------------------------------------------------------------------------

SQL_DOC = Path(__file__).parent.parent / "docs" / "sql_reference.md"


def test_sa_codes_table_matches_rendered_registry():
    from repro.vertica.sql.analyzer import sa_codes_markdown_table

    text = SQL_DOC.read_text()
    match = re.search(
        r"<!-- sa-codes:begin -->\n(.*?)\n<!-- sa-codes:end -->",
        text, re.DOTALL,
    )
    assert match, "docs/sql_reference.md lost its sa-codes markers"
    assert match.group(1).strip() == sa_codes_markdown_table(), (
        "docs/sql_reference.md drifted from analyzer.SA_CODES; regenerate "
        "with `PYTHONPATH=src python -c \"from repro.vertica.sql.analyzer "
        "import sa_codes_markdown_table; print(sa_codes_markdown_table())\"` "
        "and paste between the sa-codes markers"
    )


# ---------------------------------------------------------------------------
# Span taxonomy and fault sites: docs name every registered entry
# ---------------------------------------------------------------------------

def test_every_span_name_is_documented():
    from repro.obs.trace import SPAN_TAXONOMY

    text = (Path(__file__).parent.parent / "docs" / "observability.md").read_text()
    documented = set(re.findall(r"`([a-z_.]+)`", text))
    missing = set(SPAN_TAXONOMY) - documented
    assert not missing, (
        f"spans in SPAN_TAXONOMY but absent from docs/observability.md: "
        f"{sorted(missing)}"
    )


def test_every_fault_site_is_documented():
    from repro.faults import FAULT_SITES

    text = (Path(__file__).parent.parent / "docs" / "fault_tolerance.md").read_text()
    documented = set(re.findall(r"`([a-z_.]+)`", text))
    missing = set(FAULT_SITES) - documented
    assert not missing, (
        f"sites in FAULT_SITES but absent from docs/fault_tolerance.md: "
        f"{sorted(missing)}"
    )


# ---------------------------------------------------------------------------
# Architecture map: docs/architecture.md covers every src/repro/ package
# ---------------------------------------------------------------------------

def repro_packages() -> set[str]:
    """Dotted names of every package under ``src/repro/`` (``repro.x.y``)."""
    src = Path(__file__).parent.parent / "src" / "repro"
    packages = set()
    for init in src.rglob("__init__.py"):
        relative = init.parent.relative_to(src.parent)
        packages.add(".".join(relative.parts))
    packages.discard("repro")
    return packages


def test_architecture_map_mentions_every_package():
    """The system map stays complete: a new src/repro/ package must appear
    in docs/architecture.md (by dotted name) before it ships."""
    doc = Path(__file__).parent.parent / "docs" / "architecture.md"
    assert doc.exists(), "docs/architecture.md is missing"
    text = doc.read_text()
    missing = {pkg for pkg in repro_packages() if pkg not in text}
    assert not missing, (
        f"packages absent from docs/architecture.md: {sorted(missing)}; "
        "add each to the system map (one line in the right subsystem section)"
    )


def test_architecture_map_links_the_subsystem_docs():
    """The map cross-links every other doc in docs/."""
    docs = Path(__file__).parent.parent / "docs"
    text = (docs / "architecture.md").read_text()
    missing = {
        path.name for path in docs.glob("*.md")
        if path.name != "architecture.md" and f"({path.name})" not in text
    }
    assert not missing, (
        f"docs not linked from docs/architecture.md: {sorted(missing)}"
    )


# ---------------------------------------------------------------------------
# Built-in UDTFs: docs/sql_reference.md's table vs the installed functions
# ---------------------------------------------------------------------------

def test_builtin_udtf_table_matches_installed_functions():
    """The table lists exactly the UDTFs install_standard_functions
    registers: ExportToDistributedR plus every standard prediction
    function."""
    from repro.deploy import standard_prediction_functions
    from repro.transfer import ExportToDistributedR

    text = SQL_DOC.read_text()
    match = re.search(r"## Transform functions \(UDTFs\)\n(.*?)\n## ", text,
                      re.DOTALL)
    assert match, "docs/sql_reference.md lost its UDTF section"
    documented = re.findall(r"^\| `(\w+)\(", match.group(1), re.MULTILINE)
    installed = [ExportToDistributedR.name] + [
        udtf.name for udtf in standard_prediction_functions()]
    assert sorted(documented) == sorted(installed), (
        f"docs/sql_reference.md UDTF table {sorted(documented)} != "
        f"installed built-ins {sorted(installed)}"
    )

"""registry-drift (RL9xx): observability names must exist in their registries.

Cross-module invariants the type system cannot see, each enforced by
holding the *string literals* engine code emits to the corresponding
registry module:

* **RL901 (metric-drift)** — a string literal passed as the first
  argument of any ``.counter`` / ``.gauge`` / ``.histogram`` call, whatever
  the receiver (``cluster.metrics``, a hoisted ``m``, ...), must be
  declared in the ``CATALOG`` of ``src/repro/obs/metrics.py``.  The
  registry raises on an undeclared name, but only when that line runs.
* **RL902 (fault-site-drift)** — injection-site strings passed to
  ``perturb("...")`` must be registered in ``FAULT_SITES`` of
  ``src/repro/faults/sites.py``.  A typo'd site never matches any
  ``FaultSpec``, so the chaos scenario silently tests nothing.
* **RL903 (span-drift)** — span names passed to ``tracer.span("...")``
  must belong to the documented ``SPAN_TAXONOMY`` of
  ``src/repro/obs/trace.py``.  Ad-hoc names fragment traces and drift from
  ``docs/observability.md``.
* **RL904 (model-type-drift)** — every ``model_type = "..."`` a model
  class declares in ``src/repro/algorithms/`` must have a serializer
  registered in ``src/repro/deploy/serialize.py`` *and* a prediction
  function in ``src/repro/deploy/predict_functions.py``.  A model family
  missing either cannot be deployed or cannot be scored in SQL — a gap
  only discovered at runtime.
* **RL905 (manifest-drift)** — every subsystem manifest
  ``src/repro/<subsystem>/instruments.py`` must agree with the central
  registries in **both** directions.  A manifest declares what it owns as
  uniform module constants: the tuples ``METRICS`` / ``SPANS`` /
  ``FAULT_SITES``, the prefixes ``METRICS_MODULE_PREFIX`` /
  ``SPAN_PREFIX`` / ``FAULT_SITE_PREFIX`` that mark a registry entry as
  the subsystem's, and ``DOCS``, the page whose operations tables the
  manifest keeps complete.  Every listed name must exist in its registry,
  and every owned registry entry must be listed.  A new subsystem only
  adds a manifest; the rule finds it.

All are project-scope and apply to ``src/`` only: tests deliberately
invent ad-hoc sites and spans to exercise the checkers.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from reprolint.core import (
    Checker,
    FileContext,
    ProjectContext,
    Violation,
    register,
)

METRICS_MODULE = "src/repro/obs/metrics.py"
SITES_MODULE = "src/repro/faults/sites.py"
TRACE_MODULE = "src/repro/obs/trace.py"
ALGORITHMS_DIR = "src/repro/algorithms/"
SERIALIZE_MODULE = "src/repro/deploy/serialize.py"
PREDICT_MODULE = "src/repro/deploy/predict_functions.py"
MANIFEST_GLOB = "src/repro/*/instruments.py"

#: registry methods whose first argument is a metric name.
_REGISTRY_METHODS = frozenset({"counter", "gauge", "histogram"})


def _str_constant(value: ast.expr | None) -> str | None:
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    return None


def _first_str_arg(call: ast.Call) -> str | None:
    return _str_constant(call.args[0]) if call.args else None


def _iter_source_files(project: ProjectContext,
                       exclude: frozenset[str] = frozenset(),
                       ) -> Iterator[FileContext]:
    """Parsed ``src/`` files (tests are allowed ad-hoc names)."""
    from reprolint.cli import relpath as _relpath

    for path in project.files:
        rel = _relpath(project.root, path)
        if not rel.startswith("src/") or rel in exclude:
            continue
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        ctx = FileContext(path, rel, source)
        try:
            ctx.tree
        except SyntaxError:
            continue  # the per-file pass already reports syntax errors
        yield ctx


def _registry_error(checker: Checker, module: str, what: str) -> Violation:
    return Violation(
        rule=checker.rule, code=checker.code, path=module,
        line=1, col=0, symbol="<module>",
        message=f"cannot extract {what} from {module}; "
                "the registry moved or its declaration shape changed",
    )


def _spec_modules(project: ProjectContext) -> dict[str, str] | None:
    """Declared metric name → emitting module (``""`` when not a literal),
    from the first and fifth arguments of every ``_spec(...)`` call."""
    source = project.read(METRICS_MODULE)
    if source is None:
        return None
    modules: dict[str, str] = {}
    for node in ast.walk(ast.parse(source, filename=METRICS_MODULE)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_spec":
            name = _first_str_arg(node)
            if name is not None:
                module = node.args[4] if len(node.args) >= 5 else None
                modules[name] = _str_constant(module) or ""
    return modules or None


def _assigned(body: list[ast.stmt], variable: str) -> ast.expr | None:
    """The value of a ``variable = ...`` statement in ``body`` (a module's
    or a class's top level)."""
    for node in body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if any(isinstance(t, ast.Name) and t.id == variable for t in targets):
            return value
    return None


def _dict_literal_keys(project: ProjectContext, module: str,
                       variable: str) -> set[str] | None:
    """String keys of a module-level ``variable = { ... }`` assignment."""
    source = project.read(module)
    if source is None:
        return None
    value = _assigned(ast.parse(source, filename=module).body, variable)
    if not isinstance(value, ast.Dict):
        return None
    keys = {name for name in map(_str_constant, value.keys) if name is not None}
    return keys or None


@register
class MetricDriftChecker(Checker):
    rule = "metric-drift"
    code = "RL901"
    description = (
        "metric names emitted by engine code must be declared in the "
        "obs CATALOG (src/repro/obs/metrics.py)"
    )
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        declared = _spec_modules(project)
        if declared is None:
            yield _registry_error(self, METRICS_MODULE, "the metric CATALOG")
            return
        for ctx in _iter_source_files(project,
                                      exclude=frozenset({METRICS_MODULE})):
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute) \
                        or node.func.attr not in _REGISTRY_METHODS:
                    continue
                name = _first_str_arg(node)
                if name is None or name in declared:
                    continue
                yield self.violation(
                    ctx, node,
                    f"metric {name!r} is not declared in the CATALOG of "
                    f"{METRICS_MODULE}; add an InstrumentSpec (or fix the "
                    "typo) or the registry raises when this line runs",
                )


@register
class FaultSiteDriftChecker(Checker):
    rule = "fault-site-drift"
    code = "RL902"
    description = (
        "fault-injection site strings passed to perturb() must be "
        "registered in FAULT_SITES (src/repro/faults/sites.py)"
    )
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        declared = _dict_literal_keys(project, SITES_MODULE, "FAULT_SITES")
        if declared is None:
            yield _registry_error(self, SITES_MODULE, "FAULT_SITES")
            return
        for ctx in _iter_source_files(project):
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute) \
                        or node.func.attr != "perturb":
                    continue
                site = _first_str_arg(node)
                if site is None or site in declared:
                    continue
                yield self.violation(
                    ctx, node,
                    f"injection site {site!r} is not registered in "
                    f"FAULT_SITES of {SITES_MODULE}; an undeclared site "
                    "never matches a FaultSpec",
                )


@register
class SpanDriftChecker(Checker):
    rule = "span-drift"
    code = "RL903"
    description = (
        "span names opened by tracer.span() must belong to the documented "
        "SPAN_TAXONOMY (src/repro/obs/trace.py)"
    )
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        declared = _dict_literal_keys(project, TRACE_MODULE, "SPAN_TAXONOMY")
        if declared is None:
            yield _registry_error(self, TRACE_MODULE, "SPAN_TAXONOMY")
            return
        for ctx in _iter_source_files(project,
                                      exclude=frozenset({TRACE_MODULE})):
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute) \
                        or node.func.attr != "span":
                    continue
                name = _first_str_arg(node)
                if name is None or name in declared:
                    continue
                yield self.violation(
                    ctx, node,
                    f"span name {name!r} is not in the SPAN_TAXONOMY of "
                    f"{TRACE_MODULE}; ad-hoc span names fragment traces "
                    "and drift from docs/observability.md",
                )


def _class_str_attr(cls: ast.ClassDef, attr: str) -> str | None:
    """The string value of a class-level ``attr = "..."`` assignment."""
    return _str_constant(_assigned(cls.body, attr))


def _codec_types(project: ProjectContext) -> set[str] | None:
    """Model types with a serializer: ``register_model_codec("<type>", ...)``."""
    source = project.read(SERIALIZE_MODULE)
    if source is None:
        return None
    types: set[str] = set()
    for node in ast.walk(ast.parse(source, filename=SERIALIZE_MODULE)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name != "register_model_codec":
            continue
        type_name = _first_str_arg(node)
        if type_name is not None:
            types.add(type_name)
    return types or None


def _predictor_types(project: ProjectContext) -> set[str] | None:
    """Model types a prediction function scores: class-level
    ``expected_model_type`` literals plus ``make_prediction_function``'s
    second argument."""
    source = project.read(PREDICT_MODULE)
    if source is None:
        return None
    types: set[str] = set()
    tree = ast.parse(source, filename=PREDICT_MODULE)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            expected = _class_str_attr(node, "expected_model_type")
            if expected:
                types.add(expected)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name == "make_prediction_function" and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) \
                    and isinstance(node.args[1].value, str):
                types.add(node.args[1].value)
    return types or None


@register
class ModelTypeDriftChecker(Checker):
    rule = "model-type-drift"
    code = "RL904"
    description = (
        "every model_type declared in repro.algorithms must have a "
        "serializer in deploy/serialize.py and a prediction function in "
        "deploy/predict_functions.py"
    )
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        codecs = _codec_types(project)
        if codecs is None:
            yield _registry_error(self, SERIALIZE_MODULE,
                                  "register_model_codec calls")
            return
        predictors = _predictor_types(project)
        if predictors is None:
            yield _registry_error(self, PREDICT_MODULE,
                                  "prediction-function model types")
            return
        for ctx in _iter_source_files(project):
            if not ctx.relpath.startswith(ALGORITHMS_DIR):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                model_type = _class_str_attr(node, "model_type")
                if model_type is None:
                    continue
                if model_type not in codecs:
                    yield self.violation(
                        ctx, node,
                        f"model type {model_type!r} ({node.name}) has no "
                        f"serializer: add a register_model_codec("
                        f"{model_type!r}, ...) call to {SERIALIZE_MODULE} "
                        "or the model cannot be deployed",
                    )
                if model_type not in predictors:
                    yield self.violation(
                        ctx, node,
                        f"model type {model_type!r} ({node.name}) has no "
                        f"prediction function: add one to {PREDICT_MODULE} "
                        "(expected_model_type or make_prediction_function) "
                        "or the model cannot be scored in SQL",
                    )


#: What a manifest lists (tuple constant), the prefix constant that marks a
#: registry entry as owned, and the central registry it is checked against.
_MANIFEST_SECTIONS = (
    ("METRICS", "METRICS_MODULE_PREFIX", f"the CATALOG of {METRICS_MODULE}"),
    ("SPANS", "SPAN_PREFIX", f"the SPAN_TAXONOMY of {TRACE_MODULE}"),
    ("FAULT_SITES", "FAULT_SITE_PREFIX", f"FAULT_SITES of {SITES_MODULE}"),
)


def _check_manifest(checker: Checker, manifest: FileContext,
                    registries: tuple[dict[str, str], ...],
                    ) -> Iterator[Violation]:
    """Two-way drift check of one subsystem manifest.  ``registries`` maps
    each section's registry entries to the string an owner prefix is
    matched against (a metric's emitting module, a span or site's name)."""
    constants: dict[str, str] = {}
    for name in ("DOCS",) + tuple(prefix for _, prefix, _ in _MANIFEST_SECTIONS):
        constant = _str_constant(_assigned(manifest.tree.body, name))
        if constant is None:
            yield _registry_error(checker, manifest.relpath, f"the {name} constant")
            return
        constants[name] = constant
    for (variable, prefix, registry_desc), registry in zip(
            _MANIFEST_SECTIONS, registries):
        value = _assigned(manifest.tree.body, variable)
        if not isinstance(value, (ast.Tuple, ast.List)):
            yield _registry_error(
                checker, manifest.relpath, f"the {variable} tuple")
            continue
        listed: set[str] = set()
        for element in value.elts:
            name = _str_constant(element)
            if name is None:
                continue
            listed.add(name)
            if name not in registry:
                yield checker.violation(
                    manifest, element,
                    f"{variable} lists {name!r}, which does not "
                    f"exist in {registry_desc}; register it (or fix the "
                    "typo) so the subsystem surface stays documented",
                )
        owned = {name for name, owner in registry.items()
                 if owner.startswith(constants[prefix])}
        for missing in sorted(owned - listed):
            yield checker.violation(
                manifest, value,
                f"subsystem-owned name {missing!r} is declared in "
                f"{registry_desc} but missing from {variable} of "
                f"{manifest.relpath}; add it so {constants['DOCS']}'s "
                "operations tables stay complete",
            )


@register
class ManifestDriftChecker(Checker):
    rule = "manifest-drift"
    code = "RL905"
    description = (
        "every subsystem manifest (src/repro/*/instruments.py) must list "
        "exactly the metrics, spans, and fault sites it owns in the "
        "central registries"
    )
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        metric_modules = _spec_modules(project)
        if metric_modules is None:
            yield _registry_error(self, METRICS_MODULE, "the metric CATALOG")
            return
        spans = _dict_literal_keys(project, TRACE_MODULE, "SPAN_TAXONOMY")
        if spans is None:
            yield _registry_error(self, TRACE_MODULE, "SPAN_TAXONOMY")
            return
        sites = _dict_literal_keys(project, SITES_MODULE, "FAULT_SITES")
        if sites is None:
            yield _registry_error(self, SITES_MODULE, "FAULT_SITES")
            return
        registries = (metric_modules, {name: name for name in spans},
                      {name: name for name in sites})
        paths = sorted(project.root.glob(MANIFEST_GLOB))
        if not paths:
            yield _registry_error(self, MANIFEST_GLOB, "the instruments manifest")
            return
        for path in paths:
            relpath = path.relative_to(project.root).as_posix()
            manifest = FileContext(path, relpath, path.read_text(encoding="utf-8"))
            try:
                manifest.tree
            except SyntaxError:
                yield _registry_error(self, relpath, "the instruments manifest")
                continue
            yield from _check_manifest(self, manifest, registries)

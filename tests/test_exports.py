"""Every export and function of sphtri serves the library; every name the benchmark uses exists."""

import ast
import importlib
import inspect
from pathlib import Path

import sphtri

SRC = Path(sphtri.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

# Exported names that no src module uses, each kept for a reason.
UNUSED_BY_DESIGN = {
    "crofton_kernel": "the area law's one-integral reduction, public; area_cdf runs its body on blocks",
    "embed": "the coordinate round-trip oracle of the tests",
    "lhuilier_excess": "the tests' oracle for Girard's excess",
    "perimeter_cdf_grid": "the benchmark's KS grid; to be deleted once the benchmark stops calling it",
}
# Module-level functions, not exported, that no src module calls, each kept for a reason.
UNCALLED_BY_DESIGN = {
    "_perimeter_cdf_integrand": "the paper's CDF integral: the series' source and the tests' oracle",
    "_perimeter_density_integrand": "the paper's density integral: the tests' oracle for the series",
    "arc_length": "the tests' oracle for triangle_elements' sides",
}


def _exports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _names_in_code(path):
    """The names a module reads or looks up as attributes; docstrings and comments do not count."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def _names_in_library():
    return set().union(*(_names_in_code(path) for path in SRC.glob("*.py")
                         if path.name != "__init__.py"))


def test_every_export_is_used_by_the_library():
    used = _names_in_library()
    unused = sorted(name for name in _exports() if name not in used)
    assert unused == sorted(UNUSED_BY_DESIGN)


def test_every_function_has_a_caller_in_the_library():
    # A helper that lost its last caller is deleted, or written above with its reason.
    used, exports = _names_in_library(), set(_exports())
    uncalled = sorted(node.name for path in SRC.glob("*.py")
                      for node in ast.parse(path.read_text()).body
                      if isinstance(node, ast.FunctionDef)
                      and node.name not in used and node.name not in exports)
    assert uncalled == sorted(UNCALLED_BY_DESIGN)


def _benchmark_names():
    """(module, name) for each function benchmark/tracing.py wraps and each
    sphtri module attribute benchmark/workloads.py reads, from their ASTs."""
    tracing = ast.parse((BENCHMARK / "tracing.py").read_text())
    targets = next(node.value for node in tracing.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    names = {(module.value, func.value) for module, funcs in zip(targets.keys, targets.values)
             for func in funcs.keys}
    modules = {"distributions", "quadrature", "montecarlo", "cli"}
    workloads = ast.parse((BENCHMARK / "workloads.py").read_text())
    names |= {(n.value.id, n.attr) for n in ast.walk(workloads) if isinstance(n, ast.Attribute)
              and isinstance(n.value, ast.Name) and n.value.id in modules}
    return names


def test_benchmark_names_exist():
    # A traced benchmark run looks each of these up; a missing one raises AttributeError there.
    names = _benchmark_names()
    assert ("distributions", "perimeter_cdf_grid") in names and ("cli", "run") in names
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(f"sphtri.{module}"), name))
    assert missing == []


def test_only_the_quadrature_routes_take_a_tolerance():
    # The closed forms and the series laws have fixed error bounds: a tol there selects nothing.
    takes_tol = sorted(name for name in _exports() if callable(obj := getattr(sphtri, name))
                       and not inspect.isclass(obj) and "tol" in inspect.signature(obj).parameters)
    assert takes_tol == ["conditional_cdf", "density_via_double_integral"]


def test_only_distributions_writes_a_table_of_conditional_kinds():
    # distributions.CONDITIONAL_LAWS is the one map from each conditional kind
    # to its element, statistic, partner and route; another module's dict
    # literal keyed by ConditionalKind members would be a second copy of it.
    def is_member(node):
        return isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name) and node.value.id == "ConditionalKind"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "ConditionalKind")

    copies = sorted(path.name for path in SRC.glob("*.py") if path.name != "distributions.py"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Dict) and any(map(is_member, node.keys)))
    assert copies == []

"""Every public name of sphtri serves the library, and every name the benchmark uses exists."""

import ast
import importlib
from pathlib import Path

import sphtri

SRC = Path(sphtri.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

# Exported names that no src module uses, each kept for a reason.
UNUSED_BY_DESIGN = {
    "embed": "the coordinate round-trip oracle of the tests",
    "lhuilier_excess": "the tests' oracle for Girard's excess",
    "perimeter_cdf_grid": "the benchmark's KS grid; to be deleted once the benchmark stops calling it",
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


def test_every_export_is_used_by_the_library():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_in_code(path)
    unused = sorted(name for name in _exports() if name not in used)
    assert unused == sorted(UNUSED_BY_DESIGN)


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

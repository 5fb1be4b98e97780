"""Every public name of sphtri serves the library: no exported helper goes uncalled."""

import ast
from pathlib import Path

import sphtri

SRC = Path(sphtri.__file__).parent

# Exported names that no src module uses, each kept for a reason.
UNUSED_BY_DESIGN = {
    "embed": "the coordinate round-trip oracle of the tests",
    "lhuilier_excess": "the tests' oracle for Girard's excess",
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

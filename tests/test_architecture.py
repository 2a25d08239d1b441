"""Module boundaries of the qwfold package, checked on its source."""

import ast
from pathlib import Path

import pytest

import qwfold

PACKAGE = Path(qwfold.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _qwfold_module(node: ast.ImportFrom, name: str | None = None) -> str | None:
    """The qwfold module that `from <node.module> import name` refers to, if any."""
    if node.level == 1 and node.module is None:
        return name
    if node.level == 1:
        return node.module.split(".")[0]
    if node.module and node.module.split(".")[0] == "qwfold":
        parts = node.module.split(".")
        return parts[1] if len(parts) > 1 else name
    return None


def private_imports(source: str, own: str) -> list[str]:
    """Underscore names of other qwfold modules that source imports or reads."""
    tree = ast.parse(source)
    aliases = {}  # local name -> qwfold module bound whole
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                module = _qwfold_module(node, alias.name)
                if module is None or module == own:
                    continue
                if module == alias.name:
                    aliases[alias.asname or alias.name] = module
                elif _private(alias.name):
                    found.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qwfold" and len(parts) > 1 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, own) != own and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_uses_another_modules_private_names(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert private_imports(source, module) == []


@pytest.mark.parametrize(
    "source,found",
    [("from .dynamics import _clamp_rows, sink_evolve", ["dynamics._clamp_rows"]),
     ("from qwfold.analysis import _curve_deviation", ["analysis._curve_deviation"]),
     ("from . import dynamics\ndynamics._sink_diagonals(1)", ["dynamics._sink_diagonals"]),
     ("from . import dynamics as dyn\nx = dyn._HISTORY_BYTES", ["dynamics._HISTORY_BYTES"]),
     ("import qwfold.graphs as g\ng._is_int(1)", ["graphs._is_int"]),
     ("from .harness import _own_helper", []),
     ("from . import graphs\ngraphs.__name__, graphs.write_text", []),
     ("import numpy as np\nnp._NoValue", [])],
    ids=["relative", "absolute", "module-attribute", "module-alias", "import-as", "own-module",
         "public-and-dunder", "third-party"],
)
def test_scanner_finds_private_uses(source, found):
    assert private_imports(source, "harness") == found

"""The names the verdict benchmark in perfbench/ relies on still exist in the package.

Read from the files alone, nothing imported or run: every per-layer metric
of BENCHMARK.json named layer.function.metric names a public function
defined at the top level of src/repunit_toric/<layer>.py, and every name
perfbench/make_key.py imports from repunit_toric is bound at the top level
of its module.
"""

import ast
import json
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repunit_toric"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MAKE_KEY = ast.parse((ROOT / "perfbench" / "make_key.py").read_text(encoding="utf-8"))

LAYER_FUNCTIONS = sorted({tuple(m["name"].split(".")[:2]) for m in BENCHMARK["per_layer"]
                          if m["name"].count(".") == 2})
KEY_IMPORTS = sorted((node.module.removeprefix("repunit_toric").lstrip("."), alias.name)
                     for node in ast.walk(MAKE_KEY)
                     if isinstance(node, ast.ImportFrom) and node.module
                     and node.module.split(".")[0] == "repunit_toric"
                     for alias in node.names)


@cache
def _module(name):
    path = PACKAGE / (f"{name}.py" if name else "__init__.py")
    return ast.parse(path.read_text(encoding="utf-8")) if path.is_file() else None


def _bound_names(tree):
    """Names a module binds at its top level: defs, classes, assignments and imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
    return out


def test_contract_lists_are_not_empty():
    assert len(LAYER_FUNCTIONS) >= 8
    assert len(KEY_IMPORTS) >= 6


@pytest.mark.parametrize("layer, function", LAYER_FUNCTIONS,
                         ids=[".".join(lf) for lf in LAYER_FUNCTIONS])
def test_per_layer_metric_names_a_public_function(layer, function):
    tree = _module(layer)
    assert tree is not None, f"no module repunit_toric.{layer}"
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not function.startswith("_")
    assert function in defined, f"repunit_toric.{layer} defines no function {function}"


@pytest.mark.parametrize("module, name", KEY_IMPORTS, ids=[f"{m}.{n}" for m, n in KEY_IMPORTS])
def test_make_key_import_resolves(module, name):
    tree = _module(module)
    assert tree is not None, f"no module repunit_toric.{module}"
    assert name in _bound_names(tree), f"repunit_toric.{module} binds no {name}"

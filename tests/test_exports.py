"""Every public name a module exports, and every function the benchmark
tracer wraps, is bound: a name that moves or is deleted fails here rather
than at import time in a caller or as a benchmark op failure."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import amcc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ["amcc"] + [f"amcc.{info.name}" for info in pkgutil.iter_modules(amcc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_module_imports_and_its_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_every_traced_target_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    unbound = [
        f"{mod}.{fn}"
        for mod, fns in tracing.TARGETS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"amcc.{mod}"), fn, None))
    ]
    assert unbound == []



def test_every_size_limit_has_one_home_and_one_check():
    # MAX_* limits are assigned in amcc.scenario alone, and the one raise
    # of ResourceLimitError is scenario._require's
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in Path(amcc.__file__).parent.glob("*.py")
    }
    homes = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id.startswith("MAX_")
    }
    raises = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "ResourceLimitError" in ast.unparse(node)
    ]
    require = next(
        node
        for node in ast.walk(trees["scenario"])
        if isinstance(node, ast.FunctionDef) and node.name == "_require"
    )
    assert homes == {"scenario"}
    assert len(raises) == 1 and raises[0] in set(ast.walk(require))

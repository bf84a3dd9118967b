"""Every public name a module exports, and every function the benchmark
tracer wraps, is bound: a name that moves or is deleted fails here rather
than at import time in a caller or as a benchmark op failure."""

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

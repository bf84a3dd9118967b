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


def _callers(module, names):
    """{name: the dotted scopes that call it} over one module of amcc."""
    tree = ast.parse((Path(amcc.__file__).parent / f"{module}.py").read_text())
    callers = {name: set() for name in names}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in callers:
                callers[name].add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return callers


def test_affine_families_convert_to_fractions_only_at_the_edges():
    # an AffineFamily holds integer rows over one denominator: only
    # family_from_json decodes cells to it, and only the base and
    # directions properties turn its rows back into Fractions
    assert _callers("affine", ["over_lcm_rows", "fractions_over"]) == {
        "over_lcm_rows": {"family_from_json"},
        "fractions_over": {"AffineFamily.base", "AffineFamily.directions"},
    }


def test_models_convert_to_fractions_only_at_the_edges():
    # an EmpiricalModel holds integer rows over one denominator, its
    # fields: only its constructor, the refusal and model_from_json decode
    # cells to them, only the readers that hand Fractions out turn rows
    # back, and no module reads the integer view it used to keep beside
    # its tables
    assert _callers("model", ["over_lcm_rows", "fractions_over"]) == {
        "over_lcm_rows": {"EmpiricalModel.__init__", "_refuse_rows", "model_from_json"},
        "fractions_over": {"EmpiricalModel.tables", "marginalize"},
    }
    readers = [
        path.stem
        for path in sorted(Path(amcc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_int_view"
    ]
    assert readers == []


def test_the_exact_lp_converts_to_fractions_only_at_the_edges():
    # the LP layer computes on integers: simplex_solve takes the model's
    # numerators and returns numerators over its last pivot, the
    # certificates take numerators over one denominator, and only the two
    # public routes turn the weights and prices into Fractions
    assert _callers("lp", ["over_lcm", "fractions_over"]) == {
        "over_lcm": set(),
        "fractions_over": {"contextual_fraction", "certified_fraction"},
    }


def test_every_table_reader_decodes_through_the_one_decoder():
    # the four readers of a table of cells call over_lcm_rows, and none
    # parses a cell with rat itself
    readers = {
        "model": {"EmpiricalModel.__init__", "model_from_json"},
        "possibilistic": {"support_from_json"},
        "affine": {"family_from_json"},
    }
    for module, scopes in readers.items():
        callers = _callers(module, ["over_lcm_rows", "rat"])
        assert scopes <= callers["over_lcm_rows"] and not scopes & callers["rat"], module


def test_no_module_imports_a_name_it_does_not_use():
    # every name a module imports is read in it or listed in its __all__;
    # the package __init__ re-exports by importing alone
    stranded = []
    for path in sorted(Path(amcc.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = set(getattr(importlib.import_module(f"amcc.{path.stem}"), "__all__", ()))
        stranded += [f"{path.stem}.{name}" for name in sorted(imported - read - exported)]
    assert stranded == []


def test_one_array_pivot_divides_by_the_previous_pivot():
    # Edmonds/Bareiss exact division by the previous pivot, det, is written
    # in lp's one array pivot, which the simplex and the affine Gauss-Jordan
    # share; verify._covering_group, the covering oracle's lockstep, keeps
    # its own, by each lane's det, so that it stays independent of the main
    # solver
    dividers = set()
    defined = set()
    for path in sorted(Path(amcc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            defined.add((path.stem, func.name))
            for node in ast.walk(func):
                divisor = (
                    node.right if isinstance(node, ast.BinOp)
                    else node.value if isinstance(node, ast.AugAssign)
                    else None
                )
                if isinstance(divisor, ast.Subscript):
                    divisor = divisor.value
                if isinstance(getattr(node, "op", None), ast.FloorDiv) and (
                    isinstance(divisor, ast.Name) and divisor.id == "det"
                ):
                    dividers.add((path.stem, func.name))
    assert dividers == {("lp", "_pivot_array"), ("verify", "_covering_group")}
    assert ("affine", "back_substitute") not in defined

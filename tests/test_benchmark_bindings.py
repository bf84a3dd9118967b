"""The benchmark in perfbench/ wraps amcc's public functions by name and reads
their arguments. A change of name or signature there would make every
benchmark op fail, so the bindings are checked here."""

from pathlib import Path

import amcc.cli  # noqa: F401  loads every module the tracer wraps
import amcc.kernels
import amcc.rational
from amcc.csp import plan_counts, reference_plan
from amcc.model import parity_amcc_422
from amcc.scenario import bell_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_binds_and_traced_ops_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert amcc.kernels.KERNELS == "numpy"
        plan = reference_plan()
        hits = amcc.csp.search_plans(plan.base, plan_counts(plan), 1, 1, threads=1)
        assert isinstance(hits, list)
        amcc.parity.parity_scan(bell_scenario(2, 2, 2), threads=1)
    finally:
        tracer.uninstall()
    assert tracer.counts["csp.trials"] == 1
    assert tracer.counts["kernels.elements"] > 0
    assert {span[0] for span in tracer.spans} >= {
        "kernels.compatible_mask",
        "kernels.scan_satisfiable",
    }


def test_benchmark_tracer_sees_the_fraction_lp(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert amcc.rational.BACKEND == "fraction"
        assert amcc.affine.classify(parity_amcc_422()).verdict == "AMCC"
    finally:
        tracer.uninstall()
    assert tracer.counts["lp.pivots"] > 0
    assert {span[0] for span in tracer.spans} >= {
        "affine.classify",
        "lp.contextual_fraction",
        "lp.simplex_solve",
    }

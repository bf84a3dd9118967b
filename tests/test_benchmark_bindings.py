"""The benchmark in perfbench/ wraps amcc's public functions by name and reads
their arguments. A change of name or signature there would make every
benchmark op fail, so the bindings are checked here."""

from pathlib import Path

import amcc.cli  # noqa: F401  loads every module the tracer wraps
import amcc.kernels
import amcc.rational
from amcc.csp import plan_counts, reference_plan
from amcc.model import mix_models, parity_amcc_422, pr_box, uniform_model
from amcc.rational import rat
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
        # parity_scan only eliminates; the pattern scan runs in verify's check
        assert amcc.verify.run_checks(["parity-scan-422"]).overall is True
    finally:
        tracer.uninstall()
    assert tracer.counts["csp.trials"] == 1
    assert tracer.counts["kernels.elements"] > 0
    assert {span[0] for span in tracer.spans} >= {
        "kernels.compatible_mask",
        "kernels.scan_satisfiable",
    }
    # the search scans a block of trials with the compatibility kernel,
    # reached through its module binding, so the scan keeps its span in the
    # benchmark's per-layer view; a parent span always precedes its children.
    # The search runs no no-signaling check: on a parity base it cannot fail.
    search = next(i for i, span in enumerate(tracer.spans) if span[0] == "csp.search_plans")
    inside = {search}
    for i in range(search + 1, len(tracer.spans)):
        if tracer.spans[i][3] in inside:
            inside.add(i)
    assert {tracer.spans[i][0] for i in inside} >= {"kernels.compatible_mask"}


def test_benchmark_tracer_sees_the_fraction_lp(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    model = parity_amcc_422()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert amcc.rational.BACKEND == "fraction"
        assert amcc.affine.classify(model).verdict == "AMCC"
    finally:
        tracer.uninstall()
    assert "affine.classify" in {span[0] for span in tracer.spans}
    # the fraction check refuses a signaling model; the marginal check reuses it
    assert tracer.layer_metrics()["model.is_no_signaling.calls_per_classify"] == 1

    # a strongly contextual model keeps no compatible global, so classify
    # runs no LP; the full simplex is seen on contextual_fraction itself
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert amcc.lp.contextual_fraction(model).cf == 1
    finally:
        tracer.uninstall()
    assert tracer.counts["lp.pivots"] > 0
    assert {span[0] for span in tracer.spans} >= {
        "lp.contextual_fraction",
        "lp.simplex_solve",
    }


def test_benchmark_tracer_sees_the_reduced_lp_of_classify(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # 3/4 PR box + 1/4 uniform: every global is compatible with the support,
    # so classify runs its simplex, reached through the module binding
    model = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert amcc.affine.classify(model).cf == rat(1, 2)
    finally:
        tracer.uninstall()
    assert {span[0] for span in tracer.spans} >= {"affine.classify", "lp.simplex_solve"}
    assert tracer.layer_metrics()["model.is_no_signaling.calls_per_classify"] == 1

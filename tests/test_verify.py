"""The reproduction checks and their independent oracles."""

import hashlib
import random
import sys
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amcc.lp
import amcc.verify
from amcc.errors import PreconditionError, VerificationError
from amcc.lp import contextual_fraction
from amcc.parity import column_vectors, in_gf2_span
from amcc.model import (
    corpus,
    corpus_names,
    deterministic_model,
    is_no_signaling,
    mix_models,
    pr_box,
    uniform_model,
)
from amcc.rational import ONE, ZERO, over_lcm, rat, rat_str
from amcc.scenario import (
    bell_scenario,
    global_size,
    incidence_matrix,
    restriction_table,
    slot_offsets,
)
from amcc.verify import (
    REFERENCE_VECTOR_422,
    check_names,
    chsh_cf,
    covering_ncf,
    random_no_signaling_model,
    report_json,
    report_text,
    run_checks,
)
from amcc.verify import _covering_pool, _decider_mask


def test_reference_vector_constant():
    assert REFERENCE_VECTOR_422 == 0x1C00


# ---------------------------------------------------------------------------
# the two independent fraction routes


def test_covering_route_on_stock_models():
    sc = bell_scenario(2, 2, 2)
    for model in (pr_box(0), uniform_model(sc), deterministic_model(sc, 5)):
        value, prices = covering_ncf(model)
        assert value == contextual_fraction(model).ncf
        assert all(y >= 0 for y in prices)


def test_covering_route_on_a_mixed_model():
    sc = bell_scenario(2, 2, 2)
    noisy = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    value, _ = covering_ncf(noisy)
    assert value == rat(1, 2)


def test_chsh_closed_form_values():
    sc = bell_scenario(2, 2, 2)
    assert chsh_cf(pr_box(0)) == ONE
    assert chsh_cf(uniform_model(sc)) == ZERO
    assert chsh_cf(deterministic_model(sc, 9)) == ZERO
    noisy = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    assert chsh_cf(noisy) == rat(1, 2)


def test_chsh_requires_the_two_party_scenario():
    with pytest.raises(PreconditionError):
        chsh_cf(uniform_model(bell_scenario(3, 2, 2)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_models_are_no_signaling(seed):
    sc = bell_scenario(2, 2, 2)
    model = random_no_signaling_model(sc, random.Random(seed))
    ok, _ = is_no_signaling(model)
    assert ok
    total = sum(model.tables[0])
    assert total == ONE


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_three_fraction_routes_agree_on_random_models(seed):
    sc = bell_scenario(2, 2, 2)
    model = random_no_signaling_model(sc, random.Random(seed))
    res = contextual_fraction(model)
    value, _ = covering_ncf(model)
    assert value == res.ncf
    assert chsh_cf(model) == res.cf


# ---------------------------------------------------------------------------
# reference: the dense Fraction tableau the integer covering oracle replaced,
# with the same entering rule and tie-break, so values and prices must match


def _fraction_covering(model):
    sc = model.scenario
    inc = incidence_matrix(sc)
    v = [w for row in model.tables for w in row]
    n_y = inc.shape[0]  # price variables, one per slot
    n_rows = inc.shape[1]  # covering constraints, one per global assignment
    width = n_y + 2 * n_rows  # prices, surplus, penalty columns

    tableau = []
    for g in range(n_rows):
        row = [ONE if inc[s, g] else ZERO for s in range(n_y)]
        row += [-ONE if i == g else ZERO for i in range(n_rows)]
        row += [ONE if i == g else ZERO for i in range(n_rows)]
        row.append(ONE)
        tableau.append(row)
    basis = [n_y + n_rows + g for g in range(n_rows)]

    # reduced costs live in the ordered extension {a*penalty + b}, kept as
    # (a, b) pairs compared lexicographically; penalty columns cost (1, 0)
    obj = []
    for j in range(width):
        unit = v[j] if j < n_y else ZERO
        penalty = (ONE if n_y + n_rows <= j < width else ZERO) - sum(
            (tableau[i][j] for i in range(n_rows)), ZERO
        )
        obj.append((penalty, unit))

    while True:
        enter = next((j for j in range(width) if obj[j] < (ZERO, ZERO)), None)
        if enter is None:
            break
        ratio = pivot_row = tie = None
        for i in range(n_rows):
            coef = tableau[i][enter]
            if coef > 0:
                r = tableau[i][width] / coef
                if ratio is None or r < ratio or (r == ratio and basis[i] < tie):
                    ratio, pivot_row, tie = r, i, basis[i]
        if pivot_row is None:
            raise VerificationError("covering program must be bounded")
        piv = tableau[pivot_row][enter]
        prow = tableau[pivot_row] = [x / piv for x in tableau[pivot_row]]
        nonzero = [(j, p) for j, p in enumerate(prow) if p]
        for i, row in enumerate(tableau):
            f = row[enter]
            if i != pivot_row and f != 0:
                for j, p in nonzero:
                    row[j] -= f * p
        fm, fu = obj[enter]
        for j, p in nonzero:
            if j < width:
                m, u = obj[j]
                obj[j] = (m - fm * p, u - fu * p)
        basis[pivot_row] = enter

    prices = [ZERO] * n_y
    for i, bi in enumerate(basis):
        if bi < n_y:
            prices[bi] = tableau[i][width]
        elif bi >= n_y + n_rows and tableau[i][width] != 0:
            raise VerificationError("covering program must be feasible")

    if any(p < 0 for p in prices):
        raise VerificationError("covering prices must be nonnegative")
    for g in range(n_rows):
        collected = sum((prices[s] for s in range(n_y) if inc[s, g]), ZERO)
        if collected < 1:
            raise VerificationError(f"global assignment {g} is underpriced")
    value = sum((v[s] * prices[s] for s in range(n_y)), ZERO)
    return value, tuple(prices)


@st.composite
def _covering_models(draw, parties):
    """Random no-signaling models, the stock models and convex mixtures of
    them."""
    sc = bell_scenario(parties, 2, 2)

    def ingredient():
        kind = draw(st.sampled_from(["random", "pr_box", "uniform", "deterministic"]))
        if kind == "random":
            return random_no_signaling_model(sc, random.Random(draw(st.integers(0, 2**32 - 1))))
        if kind == "pr_box" and parties == 2:
            return pr_box(draw(st.integers(0, 7)))
        if kind == "deterministic":
            return deterministic_model(sc, draw(st.integers(0, global_size(sc) - 1)))
        return uniform_model(sc)

    terms = [ingredient() for _ in range(draw(st.integers(1, 3)))]
    if len(terms) == 1:
        return terms[0]
    weights = [draw(st.integers(1, 8)) for _ in terms]
    return mix_models([(rat(w, sum(weights)), m) for w, m in zip(weights, terms)])


@given(_covering_models(2))
@example(pr_box(3))
@example(mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))]))
@settings(max_examples=40, deadline=None)
def test_integer_covering_matches_the_fraction_tableau(model):
    assert covering_ncf(model) == _fraction_covering(model)


def _fraction_chsh_cf(model):
    """chsh_cf summed in Fractions, correlator by correlator."""
    correlators = []
    for ci in range(4):
        e = ZERO
        for si in range(4):
            w = model.tables[ci][si]
            e = e + w if bin(si).count("1") % 2 == 0 else e - w
        correlators.append(e)
    best = max(
        sum((-e if signs >> ci & 1 else e for ci, e in enumerate(correlators)), ZERO)
        for signs in range(16)
        if bin(signs).count("1") % 2
    )
    cf = (best - 2) / 2
    return cf if cf > 0 else ZERO


@given(_covering_models(2))
@example(pr_box(5))
@settings(max_examples=60, deadline=None)
def test_integer_chsh_matches_the_fraction_form(model):
    assert chsh_cf(model) == _fraction_chsh_cf(model)


def test_integer_chsh_matches_the_fraction_form_on_the_corpus():
    sc = bell_scenario(2, 2, 2)
    for name in corpus_names():
        model = corpus(name)
        if model.scenario == sc:
            assert chsh_cf(model) == _fraction_chsh_cf(model)


# only at three parties do pivots other than det arise (COVERING_DIGEST
# pins twelve such models); the Fraction tableau takes about 2 s a model
@given(_covering_models(3))
@settings(max_examples=2, deadline=None)
def test_integer_covering_matches_the_fraction_tableau_at_three_parties(model):
    assert covering_ncf(model) == _fraction_covering(model)


# sha256 over rat_str of the covering value and every price of the
# criterion-8 pool (the eleven (2,2,2) corpus models, then sixty
# random_no_signaling_model draws from one Random(303)) and of (3,2,2)
# random_no_signaling_model seeds 0-11, as the dense Fraction tableau
# computed them
COVERING_DIGEST = "82828baa17802a76dd3205c746beba917ce7ce59f5b03fe710175039f4a457bf"


def _covering_identity_lines():
    sc = bell_scenario(2, 2, 2)
    models = [corpus(name) for name in corpus_names() if corpus(name).scenario == sc]
    rng = random.Random(303)
    models += [random_no_signaling_model(sc, rng) for _ in range(60)]
    sc3 = bell_scenario(3, 2, 2)
    models += [random_no_signaling_model(sc3, random.Random(s)) for s in range(12)]
    for model in models:
        value, prices = covering_ncf(model)
        yield " ".join(map(rat_str, (value, *prices)))


def _covering_digest():
    h = hashlib.sha256()
    for line in _covering_identity_lines():
        h.update((line + "\n").encode())
    return h.hexdigest()


def test_covering_values_and_prices_are_pinned():
    assert _covering_digest() == COVERING_DIGEST


def test_covering_oracle_runs_without_the_main_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the covering oracle called the main solver")

    # every binding of the solver's functions, in amcc.lp and in any module
    # that imported them by name
    for name in (
        "simplex_solve",
        "_run_array",
        "_pivot_array",
        "_leaving_row",
        "_run_lockstep",
        "_certified_lps",
    ):
        original = getattr(amcc.lp, name)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "amcc" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    assert _covering_digest() == COVERING_DIGEST


# ---------------------------------------------------------------------------
# the covering pool: many models' tableaux in one lockstep


@st.composite
def _covering_pools(draw):
    """2-8 models mixing (2,2,2) and (3,2,2): random models, corpus models,
    point masses, and mixtures of any of them with the uniform model."""
    names = [n for n in corpus_names() if corpus(n).scenario.n_contexts <= 8]
    models = []
    for _ in range(draw(st.integers(2, 8))):
        sc = bell_scenario(draw(st.sampled_from([2, 3])), 2, 2)
        kind = draw(st.sampled_from(["random", "corpus", "point-mass"]))
        if kind == "random":
            model = random_no_signaling_model(sc, random.Random(draw(st.integers(0, 2**32 - 1))))
        elif kind == "corpus":
            model = corpus(draw(st.sampled_from(names)))
        else:
            model = deterministic_model(sc, draw(st.integers(0, global_size(sc) - 1)))
        if draw(st.booleans()):
            t = draw(st.sampled_from([rat(1, 3), rat(1, 2), rat(5, 7)]))
            model = mix_models([(t, uniform_model(model.scenario)), (1 - t, model)])
        models.append(model)
    return models


@given(_covering_pools())
@example([pr_box(3), random_no_signaling_model(bell_scenario(3, 2, 2), random.Random(4)), pr_box(3)])
@settings(max_examples=15, deadline=None)
def test_the_covering_pool_is_each_model_alone(models):
    # the one-model calls are pinned to the Fraction tableau at three
    # parties by COVERING_DIGEST, where it takes about 1.4 s a model, so the
    # pool meets it at two parties
    pooled = _covering_pool(models)
    assert pooled == [covering_ncf(m) for m in models]
    for model, cover in zip(models, pooled):
        if model.scenario.n_contexts == 4:
            assert cover == _fraction_covering(model)


def test_a_covering_group_moves_to_python_ints_mid_solve(monkeypatch):
    # (3,2,2) models mixed with the uniform model, whose weights pass every
    # other starting entry; with the int32 limit just above twice the
    # square of the largest weight and the int64 limit four times that, the
    # group starts in int32, takes int32 pivots, moves to int64, takes
    # int64 pivots, and ends in Python ints
    sc = bell_scenario(3, 2, 2)
    randoms = [random_no_signaling_model(sc, random.Random(s)) for s in range(6)]
    models = [mix_models([(rat(2, 9), uniform_model(sc)), (rat(7, 9), m)]) for m in randoms]
    alone = [covering_ncf(m) for m in models]
    start = max(global_size(sc), *(w for m in models for row in m.rows for w in row))
    monkeypatch.setattr(amcc.verify, "_INT32_LIMIT", 2 * start * start + 1)
    monkeypatch.setattr(amcc.verify, "_INT64_LIMIT", 8 * start * start + 1)
    lane_type, types = amcc.verify._lane_type, []

    def recorded(bound):
        types.append(lane_type(bound))
        return types[-1]

    monkeypatch.setattr(amcc.verify, "_lane_type", recorded)
    assert _covering_pool(models) == alone
    # the type is taken once at the start and once before each step, and
    # read again from the largest entry when it differs from the stack's,
    # so a type taken twice in a row was pivoted in; once the stack holds
    # Python ints no type is taken
    runs = [(str(dtype), len(list(run))) for dtype, run in groupby(types)]
    assert runs[0] == ("int32", 2)
    assert max(n for dtype, n in runs if dtype == "int64") >= 2
    assert runs[-1] == ("object", 2)


def test_the_covering_pool_refuses_the_first_model_in_input_order(monkeypatch):
    # the (2,2,2) group, models 0 and 2, is solved first, and its model 2
    # fails; model 1, alone in its (3,2,2) group, fails too and is raised
    sc2, sc3 = bell_scenario(2, 2, 2), bell_scenario(3, 2, 2)
    models = [pr_box(0), uniform_model(sc3), pr_box(1)]
    assert [v for v, _ in _covering_pool(models)] == [ZERO, ONE, ZERO]
    solve = amcc.verify._covering_group

    def failing(group):
        out = solve(group)
        if group[0].scenario == sc2:
            return out[:1] + [VerificationError("model 2 fails")]
        return [VerificationError("model 1 fails")]

    monkeypatch.setattr(amcc.verify, "_covering_group", failing)
    with pytest.raises(VerificationError, match="model 1 fails"):
        _covering_pool(models)


# ---------------------------------------------------------------------------
# the check runner


def test_check_names_are_stable():
    assert check_names() == (
        "pr-box-cf",
        "ghz-cf",
        "parity-scan-422",
        "symmetric-reference-vector",
        "affine-dimensions",
        "reference-tables",
        "cf-iff-strong-contextuality",
        "lp-oracle-agreement",
        "parity-scan-222",
    )


def test_run_checks_subset():
    report = run_checks(["pr-box-cf", "parity-scan-222"])
    assert len(report.checks) == 2
    assert report.overall is True
    for c in report.checks:
        assert c.passed is True
        assert c.runtime < c.budget


def test_the_amcc_headline_checks_run_no_lp(monkeypatch):
    # each headline model is strongly contextual, so classify certifies
    # cf = 1 with no compatible global and no LP; the rows are the ones the
    # checks gave when each model's full LP was solved
    def refuse(*args, **kwargs):
        raise AssertionError("a headline check solved an LP")

    monkeypatch.setattr(amcc.lp, "simplex_solve", refuse)
    monkeypatch.setattr(amcc.lp, "_run_lockstep", refuse)
    report = run_checks(["pr-box-cf", "ghz-cf", "symmetric-reference-vector"])
    rows = [(c.name, c.expected, c.actual, c.passed) for c in report.checks]
    assert rows == [
        (
            "pr-box-cf",
            "cf = 1 and maximal marginals for every box k = 0..7",
            "all 8 boxes: cf = 1, maximal marginals",
            True,
        ),
        ("ghz-cf", "cf = 1 and maximal marginals", "cf = 1, maximal_marginals = True", True),
        (
            "symmetric-reference-vector",
            "vector 0x1c00 unsatisfiable; symmetric model: cf = 1, maximal "
            "marginals, nonzero entries all 1/8",
            "satisfiable = False, cf = 1, maximal_marginals = True, entries in {0, 1/8} = True",
            True,
        ),
    ]


def test_run_checks_rejects_unknown_names():
    with pytest.raises(PreconditionError, match="unknown checks"):
        run_checks(["pr-box-cf", "warp-drive"])


def test_report_rendering():
    report = run_checks(["pr-box-cf"])
    text = report_text(report)
    assert text.splitlines()[0].startswith("PASS  pr-box-cf")
    assert "overall: PASS (1/1 checks)" in text
    doc = report_json(report)
    assert doc["overall"] is True
    assert doc["checks"][0]["name"] == "pr-box-cf"
    assert set(doc["checks"][0]) == {
        "name", "expected", "actual", "passed", "runtime_s", "budget_s"
    }


def test_a_crashing_check_is_reported_not_raised(monkeypatch):
    import amcc.verify as verify

    def boom():
        raise RuntimeError("synthetic failure")

    patched = tuple(
        (name, budget, boom if name == "ghz-cf" else fn)
        for name, budget, fn in verify.CHECKS
    )
    monkeypatch.setattr(verify, "CHECKS", patched)
    report = verify.run_checks(["ghz-cf"])
    assert report.overall is False
    row = report.checks[0]
    assert row.passed is False
    assert "RuntimeError" in row.actual
    assert "FAIL" in report_text(report)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2)])
def test_the_vectorized_decider_is_the_span_test(shape):
    sc = bell_scenario(*shape)
    cols = column_vectors(sc)
    decided = _decider_mask(sc)
    assert decided.shape == (1 << sc.n_contexts,)
    assert decided.tolist() == [in_gf2_span(v, cols) for v in range(1 << sc.n_contexts)]


# ---------------------------------------------------------------------------
# no state carried from one solve to the next


def test_interleaved_solves_repeat_exactly():
    models = [
        random_no_signaling_model(bell_scenario(parties, 2, 2), random.Random(seed))
        for seed in range(4)
        for parties in (2, 3, 4)
    ]
    first = [contextual_fraction(model) for model in models]
    second = [contextual_fraction(model) for model in reversed(models)][::-1]
    assert first == second
    # the cached global slots are still what a fresh build gives, and
    # cannot be written
    assert amcc.lp._global_slots.cache_info().currsize > 0
    for model in models:
        sc = model.scenario
        slots = amcc.lp._global_slots(sc)
        assert not slots.flags.writeable
        offsets = np.array(slot_offsets(sc))
        assert (slots == offsets[:, None] + restriction_table(sc)).all()

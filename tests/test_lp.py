"""Exact simplex and contextual-fraction tests with frozen values."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcc.lp
from amcc.errors import PreconditionError, VerificationError
from amcc.lp import (
    CfResult,
    contextual_fraction,
    simplex_solve,
    stacked_weights,
)
from amcc.model import (
    deterministic_model,
    ghz_322,
    mix_models,
    parity_amcc_422,
    pr_box,
    uniform_model,
)
from amcc.rational import ONE, ZERO, rat
from amcc.scenario import bell_scenario, incidence_matrix
from amcc.verify import covering_ncf, random_no_signaling_model


# ---------------------------------------------------------------------------
# raw simplex: maximize 1 . x subject to A x <= b, x >= 0


def test_simplex_box_maximum():
    # max x + y with x <= 2, y <= 3
    value, x, prices, pivots = simplex_solve(np.eye(2, dtype=np.uint8), (2, 3))
    assert value == rat(5)
    assert x == (rat(2), rat(3))
    assert prices == (ONE, ONE)
    assert pivots == 2


def test_simplex_fractional_vertex():
    # max x + y + z with x + y <= 1, y + z <= 1, x + z <= 1: the unique
    # optimum is x = y = z = 1/2, priced 1/2 per row
    a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    value, x, prices, _ = simplex_solve(a, (1, 1, 1))
    assert value == rat(3, 2)
    assert x == (rat(1, 2),) * 3
    assert prices == (rat(1, 2),) * 3


def test_simplex_exactness_on_awkward_rationals():
    # max x with x <= 1/3: the answer is exactly 1/3, no rounding
    value, x, _, _ = simplex_solve(np.ones((1, 1), dtype=np.uint8), (rat(1, 3),))
    assert value == rat(1, 3)
    assert x == (rat(1, 3),)


def test_simplex_rejects_a_negative_rhs():
    # the slack basis is the starting point, so b >= 0 is required
    with pytest.raises(PreconditionError, match="negative"):
        simplex_solve(np.ones((1, 1), dtype=np.uint8), (rat(-1, 2),))


# ---------------------------------------------------------------------------
# contextual fraction, frozen values


def test_pr_box_is_fully_contextual():
    res = contextual_fraction(pr_box(0))
    assert res.cf == ONE
    assert res.ncf == ZERO
    assert res.noncontextual is None
    assert res.strongly_contextual is not None


def test_uniform_model_is_noncontextual():
    res = contextual_fraction(uniform_model(bell_scenario(2, 2, 2)))
    assert res.cf == ZERO
    assert res.noncontextual is not None
    assert res.strongly_contextual is None


def test_noisy_pr_box_has_fraction_one_half():
    # 3/4 PR + 1/4 uniform sits at CHSH 3: cf = (3 - 2) / 2 = 1/2
    sc = bell_scenario(2, 2, 2)
    noisy = mix_models(
        [(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))]
    )
    res = contextual_fraction(noisy)
    assert res.cf == rat(1, 2)
    assert res.ncf == rat(1, 2)
    assert res.noncontextual is not None and res.strongly_contextual is not None


def test_ghz_and_parity_models_are_fully_contextual():
    for model in (ghz_322(), parity_amcc_422()):
        res = contextual_fraction(model)
        assert res.cf == ONE


def test_deterministic_model_is_noncontextual():
    res = contextual_fraction(deterministic_model(bell_scenario(2, 2, 2), 9))
    assert res.cf == ZERO
    # the witnessing distribution is the point mass on that assignment
    assert res.distribution[9] == ONE
    assert sum(res.distribution) == ONE


def test_decomposition_recomposes_the_model():
    sc = bell_scenario(2, 2, 2)
    noisy = mix_models(
        [(rat(7, 8), pr_box(0)), (rat(1, 8), uniform_model(sc))]
    )
    res = contextual_fraction(noisy)
    assert res.cf == rat(3, 4)
    for ci, row in enumerate(noisy.tables):
        for si, w in enumerate(row):
            acc = res.ncf * res.noncontextual.tables[ci][si]
            acc += res.cf * res.strongly_contextual.tables[ci][si]
            assert acc == w


def test_fraction_agrees_with_the_equality_feasibility_route():
    sc = bell_scenario(2, 2, 2)
    models = [
        pr_box(0),
        pr_box(5),
        uniform_model(sc),
        deterministic_model(sc, 3),
        mix_models([(rat(1, 2), pr_box(0)), (rat(1, 2), uniform_model(sc))]),
    ]
    for model in models:
        res = contextual_fraction(model)
        # covering_ncf prices the slots by its own tableau, sharing no code
        # with the simplex
        assert (res.cf == ZERO) == (covering_ncf(model)[0] == ONE)


def test_signaling_model_is_rejected():
    sc = bell_scenario(2, 2, 2)
    det = deterministic_model(sc, 0)
    rows = [list(r) for r in det.tables]
    # context 0 sees Y1=0 for sure while context 1 splits it, so Y1's
    # marginal depends on the partner's setting
    rows[1] = [rat(1, 2), ZERO, ZERO, rat(1, 2)]
    bad = type(det)(sc, tuple(tuple(r) for r in rows))
    with pytest.raises(PreconditionError, match="signaling"):
        contextual_fraction(bad)


def test_stacked_weights_are_context_major():
    model = pr_box(0)
    flat = stacked_weights(model)
    assert len(flat) == 16
    assert tuple(flat[:4]) == model.tables[0]


@given(st.integers(0, 7), st.integers(0, 8), st.integers(1, 8))
@settings(max_examples=12, deadline=None)
def test_fraction_is_convex_under_uniform_noise(k, num, den):
    # mixing toward uniform can only shrink the fraction, and for PR boxes
    # the value is known in closed form: max(0, (2 - 4t) / 2) at noise t...
    # equivalently cf = 1 - 2t for t <= 1/2
    if num > den:
        num = den
    t = rat(num, den)
    sc = bell_scenario(2, 2, 2)
    mixed = mix_models([(ONE - t, pr_box(k)), (t, uniform_model(sc))])
    res = contextual_fraction(mixed)
    expected = max(ZERO, ONE - 2 * t)
    assert res.cf == expected


def test_cf_result_has_pivot_count():
    res = contextual_fraction(pr_box(0))
    assert isinstance(res, CfResult)
    assert res.pivots >= 1


def _certified(model, res):
    """The three dual-certificate conditions, recomputed here from the
    incidence matrix."""
    inc = incidence_matrix(model.scenario)
    y = res.prices
    assert len(y) == inc.shape[0]
    assert all(p >= 0 for p in y)
    for g in range(inc.shape[1]):
        assert sum((y[s] for s in np.nonzero(inc[:, g])[0]), ZERO) >= 1
    assert sum((w * p for w, p in zip(stacked_weights(model), y)), ZERO) == res.ncf


@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_every_fraction_carries_a_valid_dual_certificate(parties, seed):
    model = random_no_signaling_model(bell_scenario(parties, 2, 2), random.Random(seed))
    res = contextual_fraction(model)
    _certified(model, res)
    if parties == 2:
        # the covering oracle's tableau takes about 10 s per (3,2,2) model
        assert res.ncf == covering_ncf(model)[0]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda y: (-ONE,) + y[1:], "negative"),
        (lambda y: (ZERO,) * len(y), "below 1"),
        (lambda y: (y[0] + 1,) + y[1:], "priced weights"),
    ],
    ids=["negative", "uncovered", "overpriced"],
)
def test_a_bad_price_vector_is_refused(monkeypatch, corrupt, message):
    solve = amcc.lp.simplex_solve

    def bad_solve(incidence, rhs):
        value, x, prices, pivots = solve(incidence, rhs)
        return value, x, corrupt(prices), pivots

    monkeypatch.setattr(amcc.lp, "simplex_solve", bad_solve)
    # 3/4 PR + 1/4 uniform: ncf 1/2 and slot 0 carries weight 1/4
    sc = bell_scenario(2, 2, 2)
    model = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    with pytest.raises(VerificationError, match=message):
        contextual_fraction(model)

"""Exact simplex and contextual-fraction tests with frozen values."""

import hashlib
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amcc.lp
from amcc.errors import PreconditionError, ResourceLimitError, VerificationError
from amcc.lp import CfResult, certified_fraction, contextual_fraction, simplex_solve
from amcc.model import (
    EmpiricalModel,
    deterministic_model,
    ghz_322,
    mix_models,
    parity_amcc_422,
    pr_box,
    uniform_model,
)
from amcc.rational import ONE, ZERO, fractions_over, over_lcm, rat, rat_str
from amcc.possibilistic import compatible_globals, support_of
from amcc.scenario import MAX_TABLEAU_CELLS, bell_scenario, global_size, incidence_matrix, slot_count
from amcc.verify import covering_ncf, random_no_signaling_model


# ---------------------------------------------------------------------------
# raw simplex: maximize 1 . x subject to A x <= b, x >= 0


def _solve(incidence, rhs):
    """simplex_solve on a rational rhs, as (value, x, prices, pivots) in
    Fractions: the rhs goes in over the lcm of its denominators, and the
    numerators come back over det times that lcm, the prices over det."""
    scale, nums = over_lcm(rhs)
    value, x, prices, det, pivots = simplex_solve(incidence, nums)
    return rat(value, det * scale), fractions_over(x, det * scale), fractions_over(prices, det), pivots


def _weights(model):
    """The model's weights as Fractions in slot order, context-major."""
    return [w for row in model.tables for w in row]


def test_simplex_box_maximum():
    # max x + y with x <= 2, y <= 3
    value, x, prices, pivots = _solve(np.eye(2, dtype=np.uint8), (2, 3))
    assert value == rat(5)
    assert x == (rat(2), rat(3))
    assert prices == (ONE, ONE)
    assert pivots == 2


@pytest.mark.parametrize("seq", [list, lambda b: np.array(b, dtype=object)], ids=["lists", "array"])
def test_simplex_of_an_empty_program(seq):
    # no rows and no columns: nothing to maximize; rows without columns
    # keep one zero price per row, whether rhs is a list or an array, all
    # over the pivot 1 of a tableau no pivot has touched
    assert simplex_solve(np.zeros((0, 0), np.uint8), seq([])) == (0, (), (), 1, 0)
    assert simplex_solve(np.zeros((2, 0), np.uint8), seq([1, 2])) == (0, (), (0, 0), 1, 0)
    assert _solve(np.zeros((2, 0), np.uint8), seq([1, rat(1, 2)])) == (0, (), (0, 0), 0)


def test_simplex_fractional_vertex():
    # max x + y + z with x + y <= 1, y + z <= 1, x + z <= 1: the unique
    # optimum is x = y = z = 1/2, priced 1/2 per row
    a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    value, x, prices, _ = _solve(a, (1, 1, 1))
    assert value == rat(3, 2)
    assert x == (rat(1, 2),) * 3
    assert prices == (rat(1, 2),) * 3


def test_simplex_exactness_on_awkward_rationals():
    # max x with x <= 1/3: the answer is exactly 1/3, no rounding
    value, x, _, _ = _solve(np.ones((1, 1), dtype=np.uint8), (rat(1, 3),))
    assert value == rat(1, 3)
    assert x == (rat(1, 3),)
    # over their lcm these numerators pass 2**63, so the tableau must be
    # built on Python ints, not int64
    rhs = (rat(1, 3**40), rat(2, 5**30))
    assert min(over_lcm(rhs)[1]) >= 2**63
    value, x, _, _ = _solve(np.eye(2, dtype=np.uint8), rhs)
    assert (value, x) == (sum(rhs), rhs)


def test_simplex_returns_numerators_over_its_last_pivot():
    # the fractional vertex above ends on the pivot 2, so the value 3/2,
    # x = 1/2 and the prices 1/2 are all read over det = 2
    a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    value, x, prices, det, _ = simplex_solve(a, (1, 1, 1))
    assert (value, x, prices, det) == (3, (1, 1, 1), (1, 1, 1), 2)
    assert all(type(y) is int for y in (value, *x, *prices, det))
    # an int64 and a Python-int tableau return Python ints alike
    value, x, prices, det, pivots = simplex_solve(np.eye(2, dtype=np.uint8), (3**40, 2))
    assert (value, x, prices, det, pivots) == (3**40 + 2, (3**40, 2), (1, 1), 1, 2)
    assert all(type(y) is int for y in (value, *x, *prices, det))


@pytest.mark.parametrize("b", [rat(1, 2), Fraction(2), 0.5, 2.0, "2"], ids=repr)
def test_simplex_takes_integers_only(b):
    # a rational rhs goes in as numerators over one scale, never as such
    with pytest.raises(TypeError):
        simplex_solve(np.eye(2, dtype=np.uint8), (1, b))


def test_tableau_guard_admits_five_parties_and_refuses_six():
    # broadcast all-ones incidences of the two Bell shapes hold one byte each;
    # every column is alike, so the admitted one solves in a single pivot
    five, six = bell_scenario(5, 2, 2), bell_scenario(6, 2, 2)
    shape = (slot_count(five), global_size(five))
    assert (shape[0] + 1) * (sum(shape) + 1) <= MAX_TABLEAU_CELLS
    value, _, _, pivots = _solve(np.broadcast_to(np.uint8(1), shape), [1] * shape[0])
    assert (value, pivots) == (1, 1)
    shape = (slot_count(six), global_size(six))
    with pytest.raises(ResourceLimitError, match="simplex tableau of 4097 x 8193"):
        simplex_solve(np.broadcast_to(np.uint8(1), shape), [1] * shape[0])


@pytest.mark.parametrize(
    "incidence, column",
    [([[0, 1], [0, 1]], 0), ([[1, 0], [1, 0]], 1), ([[1, 1, 0], [0, 1, 0]], 2)],
)
def test_an_all_zero_column_is_unbounded(incidence, column):
    # no row limits the column, so the ratio test finds no leaving row when
    # it enters, after any pivots on the columns before it
    with pytest.raises(VerificationError, match="fraction LP is unbounded") as err:
        simplex_solve(np.array(incidence, np.uint8), [1, 1])
    assert err.value.details == {"column": column}


def test_simplex_rejects_a_negative_rhs():
    # the slack basis is the starting point, so b >= 0 is required
    with pytest.raises(PreconditionError, match="negative"):
        _solve(np.ones((1, 1), dtype=np.uint8), (rat(-1, 2),))
    with pytest.raises(PreconditionError, match="^right-hand side -3 of row 1 is negative$"):
        simplex_solve(np.eye(2, dtype=np.uint8), (1, -3))


# ---------------------------------------------------------------------------
# reference: the dense Fraction tableau the integer kernel replaced, with the
# same Bland rule, so values, vertices, prices and pivot counts must match


def _fraction_simplex(incidence, rhs):
    m, n = incidence.shape
    width = n + m
    tableau = []
    for i, (coeffs, b) in enumerate(zip(incidence.tolist(), rhs)):
        row = [Fraction(a) for a in coeffs] + [ZERO] * (m + 1)
        row[n + i] = ONE
        row[-1] = Fraction(b)
        tableau.append(row)
    basis = list(range(n, width))
    obj = [-ONE] * n + [ZERO] * (m + 1)
    pivots = 0
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        prow = tableau[leave] = [x / tableau[leave][enter] for x in tableau[leave]]
        for row in tableau + [obj]:
            if row is not prow and row[enter]:
                f = row[enter]
                row[:] = [x - f * v for x, v in zip(row, prow)]
        basis[leave] = enter
        pivots += 1
    x = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[i][-1]
    return obj[-1], tuple(x), tuple(obj[n:width]), pivots


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@st.composite
def _zero_one_programs(draw):
    """0/1 matrices up to 8 x 12 with every column nonzero, and a rhs with
    zeros (degenerate pivots) over distinct prime denominators."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(1, 2**m - 1), min_size=n, max_size=n))
    incidence = np.array([[mask >> i & 1 for mask in masks] for i in range(m)], dtype=np.uint8)
    primes = draw(st.permutations(PRIMES))[:m]
    rhs = [Fraction(draw(st.one_of(st.just(0), st.integers(1, 3 * p))), p) for p in primes]
    return incidence, rhs


@st.composite
def _model_programs(draw):
    parties = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    model = random_no_signaling_model(bell_scenario(parties, 2, 2), rng)
    return incidence_matrix(model.scenario), _weights(model)


# about one random 0/1 program in forty takes a pivot whose true value is
# not 1, the only pivots that rescale every row; this one always runs
NON_UNIT_PIVOT = (
    np.array([[1, 1, 1, 0, 1, 1], [0, 0, 1, 1, 0, 1], [1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 1, 1]],
             dtype=np.uint8),
    [Fraction(18, 7), Fraction(18, 11), ZERO, Fraction(41, 19)],
)


def _array_solve(incidence, rhs, limit=amcc.lp._INT64_LIMIT):
    """_solve with int64 entries bounded by limit; returns (result,
    dtypes), the tableau's dtype when the kernel starts and when it
    returns."""
    dtypes = []
    run = amcc.lp._run_array

    def spy(tableau, basis):
        dtypes.append(tableau.dtype)
        out = run(tableau, basis)
        dtypes.append(out[0].dtype)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amcc.lp, "_INT64_LIMIT", limit)
        mp.setattr(amcc.lp, "_run_array", spy)
        return _solve(incidence, rhs), dtypes


@given(st.one_of(_zero_one_programs(), _model_programs()))
@example(NON_UNIT_PIVOT)
@settings(max_examples=80, deadline=None)
def test_integer_kernel_matches_the_fraction_tableau(program):
    incidence, rhs = program
    assert _solve(incidence, rhs) == _fraction_simplex(incidence, rhs)


@given(st.one_of(_zero_one_programs(), _model_programs()))
@example(NON_UNIT_PIVOT)
@settings(max_examples=80, deadline=None)
def test_array_kernel_matches_the_fraction_tableau(program):
    # these small programs stay on int64 from start to end
    incidence, rhs = program
    result, dtypes = _array_solve(incidence, rhs)
    assert dtypes == [np.int64, np.int64]
    assert result == _fraction_simplex(incidence, rhs)


# the running bound passes 2**20 on this program, the true entries do not
REREAD = (
    np.array([[0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 1], [1, 0, 1, 1, 0, 1], [1, 0, 0, 1, 1, 0],
              [1, 1, 1, 0, 0, 1], [0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 1, 1], [0, 1, 1, 1, 0, 1]],
             dtype=np.uint8),
    [Fraction(31, 19), Fraction(6, 5), Fraction(30, 13), Fraction(33, 17), Fraction(23, 11),
     Fraction(3), Fraction(3), ZERO],
)


@given(st.one_of(_zero_one_programs(), _model_programs()), st.integers(4, 62))
@example(NON_UNIT_PIVOT, 12)
@example(REREAD, 20)
@settings(max_examples=40, deadline=None)
def test_array_kernel_under_any_int64_limit_matches_the_fraction_tableau(program, bits):
    # a low limit sends the array to Python ints at the start, part way
    # through, or never, after a re-read of its true largest entry
    incidence, rhs = program
    assert _array_solve(incidence, rhs, 1 << bits)[0] == _fraction_simplex(incidence, rhs)


def test_a_true_maximum_under_the_limit_keeps_the_array_on_int64():
    result, dtypes = _array_solve(*REREAD, 1 << 20)
    assert dtypes == [np.int64, np.int64]
    assert result == _fraction_simplex(*REREAD)


def test_a_right_hand_side_past_the_limit_starts_on_python_ints():
    # coprime denominators whose lcm passes 2**62 on their own
    incidence, rhs = NON_UNIT_PIVOT
    big = [b / q for b, q in zip(rhs, (3**40, 5**30, 1, 7**25))]
    assert max(over_lcm(big)[1]) >= amcc.lp._INT64_LIMIT
    result, dtypes = _array_solve(incidence, big)
    assert dtypes == [object, object]
    assert result == _solve(incidence, big) == _fraction_simplex(incidence, big)


def test_an_array_past_a_lowered_limit_moves_to_python_ints_mid_solve():
    incidence, rhs = NON_UNIT_PIVOT
    result, dtypes = _array_solve(incidence, rhs, 1 << 12)
    assert dtypes == [np.int64, object]
    assert result == _solve(incidence, rhs) == _fraction_simplex(incidence, rhs)


def _counted_work(incidence, rhs):
    """_solve's result and its work, counted pivot by pivot outside
    the kernel: the rows with a nonzero entering entry, the pivot row
    aside, times the pivot row's nonzero columns, or the whole tableau on
    a pivot unequal to the one before; ten a cell on Python ints."""
    work = []
    pivot = amcc.lp._pivot_array

    def spy(tableau, leave, enter, det, bound):
        cells = (np.count_nonzero(tableau[:, enter]) - 1) * np.count_nonzero(tableau[leave])
        out = pivot(tableau, leave, enter, det, bound)
        if out[1] != det:
            cells = out[0].size
        work.append(cells * (10 if out[0].dtype == object else 1))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amcc.lp, "_pivot_array", spy)
        return _solve(incidence, rhs), sum(work)


def test_the_work_budget_counts_the_cells_each_pivot_updates(monkeypatch):
    # max x + y with x <= 2, y <= 3: each pivot updates the objective row
    # on the pivot row's three nonzero columns
    box = np.eye(2, dtype=np.uint8)
    assert _counted_work(box, (2, 3)) == (_solve(box, (2, 3)), 6)
    monkeypatch.setattr(amcc.lp, "MAX_SIMPLEX_WORK", 6)
    assert _solve(box, (2, 3))[0] == 5
    monkeypatch.setattr(amcc.lp, "MAX_SIMPLEX_WORK", 5)
    with pytest.raises(ResourceLimitError) as err:
        _solve(box, (2, 3))
    assert str(err.value) == "6 cells updated by 2 simplex pivots is over the limit 5"
    # on Python ints a cell counts ten
    big = (rat(1, 3**40), rat(2, 5**30))
    monkeypatch.setattr(amcc.lp, "MAX_SIMPLEX_WORK", 59)
    with pytest.raises(ResourceLimitError, match="^60 cells updated by 2 simplex pivots "):
        _solve(box, big)


@given(st.one_of(_zero_one_programs(), _model_programs()))
@example(NON_UNIT_PIVOT)
@settings(max_examples=40, deadline=None)
def test_the_work_budget_stops_a_solve_one_cell_past_its_work(program):
    # the kernel's own count agrees with the count outside it, a non-unit
    # pivot included: a budget of exactly that work solves, one less stops
    incidence, rhs = program
    result, work = _counted_work(incidence, rhs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amcc.lp, "MAX_SIMPLEX_WORK", work)
        assert _solve(incidence, rhs) == result
        if work:
            mp.setattr(amcc.lp, "MAX_SIMPLEX_WORK", work - 1)
            with pytest.raises(ResourceLimitError, match=f"^{work} cells updated by {result[3]} "):
                _solve(incidence, rhs)


# sha256 over rat_str of ncf, every distribution entry and every price, and
# the pivot count, of parity_amcc_422 and random_no_signaling_model at
# (2,2,2) seeds 0-11, (3,2,2) seeds 0-11 and (4,2,2) seeds 0-9, as the dense
# Fraction tableau computed them
IDENTITY_DIGEST = "cf0249ee48f1f2e240228cc75e6a7afba17a2b98536844f15dfc656c49cdced6"


def _identity_digest():
    models = [parity_amcc_422()]
    for parties, seeds in ((2, 12), (3, 12), (4, 10)):
        sc = bell_scenario(parties, 2, 2)
        models += [random_no_signaling_model(sc, random.Random(s)) for s in range(seeds)]
    h = hashlib.sha256()
    for model in models:
        res = contextual_fraction(model)
        fields = [res.ncf, *res.distribution, *res.prices]
        h.update((" ".join(map(rat_str, fields)) + f" {res.pivots}\n").encode())
    return h.hexdigest()


def test_fractions_prices_and_pivots_are_pinned():
    assert _identity_digest() == IDENTITY_DIGEST


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


def _lp_rhs(route, model):
    """The rhs of every LP route(model) runs."""
    seen = []
    solve = amcc.lp.simplex_solve

    def spy(incidence, rhs):
        seen.append(rhs)
        return solve(incidence, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amcc.lp, "simplex_solve", spy)
        route(model)
    return seen


def test_stacked_weights_are_context_major():
    # the full LP's rhs stacks the weights in slot order, context 0's first
    model = pr_box(0)
    (rhs,) = _lp_rhs(contextual_fraction, model)
    assert len(rhs) == 16
    assert fractions_over(rhs[:4], model.den) == model.tables[0]


@pytest.mark.parametrize(
    "route", [certified_fraction, contextual_fraction], ids=lambda route: route.__name__
)
@pytest.mark.parametrize(
    "model",
    [
        mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))]),
        mix_models([(rat(1, 3), pr_box(0)), (rat(2, 3), deterministic_model(bell_scenario(2, 2, 2), 0))]),
        random_no_signaling_model(bell_scenario(3, 2, 2), random.Random(1)),
        deterministic_model(bell_scenario(3, 2, 2), 21),
    ],
    ids=["noisy-pr-box", "pr-box-point-mass", "random-322", "point-mass"],
)
def test_the_lp_takes_the_model_numerators_over_their_gcd_with_den(route, model):
    # the rhs is the numerators of the slots the kept globals touch, an
    # integer numpy row over their gcd g with den: the same integers as
    # those weights over the lcm of their denominators, den // g, so in
    # lowest terms
    kept = range(global_size(model.scenario))
    if route is certified_fraction:
        kept = compatible_globals(support_of(model))
    touched = incidence_matrix(model.scenario)[:, kept].any(axis=1)
    nums = [x for row in model.rows for x in row]
    nums = [x for x, t in zip(nums, touched) if t]
    g = gcd(model.den, *nums)
    (rhs,) = _lp_rhs(route, model)
    assert rhs.dtype == np.int64
    rhs = rhs.tolist()
    assert all(type(b) is int for b in rhs)
    assert rhs == [x // g for x in nums]
    assert rhs == over_lcm(fractions_over(nums, model.den))[1]
    assert gcd(model.den // g, *rhs) == 1


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


def _certified(model, ncf, y):
    """The three dual-certificate conditions, recomputed here from the
    incidence matrix."""
    inc = incidence_matrix(model.scenario)
    assert len(y) == inc.shape[0]
    assert all(p >= 0 for p in y)
    for g in range(inc.shape[1]):
        assert sum((y[s] for s in np.nonzero(inc[:, g])[0]), ZERO) >= 1
    assert sum((w * p for w, p in zip(_weights(model), y)), ZERO) == ncf


@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_every_fraction_carries_a_valid_dual_certificate(parties, seed):
    model = random_no_signaling_model(bell_scenario(parties, 2, 2), random.Random(seed))
    res = contextual_fraction(model)
    _certified(model, res.ncf, res.prices)
    assert res.ncf == covering_ncf(model)[0]


# noncontextual fractions 0, 1/2, 13/21 and 1 among them
@pytest.mark.parametrize("seed", range(12))
def test_simplex_agrees_with_the_covering_oracle_at_three_parties(seed):
    model = random_no_signaling_model(bell_scenario(3, 2, 2), random.Random(seed))
    assert contextual_fraction(model).ncf == covering_ncf(model)[0]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda y, det: (-det,) + y[1:], "negative"),
        (lambda y, det: (0,) * len(y), "below 1"),
        (lambda y, det: (y[0] + det,) + y[1:], "priced weights"),
    ],
    ids=["negative", "uncovered", "overpriced"],
)
def test_a_bad_price_vector_is_refused(monkeypatch, corrupt, message):
    # the prices are numerators over det: det is a price of 1
    solve = amcc.lp.simplex_solve

    def bad_solve(incidence, rhs):
        value, x, prices, det, pivots = solve(incidence, rhs)
        return value, x, corrupt(prices, det), det, pivots

    monkeypatch.setattr(amcc.lp, "simplex_solve", bad_solve)
    # 3/4 PR + 1/4 uniform: ncf 1/2 and slot 0 carries weight 1/4
    sc = bell_scenario(2, 2, 2)
    model = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    with pytest.raises(VerificationError, match=message):
        contextual_fraction(model)


# ---------------------------------------------------------------------------
# the presolved fraction: the LP over the support's compatible globals only


@st.composite
def _presolve_models(draw):
    """(2,2,2)-(4,2,2) models: random no-signaling ones, which keep few or no
    compatible globals, dense mixtures with the uniform model, which keep
    every global, and point masses, which keep exactly one. Dense mixtures
    stop at (3,2,2): at (4,2,2) one can take 2000 pivots, about 1 s each
    way on a 2-core VM, so the uniform model stands in for them here and
    the dense (4,2,2) pins below name their models."""
    kind = draw(st.sampled_from(["random", "dense", "point"]))
    sc = bell_scenario(draw(st.sampled_from([2, 3] if kind == "dense" else [2, 3, 4])), 2, 2)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "point":
        return deterministic_model(sc, rng.randrange(global_size(sc)))
    model = random_no_signaling_model(sc, rng)
    if kind == "dense":
        t = rat(draw(st.integers(1, 7)), 8)
        model = mix_models([(ONE - t, model), (t, uniform_model(sc))])
    return model


@given(_presolve_models())
@example(parity_amcc_422())
@example(uniform_model(bell_scenario(4, 2, 2)))
@settings(max_examples=40, deadline=None)
def test_presolved_fraction_matches_the_full_simplex(model):
    ncf, cf, prices = certified_fraction(model)
    res = contextual_fraction(model)
    assert (ncf, cf) == (res.ncf, res.cf)
    _certified(model, ncf, prices)


@pytest.mark.parametrize(
    "model",
    [
        mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))]),
        deterministic_model(bell_scenario(3, 2, 2), 21),
        uniform_model(bell_scenario(4, 2, 2)),
    ],
    ids=["noisy-pr-box", "point-mass", "uniform-422"],
)
def test_a_wrong_compatible_set_is_refused(monkeypatch, model):
    assert compatible_globals(support_of(model))
    assert contextual_fraction(model).ncf > 0
    # the route reads every kept set off one compatibility scan
    def none_compatible(sc, possible):
        return np.zeros((len(possible), global_size(sc)), bool)

    monkeypatch.setattr(amcc.lp, "_compatible", none_compatible)
    with pytest.raises(VerificationError, match="below 1"):
        certified_fraction(model)


def test_presolved_fraction_refuses_a_signaling_model():
    det = deterministic_model(bell_scenario(2, 2, 2), 0)
    rows = list(det.tables)
    rows[1] = (rat(1, 2), ZERO, ZERO, rat(1, 2))
    with pytest.raises(PreconditionError, match="model is signaling: contexts 0 and 1"):
        certified_fraction(type(det)(det.scenario, tuple(rows)))


def _noisy_amcc(visibility):
    sc = bell_scenario(4, 2, 2)
    return mix_models([(visibility, parity_amcc_422()), (ONE - visibility, uniform_model(sc))])


def _dense_random(seed):
    sc = bell_scenario(4, 2, 2)
    model = random_no_signaling_model(sc, random.Random(seed))
    return mix_models([(rat(1, 2), model), (rat(1, 2), uniform_model(sc))])


# full-support (4,2,2) models, so the presolved LP is the full one: (model,
# ncf, pivots, whether contextual_fraction runs too); about 1 s a solve
@pytest.mark.parametrize(
    "build, ncf, pivots, both",
    [
        (lambda: _noisy_amcc(rat(1, 2)), rat(13, 18), 2294, True),
        (lambda: _noisy_amcc(rat(3, 4)), rat(13, 36), 2294, False),
        (lambda: _noisy_amcc(rat(9, 10)), rat(13, 90), 2294, False),
        (lambda: _dense_random(1), ONE, 2001, True),
    ],
    ids=["noisy-amcc-1-2", "noisy-amcc-3-4", "noisy-amcc-9-10", "dense-seed-1"],
)
def test_dense_422_fractions_and_pivots_are_pinned(monkeypatch, build, ncf, pivots, both):
    model = build()
    counts = []
    solve = amcc.lp.simplex_solve

    def counting_solve(incidence, rhs):
        result = solve(incidence, rhs)
        counts.append(result[4])
        return result

    monkeypatch.setattr(amcc.lp, "simplex_solve", counting_solve)
    assert certified_fraction(model)[0] == ncf
    assert counts == [pivots]
    if both:
        res = contextual_fraction(model)
        assert (res.ncf, res.pivots) == (ncf, pivots)


NOISY_PR_BOX = mix_models(
    [(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))]
)


@pytest.mark.parametrize(
    "route", [certified_fraction, contextual_fraction], ids=lambda route: route.__name__
)
def test_prices_alone_do_not_certify_a_presolved_fraction(monkeypatch, route):
    # 3/4 PR + 1/4 uniform has ncf 1/2; price 1 on context 0 costs 1 and
    # covers every global, which touches one slot there, so the price check
    # accepts ncf = 1, and only the weights, which total 1/2, refuse it.
    # Context 0's weights total 1, so its rhs totals the rhs's scale: the
    # value 1 is det times that total, and a price of 1 is det
    solve = amcc.lp.simplex_solve

    def lying_solve(incidence, rhs):
        _, x, prices, det, pivots = solve(incidence, rhs)
        return det * sum(rhs[:4]), x, (det,) * 4 + (0,) * (len(prices) - 4), det, pivots

    monkeypatch.setattr(amcc.lp, "simplex_solve", lying_solve)
    with pytest.raises(VerificationError, match="weights differ") as err:
        route(NOISY_PR_BOX)
    assert err.value.details == {"total": rat(1, 2), "ncf": ONE}


# ---------------------------------------------------------------------------
# the price check on integers, against the Fraction form it replaced


def _fraction_check_prices(model, prices, ncf):
    """The dual certificate in Fraction arithmetic, read off the incidence
    matrix column by column: the same conditions in the same order, with
    the same messages and details as amcc.lp._check_prices."""
    if not 0 <= ncf <= 1:
        raise VerificationError("noncontextual fraction outside [0, 1]", details={"ncf": ncf})
    if any(y < 0 for y in prices):
        raise VerificationError("a slot price is negative")
    inc = incidence_matrix(model.scenario)
    for g in range(inc.shape[1]):
        total = sum((prices[s] for s in np.flatnonzero(inc[:, g])), ZERO)
        if total < 1:
            raise VerificationError(
                "a global assignment collects price below 1",
                details={"global": g, "price": total},
            )
    cost = sum((w * y for w, y in zip(_weights(model), prices)), ZERO)
    if cost != ncf:
        raise VerificationError(
            "priced weights differ from the noncontextual fraction",
            details={"cost": cost, "ncf": ncf},
        )


def _int_check_prices(model, prices, ncf):
    """amcc.lp._check_prices on Fraction prices, over the lcm of their
    denominators."""
    return amcc.lp._check_prices(model, *over_lcm(prices)[::-1], ncf)


def _refusal(check, *args):
    """(message, details) of the VerificationError check(*args) raises, or
    None when it accepts."""
    try:
        check(*args)
    except VerificationError as exc:
        return str(exc), exc.details
    return None


@st.composite
def _certificate_models(draw):
    """Random no-signaling (2,2,2)-(4,2,2) models and mixtures of two of
    them with random weights."""
    sc = bell_scenario(draw(st.sampled_from([2, 3, 4])), 2, 2)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    model = random_no_signaling_model(sc, rng)
    if draw(st.booleans()):
        t = rat(draw(st.integers(1, 8)), 9)
        model = mix_models([(t, model), (ONE - t, random_no_signaling_model(sc, rng))])
    return model


@given(_certificate_models())
@example(parity_amcc_422())
@example(mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))]))
@settings(max_examples=40, deadline=None)
def test_the_fraction_certificate_accepts_both_routes(model):
    res = contextual_fraction(model)
    _fraction_check_prices(model, res.prices, res.ncf)
    ncf, _, prices = certified_fraction(model)
    assert ncf == res.ncf
    _fraction_check_prices(model, prices, ncf)


@given(_certificate_models())
@example(parity_amcc_422())
@example(deterministic_model(bell_scenario(3, 2, 2), 21))
@example(NOISY_PR_BOX)
@settings(max_examples=40, deadline=None)
def test_the_decomposition_recomposes_the_model(model):
    # the decomposition, recomposed in Fractions slot by slot
    res = contextual_fraction(model)
    parts = [(res.ncf, res.noncontextual), (res.cf, res.strongly_contextual)]
    for coefficient, part in parts:
        assert (part is None) == (coefficient == 0)
        if part is not None:
            assert part == EmpiricalModel(part.scenario, part.tables)
    for ci, row in enumerate(model.tables):
        for si, w in enumerate(row):
            assert sum((c * part.tables[ci][si] for c, part in parts if c), ZERO) == w


def _short_global(model, prices):
    """prices lowered on the slots of the global that collects least, so
    that it collects 1 - 1/den, den the lcm of the price denominators; no
    price goes below 0."""
    inc = incidence_matrix(model.scenario)
    den = lcm(*(y.denominator for y in prices))
    slots = min(
        (np.flatnonzero(inc[:, g]) for g in range(inc.shape[1])),
        key=lambda slots: sum((prices[s] for s in slots), ZERO),
    )
    excess = sum((prices[s] for s in slots), ZERO) - 1 + rat(1, den)
    out = list(prices)
    for s in slots:
        cut = min(out[s], excess)
        out[s] -= cut
        excess -= cut
    return tuple(out)


_MUTATIONS = {
    "negative": lambda model, y, ncf: ((-y[0] - 1,) + y[1:], ncf),
    "short-by-one-den": lambda model, y, ncf: (_short_global(model, y), ncf),
    "cost-off": lambda model, y, ncf: (y, ncf + rat(1, 3 * ncf.denominator)),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize(
    "model",
    [
        mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))]),
        random_no_signaling_model(bell_scenario(3, 2, 2), random.Random(1)),
        deterministic_model(bell_scenario(3, 2, 2), 21),
        parity_amcc_422(),
    ],
    ids=["noisy-pr-box", "random-322", "point-mass", "parity-amcc-422"],
)
def test_a_mutated_certificate_is_refused_as_the_fraction_form_refuses_it(model, mutation):
    for ncf, prices in (
        (contextual_fraction(model).ncf, contextual_fraction(model).prices),
        certified_fraction(model)[::2],
    ):
        assert _int_check_prices(model, prices, ncf) is None
        bad = _MUTATIONS[mutation](model, prices, ncf)
        refusal = _refusal(_int_check_prices, model, *bad)
        assert refusal is not None
        assert refusal == _refusal(_fraction_check_prices, model, *bad)


def test_prices_past_int64_are_checked_on_python_ints():
    # raising a price of 1 on a zero-weight slot by 1/3**45 changes no
    # condition, but puts the common price denominator past 2**63
    model = random_no_signaling_model(bell_scenario(3, 2, 2), random.Random(1))
    ncf, _, prices = certified_fraction(model)
    s = _weights(model).index(ZERO)
    assert prices[s] == 1
    tiny = rat(1, 3**45)
    big = prices[:s] + (ONE + tiny,) + prices[s + 1 :]
    assert _int_check_prices(model, big, ncf) is None
    for bad in (
        (big, ncf + tiny),
        ((-tiny,) + big[1:], ncf),
        (_short_global(model, big), ncf),
    ):
        refusal = _refusal(_int_check_prices, model, *bad)
        assert refusal is not None
        assert refusal == _refusal(_fraction_check_prices, model, *bad)


# ---------------------------------------------------------------------------
# the presolved fraction's weights, checked on integers against the Fraction
# form


def _fraction_check_weights(model, kept, weights, ncf):
    """The primal certificate in Fraction arithmetic, read off the incidence
    matrix slot by slot: the same conditions in the same order, with the
    same messages and details as amcc.lp._check_weights. Returns every
    slot's load."""
    for g, w in zip(kept, weights):
        if w < 0:
            raise VerificationError(
                "a global assignment has negative weight", details={"global": g, "weight": w}
            )
    total = sum(weights, ZERO)
    if total != ncf:
        raise VerificationError(
            "weights differ from the noncontextual fraction",
            details={"total": total, "ncf": ncf},
        )
    inc = incidence_matrix(model.scenario)
    loads = []
    for s, v in enumerate(_weights(model)):
        load = sum((w for g, w in zip(kept, weights) if inc[s, g]), ZERO)
        if load > v:
            raise VerificationError(
                "a slot carries more weight than the model",
                details={"slot": s, "load": load, "weight": v},
            )
        loads.append(load)
    return loads


def _int_check_weights(model, kept, weights, ncf):
    """amcc.lp._check_weights on Fraction weights, over the lcm den of their
    denominators: (den, every slot's load over den)."""
    den, nums = over_lcm(weights)
    return den, amcc.lp._check_weights(model, kept, nums, den, ncf)


def _weight_certificates(model):
    """(kept, weights, ncf) as certified_fraction and then
    contextual_fraction check them, the weights as Fractions: the
    compatible globals' weights, then every global's."""
    seen = []
    check = amcc.lp._weight_loads

    def spy(models, values, kept, weights, dens, ncfs):
        seen.extend((kept, fractions_over(w, den), ncf) for w, den, ncf in zip(weights, dens, ncfs))
        return check(models, values, kept, weights, dens, ncfs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amcc.lp, "_weight_loads", spy)
        certified_fraction(model)
        contextual_fraction(model)
    return seen


_WEIGHT_MUTATIONS = {
    "negative": lambda w, ncf: ((-w[0] - 1,) + w[1:], ncf),
    "total-off": lambda w, ncf: (w, ncf + rat(1, 3 * ncf.denominator)),
    # no slot weighs more than 1, so two more on one global overload it
    "overloaded": lambda w, ncf: ((w[0] + 2,) + w[1:], ncf + 2),
}


@pytest.mark.parametrize("mutation", sorted(_WEIGHT_MUTATIONS))
@pytest.mark.parametrize(
    "model",
    [
        mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(bell_scenario(2, 2, 2)))]),
        random_no_signaling_model(bell_scenario(3, 2, 2), random.Random(3)),
        deterministic_model(bell_scenario(3, 2, 2), 21),
        uniform_model(bell_scenario(4, 2, 2)),
    ],
    ids=["noisy-pr-box", "random-322", "point-mass", "uniform-422"],
)
def test_mutated_weights_are_refused_as_the_fraction_form_refuses_them(model, mutation):
    presolved, full = _weight_certificates(model)
    assert len(full[0]) == global_size(model.scenario)
    for kept, weights, ncf in (presolved, full):
        loads = _fraction_check_weights(model, kept, weights, ncf)
        den, scaled = _int_check_weights(model, kept, weights, ncf)
        assert kept and [rat(x, den) for x in scaled] == loads
        bad = _WEIGHT_MUTATIONS[mutation](weights, ncf)
        refusal = _refusal(_int_check_weights, model, kept, *bad)
        assert refusal is not None
        assert refusal == _refusal(_fraction_check_weights, model, kept, *bad)


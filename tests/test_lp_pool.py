"""The certified-LP route, _certified_lps, and its lockstep simplex,
against the one-LP route: the same values, prices, pivots and refusals,
model by model."""

import random
from collections import defaultdict
from itertools import chain
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amcc.lp
from amcc.errors import VerificationError
from amcc.lp import certified_fraction, contextual_fraction, simplex_solve
from amcc.model import EmpiricalModel, _slot_rows, corpus, corpus_names, mix_models, uniform_model
from amcc.rational import fractions_over, rat
from amcc.scenario import bell_scenario, incidence_matrix
from amcc.verify import _equivalence_pool, _random_models, random_no_signaling_model


def _loop(models):
    """What the pool stands for: contextual_fraction model by model."""
    return [(res.ncf, res.cf) for res in map(contextual_fraction, models)]


def _pooled(models):
    """(ncf, cf) of every model, off the full route's LPs of the pool."""
    return [(ncf, 1 - ncf) for ncf, *_ in amcc.lp._certified_lps(models)]


def _outcome(route, models):
    """route(models), or the type, message and details of what it raises."""
    try:
        return route(models)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "details", None)


def _groups(models):
    """{scenario: [the full LP's rhs per model]}, in input order."""
    groups = defaultdict(list)
    for model in models:
        v = list(chain.from_iterable(model.rows))
        g = gcd(model.den, *v)
        groups[model.scenario].append([x // g for x in v])
    return groups


def _solved_alone(incidence, rhs):
    try:
        return simplex_solve(incidence, rhs)
    except amcc.lp._REFUSALS as exc:
        return type(exc), str(exc)


def _assert_lockstep_pivots_as_alone(models):
    # value, x, prices, det and pivot count of every LP, or its refusal
    for sc, rhss in _groups(models).items():
        incidence = incidence_matrix(sc)
        lockstep = [
            (type(out), str(out)) if isinstance(out, Exception) else out
            for out in amcc.lp._run_lockstep(incidence, rhss)
        ]
        assert lockstep == [_solved_alone(incidence, rhs) for rhs in rhss]


def _check_lp_oracle_pool():
    sc = bell_scenario(2, 2, 2)
    models = [corpus(name) for name in corpus_names() if corpus(name).scenario == sc]
    return models + _random_models(sc, 60, 303)


@pytest.mark.parametrize("pool", ["cf-iff-strong-contextuality", "lp-oracle-agreement"])
def test_the_pool_equals_the_loop_on_both_verify_pools(pool):
    if pool == "lp-oracle-agreement":
        models = _check_lp_oracle_pool()
    else:
        models = [m for _, m in _equivalence_pool()]
    assert _pooled(models) == _loop(models)
    _assert_lockstep_pivots_as_alone(models)


@pytest.mark.parametrize(
    "pool, pivots", [("cf-iff-strong-contextuality", 2459), ("lp-oracle-agreement", 662)]
)
def test_the_verify_pools_take_their_pinned_pivot_totals(pool, pivots):
    if pool == "lp-oracle-agreement":
        models = _check_lp_oracle_pool()
    else:
        models = [m for _, m in _equivalence_pool()]
    assert sum(p for *_, p in amcc.lp._certified_lps(models)) == pivots


def _lane_orders(monkeypatch, reverse=False):
    """The nonzero-rhs count of every LP of each lockstep, in the order its
    lanes take them; with reverse, the lanes take them in the reverse of
    _longest_first's order."""
    orders = []
    order = amcc.lp._longest_first

    def spy(table, queue):
        queue = order(table, queue)[::-1] if reverse else order(table, queue)
        orders.append(np.count_nonzero(table[queue], 1).tolist())
        return queue

    monkeypatch.setattr(amcc.lp, "_longest_first", spy)
    return orders


@pytest.mark.parametrize("reverse", [False, True])
def test_the_lanes_take_the_longest_lps_first_and_order_changes_no_result(monkeypatch, reverse):
    # a (3,2,2) pool given shortest first, by nonzero rhs entries: the
    # lanes take it longest first, and in either order every LP's result
    # comes back in input order, as it is alone
    models = sorted(_random_models(bell_scenario(3, 2, 2), 60, 202), key=lambda m: np.count_nonzero(m._values))
    orders = _lane_orders(monkeypatch, reverse)
    _assert_lockstep_pivots_as_alone(models)
    [counts] = orders
    assert len(counts) == 60 and counts[0] != counts[-1]
    assert counts == sorted(counts, reverse=not reverse)


def test_an_rhs_past_int64_beside_the_lanes_runs_alone():
    # the lanes sort and load the small rhs rows alone; the Python-int
    # row between them runs on simplex_solve
    sc = bell_scenario(2, 2, 2)
    small = _random_models(sc, 2, 17)
    big = mix_models([(rat(1, 2**64 + 13), uniform_model(sc)), (1 - rat(1, 2**64 + 13), small[0])])
    models = [small[0], big, small[1]]
    assert max(_groups(models)[sc][1]) >= 2**63
    _assert_lockstep_pivots_as_alone(models)
    assert _pooled(models) == _loop(models)


def _hand_offs(monkeypatch):
    """The pivot count at which each hand-off to _run_array resumed."""
    resumed = []
    run = amcc.lp._run_array

    def spy(tableau, basis, pivots=0, work=0):
        resumed.append(pivots)
        return run(tableau, basis, pivots, work)

    monkeypatch.setattr(amcc.lp, "_run_array", spy)
    return resumed


# 1/2 uniform + 1/2 a random (3,2,2) model meets a pivot that is not 1
# after 30 unit pivots
NOISY_322 = mix_models([
    (rat(1, 2), uniform_model(bell_scenario(3, 2, 2))),
    (rat(1, 2), _random_models(bell_scenario(3, 2, 2), 1, 1)[0]),
])


def test_a_non_unit_pivot_hands_the_lp_to_the_array_kernel(monkeypatch):
    # the lockstep took the first 30 pivots, _run_array the rest
    models = [NOISY_322, corpus("uniform(3,2,2)"), NOISY_322]
    resumed = _hand_offs(monkeypatch)
    assert _pooled(models) == _loop(models)
    assert resumed[:2] == [30, 30]
    _assert_lockstep_pivots_as_alone(models)


def _solved_alone_shapes(monkeypatch):
    """The incidence shape of every simplex_solve call, as it is made."""
    shapes = []
    solve = amcc.lp.simplex_solve

    def spy(incidence, rhs):
        shapes.append(incidence.shape)
        return solve(incidence, rhs)

    monkeypatch.setattr(amcc.lp, "simplex_solve", spy)
    return shapes


def test_lps_the_stack_cannot_share_run_on_simplex_solve(monkeypatch):
    # a (4,2,2) tableau passes LOCKSTEP_CELLS by itself, and a lone
    # (3,2,2) LP has no partner
    assert 257 * 513 > amcc.lp.LOCKSTEP_CELLS
    models = [corpus("uniform(4,2,2)"), corpus("parity_amcc_422"), corpus("ghz_322")]
    shapes = _solved_alone_shapes(monkeypatch)
    pooled = _pooled(models)
    assert shapes == [(256, 256), (256, 256), (64, 64)]
    assert pooled == _loop(models)


def test_an_rhs_past_the_int64_limit_runs_on_simplex_solve(monkeypatch):
    # under a limit of 2 the PR boxes' rhs, 0 or 1, fits and the random
    # model's does not; the boxes still share the stack, and no bound
    # passes the int64 test, so each is handed to _run_array at once
    sc = bell_scenario(2, 2, 2)
    models = [corpus("pr_box(0)"), _random_models(sc, 1, 5)[0], corpus("pr_box(1)")]
    assert max(_groups(models)[sc][1]) >= 2
    monkeypatch.setattr(amcc.lp, "_INT64_LIMIT", 2)
    shapes = _solved_alone_shapes(monkeypatch)
    pooled = _pooled(models)
    assert shapes == [(16, 16)]
    assert pooled == _loop(models)


@st.composite
def _pools(draw):
    """2-7 random (2,2,2) and (3,2,2) models, some mixed with the uniform
    model, whose LPs take pivots that are not 1."""
    models = []
    for _ in range(draw(st.integers(2, 7))):
        sc = bell_scenario(draw(st.sampled_from([2, 3])), 2, 2)
        model = random_no_signaling_model(sc, random.Random(draw(st.integers(0, 2**32 - 1))))
        if draw(st.booleans()):
            t = draw(st.sampled_from([rat(1, 3), rat(1, 2), rat(2, 7)]))
            model = mix_models([(t, uniform_model(sc)), (1 - t, model)])
        models.append(model)
    return models


@given(_pools(), st.one_of(st.none(), st.integers(3, 40)))
@example([NOISY_322, corpus("pr_box(3)"), NOISY_322, corpus("ghz_322")], None)
@settings(max_examples=40, deadline=None)
def test_a_mixed_pool_equals_the_loop_under_any_int64_limit(models, bits):
    # a low limit sends LPs alone from the start or hands them off part way
    with pytest.MonkeyPatch.context() as mp:
        if bits is not None:
            mp.setattr(amcc.lp, "_INT64_LIMIT", 1 << bits)
        assert _pooled(models) == _loop(models)
        _assert_lockstep_pivots_as_alone(models)


def _signaling(model):
    """model with half of context 0's first possible section's weight moved
    onto the next section, which changes the second measurement's
    marginal there alone: a signaling model."""
    tables = [list(row) for row in model.tables]
    row = tables[0]
    a = next(s for s, w in enumerate(row) if w)
    b = (a + 1) % len(row)
    row[a], row[b] = row[a] / 2, row[b] + row[a] / 2
    return EmpiricalModel(model.scenario, tuple(map(tuple, tables)))


@given(_pools(), st.integers(0, 8), st.one_of(st.none(), st.integers(0, 6000)))
@settings(max_examples=40, deadline=None)
def test_a_refused_pool_raises_what_the_loop_raises_first(models, at, work):
    # a signaling model anywhere, and a work budget low enough to stop some
    # LPs part way: the first refusal in input order, its type, message and
    # details, whichever LP route meets it
    models = list(models)
    models.insert(min(at, len(models)), _signaling(models[at % len(models)]))
    with pytest.MonkeyPatch.context() as mp:
        if work is not None:
            mp.setattr(amcc.lp, "MAX_SIMPLEX_WORK", work)
        expected = _outcome(_loop, models)
        assert isinstance(expected, tuple)
        assert _outcome(_pooled, models) == expected


def test_a_work_budget_trip_is_the_loops_at_the_same_model_and_pivot(monkeypatch):
    models = _random_models(bell_scenario(3, 2, 2), 6, 7)
    pivots = [contextual_fraction(m).pivots for m in models]
    monkeypatch.setattr(amcc.lp, "MAX_SIMPLEX_WORK", 600)
    expected = _outcome(_loop, models)
    assert expected[0].__name__ == "ResourceLimitError"
    assert _outcome(_pooled, models) == expected
    # the budget stops an LP with pivots left to take
    assert int(expected[1].split()[4]) < max(pivots)


def test_a_lying_lockstep_is_refused_by_the_certificates(monkeypatch):
    # the third LP claims one more than its value; the same lie told by
    # simplex_solve in the loop gets the same refusal
    models = _random_models(bell_scenario(2, 2, 2), 5, 11)
    models[2] = corpus("uniform(2,2,2)")

    def lie(solution):
        value, x, prices, det, pivots = solution
        return value + det, x, prices, det, pivots

    run, solve = amcc.lp._run_lockstep, amcc.lp.simplex_solve

    def lying_lockstep(incidence, rhss):
        out = run(incidence, rhss)
        out[2] = lie(out[2])
        return out

    calls = []

    def lying_solve(incidence, rhs):
        calls.append(rhs)
        out = solve(incidence, rhs)
        return lie(out) if len(calls) == 3 else out

    monkeypatch.setattr(amcc.lp, "_run_lockstep", lying_lockstep)
    with pytest.raises(VerificationError) as pooled:
        _pooled(models)
    # the loop's lone LPs pass through _run_lockstep too, untold
    monkeypatch.setattr(amcc.lp, "_run_lockstep", run)
    monkeypatch.setattr(amcc.lp, "simplex_solve", lying_solve)
    with pytest.raises(VerificationError) as looped:
        _loop(models)
    assert (str(pooled.value), pooled.value.details) == (str(looped.value), looped.value.details)


def test_the_stack_fits_the_lockstep_budget(monkeypatch):
    # lanes are LOCKSTEP_CELLS over one tableau's cells: 15 (3,2,2) LPs at
    # a time, in one int32 stack of at most 512 KiB
    sizes = []
    mapping = amcc.lp.mmap

    def spy(fileno, length):
        sizes.append(length)
        return mapping(fileno, length)

    monkeypatch.setattr(amcc.lp, "mmap", spy)
    models = _random_models(bell_scenario(3, 2, 2), 20, 3)
    assert _pooled(models) == _loop(models)
    assert sizes == [15 * 65 * 129 * 4]
    assert sizes[0] <= amcc.lp.LOCKSTEP_CELLS * 4 == 1 << 19


def _refuse(*args, **kwargs):
    raise AssertionError("a strongly contextual model reached the LP")


@pytest.mark.parametrize("name", ["pr_box(0)", "ghz_322", "parity_amcc_422"])
def test_a_strongly_contextual_model_runs_no_lp(monkeypatch, name):
    # no global is compatible with the support, so ncf is 0 with no LP
    for fn in ("simplex_solve", "_run_lockstep", "incidence_matrix"):
        monkeypatch.setattr(amcc.lp, fn, _refuse)
    ncf, cf, prices = certified_fraction(corpus(name))
    assert (ncf, cf) == (0, 1)
    assert len(prices) == sum(corpus(name).scenario.section_sizes)


@given(_pools())
@example([corpus("pr_box(1)"), NOISY_322, corpus("uniform(2,2,2)"), corpus("ghz_322")])
@settings(max_examples=30, deadline=None)
def test_the_route_is_each_public_fraction_model_by_model(models):
    # with compatible, certified_fraction's (ncf, cf, prices); without,
    # contextual_fraction's ncf, prices and pivots
    presolved = [
        (ncf, 1 - ncf, fractions_over(prices, det))
        for ncf, _, (det, prices), _ in amcc.lp._certified_lps(models, compatible=True)
    ]
    assert presolved == list(map(certified_fraction, models))
    full = [
        (ncf, fractions_over(prices, det), pivots)
        for ncf, _, (det, prices), pivots in amcc.lp._certified_lps(models)
    ]
    assert full == [(r.ncf, r.prices, r.pivots) for r in map(contextual_fraction, models)]


def _solved_rhss(monkeypatch):
    """The rhs of every LP handed to _run_lockstep, in call order."""
    solved = []
    run = amcc.lp._run_lockstep

    def spy(incidence, rhss):
        solved.extend(map(tuple, rhss))
        return run(incidence, rhss)

    monkeypatch.setattr(amcc.lp, "_run_lockstep", spy)
    return solved


@pytest.mark.parametrize("at", [0, 2, 5])
def test_a_signaling_model_is_refused_before_the_models_after_it_are_solved(monkeypatch, at):
    # the reduceat over each scenario's numerators flags the signaling
    # model; it raises the loop's refusal, and only the models before it
    # reach the LP
    models = _random_models(bell_scenario(2, 2, 2), 3, 21) + _random_models(bell_scenario(3, 2, 2), 3, 22)
    models.insert(at, _signaling(models[at]))
    expected = _outcome(_loop, models)
    assert expected[0].__name__ == "PreconditionError"
    solved = _solved_rhss(monkeypatch)
    assert _outcome(_pooled, models) == expected
    before = [rhs for rhss in _groups(models[:at]).values() for rhs in rhss]
    assert sorted(solved) == sorted(map(tuple, before))


def _lowered_price(solution):
    """solution with every positive price lowered by 1: a global then
    collects too little, or the priced weights no longer total the
    value."""
    value, x, prices, det, pivots = solution
    return value, x, tuple(y - 1 if y > 0 else y for y in prices), det, pivots


def _raised_weight(solution):
    """solution with one weight raised by 1: the weights no longer total
    the value."""
    value, x, prices, det, pivots = solution
    x = list(x)
    x[0] += 1
    return value, tuple(x), prices, det, pivots


@pytest.mark.parametrize("lie", [_lowered_price, _raised_weight])
@pytest.mark.parametrize("at", [0, 3])
def test_a_lying_lockstep_gets_the_per_model_refusal(monkeypatch, lie, at):
    # the group's price and weight passes refuse model at with the very
    # message and details the one-model checks give the same lie told by
    # simplex_solve in the loop
    models = _random_models(bell_scenario(2, 2, 2), 5, 11)
    run, solve = amcc.lp._run_lockstep, amcc.lp.simplex_solve

    def lying_lockstep(incidence, rhss):
        out = run(incidence, rhss)
        out[at] = lie(out[at])
        return out

    calls = []

    def lying_solve(incidence, rhs):
        calls.append(rhs)
        out = solve(incidence, rhs)
        return lie(out) if len(calls) == at + 1 else out

    monkeypatch.setattr(amcc.lp, "_run_lockstep", lying_lockstep)
    with pytest.raises(VerificationError) as pooled:
        _pooled(models)
    monkeypatch.setattr(amcc.lp, "_run_lockstep", run)
    monkeypatch.setattr(amcc.lp, "simplex_solve", lying_solve)
    with pytest.raises(VerificationError) as looped:
        _loop(models)
    assert (str(pooled.value), pooled.value.details) == (str(looped.value), looped.value.details)


def test_an_lp_past_the_int32_cap_is_handed_off_mid_solve(monkeypatch):
    # 1/1499 of the uniform model puts rhs entries between 11985 and 44949,
    # so the lanes start below the int32 cap (46340), and their running
    # bounds pass it a few pivots in: each LP goes on in _run_array, as
    # int64, and pivots as it does alone
    sc = bell_scenario(3, 2, 2)
    t = rat(1, 1499)
    models = [mix_models([(t, uniform_model(sc)), (1 - t, m)]) for m in _random_models(sc, 3, 9)]
    rhss = _groups(models)[sc]
    assert 46340 ** 2 + 46340 < 2**31 <= 46341 ** 2 + 46341
    assert max(map(max, rhss)) <= 46340
    # each hand-off, then the pivot and det of each array pivot after it
    seen = []
    run, pivot = amcc.lp._run_array, amcc.lp._pivot_array

    def resume(tableau, basis, pivots=0, work=0):
        seen.append(("resumed at", pivots))
        return run(tableau, basis, pivots, work)

    def step(tableau, leave, enter, det, bound):
        seen.append((int(tableau[leave, enter]), det))
        return pivot(tableau, leave, enter, det, bound)

    monkeypatch.setattr(amcc.lp, "_run_array", resume)
    monkeypatch.setattr(amcc.lp, "_pivot_array", step)
    pooled = _pooled(models)
    monkeypatch.setattr(amcc.lp, "_run_array", run)
    monkeypatch.setattr(amcc.lp, "_pivot_array", pivot)
    assert pooled == _loop(models)
    # an LP left the lockstep part way, before a unit pivot at det 1: its
    # bound, not its pivot, sent it on
    at = seen.index(next(e for e in seen if e[0] == "resumed at"))
    assert seen[at][1] > 0 and seen[at + 1] == (1, 1)
    _assert_lockstep_pivots_as_alone(models)


def _refusal_or(call):
    """call(), or the message and details of the VerificationError it raises."""
    try:
        return call()
    except VerificationError as exc:
        return str(exc), exc.details


_PRICE_LIES = {
    "none": lambda y, det, ncf: (y, ncf),
    "ncf-above-1": lambda y, det, ncf: (y, ncf + 2),
    "negative": lambda y, det, ncf: ([-1] + y[1:], ncf),
    "lowered": lambda y, det, ncf: ([p - 1 if p > 0 else p for p in y], ncf),
    "raised": lambda y, det, ncf: ([p + det for p in y], ncf),
}
_WEIGHT_LIES = {
    "none": lambda w, den, ncf: (w, ncf),
    # the first negative weight is reported, by its global
    "negative": lambda w, den, ncf: (w[:2] + [-w[2] - 1] + w[3:], ncf),
    "total-off": lambda w, den, ncf: (w, ncf + rat(1, 3 * ncf.denominator)),
    # no slot weighs more than 1, so two more on one global overload it
    "overloaded": lambda w, den, ncf: ([w[0] + 2 * den] + w[1:], ncf + 2),
}


def _assert_group_checks_are_alone(models, price_lies, weight_lies):
    # each model of a scenario, its certificates told one lie each or
    # none: every row of the array passes is what the one-model check
    # returns or raises on it
    for sc in _groups(models):
        group = [m for m in models if m.scenario == sc]
        kept = range(incidence_matrix(sc).shape[1])
        cases = []
        solved = amcc.lp._certified_lps(group)
        for (ncf, (den, w, _), (det, y), _), p_lie, w_lie in zip(solved, price_lies, weight_lies):
            y, price_ncf = _PRICE_LIES[p_lie](list(y), det, ncf)
            w, weight_ncf = _WEIGHT_LIES[w_lie](list(w), den, ncf)
            cases.append((y, det, price_ncf, w, den, weight_ncf))
        values = _slot_rows(group)
        y, det, price_ncf, w, den, weight_ncf = zip(*cases)
        refusals = amcc.lp._price_refusals(group, values, y, det, price_ncf)
        loads = amcc.lp._weight_loads(group, values, kept, w, den, weight_ncf)
        for m, case, refusal, load in zip(group, cases, refusals, loads):
            y, det, price_ncf, w, den, weight_ncf = case
            alone = _refusal_or(lambda: amcc.lp._check_prices(m, y, det, price_ncf))
            assert alone == (None if refusal is None else (str(refusal), refusal.details))
            alone = _refusal_or(lambda: amcc.lp._check_weights(m, kept, w, den, weight_ncf))
            refused = isinstance(load, Exception)
            assert alone == ((str(load), load.details) if refused else load.tolist())


_LIES = st.tuples(
    st.lists(st.sampled_from(sorted(_PRICE_LIES)), min_size=8, max_size=8),
    st.lists(st.sampled_from(sorted(_WEIGHT_LIES)), min_size=8, max_size=8),
)


@given(_pools(), _LIES)
@settings(max_examples=30, deadline=None)
def test_the_group_checks_are_the_one_model_checks_row_by_row(models, lies):
    _assert_group_checks_are_alone(models, *lies)


@given(_LIES)
@settings(max_examples=10, deadline=None)
def test_the_group_checks_hold_on_python_ints(lies):
    # dens past 2**64 put the numerators, and so every sum, on Python ints
    sc = bell_scenario(2, 2, 2)
    t = rat(1, 2**64 + 13)
    models = [mix_models([(t, uniform_model(sc)), (1 - t, m)]) for m in _random_models(sc, 3, 17)]
    assert _slot_rows(models).dtype == object
    _assert_group_checks_are_alone(models, *lies)


# the largest entry a lockstep lane steps with: b + b * b < 2**31
_CAP = (isqrt(4 * 2**31 - 3) - 1) // 2


@st.composite
def _ratio_rows(draw):
    """(heads, rhs, basis) of a ratio test whose entries are at most _CAP,
    heads positive: random rows, rows whose ratios tie exactly (multiples
    of one pair), rows a unit apart from a tie and rows at the pair's
    Farey neighbour, whose ratio differs from it by 1 / (head * head'),
    so that the least ratio is often shared or nearly shared."""
    a, b = draw(st.integers(1, _CAP)), draw(st.integers(0, _CAP))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["random", "tie", "near", "farey"]))
        if kind == "random":
            rows.append((draw(st.integers(1, _CAP)), draw(st.integers(0, _CAP))))
        elif kind == "farey":
            # b' * a - b * a' = 1 with 1 <= a' <= a, when b / a is in lowest terms
            g = gcd(a, b)
            head = (-pow(b // g, -1, a // g)) % (a // g) or a // g
            rows.append((head, min(_CAP, (1 + (b // g) * head) // (a // g))))
        else:
            k = draw(st.integers(1, max(1, _CAP // max(a, b, 1))))
            head, rhs = k * a, k * b
            if kind == "near":
                rhs = min(_CAP, max(0, rhs + draw(st.sampled_from([-1, 1]))))
            rows.append((head, rhs))
    heads, rhs = zip(*rows)
    basis = draw(st.permutations(range(len(rows) + 8)))[: len(rows)]
    return list(heads), list(rhs), basis


@given(_ratio_rows())
@settings(max_examples=300, deadline=None)
def test_float_quotients_pick_the_exact_leaving_row(case):
    # the lockstep's ratio test on int32 lanes, float64 quotients alone:
    # with every entry at most _CAP it is _leaving_row's exact
    # cross-multiplied choice
    assert _CAP == 46340 < 2**16
    heads, rhs, basis = case
    lane = [np.array([row], np.int32) for row in (heads, rhs, basis)]
    [leave] = amcc.lp._float_leaving_rows(*lane).tolist()
    assert leave == amcc.lp._leaving_row(range(len(heads)), heads, rhs, basis)

"""Empirical models: validation, marginals, reference corpus, serialization."""

import dataclasses
import json
import random
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amcc.affine import classify, solve_support
import amcc.lp
import amcc.model
from amcc.errors import PreconditionError, ResourceLimitError
from amcc.lp import certified_fraction, contextual_fraction
from amcc.model import (
    EmpiricalModel,
    _model_from_ints,
    _party_rows,
    _party_settings,
    _require_party_marginals,
    context_containing,
    corpus,
    corpus_names,
    deterministic_model,
    ghz_322,
    is_maximal_marginals,
    is_no_signaling,
    marginalize,
    mix_models,
    model_from_json,
    model_to_csv,
    model_to_json,
    parity_amcc_422,
    party_setting_subsets,
    pr_box,
    uniform_marginals,
    uniform_model,
)
from amcc.parity import (
    ParitySystem,
    build_symmetric_model,
    parity_satisfiable,
    parity_system_from_vector,
)
from amcc.possibilistic import possibilistic_no_signaling, strong_contextuality, support_of
from amcc.rational import ONE, ZERO, over_lcm, rat, rat_str
from amcc.scenario import (
    MeasurementScenario,
    bell_scenario,
    global_outcomes,
    global_size,
    restrict,
    scenario_from_json,
    scenario_to_json,
    section_index,
    section_outcomes,
    section_size,
    unpack,
)
from amcc.verify import _random_models, _random_pool, random_no_signaling_model


def test_rows_must_be_distributions():
    sc = bell_scenario(1, 1, 2)
    EmpiricalModel(sc, ((rat(1, 2), rat(1, 2)),))
    with pytest.raises(ValueError, match=r"context \(0,\) weights must sum to 1"):
        EmpiricalModel(sc, ((rat(1, 2), rat(1, 3)),))
    with pytest.raises(ValueError, match=r"negative weight in context \(0,\)"):
        EmpiricalModel(sc, ((rat(3, 2), rat(-1, 2)),))
    # a negative entry is reported before a wrong sum
    with pytest.raises(ValueError, match="negative weight"):
        EmpiricalModel(sc, ((rat(1, 2), rat(-1, 3)),))
    with pytest.raises(ValueError, match=r"context \(0,\) needs 2 weights, got 1"):
        EmpiricalModel(sc, ((rat(1),),))
    with pytest.raises(ValueError, match="need one distribution per context"):
        EmpiricalModel(sc, ())
    # mixed denominators: exactly 1, and 1/1000 short of it
    sc3 = bell_scenario(1, 1, 4)
    row = (rat(1, 2), rat(1, 3), rat(1, 7), rat(1, 42))
    assert EmpiricalModel(sc3, (row,)).tables == (row,)
    with pytest.raises(ValueError, match="weights must sum to 1"):
        EmpiricalModel(sc3, (row[:3] + (rat(1, 42) - rat(1, 1000),),))
    # ints and strings are coerced; Fractions are kept as they are
    model = EmpiricalModel(sc3, (("1/2", 0, rat(1, 4), rat(1, 4)),))
    assert model.tables == ((rat(1, 2), ZERO, rat(1, 4), rat(1, 4)),)
    assert all(type(x) is Fraction for x in model.tables[0])
    # the tables and their rows may be iterators, read once
    rows = model.tables
    assert EmpiricalModel(sc3, (iter(r) for r in rows)) == model


def test_model_refuses_floats():
    sc = bell_scenario(1, 1, 2)
    with pytest.raises(TypeError):
        EmpiricalModel(sc, ((0.5, 0.5),))


def test_pr_box_supports_follow_the_xor_rule():
    for k in range(8):
        alpha, beta, gamma = k >> 2 & 1, k >> 1 & 1, k & 1
        m = pr_box(k)
        sc = m.scenario
        for ci, (x, y) in enumerate((x, y) for x in (0, 1) for y in (0, 1)):
            for si in range(4):
                a, b = section_outcomes(sc, ci, si)
                on = (a ^ b) == ((x & y) ^ (alpha & x) ^ (beta & y) ^ gamma)
                assert m.tables[ci][si] == (rat(1, 2) if on else ZERO)


def test_pr_boxes_are_pairwise_distinct():
    assert len({pr_box(k).tables for k in range(8)}) == 8


def test_pr_box_index_is_validated():
    with pytest.raises(ValueError):
        pr_box(8)
    with pytest.raises(ValueError):
        pr_box(-1)


def test_ghz_322_support_parity_tracks_double_primes():
    m = ghz_322()
    sc = m.scenario
    for ci in range(sc.n_contexts):
        settings = tuple(mi % 2 for mi in sc.cover[ci])
        want = 1 if sum(settings) == 2 else 0
        for si in range(section_size(sc, ci)):
            outs = section_outcomes(sc, ci, si)
            on = sum(outs) % 2 == want
            assert m.tables[ci][si] == (rat(1, 4) if on else ZERO)


def test_deterministic_model_is_a_point_mass():
    sc = bell_scenario(2, 2, 2)
    for gi in (0, 5, 15):
        m = deterministic_model(sc, gi)
        g = global_outcomes(sc, gi)
        for ci, ctx in enumerate(sc.cover):
            row = m.tables[ci]
            assert sum(row) == ONE
            assert sum(1 for w in row if w != 0) == 1
            picked = tuple(g[mi] for mi in ctx)
            si = next(i for i, w in enumerate(row) if w != 0)
            assert section_outcomes(sc, ci, si) == picked


def test_marginalize_respects_measurement_order():
    sc = bell_scenario(2, 2, 2)
    m = deterministic_model(sc, 0b0110)  # Y1=0 Y1'=1 Y2=1 Y2'=0
    marg = marginalize(m, 0, (2, 0))  # Y2 first, then Y1
    assert marg.measurements == (2, 0)
    assert marg.weight((1, 0)) == ONE
    marg_flip = marginalize(m, 0, (0, 2))
    assert marg_flip.weight((0, 1)) == ONE


def test_wide_contexts_are_packed_only_onto_the_measurements_asked_for():
    # one context of 14 binary measurements, 2^14 sections
    sc = bell_scenario(14, 1, 2)
    m = deterministic_model(sc, 1 << 13)  # measurement 0 gives 1, the rest 0
    assert marginalize(m, 0, (13, 0)).weights == (ZERO, ONE, ZERO, ZERO)
    assert marginalize(uniform_model(sc), 0, (3, 0)).weights == (Fraction(1, 4),) * 4
    assert is_no_signaling(m) == (True, None)
    # two contexts of 29 one-outcome measurements sharing 28: one section each
    n = 30
    sc = MeasurementScenario(
        tuple(f"m{i}" for i in range(n)), (1,) * n, (tuple(range(n - 1)), tuple(range(1, n)))
    )
    assert is_no_signaling(uniform_model(sc)) == (True, None)
    assert marginalize(uniform_model(sc), 1, range(n - 1, 0, -1)).weights == (ONE,)


def test_marginalize_rejects_measurements_outside_the_context():
    m = pr_box(0)
    with pytest.raises(ValueError):
        marginalize(m, 0, (1,))  # Y1' is not in context (Y1, Y2)
    with pytest.raises(ValueError):
        marginalize(m, 0, (0, 0))


def test_corpus_models_are_no_signaling():
    for name in corpus_names():
        ok, wit = is_no_signaling(corpus(name))
        assert ok, f"{name} signals: {wit}"


def test_signaling_witness_names_the_disagreeing_pair():
    sc = bell_scenario(2, 2, 2)
    tables = [
        (ONE, ZERO, ZERO, ZERO),
        (rat(1, 4),) * 4,
        (rat(1, 4),) * 4,
        (rat(1, 4),) * 4,
    ]
    m = EmpiricalModel(sc, tuple(tables))
    ok, wit = is_no_signaling(m)
    assert not ok
    ci, cj, shared, u, a, b = wit
    assert (ci, cj) == (0, 1)
    assert shared == (0,)
    assert (a, b) == (ONE, rat(1, 2))


def test_signaling_witness_is_the_first_violation_in_overlaps_order():
    # (3,2,2) context 3 is (0,1,1). Made deterministic, it first disagrees
    # with context 0, two settings apart; the first pair one setting apart
    # that fails is (1, 3)
    sc = bell_scenario(3, 2, 2)
    tables = list(uniform_model(sc).tables)
    tables[3] = deterministic_model(sc, 0).tables[3]
    ok, wit = is_no_signaling(EmpiricalModel(sc, tuple(tables)))
    assert ok is False
    assert wit == (0, 3, (0,), (0,), rat(1, 2), ONE)


# reference: the Fraction marginal comparison the integer check replaced,
# decoding sections by enumerating outcome tuples in packed order


def _fraction_marginal(model, ci, shared):
    sc = model.scenario
    ctx = sc.cover[ci]
    pos = [ctx.index(m) for m in shared]
    acc = {}
    sections = product(*(range(sc.outcomes[m]) for m in ctx))
    for s, w in zip(sections, model.tables[ci]):
        u = tuple(s[p] for p in pos)
        acc[u] = acc.get(u, ZERO) + w
    return acc


def _fraction_is_no_signaling(model):
    sc = model.scenario
    for ci, cj in combinations(range(sc.n_contexts), 2):
        shared = tuple(m for m in sc.cover[ci] if m in sc.cover[cj])
        if not shared:
            continue
        mi = _fraction_marginal(model, ci, shared)
        mj = _fraction_marginal(model, cj, shared)
        for u in product(*(range(sc.outcomes[m]) for m in shared)):
            a, b = mi.get(u, ZERO), mj.get(u, ZERO)
            if a != b:
                return False, (ci, cj, shared, u, a, b)
    return True, None


# the no-signaling check sums every overlapping pair's rows in one pass;
# these shapes cover two to four parties, more settings and more outcomes
NO_SIGNALING_SHAPES = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (4, 2, 2))


@st.composite
def _point_mass_mixtures(draw, sc):
    """Mixtures of up to three point masses and the uniform model."""
    globals_ = draw(st.lists(st.integers(0, global_size(sc) - 1), max_size=3))
    terms = [(rat(1, len(globals_) + 1), deterministic_model(sc, gi)) for gi in globals_]
    return mix_models(terms + [(rat(1, len(globals_) + 1), uniform_model(sc))])


@st.composite
def _no_signaling_models(draw, sc):
    """A random no-signaling model or, always past binary outcomes, where
    parity models do not exist, a mixture of point masses."""
    if max(sc.outcomes) == 2 and draw(st.booleans()):
        return random_no_signaling_model(sc, random.Random(draw(st.integers(0, 2**32 - 1))))
    return draw(_point_mass_mixtures(sc))


@st.composite
def _models(draw):
    """No-signaling models, some made signaling by moving part of one
    section's mass to another section of the same context, or by taking
    one context's row from another no-signaling model."""
    sc = bell_scenario(*draw(st.sampled_from(NO_SIGNALING_SHAPES)))
    model = draw(_no_signaling_models(sc))
    change = draw(st.sampled_from(["none", "move", "swap"]))
    ci = draw(st.integers(0, sc.n_contexts - 1))
    row = list(model.tables[ci])
    if change == "move":
        src = draw(st.sampled_from([si for si, w in enumerate(row) if w]))
        dst = draw(st.sampled_from([si for si in range(len(row)) if si != src]))
        moved = row[src] * Fraction(draw(st.integers(1, 4)), 4)
        row[src] -= moved
        row[dst] += moved
    elif change == "swap":
        row = draw(_no_signaling_models(sc)).tables[ci]
    return EmpiricalModel(sc, model.tables[:ci] + (tuple(row),) + model.tables[ci + 1 :])


# a weight of 1/(10**20 + 7) puts the integer view's denominator past
# 2**62, where the checks sum Python ints in place of int64
HUGE = 10**20 + 7


def _huge_denominator_model(sc, gi):
    return mix_models(
        [(rat(1, HUGE), deterministic_model(sc, gi)), (rat(HUGE - 1, HUGE), uniform_model(sc))]
    )


def _shifted_first_row(model):
    # half of section 0's weight moved to section 1: signaling
    row = list(model.tables[0])
    row[0], row[1] = row[0] / 2, row[1] + row[0] / 2
    return EmpiricalModel(model.scenario, (tuple(row),) + model.tables[1:])


@given(_models())
@example(_huge_denominator_model(bell_scenario(3, 2, 2), 5))
@example(_shifted_first_row(_huge_denominator_model(bell_scenario(3, 2, 2), 5)))
@settings(max_examples=100, deadline=None)
def test_integer_no_signaling_check_matches_the_fraction_one(model):
    ok, wit = is_no_signaling(model)
    assert (ok, wit) == _fraction_is_no_signaling(model)
    if not ok:
        assert all(type(x) is Fraction for x in wit[4:])


def test_maximal_marginals_on_the_corpus():
    expectations = {
        "pr_box(0)": True,
        "ghz_322": True,
        "parity_amcc_422": True,
        "uniform(2,2,2)": True,
        "deterministic(2,2,2;0)": False,
    }
    for name, want in expectations.items():
        got, _ = is_maximal_marginals(corpus(name))
        assert got == want, name


def test_maximal_marginals_witness_is_a_real_violation():
    m = corpus("deterministic(2,2,2;0)")
    ok, wit = is_maximal_marginals(m)
    assert not ok
    ms, outs, got, want = wit
    table = marginalize(m, context_containing(m.scenario, ms), ms)
    assert table.weight(outs) == got
    assert got != want


def test_maximal_marginals_needs_party_structure():
    from amcc.scenario import MeasurementScenario

    sc = MeasurementScenario(
        measurements=("a", "b", "c"),
        outcomes=(2, 2, 2),
        cover=((0, 1), (0, 2), (1, 2)),
    )
    rows = tuple((rat(1, 4),) * 4 for _ in range(3))
    with pytest.raises(PreconditionError):
        is_maximal_marginals(EmpiricalModel(sc, rows))


def test_maximal_marginals_requires_no_signaling():
    sc = bell_scenario(2, 2, 2)
    tables = (
        (ONE, ZERO, ZERO, ZERO),
        (rat(1, 4),) * 4,
        (rat(1, 4),) * 4,
        (rat(1, 4),) * 4,
    )
    # the refusal of cf and classify, naming the pair and the outcome
    with pytest.raises(
        PreconditionError,
        match=r"^model is signaling: contexts 0 and 1 disagree on Y1 @ 0: 1 vs 1/2$",
    ):
        is_maximal_marginals(EmpiricalModel(sc, tables))


# reference: the Fraction bodies the integer uniform_marginals and mix_models
# replaced


def _fraction_uniform_marginals(model):
    sc = model.scenario
    for ms in party_setting_subsets(sc):
        ci = context_containing(sc, ms)
        marg = marginalize(model, ci, ms)
        expected = Fraction(1, len(marg.weights))
        for i, w in enumerate(marg.weights):
            if w != expected:
                return False, (ms, unpack(i, marg.outcomes), w, expected)
    return True, None


def _fraction_mix(pairs):
    sc = pairs[0][1].scenario
    return tuple(
        tuple(
            sum((w * m.tables[ci][si] for w, m in pairs), ZERO)
            for si in range(section_size(sc, ci))
        )
        for ci in range(sc.n_contexts)
    )


@st.composite
def _mixture_terms(draw):
    """(weight, model) pairs on one (2,2,2)-(4,2,2) or (2,2,3) scenario: one to
    three of random no-signaling, uniform and point-mass models, weighted
    over unlike denominators, some weights zero."""
    sc = bell_scenario(*draw(st.sampled_from([(2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 2, 3)])))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    makers = {
        "random": lambda: random_no_signaling_model(sc, rng),
        "uniform": lambda: uniform_model(sc),
        "point": lambda: deterministic_model(sc, rng.randrange(global_size(sc))),
    }
    if sc.outcomes[0] != 2:
        del makers["random"]  # binary outcomes only
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=1, max_size=3))
    raw = [Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 12))) for _ in kinds]
    if not any(raw):
        raw[0] = ONE
    total = sum(raw)
    return [(w / total, makers[kind]()) for w, kind in zip(raw, kinds)]


@given(_mixture_terms())
@settings(max_examples=60, deadline=None)
def test_integer_mixture_matches_the_fraction_sum(pairs):
    tables = mix_models(pairs).tables
    assert tables == _fraction_mix(pairs)
    assert all(type(x) is Fraction for row in tables for x in row)


@given(_mixture_terms())
@example(
    [
        (rat(1, HUGE), deterministic_model(bell_scenario(3, 2, 2), 5)),
        (rat(HUGE - 1, HUGE), uniform_model(bell_scenario(3, 2, 2))),
    ]
)
@example(
    [
        (rat(1, HUGE), parity_amcc_422()),
        (rat(HUGE - 1, HUGE), uniform_model(bell_scenario(4, 2, 2))),
    ]
)
@settings(max_examples=60, deadline=None)
def test_integer_marginal_check_matches_the_fraction_one(pairs):
    model = mix_models(pairs)
    ok, wit = uniform_marginals(model)
    assert (ok, wit) == _fraction_uniform_marginals(model)
    if not ok:
        assert all(type(x) is Fraction for x in wit[2:])


def test_party_setting_subsets_cover_all_proper_sizes():
    sc = bell_scenario(3, 2, 2)
    subsets = list(party_setting_subsets(sc))
    assert len(subsets) == len(set(subsets))
    # 3 parties, 2 settings: k=1 gives 6, k=2 gives 3*4=12
    assert sum(1 for ms in subsets if len(ms) == 1) == 6
    assert sum(1 for ms in subsets if len(ms) == 2) == 12
    assert all(len(ms) < 3 for ms in subsets)


# parties of unlike measurement and outcome counts: party 0 holds a binary
# and a ternary measurement, party 1 one binary, party 2 two binary ones
UNLIKE_PARTIES = MeasurementScenario(
    measurements=("a", "a'", "b", "c", "c'"),
    outcomes=(2, 3, 2, 2, 2),
    cover=((0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4)),
    parties=(0, 0, 1, 2, 2),
)


@pytest.mark.parametrize(
    "sc",
    [bell_scenario(n, 2, 2) for n in (2, 3, 4, 5)]
    + [bell_scenario(2, 3, 3), bell_scenario(3, 3, 2), UNLIKE_PARTIES],
    ids=["222", "322", "422", "522", "233", "332", "unlike"],
)
def test_the_party_marginal_guard_counts_the_table_it_holds(monkeypatch, sc):
    # the guard counts by arithmetic the rows _party_rows lists, and bounds
    # its entries by the measurement tuples times the largest context; a
    # limit one below either count refuses
    slot, _, _, rows, _ = _party_rows(sc)
    n_parties = len(set(sc.parties))
    sizes = range(1, n_parties)
    tuples = [list(_party_settings(sc, k)) for k in range(n_parties + 1)]
    assert list(party_setting_subsets(sc)) == [ms for k in sizes for ms in tuples[k]]
    cells = sum(map(len, tuples[1:-1])) * max(sc.section_sizes)
    assert len(slot) <= cells
    if len(set(sc.section_sizes)) == 1:
        assert len(slot) == cells
    monkeypatch.setattr(amcc.model, "MAX_GLOBALS", len(rows))
    monkeypatch.setattr(amcc.model, "MAX_TABLE_CELLS", cells)
    _require_party_marginals(sc, sizes)
    monkeypatch.setattr(amcc.model, "MAX_GLOBALS", len(rows) - 1)
    with pytest.raises(ResourceLimitError, match=f"^{len(rows)} rows in the party-marginal table"):
        _require_party_marginals(sc, sizes)
    monkeypatch.setattr(amcc.model, "MAX_GLOBALS", len(rows))
    monkeypatch.setattr(amcc.model, "MAX_TABLE_CELLS", cells - 1)
    with pytest.raises(ResourceLimitError, match=f"^{cells} cells in the party-marginal table"):
        _require_party_marginals(sc, sizes)
    # one size at a time: the outcomes of its tuples
    monkeypatch.setattr(amcc.model, "MAX_TABLE_CELLS", cells)
    for k in sizes:
        outcomes = sum(prod(sc.outcomes[m] for m in ms) for ms in tuples[k])
        monkeypatch.setattr(amcc.model, "MAX_GLOBALS", outcomes)
        _require_party_marginals(sc, [k])
        monkeypatch.setattr(amcc.model, "MAX_GLOBALS", outcomes - 1)
        with pytest.raises(ResourceLimitError, match=f"^{outcomes} rows"):
            _require_party_marginals(sc, [k])


def test_mix_models_blends_tables_exactly():
    sc = bell_scenario(2, 2, 2)
    mixed = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    for ci in range(4):
        for si in range(4):
            want = rat(3, 4) * pr_box(0).tables[ci][si] + rat(1, 16)
            assert mixed.tables[ci][si] == want


def test_mix_models_validates_inputs():
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(PreconditionError):
        mix_models([])
    with pytest.raises(PreconditionError):
        mix_models([(rat(1, 2), pr_box(0))])
    with pytest.raises(PreconditionError):
        mix_models([(rat(1, 2), pr_box(0)), (rat(1, 2), ghz_322())])
    with pytest.raises(PreconditionError):
        mix_models([(rat(3, 2), pr_box(0)), (rat(-1, 2), uniform_model(sc))])


@given(st.integers(0, 7), st.integers(0, 15), st.integers(1, 7))
@settings(max_examples=25, deadline=None)
def test_mixtures_of_no_signaling_models_stay_no_signaling(k, gi, num):
    sc = bell_scenario(2, 2, 2)
    w = rat(num, 8)
    mixed = mix_models(
        [(w, pr_box(k)), (1 - w, deterministic_model(sc, gi))]
    )
    ok, _ = is_no_signaling(mixed)
    assert ok


def test_corpus_names_parse_and_roundtrip():
    for name in corpus_names():
        m = corpus(name)
        again = model_from_json(json.loads(json.dumps(model_to_json(m))))
        assert again == m


def test_unknown_corpus_name_is_rejected():
    with pytest.raises(ValueError):
        corpus("pr_box(9)")
    with pytest.raises(ValueError):
        corpus("nonsense")


def test_model_json_uses_rational_strings():
    doc = model_to_json(pr_box(0))
    assert doc["scenario"] == {"parties": 2, "settings": 2, "outcomes": 2}
    flat = [w for row in doc["tables"] for w in row]
    assert set(flat) == {"0", "1/2"}


def test_model_json_rejects_floats():
    doc = model_to_json(pr_box(0))
    doc["tables"][0][0] = 0.5
    with pytest.raises(TypeError):
        model_from_json(doc)


def test_model_csv_is_stable_and_headed():
    csv1 = model_to_csv(parity_amcc_422())
    csv2 = model_to_csv(parity_amcc_422())
    assert csv1 == csv2
    lines = csv1.splitlines()
    assert lines[0].startswith("context,")
    assert len([ln for ln in lines if ln.startswith("(")]) == 32  # two half-tables


def test_uniform_model_weights():
    sc = bell_scenario(2, 2, 3)
    m = uniform_model(sc)
    assert all(w == rat(1, 9) for row in m.tables for w in row)


def test_deterministic_index_is_validated():
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(ValueError):
        deterministic_model(sc, global_size(sc))


# ---------------------------------------------------------------------------
# the integer view the validation keeps, and parsing each literal once


@given(
    st.lists(
        st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**4)),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=60, deadline=None)
def test_over_lcm_puts_every_entry_over_the_lcm_of_the_denominators(values):
    den, nums = over_lcm(values)
    assert den == lcm(*(Fraction(x).denominator for x in values))
    assert len(nums) == len(values)
    assert all(type(n) is int and Fraction(n, den) == x for n, x in zip(nums, values))


@given(_mixture_terms())
# rows over 1 and 2: the first is the one that must be rescaled
@example([(ONE, EmpiricalModel(bell_scenario(1, 2, 2), ((ONE, ZERO), (rat(1, 2), rat(1, 2)))))])
@settings(max_examples=40, deadline=None)
def test_the_integer_view_is_every_rows_numerators_over_one_denominator(pairs):
    model = mix_models(pairs)
    den, rows = model.den, model.rows
    assert den == lcm(*(w.denominator for row in model.tables for w in row))
    assert len(rows) == len(model.tables)
    for nums, row in zip(rows, model.tables):
        assert len(nums) == len(row) and sum(nums) == den
        assert all(type(x) is int and Fraction(x, den) == w for x, w in zip(nums, row))


def test_equal_models_stay_equal_and_hash_alike():
    sc = bell_scenario(2, 2, 2)
    mixed = mix_models([(rat(1, 2), pr_box(0)), (rat(1, 2), uniform_model(sc))])
    doc = model_to_json(mixed)
    doc["tables"] = [[f"{2 * rat(x).numerator}/{2 * rat(x).denominator}" for x in row]
                     for row in doc["tables"]]
    decoded = model_from_json(doc)
    assert decoded == mixed and hash(decoded) == hash(mixed)
    assert repr(decoded) == repr(mixed)
    assert [f.name for f in dataclasses.fields(EmpiricalModel)] == ["scenario", "den", "rows"]
    assert "_int_view" not in repr(mixed)


@given(_mixture_terms(), st.booleans(), st.integers(2, 5))
@example(
    [
        (rat(1, HUGE), deterministic_model(bell_scenario(3, 2, 2), 5)),
        (rat(HUGE - 1, HUGE), uniform_model(bell_scenario(3, 2, 2))),
    ],
    True,
    3,
)
@settings(max_examples=40, deadline=None)
def test_both_constructors_give_one_canonical_form(pairs, decoded, k):
    # a mixed model, or one decoded from JSON with every weight written
    # over k times its denominator; either way the fields are the weights
    # in lowest terms, and both constructors give back the same model
    model = mix_models(pairs)
    expected = _reference_validation(model.scenario, _fraction_mix(pairs))
    if decoded:
        doc = model_to_json(model)
        doc["tables"] = [[f"{k * rat(x).numerator}/{k * rat(x).denominator}" for x in row]
                         for row in doc["tables"]]
        model = model_from_json(doc)
        expected = _reference_validation(model.scenario, doc["tables"])
    assert model.tables == expected
    assert model.den == lcm(*(w.denominator for row in expected for w in row))
    assert gcd(model.den, *(x for nums in model.rows for x in nums)) == 1
    rebuilt = EmpiricalModel(model.scenario, model.tables)
    assert rebuilt == model and hash(rebuilt) == hash(model)
    scaled = _model_from_ints(model.scenario, k * model.den, [[k * x for x in nums]
                                                               for nums in model.rows])
    assert scaled == model and hash(scaled) == hash(model)


def test_model_json_parses_equal_literals_to_equal_weights():
    doc = model_to_json(pr_box(0))
    assert doc["tables"][0][0] == "1/2"
    doc["tables"][0][0] = "2/4"
    assert model_from_json(doc) == pr_box(0)


def test_model_json_rejects_a_float_after_an_equal_int():
    # 1 and 1.0 hash alike, so the once-per-literal parse keys on the type
    doc = model_to_json(deterministic_model(bell_scenario(2, 2, 2), 0))
    doc["tables"][0] = [1, 0, 0, 0]
    doc["tables"][1] = [1.0, 0, 0, 0]
    with pytest.raises(TypeError, match="float"):
        model_from_json(doc)


def test_model_json_names_the_first_bad_literal():
    doc = model_to_json(pr_box(0))
    doc["tables"][1][2] = "1/x"
    doc["tables"][2][0] = "y"
    with pytest.raises(ValueError) as exc:
        model_from_json(doc)
    with pytest.raises(ValueError) as first:
        rat("1/x")
    assert str(exc.value) == str(first.value)
    doc["tables"][1][2] = ["1/2"]
    with pytest.raises(TypeError) as exc:
        model_from_json(doc)
    with pytest.raises(TypeError) as first:
        rat(["1/2"])
    assert str(exc.value) == str(first.value)


# ---------------------------------------------------------------------------
# the integer constructors against the Fraction forms they replaced: every
# model below is built both ways and must come out equal, integer view too


def _reference_validation(scenario, tables):
    """EmpiricalModel's checks as written before its rows were checked all
    at once: row by row, each converted to Fractions, then over its own
    lcm. Returns the converted rows."""
    if len(tables) != scenario.n_contexts:
        raise ValueError("need one distribution per context")
    rows = []
    for ci, row in enumerate(tables):
        want = section_size(scenario, ci)
        if len(row) != want:
            raise ValueError(f"context {scenario.cover[ci]} needs {want} weights, got {len(row)}")
        row = tuple(x if type(x) is Fraction else rat(x) for x in row)
        den, nums = over_lcm(row)
        if min(nums) < 0:
            raise ValueError(f"negative weight in context {scenario.cover[ci]}")
        if sum(nums) != den:
            raise ValueError(f"context {scenario.cover[ci]} weights must sum to 1")
        rows.append(row)
    return tuple(rows)


def _reference_deterministic(scenario, gi):
    """The point mass at global gi, decoded section by section."""
    g = global_outcomes(scenario, gi)
    rows = []
    for ci, ctx in enumerate(scenario.cover):
        row = [ZERO] * section_size(scenario, ci)
        row[section_index(scenario, ci, restrict(scenario, g, ctx))] = ONE
        rows.append(tuple(row))
    return EmpiricalModel(scenario, tuple(rows))


def _reference_parity_tables(scenario, parities):
    """Uniform weight on each context's sections whose decoded outcome bits
    XOR to its parity."""
    rows = []
    for ci in range(scenario.n_contexts):
        size = section_size(scenario, ci)
        keep = [
            si for si in range(size) if sum(section_outcomes(scenario, ci, si)) % 2 == parities[ci]
        ]
        row = [ZERO] * size
        for si in keep:
            row[si] = Fraction(1, len(keep))
        rows.append(tuple(row))
    return tuple(rows)


def _reference_random_model(scenario, rng):
    """random_no_signaling_model as it was written on validated models: the
    same draws in the same order, mixed in Fractions."""

    def parity_term():
        vec = rng.randrange(1 << scenario.n_contexts)
        parities = [vec >> ci & 1 for ci in range(scenario.n_contexts)]
        return EmpiricalModel(scenario, _reference_parity_tables(scenario, parities))

    if rng.randrange(4) == 0:
        return parity_term()
    terms = []
    if rng.randrange(2) == 0:
        terms.append(parity_term())
    for _ in range(rng.randrange(1, 4)):
        terms.append(_reference_deterministic(scenario, rng.randrange(global_size(scenario))))
    weights = [rat(rng.randrange(1, 9)) for _ in terms]
    total = sum(weights, ZERO)
    return EmpiricalModel(scenario, _fraction_mix([(w / total, m) for w, m in zip(weights, terms)]))


def _same_model(model, reference):
    assert model == reference
    assert (model.den, model.rows) == (reference.den, reference.rows)
    assert all(type(x) is Fraction for row in model.tables for x in row)


# a cover of unlike contexts: two sections of one, four of the other
UNEVEN = MeasurementScenario(
    measurements=("a", "b", "c"), outcomes=(2, 2, 2), cover=((0,), (1, 2))
)


@pytest.mark.parametrize(
    "sc",
    [bell_scenario(*shape) for shape in ((2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2), (2, 2, 3))]
    + [MeasurementScenario(
        measurements=("a", "b", "c", "d"), outcomes=(2, 3, 2, 2), cover=((0, 1), (1, 2), (2, 3))
    )],
    ids=["222", "322", "422", "232", "223", "chain"],
)
def test_deterministic_model_matches_the_decoded_point_mass(sc):
    for gi in range(global_size(sc)):
        _same_model(deterministic_model(sc, gi), _reference_deterministic(sc, gi))
    for gi in (-1, global_size(sc), 2**70):
        with pytest.raises(ValueError, match=rf"^global section {gi} out of range$"):
            deterministic_model(sc, gi)


@pytest.mark.parametrize(
    "sc, vectors",
    [
        (bell_scenario(2, 2, 2), range(16)),
        (bell_scenario(3, 2, 2), range(256)),
        (bell_scenario(4, 2, 2), [0, 0x1C00, 0xFFFF] + random.Random(4).sample(range(1 << 16), 40)),
        (UNEVEN, range(4)),
    ],
    ids=["222", "322", "422", "uneven"],
)
def test_symmetric_models_match_the_decoded_parity_tables(sc, vectors):
    for vec in vectors:
        system = parity_system_from_vector(sc, vec)
        reference = EmpiricalModel(sc, _reference_parity_tables(sc, system.parities))
        _same_model(build_symmetric_model(system), reference)


def test_corpus_parity_models_match_the_decoded_parity_tables():
    for model in [pr_box(k) for k in range(8)] + [ghz_322(), parity_amcc_422()]:
        sc = model.scenario
        parities = [sum(bits) % 2 for bits in (
            section_outcomes(sc, ci, row.index(next(w for w in row if w)))
            for ci, row in enumerate(model.tables)
        )]
        _same_model(model, EmpiricalModel(sc, _reference_parity_tables(sc, parities)))


@pytest.mark.parametrize("parties", [2, 3, 4])
def test_random_models_match_the_fraction_mixture_draw_for_draw(parties):
    sc = bell_scenario(parties, 2, 2)
    for seed in range(200):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        _same_model(random_no_signaling_model(sc, rng), _reference_random_model(sc, reference_rng))
        assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize(
    "sc",
    [bell_scenario(2, 2, 2), bell_scenario(3, 2, 2), bell_scenario(4, 2, 2), UNEVEN],
    ids=["222", "322", "422", "uneven"],
)
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_random_pools_match_the_fraction_mixture_model_by_model(sc, seed):
    # the pool's one integer matrix against the Fraction mixture of every
    # draw; the pool, the generator looped over one rng and the reference
    # leave their rngs in one state
    reference_rng = random.Random(seed)
    reference = [_reference_random_model(sc, reference_rng) for _ in range(60)]
    pool_rng, shared_rng = random.Random(seed), random.Random(seed)
    pools = (
        _random_models(sc, 60, seed),
        _random_pool(sc, pool_rng, 60),
        [random_no_signaling_model(sc, shared_rng) for _ in range(60)],
    )
    for pool in pools:
        assert len(pool) == len(reference)
        for model, want in zip(pool, reference):
            _same_model(model, want)
    assert pool_rng.getstate() == shared_rng.getstate() == reference_rng.getstate()


class _ParityDrawStop(Exception):
    pass


class _LoggedRandom(random.Random):
    """A Random that logs the arguments of every randrange call, and
    raises _ParityDrawStop after a call with arguments stop_at."""

    def __init__(self, seed, stop_at=None):
        super().__init__(seed)
        self.log, self.stop_at = [], stop_at

    def randrange(self, *args):
        out = super().randrange(*args)
        self.log.append(args)
        if args == self.stop_at:
            raise _ParityDrawStop
        return out


@pytest.mark.parametrize("seed", range(8))
def test_a_random_pool_refuses_non_binary_outcomes_at_the_first_parity_draw(seed):
    # the reference draws until its first parity vector, which no other
    # draw of (2,2,3) shares the range of; the pool makes those same draws,
    # then refuses
    sc = bell_scenario(2, 2, 3)
    assert 1 << sc.n_contexts != global_size(sc)
    pool_rng, reference_rng = _LoggedRandom(seed), _LoggedRandom(seed, stop_at=(1 << sc.n_contexts,))
    with pytest.raises(_ParityDrawStop):
        for _ in range(20):
            _reference_random_model(sc, reference_rng)
    with pytest.raises(PreconditionError, match="^parity systems need binary outcomes everywhere$"):
        _random_pool(sc, pool_rng, 20)
    assert pool_rng.log == reference_rng.log


def _refusal(build, *args):
    """(type, message) of the error build(*args) raises, or None."""
    try:
        build(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


_FAULTS = {
    "short": lambda row: row[:-1],
    "long": lambda row: row + (ZERO,),
    "negative": lambda row: (row[0] - 1, row[1] + 1) + row[2:],
    "sum": lambda row: (row[0] + rat(1, 7),) + row[1:],
    "float": lambda row: (0.25,) + row[1:],
    "literal": lambda row: ("1/x",) + row[1:],
}


@given(
    st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 2, 3)]),
    st.integers(0, 2**32 - 1),
    st.dictionaries(st.integers(0, 7), st.sampled_from(sorted(_FAULTS)), max_size=3),
    st.sampled_from([0, 0, 0, 0, -1, 1]),
)
@settings(max_examples=150, deadline=None)
def test_bad_rows_are_refused_as_the_row_by_row_check_refuses_them(shape, seed, faults, extra):
    # up to three faulty rows, the first in row order being the one named,
    # and sometimes a row too many or too few
    sc = bell_scenario(*shape)
    rows = list(deterministic_model(sc, random.Random(seed).randrange(global_size(sc))).tables)
    rows = [tuple(rat(1, len(row)) for _ in row) if i % 2 else row for i, row in enumerate(rows)]
    for ci, fault in {ci % len(rows): fault for ci, fault in faults.items()}.items():
        rows[ci] = _FAULTS[fault](rows[ci])
    rows = rows[: len(rows) + extra] if extra < 0 else rows + rows[:extra]
    refusal = _refusal(_reference_validation, sc, tuple(rows))
    assert _refusal(EmpiricalModel, sc, tuple(rows)) == refusal
    if refusal is None:
        assert EmpiricalModel(sc, tuple(rows)).tables == _reference_validation(sc, tuple(rows))
    # the integer constructor, on rows without floats or literals, over 840
    if all(type(x) is Fraction for row in rows for x in row):
        ints = [[int(x * 840) for x in row] for row in rows]
        if all(x * 840 == int(x * 840) for row in rows for x in row):
            assert _refusal(_model_from_ints, sc, 840, ints) == refusal


# ---------------------------------------------------------------------------
# model_from_json against the per-cell decode it replaced


def _per_cell_model_from_json(doc):
    # the decode before integer rows: every cell parsed to a Fraction by
    # rat, in row order, then the Fraction constructor; kept as the oracle
    # of the integer decode
    if not isinstance(doc, dict) or "scenario" not in doc or "tables" not in doc:
        raise ValueError("model JSON needs scenario and tables keys")
    sc = scenario_from_json(doc["scenario"])
    return EmpiricalModel(sc, tuple(tuple(map(rat, row)) for row in doc["tables"]))


def _decoded(doc):
    """("model", model) or (type, message) of model_from_json's refusal."""
    try:
        return "model", model_from_json(doc)
    except Exception as exc:  # every refusal type counts, and must match
        return type(exc), str(exc)


def _oracle_decoded(doc):
    try:
        return "model", _per_cell_model_from_json(doc)
    except Exception as exc:
        return type(exc), str(exc)


_BAD_LITERALS = [1.0, 0.5, 0.0, "x", "1/0", "", " ", "1/2/3", None, [1], {"a": 1}, True, False]


@st.composite
def _model_documents(draw):
    """A model document with each weight written as an "a/b" string over a
    random multiple of its denominator, maybe padded with spaces, or as an
    int where it is one, then up to three faults: a bad literal, a row one
    weight short or long, a row missing, extra or not a list."""
    sc = bell_scenario(*draw(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)])))
    model = draw(_no_signaling_models(sc))
    tables = []
    for row in model.tables:
        cells = []
        for w in row:
            form = draw(st.sampled_from(["str", "str", "scaled", "padded", "int"]))
            if form == "int" and w.denominator == 1:
                cells.append(int(w))
            elif form == "scaled":
                k = draw(st.integers(2, 5))
                cells.append(f"{k * w.numerator}/{k * w.denominator}")
            elif form == "padded":
                cells.append(f" {w.numerator} / {w.denominator} ")
            else:
                cells.append(rat_str(w))
        tables.append(cells)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["literal", "literal", "short", "long", "drop", "add", "int"]))
        rows = [ci for ci, row in enumerate(tables) if isinstance(row, list)]
        ci = draw(st.sampled_from(rows)) if rows else None
        if fault == "literal" and ci is not None and tables[ci]:
            si = draw(st.integers(0, len(tables[ci]) - 1))
            tables[ci][si] = draw(st.sampled_from(_BAD_LITERALS))
        elif fault == "short" and ci is not None:
            tables[ci] = tables[ci][:-1]
        elif fault == "long" and ci is not None:
            tables[ci] = tables[ci] + ["0"]
        elif fault == "drop" and ci is not None:
            del tables[ci]
        elif fault == "add":
            tables.append(list(tables[ci]) if ci is not None else ["1"])
        elif fault == "int" and ci is not None:
            tables[ci] = 1
    return {"scenario": scenario_to_json(sc), "tables": tables}


@given(_model_documents())
@example({"scenario": {"parties": 2, "settings": 2, "outcomes": 2},
          "tables": [[1, 0, 0, 0], [1.0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]})
@example({"scenario": {"parties": 2, "settings": 2, "outcomes": 2},
          "tables": [["1/2", "1/x", 0, "1/2"], 5, ["y", 0, 0, 1], [1, 0, 0, 0]]})
@example({"scenario": {"parties": 2, "settings": 2, "outcomes": 2},
          "tables": [["1/2", 0, 0], [[1], 0, 0, 1], ["-1", "2", 0, 0], [1, 0, 0, 0]]})
@settings(max_examples=150, deadline=None)
def test_integer_decode_matches_the_per_cell_decode(doc):
    got, want = _decoded(doc), _oracle_decoded(doc)
    assert got == want
    if got[0] == "model":
        assert got[1].den == want[1].den and got[1].rows == want[1].rows


# a (2,2,2) table whose rows, read as their characters, are four
# deterministic no-signaling rows; as an object it is read as its keys
_CHARACTER_ROWS = ["1000", "0100", "0010", "0001"]
_NOT_A_LIST = "^expected a list, got (a string|an object)$"


@pytest.mark.parametrize(
    "tables",
    [_CHARACTER_ROWS, dict.fromkeys(_CHARACTER_ROWS, 0), "1000",
     [["1", "0", "0", "0"], {"1": 0}, ["1", "0", "0", "0"], ["1", "0", "0", "0"]]],
    ids=["string-rows", "object-table", "string-table", "object-row"],
)
def test_a_model_table_or_row_that_is_not_a_list_is_refused(tables):
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(TypeError, match=_NOT_A_LIST):
        EmpiricalModel(sc, tables)
    with pytest.raises(TypeError, match=_NOT_A_LIST):
        model_from_json({"scenario": scenario_to_json(sc), "tables": tables})


def test_a_row_that_is_not_a_list_is_refused_at_its_place():
    # as a row that is a number: after a bad row before it, before one after
    sc = bell_scenario(2, 2, 2)
    good = ["1", "0", "0", "0"]
    for row, message in (("1000", _NOT_A_LIST), (5, "'int' object is not iterable")):
        doc = {"scenario": scenario_to_json(sc), "tables": [["x", 0, 0, 1], row, good, good]}
        with pytest.raises(ValueError, match="invalid literal"):
            model_from_json(doc)
        doc["tables"] = [good, row, ["x", 0, 0, 1], good]
        with pytest.raises(TypeError, match=message):
            model_from_json(doc)
    # EmpiricalModel checks row by row: a row that does not sum to 1 first
    with pytest.raises(ValueError, match="weights must sum to 1"):
        EmpiricalModel(sc, [["1/2", 0, 0, 0], "1000", good, good])
    with pytest.raises(TypeError, match=_NOT_A_LIST):
        EmpiricalModel(sc, [good, "1000", ["1/2", 0, 0, 0], good])


def test_tables_and_rows_given_as_iterators_are_refused_as_lists_are():
    # the tables and their rows are read once, so the refusal is the one the
    # same rows as lists get, at the same place in row order
    sc = bell_scenario(2, 2, 2)
    good = ["1/4"] * 4
    for bad, error, message in (
        (["x", 0, 0, 0], ValueError, "invalid literal for int"),
        (["1/2", 0, 0, 0], ValueError, r"context \(0, 3\) weights must sum to 1"),
        ("1000", TypeError, _NOT_A_LIST),
    ):
        rows = [good, bad, good, good]
        with pytest.raises(error, match=message):
            EmpiricalModel(sc, rows)
        with pytest.raises(error, match=message):
            EmpiricalModel(sc, (row for row in rows))
        if not isinstance(bad, str):
            with pytest.raises(error, match=message):
                EmpiricalModel(sc, [good, iter(bad), good, good])
    with pytest.raises(ValueError, match="need one distribution per context"):
        EmpiricalModel(sc, (row for row in [good, good, good]))


# ---------------------------------------------------------------------------
# Bell relabelings: permuting the parties, swapping a party's settings and
# flipping a measurement's outcomes leave every verdict unchanged, while
# the relabeled model reaches every slot layout in another order


def _moved_slots(perm, swaps, flips):
    """The (context, section) each slot of bell_scenario(n, 2, 2) moves to,
    in slot order: party p's setting x and outcome o become party
    perm[p]'s setting x ^ swaps[p] and outcome o ^ flips[2 * p + x].
    Context indices pack the settings, and section indices the outcomes,
    as big-endian bits in party order."""
    n = len(perm)

    def moved(bits, flip):
        out = [0] * n
        for p, (b, f) in enumerate(zip(bits, flip)):
            out[perm[p]] = b ^ f
        return sum(b << (n - 1 - q) for q, b in enumerate(out))

    slots = []
    for ci in range(2**n):
        x = unpack(ci, (2,) * n)
        flip = [flips[2 * p + x[p]] for p in range(n)]
        slots += [(moved(x, swaps), moved(unpack(si, (2,) * n), flip)) for si in range(2**n)]
    return slots


def _relabeled(model, perm, swaps, flips):
    """The image of a model on bell_scenario(n, 2, 2) under the relabeling
    of _moved_slots."""
    tables = [[None] * len(row) for row in model.tables]
    for (cj, sj), w in zip(_moved_slots(perm, swaps, flips), chain.from_iterable(model.tables)):
        tables[cj][sj] = w
    return EmpiricalModel(model.scenario, tables)


@st.composite
def _relabeling_cases(draw):
    """A model at (2,2,2)-(4,2,2), random no-signaling or a parity model,
    half the time made signaling by moving part of one section's mass to
    another section of its context, and a Bell relabeling of it."""
    n = draw(st.integers(2, 4))
    sc = bell_scenario(n, 2, 2)
    if draw(st.booleans()):
        model = random_no_signaling_model(sc, random.Random(draw(st.integers(0, 2**32 - 1))))
    else:
        vector = draw(st.integers(0, 2**sc.n_contexts - 1))
        model = build_symmetric_model(parity_system_from_vector(sc, vector))
    if draw(st.booleans()):
        ci = draw(st.integers(0, sc.n_contexts - 1))
        row = list(model.tables[ci])
        src = draw(st.sampled_from([si for si, w in enumerate(row) if w]))
        dst = draw(st.sampled_from([si for si in range(len(row)) if si != src]))
        mass = row[src] * Fraction(draw(st.integers(1, 4)), 4)
        row[src], row[dst] = row[src] - mass, row[dst] + mass
        model = EmpiricalModel(sc, model.tables[:ci] + (tuple(row),) + model.tables[ci + 1 :])
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    relabeling = draw(st.permutations(range(n))), draw(bits), draw(bits) + draw(bits)
    return model, relabeling


@given(_relabeling_cases())
@example((pr_box(0), ((1, 0), [1, 0], [0, 1, 1, 0])))
@settings(max_examples=60, deadline=None)
def test_bell_relabelings_keep_every_verdict(case):
    model, relabeling = case
    image = _relabeled(model, *relabeling)
    ns = is_no_signaling(model)[0]
    assert is_no_signaling(image)[0] == ns
    support, support_image = support_of(model), support_of(image)
    assert possibilistic_no_signaling(support_image)[0] == possibilistic_no_signaling(support)[0]
    assert strong_contextuality(support_image)[0] == strong_contextuality(support)[0]
    family, family_image = solve_support(support), solve_support(support_image)
    assert (family is None) == (family_image is None)
    if family is not None:
        assert family.dimension == family_image.dimension
    if not ns:
        for m in (model, image):
            with pytest.raises(PreconditionError, match="model is signaling"):
                is_maximal_marginals(m)
        return
    assert is_maximal_marginals(image)[0] == is_maximal_marginals(model)[0]
    ours, theirs = classify(model), classify(image)
    assert (ours.cf, ours.verdict) == (theirs.cf, theirs.verdict)


@st.composite
def _fraction_cases(draw):
    """A no-signaling model at (2,2,2)-(4,2,2), random, a point mass, a
    parity model or, up to (3,2,2), dense (a random model mixed with the
    uniform model: a dense (4,2,2) LP takes seconds), and a Bell
    relabeling of it."""
    n = draw(st.integers(2, 4))
    sc = bell_scenario(n, 2, 2)
    kind = draw(st.sampled_from(["random", "point-mass", "parity"] + ["dense"] * (n < 4)))
    if kind == "point-mass":
        model = deterministic_model(sc, draw(st.integers(0, global_size(sc) - 1)))
    elif kind == "parity":
        vector = draw(st.integers(0, 2**sc.n_contexts - 1))
        model = build_symmetric_model(parity_system_from_vector(sc, vector))
    else:
        model = random_no_signaling_model(sc, random.Random(draw(st.integers(0, 2**32 - 1))))
    if kind == "dense":
        t = draw(st.sampled_from([rat(1, 3), rat(1, 2), rat(4, 5)]))
        model = mix_models([(t, uniform_model(sc)), (1 - t, model)])
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    relabeling = draw(st.permutations(range(n))), draw(bits), draw(bits) + draw(bits)
    return model, relabeling


def _relabeled_system(system, perm, swaps, flips):
    """The image of a parity system on bell_scenario(n, 2, 2) under the
    relabeling of _moved_slots: context ci moves where its slots move, and
    its target flips with the parity of the outcomes flipped there, read
    off the image of its all-zero section."""
    size = 2 ** len(perm)  # sections per context
    parities = [None] * len(system.parities)
    moved = _moved_slots(perm, swaps, flips)
    for ci, target in enumerate(system.parities):
        cj, sj = moved[ci * size]
        parities[cj] = target ^ (sj.bit_count() & 1)
    return ParitySystem(system.scenario, tuple(parities))


@st.composite
def _parity_relabelings(draw):
    """A parity system at (2,2,2)-(4,2,2) and a Bell relabeling of it."""
    n = draw(st.integers(2, 4))
    sc = bell_scenario(n, 2, 2)
    system = parity_system_from_vector(sc, draw(st.integers(0, 2**sc.n_contexts - 1)))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return system, (draw(st.permutations(range(n))), draw(bits), draw(bits) + draw(bits))


@given(_parity_relabelings())
@settings(max_examples=60, deadline=None)
def test_bell_relabelings_keep_parity_satisfiability(case):
    # the image system's symmetric model is the relabeled symmetric model,
    # and a system is satisfiable exactly when its image is
    system, relabeling = case
    image = _relabeled_system(system, *relabeling)
    assert build_symmetric_model(image) == _relabeled(build_symmetric_model(system), *relabeling)
    assert parity_satisfiable(image) == parity_satisfiable(system)


@given(_fraction_cases())
@example((mix_models([(rat(1, 2), pr_box(0)), (rat(1, 2), uniform_model(bell_scenario(2, 2, 2)))]),
          ((1, 0), [1, 0], [0, 1, 1, 0])))
@settings(max_examples=60, deadline=None)
def test_bell_relabelings_keep_the_fraction_and_carry_its_certificate(case):
    # the ncf of certified_fraction, and of contextual_fraction up to
    # (3,2,2), is the model's and its image's; the model's prices, each
    # moved to its slot's image, pass the price check on the image
    model, relabeling = case
    image = _relabeled(model, *relabeling)
    ncf, _, prices = certified_fraction(model)
    assert certified_fraction(image)[0] == ncf
    if model.scenario.n_contexts <= 8:
        assert contextual_fraction(model).ncf == contextual_fraction(image).ncf == ncf
    size = len(model.tables[0])
    moved = [None] * len(prices)
    for (cj, sj), y in zip(_moved_slots(*relabeling), prices):
        moved[cj * size + sj] = y
    den, nums = over_lcm(moved)
    amcc.lp._check_prices(image, nums, den, ncf)


# ---------------------------------------------------------------------------
# classify reads the certified route's integer result and the marginal check


@given(_fraction_cases())
@example((parity_amcc_422(), ((0, 1, 2, 3), [0] * 4, [0] * 8)))
@example((deterministic_model(bell_scenario(4, 2, 2), 77), ((0, 1, 2, 3), [0] * 4, [0] * 8)))
@settings(max_examples=60, deadline=None)
def test_classify_is_the_certified_fraction_and_the_marginal_check(case):
    # random, dense (up to (3,2,2)), point-mass and parity models: the
    # fraction is certified_fraction's, the marginal verdict and witness
    # is_maximal_marginals', and the verdict follows from the two
    model, _ = case
    result = classify(model)
    ncf, cf, _ = certified_fraction(model)
    assert (result.ncf, result.cf) == (ncf, cf)
    assert type(result.cf) is Fraction and type(result.ncf) is Fraction
    maximal, witness = is_maximal_marginals(model)
    assert (result.maximal_marginals, result.marginal_witness) == (maximal, witness)
    if cf == 1:
        assert result.verdict == ("AMCC" if maximal else "non-AMCC")
    else:
        assert result.verdict == "not maximal"


def _half_moved(model):
    """model with half of context 0's first possible section's weight moved
    onto the next section: a signaling model."""
    tables = [list(row) for row in model.tables]
    a = next(s for s, w in enumerate(tables[0]) if w)
    tables[0][a], tables[0][a + 1] = tables[0][a] / 2, tables[0][a + 1] + tables[0][a] / 2
    return EmpiricalModel(model.scenario, tables)


@pytest.mark.parametrize(
    "model, message",
    [
        (pr_box(0), "contexts 0 and 2 disagree on Y2 @ 0: 1/4 vs 1/2"),
        (parity_amcc_422(), "contexts 0 and 2 disagree on Y1 Y2 Y4 @ 0,0,0: 1/16 vs 1/8"),
    ],
    ids=["pr-box", "parity-amcc-422"],
)
def test_classify_refuses_a_signaling_model_with_the_first_witness(model, message):
    # the first disagreeing pair and outcome in overlap_rows order, as
    # certified_fraction and is_maximal_marginals name it
    signaling = _half_moved(model)
    for check in (classify, certified_fraction, is_maximal_marginals):
        with pytest.raises(PreconditionError) as refused:
            check(signaling)
        assert str(refused.value) == "model is signaling: " + message

"""No-signaling dimensions, affine families and model classification."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amcc.affine
from amcc.affine import (
    _check_family,
    _gauss_jordan,
    _pivot_rows,
    _rank_profile,
    _support_table,
    classify,
    family_from_json,
    family_member_params,
    family_to_csv,
    family_to_json,
    lin_str,
    ns_dimension,
    ns_dimension_closed_form,
    ns_equations,
    parameter_bounds,
    solve_support,
)
from amcc.csp import AugmentationPlan, apply_plan, plan_counts, reference_plan, search_plans
from amcc.errors import PreconditionError, ResourceLimitError, VerificationError
from amcc.model import (
    EmpiricalModel,
    _party_rows,
    context_containing,
    deterministic_model,
    marginalize,
    mix_models,
    parity_amcc_422,
    pr_box,
    uniform_model,
)
from amcc.possibilistic import SupportModel, _possible_slots, compatible_globals, support_of
from amcc.rational import ONE, ZERO, over_lcm, rat, rat_str
from amcc.scenario import (
    MeasurementScenario,
    bell_scenario,
    global_size,
    overlap_rows,
    projection,
    section_size,
    slot_count,
    slot_offsets,
)
from amcc.verify import random_no_signaling_model


@pytest.fixture(scope="module")
def q_family():
    return solve_support(apply_plan(reference_plan()))


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize(
    "parties,dim", [(2, 8), (3, 26), (4, 80), (5, 242)]
)
def test_ns_dimension_of_two_setting_bell_scenarios(parties, dim):
    sc = bell_scenario(parties, 2, 2)
    assert ns_dimension(sc) == dim
    assert ns_dimension_closed_form(sc) == dim


def test_ns_dimension_of_the_trivial_scenario():
    assert ns_dimension(bell_scenario(1, 1, 2)) == 1


@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 3))
@settings(max_examples=15, deadline=None)
def test_elimination_matches_the_closed_form(parties, settings_, outcomes):
    sc = bell_scenario(parties, settings_, outcomes)
    assert ns_dimension(sc) == ns_dimension_closed_form(sc)


def test_closed_form_needs_party_structure():
    from amcc.scenario import MeasurementScenario

    sc = MeasurementScenario(
        measurements=("a", "b", "c"),
        outcomes=(2, 2, 2),
        cover=((0, 1), (1, 2), (0, 2)),
    )
    with pytest.raises(PreconditionError, match="party structure"):
        ns_dimension_closed_form(sc)


def test_classify_needs_party_structure():
    from amcc.scenario import MeasurementScenario

    sc = MeasurementScenario(
        measurements=("a", "b", "c"),
        outcomes=(2, 2, 2),
        cover=((0, 1), (1, 2), (0, 2)),
    )
    with pytest.raises(PreconditionError, match="party structure"):
        classify(uniform_model(sc))


# ---------------------------------------------------------------------------
# reference: the Fraction elimination the integer one replaced, with the same
# pivot rule, so pivot order, pivot rows and back substitution must match


class _FractionElimination:
    def __init__(self):
        self.pivot_rows = {}
        self.order = []
        self.infeasible = False

    def add(self, row, rhs):
        row = dict(row)
        while True:
            hits = sorted(v for v in row if v in self.pivot_rows)
            if not hits:
                break
            v = hits[0]
            c = row.pop(v)
            prow, prhs = self.pivot_rows[v]
            for w, pc in prow.items():
                if w == v:
                    continue
                nv = row.get(w, ZERO) - c * pc
                if nv:
                    row[w] = nv
                else:
                    row.pop(w, None)
            rhs = rhs - c * prhs
        if not row:
            if rhs != 0:
                self.infeasible = True
            return
        units = sorted(v for v, c in row.items() if c == 1 or c == -1)
        pivot = units[0] if units else min(row)
        c = row[pivot]
        if c != ONE:
            row = {v: x / c for v, x in row.items()}
            rhs = rhs / c
        self.pivot_rows[pivot] = (row, rhs)
        self.order.append(pivot)

    def back_substitute(self, variables):
        free = [v for v in variables if v not in self.pivot_rows]
        exprs = {v: (ZERO, {v: ONE}) for v in free}
        for v in reversed(self.order):
            prow, prhs = self.pivot_rows[v]
            const = prhs
            coeffs = {}
            for w, c in prow.items():
                if w == v:
                    continue
                w_const, w_coeffs = exprs[w]
                const -= c * w_const
                for f, fc in w_coeffs.items():
                    nv = coeffs.get(f, ZERO) - c * fc
                    if nv:
                        coeffs[f] = nv
                    else:
                        coeffs.pop(f, None)
            exprs[v] = (const, coeffs)
        return free, exprs


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
_COEFFICIENTS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))


@st.composite
def _rational_systems(draw):
    """Up to 10 rows over up to 8 variables with small nonzero rational
    coefficients and rhs over distinct prime denominators, plus up to three
    repeated rows, some with a shifted (inconsistent) rhs."""
    n = draw(st.integers(1, 8))
    primes = draw(st.permutations(PRIMES))
    rows = []
    for p in primes[: draw(st.integers(1, 8))]:
        row = draw(st.dictionaries(st.integers(0, n - 1), _COEFFICIENTS, min_size=1))
        rows.append((row, Fraction(draw(st.integers(-3 * p, 3 * p)), p)))
    for _ in range(draw(st.integers(0, 3))):
        row, rhs = draw(st.sampled_from(rows))
        shift = draw(st.sampled_from((0, 0, 1)))
        rows.insert(draw(st.integers(0, len(rows))), (row, rhs + shift))
    return rows


# covers the Bell closed form does not reach: a triangle of pairs and a
# chain of pairs with a ternary measurement
TRIANGLE = MeasurementScenario(
    measurements=("a", "b", "c"), outcomes=(2, 2, 2), cover=((0, 1), (1, 2), (0, 2))
)
CHAIN = MeasurementScenario(
    measurements=("a", "b", "c", "d"), outcomes=(2, 3, 2, 2), cover=((0, 1), (1, 2), (2, 3))
)


@st.composite
def _supports(draw, dims=(3, 2, 2)):
    """A support on bell_scenario(*dims), or on dims itself when it is a
    scenario: a random model's, or arbitrary section masks (often
    infeasible). Past binary Bell scenarios, where parity blocks do not
    exist, the model is an even mixture of one to three deterministic
    models."""
    sc = dims if isinstance(dims, MeasurementScenario) else bell_scenario(*dims)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        if max(sc.outcomes) == 2 and sc.parties is not None:
            return support_of(random_no_signaling_model(sc, rng))
        points = [deterministic_model(sc, rng.randrange(global_size(sc)))
                  for _ in range(rng.randint(1, 3))]
        return support_of(mix_models([(rat(1, len(points)), m) for m in points]))
    sizes = [section_size(sc, ci) for ci in range(sc.n_contexts)]
    return SupportModel(sc, tuple(draw(st.integers(1, 2**n - 1)) for n in sizes))


# no coefficient is a unit after the first row, so both pivots divide
NON_UNIT_PIVOT = [
    ({0: Fraction(2), 1: Fraction(3)}, Fraction(1)),
    ({0: Fraction(1), 1: Fraction(1)}, Fraction(1, 3)),
]
# scaled by 2, both rows hold 1s that are not units; in the second, only
# variable 2's coefficient is one
FALSE_UNITS = [({0: Fraction(1, 2), 1: Fraction(1, 2)}, Fraction(1))]
FALSE_UNITS_BEFORE_A_UNIT = [({0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1)}, Fraction(1))]


def _array_elimination(rows, variables):
    # _gauss_jordan on rational rows, column k being variables[k], all
    # scaled to integers by the lcm of their denominators, as
    # family_member_params scales its rows
    scale, nums = over_lcm([x for row, rhs in rows for x in (*row.values(), rhs)])
    nums = iter(nums)
    table = [[0] * (len(variables) + 1) for _ in rows]
    for line, (row, _) in zip(table, rows):
        for v in row:
            line[variables.index(v)] = next(nums)
        line[-1] = next(nums)
    big = max(abs(x) for line in table for x in line)
    return _gauss_jordan(np.array(table, np.int64 if big < 2**62 else object), scale)


def _read_off(table, det, pivots, variables):
    # the array elimination's answer in _FractionElimination.back_substitute's
    # form: each pivot row reads x_v = (b - sum of A[f] * x_f) / det
    free = [v for k, v in enumerate(variables) if k not in pivots]
    exprs = {v: (ZERO, {v: ONE}) for v in free}
    for k, i in pivots.items():
        *coeffs, rhs = table[i].tolist()
        exprs[variables[k]] = Fraction(rhs, det), {
            variables[j]: Fraction(-c, det) for j, c in enumerate(coeffs) if c and j != k
        }
    return free, exprs


@given(st.one_of(_rational_systems(), _supports().map(lambda s: ns_equations(s.scenario, s))))
@example(NON_UNIT_PIVOT)
@example(FALSE_UNITS)
@example(FALSE_UNITS_BEFORE_A_UNIT)
@settings(max_examples=80, deadline=None)
def test_integer_elimination_matches_the_fraction_one(rows):
    variables = sorted({v for row, _ in rows for v in row})
    table, det, pivots, bad = _array_elimination(rows, variables)
    ref = _FractionElimination()
    for i, (row, rhs) in enumerate(rows):
        ref.add({v: Fraction(c) for v, c in row.items()}, Fraction(rhs))
        assert ref.infeasible == (bad is not None and bad <= i)
    assert [variables[k] for k in pivots] == ref.order
    assert {variables[k] for k in pivots} == ref.pivot_rows.keys()
    _, expected = ref.back_substitute(variables)
    for k, i in pivots.items():
        # det at the pivot, 0 at every other pivot column: the row is
        # x_v = rhs/det - sum c/det x_f over the free variables, the
        # reference's back substitution of v
        assert table[i, k] == det > 0
        assert not table[i, [c for c in pivots if c != k]].any()
        *coeffs, rhs = table[i].tolist()
        free_part = {variables[j]: Fraction(-c, det) for j, c in enumerate(coeffs) if c and j != k}
        assert (Fraction(rhs, det), free_part) == expected[variables[k]]
    # every other row ends as 0 = 0, or 0 = nonzero where it was inconsistent
    others = [i for i in range(len(rows)) if i not in pivots.values()]
    assert not table[others, :-1].any()
    assert bad == next((i for i in others if table[i, -1]), None)
    assert _read_off(table, det, pivots, variables) == ref.back_substitute(variables)


def _fraction_profile(rows):
    # the rows at which _FractionElimination's order grows, and whether it
    # ended inconsistent
    ref, grew = _FractionElimination(), []
    for i, (row, rhs) in enumerate(rows):
        rank = len(ref.order)
        ref.add({v: Fraction(c) for v, c in row.items()}, Fraction(rhs))
        if len(ref.order) > rank:
            grew.append(i)
    return grew, ref.infeasible


def _integer_rows(rows):
    # each row, rhs included, times the lcm of its denominators
    scaled = []
    for row, rhs in rows:
        _, (*coeffs, b) = over_lcm([*row.values(), rhs])
        scaled.append((dict(zip(row, coeffs)), b))
    return scaled


@given(_rational_systems())
@example(NON_UNIT_PIVOT)
@example(FALSE_UNITS)
@example(FALSE_UNITS_BEFORE_A_UNIT)
@settings(max_examples=80, deadline=None)
def test_rank_profile_is_where_the_fraction_elimination_grows(rows):
    grew, infeasible = _fraction_profile(rows)
    if infeasible:
        with pytest.raises(VerificationError, match="inconsistent"):
            _rank_profile(_integer_rows(rows))
    else:
        assert _rank_profile(_integer_rows(rows)) == grew


def _support_table_rows(support):
    # the rows of _support_table as ns_equations-style (dict, rhs) pairs,
    # each row's slots ascending
    table, supported = _support_table(support, _possible_slots(support))
    slots = supported.tolist()
    return [
        ({slots[k]: c for k, c in enumerate(coeffs) if c}, rhs)
        for *coeffs, rhs in table.tolist()
    ]


# eliminating only the rows of the pairs one party's setting apart leaves
# this support a different pivot set (variables 59 and 62 differ); the
# full scenario's pivot rows, restricted, leave it the same one
@given(
    st.sampled_from([(3, 2, 2), (2, 3, 2), (2, 2, 3), TRIANGLE, CHAIN]).flatmap(_supports)
)
@example(SupportModel(bell_scenario(3, 2, 2), (150, 150, 214, 109, 121, 121, 105, 105)))
@settings(max_examples=80, deadline=None)
def test_pruned_rows_eliminate_like_all_of_ns_equations(support):
    sc = support.scenario
    rows = ns_equations(sc, support)
    pruned = _support_table_rows(support)
    remaining = iter(rows)
    # a subsequence, in order, with each row's slots in the same order
    assert all(
        any(row == r and list(row) == list(r) and rhs == b for r, b in remaining)
        for row, rhs in pruned
    )
    full = _FractionElimination()
    for row, rhs in rows:
        full.add({v: Fraction(c) for v, c in row.items()}, Fraction(rhs))
    table, supported = _support_table(support, _possible_slots(support))
    slots = supported.tolist()
    table, det, pivots, bad = _gauss_jordan(table, disjoint=sc.n_contexts)
    assert [slots[k] for k in pivots] == full.order
    assert (bad is not None) == full.infeasible
    variables = sorted({v for row, _ in rows for v in row})
    assert slots == variables
    assert _read_off(table, det, pivots, slots) == full.back_substitute(variables)


@given(st.sampled_from([(3, 2, 2), (2, 3, 2), (2, 2, 3), TRIANGLE, CHAIN]).flatmap(_supports))
@example(apply_plan(reference_plan()))
@settings(max_examples=60, deadline=None)
def test_normalization_pass_ends_where_the_pivot_loop_does(support):
    # the contexts' normalization rows, pivoted in one pass, leave the
    # table, det, pivots (in order) and first bad row of pivoting them one
    # lp._pivot_array at a time
    table, _ = _support_table(support, _possible_slots(support))
    once = _gauss_jordan(table.copy(), disjoint=support.scenario.n_contexts)
    each = _gauss_jordan(table)
    assert np.array_equal(once[0], each[0])
    assert once[1] == each[1] and list(once[2].items()) == list(each[2].items())
    assert once[3] == each[3]


def _sharing_pairs(scenario):
    # (ci, cj, shared, proj_i, proj_j) of every pair of contexts that share
    # a measurement, in combinations order: the shared measurements
    # ascending and each context's projection onto them, pair by pair
    for ci, cj in combinations(range(scenario.n_contexts), 2):
        shared = tuple(sorted(set(scenario.cover[ci]) & set(scenario.cover[cj])))
        if shared:
            yield ci, cj, shared, projection(scenario, ci, shared), projection(scenario, cj, shared)


def _shortcut_pivot_rows(scenario):
    # the pivot-row template as it was built with the implied-row shortcut:
    # each overlapping pair's last shared-outcome row was never fed to the
    # elimination; kept as the oracle
    rows = ns_equations(scenario)
    last, end = set(), scenario.n_contexts
    for _, _, shared, _, _ in _sharing_pairs(scenario):
        end += prod(scenario.outcomes[m] for m in shared)
        last.add(end - 1)
    fed = [row for i, row in enumerate(rows) if i not in last]
    return [fed[i] for i in _rank_profile(fed)]


@pytest.mark.parametrize(
    "sc",
    [bell_scenario(p, 2, 2) for p in (2, 3, 4, 5)] + [bell_scenario(3, 3, 2), CHAIN],
    ids=["222", "322", "422", "522", "332", "chain"],
)
def test_pivot_rows_keep_what_the_implied_row_shortcut_kept(sc):
    # CHAIN's contexts have 6, 6 and 4 sections
    expected = _shortcut_pivot_rows(sc)
    rows = ns_equations(sc)
    assert [(list(rows[i][0].items()), rows[i][1]) for i in _pivot_rows(sc).tolist()] == [
        (list(row.items()), rhs) for row, rhs in expected
    ]


@pytest.mark.parametrize(
    "sc", [TRIANGLE, CHAIN, bell_scenario(2, 3, 2), bell_scenario(2, 2, 3)],
    ids=["triangle", "chain", "232", "223"],
)
def test_ns_dimension_is_the_fraction_elimination_rank(sc):
    grew, infeasible = _fraction_profile(ns_equations(sc))
    assert not infeasible
    assert _pivot_rows(sc).tolist() == grew
    assert ns_dimension(sc) == slot_count(sc) - len(grew)


@pytest.mark.parametrize("sc", [bell_scenario(3, 2, 2), bell_scenario(3, 3, 2), CHAIN],
                         ids=["322", "332", "chain"])
def test_pivot_rows_stream_the_rows_of_ns_equations(sc, monkeypatch):
    # the rank profile reads the rows one at a time from _equations, never
    # the whole list of ns_equations, and keeps the same rows; blocks of
    # two rows make every row cross a block boundary
    rows = ns_equations(sc)
    expected = _rank_profile(rows)
    monkeypatch.setattr(amcc.affine, "_EQUATION_BLOCK", 2)
    assert _ordered(amcc.affine._equations(sc)) == _ordered(rows)
    monkeypatch.setattr(amcc.affine, "ns_equations", lambda *a: pytest.fail("list built"))
    amcc.affine._pivot_rows.cache_clear()
    assert amcc.affine._pivot_rows(sc).tolist() == expected
    amcc.affine._pivot_rows.cache_clear()


def test_solve_support_reads_the_slot_mask_once(monkeypatch):
    support = support_of(parity_amcc_422())
    calls = []
    mask = amcc.affine._possible_slots
    monkeypatch.setattr(amcc.affine, "_possible_slots", lambda s: calls.append(s) or mask(s))
    family = solve_support(support)
    assert calls == [support]
    family_from_json(family_to_json(family))
    assert calls == [support, support]


def test_ns_dimension_refuses_8_2_2_before_building_the_system(monkeypatch):
    # 65536 slots: the reduced system could hold 2**32 entries, so the rank
    # profile's guard trips before the no-signaling arrays are built
    calls = []
    arrays = amcc.affine._ns_arrays
    monkeypatch.setattr(amcc.affine, "_ns_arrays", lambda sc: calls.append(sc) or arrays(sc))
    with pytest.raises(
        ResourceLimitError,
        match="^4294967296 cells in the 65536 x 65536 rank-profile elimination is over the limit",
    ):
        ns_dimension(bell_scenario(8, 2, 2))
    assert calls == []


def _bucketed_ns_equations(scenario, support=None):
    # ns_equations as it was built before the one marginal-row table: each
    # overlapping pair's slots bucketed by shared outcome; kept as the
    # oracle of the table's rows, their order and each row's entry order
    offs = slot_offsets(scenario)
    kept = [
        [si for si in range(section_size(scenario, ci))
         if support is None or support.possible(ci, si)]
        for ci in range(scenario.n_contexts)
    ]
    rows = [({offs[ci] + si: 1 for si in sections}, 1) for ci, sections in enumerate(kept)]
    for ci, cj, _, proj_i, proj_j in _sharing_pairs(scenario):
        buckets = {}
        for c, proj, sign in ((ci, proj_i, 1), (cj, proj_j, -1)):
            for si in kept[c]:
                buckets.setdefault(proj[si], {})[offs[c] + si] = sign
        rows.extend((buckets[k], 0) for k in sorted(buckets))
    return rows


def _ordered(rows):
    return [(list(row.items()), rhs) for row, rhs in rows]


# parties with 2, 3 and 2 settings, every setting tuple a context
PRODUCT_232 = MeasurementScenario(
    measurements=tuple("abcdefg"),
    outcomes=(2,) * 7,
    cover=tuple(product((0, 1), (2, 3, 4), (5, 6))),
    parties=(0, 0, 1, 1, 1, 2, 2),
)
TABLE_SCENARIOS = [bell_scenario(p, 2, 2) for p in (2, 3, 4, 5)] + [
    bell_scenario(2, 3, 2), bell_scenario(2, 2, 3), bell_scenario(3, 3, 2),
    TRIANGLE, CHAIN, PRODUCT_232,
]


@pytest.mark.parametrize(
    "sc", TABLE_SCENARIOS,
    ids=["222", "322", "422", "522", "232", "223", "332", "triangle", "chain", "product232"],
)
def test_overlap_rows_are_the_bucketed_pair_rows(sc):
    slot, sign, start, labels = overlap_rows(sc)
    assert (slot.dtype, sign.dtype) == (np.int32, np.int8)
    assert not any(a.flags.writeable for a in (slot, sign, start))
    bounds = start.tolist()
    rows = [
        (dict(zip(slot[a:b].tolist(), sign[a:b].tolist())), 0) for a, b in zip(bounds, bounds[1:])
    ]
    expected = _bucketed_ns_equations(sc)
    assert _ordered(rows) == _ordered(expected[sc.n_contexts :])
    assert _ordered(ns_equations(sc)) == _ordered(expected)
    # each row's pair and packed shared outcome, pair by pair in combinations order
    assert labels == tuple(
        ((ci, cj), shared, k)
        for ci, cj, shared, _, _ in _sharing_pairs(sc)
        for k in range(prod(sc.outcomes[m] for m in shared))
    )


# sha256 over the layout tables of TABLE_SCENARIOS, in order: the dtype,
# shape and bytes of every array, and the repr of every label tuple and
# count, of overlap_rows, model._party_rows (where the scenario has
# parties), affine._ns_arrays and affine._pivot_rows
LAYOUT_DIGEST = "eec170aa4f7786bafc7b483de4ace720c3c1e8016d8ab80bff7fa7fe43c010da"


def _layout_parts(sc):
    tables = [overlap_rows(sc)]
    if sc.parties is not None:
        tables.append(_party_rows(sc))
    tables += [amcc.affine._ns_arrays(sc), (_pivot_rows(sc),)]
    for table in tables:
        for part in table:
            if isinstance(part, np.ndarray):
                yield f"{part.dtype.str} {part.shape}".encode()
                yield part.tobytes()
            else:
                yield repr(part).encode()


def test_layout_tables_are_pinned():
    h = hashlib.sha256()
    for sc in TABLE_SCENARIOS:
        for part in _layout_parts(sc):
            h.update(part)
    assert h.hexdigest() == LAYOUT_DIGEST


@given(st.sampled_from([(3, 2, 2), (2, 3, 2), (2, 2, 3), TRIANGLE, CHAIN]).flatmap(_supports))
@example(SupportModel(bell_scenario(3, 2, 2), (150, 150, 214, 109, 121, 121, 105, 105)))
@settings(max_examples=60, deadline=None)
def test_support_rows_are_the_bucketed_support_rows(support):
    sc = support.scenario
    expected = _ordered(_bucketed_ns_equations(sc, support))
    assert _ordered(ns_equations(sc, support)) == expected
    # the support's elimination table: the pivot rows restricted to the
    # support, less the empty ones, each the bucketed row of its equation
    on = _possible_slots(support).tolist()
    full = ns_equations(sc)
    restricted = [
        ({s: c for s, c in full[i][0].items() if on[s]}, full[i][1]) for i in _pivot_rows(sc).tolist()
    ]
    rows = _ordered(_support_table_rows(support))
    assert rows == _ordered([(row, rhs) for row, rhs in restricted if row])
    remaining = iter(expected)
    assert all(any(row == e for e in remaining) for row in rows)


# sha256 over one line per input, as the Fraction elimination computed them:
# family_to_json of solve_support (sorted keys) with family_member_params of
# the models known to lie in the family, for the reference plan, its
# alternate final context and the supports of random_no_signaling_model at
# (3,2,2) seeds 0-5 and (4,2,2) seeds 0-3; then ns_dimension of (n,2,2) for
# n = 1-5, (2,3,2), (2,2,3) and (3,3,2)
AFFINE_IDENTITY_DIGEST = "43e4f84cd9868806289e16c58d63709d729de87d1cf37c7b68cc152223161039"


def _affine_identity_lines():
    plan = reference_plan()
    adds = list(plan.additions)
    adds[12] = (0, 5, 6, 9, 12)
    reference = apply_plan(plan)
    q = solve_support(reference)
    cases = [
        (reference, [q.at(rat(1, 8)), q.at(rat(3, 16)), q.at(rat(1, 4))]),
        (apply_plan(AugmentationPlan(plan.base, tuple(adds))), []),
    ]
    for parties, seeds in ((3, 6), (4, 4)):
        sc = bell_scenario(parties, 2, 2)
        for seed in range(seeds):
            model = random_no_signaling_model(sc, random.Random(seed))
            cases.append((support_of(model), [model]))
    for support, models in cases:
        family = solve_support(support)
        params = [family_member_params(family, m) for m in models]
        params = [None if p is None else [rat_str(t) for t in p] for p in params]
        yield json.dumps([family_to_json(family), params], sort_keys=True)
    dims = [(n, 2, 2) for n in range(1, 6)] + [(2, 3, 2), (2, 2, 3), (3, 3, 2)]
    for dim in dims:
        yield f"{dim} {ns_dimension(bell_scenario(*dim))}"


def test_families_and_dimensions_are_pinned():
    h = hashlib.sha256()
    for line in _affine_identity_lines():
        h.update((line + "\n").encode())
    assert h.hexdigest() == AFFINE_IDENTITY_DIGEST


# sha256 over one line per input, as the dict elimination computed them:
# family_to_json of solve_support (sorted keys) with family_member_params of
# models in and out of the family, on the supports of random_no_signaling_model
# at (5,2,2) seeds 0-3 and of even mixtures of one to four deterministic
# models (then two random section masks, mostly infeasible) at (2,3,2),
# (2,2,3), (3,3,2), TRIANGLE and CHAIN, seeds 0-5; families of dimension 0 to
# 5. Last, a family_from_json family whose four directions span only two
# dimensions, so which parameters are pinned depends on the pivot rule
COVERS_IDENTITY_DIGEST = "f9e2be5482f811d83e35bf3794079f4edbb0fcecc24cbcf2868161a15fd54bbc"


def _covers_identity_cases():
    sc = bell_scenario(5, 2, 2)
    for seed in range(4):
        rng = random.Random(seed)
        model = random_no_signaling_model(sc, rng)
        yield support_of(model), [model, _signaling_variant(model, rng), uniform_model(sc)]
    for sc in (bell_scenario(2, 3, 2), bell_scenario(2, 2, 3), bell_scenario(3, 3, 2), TRIANGLE,
               CHAIN):
        for seed in range(6):
            rng = random.Random(seed)
            points = [deterministic_model(sc, rng.randrange(global_size(sc)))
                      for _ in range(rng.randint(1, 4))]
            even = mix_models([(rat(1, len(points)), p) for p in points])
            weights = [rat(k + 1, len(points) * (len(points) + 1) // 2) for k in range(len(points))]
            models = [even, mix_models(list(zip(weights, points))), uniform_model(sc)]
            yield support_of(even), models + [_signaling_variant(even, rng)]
        for _ in range(2):
            sizes = [section_size(sc, ci) for ci in range(sc.n_contexts)]
            yield SupportModel(sc, tuple(rng.randint(1, 2**n - 1) for n in sizes)), []


def _covers_identity_lines():
    for support, models in _covers_identity_cases():
        family = solve_support(support)
        if family is None:
            yield "null"
            continue
        params = [family_member_params(family, m) for m in models]
        params = [None if p is None else [rat_str(t) for t in p] for p in params]
        yield json.dumps([family_to_json(family), params], sort_keys=True)
    rng = random.Random(1)
    model = random_no_signaling_model(bell_scenario(5, 2, 2), rng)
    family = solve_support(support_of(model))
    d0, d1 = family.directions
    doc = family_to_json(family)
    doc["parameters"] = ["t0", "t1", "t2", "t3"]
    doc["directions"] = [
        [rat_str(c) for c in d]
        for d in (d0, [rat(3, 2) * a + b for a, b in zip(d0, d1)], [b / 2 for b in d1], d0)
    ]
    dependent = family_from_json(doc)
    models = [model, _signaling_variant(model, rng), uniform_model(model.scenario)]
    params = [family_member_params(dependent, m) for m in models]
    yield json.dumps([None if p is None else [rat_str(t) for t in p] for p in params])


def test_families_on_other_covers_are_pinned():
    h = hashlib.sha256()
    for line in _covers_identity_lines():
        h.update((line + "\n").encode())
    assert h.hexdigest() == COVERS_IDENTITY_DIGEST


# ---------------------------------------------------------------------------
# the one-parameter family over the reference support


def test_reference_support_solves_to_one_parameter(q_family):
    assert q_family.dimension == 1
    assert q_family.parameters == ("q",)
    assert parameter_bounds(q_family) == (rat(1, 8), rat(1, 4))


def test_family_entries_use_the_four_letter_alphabet(q_family):
    sc = q_family.scenario
    allowed = {
        (rat(0), (rat(0),)),
        (rat(0), (rat(1),)),  # q
        (rat(1, 4), (rat(-1),)),  # 1/4 - q
        (rat(-1, 4), (rat(2),)),  # 2q - 1/4
    }
    for ci in range(sc.n_contexts):
        for si in range(section_size(sc, ci)):
            assert q_family.entry(ci, si) in allowed


def test_low_endpoint_is_the_symmetric_parity_model(q_family):
    assert q_family.at(rat(1, 8)) == parity_amcc_422()


def test_amcc_classification_at_the_low_endpoint(q_family):
    c = classify(q_family.at(rat(1, 8)))
    assert c.verdict == "AMCC"
    assert c.cf == ONE
    assert c.contextuality == "maximally_contextual"
    assert c.maximal_marginals is True
    assert c.marginal_witness is None


def test_interior_point_loses_maximal_marginals(q_family):
    c = classify(q_family.at(rat(3, 16)))
    assert c.verdict == "non-AMCC"
    assert c.cf == ONE
    assert c.maximal_marginals is False
    ms, outs, got, expected = c.marginal_witness
    assert ms == (6,)  # Y4
    assert outs == (0,)
    assert got == rat(3, 4)  # 4q at q = 3/16
    assert expected == rat(1, 2)


@pytest.mark.parametrize("num,den", [(3, 16), (5, 32), (7, 32)])
def test_interior_points_stay_maximally_contextual(q_family, num, den):
    c = classify(q_family.at(rat(num, den)))
    assert c.cf == ONE
    assert c.verdict == "non-AMCC"


def test_three_party_marginal_tracks_q(q_family):
    model = q_family.at(rat(3, 16))
    sc = model.scenario
    ci = context_containing(sc, (0, 2, 4))  # Y1 Y2 Y3
    tab = marginalize(model, ci, (0, 2, 4))
    assert tab.weights[0] == rat(3, 16)


def test_high_endpoint_pins_the_fourth_party(q_family):
    model = q_family.at(rat(1, 4))
    ci = context_containing(model.scenario, (6,))
    tab = marginalize(model, ci, (6,))
    assert tab.weights == (ONE, rat(0))
    c = classify(model)
    assert c.verdict == "non-AMCC" and c.cf == ONE


def test_out_of_interval_values_are_rejected(q_family):
    with pytest.raises(PreconditionError, match="negative weight"):
        q_family.at(rat(1, 16))
    with pytest.raises(PreconditionError, match="1/8"):
        q_family.at(rat(3, 8))
    with pytest.raises(ValueError, match="parameter values"):
        q_family.at(rat(1, 8), rat(1, 8))


def test_membership_solves_back_to_the_parameter(q_family):
    for q in (rat(1, 8), rat(5, 32), rat(1, 4)):
        assert family_member_params(q_family, q_family.at(q)) == (q,)


def test_membership_rejects_outside_models(q_family):
    sc = q_family.scenario
    assert family_member_params(q_family, uniform_model(sc)) is None
    with pytest.raises(PreconditionError, match="scenarios differ"):
        family_member_params(q_family, pr_box(0))


def _with_vectors(family, base=None, directions=None):
    # the family with its base or its directions replaced by Fraction
    # vectors, put over one denominator as AffineFamily holds them
    vectors = [family.base if base is None else base]
    vectors += family.directions if directions is None else directions
    den, nums = over_lcm([x for v in vectors for x in v])
    n = len(vectors[0])
    rows = [nums[k:k + n] for k in range(0, len(nums), n)]
    return replace(family, den=den, rows=tuple(map(tuple, rows)))


def _fraction_member_params(family, model):
    # the Fraction recomposition family_member_params used before its final
    # check moved to integer numerators; kept as the oracle
    target = [w for row in model.tables for w in row]
    ref = _FractionElimination()
    for slot, w in enumerate(target):
        row = {k: d[slot] for k, d in enumerate(family.directions) if d[slot] != 0}
        rhs = w - family.base[slot]
        if row:
            ref.add(row, rhs)
        elif rhs != 0:
            return None
        if ref.infeasible:
            return None
    _, exprs = ref.back_substitute(range(family.dimension))
    params = tuple(exprs[k][0] for k in range(family.dimension))
    weights = list(family.base)
    for t, d in zip(params, family.directions):
        if t:
            for slot, c in enumerate(d):
                if c:
                    weights[slot] += t * c
    if weights != target:
        return None
    return params


def _fraction_parameter_bounds(family):
    # parameter_bounds before families held integer rows: slot by slot on
    # the Fraction base and direction; kept as the oracle
    lo, hi = None, None
    d = family.directions[0]
    for slot, b in enumerate(family.base):
        c = d[slot]
        if c == 0:
            if b < 0:
                return None
            continue
        bound = -b / c
        if c > 0:
            if lo is None or bound > lo:
                lo = bound
        elif hi is None or bound < hi:
            hi = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _fraction_at(family, *values):
    # AffineFamily.at before families held integer rows: the weights summed
    # as Fractions slot by slot, then an EmpiricalModel; None where a weight
    # is negative; kept as the oracle
    weights = list(family.base)
    for t, d in zip(values, family.directions):
        if t:
            for slot, c in enumerate(d):
                if c:
                    weights[slot] += t * c
    if any(w < 0 for w in weights):
        return None
    offs = slot_offsets(family.scenario)
    sizes = family.scenario.section_sizes
    rows = tuple(tuple(weights[o:o + k]) for o, k in zip(offs, sizes))
    return EmpiricalModel(family.scenario, rows)


def _signaling_variant(model, rng):
    # move half of one possible section's weight onto another possible
    # section of the same context: same support, usually signaling
    tables = [list(row) for row in model.tables]
    for ci in rng.sample(range(len(tables)), len(tables)):
        possible = [si for si, w in enumerate(tables[ci]) if w]
        if len(possible) > 1:
            a, b = rng.sample(possible, 2)
            tables[ci][a], tables[ci][b] = tables[ci][a] / 2, tables[ci][b] + tables[ci][a] / 2
            return EmpiricalModel(model.scenario, tuple(map(tuple, tables)))
    return model


def _membership_cases(kind, seed):
    rng = random.Random(seed)
    if kind == "reference":
        family = solve_support(apply_plan(reference_plan()))
        inside = [family.at(rat(rng.randint(8, 16), 64)) for _ in range(2)]
        return family, inside + [uniform_model(family.scenario)]
    if kind == "hit":
        plan = reference_plan()
        hits = search_plans(plan.base, plan_counts(plan), 3, seed)
        family = solve_support(apply_plan(rng.choice(hits)))
        if family is None:
            return None, []
        models = [parity_amcc_422(), uniform_model(family.scenario)]
        # q = 0 is outside some one-parameter hit families; the low end is not
        params = (ZERO,) * family.dimension
        if family.dimension == 1:
            params = (parameter_bounds(family)[0],)
        return family, models + [family.at(*params)]
    sc = bell_scenario(kind, 2, 2)
    model = random_no_signaling_model(sc, rng)
    support = support_of(model)
    family = solve_support(support)
    models = [model, _signaling_variant(model, rng), uniform_model(sc)]
    found = compatible_globals(support)
    if found:
        # a compatible point mass lies in the family, and so do mixtures with it
        point = deterministic_model(sc, rng.choice(found))
        w = rat(rng.randint(1, 9), 10)
        models += [point, mix_models([(w, model), (1 - w, point)])]
    return family, models


@given(
    st.sampled_from(["reference", "hit", 3, 4]),
    st.integers(0, 10**6),
    st.integers(1, 6),
    st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_integer_member_check_matches_the_fraction_recomposition(kind, seed, num, den):
    family, models = _membership_cases(kind, seed)
    if family is None:
        return
    # the same family with its directions rescaled: fractional directions
    # and parameters, and past int64 (HUGE, defined below) an elimination
    # on Python ints
    scaled = [
        _with_vectors(family, directions=[[c * scale for c in d] for d in family.directions])
        for scale in (rat(num, den), rat(num, den) / HUGE)
    ]
    for fam in (family, *scaled):
        for model in models:
            assert family_member_params(fam, model) == _fraction_member_params(fam, model)


@given(
    st.sampled_from(["reference", "hit", 3, 4]),
    st.integers(0, 10**6),
    st.integers(-6, 6),
    st.integers(1, 64),
)
@settings(max_examples=25, deadline=None)
def test_family_values_match_the_fraction_code(kind, seed, num, den):
    family, models = _membership_cases(kind, seed)
    if family is None:
        return
    # the parameters of the models in the family, and each moved by a
    # different multiple of num / den
    points = [p for p in (_fraction_member_params(family, m) for m in models) if p is not None]
    points += [tuple(t + rat(num * (k + 1), den) for k, t in enumerate(p)) for p in points]
    if family.dimension == 1:
        bounds = parameter_bounds(family)
        assert bounds == _fraction_parameter_bounds(family)
        if bounds is not None:
            lo, hi = bounds
            points += [(lo,), (hi,), ((lo + hi) / 2,), (lo - rat(1, den),), (hi + rat(num, den),)]
    assert points
    for values in points:
        expected = _fraction_at(family, *values)
        if expected is None:
            with pytest.raises(PreconditionError, match="negative weight|no value"):
                family.at(*values)
        else:
            model = family.at(*values)
            assert model == expected
            assert (model.den, model.rows) == (expected.den, expected.rows)


def test_one_parameter_family_with_a_negative_anchor_direction():
    # the elimination leaves the direction -1 at the first slot it moves,
    # slot 8; renamed q, that slot's weight, the direction turns +1 there
    support = SupportModel(bell_scenario(2, 2, 2), (1, 1, 5, 5))
    table, supported = _support_table(support, _possible_slots(support))
    table, det, pivots, _ = _gauss_jordan(table, disjoint=4)
    (free,) = set(range(supported.size)) - set(pivots)
    raw = {int(supported[c]): -int(table[r, free]) for c, r in pivots.items()}
    raw[int(supported[free])] = det
    anchor = min(slot for slot, x in raw.items() if x)
    assert (anchor, raw[anchor]) == (8, -1)
    family = solve_support(support)
    assert family.parameters == ("q",)
    assert family.den == 1
    assert family.rows == (
        (1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 1, 0, -1, 0),
    )
    assert parameter_bounds(family) == (ZERO, ONE)
    assert family.at(rat(1, 3)).tables[2] == (rat(1, 3), ZERO, rat(2, 3), ZERO)


def test_family_with_no_feasible_parameter_refuses_every_value():
    # base -1 at slot 2, which the direction leaves at 0
    family = solve_support(SupportModel(bell_scenario(2, 2, 2), (13, 2, 10, 13)))
    assert family.dimension == 1
    assert family.entry(0, 2) == (-ONE, (ZERO,))
    assert parameter_bounds(family) is None
    for q in (ZERO, rat(1, 2), ONE):
        with pytest.raises(PreconditionError, match="no value of q is feasible"):
            family.at(q)


def test_member_check_refuses_a_wrong_solution(q_family, monkeypatch):
    # the recomposition is the only check on the elimination's answer
    solve = _gauss_jordan

    def shifted(*args, **kwargs):
        # every pivot row's rhs up by det: each solved parameter up by 1
        table, det, pivots, bad = solve(*args, **kwargs)
        table[:, -1] += det
        return table, det, pivots, bad

    model = q_family.at(rat(3, 16))
    assert family_member_params(q_family, model) == (rat(3, 16),)
    monkeypatch.setattr(amcc.affine, "_gauss_jordan", shifted)
    assert family_member_params(q_family, model) is None


def test_alternate_final_context_additions_pin_the_family():
    plan = reference_plan()
    adds = list(plan.additions)
    adds[12] = (0, 5, 6, 9, 12)
    variant = AugmentationPlan(plan.base, tuple(adds))
    family = solve_support(apply_plan(variant))
    assert family is not None
    assert family.dimension == 0


# ---------------------------------------------------------------------------
# rendering and serialization


@pytest.mark.parametrize(
    "const,coeff,text",
    [
        (0, 0, "0"),
        (rat(1, 8), 0, "1/8"),
        (0, 1, "q"),
        (0, -1, "-q"),
        (rat(1, 4), -1, "1/4-q"),
        (rat(-1, 4), 2, "2q-1/4"),
        (rat(1, 4), 1, "1/4+q"),
        (rat(-1, 4), 1, "q-1/4"),
        (rat(1, 2), rat(-3, 2), "1/2-3/2q"),
    ],
)
def test_lin_str_rendering(const, coeff, text):
    assert lin_str(const, coeff) == text


def test_family_csv_is_stable_and_symbolic(q_family):
    csv1 = family_to_csv(q_family)
    csv2 = family_to_csv(q_family)
    assert csv1 == csv2
    assert "2q-1/4" in csv1
    assert "1/4-q" in csv1
    assert csv1.count("\n") >= 16


def test_family_json_roundtrip(q_family):
    doc = family_to_json(q_family)
    assert doc["parameters"] == ["q"]
    assert doc["bounds"] == ["1/8", "1/4"]
    back = family_from_json(doc)
    assert back.scenario == q_family.scenario
    assert back.base == q_family.base
    assert back.directions == q_family.directions
    assert back.at(rat(1, 8)) == q_family.at(rat(1, 8))


def test_family_json_validation(q_family):
    doc = family_to_json(q_family)
    del doc["base"]
    with pytest.raises(ValueError, match="missing key"):
        family_from_json(doc)
    doc2 = family_to_json(q_family)
    doc2["base"] = doc2["base"][:-1]
    with pytest.raises(ValueError, match="base length"):
        family_from_json(doc2)


def test_family_json_refuses_a_direction_or_a_parameter_list_of_the_wrong_length(q_family):
    doc = family_to_json(q_family)
    doc["directions"][0] = doc["directions"][0][:-1]
    with pytest.raises(ValueError, match="^direction length does not match the scenario$"):
        family_from_json(doc)
    doc = family_to_json(q_family)
    doc["parameters"] = ["q", "r"]
    with pytest.raises(ValueError, match="^one parameter name per direction required$"):
        family_from_json(doc)


def test_family_json_refuses_a_bad_literal_then_the_shape_then_a_value(q_family):
    # model_from_json's refusal order: the first bad literal in row order
    # (the base, then each direction), then the vectors' lengths and the
    # parameter count, then the family's values
    doc = family_to_json(q_family)
    doc["base"] = doc["base"][:-1]
    doc["directions"][-1][0] = 0.5
    with pytest.raises(TypeError, match="refusing float input"):
        family_from_json(doc)
    doc = family_to_json(q_family)
    doc["base"][0] = rat_str(rat(doc["base"][0]) + rat(1, 8))
    doc["parameters"] = []
    with pytest.raises(ValueError, match="^one parameter name per direction required$"):
        family_from_json(doc)
    doc["parameters"] = ["q"]
    with pytest.raises(VerificationError):
        family_from_json(doc)


def test_family_json_refuses_vectors_that_are_not_lists(q_family):
    # a string is not read as its characters, nor an object as its keys:
    # directions that are not a list are refused first, then a base or a
    # direction that is not a list, at its place in row order
    doc = family_to_json(q_family)
    for directions in ("".join(doc["base"]), dict.fromkeys(doc["base"])):
        bad = dict(doc, base=[0.5, *doc["base"][1:]], directions=directions)
        with pytest.raises(TypeError, match="^expected a list, got (a string|an object)$"):
            family_from_json(bad)
    as_text = ",".join(doc["directions"][0])
    with pytest.raises(TypeError, match="refusing float input"):
        family_from_json(dict(doc, base=[0.5, *doc["base"][1:]], directions=[as_text]))
    with pytest.raises(TypeError, match="^expected a list, got a string$"):
        family_from_json(dict(doc, directions=[as_text]))
    with pytest.raises(TypeError, match="^expected a list, got a string$"):
        family_from_json(dict(doc, base=",".join(doc["base"]), directions=[[0.5]]))


@pytest.mark.parametrize("parameters", ["q", {"q": 1}], ids=["string", "object"])
def test_family_json_refuses_parameters_that_are_not_a_list(q_family, parameters):
    # read as its characters or its keys, either was the parameter list ['q']
    doc = dict(family_to_json(q_family), parameters=parameters)
    with pytest.raises(TypeError, match="^expected a list, got (a string|an object)$"):
        family_from_json(doc)


@pytest.mark.parametrize(
    "name, error",
    [(1, TypeError), (None, TypeError), (["q"], TypeError), ("", ValueError)],
    ids=["number", "null", "list", "empty"],
)
def test_family_json_refuses_parameter_names_that_are_not_nonempty_strings(q_family, name, error):
    # each of these decoded to a family whose one parameter was that value
    doc = dict(family_to_json(q_family), parameters=[name])
    with pytest.raises(error, match="^parameters must be "):
        family_from_json(doc)


def test_family_check_refuses_a_corrupted_family(q_family):
    # context 0 leads the slot order, so its section indices are slots
    sections = range(section_size(q_family.scenario, 0))
    on = next(si for si in sections if q_family.support.possible(0, si))
    off = next(si for si in sections if not q_family.support.possible(0, si))
    for key, slot, message in (
        ("base", on, "violates an equality"),
        ("directions", on, "homogeneity"),
        ("base", off, "outside the support"),
    ):
        doc = family_to_json(q_family)
        vector = doc["base"] if key == "base" else doc["directions"][0]
        vector[slot] = rat_str(rat(vector[slot]) + rat(1, 8))
        with pytest.raises(VerificationError, match=message):
            family_from_json(doc)


def _row_by_row_check_family(family):
    # the family check before it ran in one vectorized pass: off-support
    # entries, then the support's ns_equations row by row, base before
    # directions; kept as the oracle
    sc = family.scenario
    offs = slot_offsets(sc)
    for ci in range(sc.n_contexts):
        for si in range(section_size(sc, ci)):
            if not family.support.possible(ci, si):
                slot = offs[ci] + si
                if family.base[slot] != 0 or any(d[slot] != 0 for d in family.directions):
                    raise VerificationError(
                        "family has weight outside the support",
                        details={"context": ci, "section": si},
                    )
    (base_den, base), *directions = map(over_lcm, (family.base, *family.directions))
    for row, rhs in ns_equations(sc, family.support):
        if sum(c * base[slot] for slot, c in row.items()) != rhs * base_den:
            raise VerificationError("family base violates an equality")
        for _, d in directions:
            if sum(c * d[slot] for slot, c in row.items()) != 0:
                raise VerificationError("family direction violates homogeneity")


def _check(family):
    _check_family(family, _possible_slots(family.support))


def _verdict(check, family):
    try:
        check(family)
    except VerificationError as exc:
        return str(exc), exc.details
    return None


def _shifted(family, vector, slot, delta):
    # vector -1 is the base, k >= 0 direction k
    if vector < 0:
        base = list(family.base)
        base[slot] += delta
        return _with_vectors(family, base=base)
    dirs = [list(d) for d in family.directions]
    dirs[vector][slot] += delta
    return _with_vectors(family, directions=dirs)


# a delta or a scale of 3**45 puts numerators and the base's denominator
# past 2**63, so the vectorized check runs on Python ints
HUGE = 3**45


@given(
    st.sampled_from([(2, 2, 2), (3, 2, 2), (4, 2, 2)]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["none", "base", "direction", "both", "balanced", "off", "two-off"]),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_vectorized_family_check_matches_the_row_by_row_one(dims, seed, corruption, huge):
    rng = random.Random(seed)
    sc = bell_scenario(*dims)
    family = solve_support(support_of(random_no_signaling_model(sc, rng)))
    delta = rat(rng.choice((-1, 1)) * rng.randint(1, 5), HUGE if huge else rng.randint(1, 8))
    if huge and family.dimension:
        huge = [[c * HUGE for c in d] for d in family.directions]
        family = _with_vectors(family, directions=huge)
    offs = slot_offsets(sc)
    on = [offs[ci] + si for ci in range(sc.n_contexts)
          for si in range(section_size(sc, ci)) if family.support.possible(ci, si)]
    off = sorted(set(range(slot_count(sc))) - set(on))
    vectors = range(-1, family.dimension)
    if corruption == "base":
        family = _shifted(family, -1, rng.choice(on), delta)
    elif corruption == "direction" and family.dimension:
        family = _shifted(family, rng.choice(vectors[1:]), rng.choice(on), delta)
    elif corruption == "both":
        family = _shifted(family, -1, rng.choice(on), delta)
        if family.dimension:
            family = _shifted(family, rng.choice(vectors[1:]), rng.choice(on), delta)
    elif corruption == "balanced":
        # one context's total is kept, so only marginal rows can fail
        ci = rng.randrange(sc.n_contexts)
        mine = [s for s in on if offs[ci] <= s < offs[ci] + section_size(sc, ci)]
        if len(mine) > 1:
            a, b = rng.sample(mine, 2)
            vector = rng.choice(vectors)
            family = _shifted(_shifted(family, vector, a, delta), vector, b, -delta)
    elif corruption == "off" and off:
        family = _shifted(family, rng.choice(vectors), rng.choice(off), delta)
    elif corruption == "two-off" and len(off) > 1:
        # only the first off-support slot in slot order is reported
        for slot in rng.sample(off, 2):
            family = _shifted(family, rng.choice(vectors), slot, delta)
    expected = _verdict(_row_by_row_check_family, family)
    assert _verdict(_check, family) == expected
    if corruption == "none" or (corruption == "direction" and not family.dimension):
        assert expected is None


def test_family_check_reports_the_first_violating_row(q_family):
    sc = q_family.scenario
    offs = slot_offsets(sc)

    def first_on(ci):
        return offs[ci] + next(
            si for si in range(section_size(sc, ci)) if q_family.support.possible(ci, si)
        )

    first, last = first_on(0), first_on(sc.n_contexts - 1)
    for vector, message in ((0, "homogeneity"), (-1, "violates an equality")):
        # the first normalization row fails for this vector, later rows for
        # the other one
        other = -1 - vector
        family = _shifted(_shifted(q_family, vector, first, rat(1, 8)), other, last, rat(1, 8))
        with pytest.raises(VerificationError, match=message):
            _check(family)
        assert _verdict(_check, family) == _verdict(_row_by_row_check_family, family)


def test_family_check_runs_past_int64(q_family):
    huge = [[c * HUGE for c in d] for d in q_family.directions]
    scaled = _with_vectors(q_family, directions=huge)
    _check(scaled)
    on = next(si for si in range(section_size(q_family.scenario, 0))
              if q_family.support.possible(0, si))
    for vector, message in ((-1, "violates an equality"), (0, "homogeneity")):
        with pytest.raises(VerificationError, match=message):
            _check(_shifted(scaled, vector, on, rat(1, HUGE)))


# ---------------------------------------------------------------------------
# classification of stock models


def test_pr_box_is_the_two_party_amcc():
    c = classify(pr_box(0))
    assert c.verdict == "AMCC"


def test_noisy_pr_box_is_not_maximal():
    sc = bell_scenario(2, 2, 2)
    noisy = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    c = classify(noisy)
    assert c.verdict == "not maximal"
    assert c.contextuality == "contextual"
    assert c.cf == rat(1, 2)


def test_uniform_model_is_noncontextual_and_not_maximal():
    c = classify(uniform_model(bell_scenario(2, 2, 2)))
    assert c.verdict == "not maximal"
    assert c.contextuality == "noncontextual"
    assert c.maximal_marginals is True

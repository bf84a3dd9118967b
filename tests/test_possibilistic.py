"""Support models, strong contextuality and possibilistic no-signaling,
with the Boolean-formula route and the set-based projection as oracles."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amcc import possibilistic
from amcc.csp import AugmentationPlan, apply_plan, opposite_sections, reference_plan
from amcc.errors import ResourceLimitError, VerificationError
from amcc.model import (
    deterministic_model,
    ghz_322,
    parity_amcc_422,
    pr_box,
    uniform_model,
)
from amcc.parity import parity_system_from_vector
from amcc.possibilistic import (
    SupportModel,
    compatible_globals,
    possibilistic_no_signaling,
    strong_contextuality,
    support_from_json,
    support_of,
    support_sections,
    support_to_json,
    uniform_on_support,
)
from amcc.rational import rat
from amcc.scenario import (
    MeasurementScenario,
    bell_scenario,
    global_outcomes,
    global_size,
    restriction_table,
    section_outcomes,
    section_size,
)


# ---------------------------------------------------------------------------
# Boolean formulas: the oracle for the compatibility scan


@dataclass(frozen=True)
class BooleanProposition:
    """Disjunction, over a context's allowed sections, of the conjunction of
    measurement=value literals describing each section."""

    context: int
    statements: tuple  # outcome tuples, one per allowed section

    def __post_init__(self):
        if not self.statements:
            raise ValueError("a proposition needs at least one statement")


@dataclass(frozen=True)
class BooleanFormula:
    """Conjunction of one proposition per context. Satisfying assignments are
    exactly the compatible globals."""

    scenario: object
    propositions: tuple

    def __post_init__(self):
        if len(self.propositions) != self.scenario.n_contexts:
            raise ValueError("need exactly one proposition per context")
        for ci, prop in enumerate(self.propositions):
            if prop.context != ci:
                raise ValueError("propositions must be listed in context order")

    def evaluate(self, assignment):
        """assignment: outcome tuple over every measurement."""
        sc = self.scenario
        if len(assignment) != len(sc.measurements):
            raise ValueError("assignment must cover every measurement")
        for ci, prop in enumerate(self.propositions):
            got = tuple(assignment[m] for m in sc.cover[ci])
            if got not in prop.statements:
                return False
        return True

    def proposition_str(self, ci):
        sc = self.scenario
        names = [sc.measurements[m] for m in sc.cover[ci]]
        parts = []
        for outs in self.propositions[ci].statements:
            lits = " & ".join(f"{n}={v}" for n, v in zip(names, outs))
            parts.append("(" + lits + ")")
        return " | ".join(parts)

    def __str__(self):
        return "\n".join(self.proposition_str(ci) for ci in range(len(self.propositions)))


def formula_of(support):
    sc = support.scenario
    props = []
    for ci in range(sc.n_contexts):
        props.append(
            BooleanProposition(
                context=ci,
                statements=tuple(
                    section_outcomes(sc, ci, si) for si in support_sections(support, ci)
                ),
            )
        )
    return BooleanFormula(sc, tuple(props))


# ---------------------------------------------------------------------------
# set-based projections: the oracle for possibilistic_no_signaling


def _projected_support(support, ci, measurements):
    sc = support.scenario
    ctx = sc.cover[ci]
    pos = [ctx.index(m) for m in measurements]
    seen = set()
    for si in support_sections(support, ci):
        s = section_outcomes(sc, ci, si)
        seen.add(tuple(s[p] for p in pos))
    return seen


def _set_no_signaling(support):
    sc = support.scenario
    for ci, cj in combinations(range(sc.n_contexts), 2):
        shared = tuple(m for m in sc.cover[ci] if m in sc.cover[cj])
        if not shared:
            continue
        seen_i = _projected_support(support, ci, shared)
        seen_j = _projected_support(support, cj, shared)
        if seen_i != seen_j:
            u = sorted(seen_i ^ seen_j)[0]
            return False, (ci, cj, shared, u)
    return True, None


def test_support_of_pr_box_keeps_the_xor_sections():
    sup = support_of(pr_box(0))
    assert sup.masks == (0b1001, 0b1001, 0b1001, 0b0110)
    assert support_sections(sup, 0) == (0, 3)
    assert support_sections(sup, 3) == (1, 2)
    assert sup.possible(3, 1) and not sup.possible(3, 0)


def test_support_model_rejects_empty_and_oversized_masks():
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(ValueError, match="empty support"):
        SupportModel(sc, (0, 15, 15, 15))
    with pytest.raises(ValueError, match="out of range"):
        SupportModel(sc, (16, 15, 15, 15))
    with pytest.raises(ValueError, match="one support mask"):
        SupportModel(sc, (15, 15, 15))


def test_pr_box_support_is_strongly_contextual():
    sup = support_of(pr_box(0))
    verdict, witness = strong_contextuality(sup)
    assert verdict is True and witness is None
    assert compatible_globals(sup) == []


def test_uniform_support_is_not_strongly_contextual():
    sup = support_of(uniform_model(bell_scenario(2, 2, 2)))
    verdict, witness = strong_contextuality(sup)
    assert verdict is False and witness == 0
    assert compatible_globals(sup) == list(range(16))


def test_deterministic_support_has_one_compatible_global():
    sc = bell_scenario(2, 2, 2)
    sup = support_of(deterministic_model(sc, 11))
    verdict, witness = strong_contextuality(sup)
    assert verdict is False and witness == 11
    assert compatible_globals(sup) == [11]


def test_known_strongly_contextual_models():
    for model in (ghz_322(), parity_amcc_422()):
        verdict, _ = strong_contextuality(support_of(model))
        assert verdict is True


def _arbitrary_supports(sc):
    masks = [st.integers(1, (1 << section_size(sc, ci)) - 1) for ci in range(sc.n_contexts)]
    return st.tuples(*masks).map(lambda m: SupportModel(sc, m))


def _random_supports(parties):
    return _arbitrary_supports(bell_scenario(parties, 2, 2))


@st.composite
def _augmented_parity_supports(draw):
    sc = bell_scenario(4, 2, 2)
    base = parity_system_from_vector(sc, draw(st.integers(0, (1 << sc.n_contexts) - 1)))
    additions = tuple(
        tuple(sorted(draw(st.lists(st.sampled_from(opposite_sections(base, ci)),
                                   unique=True, max_size=3))))
        for ci in range(sc.n_contexts)
    )
    return apply_plan(AugmentationPlan(base, additions))


# one context has 140 sections, so its mask does not fit a machine word
WIDE_SCENARIO = MeasurementScenario(
    measurements=("a", "b", "c"),
    outcomes=(70, 2, 2),
    cover=((0, 1), (1, 2)),
)


@given(
    st.one_of(
        _random_supports(2),
        _random_supports(3),
        _augmented_parity_supports(),
        _arbitrary_supports(WIDE_SCENARIO),
    )
)
@example(support_of(pr_box(3)))
@example(SupportModel(WIDE_SCENARIO, (1 << 139 | 1 << 64, 0b0100)))
@example(apply_plan(reference_plan()))
@settings(max_examples=60, deadline=None)
def test_formula_evaluation_matches_the_scan(sup):
    # the Boolean formula is the oracle for the compatibility scan
    sc = sup.scenario
    formula = formula_of(sup)
    sat = [
        gi for gi in range(global_size(sc))
        if formula.evaluate(global_outcomes(sc, gi))
    ]
    assert sat == compatible_globals(sup)
    assert strong_contextuality(sup) == ((False, sat[0]) if sat else (True, None))


def test_an_incompatible_scan_witness_raises(monkeypatch):
    sup = support_of(pr_box(0))  # strongly contextual: no global is compatible

    def wrong_mask(support, table):
        mask = np.zeros((*support.shape[:-1], table.shape[1]), dtype=np.bool_)
        mask[..., 5] = True
        return mask

    monkeypatch.setattr(possibilistic, "compatible_mask", wrong_mask)
    with pytest.raises(VerificationError, match="incompatible global") as exc:
        strong_contextuality(sup)
    assert exc.value.details["global"] == 5


def test_formula_strings_read_as_disjunctions_of_conjunctions():
    sup = support_of(pr_box(0))
    formula = formula_of(sup)
    assert formula.proposition_str(0) == "(Y1=0 & Y2=0) | (Y1=1 & Y2=1)"
    assert formula.proposition_str(3) == "(Y1'=0 & Y2'=1) | (Y1'=1 & Y2'=0)"
    assert str(formula).count("\n") == 3


def test_formula_shape_validation():
    sc = bell_scenario(2, 2, 2)
    prop = BooleanProposition(0, ((0, 0),))
    with pytest.raises(ValueError, match="one proposition per context"):
        BooleanFormula(sc, (prop,))
    with pytest.raises(ValueError, match="context order"):
        BooleanFormula(sc, (prop, prop, prop, prop))
    with pytest.raises(ValueError, match="at least one statement"):
        BooleanProposition(0, ())
    formula = formula_of(support_of(uniform_model(sc)))
    with pytest.raises(ValueError, match="every measurement"):
        formula.evaluate((0, 0))


def test_possibilistic_no_signaling_verdicts():
    ok, wit = possibilistic_no_signaling(support_of(pr_box(0)))
    assert ok is True and wit is None
    # context 0 pins Y1=0 while context 1 still allows Y1=1
    sc = bell_scenario(2, 2, 2)
    bad = SupportModel(sc, (0b0011, 0b1111, 0b1111, 0b1111))
    ok, wit = possibilistic_no_signaling(bad)
    assert ok is False
    ci, cj, shared, outcome = wit
    assert (ci, cj) == (0, 1)
    assert shared == (0,)
    assert outcome == (1,)


# (2,2,3) has nine sections per context, so some shared keys are not bits
# 0/1; two to four parties and three settings are drawn too
NO_SIGNALING_SCENARIOS = tuple(
    bell_scenario(*shape) for shape in ((2, 2, 2), (3, 2, 2), (2, 3, 2), (4, 2, 2), (2, 2, 3))
)


# explicit covers without party structure, where every overlapping pair is
# checked: a triangle of two-measurement contexts with a three-valued
# measurement, and a chain of four binary measurements
EXPLICIT_SCENARIOS = (
    MeasurementScenario(
        measurements=("a", "b", "c"), outcomes=(2, 3, 2), cover=((0, 1), (1, 2), (0, 2))
    ),
    MeasurementScenario(
        measurements=("a", "b", "c", "d"), outcomes=(2,) * 4, cover=((0, 1), (1, 2), (2, 3))
    ),
)


def _point_mass_masks(draw, sc):
    table = restriction_table(sc)
    masks = [0] * sc.n_contexts
    for gi in draw(st.lists(st.integers(0, global_size(sc) - 1), min_size=1, max_size=4)):
        for ci in range(sc.n_contexts):
            masks[ci] |= 1 << int(table[ci, gi])
    return masks


@st.composite
def _point_mass_supports(draw, sc):
    # the support of a mixture of point masses is possibilistically
    # no-signaling; toggling one section, or taking one context's mask from
    # another such support, usually breaks that
    masks = _point_mass_masks(draw, sc)
    change = draw(st.sampled_from(["none", "toggle", "swap"]))
    ci = draw(st.integers(0, sc.n_contexts - 1))
    if change == "toggle":
        si = draw(st.integers(0, section_size(sc, ci) - 1))
        if masks[ci] != 1 << si:
            masks[ci] ^= 1 << si
    elif change == "swap":
        masks[ci] = _point_mass_masks(draw, sc)[ci]
    return SupportModel(sc, tuple(masks))


def test_possibilistic_witness_is_the_first_failing_pair_in_overlaps_order():
    # (3,2,2) context 3 is (0,1,1). Pinned to one section, it first disagrees
    # with context 0, two settings apart; the first pair one setting apart
    # that fails is (1, 3)
    sc = bell_scenario(3, 2, 2)
    masks = [(1 << 8) - 1] * sc.n_contexts
    masks[3] = 1
    ok, wit = possibilistic_no_signaling(SupportModel(sc, tuple(masks)))
    assert (ok, wit) == (False, (0, 3, (0,), (1,)))


@given(
    st.one_of(
        *map(_arbitrary_supports, NO_SIGNALING_SCENARIOS + EXPLICIT_SCENARIOS),
        *map(_point_mass_supports, NO_SIGNALING_SCENARIOS + EXPLICIT_SCENARIOS),
        _augmented_parity_supports(),
    )
)
@example(support_of(pr_box(0)))
@example(apply_plan(reference_plan()))
@example(SupportModel(bell_scenario(2, 2, 2), (0b0011, 0b1111, 0b1111, 0b1111)))
# the triangle's context (a, b) allows only a=0, b=1, which packs to 1 there
# and to 0 in (b, c); (b, c) allows every b, so the witness is b=0 of {0, 2}
@example(SupportModel(EXPLICIT_SCENARIOS[0], (0b10, 0b111111, 0b1111)))
@settings(max_examples=200, deadline=None)
def test_bit_tables_match_the_set_projections(sup):
    assert possibilistic_no_signaling(sup) == _set_no_signaling(sup)


def test_uniform_on_support_spreads_mass_evenly():
    sup = support_of(pr_box(0))
    model = uniform_on_support(sup)
    assert model.tables[0] == (rat(1, 2), rat(0), rat(0), rat(1, 2))
    assert support_of(model).masks == sup.masks


def test_support_json_roundtrip():
    sup = support_of(parity_amcc_422())
    doc = support_to_json(sup)
    assert doc["tables"][0][0] == "1"
    assert all(cell in ("0", "1") for row in doc["tables"] for cell in row)
    back = support_from_json(doc)
    assert back.scenario == sup.scenario
    assert back.masks == sup.masks


def test_support_json_validation():
    doc = support_to_json(support_of(pr_box(0)))
    doc["tables"][0][0] = "1/2"
    with pytest.raises(ValueError, match="0 or 1"):
        support_from_json(doc)
    with pytest.raises(ValueError, match="scenario and tables"):
        support_from_json({"tables": []})
    short = support_to_json(support_of(pr_box(0)))
    short["tables"] = short["tables"][:-1]
    with pytest.raises(ValueError, match="one table row per context"):
        support_from_json(short)


def test_support_json_refuses_a_row_of_the_wrong_width():
    doc = support_to_json(support_of(pr_box(0)))
    doc["tables"][1] = doc["tables"][1][:-1]
    with pytest.raises(ValueError, match="^wrong table width in context 1$"):
        support_from_json(doc)


def test_support_json_refuses_a_bad_literal_first_then_row_by_row():
    # model_from_json's refusal order: the first bad literal in row order
    # wherever it sits, then the row count, then each row's width and values
    doc = support_to_json(support_of(pr_box(0)))
    doc["tables"][0] = doc["tables"][0][:-1]
    doc["tables"][-1][0] = 1.0
    with pytest.raises(TypeError, match="refusing float input"):
        support_from_json(doc)
    doc = support_to_json(support_of(pr_box(0)))
    doc["tables"][1][0] = "2"
    doc["tables"][-1] = doc["tables"][-1][:-1]
    with pytest.raises(ValueError, match="^support entries must be 0 or 1, got '2'$"):
        support_from_json(doc)
    doc["tables"][0] = doc["tables"][0][:-1]
    with pytest.raises(ValueError, match="^wrong table width in context 0$"):
        support_from_json(doc)
    doc["tables"] = doc["tables"][:-1]
    with pytest.raises(ValueError, match="^need one table row per context$"):
        support_from_json(doc)


def test_support_json_reads_ints_and_strings_and_refuses_floats():
    sup = support_of(pr_box(0))
    doc = support_to_json(sup)
    mixed = dict(doc, tables=[[int(c) if si % 2 else c for si, c in enumerate(row)]
                              for row in doc["tables"]])
    assert support_from_json(mixed).masks == sup.masks
    for si, cell in ((2, 1.0), (3, 0.0)):
        # an equal int comes earlier in the document
        bad = dict(mixed, tables=[list(row) for row in mixed["tables"]])
        bad["tables"][-1][si] = cell
        with pytest.raises(TypeError, match="refusing float input"):
            support_from_json(bad)
    for cell in (2, "1/2", -1):
        bad = dict(mixed, tables=[list(row) for row in mixed["tables"]])
        bad["tables"][0][0] = cell
        with pytest.raises(ValueError, match="0 or 1"):
            support_from_json(bad)


def test_scan_limit_guard():
    # 21 three-valued measurements in one context: > 2^20 global assignments
    n = 21
    sc = MeasurementScenario(
        measurements=tuple(f"m{i}" for i in range(n)),
        outcomes=(3,) * n,
        cover=(tuple(range(n)),),
    )
    sup = SupportModel(sc, (1,))
    with pytest.raises(ResourceLimitError, match="global assignments is over the limit"):
        compatible_globals(sup)


@given(st.integers(0, 7), st.integers(0, 15))
@settings(max_examples=30, deadline=None)
def test_widening_a_support_never_creates_contextuality(k, extra_bits):
    # adding sections can only add compatible globals
    base = support_of(pr_box(k))
    masks = list(base.masks)
    masks[0] |= extra_bits or 1
    widened = SupportModel(base.scenario, tuple(masks))
    assert set(compatible_globals(base)) <= set(compatible_globals(widened))


@given(
    st.one_of(
        *map(_arbitrary_supports, NO_SIGNALING_SCENARIOS + EXPLICIT_SCENARIOS),
        _arbitrary_supports(WIDE_SCENARIO),
    )
)
@example(support_of(pr_box(0)))
@example(apply_plan(reference_plan()))
# contexts of 6, 6 and 4 sections, and of 140 and 4: the padded cells of
# the packed grid are not slots
@example(SupportModel(EXPLICIT_SCENARIOS[0], (0b100001, 0b111110, 0b1000)))
@example(SupportModel(WIDE_SCENARIO, (1 << 139 | 1, 0b1000)))
@settings(max_examples=100, deadline=None)
def test_possible_slots_read_the_support_in_slot_order(sup):
    sc = sup.scenario
    expected = [
        sup.possible(ci, si) for ci in range(sc.n_contexts) for si in range(section_size(sc, ci))
    ]
    slots = possibilistic._possible_slots(sup)
    assert slots.dtype == np.bool_
    assert slots.tolist() == expected


def test_a_support_table_or_row_that_is_not_a_list_is_refused():
    # "1001" was read as its characters, the mask 9, and an object as its keys
    doc = support_to_json(support_of(pr_box(0)))
    rows = doc["tables"]
    for tables in (["".join(row) for row in rows], {"".join(row): 1 for row in rows}, "1001"):
        with pytest.raises(TypeError, match="^expected a list, got (a string|an object)$"):
            support_from_json(dict(doc, tables=tables))
    # at its place in row order: after a bad literal before it, before one
    # after, and before any cell's 0-or-1 check, as the decode comes first
    with pytest.raises(ValueError, match="invalid literal"):
        support_from_json(dict(doc, tables=[["x", *rows[0][1:]], "1001", *rows[2:]]))
    for first, third in ((rows[0], ["x", *rows[2][1:]]), (["2", *rows[0][1:]], rows[2])):
        with pytest.raises(TypeError, match="^expected a list, got a string$"):
            support_from_json(dict(doc, tables=[first, "1001", third, rows[3]]))

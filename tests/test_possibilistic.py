"""Support models, strong contextuality and the Boolean-formula route."""

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
    BooleanFormula,
    BooleanProposition,
    SupportModel,
    compatible_globals,
    formula_of,
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
    section_size,
)


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


def _random_supports(parties):
    sc = bell_scenario(parties, 2, 2)
    masks = [st.integers(1, (1 << section_size(sc, ci)) - 1) for ci in range(sc.n_contexts)]
    return st.tuples(*masks).map(lambda m: SupportModel(sc, m))


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


@given(st.one_of(_random_supports(2), _random_supports(3), _augmented_parity_supports()))
@example(support_of(pr_box(3)))
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
        mask = np.zeros(table.shape[1], dtype=np.bool_)
        mask[5] = True
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


def test_scan_limit_guard():
    # 21 three-valued measurements in one context: > 2^20 global assignments
    n = 21
    sc = MeasurementScenario(
        measurements=tuple(f"m{i}" for i in range(n)),
        outcomes=(3,) * n,
        cover=(tuple(range(n)),),
    )
    sup = SupportModel(sc, (1,))
    with pytest.raises(ResourceLimitError, match="scan limit"):
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

"""No-signaling dimensions, affine families and model classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc.affine import (
    classify,
    family_from_json,
    family_member_params,
    family_to_csv,
    family_to_json,
    lin_str,
    ns_dimension,
    ns_dimension_closed_form,
    parameter_bounds,
    solve_support,
)
from amcc.csp import AugmentationPlan, apply_plan, reference_plan
from amcc.errors import PreconditionError
from amcc.model import (
    context_containing,
    marginalize,
    mix_models,
    parity_amcc_422,
    pr_box,
    uniform_model,
)
from amcc.rational import ONE, rat
from amcc.scenario import bell_scenario


@pytest.fixture(scope="module")
def q_family():
    return solve_support(apply_plan(reference_plan()))


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize(
    "parties,dim", [(2, 8), (3, 26), (4, 80)]
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
# the one-parameter family over the reference support


def test_reference_support_solves_to_one_parameter(q_family):
    assert q_family.dimension == 1
    assert q_family.parameters == ("q",)
    assert parameter_bounds(q_family) == (rat(1, 8), rat(1, 4))


def test_family_entries_use_the_four_letter_alphabet(q_family):
    from amcc.scenario import section_size

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

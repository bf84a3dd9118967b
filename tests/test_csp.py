"""Augmentation plans, the seeded search and reference-table reconstruction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc.csp import (
    AugmentationPlan,
    apply_plan,
    opposite_sections,
    plan_counts,
    plan_from_json,
    plan_to_json,
    reconstruct_tables,
    reference_plan,
    report_to_json,
    satisfying_sections,
    search_plans,
)
from amcc.errors import PreconditionError, VerificationError
from amcc.model import parity_amcc_422
from amcc.parity import ParitySystem, parity_system_from_vector
from amcc.possibilistic import compatible_globals, support_of, strong_contextuality
from amcc.rational import rat
from amcc.scenario import bell_scenario

REFERENCE_VECTOR = 0x1C00


def _base_system():
    return parity_system_from_vector(bell_scenario(4, 2, 2), REFERENCE_VECTOR)


def test_parity_classes_split_each_context():
    sys_ = _base_system()
    assert satisfying_sections(sys_, 0) == (0, 3, 5, 6, 9, 10, 12, 15)
    assert opposite_sections(sys_, 0) == (1, 2, 4, 7, 8, 11, 13, 14)
    # context 12 has an odd target, so the classes swap
    assert satisfying_sections(sys_, 12) == (1, 2, 4, 7, 8, 11, 13, 14)
    for ci in range(16):
        sat = set(satisfying_sections(sys_, ci))
        opp = set(opposite_sections(sys_, ci))
        assert not sat & opp
        assert len(sat) + len(opp) == 16


def test_plan_validation():
    sys_ = _base_system()
    empty = ((),) * 16
    AugmentationPlan(sys_, empty)  # fine
    with pytest.raises(PreconditionError, match="one addition tuple"):
        AugmentationPlan(sys_, ((),) * 15)
    with pytest.raises(PreconditionError, match="sorted and unique"):
        AugmentationPlan(sys_, (((2, 1),) + ((),) * 15))
    with pytest.raises(PreconditionError, match="sorted and unique"):
        AugmentationPlan(sys_, (((1, 1),) + ((),) * 15))
    with pytest.raises(PreconditionError, match="out of range"):
        AugmentationPlan(sys_, (((16,),) + ((),) * 15))
    # section 0 already satisfies context 0's even target
    with pytest.raises(PreconditionError, match="already satisfies"):
        AugmentationPlan(sys_, (((0,),) + ((),) * 15))


def test_empty_plan_reproduces_the_parity_support():
    sys_ = _base_system()
    plan = AugmentationPlan(sys_, ((),) * 16)
    assert apply_plan(plan).masks == support_of(parity_amcc_422()).masks


def test_reference_plan_counts_and_sizes():
    plan = reference_plan()
    assert plan.base.vector == REFERENCE_VECTOR
    assert plan_counts(plan) == (3, 1, 0, 2, 0, 4, 3, 0, 0, 1, 3, 0, 4, 3, 0, 0)
    sup = apply_plan(plan)
    sizes = [bin(m).count("1") for m in sup.masks]
    assert sizes == [11, 9, 8, 10, 8, 12, 11, 8, 8, 9, 11, 8, 12, 11, 8, 8]
    verdict, _ = strong_contextuality(sup)
    assert verdict is True


def test_plan_json_roundtrip():
    plan = reference_plan()
    doc = plan_to_json(plan)
    assert doc["additions"][0] == [8, 11, 14]
    back = plan_from_json(doc)
    assert back == plan


# ---------------------------------------------------------------------------
# the seeded search


def test_search_is_deterministic_and_single_threaded():
    base = _base_system()
    counts = plan_counts(reference_plan())
    first = search_plans(base, counts, trials=20, seed=7)
    again = search_plans(base, counts, trials=20, seed=7, threads=1)
    assert first == again
    assert all(plan_counts(p) == counts for p in first)
    with pytest.raises(PreconditionError, match="threads must be 1"):
        search_plans(base, counts, trials=20, seed=7, threads=2)


def test_search_at_the_reference_profile_keeps_every_trial():
    base = _base_system()
    counts = plan_counts(reference_plan())
    hits = search_plans(base, counts, trials=50, seed=7)
    assert len(hits) == 50


def test_search_with_no_additions_returns_every_trial_unchanged():
    base = _base_system()
    hits = search_plans(base, (0,) * 16, trials=5, seed=1)
    assert len(hits) == 5
    assert all(p.additions == ((),) * 16 for p in hits)


def test_search_with_full_additions_finds_nothing():
    # allowing all 16 sections everywhere admits every global assignment
    base = _base_system()
    assert search_plans(base, (8,) * 16, trials=5, seed=1) == []


def test_search_with_five_additions_everywhere_finds_nothing():
    base = _base_system()
    assert search_plans(base, (5,) * 16, trials=30, seed=7) == []


def test_search_validation():
    base = _base_system()
    with pytest.raises(PreconditionError, match="one addition count"):
        search_plans(base, (0,) * 15, trials=1, seed=0)
    with pytest.raises(PreconditionError, match="exceeds the opposite"):
        search_plans(base, (9,) + (0,) * 15, trials=1, seed=0)
    with pytest.raises(PreconditionError, match="exceeds the opposite"):
        search_plans(base, (-1,) + (0,) * 15, trials=1, seed=0)
    with pytest.raises(PreconditionError, match="nonnegative"):
        search_plans(base, (0,) * 16, trials=-1, seed=0)
    assert search_plans(base, (0,) * 16, trials=0, seed=0) == []


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=10, deadline=None)
def test_extra_additions_only_grow_the_compatible_set(a, b, c):
    # a narrower plan can only be harder to satisfy, so augmenting further
    # never creates strong contextuality that the smaller plan lacked
    base = _base_system()
    opp0 = opposite_sections(base, 0)
    opp5 = opposite_sections(base, 5)

    def picks(mask, opp):
        return tuple(s for k, s in enumerate(opp) if (mask >> k) & 1)

    small = [()] * 16
    small[0] = picks(a, opp0)
    big = list(small)
    big[0] = picks(a | b, opp0)
    big[5] = picks(c, opp5)
    sup_small = apply_plan(AugmentationPlan(base, tuple(small)))
    sup_big = apply_plan(AugmentationPlan(base, tuple(big)))
    assert set(compatible_globals(sup_small)) <= set(compatible_globals(sup_big))


# ---------------------------------------------------------------------------
# reconstruction against the frozen tables


def test_reconstruction_matches_the_frozen_tables():
    family, report = reconstruct_tables()
    assert report.ok is True
    assert report.dimension == 1
    assert report.diffs == ()
    assert report.interval_ok is True
    assert report.bounds == (rat(1, 8), rat(1, 4))
    assert "q" in report.csv
    doc = report_to_json(report)
    assert doc["ok"] is True
    assert doc["interval"] == ["1/8", "1/4"]
    assert doc["diffs"] == []


def test_reconstruction_flags_a_tampered_cell(monkeypatch):
    import copy

    import amcc.csp as csp

    data = copy.deepcopy(csp._reference_data())
    data["table"][0][0] = ["1/8", "0"]  # frozen cell says q
    monkeypatch.setattr(csp, "_reference_data", lambda: data)
    with pytest.raises(VerificationError, match="disagree") as err:
        reconstruct_tables()
    details = err.value.details
    assert details["ok"] is False
    assert details["diffs"][0]["context"] == 0
    assert details["diffs"][0]["expected"] == "1/8"
    assert details["diffs"][0]["actual"] == "q"

"""Augmentation plans, the seeded search and reference-table reconstruction."""

import hashlib
import json
import random
from math import ceil, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcc.csp as csp
from amcc.affine import family_to_csv
from amcc.csp import (
    AugmentationPlan,
    _augmented_masks,
    _draw,
    _draw_schedule,
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
from amcc.errors import PreconditionError, ResourceLimitError, VerificationError
from amcc.model import parity_amcc_422
from amcc.parity import ParitySystem, parity_system_from_vector
from amcc.possibilistic import (
    SupportModel,
    compatible_globals,
    possibilistic_no_signaling,
    strong_contextuality,
    support_of,
)
from amcc.rational import rat
from amcc.scenario import (
    MeasurementScenario,
    bell_scenario,
    global_size,
    restriction_table,
    section_size,
)

REFERENCE_VECTOR = 0x1C00


def _base_system():
    return parity_system_from_vector(bell_scenario(4, 2, 2), REFERENCE_VECTOR)


def test_search_checks_the_global_count_before_listing_any_section(monkeypatch):
    # a chain of 21 binary measurements: 20 contexts and 80 slots pass the
    # scenario's limits, its 2^21 global assignments do not
    n = 21
    sc = MeasurementScenario(
        measurements=tuple(f"m{i}" for i in range(n)),
        outcomes=(2,) * n,
        cover=tuple((i, i + 1) for i in range(n - 1)),
    )
    base = ParitySystem(sc, (0,) * (n - 1))

    def fail(system):
        raise AssertionError("_opposite_classes ran before the limit check")

    monkeypatch.setattr(csp, "_opposite_classes", fail)
    with pytest.raises(ResourceLimitError, match="^2097152 global assignments is over the limit"):
        search_plans(base, (0,) * (n - 1), 1, 1)


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


def _loop_validation(base, additions):
    # the per-section loop written out on its own; kept as the oracle for
    # AugmentationPlan's check, which must give the same first refusal
    sc = base.scenario
    if len(additions) != sc.n_contexts:
        raise PreconditionError("need one addition tuple per context")
    for ci, extra in enumerate(additions):
        size = section_size(sc, ci)
        if list(extra) != sorted(set(extra)):
            raise PreconditionError(f"context {ci}: additions must be sorted and unique")
        for si in extra:
            if not 0 <= si < size:
                raise PreconditionError(f"context {ci}: section {si} out of range")
            if bin(si).count("1") & 1 == base.parities[ci]:
                raise PreconditionError(
                    f"context {ci}: section {si} already satisfies the parity equation"
                )


def _validation_outcome(validate, base, additions):
    try:
        validate(base, additions)
    except PreconditionError as err:
        return str(err)
    return None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_plan_validation_matches_the_per_section_loop(data):
    # valid plans, and plans broken in one to three places: an unsorted or
    # duplicated tuple, a section out of range or of the parity class
    # itself, or one tuple too few or too many
    sc = bell_scenario(data.draw(st.sampled_from([2, 3])), 2, 2)
    base = parity_system_from_vector(sc, data.draw(st.integers(0, (1 << sc.n_contexts) - 1)))
    additions = [
        sorted(data.draw(st.sets(st.sampled_from(opposite_sections(base, ci)))))
        for ci in range(sc.n_contexts)
    ]
    for _ in range(data.draw(st.integers(0, 3))):
        ci = data.draw(st.integers(0, sc.n_contexts - 1))
        extra = additions[ci]
        at = data.draw(st.integers(0, len(extra)))
        kind = data.draw(st.sampled_from(["unsorted", "duplicate", "range", "parity"]))
        if kind == "unsorted":
            extra.reverse()
        elif kind == "duplicate" and extra:
            extra.insert(at, extra[min(at, len(extra) - 1)])
        elif kind == "range":
            size = section_size(sc, ci)
            extra.insert(at, data.draw(st.sampled_from([-1, size, size + 3])))
        elif kind == "parity":
            extra.insert(at, data.draw(st.sampled_from(satisfying_sections(base, ci))))
    length = data.draw(st.sampled_from(["right"] * 4 + ["short", "long"]))
    if length == "short":
        additions.pop()
    elif length == "long":
        additions.append([])
    additions = tuple(map(tuple, additions))
    assert _validation_outcome(AugmentationPlan, base, additions) == _validation_outcome(
        _loop_validation, base, additions
    )


def test_plan_validation_falls_back_to_the_loop_on_other_types():
    # the per-section loop judges any sequence of sections, not only tuples
    # of ints, as before
    sys_ = _base_system()
    rest = ((),) * 15
    AugmentationPlan(sys_, ([1, 2],) + rest)
    AugmentationPlan(sys_, ((np.int64(1), np.int64(2)),) + rest)
    with pytest.raises(TypeError):
        AugmentationPlan(sys_, ((1.0,),) + rest)
    with pytest.raises(PreconditionError, match="sorted and unique"):
        AugmentationPlan(sys_, ([2, 1],) + rest)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("parities", "0000000000000000"),
        ("parities", dict.fromkeys(range(16), 0)),
        ("additions", "8,11,14"),
        ("additions", {"0": [8, 11, 14]}),
        ("addition", ""),
        ("addition", {"8": 1}),
    ],
    ids=["parities-string", "parities-object", "additions-string", "additions-object",
         "addition-string", "addition-object"],
)
def test_plan_from_json_refuses_a_list_given_as_a_string_or_an_object(field, value):
    # read as characters or keys: the parity string was the reference
    # plan's parities, an empty string an empty addition, an object's keys
    # its entries
    doc = plan_to_json(reference_plan())
    if field == "addition":
        doc["additions"][0] = value
    else:
        doc[field] = value
    with pytest.raises(TypeError, match="^expected a list, got (a string|an object)$"):
        plan_from_json(doc)


@pytest.mark.parametrize("doc", ["scenario", ["scenario"], 3, None], ids=repr)
def test_plan_from_json_refuses_a_document_that_is_not_an_object(doc):
    # a string once failed with "string indices must be integers"
    with pytest.raises(ValueError, match="^plan must be a JSON object$"):
        plan_from_json(doc)


@pytest.mark.parametrize("key", ["scenario", "parities", "additions"])
def test_plan_from_json_names_a_missing_key(key):
    # once a bare KeyError: 'scenario'
    doc = plan_to_json(reference_plan())
    del doc[key]
    with pytest.raises(ValueError, match=f"^plan JSON missing key '{key}'$"):
        plan_from_json(doc)


@pytest.mark.parametrize(
    "field, at, value",
    [
        ("additions", (0, 0), 8.9),
        ("additions", (0, 0), 8.0),
        ("parities", (0,), 0.7),
        ("parities", (10,), 1.0),
        ("scenario", ("parties",), 4.0),
    ],
)
def test_plan_from_json_refuses_a_float_integer(field, at, value):
    # int() would turn section 8.9 into 8 and parity 0.7 into 0, both
    # valid in the reference plan
    doc = plan_to_json(reference_plan())
    *path, last = at
    target = doc[field]
    for key in path:
        target = target[key]
    assert int(value) == target[last]
    target[last] = value
    with pytest.raises(TypeError, match="refusing float"):
        plan_from_json(doc)


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


def test_the_draw_reproduces_random_sample_and_its_state():
    # every k <= n for n up to 90 covers both of CPython's branches: the
    # pool swap (n at most the set size) and the rejection set (above it).
    # Each schedule is drawn twice, so a draw that leaves anything of its
    # own behind in the schedule differs from the second sample.
    branches = set()
    for seed in (0, 1, 20261017):
        for n in range(91):
            population = tuple((37 * i) % 97 for i in range(n))  # distinct, unsorted
            oracle = random.Random(seed)
            rng = random.Random(seed)
            for k in range(n + 1):
                schedule = _draw_schedule([(population, k)])
                for _ in range(2):
                    want = sorted(oracle.sample(population, k))
                    flat = [-1]
                    _draw(rng.getrandbits, schedule, flat)
                    assert flat == [-1, *want]
                    assert rng.getstate() == oracle.getstate()
                setsize = 21 + (4 ** ceil(log(3 * k, 4)) if k > 5 else 0)
                branches.add(n <= setsize)
    assert branches == {True, False}


def test_one_draw_appends_every_scheduled_sample_in_order():
    # the pool rule (3 of 8), the set rule (5 of 32) and an empty draw in one pass
    populations = (tuple(range(8, 0, -1)), tuple(range(100, 132)), (7, 3))
    counts = (3, 5, 0)
    for seed in (0, 1, 20261017):
        oracle = random.Random(seed)
        want = [x for p, k in zip(populations, counts) for x in sorted(oracle.sample(p, k))]
        rng = random.Random(seed)
        flat = []
        _draw(rng.getrandbits, _draw_schedule(zip(populations, counts)), flat)
        assert flat == want
        assert rng.getstate() == oracle.getstate()


def test_the_draw_schedule_refuses_what_random_sample_refuses():
    for k in (-1, 4):
        with pytest.raises(ValueError, match="Sample larger than population"):
            _draw_schedule([((1, 2, 3), k)])


def _per_trial_search(base, counts, trials, seed):
    # the search before it scanned a block of trials at once: one support
    # and one strong-contextuality check per trial; kept as the oracle
    sc = base.scenario
    opposite = tuple(opposite_sections(base, ci) for ci in range(sc.n_contexts))
    hits = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        additions = tuple(
            tuple(sorted(rng.sample(opposite[ci], count))) if count else ()
            for ci, count in enumerate(counts)
        )
        if strong_contextuality(SupportModel(sc, _augmented_masks(base, additions)))[0]:
            hits.append(AugmentationPlan(base=base, additions=additions))
    return hits


@pytest.mark.parametrize(
    "shape, vector, k",
    [
        ((3, 2), 0x44, 4),
        ((4, 2), 0x1C00, 2),
        ((5, 2), 0xC386BBC4, 5),
        ((4, 3), 0x409FC386BBC4CD613E30, 5),
    ],
)
def test_search_hits_equal_their_checked_plans(shape, vector, k):
    # search_plans builds its hits without AugmentationPlan's per-section
    # check; the public constructor and the JSON round trip are the oracle.
    # One addition in every k-th context of an unsatisfiable base.
    base = parity_system_from_vector(bell_scenario(*shape, 2), vector)
    counts = tuple(int(ci % k == 0) for ci in range(base.scenario.n_contexts))
    hits = search_plans(base, counts, 20, 1)
    assert hits
    for hit in hits:
        assert any(hit.additions)
        checked = AugmentationPlan(hit.base, hit.additions)
        assert hit == checked and hash(hit) == hash(checked)
        assert plan_from_json(plan_to_json(hit)) == hit


@st.composite
def _search_inputs(draw):
    sc = bell_scenario(draw(st.sampled_from([3, 4])), 2, 2)
    base = parity_system_from_vector(sc, draw(st.integers(0, (1 << sc.n_contexts) - 1)))
    # a few additions per context give a mix of hits and misses
    counts = tuple(draw(st.integers(0, 3)) for _ in range(sc.n_contexts))
    return base, counts, draw(st.integers(0, 40)), draw(st.integers(0, 2**31))


@given(_search_inputs(), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_blocked_search_matches_the_per_trial_loop(inputs, block):
    base, counts, trials, seed = inputs
    sc = base.scenario
    # a budget of `block` trials, so most searches span several blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csp, "BLOCK_CELLS", block * sc.n_contexts * global_size(sc))
        assert search_plans(base, counts, trials, seed) == _per_trial_search(
            base, counts, trials, seed
        )


def test_blocked_search_at_the_default_budget_matches_the_per_trial_loop():
    # 16 trials a block at (4,2,2), so 150 trials span ten blocks, the
    # last one partial
    base = _base_system()
    assert csp.BLOCK_CELLS // (16 * 256) == 16
    counts = tuple(min(c + 2, 8) for c in plan_counts(reference_plan()))
    hits = search_plans(base, counts, 150, 5)
    assert 0 < len(hits) < 150
    assert hits == _per_trial_search(base, counts, 150, 5)


def test_the_rejection_set_branch_matches_the_per_trial_loop():
    # (6,2,2) contexts have 32 opposite sections, so drawing 5 of them takes
    # random.sample's set branch; 4 of the 12 trials are hits
    base = parity_system_from_vector(bell_scenario(6, 2, 2), 0x3)
    counts = (5,) * base.scenario.n_contexts
    hits = search_plans(base, counts, 12, 4)
    assert len(hits) == 4
    assert hits == _per_trial_search(base, counts, 12, 4)


def test_an_incompatible_block_witness_raises(monkeypatch):
    # at the reference counts every trial is strongly contextual, so a scan
    # that calls global 5 compatible is wrong on every trial
    def wrong_mask(support, table):
        found = np.zeros((*support.shape[:-1], table.shape[1]), dtype=np.bool_)
        found[..., 5] = True
        return found

    monkeypatch.setattr(csp, "compatible_mask", wrong_mask)
    with pytest.raises(VerificationError, match="incompatible global") as exc:
        search_plans(_base_system(), plan_counts(reference_plan()), 3, 1)
    assert exc.value.details["global"] == 5
    assert exc.value.details["contexts"]


def test_a_later_trials_wrong_witness_is_the_one_named(monkeypatch):
    # at the reference counts plus 2, seed 5, the first block's hits are
    # trials 1, 5 and 15 and every other trial is a miss with a true
    # witness; only trial 15 is given a wrong one
    base = _base_system()
    counts = tuple(min(c + 2, 8) for c in plan_counts(reference_plan()))
    real_mask = csp.compatible_mask

    def one_wrong_witness(support, table):
        found = real_mask(support, table)
        assert not found[15].any()
        found[15, 5] = True
        return found

    monkeypatch.setattr(csp, "compatible_mask", one_wrong_witness)
    with pytest.raises(VerificationError, match="incompatible global") as exc:
        search_plans(base, counts, 16, 5)
    rng = random.Random(5 * 1_000_003 + 15)
    additions = tuple(
        tuple(sorted(rng.sample(opposite_sections(base, ci), count))) if count else ()
        for ci, count in enumerate(counts)
    )
    masks = _augmented_masks(base, additions)
    table = restriction_table(base.scenario)
    contexts = [ci for ci, mask in enumerate(masks) if not (mask >> int(table[ci, 5])) & 1]
    assert contexts == [2, 12, 13]
    assert exc.value.details == {"global": 5, "contexts": contexts}


# sha256 over one line per search: the additions of every hit, at the
# reference counts (30 trials; every trial is a hit) and at the reference
# counts plus 2 capped at 8 (100 trials; some hits), seeds 1-3. The digest was
# computed by running _search_identity_lines with the search still using the
# set-based no-signaling check that the per-pair bit tables replaced.
SEARCH_IDENTITY_DIGEST = "7b8ab1b83e4069a5bb1f4ac2212e8b3ed7ad70f0fa547a3c2abf1823d6750c8a"


@pytest.fixture(scope="module")
def identity_searches():
    plan = reference_plan()
    counts = plan_counts(plan)
    plus2 = tuple(min(c + 2, 8) for c in counts)
    return [
        (name, seed, search_plans(plan.base, profile, trials, seed))
        for name, profile, trials in (("reference", counts, 30), ("plus2", plus2, 100))
        for seed in (1, 2, 3)
    ]


def _search_identity_lines(searches):
    for name, seed, hits in searches:
        yield json.dumps([name, seed, [[list(a) for a in p.additions] for p in hits]])


def test_search_hits_are_pinned(identity_searches):
    h = hashlib.sha256()
    for line in _search_identity_lines(identity_searches):
        h.update((line + "\n").encode())
    assert h.hexdigest() == SEARCH_IDENTITY_DIGEST


def test_every_pinned_hit_is_possibilistically_no_signaling(identity_searches):
    # the search runs no no-signaling filter, because on a parity base it
    # cannot reject; the filter stays here as the oracle on every hit
    for _, _, hits in identity_searches:
        for plan in hits:
            assert possibilistic_no_signaling(apply_plan(plan)) == (True, None)


@st.composite
def _augmented_plans(draw):
    sc = bell_scenario(draw(st.sampled_from([3, 4])), 2, 2)
    base = parity_system_from_vector(sc, draw(st.integers(0, (1 << sc.n_contexts) - 1)))
    additions = tuple(
        tuple(sorted(draw(st.sets(st.sampled_from(opposite_sections(base, ci))))))
        for ci in range(sc.n_contexts)
    )
    return AugmentationPlan(base, additions)


@given(_augmented_plans())
@settings(max_examples=60, deadline=None)
def test_every_augmented_parity_support_is_possibilistically_no_signaling(plan):
    # why search_plans needs no no-signaling filter, checked on every draw
    # rather than on hits alone
    assert possibilistic_no_signaling(apply_plan(plan)) == (True, None)


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
    assert "q" in family_to_csv(family)
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

"""Scenario construction, packing conventions, and serialization."""

import re
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcc.scenario
from amcc.errors import PreconditionError, ResourceLimitError
from amcc.model import (
    EmpiricalModel,
    _party_rows,
    _require_no_signaling,
    is_no_signaling,
    party_setting_subsets,
)
from amcc.scenario import (
    MAX_BELL_CONTEXTS,
    MAX_BELL_MEASUREMENTS,
    MAX_GLOBALS,
    MAX_TABLE_CELLS,
    MeasurementScenario,
    bell_scenario,
    global_outcomes,
    global_size,
    incidence_matrix,
    marginal_rows,
    overlap_rows,
    projection,
    restrict,
    restriction_table,
    scenario_from_json,
    scenario_to_json,
    section_index,
    section_outcomes,
    section_size,
    slot_count,
    slot_offsets,
    unpack,
)

SMALL_BELL = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(2, 3)
)


def triangle_scenario():
    """Three measurements, pairwise contexts, no party structure."""
    return MeasurementScenario(
        measurements=("a", "b", "c"),
        outcomes=(2, 2, 2),
        cover=((0, 1), (0, 2), (1, 2)),
    )


def mixed_arity_scenario():
    """Binary and ternary measurements; a shared measurement sits at
    different positions in the contexts that share it."""
    return MeasurementScenario(
        measurements=("a", "b", "c"),
        outcomes=(2, 3, 2),
        cover=((0, 1), (1, 2), (0, 2)),
    )


SCENARIOS = st.one_of(
    SMALL_BELL.map(lambda shape: bell_scenario(*shape)),
    st.just(triangle_scenario()),
    st.just(mixed_arity_scenario()),
)


# ---------------------------------------------------------------------------
# pointwise packing: the oracles for restriction_table and projection


def global_index(scenario, outcomes):
    if len(outcomes) != len(scenario.measurements):
        raise ValueError("global assignment must cover every measurement")
    gi = 0
    for o, v in zip(scenario.outcomes, outcomes):
        if not 0 <= v < o:
            raise ValueError(f"outcome {v} out of range")
        gi = gi * o + v
    return gi


def enumerate_global_sections(scenario):
    """All global assignments in canonical order, as packed indices."""
    return range(global_size(scenario))


def restrict_context(scenario, gi, ci):
    """Section index of global section gi inside context ci."""
    if not 0 <= ci < scenario.n_contexts:
        raise ValueError(f"unknown context index {ci}")
    g = global_outcomes(scenario, gi)
    return section_index(scenario, ci, tuple(g[m] for m in scenario.cover[ci]))


def _pack(values, radices):
    i = 0
    for v, r in zip(values, radices):
        i = i * r + v
    return i


def test_bell_222_layout():
    sc = bell_scenario(2, 2, 2)
    assert sc.measurements == ("Y1", "Y1'", "Y2", "Y2'")
    assert sc.parties == (0, 0, 1, 1)
    assert sc.cover == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert sc.n_contexts == 4
    assert global_size(sc) == 16
    assert slot_count(sc) == 16
    assert slot_offsets(sc) == (0, 4, 8, 12)


def test_bell_422_layout():
    sc = bell_scenario(4, 2, 2)
    assert len(sc.measurements) == 8
    assert sc.measurements[:3] == ("Y1", "Y1'", "Y2")
    assert sc.n_contexts == 16
    # cover is lexicographic in the setting tuple
    assert sc.cover[0] == (0, 2, 4, 6)
    assert sc.cover[1] == (0, 2, 4, 7)
    assert sc.cover[15] == (1, 3, 5, 7)
    assert global_size(sc) == 256
    assert slot_count(sc) == 256


def test_section_packing_is_big_endian():
    sc = bell_scenario(2, 2, 2)
    assert section_index(sc, 0, (1, 0)) == 2
    assert section_index(sc, 0, (0, 1)) == 1
    assert section_outcomes(sc, 0, 3) == (1, 1)
    sc3 = bell_scenario(1, 1, 3)
    assert section_size(sc3, 0) == 3
    assert section_outcomes(sc3, 0, 2) == (2,)


def test_global_packing_matches_section_packing():
    sc = bell_scenario(2, 2, 2)
    gi = global_index(sc, (1, 0, 1, 0))
    assert gi == 0b1010
    assert global_outcomes(sc, gi) == (1, 0, 1, 0)
    # context (0,2) = settings (0,0) picks measurements Y1, Y2
    assert restrict_context(sc, gi, 0) == section_index(sc, 0, (1, 1))


@given(SMALL_BELL)
@settings(max_examples=30, deadline=None)
def test_section_roundtrip(shape):
    sc = bell_scenario(*shape)
    for ci in range(sc.n_contexts):
        for si in range(section_size(sc, ci)):
            assert section_index(sc, ci, section_outcomes(sc, ci, si)) == si


@given(SMALL_BELL)
@settings(max_examples=30, deadline=None)
def test_global_roundtrip(shape):
    sc = bell_scenario(*shape)
    for gi in enumerate_global_sections(sc):
        assert global_index(sc, global_outcomes(sc, gi)) == gi


@given(SCENARIOS)
@settings(max_examples=20, deadline=None)
def test_restriction_table_matches_pointwise_restriction(sc):
    tab = restriction_table(sc)
    assert tab.shape == (sc.n_contexts, global_size(sc))
    for gi in enumerate_global_sections(sc):
        g = global_outcomes(sc, gi)
        for ci, ctx in enumerate(sc.cover):
            si = section_index(sc, ci, restrict(sc, g, ctx))
            assert tab[ci, gi] == si == restrict_context(sc, gi, ci)


@given(SCENARIOS, st.data())
@settings(max_examples=40, deadline=None)
def test_projection_matches_pointwise_decoding(sc, data):
    ci = data.draw(st.integers(0, sc.n_contexts - 1))
    ctx = sc.cover[ci]
    ms = data.draw(st.permutations(ctx))[: data.draw(st.integers(1, len(ctx)))]
    radices = [sc.outcomes[m] for m in ms]
    want = []
    for si in range(section_size(sc, ci)):
        s = section_outcomes(sc, ci, si)
        u = tuple(s[ctx.index(m)] for m in ms)
        want.append(_pack(u, radices))
        assert unpack(want[-1], radices) == u
    assert projection(sc, ci, ms) == tuple(want)


@pytest.mark.parametrize(
    "marginals, ci, ms",
    [
        ([((1,), (0,))], 0, (1,)),
        ([((0, 0), (0,))], 0, (0, 0)),
        # the first bad side in order is refused: a second side, after a
        # good marginal, and a repeat after good sides of the same context
        ([((0,), (0,)), ((0, 3), (1, 3))], 3, (0, 3)),
        ([((0,), (0, 1)), ((0, 0), (0,))], 0, (0, 0)),
    ],
)
def test_marginal_rows_refuses_a_bad_side_as_projection_does(marginals, ci, ms):
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(ValueError) as want:
        projection(sc, ci, ms)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        marginal_rows(sc, marginals)


def test_incidence_matrix_columns_hit_every_context_once():
    sc = bell_scenario(3, 2, 2)
    mat = incidence_matrix(sc)
    assert mat.shape == (slot_count(sc), global_size(sc))
    assert mat.dtype == np.uint8
    assert (mat.sum(axis=0) == sc.n_contexts).all()
    offs = slot_offsets(sc)
    tab = restriction_table(sc)
    for gi in (0, 17, 63):
        rows = set(np.flatnonzero(mat[:, gi]))
        expected = {offs[ci] + int(tab[ci, gi]) for ci in range(sc.n_contexts)}
        assert rows == expected


def test_incidence_matrix_is_read_only():
    mat = incidence_matrix(bell_scenario(2, 2, 2))
    with pytest.raises(ValueError):
        mat[0, 0] = 1


def test_restrict_preserves_order():
    sc = bell_scenario(2, 2, 2)
    assert restrict(sc, (0, 1, 0, 1), (3, 0)) == (1, 0)


def test_bell_json_roundtrip_is_compact():
    sc = bell_scenario(3, 2, 2)
    doc = scenario_to_json(sc)
    assert doc == {"parties": 3, "settings": 2, "outcomes": 2}
    assert scenario_from_json(doc) == sc


def test_explicit_json_roundtrip():
    sc = triangle_scenario()
    doc = scenario_to_json(sc)
    assert "cover" in doc
    assert scenario_from_json(doc) == sc


def _regular_parties_scenario(parties, outcomes, cover):
    """Two settings per party, every measurement with the same outcome
    count, party-major labels as bell_scenario gives them, and the cover
    given: a regular shape that need not be a Bell scenario."""
    return MeasurementScenario(
        measurements=tuple(f"Y{p + 1}" + "'" * s for p in range(parties) for s in range(2)),
        outcomes=(outcomes,) * (2 * parties),
        cover=cover,
        parties=tuple(p for p in range(parties) for _ in range(2)),
    )


@pytest.mark.parametrize(
    "sc",
    [
        # 2**11 contexts in its Bell shape: bell_scenario refuses it
        _regular_parties_scenario(11, 1, (tuple(range(0, 22, 2)), tuple(range(1, 22, 2)))),
        # 2**5 contexts, as in its Bell shape, whose 18**5 slots
        # bell_scenario refuses
        _regular_parties_scenario(5, 9, tuple(combinations(range(10), 2))[:32]),
    ],
)
def test_a_shape_that_bell_scenario_refuses_round_trips_explicitly(sc):
    doc = scenario_to_json(sc)
    assert doc["cover"] == [list(c) for c in sc.cover]
    assert scenario_from_json(doc) == sc


def _explicit_bell_doc():
    sc = bell_scenario(2, 2, 2)
    return {
        "measurements": list(sc.measurements),
        "outcomes": list(sc.outcomes),
        "cover": [list(ctx) for ctx in sc.cover],
        "parties": list(sc.parties),
    }


@pytest.mark.parametrize(
    "explicit, path, value",
    [
        (False, ("parties",), 2.9),
        (False, ("settings",), 2.0),
        (False, ("outcomes",), 2.0),
        (True, ("outcomes", 0), 2.6),
        (True, ("cover", 1, 1), 3.2),
        (True, ("parties", 3), 1.0),
    ],
)
def test_json_floats_are_refused_where_integers_are_expected(explicit, path, value):
    # int() would truncate every one of these to a valid scenario
    doc = _explicit_bell_doc() if explicit else {"parties": 2, "settings": 2, "outcomes": 2}
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    with pytest.raises(TypeError, match="refusing float"):
        scenario_from_json(doc)


def test_json_integer_fields_refuse_strings_and_bools():
    # int() would parse "2" and read False as 0: a JSON integer field takes
    # a JSON integer only
    bell = {"parties": "2", "settings": 2, "outcomes": 2}
    with pytest.raises(TypeError, match="refusing str '2' where an integer is expected"):
        scenario_from_json(bell)
    doc = _explicit_bell_doc()
    doc["cover"][0] = ["0", 2]
    with pytest.raises(TypeError, match="refusing str '0' where an integer is expected"):
        scenario_from_json(doc)
    doc = _explicit_bell_doc()
    doc["parties"] = [False, False, True, True]
    with pytest.raises(TypeError, match="refusing bool False where an integer is expected"):
        scenario_from_json(doc)


@pytest.mark.parametrize(
    "path, value, kind",
    [
        (("outcomes",), "2222", "a string"),
        (("outcomes",), {"2": 2}, "an object"),
        (("cover",), "0213", "a string"),
        (("cover", 1), "03", "a string"),
        (("cover", 1), {"0": 1, "3": 1}, "an object"),
        (("measurements",), {"a": 1, "b": 2, "c": 3, "d": 4}, "an object"),
        (("measurements",), "abcd", "a string"),
        (("parties",), "0011", "a string"),
        (("parties",), {"0": 0}, "an object"),
    ],
)
def test_json_refuses_a_string_or_an_object_where_a_list_belongs(path, value, kind):
    # read as characters or keys, each of these decoded to some scenario
    doc = _explicit_bell_doc()
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    with pytest.raises(TypeError, match=f"^expected a list, got {kind}$"):
        scenario_from_json(doc)


@pytest.mark.parametrize(
    "field, value",
    [("outcomes", (2.6, 2.9)), ("cover", ((0, 1.7),)), ("parties", (0, 1.0))],
)
def test_the_constructor_refuses_floats_where_integers_are_expected(field, value):
    # int() would truncate every one of these to a valid scenario
    kwargs = {"measurements": ("a", "b"), "outcomes": (2, 2), "cover": ((0, 1),), field: value}
    with pytest.raises(TypeError, match="refusing float"):
        MeasurementScenario(**kwargs)


def test_the_constructor_refuses_integer_strings_and_bools():
    # the constructor reads its integer fields as the JSON reader does: an
    # integer string, which int() parses, and a bool, which int() reads as
    # 0 or 1, are refused like a float
    sc = MeasurementScenario(("a", "b"), (2, 2), ((0, 1),), (0, 1))
    assert sc.outcomes == (2, 2) and sc.cover == ((0, 1),) and sc.parties == (0, 1)
    with pytest.raises(TypeError, match="refusing str '2'"):
        MeasurementScenario(("a", "b"), ("2", 2), ((0, 1),), (0, 1))
    with pytest.raises(TypeError, match="refusing str '1'"):
        MeasurementScenario(("a", "b"), (2, 2), ((0, "1"),), (0, 1))
    with pytest.raises(TypeError, match="refusing bool True"):
        MeasurementScenario(("a", "b"), (2, 2), ((0, True),), (0, 1))
    with pytest.raises(TypeError, match="refusing bool False"):
        MeasurementScenario(("a", "b"), (2, 2), ((0, 1),), (False, 1))


def test_explicit_json_still_refuses_null_parties():
    doc = _explicit_bell_doc()
    doc["parties"] = None
    with pytest.raises(TypeError):
        scenario_from_json(doc)


def test_section_sizes_are_precomputed_outside_the_fields():
    sc = MeasurementScenario(
        measurements=("a", "b", "c"),
        outcomes=(2, 3, 5),
        cover=((0, 1), (0, 2), (1, 2)),
    )
    assert [section_size(sc, ci) for ci in range(3)] == [6, 10, 15]
    assert sc.section_sizes == (6, 10, 15)
    # equality, hashing and the fields are those of the four declared fields
    assert "section_sizes" not in {f.name for f in fields(sc)}
    twin = scenario_from_json(scenario_to_json(sc))
    assert twin == sc and hash(twin) == hash(sc)


def test_triangle_scenario_has_no_party_structure():
    assert triangle_scenario().parties is None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(measurements=("a", "a"), outcomes=(2, 2), cover=((0, 1),)),
        dict(measurements=("a", "b"), outcomes=(2,), cover=((0, 1),)),
        dict(measurements=("a", "b"), outcomes=(2, 2), cover=((0,),)),
        dict(measurements=("a", "b"), outcomes=(2, 2), cover=((1, 0),)),
        dict(measurements=("a", "b"), outcomes=(2, 2), cover=((0, 1), (0,))),
        dict(measurements=("a", "b"), outcomes=(2, 0), cover=((0, 1),)),
    ],
)
def test_invalid_scenarios_are_rejected(kwargs):
    with pytest.raises(ValueError):
        MeasurementScenario(**kwargs)


@pytest.mark.parametrize(
    "labels, error, message",
    [
        ((1, 2, 3), TypeError, "got 1$"),
        ((None, True), TypeError, "got None$"),
        (("a", 1.5), TypeError, "got 1.5$"),
        (("a", ["q"]), TypeError, r"got \['q'\]$"),
        (("a", ""), ValueError, "^measurement labels must be nonempty$"),
    ],
)
def test_measurement_labels_must_be_nonempty_strings(labels, error, message):
    # all but the list were once accepted, and failed only where a message
    # joined the labels; the list failed as unhashable
    n = len(labels)
    with pytest.raises(error, match=message):
        MeasurementScenario(labels, (2,) * n, (tuple(range(n)),))
    doc = {"measurements": list(labels), "outcomes": [2] * n, "cover": [list(range(n))]}
    with pytest.raises(error, match="^measurement labels must be"):
        scenario_from_json(doc)


def test_bell_size_guard_trips_before_building():
    # both trip on arithmetic alone; neither scenario is ever enumerated
    assert bell_scenario(2, 8, 2).n_contexts == 64 <= MAX_BELL_CONTEXTS
    with pytest.raises(ResourceLimitError, match="measurements"):
        bell_scenario(10**9, 10**9, 2)
    with pytest.raises(ResourceLimitError, match="contexts"):
        bell_scenario(30, 2, 2)


def test_bell_slot_guard_trips_before_building():
    # 21 one-setting parties: 21 measurements and one context, but that
    # context alone has 2^21 sections
    with pytest.raises(ResourceLimitError, match="^2097152 slots is over the limit 1048576$"):
        bell_scenario(21, 1, 2)
    with pytest.raises(ResourceLimitError, match="slots"):
        bell_scenario(1, 1, MAX_GLOBALS + 1)
    # (10,2,2) has exactly 2^20 slots, as many as global assignments
    ten = bell_scenario(10, 2, 2)
    assert slot_count(ten) == global_size(ten) == MAX_GLOBALS


@pytest.mark.parametrize(
    "parties, settings, outcomes", [(1, 1, 2), (2, 3, 2), (3, 2, 3), (4, 1, 5)]
)
def test_bell_slots_are_at_most_the_global_assignments(parties, settings, outcomes):
    # why the slot limit refuses no Bell scenario that a scan accepts
    sc = bell_scenario(parties, settings, outcomes)
    assert slot_count(sc) == (settings * outcomes) ** parties <= global_size(sc)


def test_explicit_slot_guard():
    doc = {"measurements": ["a", "b"], "outcomes": [2, MAX_GLOBALS], "cover": [[0, 1]]}
    with pytest.raises(ResourceLimitError, match="^2097152 slots is over the limit 1048576$"):
        scenario_from_json(doc)
    doc["outcomes"] = [2, MAX_GLOBALS // 2]
    assert slot_count(scenario_from_json(doc)) == MAX_GLOBALS


def _pair_cover_doc(n_measurements, n_contexts):
    # binary measurements, contexts the first pairs in lexicographic order:
    # a valid antichain cover whose check alone is quadratic in its size
    pairs = [[a, b] for a in range(n_measurements) for b in range(a + 1, n_measurements)]
    return {
        "measurements": [f"m{i}" for i in range(n_measurements)],
        "outcomes": [2] * n_measurements,
        "cover": pairs[:n_contexts],
    }


def test_explicit_size_guard_trips_before_the_cover_check():
    assert scenario_from_json(_pair_cover_doc(12, 66)).n_contexts == 66
    with pytest.raises(ResourceLimitError, match="1025 contexts is over the limit 1024"):
        scenario_from_json(_pair_cover_doc(46, MAX_BELL_CONTEXTS + 1))
    with pytest.raises(ResourceLimitError, match="65 measurements is over the limit 64"):
        scenario_from_json(_pair_cover_doc(MAX_BELL_MEASUREMENTS + 1, 1))


def test_table_size_guard_trips_before_allocating():
    # arithmetic only: (8,2,2) would ask for a 65536 x 65536 incidence
    # matrix (4 GiB), (10,2,2) for 2^30 restriction-table cells
    big = bell_scenario(8, 2, 2)
    assert slot_count(big) * global_size(big) > MAX_TABLE_CELLS
    with pytest.raises(ResourceLimitError, match="incidence matrix of 65536 x 65536"):
        incidence_matrix(big)
    huge = bell_scenario(10, 2, 2)
    with pytest.raises(ResourceLimitError, match="incidence matrix"):
        incidence_matrix(huge)
    with pytest.raises(ResourceLimitError, match="restriction table of 1024 x 1048576"):
        restriction_table(huge)
    # (6,2,2) stays allowed: 4096 slots x 4096 globals
    six = bell_scenario(6, 2, 2)
    assert slot_count(six) * global_size(six) <= MAX_TABLE_CELLS


def test_out_of_range_lookups_are_rejected():
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(ValueError):
        section_outcomes(sc, 0, 4)
    with pytest.raises(ValueError):
        section_index(sc, 0, (2, 0))
    with pytest.raises(ValueError):
        global_outcomes(sc, 16)


# ---------------------------------------------------------------------------
# the array-built marginal tables against pointwise decoding


@st.composite
def random_covers(draw):
    """An explicit scenario: 2-5 measurements of 1-3 outcomes, an antichain
    cover in drawn order, and party labels in any order, or none."""
    n = draw(st.integers(2, 5))
    outcomes = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    sets = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6, unique=True))
    # the maximal drawn sets, then a singleton for each measurement left out
    cover = [s for s in sets if not any(s != t and s & t == s for t in sets)]
    cover += [1 << m for m in range(n) if not any(c >> m & 1 for c in cover)]
    parties = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple))
    return MeasurementScenario(
        measurements=tuple(f"m{i}" for i in range(n)),
        outcomes=outcomes,
        cover=tuple(tuple(m for m in range(n) if c >> m & 1) for c in cover),
        parties=parties,
    )


COVERS = st.one_of(
    st.just(triangle_scenario()),
    st.just(mixed_arity_scenario()),
    st.sampled_from([(2, 3, 2), (2, 2, 3), (3, 3, 2)]).map(lambda shape: bell_scenario(*shape)),
    random_covers(),
)


def pointwise_marginal_rows(sc, marginals):
    """marginal_rows by decoding every section of every side, row by row."""
    offs = slot_offsets(sc)
    slot, sign, start, rows = [], [], [0], []
    for ms, contexts in marginals:
        radices = [sc.outcomes[m] for m in ms]
        for k in range(prod(radices)):
            for side, ci in enumerate(contexts):
                for si in range(section_size(sc, ci)):
                    s = section_outcomes(sc, ci, si)
                    if _pack([s[sc.cover[ci].index(m)] for m in ms], radices) == k:
                        slot.append(offs[ci] + si)
                        sign.append(1 - 2 * side)
            start.append(len(slot))
            rows.append((tuple(contexts), tuple(ms), k))
    return slot, sign, start, tuple(rows)


def _listed(rows):
    slot, sign, start, labels = rows
    assert (slot.dtype, sign.dtype) == (np.int32, np.int8)
    assert not any(a.flags.writeable for a in (slot, sign, start))
    return slot.tolist(), sign.tolist(), start.tolist(), labels


@given(COVERS, st.data())
@settings(max_examples=60, deadline=None)
def test_array_tables_match_pointwise_decoding(sc, data):
    # overlap_rows: every sharing pair, in combinations order
    pairs = [
        (tuple(sorted(set(sc.cover[ci]) & set(sc.cover[cj]))), (ci, cj))
        for ci, cj in combinations(range(sc.n_contexts), 2)
        if set(sc.cover[ci]) & set(sc.cover[cj])
    ]
    assert _listed(overlap_rows(sc)) == pointwise_marginal_rows(sc, pairs)
    # marginal_rows: one- and two-sided marginals, measurements in any order
    marginals = []
    for ms, contexts in data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []:
        marginals.append((data.draw(st.permutations(ms)), contexts[: data.draw(st.integers(1, 2))]))
    for ci in data.draw(st.lists(st.integers(0, sc.n_contexts - 1), max_size=3)):
        ctx = sc.cover[ci]
        size = data.draw(st.integers(1, len(ctx)))
        marginals.append((tuple(data.draw(st.permutations(ctx))[:size]), (ci,)))
    marginals = data.draw(st.permutations(marginals))
    assert _listed(marginal_rows(sc, marginals)) == pointwise_marginal_rows(sc, marginals)
    # projection: a subset of one context in any order
    ci = data.draw(st.integers(0, sc.n_contexts - 1))
    ctx = sc.cover[ci]
    ms = data.draw(st.permutations(ctx))[: data.draw(st.integers(0, len(ctx)))]
    radices = [sc.outcomes[m] for m in ms]
    assert projection(sc, ci, ms) == tuple(
        _pack([section_outcomes(sc, ci, si)[ctx.index(m)] for m in ms], radices)
        for si in range(section_size(sc, ci))
    )
    # _party_rows: each party subset one-sided on the first context holding it
    if sc.parties is None:
        return
    held = []
    for ms in party_setting_subsets(sc):
        ci = next((c for c, ctx in enumerate(sc.cover) if set(ms) <= set(ctx)), None)
        if ci is None:
            with pytest.raises(PreconditionError, match=re.escape(f"contains measurements {ms}")):
                _party_rows(sc)
            return
        held.append((ms, (ci,)))
    slot, sign, start, rows, sizes = _party_rows(sc)
    assert _listed((slot, sign, start, rows)) == pointwise_marginal_rows(sc, held)
    assert not sizes.flags.writeable
    assert sizes.tolist() == [prod(sc.outcomes[m] for m in ms) for _, ms, _ in rows]


@pytest.mark.parametrize(
    "sc", [bell_scenario(3, 2, 2), bell_scenario(2, 3, 2), mixed_arity_scenario()],
    ids=["322", "232", "mixed"],
)
def test_tables_laid_out_in_small_blocks_match_pointwise_decoding(sc, monkeypatch):
    # blocks of 5 section entries: every block boundary falls inside a side
    monkeypatch.setattr(amcc.scenario, "_LAYOUT_BLOCK", 5)
    overlap_rows.cache_clear()
    pairs = [
        (tuple(sorted(set(sc.cover[ci]) & set(sc.cover[cj]))), (ci, cj))
        for ci, cj in combinations(range(sc.n_contexts), 2)
        if set(sc.cover[ci]) & set(sc.cover[cj])
    ]
    try:
        assert _listed(overlap_rows(sc)) == pointwise_marginal_rows(sc, pairs)
        singles = [(ctx[::-1], (ci,)) for ci, ctx in enumerate(sc.cover)]
        assert _listed(marginal_rows(sc, singles)) == pointwise_marginal_rows(sc, singles)
    finally:
        overlap_rows.cache_clear()


def _cycle_70():
    # a 70-cycle of two-measurement contexts; context 69 is (0, 69)
    cover = [(t, t + 1) for t in range(69)] + [(0, 69)]
    sc = MeasurementScenario(tuple(f"M{t}" for t in range(70)), (2,) * 70, tuple(cover))
    tables = [[Fraction(1, 4)] * 4] * 69 + [[Fraction(1, 2), 0, Fraction(1, 2), 0]]
    return sc, tables, (68, 69, (69,), (0,), Fraction(1, 2), Fraction(1)), "M69 @ 0: 1/2 vs 1"


def _wide_pair():
    # a context of 67 measurements sharing its positions 65 and 66 with a
    # second context; every measurement but those two has one outcome
    outcomes = tuple(2 if t in (65, 66) else 1 for t in range(70))
    cover = (tuple(range(67)), (65, 66, 67, 68, 69))
    sc = MeasurementScenario(tuple(f"W{t}" for t in range(70)), outcomes, cover)
    tables = [[Fraction(1, 4)] * 4, [Fraction(1, 2), Fraction(1, 2), 0, 0]]
    return sc, tables, (0, 1, (65, 66), (0, 0), Fraction(1, 4), Fraction(1, 2)), "W65 W66 @ 0,0: 1/4 vs 1/2"


@pytest.mark.parametrize("make", [_cycle_70, _wide_pair], ids=["cycle70", "wide"])
def test_overlaps_past_64_measurements_name_their_shared_measurements(make):
    # shared measurements and positions at 64 and above are labelled as
    # pointwise decoding labels them, and a signaling model's witness
    # names them
    sc, tables, witness, message = make()
    pairs = [
        (tuple(sorted(set(sc.cover[ci]) & set(sc.cover[cj]))), (ci, cj))
        for ci, cj in combinations(range(sc.n_contexts), 2)
        if set(sc.cover[ci]) & set(sc.cover[cj])
    ]
    assert _listed(overlap_rows(sc)) == pointwise_marginal_rows(sc, pairs)
    model = EmpiricalModel(sc, tables)
    assert is_no_signaling(model) == (False, witness)
    ci, cj = witness[:2]
    with pytest.raises(PreconditionError) as info:
        _require_no_signaling(model)
    assert str(info.value) == f"model is signaling: contexts {ci} and {cj} disagree on {message}"

"""GF(2) parity systems: ranks, scans, satisfiability by elimination and by
enumeration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc.errors import PreconditionError, ResourceLimitError
from amcc.kernels import scan_satisfiable
from amcc.model import parity_amcc_422, pr_box
from amcc.parity import (
    ParityScan,
    ParitySystem,
    build_symmetric_model,
    column_vectors,
    gf2_basis,
    gf2_rank,
    in_gf2_span,
    parity_satisfiable,
    parity_scan,
    parity_system_from_vector,
    parity_patterns,
    parity_vector,
    vector_hex,
)
from amcc.possibilistic import strong_contextuality, support_of
from amcc.scenario import MeasurementScenario, bell_scenario, global_size

REFERENCE_VECTOR = 0x1C00  # contexts 11, 12, 13 (1-indexed) odd, rest even


def parity_witness(system):
    """A satisfying global assignment index, or None, by enumerating the
    pattern scan: the oracle for elimination."""
    hits = np.nonzero(parity_patterns(system.scenario) == system.vector)[0]
    return int(hits[0]) if hits.size else None


def _patterns_from_bits(scenario):
    """The patterns from a globals x measurements table of bits, summed per
    context: the oracle for parity_patterns."""
    n = len(scenario.measurements)
    g = np.arange(global_size(scenario), dtype=np.int64)
    bits = (g[:, None] >> (n - 1 - np.arange(n))) & 1
    pat = np.zeros_like(g)
    for ci, ctx in enumerate(scenario.cover):
        pat |= (bits[:, list(ctx)].sum(axis=1) & 1) << ci
    return pat


CHAIN_6 = MeasurementScenario(
    measurements=tuple(f"m{i}" for i in range(6)),
    outcomes=(2,) * 6,
    cover=tuple((i, i + 1) for i in range(5)),
)


@pytest.mark.parametrize(
    "scenario",
    [bell_scenario(*shape) for shape in
     ((2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2), (2, 3, 2), (3, 3, 2), (2, 4, 2), (1, 5, 2))]
    + [CHAIN_6],
)
def test_patterns_match_the_bit_table_sums(scenario):
    assert np.array_equal(parity_patterns(scenario), _patterns_from_bits(scenario))


def test_patterns_allocate_no_globals_by_measurements_table():
    # 2^18 globals: a globals x 18 int64 table alone takes 36 MiB, while the
    # patterns and the globals take 2 MiB each
    sc = bell_scenario(1, 18, 2)
    tracemalloc.start()
    try:
        parity_patterns(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_vector_packing_puts_context_zero_in_the_low_bit():
    assert parity_vector((1, 0, 0, 0)) == 1
    assert parity_vector((0, 1, 1, 0)) == 6
    sc = bell_scenario(2, 2, 2)
    sys_ = parity_system_from_vector(sc, 0b1010)
    assert sys_.parities == (0, 1, 0, 1)
    assert sys_.vector == 0b1010


def test_reference_vector_unpacks_to_the_stated_contexts():
    sc = bell_scenario(4, 2, 2)
    sys_ = parity_system_from_vector(sc, REFERENCE_VECTOR)
    odd = [ci for ci, p in enumerate(sys_.parities) if p]
    assert odd == [10, 11, 12]
    assert vector_hex(REFERENCE_VECTOR, 16) == "0x1c00"
    assert vector_hex(3, 4) == "0x3"


def test_vector_range_validation():
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        parity_system_from_vector(sc, 16)
    with pytest.raises(ValueError, match="parity target"):
        ParitySystem(sc, (0, 0, 0, 2))
    with pytest.raises(ValueError, match="one parity target"):
        ParitySystem(sc, (0, 0, 0))
    with pytest.raises(PreconditionError, match="binary"):
        ParitySystem(bell_scenario(2, 2, 3), (0, 0, 0, 0))


def test_column_ranks_by_party_count():
    assert gf2_rank(column_vectors(bell_scenario(2, 2, 2))) == 3
    assert gf2_rank(column_vectors(bell_scenario(3, 2, 2))) == 4
    assert gf2_rank(column_vectors(bell_scenario(4, 2, 2))) == 5


@pytest.mark.parametrize(
    "parties,unsat", [(2, 8), (3, 240), (4, 65504)]
)
def test_scan_counts(parties, unsat):
    scan = parity_scan(bell_scenario(parties, 2, 2))
    assert scan.total == scan.satisfiable + scan.unsatisfiable
    assert scan.unsatisfiable == unsat
    assert scan.satisfiable == 1 << scan.rank


def test_scan_examples_are_the_smallest_unsatisfiable_vectors():
    scan = parity_scan(bell_scenario(2, 2, 2), examples=16)
    assert scan.examples == (0x1, 0x2, 0x4, 0x7, 0x8, 0xB, 0xD, 0xE)
    # every example really is unsatisfiable, every non-example satisfiable
    sc = bell_scenario(2, 2, 2)
    for v in range(16):
        sys_ = parity_system_from_vector(sc, v)
        assert parity_satisfiable(sys_) == (v not in scan.examples)


def test_scan_refuses_a_negative_or_fractional_example_count():
    sc = bell_scenario(2, 2, 2)
    with pytest.raises(PreconditionError, match="examples must be 0 or more, not -1"):
        parity_scan(sc, examples=-1)
    with pytest.raises(TypeError):
        parity_scan(sc, examples=2.0)
    assert parity_scan(sc, examples=np.int64(2)).examples == (0x1, 0x2)


def test_scan_accepts_only_one_thread():
    sc = bell_scenario(3, 2, 2)
    assert parity_scan(sc, threads=1) == parity_scan(sc)
    for threads in (0, 2):
        with pytest.raises(PreconditionError, match="threads must be 1"):
            parity_scan(sc, threads=threads)


def test_reference_vector_is_unsatisfiable():
    sc = bell_scenario(4, 2, 2)
    sys_ = parity_system_from_vector(sc, REFERENCE_VECTOR)
    assert parity_satisfiable(sys_) is False
    assert parity_witness(sys_) is None


def test_witness_on_a_satisfiable_system():
    sc = bell_scenario(2, 2, 2)
    sys_ = parity_system_from_vector(sc, 0)
    assert parity_satisfiable(sys_) is True
    gi = parity_witness(sys_)
    assert gi == 0


def test_symmetric_model_of_the_reference_system():
    sc = bell_scenario(4, 2, 2)
    sys_ = parity_system_from_vector(sc, REFERENCE_VECTOR)
    model = build_symmetric_model(sys_)
    assert model == parity_amcc_422()
    verdict, _ = strong_contextuality(support_of(model))
    assert verdict is True


def test_symmetric_models_of_unsatisfiable_222_vectors_are_pr_boxes():
    # box index from the parity bits: k = 4(p2^p0) + 2(p1^p0) + p0
    sc = bell_scenario(2, 2, 2)
    for v in (0x1, 0x2, 0x4, 0x7, 0x8, 0xB, 0xD, 0xE):
        p = [(v >> ci) & 1 for ci in range(4)]
        k = 4 * (p[2] ^ p[0]) + 2 * (p[1] ^ p[0]) + p[0]
        model = build_symmetric_model(parity_system_from_vector(sc, v))
        assert model == pr_box(k)


def test_scan_limit_guard():
    # 169 contexts over 26 measurements, rank 25: the walk to 8 examples may
    # take 2^25 + 8 span tests, refused before the first. (2,8,2) has 64
    # contexts but rank 15, so it answers
    sc = bell_scenario(2, 13, 2)
    with pytest.raises(
        ResourceLimitError, match="^33554440 span tests is over the limit 16777216$"
    ):
        parity_scan(sc)


def _chain(n):
    # n binary measurements, contexts {m_i, m_i+1}: few contexts, 2^n globals
    return MeasurementScenario(
        measurements=tuple(f"m{i}" for i in range(n)),
        outcomes=(2,) * n,
        cover=tuple((i, i + 1) for i in range(n - 1)),
    )


def test_pattern_guards_trip_before_allocating():
    with pytest.raises(ResourceLimitError, match="^2097152 global assignments is over the limit"):
        parity_patterns(_chain(21))
    assert parity_patterns(_chain(20)).shape == (1 << 20,)
    # 63 of the 66 pairs of 12 measurements: 4096 globals, but one bit per
    # context does not fit an int64
    pairs = tuple((a, b) for a in range(12) for b in range(a + 1, 12))[:63]
    sc = MeasurementScenario(tuple(f"m{i}" for i in range(12)), (2,) * 12, pairs)
    with pytest.raises(ResourceLimitError, match="63 contexts in a packed int64 pattern"):
        parity_patterns(sc)


@given(st.lists(st.integers(0, 2**10 - 1), min_size=0, max_size=8))
@settings(max_examples=50, deadline=None)
def test_gf2_basis_spans_exactly_the_inputs_combinations(vectors):
    basis = gf2_basis(vectors)
    # every basis vector leads at its key
    for lead, v in basis.items():
        assert v.bit_length() - 1 == lead
    # every input is in the span, and the span size is 2^rank
    for v in vectors:
        assert in_gf2_span(v, vectors)
    rank = gf2_rank(vectors)
    assert rank == len(basis) <= 10
    # closure under xor of two inputs
    for a in vectors[:4]:
        for b in vectors[:4]:
            assert in_gf2_span(a ^ b, vectors)


def test_elimination_agrees_with_enumeration_on_every_vector():
    # parity_satisfiable eliminates over GF(2); parity_witness enumerates
    # every global assignment, so the two routes share no code
    for parties in (2, 3):
        sc = bell_scenario(parties, 2, 2)
        for vector in range(1 << sc.n_contexts):
            sys_ = parity_system_from_vector(sc, vector)
            assert parity_satisfiable(sys_) == (parity_witness(sys_) is not None)


SCAN_ORACLE_SCENARIOS = (
    [bell_scenario(*shape) for shape in ((2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2))]
    + [_chain(n) for n in (2, 5, 9)]
    + [MeasurementScenario(("a", "b", "c"), (2, 2, 2), ((0, 1), (0, 2), (1, 2)))]
)


@pytest.mark.parametrize(
    "scenario",
    SCAN_ORACLE_SCENARIOS,
    ids=["222", "322", "422", "232", "chain2", "chain5", "chain9", "triangle"],
)
def test_scan_equals_the_enumeration_oracle(scenario):
    # the oracle enumerates every global assignment's parity vector and
    # marks the ones some assignment realizes; the scan only eliminates
    n = scenario.n_contexts
    sat = scan_satisfiable(parity_patterns(scenario), 1 << n)
    n_sat = int(sat.sum())
    unsat = [int(v) for v in np.nonzero(~sat)[0]]
    for examples in (0, 1, 8, 16, len(unsat) + 1):
        assert parity_scan(scenario, examples=examples) == ParityScan(
            n_contexts=n,
            total=1 << n,
            satisfiable=n_sat,
            unsatisfiable=len(unsat),
            rank=n_sat.bit_length() - 1,
            examples=tuple(unsat[:examples]),
        )

"""Both numpy scans must agree bit-for-bit with plain reference loops."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc.kernels import compatible_mask, scan_satisfiable
from amcc.parity import parity_patterns
from amcc.scenario import bell_scenario, global_size, restriction_table, section_size


@given(st.lists(st.integers(0, 63), min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_scan_lanes_agree_on_random_patterns(values):
    patterns = np.array(values, dtype=np.int64)
    mask = scan_satisfiable(patterns, 64)
    assert mask.dtype == np.bool_
    assert mask.tolist() == [v in values for v in range(64)]


def test_scan_lanes_agree_on_a_real_pattern_set():
    sc = bell_scenario(3, 2, 2)
    patterns = parity_patterns(sc)
    mask = scan_satisfiable(patterns, 1 << sc.n_contexts)
    assert int(mask.sum()) == 16
    seen = set(patterns.tolist())
    assert mask.tolist() == [v in seen for v in range(1 << sc.n_contexts)]


def _support_array(sc, bits):
    width = max(section_size(sc, ci) for ci in range(sc.n_contexts))
    sup = np.zeros((sc.n_contexts, width), dtype=np.bool_)
    i = 0
    for ci in range(sc.n_contexts):
        for si in range(section_size(sc, ci)):
            sup[ci, si] = bool((bits >> i) & 1)
            i += 1
    return sup


@given(st.integers(0, 2**16 - 1))
@settings(max_examples=40, deadline=None)
def test_compatible_lanes_agree_on_random_supports(bits):
    sc = bell_scenario(2, 2, 2)
    sup = _support_array(sc, bits)
    table = restriction_table(sc)
    want = [
        all(sup[ci, table[ci, g]] for ci in range(sc.n_contexts))
        for g in range(global_size(sc))
    ]
    assert compatible_mask(sup, table).tolist() == want


def test_compatible_mask_full_and_empty_supports():
    sc = bell_scenario(2, 2, 2)
    table = restriction_table(sc)
    full = compatible_mask(_support_array(sc, 2**16 - 1), table)
    assert full.shape == (global_size(sc),)
    assert full.all()
    assert not compatible_mask(_support_array(sc, 0), table).any()

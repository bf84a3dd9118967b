"""Both numpy scans must agree bit-for-bit with plain reference loops."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amcc
from amcc.kernels import compatible_mask, scan_satisfiable
from amcc.parity import parity_patterns
from amcc.possibilistic import _pack_masks
from amcc.scenario import (
    MeasurementScenario,
    _global_slots,
    bell_scenario,
    global_size,
    restriction_table,
    slot_count,
    slot_offsets,
)


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


def _scan_with_unique(patterns, n_values):
    # the scan before it scattered into a mask; kept as the oracle
    patterns = np.asarray(patterns, dtype=np.int64)
    return np.isin(np.arange(n_values, dtype=np.int64), np.unique(patterns))


@given(
    st.lists(st.integers(-(2**40), 2**40) | st.integers(-3, 40), max_size=60).map(
        lambda values: values + values[::3]
    ),
    st.integers(0, 40),
)
@settings(max_examples=100, deadline=None)
@example([], 8)
def test_scan_matches_the_unique_form(values, n_values):
    # duplicates, negatives, values past n_values, and the empty array
    patterns = np.array(values, dtype=np.int64)
    mask = scan_satisfiable(patterns, n_values)
    assert mask.dtype == np.bool_ and mask.shape == (n_values,)
    assert mask.tolist() == _scan_with_unique(patterns, n_values).tolist()


def test_parity_scan_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, which makes a fresh
    # process's first pattern scan tens of times slower than a warm one
    src = str(Path(amcc.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from amcc.kernels import scan_satisfiable\n"
        "from amcc.parity import parity_patterns\n"
        "from amcc.scenario import bell_scenario\n"
        "assert scan_satisfiable(parity_patterns(bell_scenario(2, 2, 2)), 16).any()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


def _support_array(sc, bits):
    """bool per slot, in slot order: bit i of bits is slot i."""
    return np.array([bool((bits >> i) & 1) for i in range(slot_count(sc))])


def _compatible(sc, sup, g):
    """Whether global g lands on a possible slot of every context."""
    table, offsets = restriction_table(sc), slot_offsets(sc)
    return all(sup[offsets[ci] + table[ci, g]] for ci in range(sc.n_contexts))


@given(st.integers(0, 2**16 - 1))
@settings(max_examples=40, deadline=None)
def test_compatible_lanes_agree_on_random_supports(bits):
    sc = bell_scenario(2, 2, 2)
    sup = _support_array(sc, bits)
    want = [_compatible(sc, sup, g) for g in range(global_size(sc))]
    assert compatible_mask(sup, _global_slots(sc)).tolist() == want


def test_compatible_mask_full_and_empty_supports():
    sc = bell_scenario(2, 2, 2)
    slots = _global_slots(sc)
    full = compatible_mask(_support_array(sc, 2**16 - 1), slots)
    assert full.shape == (global_size(sc),)
    assert full.all()
    assert not compatible_mask(_support_array(sc, 0), slots).any()
    # an empty batch scans nothing
    empty = compatible_mask(np.zeros((0, slot_count(sc)), dtype=np.bool_), slots)
    assert empty.shape == (0, global_size(sc))


# contexts of 6, 6 and 4 sections, so the contexts' slot blocks differ in size
RAGGED = MeasurementScenario(
    measurements=("a", "b", "c"), outcomes=(2, 3, 2), cover=((0, 1), (1, 2), (0, 2))
)


@given(
    st.sampled_from([bell_scenario(2, 2, 2), bell_scenario(3, 2, 2), RAGGED]),
    st.integers(0, 6),
    st.sampled_from([0.5, 0.8, 0.95]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_a_stacked_batch_matches_the_per_support_scans(sc, batch, density, seed):
    rng = np.random.default_rng(seed)
    slots = _global_slots(sc)
    stack = rng.random((batch, slot_count(sc))) < density
    found = compatible_mask(stack, slots)
    assert found.shape == (batch, global_size(sc))
    for sup, row in zip(stack, found):
        assert row.tolist() == compatible_mask(sup, slots).tolist()
        assert row.tolist() == [_compatible(sc, sup, g) for g in range(global_size(sc))]
    # more than one leading axis keeps the same rows
    nested = compatible_mask(stack[None], slots)
    assert nested.shape == (1, batch, global_size(sc))
    assert (nested[0] == found).all()


@given(st.sampled_from([bell_scenario(3, 2, 2), RAGGED]), st.data())
@settings(max_examples=40, deadline=None)
def test_packed_masks_are_the_bits_in_slot_order(sc, data):
    masks = st.tuples(*(st.integers(0, 2**size - 1) for size in sc.section_sizes))
    rows = data.draw(st.lists(masks, max_size=5))
    packed = _pack_masks(sc, rows)
    assert packed.dtype == np.bool_
    assert packed.shape == (len(rows), slot_count(sc))
    assert packed.tolist() == [
        [bool((mask >> si) & 1) for mask, size in zip(row, sc.section_sizes) for si in range(size)]
        for row in rows
    ]

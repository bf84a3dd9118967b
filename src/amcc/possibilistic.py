"""Possibilistic (support-level) structure of empirical models.

A support model remembers only which sections are possible in each context,
as a bitmask over section indices. Strong contextuality is the statement that
no global assignment restricts into every context's support; the numpy
compatibility scan over the restriction table decides it, and
`strong_contextuality` re-checks the scan's witness context by context.

Possibilistic no-signaling asks overlapping contexts to allow the same joint
outcomes of their shared measurements. For each scenario one table per
overlapping context pair is cached: the sorted shared-outcome keys, and for
each section of either context the one-hot bit of its key. A support's
projection is the OR of the bits of its mask's set sections, so a pair agrees
when two ints are equal; otherwise the witness is the key at the lowest set
bit of their XOR, the smallest outcome tuple that only one context allows.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ResourceLimitError, VerificationError
from .kernels import compatible_mask
from .model import EmpiricalModel
from .rational import ZERO, rat
from .scenario import (
    global_size,
    restriction_table,
    scenario_from_json,
    scenario_to_json,
    section_outcomes,
    section_size,
)

__all__ = [
    "SupportModel",
    "support_of",
    "uniform_on_support",
    "support_sections",
    "compatible_globals",
    "strong_contextuality",
    "possibilistic_no_signaling",
    "support_to_json",
    "support_from_json",
]

MAX_GLOBALS = 1 << 20  # compatibility scans enumerate every global assignment


@dataclass(frozen=True)
class SupportModel:
    scenario: object
    masks: tuple  # per context, bit si set iff section si is possible

    def __post_init__(self):
        sc = self.scenario
        if len(self.masks) != sc.n_contexts:
            raise ValueError("need one support mask per context")
        for ci, mask in enumerate(self.masks):
            if mask <= 0:
                raise ValueError(f"context {sc.cover[ci]} has empty support")
            if mask >> section_size(sc, ci):
                raise ValueError(f"support mask out of range in context {sc.cover[ci]}")

    def possible(self, ci, si):
        return bool((self.masks[ci] >> si) & 1)


def support_of(model):
    masks = []
    for row in model.tables:
        mask = 0
        for si, w in enumerate(row):
            if w != 0:
                mask |= 1 << si
        masks.append(mask)
    return SupportModel(model.scenario, tuple(masks))


def support_sections(support, ci):
    """Section indices possible in context ci, ascending."""
    mask = support.masks[ci]
    return tuple(si for si in range(section_size(support.scenario, ci)) if (mask >> si) & 1)


def uniform_on_support(support):
    """Empirical model with uniform weight on each context's support."""
    sc = support.scenario
    rows = []
    for ci in range(sc.n_contexts):
        secs = support_sections(support, ci)
        w = Fraction(1, len(secs))
        row = [ZERO] * section_size(sc, ci)
        for si in secs:
            row[si] = w
        rows.append(tuple(row))
    return EmpiricalModel(sc, tuple(rows))


def _support_bool(support):
    sc = support.scenario
    width = max(section_size(sc, ci) for ci in range(sc.n_contexts))
    arr = np.zeros((sc.n_contexts, width), dtype=np.bool_)
    for ci in range(sc.n_contexts):
        for si in support_sections(support, ci):
            arr[ci, si] = True
    return arr


def compatible_globals(support):
    """Global assignments whose every restriction is possible, as a sorted
    list of packed indices."""
    sc = support.scenario
    ng = global_size(sc)
    if ng > MAX_GLOBALS:
        raise ResourceLimitError(
            f"{ng} global assignments exceeds the scan limit {MAX_GLOBALS}"
        )
    mask = compatible_mask(_support_bool(support), restriction_table(sc))
    return [int(g) for g in np.nonzero(mask)[0]]


def strong_contextuality(support):
    """(True, None) when no global assignment is compatible with the support,
    else (False, example global index). The example is re-checked against
    every context's support before it is returned."""
    found = compatible_globals(support)
    if not found:
        return True, None
    gi = found[0]
    sc = support.scenario
    table = restriction_table(sc)
    bad = [ci for ci in range(sc.n_contexts) if not support.possible(ci, int(table[ci, gi]))]
    if bad:
        raise VerificationError(
            "compatibility scan returned an incompatible global assignment",
            details={"global": gi, "contexts": bad},
        )
    return False, gi


def _shared_keys(scenario, ci, shared):
    """The shared-outcome tuple of each section of context ci, in section order."""
    pos = [scenario.cover[ci].index(m) for m in shared]
    outcomes = (section_outcomes(scenario, ci, si) for si in range(section_size(scenario, ci)))
    return [tuple(s[p] for p in pos) for s in outcomes]


@lru_cache(maxsize=64)
def _pair_tables(scenario):
    """One table per overlapping context pair, in pair order:
    (ci, cj, shared, keys, bits_i, bits_j). `keys` holds, sorted, the
    shared-outcome tuples that occur in either context, and bits_c[si] is the
    one-hot bit of section si's key in `keys`."""
    tables = []
    for ci, cj in combinations(range(scenario.n_contexts), 2):
        shared = tuple(m for m in scenario.cover[ci] if m in scenario.cover[cj])
        if not shared:
            continue
        keys_i = _shared_keys(scenario, ci, shared)
        keys_j = _shared_keys(scenario, cj, shared)
        keys = tuple(sorted(set(keys_i) | set(keys_j)))
        bit = {key: 1 << k for k, key in enumerate(keys)}
        bits_i = tuple(bit[key] for key in keys_i)
        bits_j = tuple(bit[key] for key in keys_j)
        tables.append((ci, cj, shared, keys, bits_i, bits_j))
    return tuple(tables)


def possibilistic_no_signaling(support):
    """Check that overlapping contexts agree on which joint outcomes of their
    shared measurements are possible. Returns (True, None) or (False,
    (ci, cj, shared, outcome tuple)).

    Each context's projection onto the shared measurements is an int: the OR
    of the one-hot key bits of its possible sections, read from the cached
    per-pair tables. The witness is the smallest shared-outcome tuple that
    exactly one of the two contexts allows, i.e. the key at the lowest set
    bit of the two projections' XOR."""
    sections = [support_sections(support, ci) for ci in range(support.scenario.n_contexts)]
    for ci, cj, shared, keys, bits_i, bits_j in _pair_tables(support.scenario):
        a = b = 0
        for si in sections[ci]:
            a |= bits_i[si]
        for si in sections[cj]:
            b |= bits_j[si]
        diff = a ^ b
        if diff:
            return False, (ci, cj, shared, keys[(diff & -diff).bit_length() - 1])
    return True, None


# ---------------------------------------------------------------------------
# serialization


def support_to_json(support):
    """Same table shape as an empirical model, with "1"/"0" entries."""
    sc = support.scenario
    tables = []
    for ci in range(sc.n_contexts):
        tables.append(
            ["1" if support.possible(ci, si) else "0" for si in range(section_size(sc, ci))]
        )
    return {"scenario": scenario_to_json(sc), "tables": tables}


def support_from_json(doc):
    if not isinstance(doc, dict) or "scenario" not in doc or "tables" not in doc:
        raise ValueError("support JSON needs scenario and tables keys")
    sc = scenario_from_json(doc["scenario"])
    if len(doc["tables"]) != sc.n_contexts:
        raise ValueError("need one table row per context")
    masks = []
    for ci, row in enumerate(doc["tables"]):
        if len(row) != section_size(sc, ci):
            raise ValueError(f"wrong table width in context {ci}")
        mask = 0
        for si, cell in enumerate(row):
            v = rat(cell) if isinstance(cell, str) else cell
            if v == 1:
                mask |= 1 << si
            elif v != 0:
                raise ValueError(f"support entries must be 0 or 1, got {cell!r}")
        masks.append(mask)
    return SupportModel(sc, tuple(masks))

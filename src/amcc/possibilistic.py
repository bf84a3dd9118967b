"""Possibilistic (support-level) structure of empirical models.

A support model remembers only which sections are possible in each context,
as a bitmask over section indices, which the scans read as one bool per
slot (`_pack_masks`). Strong contextuality is the statement that no global
assignment restricts into every context's support; the compatibility scan
over the slot table decides it. `_strong_contextualities` is the one scan
of `strong_contextuality`, verify-paper's pools and the augmentation
search (`csp.search_plans`): it re-checks each witness apart from the
scan, in one gather of its slots, and names a witness the gather refuses,
with the contexts that refuse it, off that gathered row. The scan
enumerates every global assignment, so `_possible_rows`, the one entry of
every scan, first holds their number to MAX_GLOBALS through
`scenario._require`, the one check of every size limit.

Possibilistic no-signaling asks overlapping contexts to allow the same joint
outcomes of their shared measurements: each row of the scenario's
`overlap_rows`, one pair's slots of one shared outcome, holds possible
slots of both contexts or of neither.
"""

from dataclasses import dataclass
from math import lcm

import numpy as np

from .errors import VerificationError
from .kernels import compatible_mask
from .model import _model_from_ints
from .rational import over_lcm_rows
from .scenario import (
    MAX_GLOBALS,
    _global_slots,
    _require,
    global_size,
    overlap_rows,
    scenario_from_json,
    scenario_to_json,
    section_size,
    slot_count,
    slot_offsets,
    unpack,
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
    """The support of an empirical model, read from its integer rows: bit
    si of context ci's mask is set iff that numerator is nonzero."""
    masks = []
    for nums in model.rows:
        mask = 0
        for si, x in enumerate(nums):
            if x:
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
    den = lcm(*(mask.bit_count() for mask in support.masks))
    rows = []
    for size, mask in zip(sc.section_sizes, support.masks):
        w = den // mask.bit_count()
        rows.append([w if mask >> si & 1 else 0 for si in range(size)])
    return _model_from_ints(sc, den, rows)


def _pack_masks(scenario, rows):
    """bool (len(rows), n_slots): each row of in-range masks, one per
    context, in slot order, read as one integer over the slots, context c's
    mask shifted by slot_offsets[c], and unpacked from its bytes once."""
    offsets, n = slot_offsets(scenario), slot_count(scenario)
    nbytes = (n + 7) // 8
    packed = (sum(mask << at for mask, at in zip(masks, offsets)) for masks in rows)
    raw = b"".join(x.to_bytes(nbytes, "little") for x in packed)
    octets = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(octets, axis=-1, count=n, bitorder="little").view(np.bool_)


def _possible_slots(support):
    """bool per slot, in slot order: whether its (context, section) is
    possible."""
    return _pack_masks(support.scenario, (support.masks,))[0]


def compatible_globals(support):
    """Global assignments whose every restriction is possible, as a sorted
    list of packed indices."""
    return np.flatnonzero(_compatible(support.scenario, [support.masks])[0]).tolist()


def _compatible(scenario, possible):
    """bool (supports, globals): the compatible globals of supports of one
    scenario at once, possible as _possible_rows takes it."""
    return compatible_mask(_possible_rows(scenario, possible), _global_slots(scenario))


def _possible_rows(scenario, possible):
    """One bool row per support of its possible slots in slot order:
    possible itself when it is such an array, else one row of context
    masks per support, packed by _pack_masks only once the number of
    global assignments, which every scan of the rows reads, is held to
    MAX_GLOBALS."""
    _require(global_size(scenario), "global assignments", MAX_GLOBALS)
    if not isinstance(possible, np.ndarray):
        possible = _pack_masks(scenario, possible)
    return possible


def strong_contextuality(support):
    """(True, None) when no global assignment is compatible with the support,
    else (False, example global index). The example is re-checked against
    every context's support before it is returned."""
    return _strong_contextualities(support.scenario, [support.masks])[0]


def _strong_contextualities(scenario, possible):
    """strong_contextuality of supports of one scenario at once, possible
    as _possible_rows takes it: one compatibility scan over every row, and
    each row's least compatible global re-checked in one gather of the row
    at that global's slots. If one is wrong, VerificationError names the
    first such row's global and the contexts its gathered row refuses."""
    possible = _possible_rows(scenario, possible)
    slots = _global_slots(scenario)
    found = compatible_mask(possible, slots)
    has_witness = found.any(axis=1)
    witnesses = found.argmax(axis=1)
    allowed = possible[np.arange(len(possible))[:, None], slots[:, witnesses].T]
    wrong = np.flatnonzero(has_witness & ~allowed.all(axis=1))
    if wrong.size:
        k = wrong[0]
        raise VerificationError(
            "compatibility scan returned an incompatible global assignment",
            details={"global": int(witnesses[k]), "contexts": np.flatnonzero(~allowed[k]).tolist()},
        )
    verdicts = zip(has_witness.tolist(), witnesses.tolist())
    return [(False, gi) if some else (True, None) for some, gi in verdicts]


def possibilistic_no_signaling(support):
    """Check that overlapping contexts agree on which joint outcomes of their
    shared measurements are possible. Returns (True, None) or (False,
    (ci, cj, shared, outcome tuple)) for the first failing pair in
    `overlap_rows` order, at the smallest shared-outcome tuple in packed order
    that one context allows and the other does not: the first overlap_rows
    row with possible slots on one side only."""
    sc = support.scenario
    slot, sign, start, rows = overlap_rows(sc)
    possible = _possible_slots(support)[slot]
    sides = np.add.reduceat(np.stack([possible & (sign > 0), possible & (sign < 0)], 1), start[:-1])
    bad = np.flatnonzero((sides[:, 0] > 0) != (sides[:, 1] > 0))
    if not bad.size:
        return True, None
    (ci, cj), shared, k = rows[bad[0]]
    return False, (ci, cj, shared, unpack(k, [sc.outcomes[m] for m in shared]))


# ---------------------------------------------------------------------------
# serialization


def support_to_json(support):
    """Same table shape as an empirical model, with "1"/"0" entries."""
    sc = support.scenario
    tables = [
        ["1" if mask >> si & 1 else "0" for si in range(size)]
        for mask, size in zip(support.masks, sc.section_sizes)
    ]
    return {"scenario": scenario_to_json(sc), "tables": tables}


def support_from_json(doc):
    """Decode a support document: every cell is a 0 or 1 literal, decoded
    by over_lcm_rows as model_from_json decodes weights, so floats are
    refused. In model_from_json's order, the first bad literal in row order
    is refused first, then the row count, then each row in turn: its width,
    then its first cell whose numerator is neither 0 nor den."""
    if not isinstance(doc, dict) or "scenario" not in doc or "tables" not in doc:
        raise ValueError("support JSON needs scenario and tables keys")
    sc = scenario_from_json(doc["scenario"])
    den, rows = over_lcm_rows(doc["tables"])
    if len(rows) != sc.n_contexts:
        raise ValueError("need one table row per context")
    masks = []
    for ci, (cells, row) in enumerate(zip(doc["tables"], rows)):
        if len(row) != section_size(sc, ci):
            raise ValueError(f"wrong table width in context {ci}")
        if not set(row) <= {0, den}:
            cell = next(c for c, x in zip(cells, row) if x not in (0, den))
            raise ValueError(f"support entries must be 0 or 1, got {cell!r}")
        masks.append(sum(1 << si for si, x in enumerate(row) if x))
    return SupportModel(sc, tuple(masks))

"""Possibilistic (support-level) structure of empirical models.

A support model remembers only which sections are possible in each context,
as a bitmask over section indices. Strong contextuality is the statement that
no global assignment restricts into every context's support. Two independent
routes decide it: the numpy compatibility scan over the restriction table, and
evaluation of the support's Boolean formula on every assignment. At run time
`strong_contextuality` uses the scan and re-checks its witness context by
context; the formula route is the oracle the tests compare the scan against.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ResourceLimitError, VerificationError
from .kernels import compatible_mask
from .model import EmpiricalModel
from .rational import Rat, ZERO, rat
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
    "BooleanProposition",
    "BooleanFormula",
    "formula_of",
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
        w = Rat(1, len(secs))
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


def possibilistic_no_signaling(support):
    """Check that overlapping contexts agree on which joint outcomes of their
    shared measurements are possible. Returns (True, None) or (False,
    (ci, cj, shared, outcome tuple))."""
    sc = support.scenario
    for ci, cj in combinations(range(sc.n_contexts), 2):
        shared = tuple(m for m in sc.cover[ci] if m in sc.cover[cj])
        if not shared:
            continue
        seen_i = _projected_support(support, ci, shared)
        seen_j = _projected_support(support, cj, shared)
        if seen_i != seen_j:
            u = sorted(seen_i ^ seen_j)[0]
            return False, (ci, cj, shared, u)
    return True, None


def _projected_support(support, ci, measurements):
    sc = support.scenario
    ctx = sc.cover[ci]
    pos = [ctx.index(m) for m in measurements]
    seen = set()
    for si in support_sections(support, ci):
        s = section_outcomes(sc, ci, si)
        seen.add(tuple(s[p] for p in pos))
    return seen


# ---------------------------------------------------------------------------
# Boolean formulas


@dataclass(frozen=True)
class BooleanProposition:
    """Disjunction, over a context's allowed sections, of the conjunction of
    measurement=value literals describing each section."""

    context: int
    statements: tuple  # outcome tuples, one per allowed section

    def __post_init__(self):
        if not self.statements:
            raise ValueError("a proposition needs at least one statement")


@dataclass(frozen=True)
class BooleanFormula:
    """Conjunction of one proposition per context. Satisfying assignments are
    exactly the compatible globals, so the tests use it as an independent
    oracle for the compatibility scan."""

    scenario: object
    propositions: tuple

    def __post_init__(self):
        if len(self.propositions) != self.scenario.n_contexts:
            raise ValueError("need exactly one proposition per context")
        for ci, prop in enumerate(self.propositions):
            if prop.context != ci:
                raise ValueError("propositions must be listed in context order")

    def evaluate(self, assignment):
        """assignment: outcome tuple over every measurement."""
        sc = self.scenario
        if len(assignment) != len(sc.measurements):
            raise ValueError("assignment must cover every measurement")
        for ci, prop in enumerate(self.propositions):
            got = tuple(assignment[m] for m in sc.cover[ci])
            if got not in prop.statements:
                return False
        return True

    def proposition_str(self, ci):
        sc = self.scenario
        names = [sc.measurements[m] for m in sc.cover[ci]]
        parts = []
        for outs in self.propositions[ci].statements:
            lits = " & ".join(f"{n}={v}" for n, v in zip(names, outs))
            parts.append("(" + lits + ")")
        return " | ".join(parts)

    def __str__(self):
        return "\n".join(self.proposition_str(ci) for ci in range(len(self.propositions)))


def formula_of(support):
    sc = support.scenario
    props = []
    for ci in range(sc.n_contexts):
        props.append(
            BooleanProposition(
                context=ci,
                statements=tuple(
                    section_outcomes(sc, ci, si) for si in support_sections(support, ci)
                ),
            )
        )
    return BooleanFormula(sc, tuple(props))


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

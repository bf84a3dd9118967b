"""Affine families of no-signaling models, by exact sparse elimination.

The no-signaling equality system over the slot weights (one variable per
context/section pair) consists of per-context normalization plus, for every
pair of overlapping contexts, equality of the two induced marginals on their
shared measurements. Solving it under "zero outside the support" constraints
yields an affine family: a base point plus direction vectors, one per free
parameter. For one-parameter families the parameter is renamed q and pinned
to the first in-support slot of the first context (coefficient +1 there), and
the exact nonnegativity interval of q is reported.

Elimination is sparse (dict rows) with a preference for unit pivots, which
keeps rational coefficient growth negligible at 256-variable scale.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import PreconditionError, VerificationError
from .model import EmpiricalModel, is_maximal_marginals, render_table_csv
from .lp import contextual_fraction, stacked_weights
from .rational import ONE, ZERO, rat, rat_str
from .scenario import (
    scenario_from_json,
    scenario_to_json,
    section_outcomes,
    section_size,
    slot_count,
    slot_offsets,
)
from .possibilistic import support_from_json, support_to_json

__all__ = [
    "AffineFamily",
    "ns_equations",
    "ns_dimension",
    "ns_dimension_closed_form",
    "solve_support",
    "parameter_bounds",
    "family_member_params",
    "lin_str",
    "family_to_csv",
    "family_to_json",
    "family_from_json",
    "Classification",
    "classify",
]


# ---------------------------------------------------------------------------
# equation system


def ns_equations(scenario, support=None):
    """Sparse equality rows (dict slot -> coeff, rhs) for normalization and
    all pairwise shared-marginal equalities. With a support, variables are
    restricted to in-support slots (all others are pinned to zero)."""
    offs = slot_offsets(scenario)

    def keep(ci, si):
        return support is None or support.possible(ci, si)

    rows = []
    for ci in range(scenario.n_contexts):
        row = {
            offs[ci] + si: ONE
            for si in range(section_size(scenario, ci))
            if keep(ci, si)
        }
        rows.append((row, ONE))
    for ci, cj in combinations(range(scenario.n_contexts), 2):
        ctx_i, ctx_j = scenario.cover[ci], scenario.cover[cj]
        shared = tuple(m for m in ctx_i if m in ctx_j)
        if not shared:
            continue
        pos_i = [ctx_i.index(m) for m in shared]
        pos_j = [ctx_j.index(m) for m in shared]
        for u in product(*(range(scenario.outcomes[m]) for m in shared)):
            row = {}
            for si in range(section_size(scenario, ci)):
                if keep(ci, si):
                    s = section_outcomes(scenario, ci, si)
                    if tuple(s[p] for p in pos_i) == u:
                        row[offs[ci] + si] = ONE
            for sj in range(section_size(scenario, cj)):
                if keep(cj, sj):
                    s = section_outcomes(scenario, cj, sj)
                    if tuple(s[p] for p in pos_j) == u:
                        row[offs[cj] + sj] = -ONE
            if row:
                rows.append((row, ZERO))
    return rows


class _Elimination:
    """Incremental sparse Gaussian elimination over exact rationals.
    Pivot rows are normalized to coefficient 1 and keyed by pivot variable;
    incoming rows are fully reduced before a pivot is chosen (unit
    coefficients preferred, then lowest variable id, for determinism)."""

    def __init__(self):
        self.pivot_rows = {}
        self.order = []
        self.infeasible = False

    def add(self, row, rhs):
        row = dict(row)
        while True:
            hits = sorted(v for v in row if v in self.pivot_rows)
            if not hits:
                break
            v = hits[0]
            c = row.pop(v)
            prow, prhs = self.pivot_rows[v]
            for w, pc in prow.items():
                if w == v:
                    continue
                nv = row.get(w, ZERO) - c * pc
                if nv:
                    row[w] = nv
                else:
                    row.pop(w, None)
            rhs = rhs - c * prhs
        if not row:
            if rhs != 0:
                self.infeasible = True
            return
        units = sorted(v for v, c in row.items() if c == 1 or c == -1)
        pivot = units[0] if units else min(row)
        c = row[pivot]
        if c != ONE:
            row = {v: x / c for v, x in row.items()}
            rhs = rhs / c
        self.pivot_rows[pivot] = (row, rhs)
        self.order.append(pivot)

    def back_substitute(self, variables):
        """Express every variable as (const, {free_var: coeff}); free
        variables are those without a pivot row, ascending."""
        free = [v for v in variables if v not in self.pivot_rows]
        exprs = {v: (ZERO, {v: ONE}) for v in free}
        for v in reversed(self.order):
            prow, prhs = self.pivot_rows[v]
            const = prhs
            coeffs = {}
            for w, c in prow.items():
                if w == v:
                    continue
                w_const, w_coeffs = exprs[w]
                const -= c * w_const
                for f, fc in w_coeffs.items():
                    nv = coeffs.get(f, ZERO) - c * fc
                    if nv:
                        coeffs[f] = nv
                    else:
                        coeffs.pop(f, None)
            exprs[v] = (const, coeffs)
        return free, exprs


def ns_dimension(scenario):
    """Dimension of the affine space of no-signaling models: slot count minus
    the rank of the equality system, by exact elimination."""
    elim = _Elimination()
    for row, rhs in ns_equations(scenario):
        elim.add(row, rhs)
    if elim.infeasible:
        raise VerificationError("no-signaling system is inconsistent")
    return slot_count(scenario) - len(elim.order)


def ns_dimension_closed_form(scenario):
    """Independent oracle for Bell scenarios: prod over parties of
    (settings * (outcomes - 1) + 1), minus 1."""
    if scenario.parties is None:
        raise PreconditionError("closed form needs party structure")
    by_party = {}
    for m, p in enumerate(scenario.parties):
        by_party.setdefault(p, []).append(m)
    total = 1
    for p, ms in sorted(by_party.items()):
        outs = {scenario.outcomes[m] for m in ms}
        if len(outs) != 1:
            raise PreconditionError("closed form needs uniform outcomes per party")
        total *= len(ms) * (outs.pop() - 1) + 1
    return total - 1


# ---------------------------------------------------------------------------
# affine families


@dataclass(frozen=True)
class AffineFamily:
    """base + sum_d t_d * directions[d], as vectors over all slots; entries
    outside the support are identically zero. For one-parameter families the
    parameter is named q and equals the weight of the first in-support slot
    of the first context."""

    scenario: object
    support: object
    base: tuple
    directions: tuple
    parameters: tuple

    @property
    def dimension(self):
        return len(self.directions)

    def entry(self, ci, si):
        """(const, per-parameter coeffs) for one slot."""
        slot = slot_offsets(self.scenario)[ci] + si
        return self.base[slot], tuple(d[slot] for d in self.directions)

    def at(self, *values):
        """Instantiate the parameters; returns an EmpiricalModel."""
        if len(values) != self.dimension:
            raise ValueError(f"family needs {self.dimension} parameter values")
        vals = [rat(v) for v in values]
        weights = list(self.base)
        for t, d in zip(vals, self.directions):
            if t:
                for slot, c in enumerate(d):
                    if c:
                        weights[slot] += t * c
        if any(w < 0 for w in weights):
            detail = ""
            if self.dimension == 1:
                lo, hi = parameter_bounds(self)
                detail = f"; {self.parameters[0]} must lie in [{rat_str(lo)}, {rat_str(hi)}]"
            raise PreconditionError("parameter values give a negative weight" + detail)
        offs = slot_offsets(self.scenario)
        rows = []
        for ci in range(self.scenario.n_contexts):
            size = section_size(self.scenario, ci)
            rows.append(tuple(weights[offs[ci] + si] for si in range(size)))
        return EmpiricalModel(self.scenario, tuple(rows))


def solve_support(support):
    """Affine family of no-signaling weight vectors vanishing outside the
    support, or None when the equality system is infeasible. Nonnegativity is
    not imposed here; for one-parameter families use parameter_bounds."""
    sc = support.scenario
    rows = ns_equations(sc, support)
    elim = _Elimination()
    for row, rhs in rows:
        elim.add(row, rhs)
        if elim.infeasible:
            return None
    offs = slot_offsets(sc)
    supported = [
        offs[ci] + si
        for ci in range(sc.n_contexts)
        for si in range(section_size(sc, ci))
        if support.possible(ci, si)
    ]
    free, exprs = elim.back_substitute(supported)
    n_slots = slot_count(sc)
    base = [ZERO] * n_slots
    dirs = [[ZERO] * n_slots for _ in free]
    col = {f: k for k, f in enumerate(free)}
    for v in supported:
        const, coeffs = exprs[v]
        base[v] = const
        for f, c in coeffs.items():
            dirs[col[f]][v] = c
    family = AffineFamily(
        scenario=sc,
        support=support,
        base=tuple(base),
        directions=tuple(tuple(d) for d in dirs),
        parameters=tuple(f"t{k}" for k in range(len(free))),
    )
    if family.dimension == 1:
        family = _normalize_single_parameter(family)
    _check_family(family, rows)
    return family


def _normalize_single_parameter(family):
    """Reparameterize a one-dimensional family so the parameter equals the
    weight of the first in-support slot of the first context whose weight
    actually varies; name it q."""
    sc = family.scenario
    offs = slot_offsets(sc)
    direction = family.directions[0]
    anchor = None
    for ci in range(sc.n_contexts):
        for si in range(section_size(sc, ci)):
            slot = offs[ci] + si
            if family.support.possible(ci, si) and direction[slot] != 0:
                anchor = slot
                break
        if anchor is not None:
            break
    if anchor is None:
        raise VerificationError("one-parameter family with a constant table")
    c0 = family.base[anchor]
    c1 = direction[anchor]
    # q = c0 + c1 t  =>  t = (q - c0)/c1; entry a + b t = (a - b c0/c1) + (b/c1) q
    base = tuple(a - d * c0 / c1 for a, d in zip(family.base, direction))
    newdir = tuple(d / c1 for d in direction)
    return AffineFamily(
        scenario=sc,
        support=family.support,
        base=base,
        directions=(newdir,),
        parameters=("q",),
    )


def _check_family(family, rows):
    """Re-verify the defining invariants: the base solves every equation in
    rows (the family support's ns_equations) and each direction solves the
    homogeneous system; all vanish off-support."""
    sc = family.scenario
    offs = slot_offsets(sc)
    for ci in range(sc.n_contexts):
        for si in range(section_size(sc, ci)):
            if not family.support.possible(ci, si):
                slot = offs[ci] + si
                if family.base[slot] != 0 or any(d[slot] != 0 for d in family.directions):
                    raise VerificationError(
                        "family has weight outside the support",
                        details={"context": ci, "section": si},
                    )
    for row, rhs in rows:
        acc = ZERO
        for slot, c in row.items():
            acc += c * family.base[slot]
        if acc != rhs:
            raise VerificationError("family base violates an equality")
        for d in family.directions:
            acc = ZERO
            for slot, c in row.items():
                acc += c * d[slot]
            if acc != 0:
                raise VerificationError("family direction violates homogeneity")


def parameter_bounds(family):
    """Closed interval of the parameter where every slot stays nonnegative
    (one-parameter families only). Returns (lo, hi) rationals, either side
    None when unbounded; returns None when no value is feasible."""
    if family.dimension != 1:
        raise PreconditionError("bounds are defined for one-parameter families")
    lo, hi = None, None
    d = family.directions[0]
    for slot, b in enumerate(family.base):
        c = d[slot]
        if c == 0:
            if b < 0:
                return None
            continue
        bound = -b / c
        if c > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def family_member_params(family, model):
    """Parameter values at which the family hits the model exactly, or None
    if the model is outside the family."""
    if model.scenario != family.scenario:
        raise PreconditionError("model and family scenarios differ")
    target = stacked_weights(model)
    elim = _Elimination()
    for slot, w in enumerate(target):
        row = {k: d[slot] for k, d in enumerate(family.directions) if d[slot] != 0}
        rhs = w - family.base[slot]
        if row:
            elim.add(row, rhs)
        elif rhs != 0:
            return None
        if elim.infeasible:
            return None
    # underdetermined parameters are pinned to 0 by taking each expression's
    # constant part; the final entrywise check catches any mismatch
    _, exprs = elim.back_substitute(range(family.dimension))
    params = tuple(exprs[k][0] for k in range(family.dimension))
    weights = list(family.base)
    for t, d in zip(params, family.directions):
        if t:
            for slot, c in enumerate(d):
                if c:
                    weights[slot] += t * c
    if weights != list(target):
        return None
    return params


# ---------------------------------------------------------------------------
# rendering and serialization


def lin_str(const, coeff, name="q"):
    """Canonical text for const + coeff * name: "0", "1/8", "q", "1/4-q",
    "2q-1/4", "1/4+q", "-q"."""
    const, coeff = rat(const), rat(coeff)
    if coeff == 0:
        return rat_str(const)
    mag = "" if abs(coeff) == 1 else rat_str(abs(coeff))
    term = f"{mag}{name}"
    if const == 0:
        return term if coeff > 0 else f"-{term}"
    if coeff > 0:
        if const > 0:
            return f"{rat_str(const)}+{term}"
        return f"{term}-{rat_str(-const)}"
    if const > 0:
        return f"{rat_str(const)}-{term}"
    return f"-{rat_str(-const)}-{term}"


def family_to_csv(family):
    """CSV of the symbolic table (one-parameter or constant families)."""
    if family.dimension > 1:
        raise PreconditionError("CSV rendering needs dimension <= 1")
    name = family.parameters[0] if family.dimension else "q"
    offs = slot_offsets(family.scenario)

    def cell(ci, si):
        slot = offs[ci] + si
        coeff = family.directions[0][slot] if family.dimension else ZERO
        return lin_str(family.base[slot], coeff, name)

    return render_table_csv(family.scenario, cell)


def family_to_json(family):
    if family.dimension == 1:
        bounds = parameter_bounds(family)
        bounds_doc = None if bounds is None else [
            None if b is None else rat_str(b) for b in bounds
        ]
    else:
        bounds_doc = None
    return {
        "scenario": scenario_to_json(family.scenario),
        "support": support_to_json(family.support)["tables"],
        "parameters": list(family.parameters),
        "base": [rat_str(x) for x in family.base],
        "directions": [[rat_str(x) for x in d] for d in family.directions],
        "bounds": bounds_doc,
    }


def family_from_json(doc):
    for key in ("scenario", "support", "parameters", "base", "directions"):
        if key not in doc:
            raise ValueError(f"family JSON missing key {key!r}")
    sc = scenario_from_json(doc["scenario"])
    support = support_from_json({"scenario": doc["scenario"], "tables": doc["support"]})
    n = slot_count(sc)
    base = tuple(rat(x) for x in doc["base"])
    if len(base) != n:
        raise ValueError("base length does not match the scenario")
    dirs = tuple(tuple(rat(x) for x in d) for d in doc["directions"])
    if any(len(d) != n for d in dirs):
        raise ValueError("direction length does not match the scenario")
    if len(doc["parameters"]) != len(dirs):
        raise ValueError("one parameter name per direction required")
    family = AffineFamily(
        scenario=sc,
        support=support,
        base=base,
        directions=dirs,
        parameters=tuple(doc["parameters"]),
    )
    _check_family(family, ns_equations(sc, support))
    return family


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    cf: object
    ncf: object
    contextuality: str  # noncontextual | contextual | maximally_contextual
    maximal_marginals: bool
    marginal_witness: object
    verdict: str  # AMCC | non-AMCC | not maximal


def classify(model):
    """Joint contextuality/marginals classification of a no-signaling model:
    AMCC when cf = 1 with maximal marginals, non-AMCC when cf = 1 without,
    otherwise not maximal."""
    res = contextual_fraction(model)
    mm, wit = is_maximal_marginals(model)
    if res.cf == 1:
        kind = "maximally_contextual"
        verdict = "AMCC" if mm else "non-AMCC"
    else:
        kind = "noncontextual" if res.cf == 0 else "contextual"
        verdict = "not maximal"
    return Classification(
        cf=res.cf,
        ncf=res.ncf,
        contextuality=kind,
        maximal_marginals=mm,
        marginal_witness=wit,
        verdict=verdict,
    )

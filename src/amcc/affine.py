"""Affine families of no-signaling models, by exact elimination.

The no-signaling equality system over the slot weights (one variable per
context/section pair) consists of per-context normalization plus, for every
pair of overlapping contexts, equality of the two induced marginals on their
shared measurements. Solving it under "zero outside the support" constraints
yields an affine family: a base point plus direction vectors, one per free
parameter. A family is held as the elimination leaves it, integer rows over
one denominator: the base, then each direction, over all slots. For
one-parameter families the parameter is renamed q, the weight of the first
slot whose weight varies (coefficient +1 there), by rewriting the two rows,
and the exact nonnegativity interval of q is reported. The checks, the
membership solve, instantiation and JSON output all read the integer rows:
family_from_json decodes its base and directions straight to them, as one
table through rational.over_lcm_rows, and Fractions are only handed out,
as the values a caller asks for.

Each support is solved by fraction-free Gauss-Jordan on one int64 array,
pivoted by the simplex's own step, lp._pivot_array (Edmonds; Bareiss):
every stored entry is the true one times det, the last pivot, and each
pivot divides exactly by the one before. A unit pivot leaves det as it
is, so units are preferred, which keeps coefficient growth negligible at
256-variable scale. Pivot rows end fully reduced, so each reads off as
its variable's expression in the free ones. The array passes to Python
ints only if its entries outgrow int64.

The full scenario's system is reduced once per scenario, sparsely, each
row a dict of integers with its rhs as one more key and no denominator,
since a row's scale does not change its span; the indices of the rows
that are independent of the rows before them are kept in order (its rank
profile), and ns_dimension is read off it. Every other row is implied by
the rows before it, and restricting to a support only deletes columns, so
it stays implied: solve_support gathers only the kept rows, restricted to
the support's slots, into its array, and ends in the state that
eliminating all of the support's equations would reach. The family check
reads the full system in integer passes, one vector at a time. A support
is read only as its slot mask, possibilistic._possible_slots: one bool
per slot, in slot order.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd, lcm

import numpy as np

from .errors import PreconditionError, VerificationError
from .model import _model_from_ints, render_table_csv, uniform_marginals
from .lp import _INT64_LIMIT, _certified_lps, _pivot_array
from .rational import ONE, ZERO, _listed, fractions_over, over_lcm_rows, rat, rat_str
from .scenario import (
    MAX_TABLE_CELLS,
    _require,
    overlap_rows,
    scenario_from_json,
    scenario_to_json,
    slot_count,
    slot_offsets,
)
from .possibilistic import _possible_slots, support_from_json, support_to_json

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
    """The rows of _ns_arrays(scenario) as sparse equalities (dict slot ->
    coeff, rhs), each row's slots in order. With a support, variables are
    restricted to in-support slots (all others are pinned to zero), and
    rows left without a slot are dropped."""
    return list(_equations(scenario, support))


# rows of _ns_arrays that _equations turns into Python lists at a time
_EQUATION_BLOCK = 1 << 12


def _equations(scenario, support=None):
    """The rows of ns_equations(scenario, support), yielded one at a time;
    the arrays become Python lists a block of rows at a time."""
    slot, sign, start, rhs, _ = _ns_arrays(scenario)
    if support is not None:
        keep = _possible_slots(support)[slot]
        start = np.concatenate([[0], np.cumsum(keep)])[start]
        slot, sign = slot[keep], sign[keep]
    for r in range(0, rhs.size, _EQUATION_BLOCK):
        bounds = start[r : r + _EQUATION_BLOCK + 1].tolist()
        first, last = bounds[0], bounds[-1]
        slots, signs = slot[first:last].tolist(), sign[first:last].tolist()
        for a, b, value in zip(bounds, bounds[1:], rhs[r : r + _EQUATION_BLOCK].tolist()):
            if a < b:
                yield dict(zip(slots[a - first : b - first], signs[a - first : b - first])), value


def _rank_profile(rows):
    """The indices, ascending, of the integer rows (coeffs, rhs) that are
    not in the span of the rows before them: the rank profile. Each row,
    its rhs under key -1, is reduced by the pivot rows so far and becomes
    one if a slot is left; at 0 = nonzero, VerificationError. A row is thus
    kept exactly when it is independent of the rows before it, whatever
    pivots were taken and whatever multiple of each row was stored, so three
    choices made for speed cannot change the indices: pivot rows stay fully
    reduced, so a row reduces in one pass; the pivot is the lowest slot
    holding 1 or -1, else the lowest slot; and it is made positive, so a
    unit pivot scales nothing. Only a non-unit pivot brings in a gcd."""
    pivots, kept = {}, []
    for i, (coeffs, rhs) in enumerate(rows):
        row = {**coeffs, -1: rhs} if rhs else dict(coeffs)
        for v in [v for v in coeffs if v in pivots]:
            row = _cancel(row, v, pivots[v])
        slots = [v for v in row if v >= 0]
        if not slots:
            if row:
                raise VerificationError("no-signaling system is inconsistent")
            continue
        units = [v for v in slots if row[v] == 1 or row[v] == -1]
        pivot = min(units or slots)
        g = (1 if units else gcd(*row.values())) * (1 if row[pivot] > 0 else -1)
        if g != 1:
            row = {w: x // g for w, x in row.items()}
        for u, prow in pivots.items():
            if pivot in prow:
                pivots[u] = _cancel(prow, pivot, row)
        pivots[pivot] = row
        kept.append(i)
    return kept


def _cancel(row, v, prow):
    """The integer row less v: p * row - c * prow, c and p > 0 being the
    rows' entries on v, over its gcd if p is not 1 (row, changed, if p is 1)."""
    c, p = row.pop(v), prow[v]
    if p != 1:
        row = {w: x * p for w, x in row.items()}
    for w, pc in prow.items():
        if w != v:
            x = row.get(w, 0) - c * pc
            if x:
                row[w] = x
            else:
                del row[w]
    if p != 1:
        g = gcd(*row.values())
        row = {w: x // g for w, x in row.items()}
    return row


@lru_cache(maxsize=64)
def _pivot_rows(scenario):
    """_rank_profile of the rows of ns_equations(scenario), streamed to it
    by _equations, as a read-only array; no row of the full system is
    empty, so it indexes the rows of _ns_arrays too. Raises
    ResourceLimitError first past MAX_TABLE_CELLS slots squared, as the
    reduced rows hold up to slots x (slots + 1) entries."""
    n = slot_count(scenario)
    _require(n * n, f"cells in the {n} x {n} rank-profile elimination", MAX_TABLE_CELLS)
    kept = np.array(_rank_profile(_equations(scenario)), np.intp)
    kept.setflags(write=False)
    return kept


def _support_table(support, on):
    """(table, supported): the integer table [A | b] of the _pivot_rows
    rows restricted to the support's slots, in order, less the rows left
    empty (pair rows with rhs 0; no context is empty), and the supported
    slots ascending, column k of A being slot supported[k]. Each row is the
    ns_equations(scenario, support) row of the same equation; on is the
    support's _possible_slots. The table's cells pass scenario._require
    with MAX_TABLE_CELLS before it is built."""
    kept = _pivot_rows(support.scenario)
    supported = np.flatnonzero(on)
    slot, sign, start, rhs, _ = _ns_arrays(support.scenario)
    # the kept rows' entries, row by row, each row's in its slot order
    counts = start[kept + 1] - start[kept]
    row = np.repeat(np.arange(kept.size), counts)
    entry = np.arange(row.size) + np.repeat(start[kept] - (np.cumsum(counts) - counts), counts)
    keep = on[slot[entry]]
    row, entry = row[keep], entry[keep]
    rhs = rhs[kept]
    live = (np.bincount(row, minlength=kept.size) > 0) | (rhs != 0)
    shape = (int(live.sum()), supported.size + 1)
    _require(
        shape[0] * shape[1],
        f"cells in the elimination table of {shape[0]} x {shape[1]}",
        MAX_TABLE_CELLS,
    )
    table = np.zeros(shape, np.int64)
    table[(np.cumsum(live) - 1)[row], (np.cumsum(on) - 1)[slot[entry]]] = sign[entry]
    table[:, -1] = rhs[live]
    return table, supported


def _gauss_jordan(table, scale=1, disjoint=0):
    """Fraction-free Gauss-Jordan elimination of the integer table [A | b],
    in place, one row at a time in order, each pivot one lp._pivot_array.
    Every row is scale, a positive integer, times a true row. Returns
    (table, det, pivots, bad): pivots maps each pivot column to its row,
    in pivot order, and bad is the first row found to read 0 = nonzero, or
    None. The table comes back C-ordered (lp._pivot_array updates it
    through a flat view), and as a new array if it was not, or once its
    entries outgrow int64 and it passes to Python ints.

    After the pivots so far, a pivot row holds det at its pivot, 0 at every
    other pivot column, and det times its true row divided by its pivot
    coefficient; a row not yet pivoted holds det * scale times its
    remainder, what is left of its true row once the pivot rows have
    cancelled every pivot column. That remainder is unique, so the pivots
    are those of any exact elimination that takes the rows in this order
    and reduces each by the pivot rows before it. Its pivot is the lowest
    column whose remainder coefficient is 1 or -1, else its lowest nonzero
    column: |table[i, v]| == det * scale is exactly the test that the true
    coefficient is a unit. A negative pivot entry negates the row first,
    so every pivot is positive. A row with no nonzero left is implied, or
    inconsistent if its rhs is nonzero, and is passed over; once every
    column holds a pivot, so is every row left.

    The first disjoint rows, at scale 1, must hold 1 on consecutive ranges
    of columns that partition A's columns, row by row in order, 0 elsewhere
    in A, and rhs 1: a support's normalization rows. The loop would pivot
    each on the first column of its range, a unit at det 1, and no other
    of them holds that column, so these pivots change no pivot row and
    are taken in one pass: every later row loses, over each range, its
    entry at that range's pivot column, and its rhs loses the sum of those
    entries. That saves a numpy pivot per context, which on a support of
    16-47 slots is most of the elimination. A later row of a support
    table is a pair row, rhs 0, 1 on slots of one context and -1 on slots
    of another: over each range it loses an entry of its own sign there,
    so its entries and its rhs stay 0, 1 or -1, and the bound for the
    pivots after the pass is read off the table."""
    table = np.ascontiguousarray(table)
    n = table.shape[1] - 1
    det = 1
    pivots, bad = {}, None
    if disjoint:
        ends = list(accumulate((table[:disjoint, :n] != 0).sum(axis=1).tolist()))
        first = [0, *ends[:-1]]
        f = table[disjoint:, first]
        for r, (a, b) in enumerate(zip(first, ends)):
            table[disjoint:, a:b] -= f[:, r, None]
        table[disjoint:, n] -= f.sum(axis=1)
        pivots = dict(zip(first, range(disjoint)))
    bound = max(int(table.max(initial=0)), -int(table.min(initial=0)))
    for i in range(disjoint, table.shape[0]):
        if len(pivots) == n:
            # every column holds a pivot: each row left reads 0 = its rhs
            rest = table[i:, n].nonzero()[0]
            if bad is None and rest.size:
                bad = i + int(rest[0])
            break
        row = table[i, :n]
        nonzero = row.nonzero()[0]
        if not nonzero.size:
            if bad is None and table[i, n]:
                bad = i
            continue
        unit = det * scale
        coeffs = row[nonzero].tolist()
        k = next((k for k, c in enumerate(coeffs) if c == unit or c == -unit), 0)
        v = int(nonzero[k])
        if coeffs[k] < 0:
            table[i] *= -1
        table, det, bound, _ = _pivot_array(table, i, v, det, bound)
        pivots[v] = i
    return table, det, pivots, bad


def ns_dimension(scenario):
    """Dimension of the affine space of no-signaling models: slot count minus
    the rank of the equality system, read off its exact elimination."""
    return slot_count(scenario) - len(_pivot_rows(scenario))


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
    """(rows[0] + sum_d t_d * rows[1 + d]) / den: rows holds the base, then
    one direction per parameter, each a tuple of ints over all slots, and
    den is a positive int; entries outside the support are identically
    zero. For one-parameter families the parameter is named q and equals
    the weight of the first slot whose weight varies."""

    scenario: object
    support: object
    den: int
    rows: tuple
    parameters: tuple

    @property
    def dimension(self):
        return len(self.rows) - 1

    @property
    def base(self):
        """The base as a tuple of Fractions."""
        return fractions_over(self.rows[0], self.den)

    @property
    def directions(self):
        """The directions as tuples of Fractions."""
        return tuple(fractions_over(d, self.den) for d in self.rows[1:])

    def entry(self, ci, si):
        """(const, per-parameter coeffs) for one slot."""
        slot = slot_offsets(self.scenario)[ci] + si
        const, *coeffs = (rat(v[slot], self.den) for v in self.rows)
        return const, tuple(coeffs)

    def at(self, *values):
        """Instantiate the parameters; returns an EmpiricalModel."""
        if len(values) != self.dimension:
            raise ValueError(f"family needs {self.dimension} parameter values")
        weights, den = _combine(self, [rat(v) for v in values])
        if min(weights) < 0:
            detail = ""
            if self.dimension == 1:
                bounds = parameter_bounds(self)
                name = self.parameters[0]
                if bounds is None:
                    raise PreconditionError(f"no value of {name} is feasible")
                detail = f"; {name} must lie in [{rat_str(bounds[0])}, {rat_str(bounds[1])}]"
            raise PreconditionError("parameter values give a negative weight" + detail)
        offs = slot_offsets(self.scenario)
        rows = [weights[o:o + k] for o, k in zip(offs, self.scenario.section_sizes)]
        return _model_from_ints(self.scenario, den, rows)


def _combine(family, values):
    """(weights, den): the family's slot weights at the Fraction parameter
    values as integers over den, the family's den times the lcm of the
    values' denominators."""
    m = lcm(*(t.denominator for t in values))
    weights = [b * m for b in family.rows[0]]
    for t, d in zip(values, family.rows[1:]):
        if t:
            f = t.numerator * (m // t.denominator)
            weights = [x + f * c for x, c in zip(weights, d)]
    return weights, family.den * m


def solve_support(support):
    """Affine family of no-signaling weight vectors vanishing outside the
    support, or None when the equality system is infeasible. Nonnegativity is
    not imposed here; for one-parameter families use parameter_bounds.

    Each pivot row reads x_v = (b - sum of A[f] * x_f) / det over the free
    slots f, ascending: over det, the base takes b at v and each free slot's
    direction -A[f] at v, and det at f itself.

    A one-parameter family is renamed q, the weight of the first slot a
    whose direction d is nonzero (there is one: d holds det at its free
    slot): q = (b[a] + t d[a]) / det gives every entry as (b d[a] - d b[a]
    + q det d) / (det d[a]), the rows s (b d[a] - d b[a]) and s det d over
    det |d[a]|, s the sign of d[a]."""
    sc = support.scenario
    on = _possible_slots(support)
    table, supported = _support_table(support, on)
    table, det, pivots, bad = _gauss_jordan(table, disjoint=sc.n_contexts)
    if bad is not None:
        return None
    cols, rows = list(pivots), list(pivots.values())
    is_free = np.ones(supported.size, bool)
    is_free[cols] = False
    free = np.flatnonzero(is_free)
    solved = np.zeros((free.size + 1, slot_count(sc)), table.dtype)
    solved[0, supported[cols]] = table[rows, -1]
    solved[1:, supported[cols]] = -table[:, free][rows].T
    solved[np.arange(1, free.size + 1), supported[free]] = det
    vectors = solved.tolist()
    parameters = tuple(f"t{k}" for k in range(free.size))
    if free.size == 1:
        b, d = vectors
        a = next((slot for slot, x in enumerate(d) if x), None)
        if a is None:
            raise VerificationError("one-parameter family with a constant table")
        s = 1 if d[a] > 0 else -1
        vectors = [[s * (x * d[a] - y * b[a]) for x, y in zip(b, d)], [s * det * y for y in d]]
        det *= abs(d[a])
        parameters = ("q",)
    family = AffineFamily(sc, support, det, tuple(map(tuple, vectors)), parameters)
    _check_family(family, on)
    return family


@lru_cache(maxsize=64)
def _ns_arrays(scenario):
    """The no-signaling system as read-only arrays (slot, sign, start, rhs),
    laid out as scenario.marginal_rows, and its longest row's length: each
    context's slots (rhs 1), then scenario.overlap_rows (rhs 0)."""
    slot, sign, start, _ = overlap_rows(scenario)
    n = slot_count(scenario)
    slot = np.concatenate([np.arange(n, dtype=np.int32), slot])
    sign = np.concatenate([np.ones(n, dtype=np.int8), sign])
    start = np.concatenate([slot_offsets(scenario), n + start])
    rhs = np.repeat(np.array([1, 0]), [scenario.n_contexts, start.size - 1 - scenario.n_contexts])
    for a in (slot, sign, start, rhs):
        a.setflags(write=False)
    return slot, sign, start, rhs, int(np.diff(start).max())


def _check_family(family, on):
    """Re-verify the defining invariants: every vector vanishes off the
    support, the base solves ns_equations and each direction solves the
    homogeneous system. Off the support every entry is then 0, so the full
    scenario's rows, _ns_arrays, check the same thing as the support's.
    on is the support's _possible_slots.

    One numpy pass over the rows and the support's slot mask finds weight
    off the support, reported as the (context, section) of its first slot.
    Then each vector's row sums are one numpy reduceat, a vector at a time,
    so only one vector's gather is held. No sum exceeds the longest row
    times the largest numerator; while that bound and den are below 2**63
    the sums run in int64, otherwise on Python ints. The first violating
    row in ns_equations order is reported, its base before its directions."""
    sc = family.scenario
    slot, sign, start, rhs, width = _ns_arrays(sc)
    big = max(max(max(v), -min(v)) for v in family.rows)
    dtype = np.int64 if max(width * big, family.den) < 2**63 else object
    values = np.array(family.rows, dtype=dtype)
    off = np.flatnonzero((values != 0).any(axis=0) & ~on)
    if off.size:
        offs = slot_offsets(sc)
        ci = int(np.searchsorted(offs, off[0], side="right")) - 1
        si = int(off[0]) - offs[ci]
        raise VerificationError(
            "family has weight outside the support",
            details={"context": ci, "section": si},
        )
    first, culprit = rhs.size, None
    for k, v in enumerate(values):
        sums = np.add.reduceat(v[slot] * sign, start[:-1])
        if k == 0:
            sums -= rhs.astype(dtype) * family.den
        bad = np.flatnonzero(sums[:first])
        if bad.size:
            first, culprit = int(bad[0]), k
    if culprit == 0:
        raise VerificationError("family base violates an equality")
    if culprit is not None:
        raise VerificationError("family direction violates homogeneity")


def parameter_bounds(family):
    """Closed interval of the parameter where every slot stays nonnegative
    (one-parameter families only). Returns (lo, hi) rationals, either side
    None when unbounded; returns None when no value is feasible. Each
    distinct (base, direction) numerator pair is read once."""
    if family.dimension != 1:
        raise PreconditionError("bounds are defined for one-parameter families")
    pairs = set(zip(*family.rows))
    if any(c == 0 and b < 0 for b, c in pairs):
        return None
    lo = max((rat(-b, c) for b, c in pairs if c > 0), default=None)
    hi = min((rat(-b, c) for b, c in pairs if c < 0), default=None)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def family_member_params(family, model):
    """Parameter values at which the family hits the model exactly, or None
    if the model is outside the family. The final check recomposes every
    slot from integer numerators."""
    if model.scenario != family.scenario:
        raise PreconditionError("model and family scenarios differ")
    tden = model.den
    target = list(chain.from_iterable(model.rows))
    base, *directions = family.rows
    # sum_k d_k * t_k == w - base at every slot, times scale, the lcm of
    # both denominators; a slot no direction touches must read 0 == 0
    scale = lcm(tden, family.den)
    f, g = scale // family.den, scale // tden
    columns = [[x * f for x in d] for d in directions]
    columns.append([w * g - b * f for w, b in zip(target, base)])
    big = max(max(max(c), -min(c)) for c in columns)
    table = np.array(list(zip(*columns)), np.int64 if big < _INT64_LIMIT else object)
    touched = table[:, :-1].any(axis=1)
    if table[~touched, -1].any():
        return None
    table, det, pivots, bad = _gauss_jordan(table[touched], scale)
    if bad is not None:
        return None
    # underdetermined parameters are pinned to 0; the final entrywise
    # check catches any mismatch
    params = [ZERO] * family.dimension
    for k, i in pivots.items():
        params[k] = rat(int(table[i, -1]), det)
    params = tuple(params)
    weights, den = _combine(family, params)
    if [x * tden for x in weights] != [w * den for w in target]:
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

    def cell(ci, si):
        const, coeffs = family.entry(ci, si)
        return lin_str(const, coeffs[0] if coeffs else ZERO, name)

    return render_table_csv(family.scenario, cell)


def family_to_json(family):
    """The family as JSON; each distinct numerator is formatted once."""
    text = {x: rat_str(rat(x, family.den)) for x in set(chain.from_iterable(family.rows))}
    base, *directions = ([text[x] for x in v] for v in family.rows)
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
        "base": base,
        "directions": directions,
        "bounds": bounds_doc,
    }


def family_from_json(doc):
    """Decode a family document: its support as support_from_json does,
    then its base and directions as one table through over_lcm_rows.
    Directions that are a string or an object are refused first, then the
    first bad literal or row in row order, then the vectors' lengths and
    the parameters (a list, one per direction, of nonempty strings), then
    the family's values, which _check_family checks against every
    no-signaling equation."""
    for key in ("scenario", "support", "parameters", "base", "directions"):
        if key not in doc:
            raise ValueError(f"family JSON missing key {key!r}")
    sc = scenario_from_json(doc["scenario"])
    support = support_from_json({"scenario": doc["scenario"], "tables": doc["support"]})
    n = slot_count(sc)
    den, (base, *dirs) = over_lcm_rows([doc["base"], *_listed(doc["directions"])])
    if len(base) != n:
        raise ValueError("base length does not match the scenario")
    if any(len(d) != n for d in dirs):
        raise ValueError("direction length does not match the scenario")
    parameters = tuple(_listed(doc["parameters"]))
    if len(parameters) != len(dirs):
        raise ValueError("one parameter name per direction required")
    if not all(isinstance(name, str) for name in parameters):
        raise TypeError("parameters must be names, given as strings")
    if "" in parameters:
        raise ValueError("parameters must be nonempty names")
    rows = (tuple(base), *map(tuple, dirs))
    family = AffineFamily(sc, support, den, rows, parameters)
    _check_family(family, _possible_slots(support))
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
    otherwise not maximal. The fraction is the presolved one of
    certified_fraction, certified by its prices and its weights, read off
    the route's integer result: no Fraction price is built."""
    [(ncf, *_)] = _certified_lps([model], compatible=True)
    cf = ONE - ncf
    # the route has already refused a signaling model
    mm, wit = uniform_marginals(model)
    if cf == 1:
        kind = "maximally_contextual"
        verdict = "AMCC" if mm else "non-AMCC"
    else:
        kind = "noncontextual" if cf == 0 else "contextual"
        verdict = "not maximal"
    return Classification(
        cf=cf,
        ncf=ncf,
        contextuality=kind,
        maximal_marginals=mm,
        marginal_witness=wit,
        verdict=verdict,
    )

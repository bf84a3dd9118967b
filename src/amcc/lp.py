"""Exact-rational linear programming for the contextual fraction.

The noncontextual fraction of a model is the value of

    maximize  sum_g b_g   subject to  M b <= v,  b >= 0

where M is the 0/1 incidence matrix (slot, global assignment) and v stacks
the model's weights in slot order. The inequality form is used deliberately:
its residual v - M b stays componentwise nonnegative, which is what turns the
optimum into a convex decomposition of the model. Its dual prices the slots:

    minimize  v . y   subject to  M^T y >= 1,  y >= 0

(Abramsky, Barbosa and Mansfield, PRL 119, 050504, 2017).

The solver is a single-phase tableau simplex started from the slack basis,
which is feasible because v >= 0, with Bland's anti-cycling rule; these
polytopes are massively degenerate (strongly contextual models sit on many
zero slots), so an anti-cycling rule is not optional. The tableau holds
integers, v scaled by the lcm of its denominators; each pivot divides
exactly by the previous one (Edmonds' integer-preserving pivoting) and
the ratio test cross-multiplies, so the pivots are a Fraction tableau's.
A small tableau is a list of Python int lists, updated entry by entry.
One of ARRAY_CELLS cells or more is one numpy array, updated a block of
rows at a time: int64 while a running bound on its entries shows that
no pivot's products can pass _INT64_LIMIT, Python ints (dtype object)
from the first pivot where the true largest entry no longer shows it.
Both kernels share one ratio test, so they take the same pivots.
The optimal prices are read off the final objective row and every
fraction is returned only after they certify optimality exactly, and
after the decomposition recomposes the model.

The price check runs on integers: the prices over the lcm of their
denominators, the weights from the model's integer view (every row's
numerators over one denominator). Global g's slots are slot_offsets +
restriction_table[:, g], one per context, so what every global collects
is one numpy sum over the restriction table, in int64 whenever the
totals are bounded below 2**63 and on Python ints otherwise.

`certified_fraction` is the cheap route to the value alone: a global
assignment that restricts to a zero-weight slot is forced to weight 0, so
it runs the same simplex over the support's compatible globals only, and
its prices pass the same exact check over every global assignment. Its
weights are checked too, on integers: they total ncf and load no slot
past the model's weight, so ncf is both attained and optimal.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

import numpy as np

from .errors import PreconditionError, VerificationError
from .model import EmpiricalModel, _mixed_row, is_no_signaling
from .possibilistic import compatible_globals, support_of
from .rational import ONE, ZERO, over_lcm, rat, rat_str
from .scenario import (
    MAX_TABLEAU_CELLS,
    _require_cells,
    incidence_matrix,
    restriction_table,
    section_size,
    slot_offsets,
)

__all__ = [
    "simplex_solve",
    "CfResult",
    "contextual_fraction",
    "certified_fraction",
    "stacked_weights",
]


# tableaux of at least this many cells pivot as one numpy array; below it
# numpy's per-call cost outweighs its whole-row updates, and Python lists win
ARRAY_CELLS = 1 << 15

# the array kernel forms p * x - f * v in int64 while a running bound keeps
# it below this; past it the array holds Python ints
_INT64_LIMIT = 1 << 62


def simplex_solve(incidence, rhs):
    """maximize 1 . x subject to incidence x <= rhs, x >= 0, exactly.

    incidence is a 0/1 array with one column per variable, every column
    nonzero; rhs is a nonnegative rational per row. Columns are laid out
    as the structural variables, then one slack per row. Returns
    (value, x, prices, pivots), where prices are the optimal dual values
    of the rows. Raises ResourceLimitError, before building the tableau,
    past MAX_TABLEAU_CELLS entries.

    A tableau of fewer than ARRAY_CELLS cells is a list of Python int
    lists (_run); a larger one is one numpy array (_run_array), int64
    while its entries provably fit and Python ints after. Both take the
    same Bland pivots, so they return the same values and pivot counts."""
    m, n = incidence.shape
    width = n + m
    cells = (m + 1) * (width + 1)
    _require_cells("simplex tableau", m + 1, width + 1, MAX_TABLEAU_CELLS)
    scale, rhs = over_lcm([b if type(b) is Fraction else rat(b) for b in rhs])
    for i, b in enumerate(rhs):
        if b < 0:
            raise PreconditionError(
                f"right-hand side {rat_str(rat(b, scale))} of row {i} is negative"
            )
    basis = list(range(n, width))
    if cells < ARRAY_CELLS:
        tableau = []
        for i, (row, b) in enumerate(zip(incidence.tolist(), rhs)):
            row += [0] * (m + 1)
            row[n + i] = 1
            row[-1] = b
            tableau.append(row)
        tableau.append([-1] * n + [0] * (m + 1))
        det, pivots = _run(tableau, basis, width)
        obj, values = tableau[-1], [row[-1] for row in tableau[:m]]
    else:
        tableau = np.zeros((m + 1, width + 1), np.int64 if max(rhs) < _INT64_LIMIT else object)
        tableau[:m, :n] = incidence
        tableau[:m, n:width] = np.eye(m, dtype=np.uint8)
        tableau[:m, -1] = rhs
        tableau[m, :n] = -1
        tableau, det, pivots = _run_array(tableau, basis, width)
        obj, values = tableau[m].tolist(), tableau[:m, -1].tolist()
    x = [ZERO] * n
    for bv, b in zip(basis, values):
        if bv < n:
            x[bv] = rat(b, det * scale)
    return rat(obj[-1], det * scale), tuple(x), tuple(rat(y, det) for y in obj[n:width]), pivots


def _leaving_row(rows, heads, rhs, basis):
    """Bland's ratio test over the candidate rows, whose entering-column
    entries heads are positive: the row of least rhs / head, ties to the
    least basic variable, or None without candidates. The ratios are
    cross-multiplied on Python ints, so they are compared exactly."""
    leave = None
    for i, a, b in zip(rows, heads, rhs):
        # b / a against best_b / best_a, cross-multiplied as a > 0
        d = -1 if leave is None else b * best_a - best_b * a
        if d < 0 or (d == 0 and basis[i] < basis[leave]):
            leave, best_b, best_a = i, b, a
    return leave


def _run(tableau, basis, width):
    """Pivot to optimality with Bland's rule on an integer tableau whose
    last row is the objective. Stored entries are the true ones times det,
    the previous pivot (Edmonds; Bareiss, Math. Comp. 22, 1968); det > 0
    keeps every sign. Returns (det, pivot count)."""
    obj = tableau[-1]
    det = 1
    pivots = 0
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            return det, pivots
        rows = [i for i, row in enumerate(tableau[:-1]) if row[enter] > 0]
        leave = _leaving_row(
            rows, [tableau[i][enter] for i in rows], [tableau[i][-1] for i in rows], basis
        )
        if leave is None:
            raise VerificationError("fraction LP is unbounded", details={"column": enter})
        det = _pivot(tableau, tableau[leave], enter, det)
        basis[leave] = enter
        pivots += 1


def _pivot(tableau, prow, e, det):
    """row <- (p * row - f * prow) // det for every row but prow, where
    p = prow[e] and f = row[e]; returns p, the next det."""
    p = prow[e]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for row in tableau:
        if row is prow:
            continue
        f = row[e]
        if p == det:
            # det divides f * v because it divides p * row[j] - f * v
            if f:
                for j, v in nonzero:
                    row[j] -= f * v // det
        else:
            row[:] = [(p * x - f * v) // det for x, v in zip(row, prow)]
    return p


def _run_array(tableau, basis, width):
    """_run on a numpy tableau, one array update per pivot. bound is at
    least every entry's magnitude, so no intermediate p * x - f * v of an
    int64 pivot exceeds p * bound + max|f| * max|prow|; when that passes
    _INT64_LIMIT the true largest entry is read, and only if it still
    passes does the array become Python ints, in the same loop. Returns
    (tableau, det, pivot count)."""
    m = len(basis)
    det = 1
    pivots = 0
    bound = int(np.abs(tableau).max())
    while True:
        neg = tableau[m, :width] < 0
        enter = int(neg.argmax())
        if not neg[enter]:
            return tableau, det, pivots
        col = tableau[:m, enter]
        rows = np.flatnonzero(col > 0)
        leave = _leaving_row(rows.tolist(), col[rows].tolist(), tableau[rows, -1].tolist(), basis)
        if leave is None:
            raise VerificationError("fraction LP is unbounded", details={"column": enter})
        prow = tableau[leave].copy()
        f = tableau[:, enter].copy()
        f[leave] = 0
        p = int(prow[enter])
        if tableau.dtype != object:
            span = int(np.abs(f).max()) * int(np.abs(prow).max())
            if p * bound + span >= _INT64_LIMIT:
                bound = int(np.abs(tableau).max())
                if p * bound + span >= _INT64_LIMIT:
                    tableau, prow, f = (a.astype(object) for a in (tableau, prow, f))
            bound = max(bound, (p * bound + span) // det)
        if p == det:
            # det divides f * v because it divides p * x - f * v; only the
            # rows with f != 0 and the pivot row's nonzero columns change
            rows, cols = np.flatnonzero(f), np.flatnonzero(prow)
            update = np.multiply.outer(f[rows], prow[cols])
            if det != 1:
                update //= det
            tableau[np.ix_(rows, cols)] -= update
        else:
            tableau *= p
            tableau -= np.multiply.outer(f, prow)
            tableau //= det
            tableau[leave] = prow
        det = p
        basis[leave] = enter
        pivots += 1


def stacked_weights(model):
    """Model weights in slot order (context-major, section-minor)."""
    out = []
    for row in model.tables:
        out.extend(row)
    return out


def _require_no_signaling(model):
    ok, wit = is_no_signaling(model)
    if not ok:
        ci, cj, shared, u, a, b = wit
        names = " ".join(model.scenario.measurements[m] for m in shared)
        raise PreconditionError(
            f"model is signaling: contexts {ci} and {cj} disagree on {names} @ "
            f"{','.join(map(str, u))}: {rat_str(a)} vs {rat_str(b)}"
        )


@dataclass(frozen=True)
class CfResult:
    ncf: object
    cf: object
    distribution: tuple  # optimal weight per global assignment, mass = ncf
    noncontextual: object  # EmpiricalModel or None
    strongly_contextual: object  # EmpiricalModel or None
    pivots: int
    prices: tuple  # optimal dual price per slot, certifying ncf


def contextual_fraction(model):
    """Exact contextual fraction with the witnessing decomposition

        model = ncf * noncontextual + cf * strongly_contextual

    where the noncontextual part is the normalized optimal mixture of global
    assignments and the strongly contextual part is the normalized residual.
    Either part is None when its coefficient is zero. The dual prices and
    the decomposition are re-verified exactly before returning."""
    _require_no_signaling(model)
    sc = model.scenario
    mat = incidence_matrix(sc)
    v = stacked_weights(model)
    ncf, dist, prices, pivots = simplex_solve(mat, v)
    cf = ONE - ncf
    _check_prices(model, prices, ncf)
    used = [(gi, w) for gi, w in enumerate(dist) if w]
    table = restriction_table(sc)
    slots_of = {gi: table[:, gi].tolist() for gi, _ in used}
    noncontextual = None
    if ncf > 0:
        rows = []
        for ci in range(sc.n_contexts):
            row = [ZERO] * section_size(sc, ci)
            for gi, w in used:
                row[slots_of[gi][ci]] += w
            rows.append(tuple(x / ncf for x in row))
        noncontextual = EmpiricalModel(sc, tuple(rows))
    strongly_contextual = None
    if cf > 0:
        rows = []
        for ci in range(sc.n_contexts):
            row = list(model.tables[ci])
            for gi, w in used:
                row[slots_of[gi][ci]] -= w
            for si, x in enumerate(row):
                if x < 0:
                    raise VerificationError(
                        "negative residual in decomposition",
                        details={"context": ci, "section": si, "value": x},
                    )
            rows.append(tuple(x / cf for x in row))
        strongly_contextual = EmpiricalModel(sc, tuple(rows))
    _check_decomposition(model, ncf, noncontextual, cf, strongly_contextual)
    return CfResult(
        ncf=ncf,
        cf=cf,
        distribution=dist,
        noncontextual=noncontextual,
        strongly_contextual=strongly_contextual,
        pivots=pivots,
        prices=prices,
    )


def certified_fraction(model):
    """(ncf, cf, prices) of a no-signaling model, where prices is an optimal
    dual price per slot, without the decomposition.

    Only the globals compatible with the model's support (Abramsky and
    Brandenburger, New J. Phys. 13, 113036, 2011) can carry weight, so the
    simplex runs over those columns and the slots they touch; with none,
    ncf is 0 and no LP runs. The full price vector puts 1 on every
    zero-weight slot, which costs nothing and covers every dropped global,
    0 on every other slot the reduced LP did not see, and the reduced LP's
    prices elsewhere. It is checked over every global assignment before
    returning, so a wrong compatible set raises VerificationError, and the
    reduced LP's weights are checked to attain ncf under the model."""
    _require_no_signaling(model)
    kept = compatible_globals(support_of(model))
    mat = incidence_matrix(model.scenario)
    prices = [ZERO if x else ONE for x in chain.from_iterable(model._int_view[1])]
    ncf, weights = ZERO, ()
    if kept:
        v = stacked_weights(model)
        sub = mat[:, kept]
        rows = np.flatnonzero(sub.any(axis=1)).tolist()
        ncf, weights, reduced, _ = simplex_solve(sub[rows], [v[r] for r in rows])
        for r, y in zip(rows, reduced):
            prices[r] = y
    cf = ONE - ncf
    prices = tuple(prices)
    _check_prices(model, prices, ncf)
    _check_weights(model, kept, weights, ncf)
    return ncf, cf, prices


def _check_prices(model, prices, ncf):
    """Dual certificate, checked exactly: ncf lies in [0, 1], prices are
    nonnegative, every global assignment collects at least 1 over its
    slots, and the priced weights total ncf. By weak duality no dominated
    mixture of global assignments is heavier than ncf.

    The prices are integer numerators over the lcm den of their
    denominators. Global g's slots are slot_offsets + restriction_table[:, g],
    one per context, so one numpy sum over the table gives what every global
    collects. No total exceeds n_contexts times the largest numerator; while
    that bound and den are below 2**63 the sum runs in int64, otherwise on
    Python ints. The priced weights are one integer dot product with the
    model's integer view, every row over its one denominator."""
    if ncf < 0 or ncf > 1:
        raise VerificationError("noncontextual fraction outside [0, 1]",
                                details={"ncf": ncf})
    den, scaled = over_lcm(prices)
    if min(scaled) < 0:
        raise VerificationError("a slot price is negative")
    sc = model.scenario
    table = restriction_table(sc)
    dtype = np.int64 if max(den, sc.n_contexts * max(scaled)) < 2**63 else object
    slots = np.array(slot_offsets(sc))[:, None] + table
    collected = np.array(scaled, dtype=dtype)[slots].sum(axis=0)
    short = np.flatnonzero(collected < den)
    if short.size:
        g = int(short[0])
        raise VerificationError(
            "a global assignment collects price below 1",
            details={"global": g, "price": rat(int(collected[g]), den)},
        )
    wden, rows = model._int_view
    cost = rat(sum(map(mul, chain.from_iterable(rows), scaled)), wden * den)
    if cost != ncf:
        raise VerificationError(
            "priced weights differ from the noncontextual fraction",
            details={"cost": cost, "ncf": ncf},
        )


def _check_weights(model, kept, weights, ncf):
    """Primal certificate, checked exactly: weights[i] is global kept[i]'s,
    every weight is nonnegative, the weights total ncf, and no slot carries
    more than the model's weight there. Their mixture is then dominated by
    the model, so the fraction is at least ncf; the prices bound it above.

    The weights are integer numerators over the lcm den of their
    denominators. Global g puts its weight on section restriction_table[c, g]
    of every context c, so the loads are summed over the weighted globals'
    columns alone, and each loaded slot is compared with the model's integer
    view, every row over its one denominator, in slot order."""
    den, scaled = over_lcm(weights)
    neg = next((i for i, w in enumerate(scaled) if w < 0), None)
    if neg is not None:
        raise VerificationError(
            "a global assignment has negative weight",
            details={"global": kept[neg], "weight": weights[neg]},
        )
    total = rat(sum(scaled), den)
    if total != ncf:
        raise VerificationError(
            "weights differ from the noncontextual fraction",
            details={"total": total, "ncf": ncf},
        )
    sc = model.scenario
    table = restriction_table(sc)
    load = {}
    for g, w in zip(kept, scaled):
        if w:
            for slot in enumerate(table[:, g].tolist()):
                load[slot] = load.get(slot, 0) + w
    wden, rows = model._int_view
    for ci, si in sorted(load):
        x, v = load[ci, si], rows[ci][si]
        if x * wden > v * den:
            raise VerificationError(
                "a slot carries more weight than the model",
                details={"slot": slot_offsets(sc)[ci] + si, "load": rat(x, den),
                         "weight": rat(v, wden)},
            )


def _check_decomposition(model, ncf, nc_part, cf, sc_part):
    """ncf * nc_part + cf * sc_part recomposes the model slot by slot; a
    part is None when its coefficient is zero. Each context's row is
    compared on integer numerators over one denominator per side."""
    parts = [(ncf, nc_part), (cf, sc_part)]
    den, rows = model._int_view
    for ci, target in enumerate(rows):
        total, acc = _mixed_row(model.scenario, parts, ci)
        for si, (x, w) in enumerate(zip(acc, target)):
            if x * den != w * total:
                raise VerificationError(
                    "decomposition does not recompose the model",
                    details={"context": ci, "section": si},
                )

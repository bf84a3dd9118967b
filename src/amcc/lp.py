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
The tableau is built once, as one numpy array: int64 when the scaled v
is below _INT64_LIMIT, Python ints (dtype object) otherwise. A small one
pivots as its tolist(), a list of Python int lists updated entry by
entry. One of ARRAY_CELLS cells or more stays the array, updated a block
of rows at a time: int64 while a running bound on its entries shows that
no pivot's products can pass _INT64_LIMIT, Python ints from the first
pivot where the true largest entry no longer shows it. Both kernels
share one ratio test, so they take the same pivots. The optimal prices
are read off the final objective row.

The price check runs on integers: the prices over the lcm of their
denominators, the weights from the model's integer view (every row's
numerators over one denominator). Global g's slots are slot_offsets +
restriction_table[:, g], one per context, so what every global collects
is one numpy sum over the restriction table, in int64 whenever the
totals are bounded below 2**63 and on Python ints otherwise.

`contextual_fraction` and `certified_fraction` run one route: the LP over
a set of global assignments and the slots they touch, then two exact
certificates over every global assignment. The prices bound ncf above;
the weights, checked on integers, total ncf and load no slot past the
model's weight, so ncf is also attained. `contextual_fraction` passes
every global, so its LP is the full one, and reads its decomposition
straight off the checked slot loads. `certified_fraction`, the cheap
route to the value alone, passes only the support's compatible globals:
a global that restricts to a zero-weight slot is forced to weight 0.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

import numpy as np

from .errors import PreconditionError, VerificationError
from .model import EmpiricalModel, is_no_signaling
from .possibilistic import compatible_globals, support_of
from .rational import ONE, ZERO, over_lcm, rat, rat_str
from .scenario import (
    MAX_TABLEAU_CELLS,
    _require_cells,
    global_size,
    incidence_matrix,
    restriction_table,
    slot_count,
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

    The tableau is one numpy array, int64 when the scaled rhs is below
    _INT64_LIMIT and Python ints otherwise. Under ARRAY_CELLS cells it
    pivots as a list of Python int lists (_run); from there on as the
    array (_run_array), int64 while its entries provably fit and Python
    ints after. Both take the same Bland pivots, so they return the same
    values and pivot counts."""
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
    tableau = np.zeros((m + 1, width + 1), np.int64 if max(rhs) < _INT64_LIMIT else object)
    tableau[:m, :n] = incidence
    tableau[:m, n:width] = np.eye(m, dtype=np.uint8)
    tableau[:m, -1] = rhs
    tableau[m, :n] = -1
    if cells < ARRAY_CELLS:
        tableau = tableau.tolist()
        det, pivots = _run(tableau, basis, width)
    else:
        tableau, det, pivots = _run_array(tableau, basis, width)
    obj, values = list(map(int, tableau[m])), [int(row[-1]) for row in tableau[:m]]
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
    Either part is None when its coefficient is zero. The LP runs over every
    global assignment; its prices and weights are checked exactly before
    returning, and both parts are read off the checked slot loads."""
    _require_no_signaling(model)
    sc = model.scenario
    ncf, dist, prices, pivots, (den, loads) = _certified_lp(model, range(global_size(sc)))
    cf = ONE - ncf
    noncontextual = strongly_contextual = None
    if ncf > 0:
        p, q = ncf.as_integer_ratio()
        noncontextual = _model_of(sc, [Fraction(x * q, den * p) for x in loads])
    if cf > 0:
        # the weight check has shown x / den <= v / wden slot by slot
        wden, rows = model._int_view
        p, q = cf.as_integer_ratio()
        residual = zip(chain.from_iterable(rows), loads)
        strongly_contextual = _model_of(
            sc, [Fraction((v * den - x * wden) * q, wden * den * p) for v, x in residual]
        )
    return CfResult(
        ncf=ncf,
        cf=cf,
        distribution=dist,
        noncontextual=noncontextual,
        strongly_contextual=strongly_contextual,
        pivots=pivots,
        prices=prices,
    )


def _model_of(scenario, weights):
    """The EmpiricalModel whose weights in slot order are weights."""
    ends = slot_offsets(scenario) + (len(weights),)
    return EmpiricalModel(scenario, tuple(tuple(weights[a:b]) for a, b in zip(ends, ends[1:])))


def certified_fraction(model):
    """(ncf, cf, prices) of a no-signaling model, where prices is an optimal
    dual price per slot, without the decomposition.

    Only the globals compatible with the model's support (Abramsky and
    Brandenburger, New J. Phys. 13, 113036, 2011) can carry weight, so the
    LP runs over those columns and the slots they touch; with none, ncf is
    0 and no LP runs. Its prices and weights pass the same exact checks
    as contextual_fraction's, over every global assignment, so a wrong
    compatible set raises VerificationError."""
    _require_no_signaling(model)
    ncf, _, prices, _, _ = _certified_lp(model, compatible_globals(support_of(model)))
    return ncf, ONE - ncf, prices


def _certified_lp(model, kept):
    """(ncf, weights, prices, pivots, loads) of the LP over the global
    assignments in kept and the slots they touch, after both certificates
    pass: weights[i] is global kept[i]'s, prices one per slot and loads
    _check_weights's (den, per-slot numerators).

    The full price vector puts 1 on every zero-weight slot, which costs
    nothing and covers every global that touches one, 0 on every other
    slot the LP did not see, and the LP's prices elsewhere. With every
    global in kept every slot is touched, so the LP, its pivots and its
    prices are the full one's."""
    prices = [ZERO if x else ONE for x in chain.from_iterable(model._int_view[1])]
    ncf, weights, pivots = ZERO, (), 0
    if kept:
        v = stacked_weights(model)
        sub = incidence_matrix(model.scenario)[:, kept]
        rows = np.flatnonzero(sub.any(axis=1)).tolist()
        ncf, weights, reduced, pivots = simplex_solve(sub[rows], [v[r] for r in rows])
        for r, y in zip(rows, reduced):
            prices[r] = y
    prices = tuple(prices)
    _check_prices(model, prices, ncf)
    loads = _check_weights(model, kept, weights, ncf)
    return ncf, weights, prices, pivots, loads


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
    denominators. Global g puts its weight on slot slot_offsets[c] +
    restriction_table[c, g] of every context c, so the loads are summed
    over the weighted globals' columns alone, and each loaded slot is
    compared with the model's integer view, every row over its one
    denominator, in slot order. Returns (den, loads), every slot's load
    over den."""
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
    offsets = np.array(slot_offsets(sc))
    table = restriction_table(sc)
    loads = [0] * slot_count(sc)
    loaded = set()
    for g, w in zip(kept, scaled):
        if w:
            slots = (offsets + table[:, g]).tolist()
            loaded.update(slots)
            for s in slots:
                loads[s] += w
    wden, rows = model._int_view
    v = list(chain.from_iterable(rows))
    for s in sorted(loaded):
        if loads[s] * wden > v[s] * den:
            raise VerificationError(
                "a slot carries more weight than the model",
                details={"slot": s, "load": rat(loads[s], den), "weight": rat(v[s], wden)},
            )
    return den, loads

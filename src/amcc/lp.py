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
A tableau under ARRAY_CELLS cells is built straight as a list of Python
int lists, copies of cached immutable [incidence | identity] rows with the
scaled v appended, and updated entry by entry. One of ARRAY_CELLS cells
or more is one numpy array, updated a block of rows at a time: int64
while a running bound on its entries shows that no pivot's products can
pass _INT64_LIMIT, Python ints from the first pivot where the true
largest entry no longer shows it (or from the start, when the scaled v
passes it). Both kernels share one ratio test, so they take the same
pivots, and both touch only the changed rows and columns when a pivot
equals the previous one. The array kernel's pivot step, _pivot_array, is
also the step of affine's Gauss-Jordan elimination. The optimal prices
are read off the final objective row; only the nonzero x and prices
become new Fractions.

The price check runs on integers: the prices over the lcm of their
denominators, the weights as the model holds them, its `rows` of
numerators over one `den`. Global g's slots are slot_offsets +
restriction_table[:, g], one per context, so what every global collects
is one numpy sum over the restriction table, in int64 whenever the
totals are bounded below 2**63 and on Python ints otherwise.

`contextual_fraction` and `certified_fraction` run one route: the LP over
a set of global assignments and the slots they touch, then two exact
certificates over every global assignment. The prices bound ncf above;
the weights, checked on integers, total ncf and load no slot past the
model's weight, so ncf is also attained. `contextual_fraction` passes
every global; each slot is then some global's, so the same route builds
the full LP over the scenario's incidence matrix, in its row order, and
the decomposition is read off the checked integer slot loads, each part
validated once on integers. `certified_fraction`, the
cheap route to the value alone, passes only the support's compatible
globals: a global that restricts to a zero-weight slot is forced to
weight 0.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, islice
from operator import mul

import numpy as np

from .errors import PreconditionError, VerificationError
from .model import _model_from_ints, is_no_signaling
from .possibilistic import compatible_globals, support_of
from .rational import ONE, ZERO, fractions_over, over_lcm, rat, rat_str
from .scenario import (
    MAX_TABLEAU_CELLS,
    _require,
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
    of the rows; an empty program returns (0, (), (), 0). Raises
    ResourceLimitError, before building the tableau, past
    MAX_TABLEAU_CELLS entries.

    Under ARRAY_CELLS cells the tableau is built straight as a list of
    Python int lists, each a copy of the cached immutable row of incidence
    and slack (_slack_rows) with the scaled rhs appended, and pivoted entry
    by entry (_run). From there on it is one numpy array (_run_array),
    int64 when the scaled rhs is below _INT64_LIMIT and while its entries
    provably fit, Python ints after. Both take the same Bland pivots, so
    they return the same values and pivot counts. Only the nonzero x and
    prices become new Fractions, one per distinct value."""
    m, n = incidence.shape
    width = n + m
    cells = _require(
        (m + 1) * (width + 1),
        f"cells in the simplex tableau of {m + 1} x {width + 1}",
        MAX_TABLEAU_CELLS,
    )
    scale, rhs = over_lcm([b if type(b) is Fraction else rat(b) for b in rhs])
    if min(rhs, default=0) < 0:
        i, b = next((i, b) for i, b in enumerate(rhs) if b < 0)
        raise PreconditionError(f"right-hand side {rat_str(rat(b, scale))} of row {i} is negative")
    basis = list(range(n, width))
    if cells < ARRAY_CELLS:
        rows = _slack_rows((m, n), np.ascontiguousarray(incidence, np.uint8).tobytes())
        tableau = [[*row, b] for row, b in zip(rows, rhs)]
        tableau.append([-1] * n + [0] * (m + 1))
        det, pivots = _run(tableau, basis)
        values, obj = [row[-1] for row in tableau[:m]], tableau[m]
    else:
        dtype = np.int64 if max(rhs, default=0) < _INT64_LIMIT else object
        tableau = np.zeros((m + 1, width + 1), dtype)
        tableau[:m, :n] = incidence
        tableau[:m, n:width] = np.eye(m, dtype=np.uint8)
        tableau[:m, -1] = rhs
        tableau[m, :n] = -1
        tableau, det, pivots = _run_array(tableau, basis, width)
        values, obj = tableau[:m, -1].tolist(), tableau[m].tolist()
    x = [0] * n
    for bv, b in zip(basis, values):
        if bv < n:
            x[bv] = b
    value = rat(obj[-1], det * scale)
    return value, fractions_over(x, det * scale), fractions_over(obj[n:width], det), pivots


@lru_cache(maxsize=16)
def _slack_rows(shape, data):
    """The rows [incidence | identity] of a list tableau, without the rhs,
    as a tuple of int tuples, for the 0/1 incidence of this shape whose
    uint8 bytes are data. Cached, and immutable: each solve copies the
    rows it pivots."""
    incidence = np.frombuffer(data, np.uint8).reshape(shape)
    return tuple(map(tuple, np.hstack((incidence, np.eye(shape[0], dtype=np.uint8))).tolist()))


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


def _run(tableau, basis):
    """Pivot to optimality with Bland's rule on an integer tableau whose
    last row is the objective. Stored entries are the true ones times det,
    the previous pivot (Edmonds; Bareiss, Math. Comp. 22, 1968); det > 0
    keeps every sign. The entering column is read once per pivot, for the
    ratio test and the update. Returns (det, pivot count)."""
    obj = tableau[-1]
    m = len(tableau) - 1
    det = 1
    pivots = 0
    while True:
        # the last entry, the objective value times det, is never negative
        for enter, c in enumerate(obj):
            if c < 0:
                break
        else:
            return det, pivots
        col = [row[enter] for row in tableau]
        rows = [i for i in compress(range(m), col) if col[i] > 0]
        leave = _leaving_row(rows, [col[i] for i in rows], [tableau[i][-1] for i in rows], basis)
        if leave is None:
            raise VerificationError("fraction LP is unbounded", details={"column": enter})
        det = _pivot(tableau, leave, col, det)
        basis[leave] = enter
        pivots += 1


def _pivot(tableau, leave, col, det):
    """row <- (p * row - f * prow) // det for every row but prow =
    tableau[leave], where col is the entering column, p = col[leave] and
    f = col[row]; returns p, the next det, and leaves col[leave] zeroed.
    When p == det only the rows with f != 0 and prow's nonzero columns
    change (both found by C-level compress), and when det is 1 as well
    there is nothing to divide, nor, where f is 1 or -1, to multiply."""
    prow = tableau[leave]
    p = col[leave]
    col[leave] = 0
    if p != det:
        for row, f in zip(tableau, col):
            if row is not prow:
                row[:] = [(p * x - f * v) // det for x, v in zip(row, prow)]
        return p
    nonzero = [(j, prow[j]) for j in compress(range(len(prow)), prow)]
    rows = zip(compress(tableau, col), compress(col, col))
    if det == 1:
        for row, f in rows:
            # f is 1 or -1 on nearly every row of a 0/1 program: no product
            if f == 1:
                for j, v in nonzero:
                    row[j] -= v
            elif f == -1:
                for j, v in nonzero:
                    row[j] += v
            else:
                for j, v in nonzero:
                    row[j] -= f * v
    else:
        # det divides f * v because it divides p * row[j] - f * v
        for row, f in rows:
            for j, v in nonzero:
                row[j] -= f * v // det
    return p


def _run_array(tableau, basis, width):
    """_run on a numpy tableau, one _pivot_array per pivot. Returns
    (tableau, det, pivot count): the tableau may have become an array of
    Python ints."""
    m = len(basis)
    det = 1
    pivots = 0
    bound = int(np.abs(tableau).max())
    while True:
        negative = (tableau[m, :width] < 0).nonzero()[0]
        if not negative.size:
            return tableau, det, pivots
        enter = int(negative[0])
        col = tableau[:m, enter]
        rows = (col > 0).nonzero()[0]
        leave = _leaving_row(rows.tolist(), col[rows].tolist(), tableau[rows, -1].tolist(), basis)
        if leave is None:
            raise VerificationError("fraction LP is unbounded", details={"column": enter})
        tableau, det, bound = _pivot_array(tableau, leave, enter, det, bound)
        basis[leave] = enter
        pivots += 1


def _pivot_array(tableau, leave, enter, det, bound):
    """One integer-preserving pivot of a numpy tableau on the positive entry
    p = tableau[leave, enter]: every row but prow = tableau[leave] becomes
    (p * row - f * prow) // det, where f is the row's entry in column enter
    and det the previous pivot (Edmonds, J. Res. NBS 71B, 1967; Bareiss,
    Math. Comp. 22, 1968). Stored entries are then the true ones times p,
    every division is exact, and det > 0 keeps every sign. Returns
    (tableau, p, bound).

    bound is at least every entry's magnitude, so no intermediate
    p * x - f * v of an int64 pivot exceeds p * bound + max|f| * max|prow|;
    when that passes _INT64_LIMIT the true largest entry is read, and only
    if it still passes does the array become Python ints: the returned
    tableau is then a new array. Only the rows with f != 0 and prow's
    nonzero columns take f * v, through one flat index; when p == det no
    other entry changes, and otherwise every entry is scaled by p / det."""
    f = tableau[:, enter].copy()
    prow = tableau[leave]
    f[leave] = 0
    p = int(prow[enter])
    if tableau.dtype != object:
        span = int(np.abs(f).max()) * int(np.abs(prow).max())
        if p * bound + span >= _INT64_LIMIT:
            bound = int(np.abs(tableau).max())
            if p * bound + span >= _INT64_LIMIT:
                tableau, f = tableau.astype(object), f.astype(object)
                prow = tableau[leave]
        bound = max(bound, (p * bound + span) // det)
    rows, cols = f.nonzero()[0], prow.nonzero()[0]
    update = f[rows, None] * prow[cols]
    if p == det:
        if det != 1:
            # det divides f * v because it divides p * x - f * v
            update //= det
    else:
        prow = prow.copy()
        tableau *= p
    flat = tableau.reshape(-1)  # a view: the tableau is C-contiguous
    flat[(rows * tableau.shape[1])[:, None] + cols] -= update
    if p != det:
        # where f * v is 0, det divides p * x
        tableau //= det
        tableau[leave] = prow
    return tableau, p, bound


def stacked_weights(model):
    """Model weights in slot order (context-major, section-minor)."""
    return list(fractions_over(list(chain.from_iterable(model.rows)), model.den))


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
    # every context's loads total mass = ncf * den, the weights' numerators
    mass = den * ncf.numerator // ncf.denominator
    if ncf > 0:
        noncontextual = _model_of(sc, mass, loads)
    if cf > 0:
        # the weight check has shown x / den <= v / wden slot by slot
        wden = model.den
        residual = zip(chain.from_iterable(model.rows), loads)
        strongly_contextual = _model_of(
            sc, wden * (den - mass), [v * den - x * wden for v, x in residual]
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


def _model_of(scenario, den, nums):
    """The EmpiricalModel whose weights in slot order are nums over den."""
    it = iter(nums)
    return _model_from_ints(scenario, den, [list(islice(it, k)) for k in scenario.section_sizes])


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
    global in kept every slot is touched, so the LP is the full incidence
    LP, rows in slot order, and its pivots and prices are the full one's."""
    prices = [ZERO if x else ONE for x in chain.from_iterable(model.rows)]
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


@lru_cache(maxsize=64)
def _global_slots(scenario):
    """Read-only int32 array (n_contexts, n_globals) of the slot global g
    occupies in context c: slot_offsets[c] + restriction_table[c, g]."""
    slots = np.array(slot_offsets(scenario), np.int32)[:, None] + restriction_table(scenario)
    slots.setflags(write=False)
    return slots


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
    model's numerators, every row over its one denominator den."""
    if ncf < 0 or ncf > 1:
        raise VerificationError("noncontextual fraction outside [0, 1]",
                                details={"ncf": ncf})
    den, scaled = over_lcm(prices)
    if min(scaled) < 0:
        raise VerificationError("a slot price is negative")
    sc = model.scenario
    dtype = np.int64 if max(den, sc.n_contexts * max(scaled)) < 2**63 else object
    collected = np.array(scaled, dtype=dtype)[_global_slots(sc)].sum(axis=0)
    if collected.min() < den:
        g = int((collected < den).argmax())
        raise VerificationError(
            "a global assignment collects price below 1",
            details={"global": g, "price": rat(int(collected[g]), den)},
        )
    cost = rat(sum(map(mul, chain.from_iterable(model.rows), scaled)), model.den * den)
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
    compared with the model's numerators, every row over its one
    denominator, in slot order. Returns (den, loads), every slot's load
    over den."""
    den, scaled = over_lcm(weights)
    if min(scaled, default=0) < 0:
        neg = next(i for i, w in enumerate(scaled) if w < 0)
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
    weighted = list(compress(range(len(scaled)), scaled))
    slots = _global_slots(sc)[:, [kept[i] for i in weighted]].T.tolist()
    loads = [0] * slot_count(sc)
    loaded = set()
    for i, row in zip(weighted, slots):
        w = scaled[i]
        loaded.update(row)
        for s in row:
            loads[s] += w
    wden = model.den
    v = list(chain.from_iterable(model.rows))
    for s in sorted(loaded):
        if loads[s] * wden > v[s] * den:
            raise VerificationError(
                "a slot carries more weight than the model",
                details={"slot": s, "load": rat(loads[s], den), "weight": rat(v[s], wden)},
            )
    return den, loads

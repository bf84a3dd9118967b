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
zero slots), so an anti-cycling rule is not optional. All arithmetic is
exact. The optimal prices are read off the final objective row and every
fraction is returned only after they certify optimality exactly, and after
the decomposition recomposes the model.
"""

from dataclasses import dataclass
from math import lcm

import numpy as np

from .errors import PreconditionError, VerificationError
from .model import EmpiricalModel, is_no_signaling
from .rational import ONE, ZERO, rat, rat_str
from .scenario import (
    global_outcomes,
    incidence_matrix,
    restrict,
    section_index,
    section_size,
)

__all__ = [
    "simplex_solve",
    "CfResult",
    "contextual_fraction",
    "stacked_weights",
]


def simplex_solve(incidence, rhs):
    """maximize 1 . x subject to incidence x <= rhs, x >= 0, exactly.

    incidence is a 0/1 array with one column per variable, every column
    nonzero; rhs is a nonnegative rational per row. Columns are laid out
    as the structural variables, then one slack per row. Returns
    (value, x, prices, pivots), where prices are the optimal dual values
    of the rows."""
    m, n = incidence.shape
    width = n + m
    unit = (ZERO, ONE)
    tableau = []
    for i, (coeffs, b) in enumerate(zip(incidence.tolist(), rhs)):
        b = rat(b)
        if b < 0:
            raise PreconditionError(f"right-hand side {rat_str(b)} of row {i} is negative")
        row = [unit[a] for a in coeffs] + [ZERO] * (m + 1)
        row[n + i] = ONE
        row[-1] = b
        tableau.append(row)
    basis = list(range(n, width))
    obj = [-ONE] * n + [ZERO] * (m + 1)
    pivots = _run(tableau, obj, basis, width)
    x = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[i][-1]
    return obj[-1], tuple(x), tuple(obj[n:width]), pivots


def _run(tableau, obj, basis, width):
    """Pivot to optimality with Bland's rule. Returns the pivot count."""
    m = len(tableau)
    pivots = 0
    while True:
        enter = None
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            return pivots
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise VerificationError("fraction LP is unbounded", details={"column": enter})
        _pivot(tableau, obj, basis, leave, enter)
        pivots += 1


def _pivot(tableau, obj, basis, r, e):
    prow = tableau[r]
    p = prow[e]
    if p != ONE:
        prow = [x / p for x in prow]
        tableau[r] = prow
    for row in tableau:
        if row is prow:
            continue
        f = row[e]
        if f:
            for j, pv in enumerate(prow):
                if pv:
                    row[j] -= f * pv
    f = obj[e]
    if f:
        for j, pv in enumerate(prow):
            if pv:
                obj[j] -= f * pv
    basis[r] = e


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
    if ncf < 0 or cf < 0:
        raise VerificationError("noncontextual fraction outside [0, 1]",
                                details={"ncf": ncf})
    _check_prices(mat, v, prices, ncf)
    used = [(gi, w) for gi, w in enumerate(dist) if w]
    slots_of = {
        gi: [
            section_index(sc, ci, restrict(sc, global_outcomes(sc, gi), ctx))
            for ci, ctx in enumerate(sc.cover)
        ]
        for gi, _ in used
    }
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


def _check_prices(incidence, weights, prices, ncf):
    """Dual certificate, checked exactly from the incidence matrix: prices
    are nonnegative, every global assignment collects at least 1 over its
    slots, and the priced weights total ncf. By weak duality no dominated
    mixture of global assignments is heavier than ncf."""
    if any(y < 0 for y in prices):
        raise VerificationError("a slot price is negative")
    # sums over a common denominator: at (4,2,2) 0.3 ms, against 10 ms
    # for the same sums of Fractions
    den = lcm(*(y.denominator for y in prices))
    scaled = np.array([y.numerator * (den // y.denominator) for y in prices], dtype=object)
    # slots of global g: the rows of incidence column g, one per context
    slots = np.nonzero(incidence.T)[1].reshape(incidence.shape[1], -1)
    collected = scaled[slots].sum(axis=1)
    for g, total in enumerate(collected):
        if total < den:
            raise VerificationError(
                "a global assignment collects price below 1",
                details={"global": g, "price": rat(total, den)},
            )
    cost = sum((w * y for w, y in zip(weights, prices)), ZERO)
    if cost != ncf:
        raise VerificationError(
            "priced weights differ from the noncontextual fraction",
            details={"cost": cost, "ncf": ncf},
        )


def _check_decomposition(model, ncf, nc_part, cf, sc_part):
    for ci, row in enumerate(model.tables):
        for si, w in enumerate(row):
            acc = ZERO
            if nc_part is not None:
                acc += ncf * nc_part.tables[ci][si]
            if sc_part is not None:
                acc += cf * sc_part.tables[ci][si]
            if acc != w:
                raise VerificationError(
                    "decomposition does not recompose the model",
                    details={"context": ci, "section": si},
                )

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
zero slots), so an anti-cycling rule is not optional. It computes on
integers alone: its rhs is the model's numerators over their gcd with the
model's `den`, and its results are numerators over its last pivot. The
tableau is one numpy array; each pivot divides exactly by the previous one
(Edmonds' integer-preserving pivoting) and the ratio test cross-multiplies
on Python ints, so the pivots are a Fraction tableau's. The array is int64
while a running bound on its entries shows that no pivot's products can
pass _INT64_LIMIT, and Python ints from the first pivot where the true
largest entry no longer shows it (or from the start, when the rhs passes
it). A pivot equal to the previous one, as nearly every pivot of a 0/1
program is, updates only the block of rows and columns it changes. The
pivot step, _pivot_array, is also the step of affine's Gauss-Jordan
elimination. The loop counts the cells its pivots update and stops past
MAX_SIMPLEX_WORK.

Every certified LP runs on one route, _certified_lps: for each model in
turn it refuses a signaling model, builds the LP over a set of global
assignments and the slots they touch, hands the LPs that share a matrix
to _run_lockstep together, and checks two exact certificates over every
global assignment, on the LP's numerators and the model's `rows`. In
lockstep the tableaux share one int64 stack of lanes, at most
LOCKSTEP_CELLS cells, and each numpy step takes one Bland pivot in every
lane; a lane takes the step only when its pivot is 1 at det 1 and its
running bound passes _pivot_array's int64 test, and on any other step its
LP is handed to _run_array, which resumes from its tableau, basis, pivot
count and work. So every LP pivots exactly as it does alone, and a lone
LP, or one too large to share the stack, runs on simplex_solve. The
prices bound ncf above: global g's slots, one per context, are column g
of scenario's slot table `_global_slots`, so what every global collects
is one numpy sum over it, in int64 whenever the totals are bounded below
2**63. The weights total ncf and load no slot past the model's weight, so
ncf is also attained. `contextual_fraction` keeps every global: each slot
is then some global's, so the LP is the scenario's cached incidence
matrix, in its row order, and the decomposition is read off the checked
integer slot loads. verify-paper's pools take the same full LPs, many at
once. `certified_fraction`, the cheap route to the value alone, keeps
only the support's compatible globals: a global that restricts to a
zero-weight slot is forced to weight 0. Fractions are built only where
the two public functions hand them out.
"""

from dataclasses import dataclass
from itertools import chain, compress, islice
from math import gcd, isqrt
from mmap import mmap
from operator import index, mul

import numpy as np

from .errors import PreconditionError, ResourceLimitError, VerificationError
from .model import _model_from_ints, _require_no_signaling
from .possibilistic import compatible_globals, support_of
from .rational import ONE, fractions_over, rat
from .scenario import (
    MAX_SIMPLEX_WORK,
    MAX_TABLEAU_CELLS,
    _global_slots,
    _require,
    global_size,
    incidence_matrix,
    slot_count,
)

__all__ = [
    "simplex_solve",
    "CfResult",
    "contextual_fraction",
    "certified_fraction",
]


# an int64 pivot forms p * x - f * v only while a running bound on the
# entries keeps it below this; past it the tableau holds Python ints
_INT64_LIMIT = 1 << 62

# the lockstep's int64 stack holds at most this many cells, 1 MiB: its
# lanes are this over one tableau's cells, so a (2,2,2) group runs 233
# LPs at once, a (3,2,2) group 15, and a (4,2,2) tableau (131,841 cells)
# never shares the stack
LOCKSTEP_CELLS = 1 << 17

# what one LP of a pool may raise in the loop that the pool stands for
_REFUSALS = (PreconditionError, ResourceLimitError, VerificationError)

# the simplex's work budget weighs a cell update on Python ints as this
# many on int64: a Python-int pivot took about 10x an int64 one at (5,2,2)
_OBJECT_CELL_WORK = 10


def simplex_solve(incidence, rhs):
    """maximize 1 . x subject to incidence x <= rhs, x >= 0, exactly.

    incidence is a 0/1 array with one column per variable, every column
    nonzero; rhs is a nonnegative integer per row, read by operator.index,
    so a Fraction or a float raises TypeError. Columns are laid out as the
    structural variables, then one slack per row. Returns (value, x,
    prices, det, pivots): value, x and the rows' optimal dual prices are
    integer numerators over det, the last pivot, as every stored tableau
    entry is the true one times det; an empty program returns (0, (),
    (0,) * rows, 1, 0). Raises ResourceLimitError, before building the
    tableau, past MAX_TABLEAU_CELLS entries, and during the solve once its
    pivots have updated more than MAX_SIMPLEX_WORK cells (_run_array).

    The tableau [incidence | identity | rhs] over the objective row is one
    numpy array, int64 when rhs is below _INT64_LIMIT, Python ints
    otherwise; _run_array pivots it with Bland's rule, and moves it to
    Python ints once its entries no longer provably fit."""
    tableau, basis = _slack_tableau(incidence, rhs)
    tableau, det, pivots = _run_array(tableau, basis)
    return _solution(tableau, basis, incidence.shape[1], det, pivots)


def _slack_tableau(incidence, rhs):
    """simplex_solve's starting tableau and its slack basis, after the
    size guard and the rhs checks."""
    m, n = incidence.shape
    width = n + m
    _require(
        (m + 1) * (width + 1),
        f"cells in the simplex tableau of {m + 1} x {width + 1}",
        MAX_TABLEAU_CELLS,
    )
    rhs = list(map(index, rhs))
    if min(rhs, default=0) < 0:
        i, b = next((i, b) for i, b in enumerate(rhs) if b < 0)
        raise PreconditionError(f"right-hand side {b} of row {i} is negative")
    dtype = np.int64 if max(rhs, default=0) < _INT64_LIMIT else object
    tableau = np.zeros((m + 1, width + 1), dtype)
    tableau[:m, :n] = incidence
    tableau[:m, n:width] = np.eye(m, dtype=np.uint8)
    tableau[:m, -1] = rhs
    tableau[m, :n] = -1
    return tableau, list(range(n, width))


def _solution(tableau, basis, n, det, pivots):
    """simplex_solve's result off an optimal tableau of n structural
    columns."""
    m = len(basis)
    values, obj = tableau[:m, -1].tolist(), tableau[m].tolist()
    x = [0] * n
    for bv, b in zip(basis, values):
        if bv < n:
            x[bv] = b
    return obj[-1], tuple(x), tuple(obj[n:n + m]), det, pivots


def _leaving_row(rows, heads, rhs, basis):
    """Bland's ratio test over the rows whose entering-column entries heads
    are positive: the row of least rhs / head, ties to the least basic
    variable, or None without such a row; rows with a head of 0 or less
    are passed over. The ratios are cross-multiplied on Python ints, so
    they are compared exactly."""
    leave = None
    for i, a, b in zip(rows, heads, rhs):
        if a > 0:
            # b / a against best_b / best_a, cross-multiplied as a > 0
            d = -1 if leave is None else b * best_a - best_b * a
            if d < 0 or (d == 0 and basis[i] < basis[leave]):
                leave, best_b, best_a = i, b, a
    return leave


def _run_array(tableau, basis, pivots=0, work=0):
    """Pivot to optimality with Bland's rule on an integer tableau whose
    last row is the objective, one _pivot_array per pivot. Stored entries
    are the true ones times det, the previous pivot (Edmonds; Bareiss,
    Math. Comp. 22, 1968); det > 0 keeps every sign. The ratio test reads
    the entering column's nonzero rows. Returns (tableau, det, pivot
    count): the tableau may have become an array of Python ints. A solve
    that _run_lockstep began resumes here at det 1, from the pivots and
    the work it has done.

    The work is the cells the pivots update, as _pivot_array counts them:
    the block of the rows with a nonzero entering entry (the pivot row
    aside) and the pivot row's nonzero columns, or the whole tableau on a
    pivot unequal to the one before, a cell on Python ints weighing
    _OBJECT_CELL_WORK. Past MAX_SIMPLEX_WORK it raises ResourceLimitError,
    which names the work and the pivots done."""
    m = len(basis)
    det = 1
    bound = int(np.abs(tableau).max())
    while True:
        obj = tableau[m]
        # the last entry, the objective value times det, is never negative,
        # so this is the least column of negative reduced cost, if any
        enter = int((obj < 0).argmax())
        if obj[enter] >= 0:
            return tableau, det, pivots
        col = tableau[:, enter]
        rows = col.nonzero()[0]
        heads, rhs = col.take(rows).tolist(), tableau[:, -1].take(rows).tolist()
        leave = _leaving_row(rows.tolist(), heads, rhs, basis)
        if leave is None:
            raise VerificationError("fraction LP is unbounded", details={"column": enter})
        tableau, p, bound, cells = _pivot_array(tableau, leave, enter, det, bound)
        work += cells * (_OBJECT_CELL_WORK if tableau.dtype == object else 1)
        det = p
        basis[leave] = enter
        pivots += 1
        if work > MAX_SIMPLEX_WORK:
            _require(work, f"cells updated by {pivots} simplex pivots", MAX_SIMPLEX_WORK)


def _pivot_array(tableau, leave, enter, det, bound):
    """One integer-preserving pivot of a numpy tableau on the positive entry
    p = tableau[leave, enter]: every row but prow = tableau[leave] becomes
    (p * row - f * prow) // det, where f is the row's entry in column enter
    and det the previous pivot (Edmonds, J. Res. NBS 71B, 1967; Bareiss,
    Math. Comp. 22, 1968). Stored entries are then the true ones times p,
    every division is exact, and det > 0 keeps every sign. Returns
    (tableau, p, bound, cells), cells the number of entries the pivot
    updated: the block below, or the whole tableau when p != det.

    bound is at least every entry's magnitude, so no intermediate
    p * x - f * v of an int64 pivot exceeds p * bound + span, where span =
    max|f| * max|prow| is at most bound * bound. While p * bound +
    bound * bound is below _INT64_LIMIT the products f * v are formed
    straight away and span is read off them; otherwise span is read off f
    and prow first, and when p * bound + span passes the limit the true
    largest entry is read, and only if it still passes does the array
    become Python ints: the returned tableau is then a new array. Either
    way the bound grows to (p * bound + span) // det. Only the rows with
    f != 0 and prow's nonzero columns take f * v, through one flat index;
    when p == det no other entry changes, and otherwise every entry is
    scaled by p / det."""
    f = tableau[:, enter].copy()
    prow = tableau[leave]
    f[leave] = 0
    p = int(prow[enter])
    rows, cols = f.nonzero()[0], prow.nonzero()[0]
    span = None
    if tableau.dtype != object and p * bound + bound * bound >= _INT64_LIMIT:
        span = int(np.abs(f).max()) * int(np.abs(prow).max())
        if p * bound + span >= _INT64_LIMIT:
            bound = int(np.abs(tableau).max())
            if p * bound + span >= _INT64_LIMIT:
                tableau, f = tableau.astype(object), f.astype(object)
                prow = tableau[leave]
    update = np.multiply.outer(f.take(rows), prow.take(cols))
    if tableau.dtype != object:
        if span is None:
            # the largest |f * v| is max|f| * max|prow|, and 0 without rows
            span = int(np.abs(update).max(initial=0))
        bound = max(bound, (p * bound + span) // det)
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
        return tableau, p, bound, tableau.size
    return tableau, p, bound, update.size


def _run_lockstep(incidence, rhss):
    """[simplex_solve(incidence, rhs) for rhs in rhss], each entry that
    call's result or the refusal it raises, with every LP pivoting as it
    does alone. rhss are lists of ints.

    The LPs share one int64 stack of lanes, LOCKSTEP_CELLS // the cells of
    one tableau, and each step pivots every lane at once by Bland's rule:
    the least column of negative reduced cost enters, the leaving row is
    _leaving_row's (a float proposal, then int64 cross-multiplication
    against it: a row below it, ties to the least basic variable), and
    the unit update row - f * prow runs on the rows with f != 0. A lane
    takes the step only when the pivot is 1 at det 1 and its running
    bound passes _pivot_array's int64 test, so the update is exact and has
    nothing to divide, and when the step keeps its work within
    MAX_SIMPLEX_WORK; otherwise the LP goes on alone in _run_array from
    its tableau, basis, pivots and work, which also raises what it would
    raise alone. When an LP finishes, its lane takes the next one. An LP
    whose rhs is negative or passes _INT64_LIMIT, and every LP when one
    lane or one LP is all there is, runs on simplex_solve."""
    m, n = incidence.shape
    out = [None] * len(rhss)
    lanes = LOCKSTEP_CELLS // ((m + 1) * (n + m + 1))
    queue = []
    # a lone lane or a lone LP runs alone, before any rhs is scanned
    if lanes > 1 and len(rhss) > 1:
        queue = [i for i, rhs in enumerate(rhss) if 0 <= min(rhs) and max(rhs) < _INT64_LIMIT]
    if len(queue) < 2:
        queue = []
    queued = set(queue)
    for i, rhs in enumerate(rhss):
        if i not in queued:
            try:
                out[i] = simplex_solve(incidence, rhs)
            except _REFUSALS as exc:
                out[i] = exc
    if not queue:
        return out
    lanes = min(lanes, len(queue))
    queue.reverse()
    base, start = _slack_tableau(incidence, [0] * m)
    # the stack gets its own anonymous mapping, whose pages go back to the
    # system whole when the last view of it goes: allocated from the heap,
    # a 1 MiB stack freed between pools left the heap that much larger and
    # raised verify-paper's peak RSS by 1.2 MiB
    stack = np.frombuffer(mmap(-1, lanes * base.nbytes), np.int64).reshape(lanes, *base.shape)
    basis = np.tile(start, (lanes, 1))
    owner = np.full(lanes, -1)
    pivots, work, bound = (np.zeros(lanes, np.int64) for _ in range(3))
    # the largest bound b whose unit pivot passes the int64 test, b + b * b
    # < _INT64_LIMIT, or (2b + 1)**2 <= 4 * _INT64_LIMIT - 3
    cap = (isqrt(4 * _INT64_LIMIT - 3) - 1) // 2

    def load(lane):
        """Give the lane the next LP, or leave it idle with no pivot to take."""
        if queue:
            i = owner[lane] = queue.pop()
            stack[lane] = base
            stack[lane, :m, -1] = rhss[i]
            basis[lane] = start
            pivots[lane] = work[lane] = 0
            bound[lane] = max(1, *rhss[i])
        else:
            owner[lane] = -1
            stack[lane, m] = 0

    for lane in range(lanes):
        load(lane)
    at = np.arange(lanes)
    busy = lanes
    while busy:
        neg = stack[:, m] < 0
        enter = neg.argmax(1)
        going = neg[at, enter]
        if np.count_nonzero(going) < busy:
            for lane in np.flatnonzero(~going & (owner >= 0)):
                out[owner[lane]] = _solution(stack[lane], basis[lane].tolist(), n, 1, int(pivots[lane]))
                load(lane)
            busy = np.count_nonzero(owner >= 0)
            continue
        col = stack[at, :, enter]
        heads, rhs = col[:, :m], stack[:, :m, -1]
        pos = heads > 0
        ratio = np.divide(rhs, heads, out=np.full(heads.shape, np.inf), where=pos)
        best = ratio.argmin(1)
        # each rhs / head against the proposal's, cross-multiplied: 0 on its
        # ties, below 0 where the float ratios misordered a row
        d = np.where(pos, rhs * heads[at, best, None] - rhs[at, best, None] * heads, 1)
        leave = np.where(d == 0, basis, n + m).argmin(1)
        f = col.copy()
        f[at, leave] = 0
        prow = stack[at, leave]
        lane_of, row = np.nonzero(f)
        cells = np.bincount(lane_of, minlength=lanes) * np.count_nonzero(prow, 1)
        take = (
            going
            & (col[at, leave] == 1)
            & (bound <= cap)
            & (d.min(1) >= 0)
            & (work + cells <= MAX_SIMPLEX_WORK)
        )
        if np.count_nonzero(take) < busy:
            for lane in np.flatnonzero(going & ~take):
                i, tableau, rows = owner[lane], stack[lane].copy(), basis[lane].tolist()
                try:
                    tableau, det, done = _run_array(tableau, rows, int(pivots[lane]), int(work[lane]))
                    out[i] = _solution(tableau, rows, n, det, done)
                except _REFUSALS as exc:
                    out[i] = exc
                load(lane)
            busy = np.count_nonzero(owner >= 0)
            keep = take[lane_of]
            lane_of, row = lane_of[keep], row[keep]
        # no entry passes bound + bound**2, so the products are exact
        stack[lane_of, row] -= f[lane_of, row, None] * prow[lane_of]
        basis[take, leave[take]] = enter[take]
        pivots += take
        work += cells * take
        bound += np.abs(f).max(1) * np.abs(prow).max(1) * take
    return out


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
    sc = model.scenario
    [(ncf, (den, weights, loads), (det, prices), pivots)] = _certified_lps([model])
    cf = ONE - ncf
    noncontextual = strongly_contextual = None
    # every context's loads total mass = ncf * den, the weights' numerators
    mass = sum(weights)
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
        distribution=fractions_over(weights, den),
        noncontextual=noncontextual,
        strongly_contextual=strongly_contextual,
        pivots=pivots,
        prices=fractions_over(prices, det),
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
    [(ncf, _, (det, prices), _)] = _certified_lps([model], compatible=True)
    return ncf, ONE - ncf, fractions_over(prices, det)


def _certified_lps(models, compatible=False):
    """[(ncf, (den, weights, loads), (det, prices), pivots) per model], each
    after both certificates pass: weights[i], global kept[i]'s weight, and
    every slot's load are numerators over den, and the prices one
    numerator per slot over det, the LP's last pivot.

    Each model's LP runs over its kept globals, every global or, with
    compatible, those compatible with its support, and the slots they
    touch; with none kept, ncf is 0 and no LP runs. Its rhs is those slots'
    numerators over their gcd g with model.den, so den is det *
    (model.den // g). With every global kept every slot is touched, so the
    LP is the scenario's cached incidence matrix as it is, and the full
    LPs of one scenario run together in _run_lockstep, each pivoting as it
    does alone. The full price vector puts det, a price of 1, on every
    zero-weight slot, which costs nothing and covers every global that
    touches one, 0 on every other slot the LP did not see, and the LP's
    prices elsewhere.

    A refused model raises what the loop over the models raises first, in
    input order: a signaling model, a size guard, a work budget trip or a
    failed certificate. Once a model is refused before its LP is built,
    the models after it are not solved."""
    lps, groups, refused = [], {}, None
    for i, model in enumerate(models):
        try:
            _require_no_signaling(model)
            sc = model.scenario
            kept = compatible_globals(support_of(model)) if compatible else range(global_size(sc))
            incidence = incidence_matrix(sc) if kept else None
        except _REFUSALS as exc:
            refused = exc
            break
        rows = ()
        if kept and compatible:
            incidence = incidence[:, kept]
            rows = np.flatnonzero(incidence.any(axis=1)).tolist()
            incidence = incidence[rows]
        elif kept:
            rows = range(len(incidence))
        v = list(chain.from_iterable(model.rows))
        g = gcd(model.den, *(v[r] for r in rows))
        lps.append((model, kept, rows, model.den // g, v))
        if kept:
            # a compatible LP has a matrix of its own; the full LPs of one
            # scenario share its cached one
            group = groups.setdefault(i if compatible else sc, (incidence, [], []))
            group[1].append(i)
            group[2].append([v[r] // g for r in rows])
    solved = {}
    for incidence, members, rhss in groups.values():
        solved.update(zip(members, _run_lockstep(incidence, rhss)))
    out = []
    for i, (model, kept, rows, scale, v) in enumerate(lps):
        solution = solved.get(i, (0, (), (), 1, 0))
        if isinstance(solution, Exception):
            raise solution
        value, weights, reduced, det, pivots = solution
        prices = [0 if x else det for x in v]
        for r, y in zip(rows, reduced):
            prices[r] = y
        den = det * scale
        ncf = rat(value, den)
        _check_prices(model, prices, det, ncf)
        loads = _check_weights(model, kept, weights, den, ncf)
        out.append((ncf, (den, weights, loads), (det, prices), pivots))
    if refused is not None:
        raise refused
    return out


def _check_prices(model, prices, den, ncf):
    """Dual certificate, checked exactly: ncf lies in [0, 1], prices are
    nonnegative, every global assignment collects at least 1 over its
    slots, and the priced weights total ncf. By weak duality no dominated
    mixture of global assignments is heavier than ncf.

    The prices are integer numerators over one positive den. Global g's
    slots are column g of the slot table, one per context, so one numpy
    sum over the table gives what every global collects. No total exceeds
    n_contexts times the largest numerator; while that bound and den are
    below 2**63 the sum runs in int64, otherwise on Python ints. The
    priced weights are one integer dot product with the model's
    numerators, every row over its one denominator."""
    if ncf < 0 or ncf > 1:
        raise VerificationError("noncontextual fraction outside [0, 1]",
                                details={"ncf": ncf})
    if min(prices) < 0:
        raise VerificationError("a slot price is negative")
    sc = model.scenario
    dtype = np.int64 if max(den, sc.n_contexts * max(prices)) < 2**63 else object
    collected = np.array(prices, dtype=dtype)[_global_slots(sc)].sum(axis=0)
    if collected.min() < den:
        g = int((collected < den).argmax())
        raise VerificationError(
            "a global assignment collects price below 1",
            details={"global": g, "price": rat(int(collected[g]), den)},
        )
    cost = rat(sum(map(mul, chain.from_iterable(model.rows), prices)), model.den * den)
    if cost != ncf:
        raise VerificationError(
            "priced weights differ from the noncontextual fraction",
            details={"cost": cost, "ncf": ncf},
        )


def _check_weights(model, kept, weights, den, ncf):
    """Primal certificate, checked exactly: weights[i] is global kept[i]'s,
    every weight is nonnegative, the weights total ncf, and no slot carries
    more than the model's weight there. Their mixture is then dominated by
    the model, so the fraction is at least ncf; the prices bound it above.

    The weights are integer numerators over one positive den. Global g
    puts its weight on slot _global_slots[c, g] of every context c, so the
    loads are summed over the weighted globals' columns alone, and each
    loaded slot is compared with the model's numerators, every row over
    its one denominator, in slot order. Returns every slot's load over
    den."""
    if min(weights, default=0) < 0:
        neg = next(i for i, w in enumerate(weights) if w < 0)
        raise VerificationError(
            "a global assignment has negative weight",
            details={"global": kept[neg], "weight": rat(weights[neg], den)},
        )
    total = rat(sum(weights), den)
    if total != ncf:
        raise VerificationError(
            "weights differ from the noncontextual fraction",
            details={"total": total, "ncf": ncf},
        )
    sc = model.scenario
    weighted = list(compress(range(len(weights)), weights))
    slots = _global_slots(sc)[:, [kept[i] for i in weighted]].T.tolist()
    loads = [0] * slot_count(sc)
    loaded = set()
    for i, row in zip(weighted, slots):
        w = weights[i]
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
    return loads

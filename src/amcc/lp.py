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

Every certified LP runs on one route, _certified_lps: it refuses a
signaling model, builds each model's LP over a set of global assignments
and the slots they touch, hands the LPs that share a matrix to
_run_lockstep together, and checks two exact certificates over every
global assignment, on the LP's numerators and the model's numerator
row. The models of one scenario take the signaling refusal and the
compatibility scan as array passes over one matrix of their numerators,
and the LPs that ran together take both certificates as array passes
(_price_refusals, _weight_loads), of which a lone LP is the one-row case;
a refusal is still the first the loop over the models meets. In
lockstep the tableaux share one int32 stack of lanes, at most
LOCKSTEP_CELLS cells, and each numpy step takes one Bland pivot in every
lane; its ratio test compares float64 quotients, which order ratios of
entries below 2**16 exactly. A lane takes the step only when its pivot
is 1 at det 1 and its running bound keeps every entry in int32, and on
any other step its LP is handed to _run_array, which resumes from its
tableau (as int64), basis, pivot count and work. So every LP pivots
exactly as it does alone, and a lone LP, or one too large to share the
stack, runs on simplex_solve. The prices bound ncf above: global g's
slots, one per context, are column g of scenario's slot table
`_global_slots`, so what every global collects is one numpy sum over it,
in int64 whenever the totals are bounded below 2**63. The weights total
ncf and load no slot past the model's weight, so ncf is also attained.
`contextual_fraction` keeps every global: each slot is then some
global's, so the LP is the scenario's cached incidence matrix, in its row
order, and the decomposition is read off the checked integer slot loads.
verify-paper's pools take the same full LPs, many at once.
`certified_fraction`, the cheap route to the value alone, keeps only the
support's compatible globals: a global that restricts to a zero-weight
slot is forced to weight 0. A lone model, as classify and the two
public functions hand it in, is a group of one on the model's own
numerator row (EmpiricalModel._values): its rhs, full price row and slot
loads stay numpy rows from it through both certificate passes. Fractions
are built only where the public functions hand them out; classify reads
the route's integer result.
"""

from dataclasses import dataclass
from itertools import chain, compress, islice
from math import gcd, isqrt
from mmap import mmap
from operator import index

import numpy as np

from .errors import PreconditionError, ResourceLimitError, VerificationError
from .model import _by_scenario, _model_from_ints, _overlap_sums, _require_no_signaling, _slot_rows
from .possibilistic import _compatible
from .rational import ONE, fractions_over, rat
from .scenario import (
    MAX_SIMPLEX_WORK,
    MAX_TABLEAU_CELLS,
    _global_slots,
    _require,
    global_size,
    incidence_matrix,
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

# the lockstep's int32 stack holds at most this many cells, 512 KiB: its
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
    size guard and the rhs checks. An integer numpy rhs is read as it
    is; any other goes through operator.index entry by entry."""
    m, n = incidence.shape
    width = n + m
    _require(
        (m + 1) * (width + 1),
        f"cells in the simplex tableau of {m + 1} x {width + 1}",
        MAX_TABLEAU_CELLS,
    )
    if isinstance(rhs, np.ndarray) and rhs.dtype.kind in "iu":
        rhs = rhs.tolist()
    else:
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
    does alone. rhss are integer rows, lists or numpy arrays.

    The LPs share one int32 stack of lanes, LOCKSTEP_CELLS // the cells of
    one tableau, and each step pivots every lane at once by Bland's rule:
    the least column of negative reduced cost enters, the leaving row is
    _leaving_row's, found on float64 quotients (_float_leaving_rows, exact
    while a lane's entries stay at most cap, below), and
    the unit update row - f * prow runs on the rows with f != 0. A lane
    takes the step only when the pivot is 1 at det 1 and its running
    bound b keeps b + b * b below min(2**31, _INT64_LIMIT), so the update
    is exact in int32 and has nothing to divide, and when the step keeps
    its work within MAX_SIMPLEX_WORK; otherwise the LP goes on alone in
    _run_array from its tableau, as int64, its basis, pivots and work,
    which also raises what it would raise alone. When an LP finishes, its
    lane takes the next one. An LP whose rhs is negative or passes that
    limit, and every LP when one lane or one LP is all there is, runs on
    simplex_solve."""
    m, n = incidence.shape
    rhss = [np.asarray(rhs) for rhs in rhss]
    out = [None] * len(rhss)
    lanes = LOCKSTEP_CELLS // ((m + 1) * (n + m + 1))
    queue = []
    # every product a step forms stays below limit, so the lanes hold int32
    limit = min(1 << 31, _INT64_LIMIT)
    # a lone lane or a lone LP runs alone, before any rhs is scanned
    if lanes > 1 and len(rhss) > 1:
        queue = [i for i, rhs in enumerate(rhss) if 0 <= rhs.min() and rhs.max() < limit]
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
    base = base.astype(np.int32)
    # the stack gets its own anonymous mapping, whose pages go back to the
    # system whole when the last view of it goes: allocated from the heap,
    # a 1 MiB stack freed between pools left the heap that much larger and
    # raised verify-paper's peak RSS by 1.2 MiB
    stack = np.frombuffer(mmap(-1, lanes * base.nbytes), np.int32).reshape(lanes, *base.shape)
    basis = np.tile(start, (lanes, 1))
    owner = np.full(lanes, -1)
    pivots, work, bound = (np.zeros(lanes, np.int64) for _ in range(3))
    # the largest bound b whose unit pivot keeps every entry below limit,
    # b + b * b < limit, or (2b + 1)**2 <= 4 * limit - 3
    cap = (isqrt(4 * limit - 3) - 1) // 2

    def load(lane):
        """Give the lane the next LP, or leave it idle with no pivot to take."""
        if queue:
            i = owner[lane] = queue.pop()
            stack[lane] = base
            stack[lane, :m, -1] = rhss[i]
            basis[lane] = start
            pivots[lane] = work[lane] = 0
            bound[lane] = max(1, int(rhss[i].max()))
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
        leave = _float_leaving_rows(heads, rhs, basis)
        f = col.copy()
        f[at, leave] = 0
        prow = stack[at, leave]
        lane_of, row = np.nonzero(f)
        cells = np.bincount(lane_of, minlength=lanes) * np.count_nonzero(prow, 1)
        take = going & (col[at, leave] == 1) & (bound <= cap) & (work + cells <= MAX_SIMPLEX_WORK)
        if np.count_nonzero(take) < busy:
            for lane in np.flatnonzero(going & ~take):
                i, rows = owner[lane], basis[lane].tolist()
                tableau = stack[lane].astype(np.int64)
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


def _float_leaving_rows(heads, rhs, basis):
    """_run_lockstep's ratio test: per lane, the row of least float64
    quotient rhs / head over its positive heads, ties to the least basic
    variable (the least row where a lane has no positive head).

    A lane steps only while its entries are at most cap < 2**16, so a
    ratio is b / a with 0 <= b <= cap and 1 <= a <= cap. Two such ratios
    that differ differ by at least 1 / (a * a') > 2**-32, and each lies in
    [0, cap], where rounding to float64 moves it by at most
    cap * 2**-53 < 2**-36: correctly rounded quotients order unequal
    ratios exactly and round equal ones alike, so the least quotient's
    rows are exactly the rows of least ratio, _leaving_row's choice."""
    ratio = np.divide(rhs, heads, out=np.full(heads.shape, np.inf), where=heads > 0)
    ties = ratio == ratio.min(1, keepdims=True)
    return np.where(ties, basis, np.iinfo(basis.dtype).max).argmin(1)


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
    loads = loads.tolist()
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
        prices=fractions_over(prices.tolist(), det),
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
    return ncf, ONE - ncf, fractions_over(prices.tolist(), det)


def _certified_lps(models, compatible=False):
    """[(ncf, (den, weights, loads), (det, prices), pivots) per model], each
    after both certificates pass: weights[i], global kept[i]'s weight, and
    every slot's load, a numpy row, are numerators over den, and the
    prices a numpy row of one numerator per slot over det, the LP's last
    pivot.

    Each model's LP runs over its kept globals, every global or, with
    compatible, those compatible with its support, and the slots they
    touch; with none kept, ncf is 0 and no LP runs. Its rhs is those slots'
    numerators over their gcd g with model.den, so den is det *
    (model.den // g). With every global kept every slot is touched, so the
    LP is the scenario's cached incidence matrix as it is, and the full
    LPs of one scenario run together in _run_lockstep, each pivoting as it
    does alone. The full price row puts det, a price of 1, on every
    zero-weight slot, which costs nothing and covers every global that
    touches one, 0 on every other slot the LP did not see, and the LP's
    prices elsewhere.

    The models of one scenario are checked at once, on one matrix of
    their numerators (_slot_rows, a lone model's own row): one reduceat
    finds the signaling ones (model._overlap_sums), one compatibility scan
    gives every kept set (possibilistic._compatible), and the LPs that ran
    together pass _price_refusals and _weight_loads together. A refused
    model raises what the loop over the models raises first, in input
    order: a signaling model, a size guard, a work budget trip or a failed
    certificate. Once a model is refused before its LP is built, the
    models after it are not solved."""
    models = list(models)
    scenarios = _by_scenario(models)
    row_of = {i: r for members in scenarios.values() for r, i in enumerate(members)}
    # values: each scenario's _slot_rows; suspects: the models that
    # _require_no_signaling checks, a lone model or one the reduceat flags
    values, suspects, compatibles = {}, set(), {}
    lps, groups, refused = [], {}, None
    for i, model in enumerate(models):
        sc = model.scenario
        members = scenarios[sc]
        try:
            if i == members[0]:
                values[sc] = _slot_rows([models[j] for j in members])
                # a lone model goes through is_no_signaling itself, the call
                # perfbench's tracer counts once per classify
                if len(members) == 1:
                    suspects.add(i)
                else:
                    suspects.update(compress(members, _overlap_sums(sc, values[sc]).any(axis=1)))
            if i in suspects:
                _require_no_signaling(model)
            if compatible:
                if sc not in compatibles:
                    compatibles[sc] = _compatible(sc, values[sc] != 0)
                kept = compatibles[sc][row_of[i]].nonzero()[0].tolist()
            else:
                kept = range(global_size(sc))
            incidence = incidence_matrix(sc) if kept else None
        except _REFUSALS as exc:
            refused = exc
            break
        v = values[sc][row_of[i]]
        rows = slice(None) if kept else slice(0)
        if kept and compatible:
            incidence = incidence[:, kept]
            rows = incidence.any(axis=1).nonzero()[0]
            incidence = incidence[rows]
        rhs = v[rows]
        g = gcd(model.den, int(np.gcd.reduce(rhs)))
        lps.append((rows, model.den // g))
        # a compatible LP has a matrix of its own; the full LPs of one
        # scenario share its cached one
        group = groups.setdefault(i if compatible else sc, (incidence, kept, [], []))
        group[2].append(i)
        group[3].append(rhs // g)
    out = [None] * len(lps)
    for incidence, kept, members, rhss in groups.values():
        solved = _run_lockstep(incidence, rhss) if kept else [(0, (), (), 1, 0)]
        for i, solution in zip(members, solved):
            out[i] = solution
        live = [(i, *out[i]) for i in members if not isinstance(out[i], Exception)]
        if not live:
            continue
        ids, objectives, weights, reduced, dets, pivots = zip(*live)
        dens = [det * lps[i][1] for i, det in zip(ids, dets)]
        ncfs = list(map(rat, objectives, dens))
        group = [models[i] for i in ids]
        v = values[group[0].scenario][[row_of[i] for i in ids]]
        prices = _price_rows(v == 0, dets, [(lps[i][0], y) for i, y in zip(ids, reduced)])
        refusals = _price_refusals(group, v, prices, dets, ncfs)
        loads = _weight_loads(group, v, kept, weights, dens, ncfs)
        checked = zip(ids, ncfs, dens, weights, loads, dets, prices, pivots, refusals)
        for i, ncf, den, ws, load, det, y, p, refusal in checked:
            if not isinstance(load, Exception):
                load = ncf, (den, ws, load), (det, y), p
            out[i] = refusal or load
    for result in out:
        if isinstance(result, Exception):
            raise result
    if refused is not None:
        raise refused
    return out


def _price_rows(zero, dets, scattered, dtype=np.int64):
    """One full price row per LP, (rows, prices) in scattered: det, a price
    of 1, where zero marks a zero-weight slot, 0 on the other slots, then
    the LP's prices on its rows; int64 while every entry fits, Python ints
    otherwise."""
    try:
        prices = zero * np.array(dets, dtype)[:, None]
        for row, (rows, y) in zip(prices, scattered):
            row[rows] = y
    except OverflowError:
        return _price_rows(zero, dets, scattered, object)
    return prices


def _int_rows(rows):
    """rows, sequences of ints of one length, as one 2-D array: int64 when
    every entry fits, Python ints otherwise; an array is already one."""
    if isinstance(rows, np.ndarray):
        return rows
    try:
        return np.array(rows, np.int64)
    except OverflowError:
        return np.array(rows, object)


def _dtype(bound, *arrays):
    """int64 when bound is below 2**63 and no array holds Python ints,
    object otherwise."""
    return object if bound >= 2**63 or any(a.dtype == object for a in arrays) else np.int64


def _check_prices(model, prices, den, ncf):
    """Dual certificate, checked exactly: ncf lies in [0, 1], prices are
    nonnegative, every global assignment collects at least 1 over its
    slots, and the priced weights total ncf. By weak duality no dominated
    mixture of global assignments is heavier than ncf. The prices are
    integer numerators over one positive den; the check is the one-row
    case of _price_refusals, and raises its refusal."""
    [refusal] = _price_refusals([model], _slot_rows([model]), [prices], [den], [ncf])
    if refusal is not None:
        raise refusal


def _price_refusals(models, values, prices, dens, ncfs):
    """_check_prices on models of one scenario at once, values their
    numerators (_slot_rows), prices one row per model over dens: the
    VerificationError it raises on each model, or None.

    Global g's slots are column g of the slot table, one per context, so
    one gather and sum over the table gives what every global collects
    under every row of prices, and the priced weights are one product of
    the numerator and price rows, every row over its den times its
    model's. A row with a negative price is refused before its sums are
    read, so the largest price bounds every sum that is read: no total
    exceeds n_contexts or the slot count times it (and the model's den).
    The sums run in int64 while those bounds and every den are below
    2**63, and on Python ints otherwise. Each row is read through its
    least price and least collected total, and only a refused row is
    searched for its first short global."""
    sc = models[0].scenario
    prices = _int_rows(prices)
    top = int(prices.max())
    dtype = _dtype(max(*dens, sc.n_contexts * top), prices)
    collected = prices.astype(dtype, copy=False).take(_global_slots(sc), axis=1).sum(axis=1)
    dtype = _dtype(values.shape[1] * top * max(m.den for m in models), prices, values)
    costs = (values.astype(dtype, copy=False) * prices.astype(dtype, copy=False)).sum(axis=1)
    checks = zip(
        models, dens, ncfs, prices.min(axis=1).tolist(), collected.min(axis=1).tolist(),
        costs.tolist(), collected,
    )
    out = []
    for model, den, ncf, least, low, cost, row in checks:
        refusal = None
        if not 0 <= ncf.numerator <= ncf.denominator:
            refusal = VerificationError(
                "noncontextual fraction outside [0, 1]", details={"ncf": ncf}
            )
        elif least < 0:
            refusal = VerificationError("a slot price is negative")
        elif low < den:
            g = int((row < den).argmax())
            refusal = VerificationError(
                "a global assignment collects price below 1",
                details={"global": g, "price": rat(int(row[g]), den)},
            )
        elif cost * ncf.denominator != ncf.numerator * model.den * den:
            refusal = VerificationError(
                "priced weights differ from the noncontextual fraction",
                details={"cost": rat(cost, model.den * den), "ncf": ncf},
            )
        out.append(refusal)
    return out


def _check_weights(model, kept, weights, den, ncf):
    """Primal certificate, checked exactly: weights[i] is global kept[i]'s,
    every weight is nonnegative, the weights total ncf, and no slot carries
    more than the model's weight there. Their mixture is then dominated by
    the model, so the fraction is at least ncf; the prices bound it above.
    The weights are integer numerators over one positive den; the check is
    the one-row case of _weight_loads, and returns every slot's load over
    den as a list, or raises its refusal."""
    [loads] = _weight_loads([model], _slot_rows([model]), kept, [weights], [den], [ncf])
    if isinstance(loads, Exception):
        raise loads
    return loads.tolist()


def _weight_loads(models, values, kept, weights, dens, ncfs):
    """_check_weights on models of one scenario that keep the same
    ascending globals, values their numerators (_slot_rows), weights one
    row per model over dens: each model's slot loads, a numpy row over its
    den, or the VerificationError _check_weights raises on it.

    Global g puts its weight on slot _global_slots[c, g] of every context
    c, so one scatter of the nonzero weights over their columns of the
    table sums every model's loads, and each load is compared with the
    model's numerators, every row over its one denominator, through the
    largest excess load * wden - numerator * den of the row. A row with a
    negative weight is refused before its loads are read, so no load that
    is read exceeds len(kept) times the largest weight. The sums and
    products run in int64 when none can reach 2**63, and on Python ints
    otherwise."""
    sc = models[0].scenario
    w = _int_rows(weights)
    top = int(w.max(initial=0))
    w = w.astype(_dtype(len(kept) * top, w), copy=False)
    model_of, col = np.nonzero(w)
    slots = _global_slots(sc).take(np.asarray(kept, np.intp)[col], axis=1)
    loads = np.zeros(values.shape, w.dtype)
    np.add.at(loads, (model_of, slots), w[model_of, col])
    wdens = [m.den for m in models]
    dtype = _dtype(max(len(kept) * top, *dens) * max(wdens), w, values)
    scale = np.array([wdens, dens], dtype)
    excess = loads.astype(dtype, copy=False) * scale[0, :, None]
    excess -= values.astype(dtype, copy=False) * scale[1, :, None]
    checks = zip(
        models, weights, dens, ncfs, w.min(axis=1, initial=0).tolist(), w.sum(axis=1).tolist(),
        excess.max(axis=1).tolist(), loads,
    )
    out = []
    for k, (model, ws, den, ncf, least, total, worst, load) in enumerate(checks):
        result = load
        if least < 0:
            i = next(i for i, x in enumerate(ws) if x < 0)
            result = VerificationError(
                "a global assignment has negative weight",
                details={"global": kept[i], "weight": rat(ws[i], den)},
            )
        elif total * ncf.denominator != ncf.numerator * den:
            result = VerificationError(
                "weights differ from the noncontextual fraction",
                details={"total": rat(total, den), "ncf": ncf},
            )
        elif worst > 0:
            s = int((excess[k] > 0).argmax())
            result = VerificationError(
                "a slot carries more weight than the model",
                details={
                    "slot": s,
                    "load": rat(int(load[s]), den),
                    "weight": rat(int(values[k, s]), model.den),
                },
            )
        out.append(result)
    return out

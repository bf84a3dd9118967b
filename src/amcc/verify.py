"""Reproduction suite: every headline quantity recomputed from scratch.

Each check rebuilds one result through the public pipeline and compares
it with the frozen expectation. Checks are independent; a crash or
resource limit in one is reported in its row and the rest still run.
The suite also carries two independent routes to the noncontextual mass
of a (2,2,2) model: a covering program solved by a self-contained integer
tableau that calls nothing in `lp`, and a closed form from the eight
two-party correlator bounds.

The three AMCC headline checks ask classify once per model and run no
LP: no global is compatible with these strongly contextual supports, so
the dual certificate alone proves cf = 1. The corpus pool of
cf-iff-strong-contextuality solves those models' full LPs.

The two pool checks draw their random models a pool at a time
(_random_pool): the draws one model after another, as the one-model
generator makes them, and the numerators as one integer matrix. They take
their models a scenario at a time: the LPs and their certificates through
lp's one route, whose lanes take the longest LPs first, strong
contextuality in one compatibility scan of the numerators' nonzero slots
(possibilistic), and the covering programs as lanes of one numpy lockstep
(_covering_pool).
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from time import perf_counter

import numpy as np

from .affine import classify, ns_dimension, ns_dimension_closed_form
from .csp import reconstruct_tables
from .errors import PreconditionError, VerificationError
from .kernels import scan_satisfiable
from .lp import _certified_lps
from .model import (
    _by_scenario,
    _model_from_ints,
    _slot_rows,
    corpus,
    corpus_names,
    ghz_322,
    pr_box,
)
from .parity import (
    _require_binary,
    build_symmetric_model,
    column_vectors,
    gf2_basis,
    parity_patterns,
    parity_satisfiable,
    parity_scan,
    parity_system_from_vector,
)
from .possibilistic import _strong_contextualities
from .rational import ZERO, fractions_over, rat, rat_str
from .scenario import _global_slots, bell_scenario, global_size, incidence_matrix, slot_offsets

REFERENCE_VECTOR_422 = 0x1C00  # parity targets 1 exactly at contexts 10..12


# ---------------------------------------------------------------------------
# random no-signaling models


def random_no_signaling_model(scenario, rng):
    """Seeded random no-signaling model over a binary-outcome scenario.

    With chance 1/4 the model is a pure symmetric parity-class model,
    which is strongly contextual exactly when its parity system is
    unsatisfiable. Otherwise it is a rational convex mixture of
    deterministic models, half the time blended with a symmetric parity
    block. Every ingredient is no-signaling, so the mixture is too. It is
    the one-model pool of _random_pool.
    """
    return _random_pool(scenario, rng, 1)[0]


def _random_models(scenario, count, seed):
    return _random_pool(scenario, random.Random(seed), count)


def _random_pool(scenario, rng, count):
    """count random_no_signaling_model draws from rng, in order.

    The draws are made one model at a time, in the order and number the
    generator has always made them: a non-binary scenario is refused at
    its first parity vector's draw, and one past the restriction table's
    limit at its first global's. The pool's numerators are then one
    integer matrix, a row per model over the slots, every ingredient
    scaled to one scale L: with a parity block in the pool, the outcomes
    are binary and L is the lcm of every context's 2^(k - 1), otherwise 1.
    A parity block puts 2L / 2^k on each section of a context of k
    measurements whose popcount parity is the context's target bit, and a
    point mass puts L on global g's slot of every context, column g of
    the slot table. A model's row is its integer weights times its
    ingredients' rows, over its total weight times L, and is checked and
    reduced by _model_from_ints: the model the Fraction mixture gives."""
    n, n_globals = scenario.n_contexts, global_size(scenario)
    # (model, weight, parity vector) and (model, weight, global) per term
    parities, points, totals = [], [], []
    slots = None
    for i in range(count):
        pure = rng.randrange(4) == 0
        blended = pure or rng.randrange(2) == 0
        if blended:
            vector = rng.randrange(1 << n)
            _require_binary(scenario)
        drawn = []
        for _ in range(0 if pure else rng.randrange(1, 4)):
            drawn.append(rng.randrange(n_globals))
            if slots is None:
                slots = _global_slots(scenario)
        weights = [1] if pure else [rng.randrange(1, 9) for _ in range(blended + len(drawn))]
        if blended:
            parities.append((i, weights[0], vector))
        points += [(i, w, g) for w, g in zip(weights[blended:], drawn)]
        totals.append(sum(weights))
    sizes = scenario.section_sizes
    scale = max(sizes) // 2 if parities else 1
    nums = np.zeros((count, sum(sizes)), np.int64)
    if parities:
        rows, weights, vectors = zip(*parities)
        nbytes = (n + 7) // 8
        raw = b"".join(v.to_bytes(nbytes, "little") for v in vectors)
        targets = np.unpackbits(
            np.frombuffer(raw, np.uint8).reshape(len(vectors), nbytes),
            axis=1, count=n, bitorder="little",
        )
        # every slot's context, and the popcount parity of its section index
        context = np.repeat(np.arange(n), sizes)
        odd = np.array([si.bit_count() & 1 for size in sizes for si in range(size)], np.uint8)
        share = np.repeat([2 * scale // size for size in sizes], sizes)
        nums[list(rows)] = (targets[:, context] == odd) * share * np.array(weights)[:, None]
    if points:
        rows, weights, drawn = map(list, zip(*points))
        np.add.at(nums, (np.array(rows)[:, None], slots[:, drawn].T), scale * np.array(weights)[:, None])
    cuts = [*slot_offsets(scenario), nums.shape[1]]
    return [
        _model_from_ints(scenario, total * scale, [row[a:b] for a, b in zip(cuts, cuts[1:])])
        for total, row in zip(totals, nums.tolist())
    ]


# ---------------------------------------------------------------------------
# independent routes to the noncontextual mass


# the covering tableaux of a group are int32 while twice the square of a
# running bound on their entries, which bounds every product a pivot or a
# ratio test forms, is below _INT32_LIMIT, int64 while it is below
# _INT64_LIMIT, and Python ints past that
_INT32_LIMIT = 1 << 31
_INT64_LIMIT = 1 << 62


def _lane_type(bound):
    """The covering stack's type for a running bound on its entries."""
    if 2 * bound * bound < _INT32_LIMIT:
        return np.dtype(np.int32)
    return np.dtype(np.int64 if 2 * bound * bound < _INT64_LIMIT else object)


def covering_ncf(model):
    """Noncontextual mass from the covering side, independently solved.

    The mass program asks for the heaviest subdistribution on global
    assignments dominated by the model; its covering counterpart prices
    every (context, section) slot so that each global assignment collects
    total price at least 1, at minimum total cost. Any feasible covering
    price bounds every dominated mass from above, so when the two
    optimal values agree the common value is certified optimal. Solved
    by a self-contained integer tableau that shares no code with the main
    solver, as the one-model pool of _covering_pool. Returns (value,
    prices) after verifying feasibility exactly.
    """
    return _covering_pool([model])[0]


def _covering_pool(models):
    """[covering_ncf(m) for m in models]: the models of one scenario are
    solved together, or the first refusal in input order is raised.

    Each model's tableau has one row per global assignment (prices,
    surplus and penalty columns, rhs 1) and the objective extended with a
    formal infinite penalty as two integer rows, penalty multiples and
    unit costs, the model's numerators (its weights over den, the lcm of
    their denominators). The tableaux of one scenario are lanes of one
    stack, and each numpy step takes one Bland pivot in every lane: the
    least column whose cost (penalty, unit) is below (0, 0) enters, and
    the leaving row is the least rhs / head, proposed in floats and made
    exact by integer cross-multiplication, ties to the least basic
    variable. The update is (p * row - f * prow) // det with the lane's
    pivot p and previous pivot det (Edmonds; Bareiss, Math. Comp. 22,
    1968), so every stored entry is the true one times det > 0; when
    every p equals its det only the rows with a nonzero entering entry
    change. The stack is int32, then int64, while a running bound shows
    that every product fits, and Python ints for the group past that
    point. A lane leaves the stack when no column enters, and the
    feasibility, nonnegativity and underpricing checks then run on the
    group's prices at once."""
    out = [None] * len(models)
    for members in _by_scenario(models).values():
        for i, res in zip(members, _covering_group([models[i] for i in members])):
            out[i] = res
    for res in out:
        if isinstance(res, VerificationError):
            raise res
    return out


def _covering_group(models):
    """_covering_pool's result per model of one scenario: (value, prices),
    or the VerificationError that model's solve raises."""
    sc = models[0].scenario
    inc = incidence_matrix(sc)  # slot x global, the covering rows' transpose
    n_y, n_rows = inc.shape  # price variables, covering constraints
    width = n_y + 2 * n_rows  # prices, surplus, penalty columns
    weights = [list(chain.from_iterable(m.rows)) for m in models]  # slot order
    base = np.zeros((n_rows + 2, width + 1), np.int64)
    base[:n_rows, :n_y] = inc.T
    eye = np.eye(n_rows, dtype=np.int64)
    base[:n_rows, n_y:n_y + n_rows] = -eye
    base[:n_rows, n_y + n_rows:width] = eye
    base[:n_rows, width] = 1
    # reduced costs live in the ordered extension {a*penalty + b}, kept as
    # the rows (a, b * den); penalty columns cost (1, 0)
    base[n_rows] = -base[:n_rows].sum(0)
    base[n_rows, n_y + n_rows:width] += 1
    bound = max(n_rows, *map(max, weights))
    dtype = _lane_type(bound)
    stack = np.repeat(base[None].astype(dtype), len(models), 0)
    stack[:, n_rows + 1, :n_y] = weights
    lanes = np.arange(len(models))  # the model in each lane
    basis = np.tile(np.arange(n_y + n_rows, width), (len(models), 1))
    det = np.ones(len(models), dtype)
    done = [None] * len(models)  # (rhs, basis, det) off each final tableau
    while len(lanes):
        if stack.dtype != object and _lane_type(bound) != stack.dtype:
            # the bound asks for another type: take the largest entry's
            bound = int(np.abs(stack).max())
            dtype = _lane_type(bound)
            stack, det = stack.astype(dtype, copy=False), det.astype(dtype, copy=False)
        at = np.arange(len(lanes))
        penalty, unit = stack[:, n_rows, :width], stack[:, n_rows + 1, :width]
        neg = (penalty < 0) | ((penalty == 0) & (unit < 0))
        enter = neg.argmax(1)
        col = stack[at, :, enter]
        heads, rhs = col[:, :n_rows], stack[:, :n_rows, width]
        pos = heads > 0
        going = neg[at, enter]
        bounded = pos.any(1)
        if not (going & bounded).all():
            for lane in np.flatnonzero(~going):
                done[lanes[lane]] = (rhs[lane].tolist(), basis[lane].tolist(), int(det[lane]))
            for lane in np.flatnonzero(going & ~bounded):
                done[lanes[lane]] = VerificationError("covering program must be bounded")
            keep = going & bounded
            stack, basis, det, lanes = stack[keep], basis[keep], det[keep], lanes[keep]
            continue
        # a float proposal of the least rhs / head, then every row against
        # it cross-multiplied as heads are positive: a row below it replaces
        # it, and the rows equal to it tie
        ratio = np.where(pos, rhs, 0) / np.where(pos, heads, 1)
        best = np.where(pos, ratio, np.inf).argmin(1)
        while True:
            d = np.where(pos, rhs * heads[at, best, None] - rhs[at, best, None] * heads, 1)
            low = d.min(1) < 0
            if not low.any():
                break
            best = np.where(low, d.argmin(1), best)
        leave = np.where(d == 0, basis, width).argmin(1)
        p = col[at, leave]
        f = col
        f[at, leave] = 0
        prow = stack[at, leave]
        if stack.dtype != object:
            # no entry of the update f * prow passes max|f| * max|prow|
            span = int(np.abs(f).max()) * int(np.abs(prow).max())
            bound = max(bound, (int(p.max()) * bound + span) // int(det.min()))
        update = f[:, :, None] * prow[:, None]
        if (p == det).all():
            # rows with f = 0 keep their entries, and det divides f * x
            # because it divides p * row - f * x
            if (det != 1).any():
                update //= det[:, None, None]
            stack -= update
        else:
            stack *= p[:, None, None]
            stack -= update
            stack //= det[:, None, None]
            stack[at, leave] = prow
        det = p
        basis[at, leave] = enter
    return _covering_checks(models, inc, weights, done)


def _covering_checks(models, inc, weights, done):
    """Each solved lane's (value, prices), after the exact checks on the
    group's prices at once: no penalty column basic at a nonzero rhs
    (feasibility), no negative price, and every global assignment
    collecting at least det over its slots; or the first check's refusal."""
    n_y, n_rows = inc.shape
    solved = [i for i, res in enumerate(done) if not isinstance(res, Exception)]
    if not solved:
        return done
    rhs, basis, det = zip(*(done[i] for i in solved))
    largest = max(max(det), *(max(map(abs, r)) for r in rhs))
    dtype = np.int64 if n_y * largest < 2**63 else object
    rhs, basis, det = np.array(rhs, dtype), np.array(basis), np.array(det, dtype)
    infeasible = ((basis >= n_y + n_rows) & (rhs != 0)).any(1)
    prices = np.zeros((len(solved), n_y), dtype)
    lane, row = np.nonzero(basis < n_y)
    prices[lane, basis[lane, row]] = rhs[lane, row]
    negative = (prices < 0).any(1)
    under = prices @ inc < det[:, None]
    out = list(done)
    for j, i in enumerate(solved):
        if infeasible[j]:
            out[i] = VerificationError("covering program must be feasible")
        elif negative[j]:
            out[i] = VerificationError("covering prices must be nonnegative")
        elif under[j].any():
            out[i] = VerificationError(f"global assignment {int(under[j].argmax())} is underpriced")
        else:
            y, den = prices[j].tolist(), int(det[j])
            value = rat(sum(map(mul, weights[i], y)), models[i].den * den)
            out[i] = value, fractions_over(y, den)
    return out


def chsh_cf(model):
    """Closed-form contextual fraction of a (2,2,2) no-signaling model:
    max(0, (S - 2) / 2) where S is the largest of the eight odd-sign
    combinations of the four correlators. The correlators and S are summed
    on the model's numerators, every weight's over one denominator den,
    and only the result is a Fraction."""
    if model.scenario != bell_scenario(2, 2, 2):
        raise PreconditionError("closed form covers the (2,2,2) scenario only")
    den = model.den
    # sections 00 and 11 have even parity, 01 and 10 odd
    correlators = [a - b - c + d for a, b, c, d in model.rows]
    best = max(
        sum(-e if signs >> ci & 1 else e for ci, e in enumerate(correlators))
        for signs in range(16)
        # odd numbers of minus signs give the nontrivial bounds
        if bin(signs).count("1") % 2
    )
    # cf = (best / den - 2) / 2
    return Fraction(best - 2 * den, 2 * den) if best > 2 * den else ZERO


# ---------------------------------------------------------------------------
# the checks


def _check_pr_boxes():
    bad = []
    for k in range(8):
        c = classify(pr_box(k))
        if c.cf != 1 or not c.maximal_marginals:
            bad.append(f"k={k}: cf={rat_str(c.cf)}, maximal_marginals={c.maximal_marginals}")
    expected = "cf = 1 and maximal marginals for every box k = 0..7"
    actual = "all 8 boxes: cf = 1, maximal marginals" if not bad else "; ".join(bad)
    return expected, actual, not bad


def _check_ghz():
    c = classify(ghz_322())
    passed = c.cf == 1 and c.maximal_marginals
    expected = "cf = 1 and maximal marginals"
    actual = f"cf = {rat_str(c.cf)}, maximal_marginals = {c.maximal_marginals}"
    return expected, actual, passed


def _decider_mask(scenario):
    """Per-vector satisfiability over the full vector range, as a bool
    array, decided by reduction against the echelon basis of the context
    column vectors. All vectors are reduced at once, from the top bit down:
    each one with the lead bit of a basis vector set is XORed with it, which
    leaves its higher bits alone. A set bit that leads no basis vector is
    never cleared, so a vector ends at 0 exactly when it is in the span."""
    basis = gf2_basis(column_vectors(scenario))
    v = np.arange(1 << scenario.n_contexts, dtype=np.int64)
    for lead in sorted(basis, reverse=True):
        v ^= (v >> lead & 1) * basis[lead]
    return v == 0


def _check_scan_422():
    sc = bell_scenario(4, 2, 2)
    scan = parity_scan(sc)
    decided = _decider_mask(sc)
    mask = scan_satisfiable(parity_patterns(sc), 1 << sc.n_contexts)
    enumerated = int(mask.sum())
    disagreements = int(np.count_nonzero(mask != decided))
    passed = (
        scan.unsatisfiable == 65504
        and enumerated == scan.satisfiable == 32
        and disagreements == 0
    )
    expected = "65504 of 65536 vectors unsatisfiable, 32 = 2^rank satisfiable, both deciders agreeing"
    actual = (
        f"unsatisfiable = {scan.unsatisfiable}, satisfiable = {scan.satisfiable}, "
        f"rank = {scan.rank}, enumerated satisfiable = {enumerated}, "
        f"decider disagreements = {disagreements}"
    )
    return expected, actual, passed


def _check_reference_vector():
    sc = bell_scenario(4, 2, 2)
    system = parity_system_from_vector(sc, REFERENCE_VECTOR_422)
    sat = parity_satisfiable(system)
    m = build_symmetric_model(system)
    c = classify(m)
    mm = c.maximal_marginals
    # every weight is 0 or 1/8: numerators 0 or 1 over den 8
    entries_ok = m.den == 8 and {x for row in m.rows for x in row} <= {0, 1}
    passed = not sat and c.cf == 1 and mm and entries_ok
    expected = (
        "vector 0x1c00 unsatisfiable; symmetric model: cf = 1, maximal "
        "marginals, nonzero entries all 1/8"
    )
    actual = (
        f"satisfiable = {sat}, cf = {rat_str(c.cf)}, maximal_marginals = {mm}, "
        f"entries in {{0, 1/8}} = {entries_ok}"
    )
    return expected, actual, passed


def _check_dimensions():
    results = {}
    for shape in ((4, 2, 2), (2, 2, 2)):
        sc = bell_scenario(*shape)
        results[shape] = (ns_dimension(sc), ns_dimension_closed_form(sc))
    passed = results[4, 2, 2] == (80, 80) and results[2, 2, 2] == (8, 8)
    expected = "no-signaling dimensions 80 at (4,2,2) and 8 at (2,2,2), elimination matching the closed form"
    actual = ", ".join(
        f"{shape}: elimination {got} closed form {cf}"
        for shape, (got, cf) in results.items()
    )
    return expected, actual, passed


def _check_reference_tables():
    family, report = reconstruct_tables()
    lo, hi = report.bounds
    at_low = classify(family.at(rat(1, 8)))
    at_mid = classify(family.at(rat(3, 16)))
    passed = (
        report.ok
        and (rat_str(lo), rat_str(hi)) == ("1/8", "1/4")
        and at_mid.verdict == "non-AMCC"
        and at_mid.cf == 1
        and not at_mid.maximal_marginals
        and at_low.verdict == "AMCC"
    )
    expected = (
        "one-parameter family, zero table diffs, interval [1/8, 1/4], "
        "non-AMCC at q = 3/16 (cf = 1, marginals fail), AMCC at q = 1/8"
    )
    actual = (
        f"dimension = {report.dimension}, diffs = {len(report.diffs)}, "
        f"interval = [{rat_str(lo)}, {rat_str(hi)}], "
        f"q = 3/16: {at_mid.verdict} (cf = {rat_str(at_mid.cf)}, "
        f"maximal_marginals = {at_mid.maximal_marginals}), "
        f"q = 1/8: {at_low.verdict}"
    )
    return expected, actual, passed


def _equivalence_pool():
    models = [(name, corpus(name)) for name in corpus_names()]
    for i, m in enumerate(_random_models(bell_scenario(2, 2, 2), 60, 101)):
        models.append((f"random-(2,2,2)-{i}", m))
    for i, m in enumerate(_random_models(bell_scenario(3, 2, 2), 60, 202)):
        models.append((f"random-(3,2,2)-{i}", m))
    return models


def _check_cf_iff_sc():
    models = _equivalence_pool()
    mismatches = []
    ones = 0
    fractions = _certified_lps(m for _, m in models)
    verdicts = [None] * len(models)
    for sc, members in _by_scenario([m for _, m in models]).items():
        possible = _slot_rows([models[i][1] for i in members]) != 0
        for i, verdict in zip(members, _strong_contextualities(sc, possible)):
            verdicts[i] = verdict
    for (name, m), (ncf, *_), (is_sc, _) in zip(models, fractions, verdicts):
        cf = 1 - ncf
        ones += cf == 1
        if (cf == 1) != is_sc:
            mismatches.append(
                f"{name}: cf = {rat_str(cf)}, strongly contextual = {is_sc}"
            )
    expected = f"cf = 1 exactly on the strongly contextual supports ({len(models)} models)"
    actual = (
        f"agreement on {len(models) - len(mismatches)}/{len(models)} models "
        f"({ones} with cf = 1)"
        + ("" if not mismatches else "; first mismatch " + mismatches[0])
    )
    return expected, actual, not mismatches


def _check_lp_oracle():
    sc = bell_scenario(2, 2, 2)
    models = [(n, corpus(n)) for n in corpus_names()]
    models = [(n, m) for n, m in models if m.scenario == sc]
    for i, m in enumerate(_random_models(sc, 60, 303)):
        models.append((f"random-(2,2,2)-{i}", m))
    mismatches = []
    fractions = _certified_lps(m for _, m in models)
    covers = _covering_pool([m for _, m in models])
    for (name, m), (ncf, *_), (cover, _) in zip(models, fractions, covers):
        closed = 1 - chsh_cf(m)
        if not ncf == cover == closed:
            mismatches.append(
                f"{name}: simplex {rat_str(ncf)}, covering {rat_str(cover)}, "
                f"closed form {rat_str(closed)}"
            )
    expected = (
        f"simplex mass = covering optimum = closed form on {len(models)} models "
        "(equality certifies optimality)"
    )
    actual = (
        f"agreement on {len(models) - len(mismatches)}/{len(models)} models"
        + ("" if not mismatches else "; first mismatch " + mismatches[0])
    )
    return expected, actual, not mismatches


def _check_scan_222():
    sc = bell_scenario(2, 2, 2)
    scan = parity_scan(sc, examples=16)
    vectors = scan.examples
    ks = set()
    mismatches = []
    for vec in vectors:
        p = [vec >> ci & 1 for ci in range(4)]
        k = 4 * (p[2] ^ p[0]) + 2 * (p[1] ^ p[0]) + p[0]
        ks.add(k)
        if build_symmetric_model(parity_system_from_vector(sc, vec)) != pr_box(k):
            mismatches.append(f"vector {vec:#06x} != box k={k}")
    passed = scan.unsatisfiable == 8 and ks == set(range(8)) and not mismatches
    expected = "exactly 8 unsatisfiable vectors whose symmetric models are the 8 boxes"
    actual = (
        f"unsatisfiable = {scan.unsatisfiable}, boxes hit = {sorted(ks)}"
        + ("" if not mismatches else "; " + "; ".join(mismatches))
    )
    return expected, actual, passed


CHECKS = (
    ("pr-box-cf", 1.0, _check_pr_boxes),
    ("ghz-cf", 1.0, _check_ghz),
    ("parity-scan-422", 65.0, _check_scan_422),
    ("symmetric-reference-vector", 5.0, _check_reference_vector),
    ("affine-dimensions", 10.0, _check_dimensions),
    ("reference-tables", 60.0, _check_reference_tables),
    ("cf-iff-strong-contextuality", 300.0, _check_cf_iff_sc),
    ("lp-oracle-agreement", 120.0, _check_lp_oracle),
    ("parity-scan-222", 1.0, _check_scan_222),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    actual: str
    passed: bool
    runtime: float
    budget: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def overall(self):
        return all(c.passed for c in self.checks)


def check_names():
    return tuple(name for name, _, _ in CHECKS)


def run_checks(names=None):
    """Run the reproduction checks (all by default) and gather the report.

    A failure inside one check, resource limits included, is recorded in
    its row and never stops the remaining checks.
    """
    if names is not None:
        unknown = sorted(set(names) - set(check_names()))
        if unknown:
            raise PreconditionError(f"unknown checks: {', '.join(map(repr, unknown))}")
    results = []
    for name, budget, fn in CHECKS:
        if names is not None and name not in names:
            continue
        t0 = perf_counter()
        try:
            expected, actual, passed = fn()
        except Exception as exc:
            expected = "check completes without error"
            actual = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(
            CheckResult(name, expected, actual, passed, perf_counter() - t0, budget)
        )
    return VerificationReport(checks=tuple(results))


def report_text(report):
    lines = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name}  ({c.runtime:.2f}s, budget {c.budget:g}s)")
        lines.append(f"      expected: {c.expected}")
        lines.append(f"      actual:   {c.actual}")
    good = sum(c.passed for c in report.checks)
    verdict = "PASS" if report.overall else "FAIL"
    lines.append(f"overall: {verdict} ({good}/{len(report.checks)} checks)")
    return "\n".join(lines)


def report_json(report):
    return {
        "checks": [
            {
                "name": c.name,
                "expected": c.expected,
                "actual": c.actual,
                "passed": c.passed,
                "runtime_s": round(c.runtime, 4),
                "budget_s": c.budget,
            }
            for c in report.checks
        ],
        "overall": report.overall,
    }

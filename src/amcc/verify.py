"""Reproduction suite: every headline quantity recomputed from scratch.

Each check rebuilds one result through the public pipeline and compares
it with the frozen expectation. Checks are independent; a crash or
resource limit in one is reported in its row and the rest still run.
The suite also carries two independent routes to the noncontextual mass
of a (2,2,2) model: a covering program solved by a self-contained dense
tableau, and a closed form from the eight two-party correlator bounds.
"""

import random
from dataclasses import dataclass
from time import perf_counter

from .affine import classify, ns_dimension, ns_dimension_closed_form
from .csp import reconstruct_tables
from .errors import PreconditionError, VerificationError
from .kernels import scan_satisfiable
from .lp import contextual_fraction, stacked_weights
from .model import (
    corpus,
    corpus_names,
    deterministic_model,
    ghz_322,
    is_maximal_marginals,
    mix_models,
    pr_box,
)
from .parity import (
    build_symmetric_model,
    column_vectors,
    gf2_basis,
    parity_patterns,
    parity_satisfiable,
    parity_scan,
    parity_system_from_vector,
)
from .possibilistic import strong_contextuality, support_of
from .rational import ONE, ZERO, rat, rat_str
from .scenario import bell_scenario, global_size, incidence_matrix

REFERENCE_VECTOR_422 = 0x1C00  # parity targets 1 exactly at contexts 10..12


# ---------------------------------------------------------------------------
# random no-signaling models


def random_no_signaling_model(scenario, rng):
    """Seeded random no-signaling model over a binary-outcome scenario.

    With chance 1/4 the model is a pure symmetric parity-class model,
    which is strongly contextual exactly when its parity system is
    unsatisfiable. Otherwise it is a rational convex mixture of
    deterministic models, half the time blended with a symmetric parity
    block. Every ingredient is no-signaling, so the mixture is too.
    """

    def parity_term():
        vec = rng.randrange(1 << scenario.n_contexts)
        return build_symmetric_model(parity_system_from_vector(scenario, vec))

    if rng.randrange(4) == 0:
        return parity_term()
    terms = []
    if rng.randrange(2) == 0:
        terms.append(parity_term())
    for _ in range(rng.randrange(1, 4)):
        terms.append(deterministic_model(scenario, rng.randrange(global_size(scenario))))
    weights = [rat(rng.randrange(1, 9)) for _ in terms]
    total = sum(weights, ZERO)
    return mix_models([(w / total, m) for w, m in zip(weights, terms)])


def _random_models(scenario, count, seed):
    rng = random.Random(seed)
    return [random_no_signaling_model(scenario, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# independent routes to the noncontextual mass


def covering_ncf(model):
    """Noncontextual mass from the covering side, independently solved.

    The mass program asks for the heaviest subdistribution on global
    assignments dominated by the model; its covering counterpart prices
    every (context, section) slot so that each global assignment collects
    total price at least 1, at minimum total cost. Any feasible covering
    price bounds every dominated mass from above, so when the two
    optimal values agree the common value is certified optimal. Solved
    here by a self-contained dense tableau over exact rationals extended
    with a formal infinite penalty, sharing no code with the main solver.
    Returns (value, prices) after verifying feasibility exactly.
    """
    sc = model.scenario
    inc = incidence_matrix(sc)
    v = stacked_weights(model)
    n_y = inc.shape[0]  # price variables, one per slot
    n_rows = inc.shape[1]  # covering constraints, one per global assignment
    width = n_y + 2 * n_rows  # prices, surplus, penalty columns

    tableau = []
    for g in range(n_rows):
        row = [ONE if inc[s, g] else ZERO for s in range(n_y)]
        row += [-ONE if i == g else ZERO for i in range(n_rows)]
        row += [ONE if i == g else ZERO for i in range(n_rows)]
        row.append(ONE)
        tableau.append(row)
    basis = [n_y + n_rows + g for g in range(n_rows)]

    # reduced costs live in the ordered extension {a*penalty + b}, kept as
    # (a, b) pairs compared lexicographically; penalty columns cost (1, 0)
    obj = []
    for j in range(width):
        unit = v[j] if j < n_y else ZERO
        penalty = (ONE if n_y + n_rows <= j < width else ZERO) - sum(
            (tableau[i][j] for i in range(n_rows)), ZERO
        )
        obj.append((penalty, unit))

    while True:
        enter = next((j for j in range(width) if obj[j] < (ZERO, ZERO)), None)
        if enter is None:
            break
        ratio = pivot_row = tie = None
        for i in range(n_rows):
            coef = tableau[i][enter]
            if coef > 0:
                r = tableau[i][width] / coef
                if ratio is None or r < ratio or (r == ratio and basis[i] < tie):
                    ratio, pivot_row, tie = r, i, basis[i]
        if pivot_row is None:
            raise VerificationError("covering program must be bounded")
        piv = tableau[pivot_row][enter]
        tableau[pivot_row] = [x / piv for x in tableau[pivot_row]]
        for i in range(n_rows):
            if i != pivot_row and tableau[i][enter] != 0:
                f = tableau[i][enter]
                row, prow = tableau[i], tableau[pivot_row]
                tableau[i] = [x - f * p for x, p in zip(row, prow)]
        fm, fu = obj[enter]
        prow = tableau[pivot_row]
        obj = [(m - fm * p, u - fu * p) for (m, u), p in zip(obj, prow)]
        basis[pivot_row] = enter

    prices = [ZERO] * n_y
    for i, bi in enumerate(basis):
        if bi < n_y:
            prices[bi] = tableau[i][width]
        elif bi >= n_y + n_rows and tableau[i][width] != 0:
            raise VerificationError("covering program must be feasible")

    if any(p < 0 for p in prices):
        raise VerificationError("covering prices must be nonnegative")
    for g in range(n_rows):
        collected = sum((prices[s] for s in range(n_y) if inc[s, g]), ZERO)
        if collected < 1:
            raise VerificationError(f"global assignment {g} is underpriced")
    value = sum((v[s] * prices[s] for s in range(n_y)), ZERO)
    return value, tuple(prices)


def chsh_cf(model):
    """Closed-form contextual fraction of a (2,2,2) no-signaling model:
    max(0, (S - 2) / 2) where S is the largest of the eight odd-sign
    combinations of the four correlators."""
    if model.scenario != bell_scenario(2, 2, 2):
        raise PreconditionError("closed form covers the (2,2,2) scenario only")
    correlators = []
    for ci in range(4):
        e = ZERO
        for si in range(4):
            w = model.tables[ci][si]
            e = e + w if bin(si).count("1") % 2 == 0 else e - w
        correlators.append(e)
    best = None
    for signs in range(16):
        if bin(signs).count("1") % 2 == 0:
            continue  # odd numbers of minus signs give the nontrivial bounds
        s = sum(
            (-e if signs >> ci & 1 else e for ci, e in enumerate(correlators)),
            ZERO,
        )
        if best is None or s > best:
            best = s
    cf = (best - 2) / 2
    return cf if cf > 0 else ZERO


# ---------------------------------------------------------------------------
# the checks


def _check_pr_boxes():
    bad = []
    for k in range(8):
        m = pr_box(k)
        res = contextual_fraction(m)
        mm, _ = is_maximal_marginals(m)
        if res.cf != 1 or not mm:
            bad.append(f"k={k}: cf={rat_str(res.cf)}, maximal_marginals={mm}")
    expected = "cf = 1 and maximal marginals for every box k = 0..7"
    actual = "all 8 boxes: cf = 1, maximal marginals" if not bad else "; ".join(bad)
    return expected, actual, not bad


def _check_ghz():
    m = ghz_322()
    res = contextual_fraction(m)
    mm, _ = is_maximal_marginals(m)
    passed = res.cf == 1 and mm
    expected = "cf = 1 and maximal marginals"
    actual = f"cf = {rat_str(res.cf)}, maximal_marginals = {mm}"
    return expected, actual, passed


def _decider_mask(scenario):
    """Per-vector satisfiability over the full vector range, decided by
    reduction against the echelon basis of the context column vectors."""
    basis = gf2_basis(column_vectors(scenario))
    out = []
    for vec in range(1 << scenario.n_contexts):
        v = vec
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                break
            v ^= basis[lead]
        out.append(v == 0)
    return out


def _check_scan_422():
    sc = bell_scenario(4, 2, 2)
    t0 = perf_counter()
    scan = parity_scan(sc, threads=1)
    brute_s = perf_counter() - t0
    t0 = perf_counter()
    decided = _decider_mask(sc)
    decider_s = perf_counter() - t0
    mask = scan_satisfiable(parity_patterns(sc), 1 << sc.n_contexts)
    disagreements = sum(1 for a, b in zip(mask, decided) if bool(a) != b)
    passed = (
        scan.unsatisfiable == 65504
        and scan.satisfiable == 32 == 1 << scan.rank
        and disagreements == 0
    )
    expected = "65504 of 65536 vectors unsatisfiable, 32 = 2^rank satisfiable, both deciders agreeing"
    actual = (
        f"unsatisfiable = {scan.unsatisfiable}, satisfiable = {scan.satisfiable}, "
        f"rank = {scan.rank}, decider disagreements = {disagreements} "
        f"(enumeration {brute_s:.2f}s, elimination {decider_s:.2f}s)"
    )
    return expected, actual, passed


def _check_reference_vector():
    sc = bell_scenario(4, 2, 2)
    system = parity_system_from_vector(sc, REFERENCE_VECTOR_422)
    sat = parity_satisfiable(system)
    m = build_symmetric_model(system)
    res = contextual_fraction(m)
    mm, _ = is_maximal_marginals(m)
    eighth = rat(1, 8)
    entries_ok = all(w == 0 or w == eighth for row in m.tables for w in row)
    passed = not sat and res.cf == 1 and mm and entries_ok
    expected = (
        "vector 0x1c00 unsatisfiable; symmetric model: cf = 1, maximal "
        "marginals, nonzero entries all 1/8"
    )
    actual = (
        f"satisfiable = {sat}, cf = {rat_str(res.cf)}, maximal_marginals = {mm}, "
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
    for name, m in models:
        res = contextual_fraction(m)
        is_sc, _ = strong_contextuality(support_of(m))
        ones += res.cf == 1
        if (res.cf == 1) != is_sc:
            mismatches.append(
                f"{name}: cf = {rat_str(res.cf)}, strongly contextual = {is_sc}"
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
    models = [(n, corpus(n)) for n in corpus_names() if corpus(n).scenario == sc]
    for i, m in enumerate(_random_models(sc, 60, 303)):
        models.append((f"random-(2,2,2)-{i}", m))
    mismatches = []
    for name, m in models:
        ncf = contextual_fraction(m).ncf
        cover, _ = covering_ncf(m)
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
            raise PreconditionError(f"unknown checks: {', '.join(unknown)}")
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

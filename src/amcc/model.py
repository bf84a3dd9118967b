"""Empirical models: per-context outcome distributions with exact weights.

Includes marginalization, the no-signaling and maximal-marginals checks, a
small corpus of named reference models, and JSON/CSV serialization. Weights
are exact: integer numerators over one denominator; "a/b" strings in files,
which model_from_json, like the constructor, decodes straight to those
integers with rational.over_lcm_rows, and then to one numpy row in slot
order, checked in array passes and kept with the model. Both checks are
one numpy pass over that row and a per-scenario row table:
scenario.overlap_rows, and _party_rows for the marginals.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, islice, product
from math import gcd, lcm, prod

import numpy as np

from .errors import PreconditionError
from .rational import _listed, fractions_over, over_lcm_rows, rat, rat_str
from .scenario import (
    MAX_GLOBALS,
    MAX_TABLE_CELLS,
    MeasurementScenario,
    _membership,
    _require,
    bell_scenario,
    global_size,
    marginal_rows,
    overlap_rows,
    projection,
    restriction_table,
    scenario_from_json,
    scenario_to_json,
    section_outcomes,
    section_size,
    slot_offsets,
    unpack,
)

__all__ = [
    "EmpiricalModel",
    "MarginalTable",
    "marginalize",
    "context_containing",
    "party_setting_subsets",
    "is_no_signaling",
    "is_maximal_marginals",
    "uniform_marginals",
    "pr_box",
    "ghz_322",
    "parity_amcc_422",
    "uniform_model",
    "deterministic_model",
    "mix_models",
    "corpus",
    "corpus_names",
    "model_to_json",
    "model_from_json",
    "model_to_csv",
    "render_table_csv",
]


@dataclass(frozen=True, init=False)
class EmpiricalModel:
    """Weight rows[c][s] / den on section s of context c, den the lcm of
    the weights' denominators: canonical, so the fields compare, hash and
    print as the weights do. Built from tables, one row of rationals per
    context in canonical section order, decoded by over_lcm_rows; a bad
    row is refused as a row-by-row check would (_refuse_rows). Not a field:
    _values, the numerators in slot order as one read-only numpy row,
    int64 while den times the longest context row is below 2**63 (so no
    sum of a row, nor den times a row's length, wraps) and Python ints
    otherwise; every check of the model reads it."""

    scenario: MeasurementScenario
    den: int
    rows: tuple  # one tuple of int numerators per context

    def __init__(self, scenario, tables):
        try:
            # tables and its rows may be iterators, read once here, so that
            # over_lcm_rows and _refuse_rows read the same rows
            tables = [list(row) if isinstance(row, Iterator) else row for row in _listed(tables)]
            den, rows = over_lcm_rows(tables)
        except (TypeError, ValueError):
            _refuse_rows(scenario, tables)
        _set_rows(self, scenario, den, rows)

    @property
    def tables(self):
        """The weights as one tuple of Fractions per context, built on each
        read."""
        weights = iter(fractions_over(list(chain.from_iterable(self.rows)), self.den))
        return tuple(tuple(islice(weights, len(nums))) for nums in self.rows)


def _refuse_rows(scenario, tables):
    """Raise EmpiricalModel's refusal of the first bad row of tables,
    checked row by row: its length, its weights as rationals, no negative
    weight, a sum of 1; a string or a dict as over_lcm_rows does."""
    if len(_listed(tables)) != scenario.n_contexts:
        raise ValueError("need one distribution per context")
    for ctx, want, row in zip(scenario.cover, scenario.section_sizes, tables):
        if len(_listed(row)) != want:
            raise ValueError(f"context {ctx} needs {want} weights, got {len(row)}")
        den, (nums,) = over_lcm_rows([row])
        if min(nums) < 0:
            raise ValueError(f"negative weight in context {ctx}")
        if sum(nums) != den:
            raise ValueError(f"context {ctx} weights must sum to 1")
    raise AssertionError("no row of the tables is refused")


def _set_rows(model, scenario, den, rows):
    """Check the weights rows[c][s] / den in array passes over their row in
    slot order, and set the model's fields to den and rows over their
    common gcd, and _values to that row. A failed check raises
    _refuse_rows's refusal of the first bad row."""
    sizes = scenario.section_sizes
    values = None
    if list(map(len, rows)) == list(sizes):
        dtype = np.int64 if den * max(sizes) < 2**63 else object
        try:
            values = np.fromiter(chain.from_iterable(rows), dtype, sum(sizes))
        except OverflowError:  # an entry past int64: refused below
            pass
    if (
        values is None
        or values.min() < 0
        or values.max() > den
        or not set(np.add.reduceat(values, slot_offsets(scenario)).tolist()) <= {den}
    ):
        _refuse_rows(scenario, [[Fraction(x, den) for x in nums] for nums in rows])
    g = gcd(den, int(np.gcd.reduce(values)))
    if g > 1:
        den //= g
        rows = [[x // g for x in nums] for nums in rows]
        values = values // g
    values.setflags(write=False)
    object.__setattr__(model, "scenario", scenario)
    object.__setattr__(model, "den", den)
    object.__setattr__(model, "rows", tuple(map(tuple, rows)))
    object.__setattr__(model, "_values", values)


def _model_from_ints(scenario, den, rows):
    """The EmpiricalModel whose weight at (context c, section s) is
    rows[c][s] / den, with EmpiricalModel's check, order and messages."""
    model = object.__new__(EmpiricalModel)
    _set_rows(model, scenario, den, rows)
    return model


@dataclass(frozen=True)
class MarginalTable:
    """Distribution over the outcomes of a measurement subset, mixed-radix
    indexed in the subset's listed order."""

    measurements: tuple
    outcomes: tuple
    weights: tuple

    def weight(self, outcome_tuple):
        i = 0
        for o, v in zip(self.outcomes, outcome_tuple):
            i = i * o + v
        return self.weights[i]


def marginalize(model, ci, measurements):
    """Marginal of context ci's distribution onto a subset of its
    measurements (order given by `measurements`)."""
    sc = model.scenario
    ms = tuple(measurements)
    proj = projection(sc, ci, ms)
    outs = tuple(sc.outcomes[m] for m in ms)
    acc = [0] * prod(outs)
    for p, x in zip(proj, model.rows[ci]):
        if x:
            acc[p] += x
    return MarginalTable(measurements=ms, outcomes=outs, weights=fractions_over(acc, model.den))


def _by_scenario(models):
    """{scenario: the indices of its models}, both in input order."""
    groups = {}
    for i, model in enumerate(models):
        groups.setdefault(model.scenario, []).append(i)
    return groups


def _slot_rows(models):
    """The _values rows of models of one scenario, one row per model: a
    lone model's own read-only row, and Python ints when any row holds
    them."""
    if len(models) == 1:
        return models[0]._values[None]
    return np.stack([m._values for m in models])


def _overlap_sums(scenario, values):
    """One row per row of values, _slot_rows of models of scenario (or one
    row for one model's numerator row): every row of overlap_rows summed
    by one reduceat, ci's marginal minus cj's at one outcome, so a model
    is no-signaling iff its row is all 0."""
    slot, sign, start, _ = overlap_rows(scenario)
    return np.add.reduceat(values.take(slot, axis=-1) * sign, start[:-1], axis=-1)


def is_no_signaling(model):
    """Check that overlapping contexts induce identical marginals.

    Returns (True, None) or (False, witness) where the witness names the first
    violating pair in `overlap_rows` order: (ci, cj, shared measurements, outcome
    tuple, lhs, rhs). The first nonzero entry of the model's _overlap_sums
    is the pair and its first differing outcome in packed order."""
    sc, den, values = model.scenario, model.den, model._values
    bad = _overlap_sums(sc, values).nonzero()[0]
    if not bad.size:
        return True, None
    slot, sign, start, rows = overlap_rows(sc)
    (ci, cj), shared, k = rows[bad[0]]
    entries = slice(start[bad[0]], start[bad[0] + 1])
    lhs, rhs = (int(values[slot[entries]][sign[entries] == s].sum()) for s in (1, -1))
    u = unpack(k, [sc.outcomes[m] for m in shared])
    return False, (ci, cj, shared, u, Fraction(lhs, den), Fraction(rhs, den))


def _require_no_signaling(model):
    """Refuse a signaling model with PreconditionError, naming
    is_no_signaling's witness."""
    ok, wit = is_no_signaling(model)
    if not ok:
        ci, cj, shared, u, a, b = wit
        names = " ".join(model.scenario.measurements[m] for m in shared)
        raise PreconditionError(
            f"model is signaling: contexts {ci} and {cj} disagree on {names} @ "
            f"{','.join(map(str, u))}: {rat_str(a)} vs {rat_str(b)}"
        )


def party_setting_subsets(scenario):
    """All one-measurement-per-party choices for every proper nonempty party
    subset, smaller subsets first and each size in `combinations` order of
    the party indices, yielded as measurement tuples in party order, which
    need not be ascending: with parties (2, 1, 0) the subset of parties 0
    and 1 yields (2, 1)."""
    for k in range(1, len(set(scenario.parties))):
        yield from _party_settings(scenario, k)


def _party_settings(scenario, k):
    """party_setting_subsets' measurement tuples of k parties."""
    by_party = {}
    for m, p in enumerate(scenario.parties):
        by_party.setdefault(p, []).append(m)
    for ps in combinations(sorted(by_party), k):
        yield from product(*(by_party[p] for p in ps))


def _require_party_marginals(scenario, sizes):
    """Hold the marginals of the party subsets of the given sizes, counted
    by arithmetic before any is listed: their outcomes, one row each of
    _party_rows, to MAX_GLOBALS, and their entries, at most the measurement
    tuples times the largest context, to MAX_TABLE_CELLS. At size k the
    tuples are the coefficient of x**k in the product over the parties of
    (1 + m x), m the party's measurement count, and the outcomes the same
    with m the sum of their outcome counts. ResourceLimitError past
    either."""
    counts = {}
    for m, p in enumerate(scenario.parties):
        n, a = counts.get(p, (0, 0))
        counts[p] = n + 1, a + scenario.outcomes[m]
    tuples, outcomes = [1], [1]
    for n, a in counts.values():
        tuples = [x + n * y for x, y in zip(tuples + [0], [0] + tuples)]
        outcomes = [x + a * y for x, y in zip(outcomes + [0], [0] + outcomes)]
    rows = sum(outcomes[k] for k in sizes)
    _require(rows, "rows in the party-marginal table", MAX_GLOBALS)
    cells = sum(tuples[k] for k in sizes) * max(scenario.section_sizes)
    _require(cells, "cells in the party-marginal table", MAX_TABLE_CELLS)


def is_maximal_marginals(model):
    """Check that every k-measurement marginal (one measurement per party,
    k < number of parties) is uniform. Returns (True, None) or (False,
    witness) with witness = (measurements, outcome tuple, value, expected).

    Precondition: the model is no-signaling (the marginal of a measurement
    subset is otherwise context-dependent) and carries party structure."""
    if model.scenario.parties is not None:  # else uniform_marginals refuses it
        _require_no_signaling(model)
    return uniform_marginals(model)


def uniform_marginals(model):
    """is_maximal_marginals for a model known to be no-signaling.

    One reduceat over the model's numerators sums each row of _party_rows,
    an outcome's weight b of a marginal over k outcomes, times den; the
    first row where b * k != den is the witness. b is at most den and k at
    most a context row's length, so b * k stays in the row's dtype."""
    sc = model.scenario
    if sc.parties is None:
        raise PreconditionError("maximal-marginals check needs party structure")
    slot, _, start, rows, sizes = _party_rows(sc)
    den, values = model.den, model._values
    sums = np.add.reduceat(values.take(slot), start[:-1])
    bad = (sums * sizes != den).nonzero()[0]
    if not bad.size:
        return True, None
    (_, ms, i), b, n = rows[bad[0]], int(sums[bad[0]]), int(sizes[bad[0]])
    return False, (ms, unpack(i, [sc.outcomes[m] for m in ms]), Fraction(b, den), Fraction(1, n))


@lru_cache(maxsize=64)
def _party_rows(scenario):
    """marginal_rows of party_setting_subsets, each one-sided on the first
    context holding it, and each row's outcome count (int64, read-only).
    The first holding context of every subset is read off one product of
    the subsets' and the contexts' membership rows; context_containing
    reports a subset that no context holds. _require_party_marginals holds
    the table's size before any subset is listed."""
    _require_party_marginals(scenario, range(1, len(set(scenario.parties))))
    subsets = list(party_setting_subsets(scenario))
    lengths = list(map(len, subsets))
    held = _membership(scenario)
    need = np.zeros((len(subsets), held.shape[1]), np.int64)
    need[np.repeat(np.arange(len(subsets)), lengths), list(chain(*subsets))] = 1
    holds = need @ held.T == np.array(lengths, np.int64)[:, None]
    for i in np.flatnonzero(~holds.any(axis=1))[:1]:
        context_containing(scenario, subsets[i])
    marginals = zip(subsets, zip(holds.argmax(axis=1).tolist()))
    slot, sign, start, rows = marginal_rows(scenario, marginals)
    counts = [prod(scenario.outcomes[m] for m in ms) for ms in subsets]
    sizes = np.repeat(np.array(counts, np.int64), counts)
    sizes.setflags(write=False)
    return slot, sign, start, rows, sizes


def context_containing(scenario, measurements):
    """The first context holding all of measurements, or PreconditionError:
    a cover may never join the parties it states."""
    need = set(measurements)
    for ci, ctx in enumerate(scenario.cover):
        if need <= set(ctx):
            return ci
    raise PreconditionError(f"no context contains measurements {measurements}")


# ---------------------------------------------------------------------------
# corpus


def _parity_model(scenario, parities):
    """Uniform weight on each context's parity-respecting sections: context
    i keeps the sections whose outcome bits XOR to parities[i]. The
    outcomes are binary, so a section index's binary digits are its outcome
    bits, and their XOR is the parity of its popcount."""
    rows = []
    for size, parity in zip(scenario.section_sizes, parities):
        rows.append([int(si.bit_count() & 1 == parity) for si in range(size)])
    keeps = [sum(row) for row in rows]
    den = lcm(*keeps)
    rows = [row if k == den else [x * (den // k) for x in row] for k, row in zip(keeps, rows)]
    return _model_from_ints(scenario, den, rows)


def pr_box(k):
    """The eight (2,2,2) PR boxes. With k = 4a + 2b + c, context (x, y) is
    supported on the outcome pairs with o1 XOR o2 = x*y XOR a*x XOR b*y XOR c,
    each carrying weight 1/2."""
    if not 0 <= k <= 7:
        raise ValueError("pr_box index must be in 0..7")
    a, b, c = (k >> 2) & 1, (k >> 1) & 1, k & 1
    sc = bell_scenario(2, 2, 2)
    parities = []
    for ctx in sc.cover:
        x, y = ctx[0], ctx[1] - 2
        parities.append((x * y) ^ (a * x) ^ (b * y) ^ c)
    return _parity_model(sc, parities)


def ghz_322():
    """(3,2,2) parity-support model: context parity 1 exactly when two of the
    three chosen settings are primed, 0 otherwise; uniform 1/4 weights on the
    satisfying sections. The four contexts with zero or two primes carry the
    even/odd parities of the GHZ correlations; the remaining contexts' bits
    are fixed to 0 for definiteness."""
    sc = bell_scenario(3, 2, 2)
    parities = [1 if sum(m % 2 for m in ctx) == 2 else 0 for ctx in sc.cover]
    return _parity_model(sc, parities)


def parity_amcc_422():
    """(4,2,2) parity-support model with odd parity on the three contexts
    whose setting tuples are (1,0,1,0), (1,0,1,1), (1,1,0,0) and even parity
    elsewhere; uniform 1/8 weights on each context's satisfying sections."""
    sc = bell_scenario(4, 2, 2)
    odd = {(1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0)}
    parities = []
    for ctx in sc.cover:
        settings = tuple(m % 2 for m in ctx)
        parities.append(1 if settings in odd else 0)
    return _parity_model(sc, parities)


def uniform_model(scenario):
    den = lcm(*scenario.section_sizes)
    return _model_from_ints(scenario, den, [[den // k] * k for k in scenario.section_sizes])


def deterministic_model(scenario, gi):
    """Point mass induced by one global assignment: context c's row is 1
    at section restriction_table[c, gi], 0 elsewhere. Raises ValueError
    when gi is not a global section, and ResourceLimitError where
    restriction_table does."""
    if not 0 <= gi < global_size(scenario):
        raise ValueError(f"global section {gi} out of range")
    rows = []
    for size, si in zip(scenario.section_sizes, restriction_table(scenario)[:, gi].tolist()):
        row = [0] * size
        row[si] = 1
        rows.append(row)
    return _model_from_ints(scenario, 1, rows)


def mix_models(pairs):
    """Exact convex mixture of models on a common scenario.

    pairs is a sequence of (weight, model); weights must be nonnegative
    rationals summing to 1.
    """
    pairs = [(rat(w), m) for w, m in pairs]
    if not pairs:
        raise PreconditionError("mixture needs at least one term")
    sc = pairs[0][1].scenario
    if any(m.scenario != sc for _, m in pairs):
        raise PreconditionError("mixture terms live on different scenarios")
    if any(w < 0 for w, _ in pairs) or sum(w for w, _ in pairs) != 1:
        raise PreconditionError("weights must be nonnegative and sum to 1")
    # term t is w.numerator * nums[si] / (w.denominator * m.den), summed
    # over the lcm of those denominators; a term with w == 0 is skipped
    terms = [(w.numerator, w.denominator * m.den, m.rows) for w, m in pairs if w]
    total = lcm(*(d for _, d, _ in terms))
    acc = [[0] * len(nums) for nums in terms[0][2]]
    for a, d, rows in terms:
        f = a * (total // d)
        for out, nums in zip(acc, rows):
            for si, x in enumerate(nums):
                if x:
                    out[si] += f * x
    return _model_from_ints(sc, total, acc)


def corpus_names():
    names = [f"pr_box({k})" for k in range(8)]
    names += ["ghz_322", "parity_amcc_422"]
    names += ["uniform(2,2,2)", "uniform(3,2,2)", "uniform(4,2,2)"]
    names += ["deterministic(2,2,2;0)", "deterministic(2,2,2;9)", "deterministic(3,2,2;21)"]
    return names


def corpus(name):
    """Resolve a corpus model by name; see corpus_names() for the full list."""
    s = name.strip()
    if s == "ghz_322":
        return ghz_322()
    if s == "parity_amcc_422":
        return parity_amcc_422()
    if s.startswith("pr_box(") and s.endswith(")"):
        return pr_box(int(s[len("pr_box(") : -1]))
    if s.startswith("uniform(") and s.endswith(")"):
        n, m, o = (int(x) for x in s[len("uniform(") : -1].split(","))
        return uniform_model(bell_scenario(n, m, o))
    if s.startswith("deterministic(") and s.endswith(")"):
        dims, _, gi = s[len("deterministic(") : -1].partition(";")
        n, m, o = (int(x) for x in dims.split(","))
        return deterministic_model(bell_scenario(n, m, o), int(gi))
    raise ValueError(f"unknown corpus model {name!r}")


# ---------------------------------------------------------------------------
# serialization


def _weight_strings(model):
    """The weights as "a/b" strings, one list per context; each distinct
    numerator is formatted once."""
    text = {x: rat_str(rat(x, model.den)) for x in set(chain.from_iterable(model.rows))}
    return [[text[x] for x in nums] for nums in model.rows]


def model_to_json(model):
    return {"scenario": scenario_to_json(model.scenario), "tables": _weight_strings(model)}


def model_from_json(doc):
    """Decode a model document: its tables go through over_lcm_rows, which
    refuses the first bad literal in row order, and the numerators over
    their lcm are checked as EmpiricalModel checks its weights (the row
    count, then row by row), with no Fraction per cell."""
    if not isinstance(doc, dict) or "scenario" not in doc or "tables" not in doc:
        raise ValueError("model JSON needs scenario and tables keys")
    sc = scenario_from_json(doc["scenario"])
    return _model_from_ints(sc, *over_lcm_rows(doc["tables"]))


def _context_label(scenario, ci):
    if scenario.parties is not None:
        settings = []
        by_party = {}
        for m, p in enumerate(scenario.parties):
            by_party.setdefault(p, []).append(m)
        for m in scenario.cover[ci]:
            settings.append(str(by_party[scenario.parties[m]].index(m)))
        return "(" + ",".join(settings) + ")"
    return "+".join(scenario.measurements[m] for m in scenario.cover[ci])


def model_to_csv(model):
    """Two half-tables (low sections, then high sections), one row per
    context. Deterministic bytes: '\n' newlines, no trailing spaces."""
    text = _weight_strings(model)
    return render_table_csv(model.scenario, lambda ci, si: text[ci][si])


def render_table_csv(scenario, cell):
    sizes = {section_size(scenario, ci) for ci in range(scenario.n_contexts)}
    lines = []
    if len(sizes) == 1:
        size = sizes.pop()
        half = (size + 1) // 2 if size > 1 else size
        sec_names = ["".join(map(str, section_outcomes(scenario, 0, si))) for si in range(size)]
        for lo, hi in ((0, half), (half, size)):
            if lo >= hi:
                continue
            lines.append("context," + ",".join(sec_names[lo:hi]))
            for ci in range(scenario.n_contexts):
                row = [cell(ci, si) for si in range(lo, hi)]
                lines.append(_context_label(scenario, ci) + "," + ",".join(row))
            lines.append("")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        # ragged cover: long format
        lines.append("context,section,value")
        for ci in range(scenario.n_contexts):
            for si in range(section_size(scenario, ci)):
                name = "".join(map(str, section_outcomes(scenario, ci, si)))
                lines.append(f"{_context_label(scenario, ci)},{name},{cell(ci, si)}")
    return "\n".join(lines) + "\n"

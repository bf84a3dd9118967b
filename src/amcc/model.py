"""Empirical models: per-context outcome distributions with exact weights.

Includes marginalization, the no-signaling and maximal-marginals checks, a
small corpus of named reference models, and JSON/CSV serialization. All
weights are exact rationals; serialization uses "a/b" strings.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import PreconditionError
from .rational import ONE, ZERO, rat, rat_str
from .scenario import (
    MeasurementScenario,
    bell_scenario,
    global_outcomes,
    restrict,
    scenario_from_json,
    scenario_to_json,
    section_index,
    section_outcomes,
    section_size,
)

__all__ = [
    "EmpiricalModel",
    "MarginalTable",
    "empirical_model",
    "marginalize",
    "context_containing",
    "party_setting_subsets",
    "is_no_signaling",
    "is_maximal_marginals",
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


@dataclass(frozen=True)
class EmpiricalModel:
    scenario: MeasurementScenario
    tables: tuple  # one tuple of weights per context, canonical section order

    def __post_init__(self):
        sc = self.scenario
        if len(self.tables) != sc.n_contexts:
            raise ValueError("need one distribution per context")
        rows = []
        for ci, row in enumerate(self.tables):
            want = section_size(sc, ci)
            if len(row) != want:
                raise ValueError(
                    f"context {sc.cover[ci]} needs {want} weights, got {len(row)}"
                )
            row = tuple(rat(x) for x in row)
            if any(x < 0 for x in row):
                raise ValueError(f"negative weight in context {sc.cover[ci]}")
            if sum(row) != ONE:
                raise ValueError(f"context {sc.cover[ci]} weights must sum to 1")
            rows.append(row)
        object.__setattr__(self, "tables", tuple(rows))

    def weight(self, ci, outcomes):
        return self.tables[ci][section_index(self.scenario, ci, outcomes)]


def empirical_model(scenario, rows):
    """Build a model coercing entries (ints, strings, rationals)."""
    return EmpiricalModel(scenario, tuple(tuple(rat(x) for x in row) for row in rows))


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
    ctx = sc.cover[ci]
    ms = tuple(measurements)
    if any(m not in ctx for m in ms):
        raise ValueError(f"measurements {ms} not all inside context {ctx}")
    if len(set(ms)) != len(ms):
        raise ValueError("repeated measurement in marginal subset")
    outs = tuple(sc.outcomes[m] for m in ms)
    size = 1
    for o in outs:
        size *= o
    acc = [ZERO] * size
    pos = [ctx.index(m) for m in ms]
    for si, w in enumerate(model.tables[ci]):
        if w == 0:
            continue
        s = section_outcomes(sc, ci, si)
        i = 0
        for p, o in zip(pos, outs):
            i = i * o + s[p]
        acc[i] = acc[i] + w
    return MarginalTable(measurements=ms, outcomes=outs, weights=tuple(acc))


def is_no_signaling(model):
    """Check that overlapping contexts induce identical marginals.

    Returns (True, None) or (False, witness) where the witness names the first
    violating pair: (ci, cj, shared measurements, outcome tuple, lhs, rhs)."""
    sc = model.scenario
    for ci, cj in combinations(range(sc.n_contexts), 2):
        shared = tuple(m for m in sc.cover[ci] if m in sc.cover[cj])
        if not shared:
            continue
        mi = marginalize(model, ci, shared)
        mj = marginalize(model, cj, shared)
        if mi.weights != mj.weights:
            for u in product(*(range(sc.outcomes[m]) for m in shared)):
                a, b = mi.weight(u), mj.weight(u)
                if a != b:
                    return False, (ci, cj, shared, u, a, b)
    return True, None


def party_setting_subsets(scenario):
    """All one-measurement-per-party choices for every proper nonempty party
    subset, yielded as measurement tuples in ascending order."""
    parties = scenario.parties
    by_party = {}
    for m, p in enumerate(parties):
        by_party.setdefault(p, []).append(m)
    plist = sorted(by_party)
    n = len(plist)
    for k in range(1, n):
        for ps in combinations(plist, k):
            for choice in product(*(by_party[p] for p in ps)):
                yield tuple(choice)


def is_maximal_marginals(model):
    """Check that every k-measurement marginal (one measurement per party,
    k < number of parties) is uniform. Returns (True, None) or (False,
    witness) with witness = (measurements, outcome tuple, value, expected).

    Precondition: the model is no-signaling (the marginal of a measurement
    subset is otherwise context-dependent) and carries party structure."""
    sc = model.scenario
    if sc.parties is None:
        raise PreconditionError("maximal-marginals check needs party structure")
    ok, wit = is_no_signaling(model)
    if not ok:
        raise PreconditionError(f"model is signaling: marginals disagree at {wit}")
    for ms in party_setting_subsets(sc):
        ci = context_containing(sc, ms)
        marg = marginalize(model, ci, ms)
        expected = Fraction(1, len(marg.weights))
        for i, w in enumerate(marg.weights):
            if w != expected:
                outs = []
                rem = i
                for o in reversed(marg.outcomes):
                    outs.append(rem % o)
                    rem //= o
                return False, (ms, tuple(reversed(outs)), w, expected)
    return True, None


def context_containing(scenario, measurements):
    need = set(measurements)
    for ci, ctx in enumerate(scenario.cover):
        if need <= set(ctx):
            return ci
    raise ValueError(f"no context contains measurements {measurements}")


# ---------------------------------------------------------------------------
# corpus


def _parity_tables(scenario, parities):
    """Uniform weight on each context's parity-respecting sections: context i
    keeps the sections whose outcome bits XOR to parities[i]."""
    rows = []
    for ci in range(scenario.n_contexts):
        size = section_size(scenario, ci)
        keep = [
            si
            for si in range(size)
            if sum(section_outcomes(scenario, ci, si)) % 2 == parities[ci]
        ]
        w = Fraction(1, len(keep))
        row = [ZERO] * size
        for si in keep:
            row[si] = w
        rows.append(tuple(row))
    return tuple(rows)


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
    return EmpiricalModel(sc, _parity_tables(sc, parities))


def ghz_322():
    """(3,2,2) parity-support model: context parity 1 exactly when two of the
    three chosen settings are primed, 0 otherwise; uniform 1/4 weights on the
    satisfying sections. The four contexts with zero or two primes carry the
    even/odd parities of the GHZ correlations; the remaining contexts' bits
    are fixed to 0 for definiteness."""
    sc = bell_scenario(3, 2, 2)
    parities = [1 if sum(m % 2 for m in ctx) == 2 else 0 for ctx in sc.cover]
    return EmpiricalModel(sc, _parity_tables(sc, parities))


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
    return EmpiricalModel(sc, _parity_tables(sc, parities))


def uniform_model(scenario):
    rows = []
    for ci in range(scenario.n_contexts):
        size = section_size(scenario, ci)
        rows.append((Fraction(1, size),) * size)
    return EmpiricalModel(scenario, tuple(rows))


def deterministic_model(scenario, gi):
    """Point mass induced by one global assignment."""
    g = global_outcomes(scenario, gi)
    rows = []
    for ci, ctx in enumerate(scenario.cover):
        size = section_size(scenario, ci)
        row = [ZERO] * size
        row[section_index(scenario, ci, restrict(scenario, g, ctx))] = ONE
        rows.append(tuple(row))
    return EmpiricalModel(scenario, tuple(rows))


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
    tables = tuple(
        tuple(
            sum((w * m.tables[ci][si] for w, m in pairs), ZERO)
            for si in range(section_size(sc, ci))
        )
        for ci in range(sc.n_contexts)
    )
    return EmpiricalModel(sc, tables)


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


def model_to_json(model):
    return {
        "scenario": scenario_to_json(model.scenario),
        "tables": [[rat_str(x) for x in row] for row in model.tables],
    }


def model_from_json(doc):
    if not isinstance(doc, dict) or "scenario" not in doc or "tables" not in doc:
        raise ValueError("model JSON needs scenario and tables keys")
    sc = scenario_from_json(doc["scenario"])
    return empirical_model(sc, doc["tables"])


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


def _csv_cells(scenario, ci, render):
    return [render(si) for si in range(section_size(scenario, ci))]


def model_to_csv(model):
    """Two half-tables (low sections, then high sections), one row per
    context. Deterministic bytes: '\n' newlines, no trailing spaces."""
    sc = model.scenario
    return render_table_csv(sc, lambda ci, si: rat_str(model.tables[ci][si]))


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

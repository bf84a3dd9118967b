"""Workload definitions: pinned inputs, seeded selection, ops and digests.

Every input of the benchmark comes from the pinned universe in
`universe.json`. A member holds a small recipe (the draws that
`amcc.verify.random_no_signaling_model` made, an augmentation plan, a
search call, or a `verify-paper` check name), a cost key used to stratify
the selection, and the sha256 digest of the exact outputs the program gave
when the universe was pinned. The documents the program receives are built
here from the recipes in plain Python, so a change to the program cannot
change its own inputs.

A seed picks one batch per workload: the members of each group are sorted
by cost key, split into as many contiguous strata as the group contributes
ops, and one member is drawn from each stratum. Every seed therefore gets a
batch of the same shape and about the same cost, which keeps run-to-run
spread small while the inputs still change with the seed.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

UNIVERSE_PATH = Path(__file__).resolve().parent / "universe.json"

PARTIES = 4
SCENARIO_DOC = {"parties": PARTIES, "settings": 2, "outcomes": 2}
N_MEASUREMENTS = 2 * PARTIES
# contexts of the (n,2,2) Bell scenario, lexicographic in the setting tuple
CONTEXTS = tuple(
    tuple(2 * p + s for p, s in enumerate(choice))
    for choice in product(range(2), repeat=PARTIES)
)
SECTIONS = 1 << PARTIES

# Each workload is a list of groups (member kind, ops per batch) and the
# number of passes a run makes at BASE_SECONDS. cf-422, families-422 and
# search-422 have 20 ops per batch, so two passes give 40 timed ops and a
# tail percentile with ten ops above it. A verify-paper pass takes twice as
# long as the others, but with one pass each check would be timed once.
BASE_SECONDS = 15
WORKLOADS = {
    "cf-422": {"groups": (("model", 20),), "passes": 2, "scenarios": ((4, 2, 2),)},
    "families-422": {
        "groups": (("reference", 1), ("hit", 5), ("random-det", 5), ("random-parity", 9)),
        "passes": 2,
        "scenarios": ((4, 2, 2),),
    },
    "search-422": {
        "groups": (("reference-counts", 10), ("plus2-counts", 10)),
        "passes": 2,
        "scenarios": ((4, 2, 2),),
    },
    "verify-paper": {
        "groups": (("check", 9),),
        "passes": 2,
        "scenarios": ((2, 2, 2), (3, 2, 2), (4, 2, 2)),
    },
}
TINY_OPS = 2


# ---------------------------------------------------------------------------
# documents from recipes (plain Python, independent of amcc)


def _rat_str(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _global_bit(g, m):
    return (g >> (N_MEASUREMENTS - 1 - m)) & 1


def _term_table(term):
    """Per-context weights of one mixture term: ["parity", vector] is the
    symmetric model of a parity vector, ["det", g] the deterministic model
    of global assignment g."""
    kind, arg = term
    rows = []
    for ci, ctx in enumerate(CONTEXTS):
        row = [Fraction(0)] * SECTIONS
        if kind == "parity":
            want = (arg >> ci) & 1
            for si in range(SECTIONS):
                if bin(si).count("1") & 1 == want:
                    row[si] = Fraction(2, SECTIONS)
        elif kind == "det":
            si = 0
            for m in ctx:
                si = (si << 1) | _global_bit(arg, m)
            row[si] = Fraction(1)
        else:
            raise ValueError(f"unknown term kind {kind!r}")
        rows.append(row)
    return rows


def model_doc(terms):
    """Model JSON for a mixture recipe [[weight, kind, arg], ...] whose
    integer weights are normalized by their sum."""
    total = sum(w for w, _, _ in terms)
    tables = [[Fraction(0)] * SECTIONS for _ in CONTEXTS]
    for w, kind, arg in terms:
        for row, trow in zip(tables, _term_table((kind, arg))):
            for si, x in enumerate(trow):
                row[si] += Fraction(w, total) * x
    return {
        "scenario": dict(SCENARIO_DOC),
        "tables": [[_rat_str(x) for x in row] for row in tables],
    }


def model_support_doc(terms):
    tables = model_doc(terms)["tables"]
    return {
        "scenario": dict(SCENARIO_DOC),
        "tables": [["0" if x == "0" else "1" for x in row] for row in tables],
    }


def plan_support_doc(parities, additions):
    """Support of a parity system augmented with extra sections."""
    tables = []
    for ci in range(len(CONTEXTS)):
        extra = set(additions[ci])
        tables.append(
            [
                "1" if bin(si).count("1") & 1 == parities[ci] or si in extra else "0"
                for si in range(SECTIONS)
            ]
        )
    return {"scenario": dict(SCENARIO_DOC), "tables": tables}


def plan_doc(parities, additions):
    return {
        "scenario": dict(SCENARIO_DOC),
        "parities": list(parities),
        "additions": [list(a) for a in additions],
    }


def build_input(universe, workload, member):
    """The document one op receives."""
    if workload == "cf-422":
        return {"model": model_doc(member["terms"])}
    if workload == "families-422":
        if "terms" in member:
            return {
                "support": model_support_doc(member["terms"]),
                "model": model_doc(member["terms"]),
            }
        return {"support": plan_support_doc(universe["base_parities"], member["additions"])}
    if workload == "search-422":
        empty = [[] for _ in CONTEXTS]
        return {
            "base": plan_doc(universe["base_parities"], empty),
            "counts": member["counts"],
            "trials": member["trials"],
            "seed": member["seed"],
        }
    if workload == "verify-paper":
        return {"argv": ["verify-paper", "--json", "--only", member["id"]]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# seeded, stratified selection


def load_universe():
    with open(UNIVERSE_PATH) as fh:
        return json.load(fh)


def _stratified(members, count, rng):
    ranked = sorted(members, key=lambda m: (m["cost"], m["id"]))
    n = len(ranked)
    if count > n:
        raise ValueError(f"group of {n} members cannot fill {count} ops")
    return [rng.choice(ranked[k * n // count:(k + 1) * n // count]) for k in range(count)]


def select(universe, workload, seed, tiny=False):
    """Members of the batch for (workload, seed), in run order: group by
    group, cheapest stratum first."""
    members = universe["workloads"][workload]
    if tiny:
        # the cheapest members: a batch that runs in about a second
        return sorted(members, key=lambda m: (m["cost"], m["id"]))[:TINY_OPS]
    rng = random.Random(f"{workload}/{seed}")
    batch = []
    for kind, count in WORKLOADS[workload]["groups"]:
        batch.extend(_stratified([m for m in members if m["kind"] == kind], count, rng))
    return batch


# ---------------------------------------------------------------------------
# ops: each takes one input document and returns (exact outputs, extras)
#
# Ops reach amcc through module attributes at call time, so the traced run's
# wrappers see every call.


def _op_cf(amcc, doc):
    res = amcc.affine.classify(amcc.model.model_from_json(doc["model"]))
    rs = amcc.rational.rat_str
    return [rs(res.ncf), rs(res.cf), res.verdict, res.contextuality, res.maximal_marginals], None


def _op_families(amcc, doc):
    family = amcc.affine.solve_support(amcc.possibilistic.support_from_json(doc["support"]))
    if family is None:
        return None, None
    fam = amcc.affine.family_to_json(family)
    out = {"base": fam["base"], "directions": fam["directions"], "bounds": fam["bounds"]}
    if "model" in doc:
        params = amcc.affine.family_member_params(family, amcc.model.model_from_json(doc["model"]))
        out["params"] = None if params is None else [amcc.rational.rat_str(t) for t in params]
    return out, None


def _op_search(amcc, doc):
    base = amcc.csp.plan_from_json(doc["base"]).base
    hits = amcc.csp.search_plans(base, tuple(doc["counts"]), doc["trials"], doc["seed"], threads=1)
    return [[list(a) for a in plan.additions] for plan in hits], None


def _op_verify(amcc, doc):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = amcc.cli.main(doc["argv"])
    report = json.loads(buf.getvalue())
    checks = report["checks"]
    out = [[c["name"], c["passed"]] for c in checks] + [code]
    return out, {c["name"]: c["runtime_s"] for c in checks}


OPS = {
    "cf-422": _op_cf,
    "families-422": _op_families,
    "search-422": _op_search,
    "verify-paper": _op_verify,
}


def digest(outputs):
    """sha256 of the canonical JSON of an op's exact outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

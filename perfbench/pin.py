"""Regenerate universe.json: the benchmark's pinned inputs and digests.

    PYTHONPATH=src python3 perfbench/pin.py

Draws the inputs with amcc's own generators (`random_no_signaling_model`,
`search_plans`, the bundled reference plan), checks that the plain-Python
documents in workloads.py reproduce them exactly, runs every op once and
pins the digest of its exact outputs. Takes about eight minutes on a 2-core
VM. Re-pin only for a change that is meant to alter outputs: a pin taken
from a wrong program pins the wrong answer.
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

from worker import REFERENCE_CAL_S, SpeedSampler
from workloads import OPS, UNIVERSE_PATH, build_input, digest, plan_support_doc

N_CF = 192
N_HIT = 48
N_RANDOM_SUPPORT = 96
N_SEARCH_SEEDS = 48
SEARCH_TRIALS = {"reference-counts": 30, "plus2-counts": 100}


def draw_recipe(rng, n_contexts, n_globals):
    """The draws random_no_signaling_model makes, as a mixture recipe."""
    if rng.randrange(4) == 0:
        return [[1, "parity", rng.randrange(1 << n_contexts)]]
    terms = []
    if rng.randrange(2) == 0:
        terms.append(("parity", rng.randrange(1 << n_contexts)))
    for _ in range(rng.randrange(1, 4)):
        terms.append(("det", rng.randrange(n_globals)))
    weights = [rng.randrange(1, 9) for _ in terms]
    return [[w, kind, arg] for w, (kind, arg) in zip(weights, terms)]


def reference_ms(amcc, workload, doc, repeats=3):
    """An op's median time at the reference speed, in ms: the cost key where
    a count such as pivots predicts time too loosely to stratify on."""
    spans = []
    with SpeedSampler() as sampler:
        for _ in range(repeats):
            t0 = time.perf_counter()
            OPS[workload](amcc, doc)
            spans.append((t0, time.perf_counter()))
    times = []
    for t0, t1 in spans:
        cal, sampling = sampler.around(t0, t1)
        times.append((t1 - t0 - sampling) * REFERENCE_CAL_S / cal)
    return round(statistics.median(times) * 1e3)


def write_universe(universe):
    """One member per line, so a re-pin shows up as a readable diff."""
    parts = []
    for name, members in universe["workloads"].items():
        rows = ",\n".join("   " + json.dumps(m) for m in members)
        parts.append(f"  {json.dumps(name)}: [\n{rows}\n  ]")
    with open(UNIVERSE_PATH, "w") as fh:
        fh.write('{"base_parities": ' + json.dumps(universe["base_parities"]) + ",\n")
        fh.write(' "workloads": {\n' + ",\n".join(parts) + "\n }\n}\n")


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import amcc
    import amcc.cli

    sc = amcc.bell_scenario(4, 2, 2)
    ref = amcc.reference_plan()
    universe = {
        "base_parities": list(ref.base.parities),
        "workloads": {},
    }

    def recipe(seed):
        terms = draw_recipe(random.Random(seed), sc.n_contexts, 1 << len(sc.measurements))
        want = amcc.model.model_to_json(amcc.random_no_signaling_model(sc, random.Random(seed)))
        member = {"id": f"model-{seed}", "terms": terms}
        if build_input(universe, "cf-422", member)["model"] != want:
            raise SystemExit(f"recipe of seed {seed} does not reproduce the model")
        return member

    def pin(workload, members):
        for m in members:
            outputs, _ = OPS[workload](amcc, build_input(universe, workload, m))
            m["digest"] = digest(outputs)
        universe["workloads"][workload] = members
        print(f"{workload}: {len(members)} members", file=sys.stderr)

    cf = []
    for seed in range(1000, 1000 + N_CF):
        m = recipe(seed)
        doc = build_input(universe, "cf-422", m)
        pivots = amcc.contextual_fraction(amcc.model_from_json(doc["model"])).pivots
        m.update(kind="model", pivots=pivots, cost=reference_ms(amcc, "cf-422", doc))
        cf.append(m)
    pin("cf-422", cf)

    def slots(doc):
        return sum(row.count("1") for row in doc["tables"])

    families = [{"id": "reference", "kind": "reference", "additions": [list(a) for a in ref.additions]}]
    hits = amcc.search_plans(ref.base, amcc.csp.plan_counts(ref), N_HIT, 7)
    for k, plan in enumerate(hits):
        families.append({"id": f"hit-{k}", "kind": "hit", "additions": [list(a) for a in plan.additions]})
    for m in families:
        m["cost"] = slots(plan_support_doc(universe["base_parities"], m["additions"]))
    for seed in range(2000, 2000 + N_RANDOM_SUPPORT):
        m = recipe(seed)
        # a parity term puts about 130 slots in the support against about
        # 40 without; the two kinds are drawn in fixed numbers
        kind = "random-parity" if any(t[1] == "parity" for t in m["terms"]) else "random-det"
        m.update(kind=kind, cost=slots(build_input(universe, "families-422", m)["support"]))
        families.append(m)
    pin("families-422", families)

    counts = amcc.csp.plan_counts(ref)
    variants = {
        "reference-counts": list(counts),
        "plus2-counts": [min(c + 2, 8) for c in counts],
    }
    search = []
    for kind, trials in SEARCH_TRIALS.items():
        for seed in range(1, 1 + N_SEARCH_SEEDS):
            search.append(
                {"id": f"{kind}-{seed}", "kind": kind, "cost": trials,
                 "counts": variants[kind], "trials": trials, "seed": seed}
            )
    pin("search-422", search)

    checks = []
    for name in amcc.verify.check_names():
        m = {"id": name, "kind": "check"}
        t0 = time.perf_counter()
        outputs, _ = OPS["verify-paper"](amcc, build_input(universe, "verify-paper", m))
        m["cost"] = round((time.perf_counter() - t0) * 1e3)
        m["digest"] = digest(outputs)
        if outputs != [[name, True], 0]:
            raise SystemExit(f"verify-paper check {name} does not pass")
        checks.append(m)
    universe["workloads"]["verify-paper"] = checks

    write_universe(universe)

if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands wrap the library operations one-to-one and share a fixed
exit-code convention: 0 ok, 1 stdout closed by its reader, 2 unreadable
input or unusable argument value, 3 precondition violated, 4 verification
failure, 5 resource limit. Machine formats carry exact rationals as "a/b"
strings; decimals appear only in human output.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache

from .affine import (
    classify,
    family_from_json,
    family_to_csv,
    family_to_json,
    solve_support,
)
from .csp import (
    plan_to_json,
    reconstruct_tables,
    reference_plan,
    report_to_json,
    search_plans,
)
from .errors import PreconditionError, ResourceLimitError, VerificationError
from .lp import contextual_fraction
from .model import (
    _require_no_signaling,
    context_containing,
    is_no_signaling,
    marginalize,
    model_from_json,
    model_to_json,
    party_setting_subsets,
)
from .parity import (
    build_symmetric_model,
    parity_scan,
    parity_system_from_vector,
    vector_hex,
)
from .possibilistic import support_from_json
from .rational import as_float, rat_from_str, rat_str
from .scenario import bell_scenario, scenario_to_json
from .verify import check_names, report_json, report_text, run_checks


class _InputError(Exception):
    """An input file that cannot be read or decoded into the expected shape."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep, too many digits
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _write_csv(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _decode(path, decoder, doc):
    try:
        return decoder(doc)
    except ResourceLimitError:
        raise
    except Exception as exc:
        raise _InputError(f"{path} does not decode: {exc}") from exc


@contextmanager
def _argument_values(what="unusable argument"):
    """A ValueError while building a value from argv (a scenario, parity
    vector, counts or --q) is unusable input, reported as "what: ...";
    a PreconditionError (a ValueError) stays one."""
    try:
        yield
    except PreconditionError:
        raise
    except ValueError as exc:
        raise _InputError(f"{what}: {exc}") from exc


def _load_model(path):
    return _decode(path, model_from_json, _load_json(path))


def _frac(x):
    return f"{x.numerator}/{x.denominator}"


def _dec(x):
    return f"{as_float(x):.6f}"


def _labels(scenario, measurements):
    return " ".join(scenario.measurements[m] for m in measurements)


def _print_doc(doc):
    print(json.dumps(doc, indent=1))


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(args):
    model = _load_model(args.model)
    res = contextual_fraction(model)
    print(f"NCF = {_frac(res.ncf)} ({_dec(res.ncf)})")
    print(f"CF = {_frac(res.cf)} ({_dec(res.cf)})")
    if res.cf == 1:
        verdict = "strongly contextual"
    elif res.cf == 0:
        verdict = "noncontextual"
    else:
        verdict = "contextual"
    print(f"verdict: {verdict}")
    print(f"pivots: {res.pivots}")


def cmd_classify(args):
    if args.q is not None:
        family = _decode(args.path, family_from_json, _load_json(args.path))
        with _argument_values(f"cannot evaluate family at --q {args.q}"):
            model = family.at(rat_from_str(args.q))
    else:
        model = _load_model(args.path)
    cls = classify(model)
    print(cls.verdict)
    print(f"CF = {_frac(cls.cf)} ({_dec(cls.cf)})")
    print(f"maximal marginals: {cls.maximal_marginals}")
    if cls.marginal_witness is not None:
        ms, outs, got, want = cls.marginal_witness
        print(
            f"failing marginal: {_labels(model.scenario, ms)} @ "
            f"{','.join(map(str, outs))} = {_frac(got)} (expected {_frac(want)})"
        )


def cmd_marginals(args):
    model = _load_model(args.model)
    sc = model.scenario
    if sc.parties is None:
        raise PreconditionError("marginals need a scenario with party structure")
    n_parties = len(set(sc.parties))
    if not 1 <= args.k < n_parties:
        raise PreconditionError(f"marginal size must be between 1 and {n_parties - 1}")
    _require_no_signaling(model)
    # every table is computed before any is printed, so a refusal prints none
    tables = [
        (ms, marginalize(model, context_containing(sc, ms), ms))
        for ms in party_setting_subsets(sc)
        if len(ms) == args.k
    ]
    for ms, table in tables:
        cells = " ".join(_frac(w) for w in table.weights)
        print(f"{_labels(sc, ms)}: {cells}")


def cmd_nosignaling(args):
    model = _load_model(args.model)
    ok, witness = is_no_signaling(model)
    print(f"no-signaling: {ok}")
    if not ok:
        ci, cj, shared, u, a, b = witness
        print(
            f"witness: contexts {ci} and {cj} disagree on "
            f"{_labels(model.scenario, shared)} @ {','.join(map(str, u))}: "
            f"{_frac(a)} vs {_frac(b)}"
        )
        return 4
    return 0


def cmd_parity_scan(args):
    with _argument_values():
        sc = bell_scenario(args.parties, args.settings, 2)
    scan = parity_scan(sc)
    examples = [vector_hex(v, scan.n_contexts) for v in scan.examples]
    if args.json:
        _print_doc(
            {
                "scenario": scenario_to_json(sc),
                "total": scan.total,
                "satisfiable": scan.satisfiable,
                "unsatisfiable": scan.unsatisfiable,
                "rank": scan.rank,
                "unsatisfiable_examples": examples,
            }
        )
        return
    print(
        f"scenario: ({args.parties},{args.settings},2), "
        f"{scan.n_contexts} contexts, {scan.total} parity vectors"
    )
    print(f"satisfiable: {scan.satisfiable} (= 2^{scan.rank})")
    print(f"unsatisfiable: {scan.unsatisfiable}")
    print(f"unsatisfiable examples: {' '.join(examples)}")


def cmd_emit_parity_model(args):
    with _argument_values():
        sc = bell_scenario(args.parties, args.settings, 2)
        system = parity_system_from_vector(sc, args.vector)
    _print_doc(model_to_json(build_symmetric_model(system)))


def cmd_solve_support(args):
    support = _decode(args.support, support_from_json, _load_json(args.support))
    family = solve_support(support)
    if family is None:
        print("support admits no distribution", file=sys.stderr)
        return 4
    if args.csv:
        # rendered before the file is opened, so a refusal leaves it as it was
        _write_csv(args.csv, family_to_csv(family))
    _print_doc(family_to_json(family))


def cmd_reconstruct_tables(args):
    try:
        family, report = reconstruct_tables()
    except VerificationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        if exc.details is not None:
            print(json.dumps(exc.details, indent=1, default=rat_str), file=sys.stderr)
        return 4
    if args.csv:
        _write_csv(args.csv, family_to_csv(family))
    if args.json:
        _print_doc(report_to_json(report))
        return
    lo, hi = report.bounds
    print("PASS: reconstructed tables match the frozen transcription")
    print(f"dimension: {report.dimension}")
    print(f"parameter interval: [{_frac(lo)}, {_frac(hi)}]")
    if args.csv:
        print(f"csv written to {args.csv}")
    else:
        print(family_to_csv(family), end="")


def cmd_search_plans(args):
    with _argument_values():
        sc = bell_scenario(args.parties, args.settings, 2)
        if args.vector is not None:
            base = parity_system_from_vector(sc, args.vector)
        elif (args.parties, args.settings) == (4, 2):
            base = reference_plan().base
        else:
            raise PreconditionError("--vector is required away from the (4,2,2) scenario")
        counts = tuple(int(c) for c in args.counts.split(","))
    hits = search_plans(base, counts, args.trials, args.seed)
    _print_doc(
        {
            "scenario": scenario_to_json(sc),
            "parities": list(base.parities),
            "counts": list(counts),
            "trials": args.trials,
            "seed": args.seed,
            "hit_count": len(hits),
            "hits": [plan_to_json(p)["additions"] for p in hits],
        }
    )


def cmd_verify_paper(args):
    names = args.only.split(",") if args.only else None
    report = run_checks(names)
    if args.json:
        _print_doc(report_json(report))
    else:
        print(report_text(report))
    return 0 if report.overall else 4


# ---------------------------------------------------------------------------
# parser


@lru_cache(maxsize=1)  # parse_args keeps no state, so main reuses one parser
def build_parser():
    parser = argparse.ArgumentParser(
        prog="amcc",
        description="Exact contextuality analysis: contextual fraction, "
        "parity scans, support solving, and the bundled reproduction suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="contextual fraction of a model file")
    p.add_argument("model", help="model JSON file")
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("classify", help="AMCC / non-AMCC / not maximal")
    p.add_argument("path", help="model JSON file, or family JSON with --q")
    p.add_argument("--q", help="evaluate a family file at this rational, e.g. 1/8")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("marginals", help="k-party one-setting marginals")
    p.add_argument("model", help="model JSON file")
    p.add_argument("k", type=int, help="marginal size")
    p.set_defaults(fn=cmd_marginals)

    p = sub.add_parser("nosignaling", help="check the no-signaling equalities")
    p.add_argument("model", help="model JSON file")
    p.set_defaults(fn=cmd_nosignaling)

    p = sub.add_parser("parity-scan", help="scan all parity vectors of a scenario")
    p.add_argument("parties", type=int)
    p.add_argument("settings", type=int)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_parity_scan)

    p = sub.add_parser(
        "emit-parity-model", help="symmetric model of one parity vector as JSON"
    )
    p.add_argument("parties", type=int)
    p.add_argument("settings", type=int)
    p.add_argument(
        "vector", type=lambda s: int(s, 0), help="parity vector, e.g. 0x1c00"
    )
    p.set_defaults(fn=cmd_emit_parity_model)

    p = sub.add_parser(
        "solve-support", help="distributions on a 0/1 support, as an affine family"
    )
    p.add_argument("support", help="support JSON file")
    p.add_argument("--csv", help="also render the symbolic table to this file")
    p.set_defaults(fn=cmd_solve_support)

    p = sub.add_parser(
        "reconstruct-tables",
        help="rebuild the bundled reference family and diff it against the "
        "frozen transcription",
    )
    p.add_argument("--csv", help="write the symbolic table to this file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_reconstruct_tables)

    p = sub.add_parser(
        "search-plans", help="seeded random search for augmented parity supports"
    )
    p.add_argument("--parties", type=int, default=4)
    p.add_argument("--settings", type=int, default=2)
    p.add_argument(
        "--vector",
        type=lambda s: int(s, 0),
        help="base parity vector (default: the bundled reference base)",
    )
    p.add_argument(
        "--counts", required=True, help="comma-separated additions per context"
    )
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_search_plans)

    p = sub.add_parser("verify-paper", help="run the bundled reproduction suite")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--only",
        help="comma-separated subset of checks: " + ", ".join(check_names()),
    )
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or --help
        return exc.code
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: what is left of the output, and the
        # flush at exit, go to os.devnull, as the signal module's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        if exc.details is not None:
            print(json.dumps(exc.details, indent=1, default=rat_str), file=sys.stderr)
        return 4
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 5
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end CLI behavior: output text, file handling, exit codes."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import amcc.affine
import amcc.csp
import amcc.lp
import amcc.model
import amcc.scenario
from amcc.cli import build_parser, main
from amcc.csp import apply_plan, reference_plan, reconstruct_tables
from amcc.model import (
    deterministic_model,
    mix_models,
    model_from_json,
    model_to_json,
    parity_amcc_422,
    pr_box,
    uniform_model,
)
from amcc.possibilistic import SupportModel, support_of, support_to_json
from amcc.rational import rat
from amcc.scenario import MeasurementScenario, bell_scenario, overlap_rows
from amcc.verify import random_no_signaling_model


@pytest.fixture
def run(capsys):
    def _main(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _main


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def pr_file(tmp_path):
    return _write_json(tmp_path / "pr.json", model_to_json(pr_box(0)))


@pytest.fixture
def amcc_file(tmp_path):
    return _write_json(tmp_path / "amcc.json", model_to_json(parity_amcc_422()))


@pytest.fixture
def signaling_file(tmp_path):
    doc = model_to_json(deterministic_model(bell_scenario(2, 2, 2), 0))
    doc["tables"][1] = ["1/2", "0", "0", "1/2"]
    return _write_json(tmp_path / "bad.json", doc)


# ---------------------------------------------------------------------------
# cf


def test_cf_on_a_pr_box(run, pr_file):
    code, out, err = run("cf", pr_file)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "NCF = 0/1 (0.000000)"
    assert lines[1] == "CF = 1/1 (1.000000)"
    assert lines[2] == "verdict: strongly contextual"
    assert lines[3].startswith("pivots: ")


def test_cf_on_the_uniform_model(run, tmp_path):
    path = _write_json(
        tmp_path / "u.json", model_to_json(uniform_model(bell_scenario(2, 2, 2)))
    )
    code, out, _ = run("cf", path)
    assert code == 0
    assert "CF = 0/1 (0.000000)" in out
    assert "verdict: noncontextual" in out


def test_cf_on_a_noisy_pr_box(run, tmp_path):
    sc = bell_scenario(2, 2, 2)
    noisy = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    path = _write_json(tmp_path / "noisy.json", model_to_json(noisy))
    code, out, _ = run("cf", path)
    assert code == 0
    assert "CF = 1/2 (0.500000)" in out
    assert "verdict: contextual" in out


@pytest.mark.parametrize("cmd", ["cf", "classify"])
def test_a_fraction_its_weights_do_not_attain_exits_4(run, tmp_path, monkeypatch, cmd):
    # 3/4 PR + 1/4 uniform has ncf 1/2; this solver claims 1, priced 1 on
    # context 0's slots, which passes the price check but not the weights.
    # Its results are numerators over det, and context 0's rhs totals the
    # rhs's scale, the weight 1
    solve = amcc.lp.simplex_solve

    def lying_solve(incidence, rhs):
        _, x, prices, det, pivots = solve(incidence, rhs)
        return det * sum(rhs[:4]), x, (det,) * 4 + (0,) * (len(prices) - 4), det, pivots

    monkeypatch.setattr(amcc.lp, "simplex_solve", lying_solve)
    sc = bell_scenario(2, 2, 2)
    noisy = mix_models([(rat(3, 4), pr_box(0)), (rat(1, 4), uniform_model(sc))])
    code, out, err = run(cmd, _write_json(tmp_path / "noisy.json", model_to_json(noisy)))
    assert (code, out) == (4, "")
    head, details = err.split("\n", 1)
    assert head == "verification failure: weights differ from the noncontextual fraction"
    assert json.loads(details) == {"total": "1/2", "ncf": "1"}


def test_cf_exit_codes_on_bad_input(run, tmp_path):
    code, _, err = run("cf", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run("cf", str(bad))
    assert code == 2 and "not valid JSON" in err
    shapeless = _write_json(tmp_path / "shapeless.json", {"hello": 1})
    code, _, err = run("cf", shapeless)
    assert code == 2 and "does not decode" in err


@pytest.mark.parametrize(
    "raw",
    [
        b"[" * 1000 + b"]" * 1000,
        b"\xff\xfe{}",
        b'{"scenario": {"parties": 2, "settings": 2, "outcomes": 2}, "tables": [['
        + b"1" * 5000
        + b"]]}",
    ],
    ids=["nested-1000-deep", "utf16-mark", "5000-digits"],
)
def test_json_the_reader_cannot_take_exits_2(run, tmp_path, raw):
    # nesting past the recursion limit, bytes that are not UTF-8, and an
    # integer past the interpreter's digit limit each escaped main as a
    # traceback (exit 1); no interpreter-wide setting is changed for them
    path = tmp_path / "probe.json"
    path.write_bytes(raw)
    code, out, err = run("cf", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("classify",), ("marginals", "2")])
def test_parties_the_cover_never_joins_exit_3(run, tmp_path, argv):
    # Y1 is a party of its own that no context pairs with Y1', the only
    # measurement of another party: the marginal over both is undefined
    doc = model_to_json(pr_box(0))
    sc = bell_scenario(2, 2, 2)
    doc["scenario"] = {
        "measurements": list(sc.measurements),
        "outcomes": list(sc.outcomes),
        "cover": [list(ctx) for ctx in sc.cover],
        "parties": [5, 0, 1, 1],
    }
    code, out, err = run(argv[0], _write_json(tmp_path / "parties.json", doc), *argv[1:])
    # refused before any output: no partial list of marginals
    assert (code, out) == (3, "")
    assert err == "error: no context contains measurements (1, 0)\n"


def test_argparse_refusals_and_help_are_returned_as_exit_codes(capsys):
    assert main(["emit-parity-model", "2", "2", "zz"]) == 2
    assert "invalid <lambda> value: 'zz'" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: amcc")


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the pipe's read end is closed before the process starts, so its first
    # write to stdout fails; neither the command nor the flush at exit
    # prints a traceback or "Exception ignored"
    src = str(Path(amcc.scenario.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "amcc.cli", "emit-parity-model", "4", "2", "0x1c00"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("cmd", ["nosignaling", "cf"])
def test_the_overlap_table_guard_trips_before_any_table_is_built(
    run, tmp_path, monkeypatch, cmd
):
    # (4,2,2): each of 256 slots projects for at most 15 other contexts. A
    # (9,2,2) model, 511 x 262144 = 133955584 cells, is over the real
    # limit the same way; its table is never built here
    path = _write_json(tmp_path / "u.json", model_to_json(uniform_model(bell_scenario(4, 2, 2))))
    monkeypatch.setattr(amcc.scenario, "MAX_TABLE_CELLS", 15 * 256 - 1)
    overlap_rows.cache_clear()
    code, out, err = run(cmd, path)
    assert (code, out) == (5, "")
    assert err == (
        "resource limit: 3840 cells in the overlap table of 15 x 256 is over the limit 3839\n"
    )
    assert overlap_rows.cache_info().currsize == 0


@pytest.mark.parametrize(
    "explicit, path, value",
    [
        (False, ("parties",), 2.9),
        (False, ("settings",), 2.0),
        (False, ("outcomes",), 2.0),
        (True, ("outcomes", 0), 2.6),
        (True, ("cover", 1, 1), 3.2),
        (True, ("parties", 3), 1.0),
    ],
)
def test_cf_refuses_a_float_in_an_integer_scenario_field(run, tmp_path, explicit, path, value):
    # int() would truncate each float to the PR box's own scenario, so cf
    # would print CF = 1/1 and exit 0
    doc = model_to_json(pr_box(0))
    if explicit:
        sc = bell_scenario(2, 2, 2)
        doc["scenario"] = {
            "measurements": list(sc.measurements),
            "outcomes": list(sc.outcomes),
            "cover": [list(ctx) for ctx in sc.cover],
            "parties": list(sc.parties),
        }
    code, out, _ = run("cf", _write_json(tmp_path / "ints.json", doc))
    assert code == 0 and "CF = 1/1" in out
    *keys, last = path
    target = doc["scenario"]
    for key in keys:
        target = target[key]
    target[last] = value
    code, out, err = run("cf", _write_json(tmp_path / "floats.json", doc))
    assert code == 2 and out == ""
    assert "does not decode" in err and "refusing float" in err


def _one_outcome_bell_doc():
    """A uniform model over the (2,2,2) cover whose first measurement has
    one outcome, its scenario written out."""
    sc = bell_scenario(2, 2, 2)
    sc = MeasurementScenario(sc.measurements, (1, 2, 2, 2), sc.cover, sc.parties)
    doc = model_to_json(uniform_model(sc))
    doc["scenario"] = {
        "measurements": list(sc.measurements),
        "outcomes": list(sc.outcomes),
        "cover": [list(ctx) for ctx in sc.cover],
        "parties": list(sc.parties),
    }
    return doc


@pytest.mark.parametrize(
    "doc, path",
    [
        (model_to_json(uniform_model(bell_scenario(1, 2, 2))), ("parties",)),
        (_one_outcome_bell_doc(), ("outcomes", 0)),
    ],
    ids=["parties", "outcomes"],
)
def test_cf_refuses_a_bool_in_an_integer_scenario_field(run, tmp_path, doc, path):
    # int() reads true as 1: {"parties": true, ...} decoded to a one-party
    # scenario and "outcomes": [true, 2, 2, 2] to (1, 2, 2, 2), and cf on
    # a model over either exited 0
    code, out, _ = run("cf", _write_json(tmp_path / "ints.json", doc))
    assert code == 0 and "CF = 0" in out
    *keys, last = path
    target = doc["scenario"]
    for key in keys:
        target = target[key]
    assert target[last] == 1
    target[last] = True
    code, out, err = run("cf", _write_json(tmp_path / "bools.json", doc))
    assert code == 2 and out == ""
    assert "does not decode" in err and "refusing bool True" in err


@pytest.mark.parametrize(
    "doc, path",
    [
        (model_to_json(pr_box(0)), ("parties",)),
        (_one_outcome_bell_doc(), ("cover", 0, 0)),
    ],
    ids=["parties", "cover"],
)
def test_cf_refuses_an_integer_string_in_an_integer_scenario_field(run, tmp_path, doc, path):
    # int() parses "2": {"parties": "2", ...} and a cover entry "0" decoded
    # to the scenario the integers name, and cf on a model over it exited 0
    *keys, last = path
    target = doc["scenario"]
    for key in keys:
        target = target[key]
    target[last] = str(target[last])
    code, out, err = run("cf", _write_json(tmp_path / "strings.json", doc))
    assert code == 2 and out == ""
    assert "does not decode" in err and f"refusing str {target[last]!r}" in err
    assert "Traceback" not in err


def test_cf_rejects_a_signaling_model(run, signaling_file):
    code, _, err = run("cf", signaling_file)
    assert code == 3
    assert "error:" in err and "signaling" in err


def test_cf_refuses_an_oversized_scenario(run, tmp_path):
    # the guard trips on parties and settings alone, before any context exists
    doc = {"scenario": {"parties": 30, "settings": 2, "outcomes": 2}, "tables": []}
    code, out, err = run("cf", _write_json(tmp_path / "big.json", doc))
    assert code == 5 and out == ""
    assert "resource limit:" in err and "contexts" in err


def test_cf_refuses_an_explicit_scenario_with_too_many_contexts(run, tmp_path):
    # 1025 two-measurement contexts over 46 binary measurements: the guard
    # trips on the cover's length, before its pairwise antichain check
    pairs = [[a, b] for a in range(46) for b in range(a + 1, 46)][:1025]
    doc = {
        "scenario": {
            "measurements": [f"m{i}" for i in range(46)],
            "outcomes": [2] * 46,
            "cover": pairs,
        },
        "tables": [],
    }
    code, out, err = run("cf", _write_json(tmp_path / "wide.json", doc))
    assert code == 5 and out == ""
    assert "resource limit:" in err and "1025 contexts" in err


def test_classify_refuses_an_oversized_scenario_before_any_allocation(run, tmp_path):
    # a chain of 21 binary measurements, contexts {m_i, m_i+1}: a small,
    # no-signaling model whose 2^21 global assignments trip the scan limit
    # before the incidence matrix or any tableau is built
    doc = {
        "scenario": {
            "measurements": [f"m{i}" for i in range(21)],
            "outcomes": [2] * 21,
            "cover": [[i, i + 1] for i in range(20)],
        },
        "tables": [["1/4"] * 4 for _ in range(20)],
    }
    code, out, err = run("classify", _write_json(tmp_path / "chain.json", doc))
    assert code == 5 and out == ""
    assert "resource limit:" in err and "2097152 global assignments" in err


@pytest.mark.parametrize("cmd", ["cf", "classify"])
def test_cf_and_classify_refuse_a_six_party_tableau(run, tmp_path, cmd):
    # (6,2,2) passes the table guard with a 16 MiB incidence matrix, but its
    # tableau would hold 4097 x 8193 Python ints; the guard trips before it
    # is built
    doc = model_to_json(uniform_model(bell_scenario(6, 2, 2)))
    code, out, err = run(cmd, _write_json(tmp_path / "six.json", doc))
    assert code == 5 and out == ""
    assert "resource limit:" in err and "simplex tableau of 4097 x 8193" in err


def _one_outcome_parties(n):
    # n one-outcome parties of one setting each, in one context: every
    # decoder guard passes, but the party subsets number 2**n - 2
    return {
        "scenario": {
            "measurements": [f"Y{i + 1}" for i in range(n)],
            "outcomes": [1] * n,
            "cover": [list(range(n))],
            "parties": list(range(n)),
        },
        "tables": [["1"]],
    }


def test_classify_refuses_a_40_party_marginal_table_before_listing_it(run, tmp_path, monkeypatch):
    def no_walk(scenario):
        raise AssertionError("the party subsets were listed")

    monkeypatch.setattr(amcc.model, "party_setting_subsets", no_walk)
    code, out, err = run("classify", _write_json(tmp_path / "m40.json", _one_outcome_parties(40)))
    assert code == 5 and out == ""
    assert "resource limit: 1099511627774 rows in the party-marginal table" in err


def test_marginals_of_40_parties_walk_only_the_asked_size(run, tmp_path):
    path = _write_json(tmp_path / "m40.json", _one_outcome_parties(40))
    code, out, _ = run("marginals", path, "1")
    assert code == 0
    assert out.splitlines() == [f"Y{i + 1}: 1/1" for i in range(40)]
    code, out, _ = run("marginals", path, "39")
    assert code == 0 and len(out.splitlines()) == 40
    code, out, err = run("marginals", path, "20")
    assert code == 5 and out == ""
    assert "137846528820 rows in the party-marginal table" in err


# ---------------------------------------------------------------------------
# classify


def test_classify_model_files(run, amcc_file, pr_file):
    code, out, _ = run("classify", amcc_file)
    assert code == 0
    assert out.splitlines()[0] == "AMCC"
    code, out, _ = run("classify", pr_file)
    assert out.splitlines()[0] == "AMCC"


@pytest.fixture
def family_file(tmp_path):
    from amcc.affine import family_to_json

    family, _ = reconstruct_tables()
    return _write_json(tmp_path / "family.json", family_to_json(family))


def test_classify_family_at_the_endpoints(run, family_file):
    code, out, _ = run("classify", family_file, "--q", "1/8")
    assert code == 0
    assert out.splitlines()[0] == "AMCC"
    assert "maximal marginals: True" in out

    code, out, _ = run("classify", family_file, "--q", "3/16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "non-AMCC"
    assert "CF = 1/1 (1.000000)" in out
    assert "maximal marginals: False" in out
    assert "failing marginal: Y4 @ 0 = 3/4 (expected 1/2)" in out


def test_classify_family_outside_the_interval(run, family_file):
    code, _, err = run("classify", family_file, "--q", "1/16")
    assert code == 3
    assert "error:" in err


def test_classify_family_bad_parameter_is_an_input_error(run, family_file, tmp_path):
    from amcc.affine import family_to_json, solve_support

    code, _, err = run("classify", family_file, "--q", "abc")
    assert code == 2
    assert "cannot evaluate family at --q abc" in err

    sc = bell_scenario(2, 2, 2)
    sup = SupportModel(sc, (0b1001, 0b1001, 0b1001, 0b0110))
    fixed = solve_support(sup)
    assert fixed.dimension == 0
    path = _write_json(tmp_path / "dim0.json", family_to_json(fixed))
    code, _, err = run("classify", path, "--q", "1/8")
    assert code == 2
    assert "cannot evaluate family at --q 1/8" in err


@pytest.mark.parametrize("parameters", ["q", {"q": 1}], ids=["string", "object"])
def test_classify_refuses_family_parameters_that_are_not_a_list(run, tmp_path, parameters):
    from amcc.affine import family_to_json

    family, _ = reconstruct_tables()
    doc = dict(family_to_json(family), parameters=parameters)
    code, out, err = run("classify", _write_json(tmp_path / "family.json", doc), "--q", "1/8")
    assert (code, out) == (2, "")
    assert re.search("expected a list, got (a string|an object)$", err.strip())


@pytest.mark.parametrize("name", [1, None, ["q"], ""], ids=["number", "null", "list", "empty"])
def test_classify_refuses_family_parameter_names_that_are_not_nonempty_strings(
    run, tmp_path, name
):
    from amcc.affine import family_to_json

    family, _ = reconstruct_tables()
    doc = dict(family_to_json(family), parameters=[name])
    code, out, err = run("classify", _write_json(tmp_path / "family.json", doc), "--q", "1/8")
    assert (code, out) == (2, "")
    assert "parameters must be " in err


@pytest.mark.parametrize(
    "field, value",
    [("outcomes", "2222"), ("cover", [[0, 2], "03", [1, 2], [1, 3]]), ("measurements", {"a": 1})],
    ids=["outcomes", "context", "measurements"],
)
def test_cf_refuses_a_scenario_with_a_string_or_an_object_for_a_list(run, tmp_path, field, value):
    doc = model_to_json(pr_box(0))
    doc["scenario"] = {
        "measurements": ["Y1", "Y1'", "Y2", "Y2'"],
        "outcomes": [2, 2, 2, 2],
        "cover": [[0, 2], [0, 3], [1, 2], [1, 3]],
        field: value,
    }
    code, out, err = run("cf", _write_json(tmp_path / "model.json", doc))
    assert (code, out) == (2, "")
    assert re.search("expected a list, got (a string|an object)$", err.strip())


@pytest.mark.parametrize(
    "labels",
    [[1, 2, 3, 4], [None, True, "c", "d"], ["a", 1.5, "c", "d"], ["a", "", "c", "d"]],
    ids=["ints", "null-and-bool", "float", "empty"],
)
@pytest.mark.parametrize("cmd", ["cf", "classify", "nosignaling"])
def test_measurement_labels_that_are_not_nonempty_strings_exit_2(run, tmp_path, labels, cmd):
    # on this signaling model each command once failed joining the labels
    # into its message, with a TypeError and exit 1
    doc = model_to_json(deterministic_model(bell_scenario(2, 2, 2), 0))
    doc["tables"][1] = ["1/2", "0", "0", "1/2"]
    doc["scenario"] = {
        "measurements": labels,
        "outcomes": [2, 2, 2, 2],
        "cover": [[0, 2], [0, 3], [1, 2], [1, 3]],
    }
    code, out, err = run(cmd, _write_json(tmp_path / "model.json", doc))
    assert (code, out) == (2, "")
    assert "does not decode: measurement labels must be" in err


def test_classify_family_with_no_feasible_parameter(run, tmp_path):
    # the one-parameter family on this support holds -1 at a slot its
    # direction leaves at 0: every q gives a negative weight
    sup = SupportModel(bell_scenario(2, 2, 2), (13, 2, 10, 13))
    path = _write_json(tmp_path / "sup.json", support_to_json(sup))
    code, out, _ = run("solve-support", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"] == ["q"] and doc["bounds"] is None
    family = _write_json(tmp_path / "family.json", doc)
    code, out, err = run("classify", family, "--q", "0")
    assert code == 3 and out == ""
    assert "no value of q is feasible" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# marginals and no-signaling


def test_marginals_of_the_reference_model(run, amcc_file):
    code, out, _ = run("marginals", amcc_file, "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "Y1: 1/2 1/2"
    assert lines[-1] == "Y4': 1/2 1/2"
    code, out, _ = run("marginals", amcc_file, "3")
    assert len(out.splitlines()) == 32
    assert all(": 1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8" in l for l in out.splitlines())


def test_marginals_refuses_a_signaling_model(run, signaling_file):
    # it once printed context 0's marginals and exited 0
    code, out, err = run("marginals", signaling_file, "1")
    assert (code, out) == (3, "")
    assert "model is signaling: contexts 0 and 1 disagree on Y1 @ 0: 1 vs 1/2" in err


def test_marginals_size_validation(run, amcc_file):
    code, _, err = run("marginals", amcc_file, "0")
    assert code == 3 and "between 1 and 3" in err
    code, _, err = run("marginals", amcc_file, "4")
    assert code == 3


def test_nosignaling_verdicts(run, pr_file, signaling_file):
    code, out, _ = run("nosignaling", pr_file)
    assert code == 0
    assert out.splitlines()[0] == "no-signaling: True"
    code, out, _ = run("nosignaling", signaling_file)
    assert code == 4
    assert "no-signaling: False" in out
    assert "witness: contexts 0 and 1 disagree on Y1 @ 0: 1/1 vs 1/2" in out


# ---------------------------------------------------------------------------
# parity scans


def test_parity_scan_text(run):
    code, out, _ = run("parity-scan", "2", "2")
    assert code == 0
    assert "scenario: (2,2,2), 4 contexts, 16 parity vectors" in out
    assert "satisfiable: 8 (= 2^3)" in out
    assert "unsatisfiable: 8" in out
    assert "0x1 0x2 0x4 0x7" in out


def test_parity_scan_json(run):
    code, out, _ = run("parity-scan", "4", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "kernel" not in doc
    assert doc["total"] == 65536
    assert doc["satisfiable"] == 32
    assert doc["unsatisfiable"] == 65504
    assert doc["rank"] == 5
    assert len(doc["unsatisfiable_examples"]) == 8


def test_parity_scan_answers_past_an_enumerable_vector_count(run):
    # 2^32 and 2^27 parity vectors: elimination counts them without a scan
    code, out, _ = run("parity-scan", "5", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 4294967296
    assert doc["satisfiable"] == 64
    assert doc["rank"] == 6
    assert doc["unsatisfiable"] == 4294967232
    assert doc["unsatisfiable_examples"] == [f"0x{v:08x}" for v in range(1, 9)]
    code, out, _ = run("parity-scan", "3", "3")
    assert code == 0
    assert "scenario: (3,3,2), 27 contexts, 134217728 parity vectors" in out
    assert "satisfiable: 128 (= 2^7)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("parity-scan", "2", "2"),
        ("search-plans", "--counts", "0,0,0,0", "--trials", "1", "--seed", "1"),
    ],
)
def test_threads_flag_is_not_accepted(capsys, argv):
    assert main([*argv, "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_parity_scan_resource_limit(run):
    # rank 25: the walk to 8 examples may take 2^25 + 8 span tests
    code, _, err = run("parity-scan", "2", "13")
    assert code == 5
    assert "resource limit:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("emit-parity-model", "21", "1", "0"),
        ("parity-scan", "21", "1"),
        ("search-plans", "--parties", "21", "--settings", "1", "--vector", "0",
         "--counts", "1", "--trials", "1", "--seed", "1"),
    ],
)
def test_one_context_with_too_many_sections_exits_5(run, argv):
    # 21 one-setting parties: a single context of 2^21 sections, refused by
    # the slot limit before its section list is built
    code, out, err = run(*argv)
    assert code == 5 and out == ""
    assert "resource limit: 2097152 slots is over the limit 1048576" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("parity-scan", "0", "2"),
        ("emit-parity-model", "2", "2", "0x100"),
        ("emit-parity-model", "0", "2", "0"),
        ("search-plans", "--counts", "a", "--trials", "1", "--seed", "1"),
        ("search-plans", "--parties", "0", "--settings", "2", "--vector", "0",
         "--counts", "1", "--trials", "1", "--seed", "1"),
        ("search-plans", "--parties", "2", "--settings", "2", "--vector", "0x100",
         "--counts", "1,1,1,1", "--trials", "1", "--seed", "1"),
    ],
)
def test_an_unusable_argument_value_exits_2(run, argv):
    # no parties, a parity vector past 2^contexts, a count that is no
    # integer: each raised ValueError through main before
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: unusable argument: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--counts", ",".join(["0"] * 16), "--trials", "-1"), "trials must be nonnegative"),
        (("--counts", ",".join(["9"] + ["0"] * 15), "--trials", "1"), "count 9 exceeds"),
    ],
)
def test_a_search_precondition_still_exits_3(run, argv, message):
    code, out, err = run("search-plans", *argv, "--seed", "1")
    assert code == 3 and out == ""
    assert message in err


def test_search_plans_refuses_too_many_trials_before_the_first_draw(run, monkeypatch):
    draws = []
    monkeypatch.setattr(amcc.csp, "_draw", lambda *a: draws.append(a))
    code, out, err = run(
        "search-plans", "--counts", ",".join(["1"] * 16), "--trials", "1000000000", "--seed", "1"
    )
    assert (code, out, draws) == (5, "", [])
    assert err == "resource limit: 1000000000 trials is over the limit 65536\n"
    # the limit itself still runs, and one trial past it is refused
    assert amcc.scenario.MAX_TRIALS == 1 << 16
    monkeypatch.setattr(amcc.csp, "MAX_TRIALS", 3)
    none = ",".join(["0"] * 16)
    assert run("search-plans", "--counts", none, "--trials", "3", "--seed", "1")[0] == 0
    assert run("search-plans", "--counts", none, "--trials", "4", "--seed", "1")[0] == 5


@pytest.mark.parametrize("cmd", ["cf", "classify"])
def test_a_simplex_past_its_work_budget_exits_5(run, tmp_path, monkeypatch, cmd):
    # noisy AMCC at 1/2 takes 2294 pivots over a 257 x 513 tableau; a
    # lowered budget stops it part way and the message names the work done
    sc = bell_scenario(4, 2, 2)
    noisy = mix_models([(rat(1, 2), parity_amcc_422()), (rat(1, 2), uniform_model(sc))])
    path = _write_json(tmp_path / "noisy.json", model_to_json(noisy))
    assert amcc.scenario.MAX_SIMPLEX_WORK == 1 << 34
    monkeypatch.setattr(amcc.lp, "MAX_SIMPLEX_WORK", 10**6)
    code, out, err = run(cmd, path)
    assert (code, out) == (5, "")
    found = re.fullmatch(
        r"resource limit: (\d+) cells updated by (\d+) simplex pivots is over the limit 1000000\n",
        err,
    )
    assert found, err
    work, pivots = map(int, found.groups())
    assert 10**6 < work <= 10**6 + 257 * 513 and 0 < pivots < 2294


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(run):
    assert build_parser() is build_parser()
    code, out, _ = run("parity-scan", "2", "2", "--json")
    assert code == 0 and json.loads(out)["total"] == 16
    assert run("parity-scan", "0", "2")[0] == 2
    code, out, _ = run("parity-scan", "2", "2")
    assert code == 0 and out.startswith("scenario: (2,2,2), 4 contexts")


def test_emit_parity_model_roundtrip(run):
    code, out, _ = run("emit-parity-model", "2", "2", "0x7")
    assert code == 0
    assert model_from_json(json.loads(out)) == pr_box(1)
    code, out, _ = run("emit-parity-model", "4", "2", "0x1c00")
    assert code == 0
    assert model_from_json(json.loads(out)) == parity_amcc_422()


# ---------------------------------------------------------------------------
# support solving and reconstruction


def test_solve_support_emits_the_family(run, tmp_path):
    sup = apply_plan(reference_plan())
    path = _write_json(tmp_path / "sup.json", support_to_json(sup))
    csv_path = tmp_path / "table.csv"
    code, out, _ = run("solve-support", path, "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"] == ["q"]
    assert doc["bounds"] == ["1/8", "1/4"]
    assert "2q-1/4" in csv_path.read_text()


def test_solve_support_csv_refusal_leaves_the_file_as_it_was(run, tmp_path):
    # this random model's support has a family of dimension 2, which CSV
    # cannot render: exit 3, and the existing file keeps its bytes
    model = random_no_signaling_model(bell_scenario(3, 2, 2), random.Random(1))
    path = _write_json(tmp_path / "sup.json", support_to_json(support_of(model)))
    csv_path = tmp_path / "table.csv"
    csv_path.write_bytes(b"kept,as,is\n")
    code, out, err = run("solve-support", path, "--csv", str(csv_path))
    assert (code, out) == (3, "")
    assert err == "error: CSV rendering needs dimension <= 1\n"
    assert csv_path.read_bytes() == b"kept,as,is\n"


def test_solve_support_writes_a_regular_non_bell_scenario_explicitly(run, tmp_path):
    # 11 parties of two one-outcome settings, in two contexts: the Bell
    # scenario of that shape has 2**11 contexts, over the Bell limit, so
    # the scenario is echoed in its explicit form
    doc = {
        "measurements": [f"Y{p + 1}" + "'" * s for p in range(11) for s in range(2)],
        "outcomes": [1] * 22,
        "cover": [list(range(0, 22, 2)), list(range(1, 22, 2))],
        "parties": [p for p in range(11) for _ in range(2)],
    }
    path = _write_json(tmp_path / "sup.json", {"scenario": doc, "tables": [["1"], ["1"]]})
    code, out, err = run("solve-support", path)
    assert (code, err) == (0, "")
    family = json.loads(out)
    assert family["scenario"] == doc
    assert (family["base"], family["directions"]) == (["1", "1"], [])


@pytest.mark.parametrize("where", ["missing", "directory"])
@pytest.mark.parametrize("command", ["solve-support", "reconstruct-tables"])
def test_unwritable_csv_path_exits_2_and_names_it(run, tmp_path, command, where):
    # an OSError from opening or writing the CSV is unusable input: exit 2,
    # the path named on stderr, and nothing printed to stdout
    csv_path = tmp_path / "missing" / "t.csv" if where == "missing" else tmp_path
    argv = [command, "--csv", str(csv_path)]
    if command == "solve-support":
        support = support_to_json(apply_plan(reference_plan()))
        argv.insert(1, _write_json(tmp_path / "sup.json", support))
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {csv_path}: ")
    assert ("No such file or directory" if where == "missing" else "Is a directory") in err


def test_solve_support_guard_trips_before_any_array_is_built(run, tmp_path, monkeypatch):
    # the reference support's table keeps 176 pivot rows over 152
    # supported slots: 176 x 153 = 26928 cells, one over the patched limit,
    # so the table is never allocated and nothing is eliminated. The rank
    # profile is cached first, as its own guard (256 x 256) would trip too
    path = _write_json(tmp_path / "sup.json", support_to_json(apply_plan(reference_plan())))
    amcc.affine._pivot_rows(bell_scenario(4, 2, 2))
    monkeypatch.setattr(amcc.affine, "MAX_TABLE_CELLS", 176 * 153 - 1)
    monkeypatch.setattr(amcc.affine, "_gauss_jordan", None)
    code, out, err = run("solve-support", path)
    assert (code, out) == (5, "")
    assert err == (
        "resource limit: 26928 cells in the elimination table of 176 x 153 is over the limit 26927\n"
    )


def test_solve_support_rank_profile_guard_trips_on_4_2_2(run, tmp_path, monkeypatch):
    # 256 slots: 256 x 256 cells, one over the patched limit, checked before
    # the (uncached) rank profile is computed
    path = _write_json(tmp_path / "sup.json", support_to_json(apply_plan(reference_plan())))
    monkeypatch.setattr(amcc.affine, "MAX_TABLE_CELLS", 256 * 256 - 1)
    amcc.affine._pivot_rows.cache_clear()
    code, out, err = run("solve-support", path)
    assert (code, out) == (5, "")
    assert err == (
        "resource limit: 65536 cells in the 256 x 256 rank-profile elimination is over the limit"
        " 65535\n"
    )


def test_solve_support_exits_5_on_7_2_2(run, tmp_path):
    # 16384 slots, 2**28 cells: over MAX_TABLE_CELLS, as cf and classify are
    sc = bell_scenario(7, 2, 2)
    full = SupportModel(sc, tuple((1 << 128) - 1 for _ in range(sc.n_contexts)))
    code, out, err = run("solve-support", _write_json(tmp_path / "sup.json", support_to_json(full)))
    assert (code, out) == (5, "")
    assert "16384 x 16384 rank-profile elimination" in err


def test_solve_support_refuses_a_float_cell(run, tmp_path):
    doc = support_to_json(apply_plan(reference_plan()))
    ints = dict(doc, tables=[[int(cell) for cell in row] for row in doc["tables"]])
    code, out, _ = run("solve-support", _write_json(tmp_path / "ints.json", ints))
    assert code == 0 and json.loads(out)["parameters"] == ["q"]
    floats = dict(ints, tables=[list(row) for row in ints["tables"]])
    floats["tables"][0][floats["tables"][0].index(1)] = 1.0
    code, out, err = run("solve-support", _write_json(tmp_path / "floats.json", floats))
    assert code == 2 and out == ""
    assert "refusing float input" in err


@pytest.mark.parametrize(
    "tables",
    [["1000", "0100", "0010", "0001"], dict.fromkeys(["1000", "0100", "0010", "0001"], 0)],
    ids=["string-rows", "object-table"],
)
def test_cf_refuses_a_table_that_is_not_a_list_of_lists(run, tmp_path, tables):
    # read as characters or keys, this was a no-signaling model, and exit 0
    doc = {"scenario": {"parties": 2, "settings": 2, "outcomes": 2}, "tables": tables}
    code, out, err = run("cf", _write_json(tmp_path / "m.json", doc))
    assert (code, out) == (2, "")
    assert re.search("does not decode: expected a list, got (a string|an object)$", err.strip())


def test_solve_support_refuses_a_row_that_is_a_string(run, tmp_path):
    doc = support_to_json(apply_plan(reference_plan()))
    doc["tables"][0] = "".join(doc["tables"][0])
    code, out, err = run("solve-support", _write_json(tmp_path / "sup.json", doc))
    assert (code, out) == (2, "")
    assert err.strip().endswith("does not decode: expected a list, got a string")


def test_solve_support_infeasible(run, tmp_path):
    sc = bell_scenario(2, 2, 2)
    sup = SupportModel(sc, (0b0011, 0b1100, 0b1111, 0b1111))
    path = _write_json(tmp_path / "bad_sup.json", support_to_json(sup))
    code, out, err = run("solve-support", path)
    assert code == 4
    assert out == ""
    assert "admits no distribution" in err


def test_reconstruct_tables_text_and_determinism(run, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run("reconstruct-tables", "--csv", str(a))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS: reconstructed tables match the frozen transcription"
    assert "dimension: 1" in lines
    assert "parameter interval: [1/8, 1/4]" in lines
    code, _, _ = run("reconstruct-tables", "--csv", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_reconstruct_tables_json(run):
    code, out, _ = run("reconstruct-tables", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["dimension"] == 1
    assert doc["interval"] == ["1/8", "1/4"]


# ---------------------------------------------------------------------------
# search and the reproduction suite


def test_search_plans_envelope(run):
    counts = ",".join(["0"] * 16)
    code, out, _ = run(
        "search-plans", "--counts", counts, "--trials", "3", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hit_count"] == 3
    assert doc["hits"] == [[[] for _ in range(16)] for _ in range(3)]
    assert doc["parities"] == [0] * 10 + [1, 1, 1] + [0] * 3


def test_search_plans_away_from_the_default_needs_a_vector(run):
    code, _, err = run(
        "search-plans", "--parties", "2", "--counts", "0,0,0,0",
        "--trials", "1", "--seed", "0",
    )
    assert code == 3
    assert "--vector is required" in err
    code, out, _ = run(
        "search-plans", "--parties", "2", "--vector", "0x7", "--counts",
        "0,0,0,0", "--trials", "2", "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["hit_count"] == 2


def test_verify_paper_subset(run):
    code, out, _ = run("verify-paper", "--only", "parity-scan-222")
    assert code == 0
    assert "overall: PASS (1/1 checks)" in out
    code, out, _ = run("verify-paper", "--only", "pr-box-cf", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] is True
    assert doc["checks"][0]["passed"] is True


def test_verify_paper_rejects_unknown_checks(run):
    code, _, err = run("verify-paper", "--only", "warp-drive")
    assert code == 3
    assert "unknown checks: 'warp-drive'" in err
    # an empty name, as a stray comma leaves, is named too
    for only in (",", "pr-box-cf,"):
        code, _, err = run("verify-paper", "--only", only)
        assert code == 3
        assert err.strip().endswith("unknown checks: ''")


def test_verify_paper_twice_in_one_process_gives_the_same_rows(run):
    # nothing one run leaves behind (caches included) changes the next; the
    # rows differ only in runtime_s
    rows = []
    for _ in range(2):
        code, out, _ = run("verify-paper", "--json")
        assert code == 0
        doc = json.loads(out)
        for check in doc["checks"]:
            del check["runtime_s"]
        rows.append(doc)
    assert rows[0] == rows[1]

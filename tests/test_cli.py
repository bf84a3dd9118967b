"""End-to-end CLI behavior: output text, file handling, exit codes."""

import json

import pytest

from amcc.cli import main
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
from amcc.possibilistic import SupportModel, support_to_json
from amcc.rational import rat
from amcc.scenario import bell_scenario


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


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


def test_cf_rejects_a_signaling_model(run, signaling_file):
    code, _, err = run("cf", signaling_file)
    assert code == 3
    assert "error:" in err and "signaling" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("parity-scan", "2", "2"),
        ("search-plans", "--counts", "0,0,0,0", "--trials", "1", "--seed", "1"),
    ],
)
def test_threads_flag_is_not_accepted(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_parity_scan_resource_limit(run):
    code, _, err = run("parity-scan", "2", "5")
    assert code == 5
    assert "resource limit:" in err


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
    assert "unknown checks" in err

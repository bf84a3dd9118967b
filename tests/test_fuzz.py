"""Fuzzed documents: small seed documents, mutated a few steps at a time,
go through every JSON decoder and through `main`. A decoder returns or
raises one of the errors that `main` reports; `main` answers every document
with exit 0, 2, 3, 4 or 5, and nothing escapes it.

Some mutations inflate a scenario's parties, settings or outcomes, so that
the size limits trip. Every limit is checked by arithmetic before anything
of that size is built. The examples are derandomized, so every run draws
the same documents.

The same commands also read files fuzzed at the byte level, from the seed
documents' JSON text: truncated, with bits flipped, with bytes that are not
UTF-8, nested up to about 2 KB deep, or with a digit run past the
interpreter's integer-string limit.

The commands that build their scenario from argv (`parity-scan`,
`emit-parity-model` and `search-plans`) are fuzzed the same way over their
arguments: small shapes, parity vectors at both ends of their range, counts
with junk in them and at most 3 trials."""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from amcc.affine import family_from_json, family_to_json, solve_support
from amcc.cli import main
from amcc.csp import AugmentationPlan, plan_from_json, plan_to_json
from amcc.errors import PreconditionError, ResourceLimitError, VerificationError
from amcc.model import model_from_json, model_to_json, pr_box
from amcc.parity import parity_system_from_vector
from amcc.possibilistic import SupportModel, support_from_json, support_to_json
from amcc.scenario import bell_scenario, scenario_from_json, scenario_to_json

SCENARIO = bell_scenario(2, 2, 2)
BELL = scenario_to_json(SCENARIO)
EXPLICIT = {
    "measurements": list(SCENARIO.measurements),
    "outcomes": list(SCENARIO.outcomes),
    "cover": [list(ctx) for ctx in SCENARIO.cover],
    "parties": list(SCENARIO.parties),
}
MODEL = model_to_json(pr_box(0))
MODEL_EXPLICIT = {**MODEL, "scenario": EXPLICIT}
# the PR box's support with one more section in the last context: its
# distributions form a one-parameter family, q in [1/2, 1]
SUPPORT = support_to_json(SupportModel(SCENARIO, (0b1001, 0b1001, 0b1001, 0b0111)))
FAMILY = family_to_json(solve_support(support_from_json(SUPPORT)))
PLAN = plan_to_json(
    AugmentationPlan(parity_system_from_vector(SCENARIO, 0x1), ((0,), (), (), (1,)))
)

# what a decoder may raise: main reports each as exit 2, 3, 4 or 5
REPORTED = (
    ValueError,
    TypeError,
    KeyError,
    PreconditionError,
    VerificationError,
    ResourceLimitError,
)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-2, 4),
    st.sampled_from(["", "x", "1/2", "-1/3", "0", "1", "2", "1/0"]),
    st.just([]),
    st.just({}),
)
# past a size limit, or close to one
INFLATED = st.sampled_from([10, 21, 64, 65, 1025, 1 << 20, 10**12])
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _mutate(draw, node):
    """node with one entry, at some depth, replaced, deleted or repeated."""
    if not isinstance(node, (dict, list)) or not node:
        return draw(LEAVES)
    key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    action = draw(st.sampled_from(["descend", "replace", "delete", "repeat"]))
    if action == "descend":
        node[key] = _mutate(draw, node[key])
    elif action == "replace":
        node[key] = draw(LEAVES)
    elif action == "delete":
        del node[key]
    elif isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = [node[key], copy.deepcopy(node[key])]
    return node


@st.composite
def mutated(draw, seed):
    doc = copy.deepcopy(seed)
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(draw, doc)
    return doc


@st.composite
def inflated(draw, seed):
    """seed with one of its scenario's parties, settings or outcomes set to
    an INFLATED value."""
    doc = copy.deepcopy(seed)
    sc = doc.get("scenario", doc)
    if "measurements" in sc:
        sc["outcomes"][draw(st.integers(0, len(sc["outcomes"]) - 1))] = draw(INFLATED)
    else:
        sc[draw(st.sampled_from(["parties", "settings", "outcomes"]))] = draw(INFLATED)
    return doc


def fuzzed(seed):
    return st.one_of(mutated(seed), inflated(seed))


@FUZZ
@given(
    st.one_of(
        *(
            st.tuples(st.just(decoder), fuzzed(seed))
            for decoder, seed in [
                (scenario_from_json, BELL),
                (scenario_from_json, EXPLICIT),
                (model_from_json, MODEL),
                (model_from_json, MODEL_EXPLICIT),
                (support_from_json, SUPPORT),
                (family_from_json, FAMILY),
                (plan_from_json, PLAN),
            ]
        )
    )
)
def test_decoders_return_or_raise_a_reported_error(case):
    decoder, doc = case
    try:
        decoder(doc)
    except REPORTED:
        pass


def _main_on(path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main([argv[0], str(path), *argv[1:]])


COMMANDS = [
    (("cf",), MODEL),
    (("cf",), MODEL_EXPLICIT),
    (("classify",), MODEL),
    (("nosignaling",), MODEL_EXPLICIT),
    (("marginals", "1"), MODEL),
    (("solve-support",), SUPPORT),
    (("classify", "--q", "3/4"), FAMILY),
]


def test_every_seed_document_runs(tmp_path):
    for argv, seed in COMMANDS:
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(seed))
        assert _main_on(path, argv) == 0, argv


@FUZZ
@given(st.one_of(*(st.tuples(st.just(argv), fuzzed(seed)) for argv, seed in COMMANDS)))
def test_main_answers_every_document_with_an_exit_code(tmp_path_factory, case):
    argv, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert _main_on(path, argv) in (0, 2, 3, 4, 5)


@settings(deadline=None, derandomize=True, database=None)
@given(st.sampled_from(COMMANDS), st.data())
def test_inflated_scenarios_exit_2_or_5(tmp_path_factory, command, data):
    # 2 when the inflated scenario still fits and the tables no longer do
    argv, seed = command
    path = tmp_path_factory.getbasetemp() / "inflated.json"
    path.write_text(json.dumps(data.draw(inflated(seed))))
    assert _main_on(path, argv) in (2, 5)


BYTE_COMMANDS = [
    (("cf",), MODEL),
    (("classify",), MODEL_EXPLICIT),
    (("nosignaling",), MODEL),
    (("marginals", "1"), MODEL),
    (("solve-support",), SUPPORT),
]
NOT_UTF8 = st.sampled_from(
    [b"\xff\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]
)


@st.composite
def _raw(draw, seed):
    """seed's JSON text, truncated, bit-flipped, broken as UTF-8, nested
    around the whole document or one cell, or with one digit made a run."""
    raw = json.dumps(seed).encode()
    kind = draw(st.sampled_from(["truncate", "flip", "utf8", "nest", "digits"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        data = bytearray(raw)
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(data)
    if kind == "utf8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + draw(NOT_UTF8) + raw[at:]
    if kind == "nest":
        depth = draw(st.one_of(st.integers(1, 40), st.integers(900, 1100), st.just(2048)))
        if draw(st.booleans()):
            return b"[" * depth + raw + b"]" * depth
        return raw.replace(b'"0"', b"[" * depth + b'"0"' + b"]" * depth, 1)
    at = draw(st.sampled_from([i for i, b in enumerate(raw) if chr(b).isdigit()]))
    run = draw(st.sampled_from([b"9", b"1", b"0"])) * draw(st.sampled_from([40, 4300, 4301, 5000]))
    return raw[:at] + run + raw[at + 1 :]


@FUZZ
@given(st.one_of(*(st.tuples(st.just(argv), _raw(seed)) for argv, seed in BYTE_COMMANDS)))
def test_main_answers_every_byte_level_file_with_an_exit_code(tmp_path_factory, case):
    argv, raw = case
    path = tmp_path_factory.getbasetemp() / "bytes.json"
    path.write_bytes(raw)
    assert _main_on(path, argv) in (0, 2, 3, 4, 5)


# each trips a limit of bell_scenario before anything is built: the slots
# of one 21-party context, 65 measurements either way, 2048 and 4096
# contexts
OVER_LIMIT_SHAPES = [(21, 1), (65, 1), (1, 65), (11, 2), (6, 4)]
JUNK = st.sampled_from(["", "a", "1.5", " 1", "-1", "0x1", "+1", "1e3", "--", "\u0663"])


@st.composite
def _vector(draw, n_contexts):
    """A parity vector near either end of [0, 2^n_contexts), as argv text."""
    top = 1 << n_contexts
    v = draw(st.one_of(st.integers(-2, 3), st.integers(top - 3, top + 2)))
    return hex(v) if v >= 0 and draw(st.booleans()) else str(v)


@st.composite
def _counts(draw, n_contexts):
    """Comma-separated counts, mostly one per context, sometimes with junk."""
    length = draw(st.sampled_from([n_contexts] * 3 + [1, n_contexts - 1, n_contexts + 1]))
    counts = [draw(st.sampled_from(["0", "0", "1", "1", "2"])) for _ in range(length)]
    if draw(st.integers(0, 3)) == 0:
        counts.insert(draw(st.integers(0, len(counts))), draw(JUNK))
    return ",".join(counts)


@st.composite
def _argv(draw):
    over = draw(st.integers(0, 3)) == 0
    if over:
        # refused before any other argument is used, so those are drawn as
        # for one context
        parties, settings_ = draw(st.sampled_from(OVER_LIMIT_SHAPES))
        n = 1
    else:
        parties, settings_ = draw(st.integers(0, 4)), draw(st.integers(0, 3))
        n = settings_**parties if parties > 0 and settings_ > 0 else 1
    command = draw(st.sampled_from(["parity-scan", "emit-parity-model", "search-plans"]))
    shape = [str(parties), str(settings_)]
    if command == "parity-scan":
        argv = [command, *shape, *draw(st.sampled_from([[], ["--json"]]))]
    elif command == "emit-parity-model":
        argv = [command, *shape, draw(_vector(n))]
    else:
        # without --vector only (4,2) has a base
        vector = None if draw(st.integers(0, 3)) == 0 else draw(_vector(n))
        argv = [
            command, "--parties", shape[0], "--settings", shape[1],
            *([] if vector is None else [f"--vector={vector}"]),
            f"--counts={draw(_counts(n))}",
            "--trials", str(draw(st.integers(-1, 3))),
            "--seed", str(draw(st.integers(0, 2**32))),
        ]
    return over, argv


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@FUZZ
@given(_argv())
def test_main_answers_every_argv_with_an_exit_code(case):
    over, argv = case
    code = _exit_code(argv)
    assert code in (0, 2, 3, 4, 5), argv
    if over:
        assert code == 5, argv

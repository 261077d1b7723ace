import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kadlab import evsets
from kadlab import cli
from kadlab.cli import _build_parser, main
from kadlab.files import dump_model, load_model
from kadlab.terms import MAX_DEPTH

PROGRAM_TEXT = """
states: 1 2 3
rel x = {(1,2)}
rel y = {(2,3)}
test p = {(1,1)}
test q = {(3,3)}
pre: p
post: q
program: x ; y
"""


@pytest.fixture
def progfile(tmp_path):
    path = tmp_path / "seq.kat"
    path.write_text(PROGRAM_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_axioms_pass(capsys):
    code, out, _ = run(capsys, "check-axioms", "--builtin", "lemma4",
                       "--profile", "kat")
    assert code == 0
    assert "result: PASS" in out


def test_check_axioms_missing_table(capsys):
    code, _, err = run(capsys, "check-axioms", "--builtin", "lemma4",
                       "--profile", "kad")
    assert code == 2
    assert "error:" in err


def test_check_phi_exit_codes(capsys):
    code, out, _ = run(capsys, "check-phi", "--builtin", "lemma4")
    assert code == 1
    assert "x=a y=a p=1 q=0" in out
    code, out, _ = run(capsys, "check-phi", "--builtin", "rel2")
    assert code == 0
    assert "phi: holds" in out


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--builtin", "lemma4",
                       "--term", "1 ; a ; a ; !0")
    assert code == 0
    assert out.strip().endswith("= 0")


def test_eval_with_env(capsys):
    code, out, _ = run(capsys, "eval", "--builtin", "lemma4",
                       "--term", "x ; x", "--env", "x=a")
    assert code == 0
    assert out.strip().endswith("= 0")


def test_eval_binds_relation_literals_with_several_pairs(capsys):
    code, out, _ = run(capsys, "eval", "--builtin", "rel2", "--term", "x ; y",
                       "--env", "x={(1,2),(2,1)}, y={(1,1),(2,2)}")
    assert code == 0
    assert out.strip().endswith("= {(1,2),(2,1)}")


@pytest.mark.parametrize("env", ["x=", "x", "x={(1,2)"])
def test_eval_rejects_bad_bindings(capsys, env):
    code, _, err = run(capsys, "eval", "--builtin", "rel2",
                       "--term", "x ; x", "--env", env)
    assert code == 2 and err.startswith("error:")


def test_eval_classifies_tests_from_model(capsys):
    # q resolves to the test element 1, so !q is well-sorted
    code, out, _ = run(capsys, "eval", "--builtin", "lemma4",
                       "--term", "!q", "--env", "q=1")
    assert code == 0
    assert out.strip().endswith("= 0")


def test_find_models_output_parses_back(capsys, tmp_path):
    code, out, _ = run(capsys, "find-models", "--size", "3",
                       "--profile", "kat", "--constraint", "phi-fails")
    assert code == 0
    assert "found: 1" in out
    # the emitted model block must load as a model file
    block = "\n".join(line for line in out.splitlines()
                      if line and not line.startswith(("#", "found:")))
    from kadlab.files import load_model
    from kadlab.algebra import Profile, check_axioms
    m = load_model(block, name="emitted")
    assert check_axioms(m, Profile.KAT).passed


@pytest.mark.parametrize("profile", ["kat", "kad"])
def test_every_find_models_block_loads_back(capsys, profile):
    code, out, _ = run(capsys, "find-models", "--size", "4",
                       "--profile", profile)
    *blocks, found = out.split("\n\n")
    assert (code, found) == (0, f"found: {len(blocks)}\n")
    for k, block in enumerate(blocks, start=1):
        comment, _, dump = block.partition("\n")
        assert comment == f"# model {k} (search-{profile}-4-{k})"
        assert dump_model(load_model(block)) == dump + "\n"


def test_find_models_empty_is_exit_1(capsys):
    code, out, _ = run(capsys, "find-models", "--size", "1",
                       "--profile", "kat", "--constraint", "phi-fails")
    assert code == 1
    assert "found: 0" in out


def test_vcgen(capsys, progfile):
    code, out, _ = run(capsys, "vcgen", "--program", progfile)
    assert code == 0
    assert "result: VALID" in out
    code, out, _ = run(capsys, "vcgen", "--program", progfile,
                       "--post", "!q")
    assert code == 1
    assert "result: INVALID" in out


def test_synth_mid(capsys, progfile):
    code, out, _ = run(capsys, "synth-mid", "--program", progfile,
                       "--x", "x", "--y", "y", "--pre", "p", "--post", "q",
                       "--method", "range")
    assert code == 0
    assert "r = {(2,2)}" in out


def test_synth_mid_premise_failure(capsys, progfile):
    code, _, err = run(capsys, "synth-mid", "--program", progfile,
                       "--x", "x", "--y", "y", "--pre", "1", "--post", "0",
                       "--method", "wlp")
    assert code == 1
    assert "refused:" in err


def test_demo_separation(capsys):
    code, out, _ = run(capsys, "demo", "separation")
    assert code == 0
    assert "KAT ⊬ φ, AS ⊢ φ" in out
    assert "phi holds (4096 instantiations)" in out  # 16^2 * 4^2 on rel2


def test_demo_nonexpressivity(capsys):
    code, out, _ = run(capsys, "demo", "nonexpressivity", "--candidates", "12")
    assert code == 0
    assert "refuted and verified: 12/12" in out


def test_demo_nonexpressivity_verifies_not_a_precondition(capsys, monkeypatch):
    # the enumeration only yields finite candidates disjoint from the target;
    # a cofinite one is refuted by a witness, which counts as verified
    monkeypatch.setattr(evsets, "enumerate_candidates", lambda target, count:
                        iter([evsets.cofinite_set({1}), evsets.finite_set({1})]))
    code, out, _ = run(capsys, "demo", "nonexpressivity", "--candidates", "2")
    assert code == 0
    assert "1. cofinite{1} : intersects target at 0\n" in out
    assert "FAILED" not in out
    assert "refuted and verified: 2/2" in out


# evens, odds and seeded periodic targets like perfbench's p12/5, p7/3 and
# p10/3 (thresholds up to 8, with heads), plus one written with period 12
# whose least period is 4
PINNED_TARGETS = ("evens", "odds", "periodic(5; 0,1,2,3; 12; 0,2,7,9,11)",
                  "periodic(8; 2,3; 7; 3,5,6)", "periodic(7; 0,3,4; 10; 2,3,9)",
                  "periodic(2; 1; 10; 1,2,5)", "periodic(3; 0,2; 12; 1,5,9)")
PINNED_DEMO_SHA256 = ("57ea457dd3d533bebfc434c1fa465c24"
                      "ea28667ebd05907956c08178c874e8a5")


def test_demo_nonexpressivity_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for target in PINNED_TARGETS:
        for count in ("1", "100", "500"):
            for fmt in ("text", "structured"):
                code, out, _ = run(capsys, "--format", fmt, "demo",
                                   "nonexpressivity", "--set", target,
                                   "--candidates", count)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == PINNED_DEMO_SHA256


def test_demo_nonexpressivity_rejects_test_algebra_target(capsys):
    code, _, err = run(capsys, "demo", "nonexpressivity",
                       "--set", "finite{1}")
    assert code == 2
    assert "error:" in err


def test_structured_output_is_json(capsys):
    code, out, _ = run(capsys, "--format", "structured", "check-phi",
                       "--builtin", "lemma4")
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"] == ["a", "a", "1", "0"]


def test_structured_check_axioms_reports_per_law_instances(capsys):
    code, out, _ = run(capsys, "--format", "structured", "check-axioms",
                       "--builtin", "lemma4", "--profile", "kat")
    assert code == 0
    payload = json.loads(out)
    per_law = payload["stats"]["instances_per_law"]
    assert len(per_law) == payload["axioms"]
    assert per_law[0] == {"axiom": "plus-assoc", "instances": 27}
    assert sum(e["instances"] for e in per_law) == payload["instances"]
    _, text, _ = run(capsys, "check-axioms", "--builtin", "lemma4",
                     "--profile", "kat")
    assert "stats" not in text and "plus-assoc" not in text


def test_structured_check_phi_reports_instantiations(capsys):
    _, out, _ = run(capsys, "--format", "structured", "check-phi",
                    "--builtin", "lemma4")
    assert json.loads(out)["stats"] == {"instantiations": 19}
    _, out, _ = run(capsys, "--format", "structured", "check-phi",
                    "--builtin", "rel2")
    assert json.loads(out)["stats"] == {"instantiations": 4096}


@pytest.mark.parametrize("argv", [
    ("--format", "structured", "check-axioms", "--builtin", "lemma4",
     "--profile", "kat"),
    ("check-axioms", "--builtin", "lemma4", "--profile", "kat",
     "--format", "structured"),
])
def test_format_before_or_after_subcommand(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["passed"]


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, "demo", "nonexpressivity", "--candidates", "30")
    _, out2, _ = run(capsys, "demo", "nonexpressivity", "--candidates", "30")
    assert out1 == out2
    _, out1, _ = run(capsys, "find-models", "--size", "3", "--profile", "kat")
    _, out2, _ = run(capsys, "find-models", "--size", "3", "--profile", "kat")
    assert out1 == out2


@pytest.mark.parametrize("old,new,line", [
    ("program: x ; y", "program: x\n; if zz then y else x fi", 10),
    ("pre: p", "pre: zz", 7), ("post: q", "post: !zz", 8)])
def test_program_file_parse_errors_name_file_and_line(capsys, tmp_path, old,
                                                      new, line):
    path = tmp_path / "seq.kat"
    path.write_text(PROGRAM_TEXT.replace(old, new))
    code, out, err = run(capsys, "vcgen", "--program", str(path))
    assert (code, out, err) == (
        2, "", f"error: seq.kat:{line}: unknown test 'zz'\n")


def test_pre_argument_parse_errors_keep_their_column(capsys, progfile):
    code, out, err = run(capsys, "vcgen", "--program", progfile,
                         "--pre", "p & zz")
    assert (code, out, err) == (2, "", "error: --pre:5: unknown test 'zz'\n")


@pytest.mark.parametrize("argv,err", [
    (["vcgen", "--pre", "p", "--post", "p & zz"],
     "--post:5: unknown test 'zz'"),
    (["vcgen", "--pre", "p", "--post", "q | zz | d(aa)"],
     "--post:5: unknown test 'zz'"),
    (["vcgen", "--pre", "p &"],
     "--pre:4: expected a term, found 'end of input'"),
    (["synth-mid", "--x", "x", "--y", "x ; zz", "--pre", "p", "--post", "q",
      "--method", "wlp"], "--y:5: unknown atomic command 'zz'"),
    (["synth-mid", "--x", "x ;", "--y", "y", "--pre", "p", "--post", "q",
      "--method", "wlp"], "--x:4: expected a program, found 'end of input'"),
    (["synth-mid", "--x", "x", "--y", "y", "--pre", "p", "--post", "(q",
      "--method", "wlp"], "--post:3: expected ')', found 'end of input'"),
], ids=["vcgen-post", "vcgen-post-order", "vcgen-pre", "synth-y", "synth-x",
        "synth-post"])
def test_argument_parse_errors_name_their_flag(capsys, progfile, argv, err):
    code, out, got = run(capsys, argv[0], "--program", progfile, *argv[1:])
    assert (code, out, got) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("flag,text,err", [
    ("--post", "q &\nzz", "--post:2:1: unknown test 'zz'"),
    ("--post", "q\n& zz", "--post:2:3: unknown test 'zz'"),
    ("--post", "zz &\nq", "--post:1:1: unknown test 'zz'"),
    ("--post", "(q &\n p", "--post:2:3: expected ')', found 'end of input'"),
    ("--pre", "p |\nq |\n  zz", "--pre:3:3: unknown test 'zz'"),
], ids=["second-line", "column-on-line", "first-line", "end-of-input",
        "third-line"])
def test_multi_line_arguments_name_their_line_and_column(capsys, progfile,
                                                         flag, text, err):
    conditions = {"--pre": "p", "--post": "q", flag: text}
    code, out, got = run(capsys, "vcgen", "--program", progfile,
                         *(item for pair in conditions.items()
                           for item in pair))
    assert (code, out, got) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv,err", [
    (["check-axioms", "--builtin", "rel3", "--profile", "kat"],
     "unknown builtin 'rel3' "
     "(one of bool2, lemma4, nearas, rel1, rel2, trivial)"),
    (["eval", "--builtin", "lemma4", "--term", "x ; y", "--env", "x=a"],
     "unbound identifier 'y'"),
    (["eval", "--builtin", "lemma4", "--term", "a ; ; b"],
     "--term:5: expected a term, found ';'"),
], ids=["unknown-builtin", "unbound", "term"])
def test_refused_requests_exit_2(capsys, argv, err):
    code, out, got = run(capsys, *argv)
    assert (code, out, got) == (2, "", f"error: {err}\n")


_NO_CONDITION = ("both a precondition and a postcondition are needed "
                 "(pre:/post: lines or --pre/--post)")


@pytest.mark.parametrize("cut,argv,err", [
    ("program: x ; y\n", [], "program file declares no program"),
    ("pre: p\n", [], _NO_CONDITION),
    ("post: q\n", ["--pre", "p"], _NO_CONDITION),
], ids=["no-program", "no-pre", "no-post"])
def test_vcgen_without_a_program_or_condition_exits_2(capsys, tmp_path, cut,
                                                      argv, err):
    path = tmp_path / "cut.kat"
    path.write_text(PROGRAM_TEXT.replace(cut, ""))
    code, out, got = run(capsys, "vcgen", "--program", str(path), *argv)
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("carrier: 0\nzero: 0\n")
    code, _, err = run(capsys, "check-axioms", "--model", str(bad),
                       "--profile", "kat")
    assert code == 2
    assert "error:" in err


def test_empty_carrier_exit_2(capsys, tmp_path):
    empty = tmp_path / "empty.alg"
    empty.write_text("carrier:\nzero: 0\none: 0\n")
    code, out, err = run(capsys, "check-axioms", "--model", str(empty),
                         "--profile", "kat")
    assert (code, out, err) == (2, "", "error: empty.alg: empty carrier line\n")


@pytest.mark.parametrize("argv", [
    ["check-axioms", "--profile", "kat", "--model"],
    ["vcgen", "--program"],
])
def test_undecodable_file_exit_2(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"carrier: 0 \xff\n")
    code, out, err = run(capsys, *argv, str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec")


def test_find_models_structured_stats(capsys):
    code, out, _ = run(capsys, "find-models", "--size", "4", "--profile",
                       "kad", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    stats = payload["stats"]
    assert [s["stage"] for s in stats["stages"]] == [
        "plus", "times", "star", "adom"]
    assert all(0 <= s["pruned"] <= s["tried"] for s in stats["stages"])
    assert stats["models"] == payload["count"] == 3
    assert stats["candidates"] >= stats["models"]
    _, text, _ = run(capsys, "find-models", "--size", "4", "--profile", "kad")
    assert "stats" not in text and "pruned" not in text


@pytest.mark.parametrize("term", [
    "a" + " ; 1" * 2999,                  # too deep for the tree walks
    "(" * 2000 + "a" + ")" * 2000,        # too deep for the parser itself
])
def test_eval_refuses_deep_terms(capsys, term):
    code, _, err = run(capsys, "eval", "--builtin", "lemma4", "--term", term)
    assert code == 2
    assert f"nested deeper than {MAX_DEPTH} levels" in err


def test_eval_at_the_depth_limit(capsys):
    for term in ("a" + " ; 1" * (MAX_DEPTH - 1),
                 "(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1)):
        code, out, _ = run(capsys, "eval", "--builtin", "lemma4",
                           "--term", term)
        assert code == 0
        assert out.strip().endswith("= a")


def _bindings_file(tmp_path, program=None):
    path = tmp_path / "chain.kat"
    text = "states: 1 2 3\nrel x = {(1,2),(2,3)}\ntest p = {(1,1)}\n"
    if program is not None:
        text += f"pre: p\npost: 1\nprogram: {program}\n"
    path.write_text(text)
    return str(path)


def test_vcgen_on_a_long_program(capsys, tmp_path):
    path = _bindings_file(tmp_path, " ; ".join(["skip"] * 3000))
    code, out, _ = run(capsys, "vcgen", "--program", path)
    assert code == 0
    assert out.splitlines()[-1] == "result: VALID"


def test_synth_mid_on_a_long_program(capsys, tmp_path):
    path = _bindings_file(tmp_path)
    code, out, _ = run(capsys, "synth-mid", "--program", path,
                       "--x", " ; ".join(["x"] * 3000), "--y", "skip",
                       "--pre", "p", "--post", "1", "--method", "wlp")
    assert code == 0
    assert "r = {(1,1),(2,2),(3,3)}" in out


def test_deeply_nested_program_is_refused(capsys, tmp_path):
    path = _bindings_file(tmp_path, "while p do " * 2000 + "x" + " od" * 2000)
    code, _, err = run(capsys, "vcgen", "--program", path)
    assert code == 2
    assert f"program nested deeper than {MAX_DEPTH} if/while levels" in err


@pytest.mark.parametrize("argv", [
    ("demo", "nonexpressivity", "--candidates", "0"),
    ("demo", "nonexpressivity", "--candidates", "-3"),
    ("find-models", "--size", "2", "--profile", "kat", "--limit", "0"),
    ("find-models", "--size", "2", "--profile", "kat", "--limit", "-1"),
])
def test_counts_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_find_models_limit_one(capsys):
    code, out, _ = run(capsys, "find-models", "--size", "2", "--profile",
                       "kat", "--limit", "1")
    assert code == 0
    assert out.splitlines()[-1] == "found: 1"


def test_cached_parser_answers_as_a_fresh_one(capsys):
    calls = [("check-phi", "--builtin", "lemma4"),
             ("--format", "structured", "check-axioms", "--builtin", "bool2",
              "--profile", "kad")]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    with pytest.raises(SystemExit) as exc:
        main(["check-axioms", "--builtin", "bool2"])
    assert exc.value.code == 2
    assert "--profile" in capsys.readouterr().err
    assert [run(capsys, *argv) for argv in calls] == fresh


def test_internal_error_exits_3_without_a_traceback(capsys, monkeypatch):
    def broken(model):
        raise RuntimeError("no phi today")

    monkeypatch.setattr(cli, "check_phi", broken)
    code, out, err = run(capsys, "check-phi", "--builtin", "lemma4")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: no phi today\n"


def test_interrupts_are_not_internal_errors(monkeypatch):
    def interrupted(model):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "check_phi", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check-phi", "--builtin", "lemma4"])


# a report larger than a pipe buffer (about 120 kB, exit 0) and a small one
# (exit 1)
@pytest.mark.parametrize("argv,code", [
    (["demo", "nonexpressivity", "--candidates", "2000"], 0),
    (["check-phi", "--builtin", "lemma4"], 1),
], ids=["large", "small"])
def test_a_closed_stdout_keeps_the_exit_code(argv, code):
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from kadlab.cli import main; sys.exit(main())",
             *argv], stdout=write, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, b"")


# strings json escapes: quotes, backslashes, control characters, non-ASCII
# beyond the BMP and lone surrogates
_STRINGS = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t", "\u00e9\u2028", "\U0001f600", "\ud800",
     "\udfff"])
_PAYLOADS = st.recursive(
    _STRINGS | st.booleans() | st.none() | st.integers()
    | st.integers(-2 ** 200, 2 ** 200) | st.floats(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_structured_encoder_writes_json_dumps_bytes(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)

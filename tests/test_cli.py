import json

import pytest

from kadlab.cli import main

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


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("carrier: 0\nzero: 0\n")
    code, _, err = run(capsys, "check-axioms", "--model", str(bad),
                       "--profile", "kat")
    assert code == 2
    assert "error:" in err

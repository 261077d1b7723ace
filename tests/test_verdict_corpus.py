"""A verdict corpus: the reports of the checks and the search, pinned.

The matrix is ``check-axioms`` for every builtin and profile,
``check-phi`` for every builtin and ``find-models`` at sizes 1-4 for every
profile and constraint, each in text and in structured form.  The same
``check-axioms`` and ``check-phi`` commands, and ``eval`` of three fixed
terms, run on model files written here: ``dump_model`` of each builtin,
lemma4 written by hand with comments and free spacing, a product of 18
elements with its rows shuffled, and three faulty files (a duplicate row,
a missing row and an unknown result).  Each case
pins its argv, its exit code and the sha256 of its stdout and stderr, in
``verdict_corpus.json``, so a change to any verdict, count or model shows
up here as the cases that moved.  After a change that is meant to alter a
report, rewrite the pins with

    PYTHONPATH=src python3 tests/test_verdict_corpus.py

and say in the change which cases moved and why.
"""

import hashlib
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from kadlab.algebra import Profile, bool2_model, lemma4_model
from kadlab.cli import BUILTIN_MODELS
from kadlab.files import dump_model
from kadlab.search import CONSTRAINTS

from test_compiled_checks import product_model
from test_readme_golden import _run

CORPUS = Path(__file__).with_name("verdict_corpus.json")

LEMMA4_FREE = """\
# lemma4 by hand: comments, blank lines and free spacing
carrier:  0   a 1
zero:0
one : 1      # the unit
tests:\t0 1

plus: 0 0 -> 0
plus:0 a->a
plus:   0   1   ->   1
plus: a 0 -> a   # a row's comment
  plus: a a -> a
plus: a 1 ->1
plus :1 0-> 1
plus: 1 a -> 1
plus:\t1\t1\t->\t1
times: 0 0 -> 0
times: 0 a -> 0
times: 0  1 -> 0
times: a 0 -> 0
times: a a -> 0
times: a 1 -> a
times:1 0->0
times: 1 a -> a
times: 1 1 -> 1 \t
star: 0->1
 star :a -> 1
star: 1 -> 1
not: 0 -> 1
not:1->0
"""


def _model_files():
    """The model files of the corpus, by file name."""
    files = {f"{b}.alg": dump_model(make())
             for b, make in sorted(BUILTIN_MODELS.items())}
    files["lemma4-free.alg"] = LEMMA4_FREE
    lines = dump_model(product_model(lemma4_model(), lemma4_model(),
                                     bool2_model())).splitlines()
    rows = [line for line in lines if "->" in line]
    random.Random(0).shuffle(rows)
    files["product.alg"] = "\n".join(
        [line for line in lines if "->" not in line] + rows) + "\n"
    lemma4 = files["lemma4.alg"]
    for name, row, faulty in [
            ("duplicate-row", "times: 0 a -> 0\n", "times: 0 a -> 0\n" * 2),
            ("missing-row", "times: a a -> 0\n", ""),
            ("unknown-result", "plus: a 1 -> 1\n", "plus: a 1 -> zz\n")]:
        assert row in lemma4
        files[f"{name}.alg"] = lemma4.replace(row, faulty)
    return files


MODEL_FILES = _model_files()
TERMS = ("1 ; (0 + 1)", "(1 + 0)*", "!0 ; 1")
PROFILES = [p.value for p in Profile]
COMMANDS = {
    **{f"check-axioms-{b}-{p}": ["check-axioms", "--builtin", b,
                                 "--profile", p]
       for b in sorted(BUILTIN_MODELS) for p in PROFILES},
    **{f"check-phi-{b}": ["check-phi", "--builtin", b]
       for b in sorted(BUILTIN_MODELS)},
    **{f"find-models-{s}-{p}-{c or 'any'}": [
        "find-models", "--size", str(s), "--profile", p,
        *(["--constraint", c] if c else [])]
       for s in (1, 2, 3, 4) for p in PROFILES for c in (None, *CONSTRAINTS)},
    **{f"check-axioms-file-{f[:-4]}-{p}": ["check-axioms", "--model", f,
                                          "--profile", p]
       for f in MODEL_FILES for p in PROFILES},
    **{f"check-phi-file-{f[:-4]}": ["check-phi", "--model", f]
       for f in MODEL_FILES},
    **{f"eval-file-{f[:-4]}-{k}": ["eval", "--model", f, "--term", term]
       for f in MODEL_FILES for k, term in enumerate(TERMS)},
}
CASES = {f"{name}-{fmt}": (argv, fmt) for name, argv in COMMANDS.items()
         for fmt in ("text", "structured")}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _write_model_files(directory):
    for name, text in MODEL_FILES.items():
        (directory / name).write_text(text)


def _pin(argv, fmt):
    """The argv, exit code and output digests of one command, run in a
    directory holding the model files."""
    got = _run(argv, fmt)
    return {"argv": [*argv, "--format", fmt], "exit": got["exit"],
            "stdout_sha256": _sha256(got["stdout"]),
            "stderr_sha256": _sha256(got["stderr"])}


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("models")
    _write_model_files(directory)
    return directory


def test_the_corpus_pins_the_whole_matrix(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_is_pinned(case, corpus, model_dir, monkeypatch):
    monkeypatch.chdir(model_dir)
    assert _pin(*CASES[case]) == corpus[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_model_files(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            pins = {case: _pin(*spec) for case, spec in sorted(CASES.items())}
        finally:
            os.chdir(cwd)
    CORPUS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    codes = [pin["exit"] for pin in pins.values()]
    print(f"wrote {len(pins)} pins to {CORPUS}; exit codes "
          + ", ".join(f"{codes.count(c)} x {c}" for c in sorted(set(codes))))

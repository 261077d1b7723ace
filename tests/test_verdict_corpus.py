"""A verdict corpus: the reports of the checks and the search, pinned.

The matrix is ``check-axioms`` for every builtin and profile,
``check-phi`` for every builtin and ``find-models`` at sizes 1-4 for every
profile and constraint, each in text and in structured form.  The same
``check-axioms`` and ``check-phi`` commands, and ``eval`` of three fixed
terms, run on every builtin and on model files written here: ``dump_model`` of each builtin,
lemma4 written by hand with comments and free spacing, a product of 18
elements with its rows shuffled, the first ``# model`` block that
``find-models --size 4`` prints for kad and for kat, comment line
included, and three faulty files (a duplicate row, a missing row and an
unknown result).  ``vcgen`` and ``synth-mid`` run on program files
written here, among them faulty ones: bad literals, an unknown test in a
program's continuation line, in ``pre:`` and in ``post:``, and a repeated
``pre:``, ``post:`` or ``program:`` line.  ``demo nonexpressivity`` runs on the
evens, the odds, a period-12 target with a head and a literal whose period
and threshold shrink on canonicalisation, each with 1, 100 (the default)
and 250 candidates, and on a finite target, which it refuses.  Each case
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
from kadlab.hoare import SYNTH_METHODS
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


def _first_found_model(profile):
    """The first ``# model`` block, comment line included, that
    ``find-models --size 4`` prints for the profile."""
    out = _run(["find-models", "--size", "4", "--profile", profile], "text")
    return out["stdout"].split("\n\n")[0] + "\n"


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
    for profile in ("kad", "kat"):
        files[f"find-models-{profile}.alg"] = _first_found_model(profile)
    lemma4 = files["lemma4.alg"]
    for name, row, faulty in [
            ("duplicate-row", "times: 0 a -> 0\n", "times: 0 a -> 0\n" * 2),
            ("missing-row", "times: a a -> 0\n", ""),
            ("unknown-result", "plus: a 1 -> 1\n", "plus: a 1 -> zz\n")]:
        assert row in lemma4
        files[f"{name}.alg"] = lemma4.replace(row, faulty)
    return files


MODEL_FILES = _model_files()

LOOPS = """\
states: 1 2 3 4
rel x = {(1,2),(2,3),(3,4),(4,4)}
rel y = {(2,1),(3,3),(4,1)}
test p = {(1,1),(2,2)}
test q = {(3,3),(4,4)}
pre: p
post: q
program: x ; while !q invariant p + q do x od ;
  if q then y else x fi
"""

SPACED = """\
states: 1 2 3 4
rel x =   { ( 1 , 2 ) ,\t(2,3) ,(3 ,4),( 4, 4 ),(1,2) }
rel y={(2,1),(3,3) , (4,1)}   # a comment
test p = { (1,1) , (2,2) }
test q =\t{(3,3),(4,4)}
pre: p
post: q
program: x ;
  while !q do x od ; if q then y else x fi
"""


def _big_program(n=128, degree=3):
    """A 128-state file whose literals list their pairs shuffled, some
    twice, with seeded spacing."""
    rng = random.Random(n)
    names = [str(i + 1) for i in range(n)]

    def literal(pairs):
        pairs = pairs + rng.sample(pairs, len(pairs) // 8)
        rng.shuffle(pairs)
        return "{" + ",".join(rng.choice(("", " ")) + f"({a},{b})"
                              for a, b in pairs) + "}"

    lines = [f"states: {' '.join(names)}"]
    for x in ("x", "y"):
        lines.append(f"rel {x} = " + literal(
            [(a, b) for a in names for b in rng.sample(names, degree)]))
    for t in ("p", "q"):
        lines.append(f"test {t} = " + literal(
            [(a, a) for a in rng.sample(names, n // 2)]))
    return "\n".join(lines + [
        "pre: p", "post: q",
        "program: while p & !q do x ; if q then y else x fi od ; y"]) + "\n"


def _program_files():
    """The program files of the corpus, by file name."""
    files = {"loops.prog": LOOPS,
             "loops-plain.prog": LOOPS.replace(" invariant p + q", ""),
             "spaced.prog": SPACED, "big.prog": _big_program()}
    for name, line, faulty in [
            ("unknown-state", "rel y = {(2,1),(3,3),(4,1)}",
             "rel y = {(2,1),(3,9),(4,1)}"),
            ("not-a-pair", "rel y = {(2,1),(3,3),(4,1)}",
             "rel y = {(2,1),(3 3,3),(4,1)}"),
            ("doubled-comma", "rel y = {(2,1),(3,3),(4,1)}",
             "rel y = {(2,1),,(3,3),(4,1)}"),
            ("missing-brace", "rel y = {(2,1),(3,3),(4,1)}",
             "rel y = {(2,1),(3,3),(4,1)"),
            ("test-not-subidentity", "test q = {(3,3),(4,4)}",
             "test q = {(3,3),(4,1)}"),
            ("duplicate-rel", "rel y = {(2,1),(3,3),(4,1)}",
             "rel x = {(2,1),(3,3),(4,1)}"),
            ("unknown-guard", "  if q then y else x fi",
             "  if zz then y else x fi"),
            ("unknown-pre", "pre: p", "pre: zz"),
            ("unknown-post", "post: q", "post: q & zz"),
            ("duplicate-pre", "pre: p", "pre: p\npre: q"),
            ("duplicate-post", "post: q", "post: q\npost: p"),
            ("duplicate-program", "post: q", "post: q\nprogram: skip")]:
        assert line in LOOPS
        files[f"{name}.prog"] = LOOPS.replace(line, faulty)
    return files


PROGRAM_FILES = _program_files()
# the files that load; each faulty one runs one vcgen and one synth-mid
SOUND_PROGRAMS = ("loops.prog", "loops-plain.prog", "spaced.prog", "big.prog")
VCGEN_CONDITIONS = {"file": [], "q": ["--pre", "p", "--post", "q"],
                    "1": ["--pre", "p", "--post", "1"],
                    "0": ["--pre", "p + q", "--post", "0"]}
SYNTH_PROGRAMS = ["--x", "x ; while !q do x od", "--y", "if q then y else x fi"]
TERMS = ("1 ; (0 + 1)", "(1 + 0)*", "!0 ; 1")
# demo nonexpressivity targets; the last two are canonically
# periodic(5; 1,3,4; 2; 1) and finite{1}, which the demo refuses
DEMO_TARGETS = {"evens": "evens", "odds": "odds",
                "p12": "periodic(4; 0,3; 12; 1,2,5,7,11)",
                "shrinks": "periodic(9; 1,3,4,5,7; 6; 1,3,5)",
                "finite": "finite{1}"}
DEMO_COUNTS = {"1": ["--candidates", "1"], "100": [],
               "250": ["--candidates", "250"]}
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
    **{f"eval-{b}-{k}": ["eval", "--builtin", b, "--term", term]
       for b in sorted(BUILTIN_MODELS) for k, term in enumerate(TERMS)},
    **{f"demo-nonexpressivity-{t}-{c}": [
        "demo", "nonexpressivity", "--set", literal, *count]
       for t, literal in DEMO_TARGETS.items()
       for c, count in DEMO_COUNTS.items() if t != "finite" or c == "100"},
    **{f"eval-file-{f[:-4]}-{k}": ["eval", "--model", f, "--term", term]
       for f in MODEL_FILES for k, term in enumerate(TERMS)},
    **{f"vcgen-{f[:-5]}-{c}": ["vcgen", "--program", f, *conditions]
       for f in PROGRAM_FILES for c, conditions in VCGEN_CONDITIONS.items()
       if f in SOUND_PROGRAMS or c == "file"},
    **{f"synth-mid-{f[:-5]}-{m}-{q}": [
        "synth-mid", "--program", f, *SYNTH_PROGRAMS, "--pre", "p",
        "--post", q, "--method", m]
       for f in PROGRAM_FILES for m in SYNTH_METHODS for q in ("q", "1", "0")
       if f in SOUND_PROGRAMS or (m, q) == ("wlp", "q")},
}
CASES = {f"{name}-{fmt}": (argv, fmt) for name, argv in COMMANDS.items()
         for fmt in ("text", "structured")}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _write_files(directory):
    for name, text in {**MODEL_FILES, **PROGRAM_FILES}.items():
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
    _write_files(directory)
    return directory


def test_the_corpus_pins_the_whole_matrix(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_is_pinned(case, corpus, model_dir, monkeypatch):
    monkeypatch.chdir(model_dir)
    assert _pin(*CASES[case]) == corpus[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
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

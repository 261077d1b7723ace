"""A verdict corpus: the reports of the checks and the search, pinned.

The matrix is ``check-axioms`` for every builtin and profile,
``check-phi`` for every builtin and ``find-models`` at sizes 1-4 for every
profile and constraint, each in text and in structured form.  Each case
pins its argv, its exit code and the sha256 of its stdout and stderr, in
``verdict_corpus.json``, so a change to any verdict, count or model shows
up here as the cases that moved.  After a change that is meant to alter a
report, rewrite the pins with

    PYTHONPATH=src python3 tests/test_verdict_corpus.py

and say in the change which cases moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kadlab.algebra import Profile
from kadlab.cli import BUILTIN_MODELS
from kadlab.search import CONSTRAINTS

from test_readme_golden import _run

CORPUS = Path(__file__).with_name("verdict_corpus.json")

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
}
CASES = {f"{name}-{fmt}": (argv, fmt) for name, argv in COMMANDS.items()
         for fmt in ("text", "structured")}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _pin(argv, fmt):
    """The argv, exit code and output digests of one command."""
    got = _run(argv, fmt)
    return {"argv": [*argv, "--format", fmt], "exit": got["exit"],
            "stdout_sha256": _sha256(got["stdout"]),
            "stderr_sha256": _sha256(got["stderr"])}


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_the_corpus_pins_the_whole_matrix(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_is_pinned(case, corpus):
    assert _pin(*CASES[case]) == corpus[case]


if __name__ == "__main__":
    pins = {case: _pin(*spec) for case, spec in sorted(CASES.items())}
    CORPUS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    codes = [pin["exit"] for pin in pins.values()]
    print(f"wrote {len(pins)} pins to {CORPUS}; exit codes "
          + ", ".join(f"{codes.count(c)} x {c}" for c in sorted(set(codes))))

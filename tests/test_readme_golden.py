"""Golden outputs of the README's Command line block.

Every command of that block runs in text and in structured form, on the
model file and program file written below, and its exit code and the
exact bytes of stdout and stderr are compared with ``readme_golden.json``.
A change to any report shows up here as a diff.  After a change that is
meant to alter a report, rewrite the pins with

    PYTHONPATH=src python3 tests/test_readme_golden.py

and review the diff of the JSON file.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kadlab.cli import main

GOLDEN = Path(__file__).with_name("readme_golden.json")

# 0 < 1 < T, T ; T = T: a model of kad whose unit is not the additive top
MODEL_TEXT = """\
carrier: 0 1 T
zero: 0
one: 1
plus: 0 0 -> 0
plus: 0 1 -> 1
plus: 0 T -> T
plus: 1 0 -> 1
plus: 1 1 -> 1
plus: 1 T -> T
plus: T 0 -> T
plus: T 1 -> T
plus: T T -> T
times: 0 0 -> 0
times: 0 1 -> 0
times: 0 T -> 0
times: 1 0 -> 0
times: 1 1 -> 1
times: 1 T -> T
times: T 0 -> 0
times: T 1 -> T
times: T T -> T
star: 0 -> 1
star: 1 -> 1
star: T -> T
adom: 0 -> 1
adom: 1 -> 0
adom: T -> 0
"""

PROGRAM_TEXT = """\
states: 1 2 3
rel x = {(1,2),(2,2)}
rel y = {(2,3),(3,1)}
test p = {(1,1),(2,2)}
test q = {(3,3)}
program: x ; while p do x od ; y
"""

# the README's Command line block, in its order
COMMANDS = {
    "check-axioms-builtin": "check-axioms --builtin lemma4 --profile kat",
    "check-axioms-model": "check-axioms --model my.alg --profile kad",
    "eval-literals": ["eval", "--builtin", "lemma4",
                      "--term", "1 ; a ; a ; !0"],
    "eval-env": ["eval", "--builtin", "lemma4", "--term", "x ; x",
                 "--env", "x=a"],
    "eval-relations": ["eval", "--builtin", "rel2", "--term", "x ; y",
                       "--env", "x={(1,2),(2,1)}, y={(1,1)}"],
    "check-phi": "check-phi --builtin lemma4",
    "find-models": "find-models --size 3 --profile kat --constraint phi-fails",
    "vcgen": "vcgen --program examples.kat --pre p --post q",
    **{f"synth-mid-{method}": "synth-mid --program examples.kat --x x --y y "
       f"--pre p --post q --method {method}"
       for method in ("wlp", "range", "meet")},
    "demo-separation": "demo separation",
    "demo-nonexpressivity": "demo nonexpressivity --set evens --candidates 100",
}
CASES = [(f"{name}-{fmt}", argv, fmt) for name, argv in COMMANDS.items()
         for fmt in ("text", "structured")]


def _run(argv, fmt):
    """The exit code, stdout and stderr of one command."""
    argv = argv.split() if isinstance(argv, str) else argv
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_files(directory):
    (directory / "my.alg").write_text(MODEL_TEXT)
    (directory / "examples.kat").write_text(PROGRAM_TEXT)


@pytest.mark.parametrize("case,argv,fmt", CASES, ids=[c[0] for c in CASES])
def test_readme_command_output_is_pinned(case, argv, fmt, tmp_path,
                                         monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(argv, fmt) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            pins = {case: _run(argv, fmt) for case, argv, fmt in CASES}
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")

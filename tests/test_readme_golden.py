"""Golden outputs of the README's Command line block, and its Library
block run.

Every command of the Command line block runs in text and in structured
form, on the model file and program file written below, and its exit code
and the exact bytes of stdout and stderr are compared with
``readme_golden.json``.  A change to any report shows up here as a diff.
After a change that is meant to alter a report, rewrite the pins with

    PYTHONPATH=src python3 tests/test_readme_golden.py

and review the diff of the JSON file.
"""

import ast
import io
import json
import os
import tempfile
import tokenize
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kadlab.cli import _build_parser, main

GOLDEN = Path(__file__).with_name("readme_golden.json")
README = Path(__file__).resolve().parents[1] / "README.md"

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


def _keys(value):
    """The dict keys anywhere in a payload."""
    if isinstance(value, dict):
        yield from value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _keys(item)


def test_structured_payloads_have_only_str_keys(tmp_path, monkeypatch):
    # the structured encoder quotes keys as str, where json.dumps would
    # have converted an int, float, bool or None key; a refuted
    # check-axioms adds the violations' assignments
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    parser, keys = _build_parser(), set()
    for argv in [*COMMANDS.values(),
                 "check-axioms --builtin nearas --profile as"]:
        args = parser.parse_args(argv.split() if isinstance(argv, str)
                                 else argv)
        keys.update(_keys(args.handler(args)[2]))
    assert {type(k) for k in keys} == {str}
    assert "assignment" in keys


def test_readme_library_block_runs():
    # each statement runs in order; one whose last line ends in a comment
    # that is a Python literal is an expression that must equal it
    library = README.read_text().split("## Library", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string.lstrip("#")
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, 0
    for node in ast.parse(code).body:
        try:
            expected = ast.literal_eval(comments[node.end_lineno].strip())
        except (KeyError, SyntaxError, ValueError):
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        assert value == expected, ast.unparse(node)
        checked += 1
    assert checked == 4


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

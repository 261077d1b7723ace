"""Line coverage of the ``kadlab`` package under pytest, stdlib only.

A pytest plugin that traces every line of ``kadlab`` the tests run, with
``sys.settrace``, and reports the lines that hold code and that no test
ran.  From the repository root:

    PYTHONPATH=src:bench python -m pytest -p linetrace [pytest args]

The package traced is the ``kadlab`` that ``PYTHONPATH`` finds.  A line
holds code when its module, compiled, has an instruction on it.  The
tracer sees this process only: a line that only a subprocess runs (the
CLI tests that start ``python -m kadlab.cli``) is reported as not run.
Tracing makes the suite several times slower.
"""

import importlib.util
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("kadlab").origin).resolve().parent
# resolved path of each module -> the lines run in it
_ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
# co_filename -> its set in _ran, or None for code outside the package
_files = {}


def _lines_run(filename):
    try:
        return _files[filename]
    except KeyError:
        path = None if filename.startswith("<") else Path(filename).resolve()
        lines = _files[filename] = _ran.get(str(path))
        return lines


def _trace(frame, event, arg):
    lines = _lines_run(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def code_lines(path: Path) -> set:
    """The lines of a module that hold an instruction of its code."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += (c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines):
    """'3, 7-9' for lines 3, 7, 8 and 9."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("kadlab lines no test ran")
    total = unrun_total = 0
    for name, ran in _ran.items():
        path = Path(name)
        lines = code_lines(path)
        unrun = lines - ran
        total, unrun_total = total + len(lines), unrun_total + len(unrun)
        if unrun:
            write(f"{path.relative_to(PACKAGE.parent)}: {_ranges(unrun)}")
    write(f"{unrun_total} of {total} lines with code not run")


sys.settrace(_trace)
threading.settrace(_trace)

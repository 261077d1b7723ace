"""Text formats for algebras and for program/bindings files.

Algebra model files are line based::

    carrier: 0 a 1
    zero: 0
    one: 1
    tests: 0 1
    plus: 0 a -> a        # one row per argument pair, no defaults
    times: a a -> 0
    star: a -> 1          # optional unary tables
    adom: a -> 0
    aran: a -> 0
    not: 0 -> 1           # test complement rows

Program files declare a state space, named relations and named tests, an
optional program and optional pre/post tests::

    states: 1 2 3
    rel x = {(1,2)}
    test p = {(1,1)}
    pre: p
    post: !p
    program: x ; if p then skip else x fi

``#`` starts a comment, so no name contains it; blank lines are ignored.
In a model file the text before a line's first ``:`` is its key.  Of the
header lines, ``carrier`` and ``tests`` list element names separated by
whitespace and ``zero`` and ``one`` name one element; each appears at most
once.  A row holds its argument names, ``->`` and the result name as
whitespace-separated tokens; the space around ``:`` and ``->`` may be left
out, and an argument name cannot contain ``->``.  Binary tables must list
every argument pair and unary tables every element: unspecified rows are
errors, and so are repeated rows.

A text without ``#`` whose ``plus``/``times`` rows are all spelt exactly
``OP: A B -> C``, with single spaces and nothing before or after, as
``dump_model`` writes them, has those rows read in bulk (``_read_bulk``);
every other spelling is read row by row (``_read_lines``).  Both give the
same models and the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product, repeat
from operator import not_
from typing import Optional

from .algebra import FiniteAlgebra
from .errors import ModelError, ParseError
from .hoare import Bindings, Program, parse_program, read_test
from .relations import Rel, StateSpace, parse_rel_literal

__all__ = ["load_model", "dump_model", "ProgramFile", "load_program_file"]


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# algebra model files

_HEADER_KEYS = ("carrier", "zero", "one", "tests")
_ROW_FORMS = {"plus": "A B -> C", "times": "A B -> C", "star": "A -> B",
              "adom": "A -> B", "aran": "A -> B", "not": "A -> B"}
_ARITY = {key: len(form.split()) - 2 for key, form in _ROW_FORMS.items()}


def load_model(text: str, name: str = "model") -> FiniteAlgebra:
    lines = text.splitlines()
    read = None if "#" in text else _read_bulk(lines, name)
    headers, rows, tables = read or (
        *_read_lines(enumerate(lines, start=1), name), {})
    return _build(headers, rows, tables, name)


def _read_lines(numbered, name):
    """The header lines and the rows of each table, keyed by argument names,
    from (line number, line) pairs, read one line at a time."""
    headers = {}
    rows = {key: {} for key in _ROW_FORMS}
    # most lines are binary rows spaced as "KEY: A B -> C": five tokens, the
    # fourth "->" and no "->" before it; any other line is read by its key,
    # the text before its first ":"
    spaced = {f"{key}:": (key, rows[key]) for key in ("plus", "times")}

    for lineno, line in numbered:
        if "#" in line:
            line = line[:line.index("#")]
        toks = line.split()
        if not toks:
            continue
        key, table = spaced.get(toks[0], (None, None))
        if (table is not None and len(toks) == 5 and toks[3] == "->"
                and "->" not in toks[1] and "->" not in toks[2]):
            args, out = (toks[1], toks[2]), toks[4]
        else:
            if ":" not in line:
                raise ParseError("expected 'key: ...'",
                                 line=lineno, source=name)
            key, _, rest = line.partition(":")
            key = key.strip()
            if key in _HEADER_KEYS:
                if key in headers:
                    raise ParseError(f"duplicate {key} line",
                                     line=lineno, source=name)
                headers[key] = rest.split()
                if key in ("zero", "one") and len(headers[key]) != 1:
                    raise ParseError(f"{key} takes one element",
                                     line=lineno, source=name)
                continue
            if key not in rows:
                raise ParseError(f"unknown directive {key!r}",
                                 line=lineno, source=name)
            lhs, _, out = rest.partition("->")
            args, out = tuple(lhs.split()), out.split()
            if len(args) != _ARITY[key] or len(out) != 1:
                raise ParseError(f"expected '{key}: {_ROW_FORMS[key]}'",
                                 line=lineno, source=name)
            table, out = rows[key], out[0]
        if args in table:
            raise ParseError(f"duplicate {key} row for {' '.join(args)}",
                             line=lineno, source=name)
        table[args] = out
    return headers, rows


_BULK = ("plus: ", "times: ")


def _read_bulk(lines, name):
    """The header lines, the other rows and the + and ; index tables of a
    text whose lines starting "plus: " or "times: " are exactly the rows
    "OP: A B -> C" over the carrier, once each; None for any other text,
    which the line reader then reads whole, faults included."""
    is_bulk = list(map(str.startswith, lines, repeat(_BULK)))
    bulk = list(compress(lines, is_bulk))
    try:
        headers, rows = _read_lines(
            compress(enumerate(lines, start=1), map(not_, is_bulk)), name)
    except ParseError:
        return None
    carrier = headers.get("carrier", ())
    index = {e: i for i, e in enumerate(carrier)}
    if (not carrier or len(index) != len(carrier) or rows["plus"]
            or rows["times"] or len(bulk) != 2 * len(carrier) ** 2
            or any("->" in e for e in carrier)):
        return None
    try:
        # (head, result) of each row, where a row holding " -> " more than
        # once or not at all raises ValueError; as there are 2n^2 rows, the
        # 2n^2 heads looked up are all found only when no head repeats
        results = dict(map(str.split, bulk, repeat(" -> ")))
        tables = {op: [list(map(index.__getitem__, map(
            results.__getitem__, map(f"{op}: {a} ".__add__, carrier))))
            for a in carrier] for op in ("plus", "times")}
    except (KeyError, ValueError):
        return None
    return headers, rows, tables


def _build(headers, rows, tables, name):
    """The algebra of the header lines and the rows, with the index tables
    in ``tables`` standing for the rows of their keys; the first fault
    raises, in the order headers, complement, plus, times, star, adom,
    aran, then the algebra's own checks."""
    carrier = headers.get("carrier")
    if carrier is None:
        raise ParseError("missing carrier line", source=name)
    if not carrier:
        raise ParseError("empty carrier line", source=name)
    if "zero" not in headers or "one" not in headers:
        raise ParseError("missing zero/one line", source=name)
    index = {e: i for i, e in enumerate(carrier)}
    if len(index) != len(carrier):
        raise ParseError("duplicate carrier elements", source=name)

    complement = None
    if rows["not"]:
        complement = {a: b for (a,), b in rows["not"].items()}
        for e in complement:
            if e not in index:
                raise ParseError(f"unknown element {e!r}", source=name)
    plus, times, star, adom, aran = (
        tables[key] if key in tables
        else _index_table(key, rows[key], carrier, index, name)
        for key in ("plus", "times", "star", "adom", "aran"))
    try:
        return FiniteAlgebra(
            carrier, headers["zero"][0], headers["one"][0], plus, times,
            star=star, adom=adom, aran=aran, tests=headers.get("tests"),
            complement=complement, name=name)
    except ModelError as e:
        raise ModelError(f"{name}: {e}") from None


def _index_table(key, rows, carrier, index, source):
    """The rows of one table, keyed by argument names, as an index table;
    None for an optional unary table without rows."""
    arity, n = _ARITY[key], len(carrier)
    if arity == 1 and not rows:
        return None
    if len(rows) == n ** arity:
        try:
            cells = list(map(index.__getitem__, map(
                rows.__getitem__, product(carrier, repeat=arity))))
        except KeyError:
            pass
        else:
            return cells if arity == 1 else [
                cells[i:i + n] for i in range(0, n * n, n)]
    # the first fault: an unknown name in reading order, else a missing row
    for args, out in rows.items():
        for e in (out, *args):
            if e not in index:
                raise ParseError(f"unknown element {e!r}", source=source)
    for args in product(carrier, repeat=arity):
        if args not in rows:
            raise ParseError(f"missing {key} row for {' '.join(args)}",
                             source=source)


def dump_model(algebra: FiniteAlgebra) -> str:
    """Serialize an algebra in the model file format (inverse of load_model)."""
    tb, names = algebra.tables, algebra.carrier
    out = [f"carrier: {' '.join(names)}", f"zero: {names[tb.zero]}",
           f"one: {names[tb.one]}"]
    if tb.tests:
        out.append(f"tests: {' '.join(names[t] for t in tb.tests)}")
    for op in ("plus", "times"):
        for i, row in enumerate(getattr(tb, op)):
            out += (f"{op}: {names[i]} {names[j]} -> {names[v]}"
                    for j, v in enumerate(row))
    for op in ("star", "adom", "aran"):
        for i, v in enumerate(getattr(tb, op) or ()):
            out.append(f"{op}: {names[i]} -> {names[v]}")
    if tb.adom is None:
        for t in tb.tests:
            out.append(f"not: {names[t]} -> {names[tb.complement[t]]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# program files

@dataclass(frozen=True)
class ProgramFile:
    bindings: Bindings
    program: Optional[Program]
    pre: Optional[Rel]
    post: Optional[Rel]


def load_program_file(text: str, name: str = "program") -> ProgramFile:
    space = None
    rel_decls = []
    test_decls = []
    pre_text = post_text = None
    program_lines = []
    in_program = False

    for lineno, line in _lines(text):
        head, *rest = line.split(None, 1)
        key = head.rstrip(":")
        is_directive = (line.startswith(("states:", "pre:", "post:", "program:"))
                        or key in ("rel", "test"))
        if in_program and not is_directive:
            program_lines.append(line)
            continue
        in_program = False
        if line.startswith("states:"):
            if space is not None:
                raise ParseError("duplicate states line", line=lineno, source=name)
            space = StateSpace(line.partition(":")[2].split())
        elif key in ("rel", "test"):
            decl_name, eq, literal = "".join(rest).partition("=")
            decl_name = decl_name.strip()
            if not eq or not decl_name:
                raise ParseError(f"expected '{key} NAME = literal'",
                                 line=lineno, source=name)
            if space is None:
                raise ParseError("states must be declared first",
                                 line=lineno, source=name)
            try:
                rel = parse_rel_literal(space, literal.strip())
            except ParseError as e:
                raise ParseError(str(e), line=lineno, source=name) from None
            (rel_decls if key == "rel" else test_decls).append(
                (lineno, decl_name, rel))
        elif line.startswith("pre:"):
            pre_text = line.partition(":")[2].strip()
        elif line.startswith("post:"):
            post_text = line.partition(":")[2].strip()
        elif line.startswith("program:"):
            tail = line.partition(":")[2].strip()
            if tail:
                program_lines.append(tail)
            in_program = True
        else:
            raise ParseError(f"unknown directive in program file: {line!r}",
                             line=lineno, source=name)

    if space is None:
        raise ParseError("missing states line", source=name)
    atoms = {}
    tests = {}
    for lineno, decl_name, rel in rel_decls:
        if decl_name in atoms:
            raise ParseError(f"duplicate rel {decl_name!r}", line=lineno, source=name)
        atoms[decl_name] = rel
    for lineno, decl_name, rel in test_decls:
        if decl_name in tests or decl_name in atoms:
            raise ParseError(f"duplicate name {decl_name!r}", line=lineno, source=name)
        if not rel.is_subidentity():
            raise ParseError(f"test {decl_name!r} is not a subidentity",
                             line=lineno, source=name)
        tests[decl_name] = rel
    bindings = Bindings(space, atoms, tests)

    program = None
    if program_lines:
        program = parse_program(" ".join(program_lines), atoms, tests)
    pre, post = (None if text is None else read_test(text, bindings)
                 for text in (pre_text, post_text))
    return ProgramFile(bindings, program, pre, post)

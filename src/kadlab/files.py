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

A text whose ``plus``/``times`` rows are all spelt exactly
``OP: A B -> C``, with single spaces and nothing before or after, not even
a comment, as ``dump_model`` and ``find-models`` write them, has those rows
read in bulk (``_read_bulk``), whatever its other lines hold; every other
text is read row by row (``_read_lines``).  Both give the same models and
the same errors.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, product, repeat
from math import isqrt
from operator import not_
from typing import Optional

from .algebra import FiniteAlgebra
from .errors import ModelError, ParseError
from .hoare import Bindings, Program, parse_program, read_test
from .relations import Rel, StateSpace, parse_rel_literal

__all__ = ["load_model", "dump_model", "ProgramFile", "load_program_file"]


def _lines(numbered):
    """The (line number, line) pairs whose line holds more than a comment
    and blanks, each line cut at its ``#`` and stripped."""
    for lineno, raw in numbered:
        line = raw.partition("#")[0].strip()
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
    headers, rows, tables = _read_bulk(lines, name) or (
        *_read_lines(enumerate(lines, start=1), name), {})
    return _build(headers, rows, tables, name)


def _read_lines(numbered, name):
    """The header lines and the rows of each table, keyed by argument names,
    from (line number, line) pairs, each line read by its key, the text
    before its first ":"."""
    headers = {}
    rows = {key: {} for key in _ROW_FORMS}

    def fault(message):
        return ParseError(message, line=lineno, source=name)

    for lineno, line in _lines(numbered):
        if ":" not in line:
            raise fault("expected 'key: ...'")
        key, _, rest = line.partition(":")
        key = key.strip()
        if key in _HEADER_KEYS:
            if key in headers:
                raise fault(f"duplicate {key} line")
            headers[key] = rest.split()
            if key in ("zero", "one") and len(headers[key]) != 1:
                raise fault(f"{key} takes one element")
            continue
        if key not in rows:
            raise fault(f"unknown directive {key!r}")
        lhs, _, out = rest.partition("->")
        args, out = tuple(lhs.split()), out.split()
        if len(args) != _ARITY[key] or len(out) != 1:
            raise fault(f"expected '{key}: {_ROW_FORMS[key]}'")
        if args in rows[key]:
            raise fault(f"duplicate {key} row for {' '.join(args)}")
        rows[key][args] = out[0]
    return headers, rows


_BULK = ("plus: ", "times: ")


def _read_bulk(lines, name):
    """The header lines, the other rows and the + and ; index tables of a
    text whose lines starting "plus: " or "times: " are exactly the rows
    "OP: A B -> C" over the carrier, once each; None for any other text,
    which the line reader then reads whole, faults included; a text is
    refused before its other lines are read when its bulk lines number no
    2n^2 or " -> " does not split one in two.  Carrier names hold no "#",
    so a bulk line holding one has a head that is none of the 2n^2 heads
    looked up, or a result that is no carrier name."""
    is_bulk = list(map(str.startswith, lines, repeat(_BULK)))
    bulk = list(compress(lines, is_bulk))
    n = isqrt(len(bulk) // 2)
    if not n or len(bulk) != 2 * n * n:
        return None
    try:
        # (head, result) of each row, where a row holding " -> " more than
        # once or not at all raises ValueError
        results = dict(map(str.split, bulk, repeat(" -> ")))
        headers, rows = _read_lines(
            compress(enumerate(lines, start=1), map(not_, is_bulk)), name)
    except (ValueError, ParseError):
        return None
    carrier = headers.get("carrier", ())
    index = {e: i for i, e in enumerate(carrier)}
    if (len(carrier) != n or len(index) != n or rows["plus"]
            or rows["times"] or any("->" in e for e in carrier)):
        return None
    try:
        # as there are 2n^2 rows, the 2n^2 heads looked up are all found
        # only when no head repeats
        tables = {op: [list(map(index.__getitem__, map(
            results.__getitem__, map(f"{op}: {a} ".__add__, carrier))))
            for a in carrier] for op in ("plus", "times")}
    except KeyError:
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
    """The program file of ``text``, read in one pass: the first faulty
    line raises."""
    space = None
    atoms, tests = {}, {}
    # the pre, post and program lines as (line number, text) pieces, a
    # program's continuation lines being further pieces of its text
    pieces = {}
    in_program = False

    def fault(message):
        return ParseError(message, line=lineno, source=name)

    for lineno, line in _lines(enumerate(text.splitlines(), start=1)):
        head, *rest = line.split(None, 1)
        key = head.rstrip(":")
        is_directive = (line.startswith(("states:", "pre:", "post:", "program:"))
                        or key in ("rel", "test"))
        if in_program and not is_directive:
            pieces["program"].append((lineno, line))
            continue
        in_program = False
        if line.startswith("states:"):
            if space is not None:
                raise fault("duplicate states line")
            space = StateSpace(line.partition(":")[2].split())
        elif key in ("rel", "test"):
            decl_name, eq, literal = "".join(rest).partition("=")
            decl_name = decl_name.strip()
            if not eq or not decl_name:
                raise fault(f"expected '{key} NAME = literal'")
            if space is None:
                raise fault("states must be declared first")
            try:
                rel = parse_rel_literal(space, literal.strip())
            except ParseError as e:
                raise fault(str(e)) from None
            if key == "rel" and decl_name in atoms:
                raise fault(f"duplicate rel {decl_name!r}")
            if decl_name in atoms or decl_name in tests:
                raise fault(f"duplicate name {decl_name!r}")
            if key == "test" and not rel.is_subidentity():
                raise fault(f"test {decl_name!r} is not a subidentity")
            (atoms if key == "rel" else tests)[decl_name] = rel
        elif line.startswith(("pre:", "post:", "program:")):
            key, _, tail = line.partition(":")
            if key in pieces:
                raise fault(f"duplicate {key} line")
            pieces[key] = [(lineno, tail.strip())]
            in_program = key == "program"
        else:
            raise fault(f"unknown directive in program file: {line!r}")

    if space is None:
        raise ParseError("missing states line", source=name)
    bindings = Bindings(space, atoms, tests)
    program = None
    if any(piece for _, piece in pieces.get("program", ())):
        program = _parse_pieces(pieces["program"], name, parse_program,
                                atoms, tests)
    pre, post = (None if key not in pieces else _parse_pieces(
        pieces[key], name, read_test, bindings) for key in ("pre", "post"))
    return ProgramFile(bindings, program, pre, post)


def _parse_pieces(pieces, name, parse, *context):
    """``parse`` of the text of (line number, text) pieces joined by spaces
    and ``context``; a ParseError is raised again at the line of the piece
    that holds its column.  A piece with no line is a CLI argument, the
    only piece: the error is raised at its column, or at its line and the
    column on that line if it holds several lines."""
    try:
        return parse(" ".join(piece for _, piece in pieces), *context)
    except ParseError as e:
        # offsets below ends[k] lie in pieces 0..k; the end of input, at
        # ends[-1] - 1, lies in the last piece
        offset = (e.column or 1) - 1
        ends = list(accumulate(len(piece) + 1 for _, piece in pieces))
        line, text = pieces[bisect_right(ends, offset)]
        column = None if line else e.column
        if column and "\n" in text:
            line = text.count("\n", 0, offset) + 1
            column = offset - text.rfind("\n", 0, offset)
        raise ParseError(e.message, line=line, source=name,
                         column=column) from None

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

``#`` starts a comment; blank lines are ignored.  Binary tables must list
every argument pair and unary tables every element: unspecified rows are
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .algebra import FiniteAlgebra
from .errors import ModelError, ParseError
from .hoare import Bindings, Program, eval_test, parse_program, parse_test_expr
from .relations import Rel, StateSpace, parse_rel_literal

__all__ = ["load_model", "dump_model", "ProgramFile", "load_program_file"]


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# algebra model files

_UNARY_KEYS = ("star", "adom", "aran", "not")


def load_model(text: str, name: str = "model") -> FiniteAlgebra:
    carrier = None
    zero = one = None
    tests = None
    binary = {"plus": {}, "times": {}}
    unary = {k: {} for k in _UNARY_KEYS}

    for lineno, line in _lines(text):
        if ":" not in line:
            raise ParseError("expected 'key: ...'", line=lineno, source=name)
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "carrier":
            carrier = rest.split()
        elif key in ("zero", "one"):
            toks = rest.split()
            if len(toks) != 1:
                raise ParseError(f"{key} takes one element", line=lineno, source=name)
            if key == "zero":
                zero = toks[0]
            else:
                one = toks[0]
        elif key == "tests":
            tests = rest.split()
        elif key in binary:
            lhs, _, out = rest.partition("->")
            args = lhs.split()
            out = out.split()
            if len(args) != 2 or len(out) != 1:
                raise ParseError(f"expected '{key}: A B -> C'",
                                 line=lineno, source=name)
            if (args[0], args[1]) in binary[key]:
                raise ParseError(f"duplicate {key} row for {args[0]} {args[1]}",
                                 line=lineno, source=name)
            binary[key][(args[0], args[1])] = out[0]
        elif key in unary:
            lhs, _, out = rest.partition("->")
            args = lhs.split()
            out = out.split()
            if len(args) != 1 or len(out) != 1:
                raise ParseError(f"expected '{key}: A -> B'",
                                 line=lineno, source=name)
            if args[0] in unary[key]:
                raise ParseError(f"duplicate {key} row for {args[0]}",
                                 line=lineno, source=name)
            unary[key][args[0]] = out[0]
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno, source=name)

    if carrier is None:
        raise ParseError("missing carrier line", source=name)
    if zero is None or one is None:
        raise ParseError("missing zero/one line", source=name)
    index = {e: i for i, e in enumerate(carrier)}
    if len(index) != len(carrier):
        raise ParseError("duplicate carrier elements", source=name)

    def elem(e):
        if e not in index:
            raise ParseError(f"unknown element {e!r}", source=name)
        return index[e]

    def binary_table(key):
        table = [[None] * len(carrier) for _ in carrier]
        for (a, b), c in binary[key].items():
            table[elem(a)][elem(b)] = elem(c)
        for a, b in product(carrier, repeat=2):
            if table[index[a]][index[b]] is None:
                raise ParseError(f"missing {key} row for {a} {b}", source=name)
        return table

    def unary_table(key):
        if not unary[key]:
            return None
        table = [None] * len(carrier)
        for a, b in unary[key].items():
            table[elem(a)] = elem(b)
        missing = [e for e in carrier if table[index[e]] is None]
        if missing:
            raise ParseError(f"missing {key} row for {missing[0]}", source=name)
        return table

    complement = None
    if unary["not"]:
        complement = dict(unary["not"])
        for e in complement:
            elem(e)

    try:
        return FiniteAlgebra(
            carrier, zero, one, binary_table("plus"), binary_table("times"),
            star=unary_table("star"), adom=unary_table("adom"),
            aran=unary_table("aran"), tests=tests, complement=complement,
            name=name)
    except ModelError as e:
        raise ModelError(f"{name}: {e}") from None


def dump_model(algebra: FiniteAlgebra) -> str:
    """Serialize an algebra in the model file format (inverse of load_model)."""
    name = algebra.element_name
    out = [f"carrier: {' '.join(algebra.carrier)}",
           f"zero: {name(algebra.zero_i)}",
           f"one: {name(algebra.one_i)}"]
    if algebra.tests_i is not None:
        out.append(f"tests: {' '.join(map(name, algebra.tests_i))}")
    n = algebra.size
    for op in ("plus", "times"):
        fn = getattr(algebra, op)
        for i in range(n):
            for j in range(n):
                out.append(f"{op}: {name(i)} {name(j)} -> {name(fn(i, j))}")
    for op in ("star", "adom", "aran"):
        if algebra.has_op(op):
            fn = getattr(algebra, op)
            for i in range(n):
                out.append(f"{op}: {name(i)} -> {name(fn(i))}")
    if algebra.tests_i is not None and not algebra.has_op("adom"):
        for t in algebra.tests_i:
            out.append(f"not: {name(t)} -> {name(algebra.complement(t))}")
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
        key = line.split(None, 1)[0].rstrip(":")
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
            rest = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
            decl_name, eq, literal = rest.partition("=")
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
    pre = post = None
    if pre_text is not None:
        pre = eval_test(parse_test_expr(pre_text, tests), bindings)
    if post_text is not None:
        post = eval_test(parse_test_expr(post_text, tests), bindings)
    return ProgramFile(bindings, program, pre, post)

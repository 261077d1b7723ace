"""Term language for Kleene algebra expressions with tests, domain and range.

Terms are immutable trees over the signature 0, 1, +, ;, *, !, a, d, r, ar
and the box operator [x]y.  Box, d and r are sugar: ``desugar`` rewrites
them into the antidomain/antirange primitives, so concrete models only ever
interpret +, ;, *, !, a and ar.  It serves the law inventory, whose laws
are stored desugared; evaluation expands the sugar where it meets it.

A node's children are its term-valued fields (``_children``); ``_walk``
visits them for ``variables`` and the law compiler, ``desugar`` rebuilds
non-sugar nodes from them, and one table names a, d, r, ar (``_OP_NAMES``).

Concrete syntax (see ``parse_term``): multiplication is written ``;``,
``!`` complements tests, ``*`` is postfix star, and ``!``/``*`` bind
tighter than ``;`` which binds tighter than ``+``.  ``&`` and ``|`` are
surface sugar for ``;`` and ``+`` (conjunction and disjunction on tests),
so Hoare guards and assertions are read by the same parser.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Optional

from .errors import ParseError, SortError
from .records import Frozen

__all__ = [
    "Term", "Zero", "One", "Var", "TestVar", "Plus", "Times", "Star", "Not",
    "ADom", "Dom", "ARan", "Ran", "Box", "ZERO", "ONE",
    "Sort", "sort_of", "desugar", "parse_term", "print_term",
    "variables", "is_identifier", "DEFAULT_TEST_INITIALS", "MAX_DEPTH",
]


class Term(Frozen):
    """Base class for term nodes; each node is a ``records.Frozen``."""

    def __str__(self):
        return print_term(self)


class _Named(Term):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class _Binary(Term):
    __match_args__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        d = self.__dict__
        d["left"] = left
        d["right"] = right


class _Unary(Term):
    __match_args__ = ("arg",)

    def __init__(self, arg: Term):
        self.__dict__["arg"] = arg


class Zero(Term):
    pass


class One(Term):
    pass


class Var(_Named):
    pass


class TestVar(_Named):
    pass


class Plus(_Binary):
    pass


class Times(_Binary):
    pass


class Star(_Unary):
    pass


class Not(_Unary):
    pass


class ADom(_Unary):
    pass


class Dom(_Unary):
    pass


class ARan(_Unary):
    pass


class Ran(_Unary):
    pass


class Box(Term):
    __match_args__ = ("prog", "post")

    def __init__(self, prog: Term, post: Term):
        self.__dict__.update(prog=prog, post=post)


ZERO = Zero()
ONE = One()


class Sort(Enum):
    ELEMENT = "element"
    TEST = "test"


# the named operators, as the parser reads them and the printer writes them
_OP_NAMES = {"a": ADom, "d": Dom, "r": Ran, "ar": ARan}
_NAME_OF = {cls: name for name, cls in _OP_NAMES.items()}


def _children(t: Term) -> list:
    """The node's subterms: its term-valued fields, in field order."""
    return [c for c in vars(t).values() if isinstance(c, Term)]


def _walk(*roots: Term):
    """Every subterm of the roots, repeats included: preorder, last first."""
    stack = list(roots)
    while stack:
        t = stack.pop()
        yield t
        stack += _children(t)


def variables(t: Term) -> tuple[frozenset, frozenset]:
    """Return (plain variable names, test variable names) used in ``t``."""
    vs, ts = set(), set()
    for node in _walk(t):
        if isinstance(node, Var):
            vs.add(node.name)
        elif isinstance(node, TestVar):
            ts.add(node.name)
    return frozenset(vs), frozenset(ts)


# ---------------------------------------------------------------------------
# sorting

def sort_of(t: Term) -> Sort:
    """Sort a term as ELEMENT or TEST, or raise SortError.

    Tests are built from 0, 1, test variables, + and ; of tests, !, and the
    (anti)domain/(anti)range operators (their images are always tests).
    Star always yields an element-sorted term.
    """

    def go(node: Term) -> Sort:
        match node:
            case Zero() | One() | TestVar():
                return Sort.TEST
            case Var():
                return Sort.ELEMENT
            case Plus(l, r) | Times(l, r):
                sl, sr = go(l), go(r)
                if sl is Sort.TEST and sr is Sort.TEST:
                    return Sort.TEST
                return Sort.ELEMENT
            case Star(arg):
                go(arg)
                return Sort.ELEMENT
            case Not(arg):
                if go(arg) is not Sort.TEST:
                    raise SortError(
                        f"complement applied to non-test subterm: {print_term(arg)}")
                return Sort.TEST
            case ADom() | Dom() | ARan() | Ran() | Box():
                for child in _children(node):
                    go(child)
                return Sort.TEST
        raise TypeError(f"not a term: {node!r}")

    return go(t)


# ---------------------------------------------------------------------------
# desugaring

def desugar(t: Term) -> Term:
    """Expand Box, Dom and Ran; the result uses only primitive operators.

    [x]y -> a(x ; a(y)),  d(t) -> a(a(t)),  r(t) -> ar(ar(t)).
    Idempotent by construction.
    """
    match t:
        case Zero() | One() | Var(_) | TestVar(_):
            return t
        case Dom(a):
            return ADom(ADom(desugar(a)))
        case Ran(a):
            return ARan(ARan(desugar(a)))
        case Box(x, y):
            return ADom(Times(desugar(x), ADom(desugar(y))))
        case Term():
            return type(t)(*map(desugar, _children(t)))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# printing

_PREC_PLUS, _PREC_TIMES, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4
# how tightly each operator binds; every other node prints as an atom
_PREC = {Plus: _PREC_PLUS, Times: _PREC_TIMES, Star: _PREC_UNARY,
         Not: _PREC_UNARY, Box: _PREC_UNARY}


def print_term(t: Term) -> str:
    """Render a term in the concrete syntax; parse_term inverts this."""

    def wrap(node, minimum):
        s = go(node)
        return f"({s})" if _PREC.get(type(node), _PREC_ATOM) < minimum else s

    def go(node):
        match node:
            case Zero():
                return "0"
            case One():
                return "1"
            case Var(name) | TestVar(name):
                return name
            case Plus(l, r):
                return f"{wrap(l, _PREC_PLUS)} + {wrap(r, _PREC_PLUS + 1)}"
            case Times(l, r):
                return f"{wrap(l, _PREC_TIMES)} ; {wrap(r, _PREC_TIMES + 1)}"
            case Star(a):
                return f"{wrap(a, _PREC_ATOM)}*"
            case Not(a):
                return f"!{wrap(a, _PREC_ATOM)}"
            case ADom(a) | Dom(a) | ARan(a) | Ran(a):
                return f"{_NAME_OF[type(node)]}({go(a)})"
            case Box(x, y):
                return f"[{go(x)}]{wrap(y, _PREC_UNARY)}"
        raise TypeError(f"not a term: {node!r}")

    return go(t)


# ---------------------------------------------------------------------------
# parsing

# the last alternative takes any character that starts no other token
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<const>[01])"
    r"|(?P<sym>[+;*!()\[\]&|])"
    r"|(?P<bad>.)", re.DOTALL)

# The parser rejects terms nested deeper than this, counting both the levels
# of the tree it builds and the parentheses around them, so that neither it
# nor any later walk over the tree (sorting, desugaring, printing,
# evaluation: all recursive) can reach Python's recursion limit.
MAX_DEPTH = 100

# Identifiers starting with one of these letters parse as test variables
# when no explicit test-name set is supplied (the conventional letters for
# boolean elements); an explicit set always wins.
DEFAULT_TEST_INITIALS = "pqrst"


def is_identifier(name: str) -> bool:
    """Whether ``name`` is one identifier token, a name a term can hold."""
    m = _TOKEN_RE.fullmatch(name)
    return m is not None and m.lastgroup == "ident"


def _tokenize(text: str):
    """(kind, text, column) of each token, in one scan, and then eof."""
    tokens = [(m.lastgroup, m.group(), m.start() + 1)
              for m in _TOKEN_RE.finditer(text) if m.lastgroup != "ws"]
    for kind, val, col in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {val!r}", column=col)
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _TermParser:
    def __init__(self, tokens, tests: Optional[frozenset]):
        self.tokens = tokens
        self.i = 0
        self.tests = tests
        self.nesting = 0
        # id of each node built -> (its depth, the node, kept so that the id
        # is not reused); leaves are absent and have depth 1
        self.depth = {}

    def node(self, cls, col, *args):
        """Build a node, refusing one nested deeper than MAX_DEPTH."""
        depth = 1 + max(self.depth.get(id(a), (1,))[0] for a in args)
        if depth > MAX_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_DEPTH} levels",
                             column=col)
        t = cls(*args)
        self.depth[id(t)] = depth, t
        return t

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}",
                             column=col)

    def names_test(self, name):
        if self.tests is not None:
            return name in self.tests
        return name[0] in DEFAULT_TEST_INITIALS

    def parse_all(self, rule):
        """Apply ``rule`` and require it to consume the whole input."""
        result = rule()
        kind, val, col = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {val!r}", column=col)
        return result

    def parse_expr(self):
        t = self.parse_term()
        while self.peek()[1] in ("+", "|"):
            col = self.next()[2]
            t = self.node(Plus, col, t, self.parse_term())
        return t

    def parse_term(self):
        t = self.parse_unary()
        while self.peek()[1] in (";", "&"):
            col = self.next()[2]
            t = self.node(Times, col, t, self.parse_unary())
        return t

    def parse_unary(self):
        kind, val, col = self.peek()
        # every recursion of the grammar passes through here
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_DEPTH} levels",
                             column=col)
        if val == "!":
            self.next()
            t = self.node(Not, col, self.parse_unary())
        elif val == "[":
            self.next()
            prog = self.parse_expr()
            self.expect("]")
            t = self.node(Box, col, prog, self.parse_unary())
        else:
            t = self.parse_postfix()
        self.nesting -= 1
        return t

    def parse_postfix(self):
        t = self.parse_primary()
        while self.peek()[1] == "*":
            col = self.next()[2]
            t = self.node(Star, col, t)
        return t

    def parse_primary(self):
        kind, val, col = self.next()
        if kind == "const":
            return ZERO if val == "0" else ONE
        if kind == "ident":
            if self.peek()[1] == "(":
                if val not in _OP_NAMES:
                    raise ParseError(f"unknown operator name {val!r}", column=col)
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return self.node(_OP_NAMES[val], col, arg)
            if self.names_test(val):
                return TestVar(val)
            return Var(val)
        if val == "(":
            t = self.parse_expr()
            self.expect(")")
            return t
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", column=col)


def parse_term(text: str, tests: Optional[Iterable[str]] = None) -> Term:
    """Parse the concrete term syntax.

    ``tests`` names the identifiers to read as test variables (as declared
    by a model); when omitted, identifiers starting with one of
    ``DEFAULT_TEST_INITIALS`` are taken as tests.
    """
    parser = _TermParser(_tokenize(text),
                         None if tests is None else frozenset(tests))
    return parser.parse_all(parser.parse_expr)

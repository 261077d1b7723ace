"""Term language for Kleene algebra expressions with tests, domain and range.

Terms are immutable trees over the signature 0, 1, +, ;, *, !, a, d, r, ar
and the box operator [x]y.  Box, d and r are sugar: ``desugar`` rewrites
them into the antidomain/antirange primitives, so concrete models only ever
interpret +, ;, *, !, a and ar.

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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

from .errors import ParseError, SortError

__all__ = [
    "Term", "Zero", "One", "Var", "TestVar", "Plus", "Times", "Star", "Not",
    "ADom", "Dom", "ARan", "Ran", "Box", "ZERO", "ONE",
    "Sort", "Env", "sort_of", "desugar", "parse_term", "print_term",
    "variables", "DEFAULT_TEST_INITIALS", "MAX_DEPTH",
]


class Term:
    """Base class for term nodes; all subclasses are frozen dataclasses."""

    def __str__(self):
        return print_term(self)


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class TestVar(Term):
    name: str


@dataclass(frozen=True)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Times(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Star(Term):
    arg: Term


@dataclass(frozen=True)
class Not(Term):
    arg: Term


@dataclass(frozen=True)
class ADom(Term):
    arg: Term


@dataclass(frozen=True)
class Dom(Term):
    arg: Term


@dataclass(frozen=True)
class ARan(Term):
    arg: Term


@dataclass(frozen=True)
class Ran(Term):
    arg: Term


@dataclass(frozen=True)
class Box(Term):
    prog: Term
    post: Term


ZERO = Zero()
ONE = One()


class Sort(Enum):
    ELEMENT = "element"
    TEST = "test"


@dataclass(frozen=True)
class Env:
    """Bindings from variable names to model element names.

    ``elements`` binds plain variables, ``tests`` binds test variables.
    Whether a bound value really is a test of the target model is checked
    by the model at evaluation time.
    """

    elements: Mapping[str, str] = None
    tests: Mapping[str, str] = None

    def __post_init__(self):
        object.__setattr__(self, "elements", dict(self.elements or {}))
        object.__setattr__(self, "tests", dict(self.tests or {}))


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

def sort_of(t: Term, declared_tests: Iterable[str] = ()) -> Sort:
    """Sort a term as ELEMENT or TEST, or raise SortError.

    Tests are built from 0, 1, test variables, + and ; of tests, !, and the
    (anti)domain/(anti)range operators (their images are always tests).
    Star always yields an element-sorted term.  ``declared_tests`` promotes
    plain variables with those names to test sort.
    """
    declared = frozenset(declared_tests)

    def go(node: Term) -> Sort:
        match node:
            case Zero() | One() | TestVar():
                return Sort.TEST
            case Var(name):
                return Sort.TEST if name in declared else Sort.ELEMENT
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


def _prec(t: Term) -> int:
    match t:
        case Plus(_, _):
            return _PREC_PLUS
        case Times(_, _):
            return _PREC_TIMES
        case Star(_) | Not(_) | Box(_, _):
            return _PREC_UNARY
        case _:
            return _PREC_ATOM


def print_term(t: Term) -> str:
    """Render a term in the concrete syntax; parse_term inverts this."""

    def wrap(node, minimum):
        s = go(node)
        return f"({s})" if _prec(node) < minimum else s

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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<const>[01])"
    r"|(?P<sym>[+;*!()\[\]&|])"
)

# The parser rejects terms nested deeper than this, counting both the levels
# of the tree it builds and the parentheses around them, so that neither it
# nor any later walk over the tree (sorting, desugaring, printing,
# evaluation: all recursive) can reach Python's recursion limit.
MAX_DEPTH = 100

# Identifiers starting with one of these letters parse as test variables
# when no explicit test-name set is supplied (the conventional letters for
# boolean elements); an explicit set always wins.
DEFAULT_TEST_INITIALS = "pqrst"


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(m.lastgroup), pos + 1))
        pos = m.end()
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

    def is_test_name(self, name):
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
            if self.is_test_name(val):
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

"""While-programs over relational state spaces: semantics, triples, wlp.

Programs are read in the KAT encoding: ``skip`` is 1, ``if t then x else
y fi`` is t;X + !t;Y and ``while t do x od`` is (t;X)* ; !t.  Guards,
assertions and invariants are test-sorted terms of ``kadlab.terms`` over
the declared tests, so ``denote`` and ``eval_test`` are term evaluation in
the relation algebra of the state space.  A triple {p} x {q} holds iff
p ; X ; !q is empty, equivalently iff p <= [X]q = a(X ; a(q)), the weakest
liberal precondition; it is decided in the second form, which needs no
relation product (the box is a mask over X's rows).  ``while`` loops may
carry an invariant annotation (``while t invariant j do ... od``);
``vcgen`` recurses over the program to use it when present and otherwise
falls back to the exact loop wlp, which finite models make available.
The inference rules are quasi-laws of the algebra, which
``algebra.check_rules`` checks on any finite model (``rel_algebra_model``
tabulates the relation algebras of up to 3 states for it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import terms as tm
from .algebra import _eval_idx
from .errors import EvalError, KadlabError, ModelError, ParseError, SortError
from .relations import Rel, StateSpace

__all__ = [
    "Program", "Skip", "Atom", "Seq", "If", "While",
    "HoareTriple", "Bindings", "parse_test_expr", "parse_program",
    "eval_test", "denote", "holds", "wlp", "vcgen", "synth_mid",
    "VerificationCondition", "VcReport", "PremiseError", "SYNTH_METHODS",
]


class PremiseError(KadlabError):
    """The premise triple of an intermediate-assertion synthesis fails."""


# ---------------------------------------------------------------------------
# programs

class Program:
    pass


@dataclass(frozen=True)
class Skip(Program):
    pass


@dataclass(frozen=True)
class Atom(Program):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Seq(Program):
    """``first ; second``.  Parsed programs are left-deep chains of any
    length, so equality, hashing and repr walk the statements with
    ``_spine`` instead of recursing.  Like the encoding, they ignore the
    grouping: two chains of the same statements are equal."""

    first: Program
    second: Program

    def __eq__(self, other):
        if not isinstance(other, Seq):
            return NotImplemented
        return _spine(self) == _spine(other)

    def __hash__(self):
        return hash(tuple(_spine(self)))

    def __repr__(self):
        return f"Seq({', '.join(map(repr, _spine(self)))})"


@dataclass(frozen=True)
class If(Program):
    guard: tm.Term
    then: Program
    orelse: Program


@dataclass(frozen=True)
class While(Program):
    guard: tm.Term
    body: Program
    invariant: Optional[tm.Term] = None


@dataclass(frozen=True)
class HoareTriple:
    pre: Rel
    prog: Program
    post: Rel


@dataclass(frozen=True)
class Bindings:
    """Named atomic commands and named tests over one state space."""

    space: StateSpace
    atoms: Mapping[str, Rel]
    tests: Mapping[str, Rel]

    def __post_init__(self):
        object.__setattr__(self, "atoms", dict(self.atoms))
        object.__setattr__(self, "tests", dict(self.tests))
        for name, rel in self.atoms.items():
            if rel.space != self.space:
                raise ModelError(f"atom {name!r} lives on a different space")
        for name, rel in self.tests.items():
            if rel.space != self.space:
                raise ModelError(f"test {name!r} lives on a different space")
            if not rel.is_subidentity():
                raise ModelError(f"test {name!r} is not a subidentity")
        # built once, not per evaluation: the relation algebra (the space)
        # and the bit patterns that atoms (element variables) and tests
        # denote in it
        object.__setattr__(self, "_eval_args", (
            self.space, {k: r.bits for k, r in self.atoms.items()},
            {k: r.bits for k, r in self.tests.items()}))


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = frozenset({"skip", "if", "then", "else", "fi",
                       "while", "do", "od", "invariant"})


class _Parser(tm._TermParser):
    """The program grammar over the term tokens; guards are terms."""

    def __init__(self, text, atoms, tests):
        super().__init__(tm._tokenize(text), frozenset(tests))
        self.atoms = frozenset(atoms)
        self.blocks = 0     # if/while levels open, bounded like term depth

    def guard(self) -> tm.Term:
        """A test-sorted term whose variables are all declared tests."""
        col = self.peek()[2]
        t = self.parse_expr()
        unknown = tm.variables(t)[0]
        if unknown:
            raise ParseError(f"unknown test {min(unknown)!r}", column=col)
        try:
            if tm.sort_of(t) is tm.Sort.TEST:
                return tm.desugar(t)
        except SortError:
            pass
        raise ParseError(f"expected a test, found {tm.print_term(t)!r}",
                         column=col)

    def program(self):
        p = self.piece()
        while self.peek()[1] == ";":
            self.next()
            p = Seq(p, self.piece())
        return p

    def piece(self):
        kind, tok, col = self.next()
        if tok == "skip":
            return Skip()
        if tok in ("if", "while"):
            self.blocks += 1
            if self.blocks > tm.MAX_DEPTH:
                raise ParseError(f"program nested deeper than {tm.MAX_DEPTH} "
                                 "if/while levels", column=col)
        if tok == "if":
            guard = self.guard()
            self.expect("then")
            then = self.program()
            self.expect("else")
            orelse = self.program()
            self.expect("fi")
            self.blocks -= 1
            return If(guard, then, orelse)
        if tok == "while":
            guard = self.guard()
            invariant = None
            if self.peek()[1] == "invariant":
                self.next()
                invariant = self.guard()
            self.expect("do")
            body = self.program()
            self.expect("od")
            self.blocks -= 1
            return While(guard, body, invariant)
        if kind == "ident" and tok not in _KEYWORDS:
            if tok not in self.atoms:
                raise ParseError(f"unknown atomic command {tok!r}", column=col)
            return Atom(tok)
        raise ParseError(f"expected a program, found {tok or 'end of input'!r}",
                         column=col)


def parse_program(text: str, atoms, tests) -> Program:
    parser = _Parser(text, atoms, tests)
    return parser.parse_all(parser.program)


def parse_test_expr(text: str, tests) -> tm.Term:
    """Parse a test term over the named tests (see ``_Parser.guard``)."""
    parser = _Parser(text, (), tests)
    return parser.parse_all(parser.guard)


# ---------------------------------------------------------------------------
# semantics

def _spine(prog: Program) -> list[Program]:
    """The statements of a ``Seq`` chain in order, walked without recursion."""
    out, stack = [], [prog]
    while stack:
        p = stack.pop()
        if isinstance(p, Seq):
            stack += [p.second, p.first]
        else:
            out.append(p)
    return out


def _product(factors: list[tm.Term]) -> tm.Term:
    """A balanced product (composition is associative): shallow for any length."""
    if len(factors) == 1:
        return factors[0]
    mid = len(factors) // 2
    return tm.Times(_product(factors[:mid]), _product(factors[mid:]))


def _encode(prog: Program) -> tm.Term:
    """The KAT encoding of a program; atoms become element variables."""
    match prog:
        case Skip():
            return tm.ONE
        case Atom(name):
            return tm.Var(name)
        case Seq():
            return _product([_encode(p) for p in _spine(prog)])
        case If(guard, then, orelse):
            return tm.Plus(tm.Times(guard, _encode(then)),
                           tm.Times(tm.Not(guard), _encode(orelse)))
        case While(guard, body, _):
            return tm.Times(tm.Star(tm.Times(guard, _encode(body))),
                            tm.Not(guard))
    raise TypeError(f"not a program: {prog!r}")


def eval_test(expr: tm.Term, bindings: Bindings) -> Rel:
    """Evaluate a term in the relation algebra of the bindings' space."""
    space, venv, tenv = bindings._eval_args
    try:
        return Rel(space, _eval_idx(space, expr, venv, tenv))
    except EvalError as e:
        raise ModelError(str(e)) from None


def denote(prog: Program, bindings: Bindings) -> Rel:
    return eval_test(_encode(prog), bindings)


def _check_test(rel: Rel, what: str):
    if not rel.is_subidentity():
        raise ModelError(f"{what} must be a subidentity test")


def _triple_holds(pre: Rel, rel: Rel, post: Rel) -> bool:
    """{p} X {q} for tests p and q, which the callers check, decided as
    p <= [X]q, which holds iff p ; X ; !q is empty."""
    return pre.leq(rel.box(post))


def holds(triple: HoareTriple, bindings: Bindings) -> bool:
    """{p} x {q} iff p ; X ; !q is empty, decided as p <= [X]q."""
    _check_test(triple.pre, "precondition")
    _check_test(triple.post, "postcondition")
    return _triple_holds(triple.pre, denote(triple.prog, bindings), triple.post)


def wlp(prog: Program, post: Rel, bindings: Bindings) -> Rel:
    """Weakest liberal precondition [X]post of the program's denotation."""
    _check_test(post, "postcondition")
    return denote(prog, bindings).box(post)


# ---------------------------------------------------------------------------
# verification conditions

@dataclass(frozen=True)
class VerificationCondition:
    name: str
    lhs: Rel
    rhs: Rel

    @property
    def holds(self) -> bool:
        return self.lhs.leq(self.rhs)


@dataclass(frozen=True)
class VcReport:
    precondition: Rel
    conditions: tuple[VerificationCondition, ...]

    @property
    def valid(self) -> bool:
        return all(c.holds for c in self.conditions)


def vcgen(pre: Rel, prog: Program, post: Rel, bindings: Bindings) -> VcReport:
    """Generate and evaluate verification conditions for {pre} prog {post}.

    Loops with an invariant annotation contribute preservation and exit
    conditions and their invariant becomes the computed precondition;
    unannotated loops use the exact loop wlp.
    """
    _check_test(pre, "precondition")
    _check_test(post, "postcondition")
    counter = [0]

    def wp(p: Program, q: Rel):
        match p:
            case Skip():
                return q, []
            case Atom(_):
                return denote(p, bindings).box(q), []
            case Seq():
                vcs = []    # last statement first: loops count from the back
                for statement in reversed(_spine(p)):
                    q, v = wp(statement, q)
                    vcs[:0] = v
                return q, vcs
            case If(guard, then, orelse):
                t = eval_test(guard, bindings)
                wt, vt = wp(then, q)
                we, ve = wp(orelse, q)
                pre_if = t.intersect(wt).union(t.complement_test().intersect(we))
                return pre_if, vt + ve
            case While(guard, body, invariant):
                if invariant is None:
                    return denote(p, bindings).box(q), []
                counter[0] += 1
                k = counter[0]
                inv = eval_test(invariant, bindings)
                t = eval_test(guard, bindings)
                wbody, vbody = wp(body, inv)
                vcs = [
                    VerificationCondition(f"while{k}-preserve",
                                          inv.intersect(t), wbody),
                    VerificationCondition(f"while{k}-exit",
                                          inv.intersect(t.complement_test()), q),
                ]
                return inv, vcs + vbody
        raise TypeError(f"not a program: {p!r}")

    precondition, vcs = wp(prog, post)
    head = VerificationCondition("precondition", pre, precondition)
    return VcReport(precondition, tuple([head] + vcs))


# ---------------------------------------------------------------------------
# intermediate-assertion synthesis

SYNTH_METHODS = ("wlp", "range", "meet")


def synth_mid(x: Program, y: Program, p: Rel, q: Rel, method: str,
              bindings: Bindings) -> Rel:
    """An intermediate test r with {p} x {r} and {r} y {q}.

    Requires the premise triple {p} x;y {q}, decided as p <= [X][Y]q, so
    X ; Y is never formed; the three methods are the box of the second
    factor, the range of p through the first factor (via a double
    antirange), and their meet.
    """
    if method not in SYNTH_METHODS:
        raise ModelError(f"unknown synthesis method {method!r} "
                         f"(one of {', '.join(SYNTH_METHODS)})")
    _check_test(p, "precondition")
    _check_test(q, "postcondition")
    X = denote(x, bindings)
    Y = denote(y, bindings)
    box = Y.box(q)
    if not _triple_holds(p, X, box):
        raise PremiseError("premise triple {p} x;y {q} does not hold")
    if method == "wlp":
        return box
    reach = p.compose(X).aran().aran()
    if method == "range":
        return reach
    return box.intersect(reach)


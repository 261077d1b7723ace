"""While-programs over relational state spaces: semantics, triples, wlp.

Programs are read in the KAT encoding: ``skip`` is 1, ``if t then x else
y fi`` is t;X + !t;Y and ``while t do x od`` is (t;X)* ; !t.  Guards,
assertions and invariants are test-sorted terms of ``kadlab.terms`` over
the declared tests, so ``denote`` and ``eval_test`` are term evaluation in
the relation algebra of the state space; ``denote`` is the relational
semantics.  A triple {p} x {q} holds iff p ; X ; !q is empty, equivalently
iff p <= [X]q = a(X ; a(q)), the weakest liberal precondition.  It is
decided in the second form, and [x]q is a predicate transformer on tests,
computed by structure without forming X: an atom's box keeps the states
whose row lies in q, [x;y]q = [x][y]q, [if t then x else y fi]q is
t;[x]q + !t;[y]q, and [while t do B od]q is the greatest fixpoint
nu s. (t + q)(!t + [B]s), iterated down from t + q.  The image ran(p ; X)
that synthesis needs is carried forward the same way; for a loop it is
!t ; (mu s. p + ran(s ; t ; B)), iterated up from p.  Each fixpoint walks
a monotone chain of state sets, so it stops within n + 1 rounds.
``while`` loops may carry an invariant annotation (``while t invariant j
do ... od``); ``vcgen`` runs the same backward transformer and uses the
invariant where there is one, emitting its conditions, and the loop's
fixpoint where there is none.  The inference rules are quasi-laws of the
algebra, which ``algebra.check_rules`` checks on any finite model
(``rel_algebra_model`` tabulates the relation algebras of up to 3 states
for it).
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
    "eval_test", "read_test", "denote", "holds", "wlp", "vcgen", "synth_mid",
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


def _bits(expr: tm.Term, bindings: Bindings) -> int:
    """The bit pattern of a term in the relation algebra of the bindings'
    space."""
    space, venv, tenv = bindings._eval_args
    try:
        return _eval_idx(space, expr, venv, tenv)
    except EvalError as e:
        raise ModelError(str(e)) from None


def eval_test(expr: tm.Term, bindings: Bindings) -> Rel:
    """Evaluate a term in the relation algebra of the bindings' space."""
    return Rel(bindings.space, _bits(expr, bindings))


def read_test(text: str, bindings: Bindings) -> Rel:
    """Parse a test expression over the bindings' tests and evaluate it."""
    return eval_test(parse_test_expr(text, bindings.tests), bindings)


def denote(prog: Program, bindings: Bindings) -> Rel:
    """The relation of a program: its KAT encoding, evaluated.  This is the
    relational semantics that the predicate transformers below are tested
    against; they never form it."""
    return eval_test(_encode(prog), bindings)


def _check_test(rel: Rel, what: str, space: StateSpace):
    if not rel.is_subidentity():
        raise ModelError(f"{what} must be a subidentity test")
    if rel.space != space:
        raise ModelError("relations live on different state spaces")


# ---------------------------------------------------------------------------
# predicate transformers on test bit patterns

def _guard(guard: tm.Term, bindings: Bindings) -> tuple[int, int]:
    """A guard's test and its complement (a guard that is no test is
    refused, as ``denote`` refuses it)."""
    untaken = _bits(tm.Not(guard), bindings)
    return bindings.space.one_i ^ untaken, untaken


def _wp(prog: Program, q: int, bindings: Bindings,
        loops: Optional[list[int]] = None):
    """[prog]q on test bit patterns, and the conditions of its annotated
    loops.  With ``loops`` None the wlp is exact and invariants are
    ignored; otherwise ``loops`` counts the annotated loops met so far, and
    the k-th yields whilek-preserve, whilek-exit and its invariant."""
    space = bindings.space
    match prog:
        case Skip():
            return q, []
        case Atom(name):
            return space.box(_bits(tm.Var(name), bindings), q), []
        case Seq():
            vcs = []    # last statement first: loops count from the back
            for statement in reversed(_spine(prog)):
                q, v = _wp(statement, q, bindings, loops)
                vcs[:0] = v
            return q, vcs
        case If(guard, then, orelse):
            t, untaken = _guard(guard, bindings)
            wt, vt = _wp(then, q, bindings, loops)
            we, ve = _wp(orelse, q, bindings, loops)
            return t & wt | untaken & we, vt + ve
        case While(guard, body, invariant) if loops is None or invariant is None:
            t, untaken = _guard(guard, bindings)
            top = s = t | q
            while True:     # a falling chain of state sets: at most n + 1 rounds
                below = top & (untaken | _wp(body, s, bindings)[0])
                if below == s:
                    return s, []
                s = below
        case While(guard, body, invariant):
            loops[0] += 1
            k = loops[0]
            inv = _bits(invariant, bindings)
            t, untaken = _guard(guard, bindings)
            wbody, vbody = _wp(body, inv, bindings, loops)
            return inv, [
                VerificationCondition(f"while{k}-preserve",
                                      Rel(space, inv & t), Rel(space, wbody)),
                VerificationCondition(f"while{k}-exit",
                                      Rel(space, inv & untaken), Rel(space, q)),
            ] + vbody
    raise TypeError(f"not a program: {prog!r}")


def _image(prog: Program, p: int, bindings: Bindings) -> int:
    """ran(p ; X) for a test p, carried forward through the program; a loop
    is !t ; (mu s. p + ran(s ; t ; B)), iterated up from p."""
    space = bindings.space
    match prog:
        case Skip():
            return p
        case Atom(name):
            return space.image(p, _bits(tm.Var(name), bindings))
        case Seq():
            for statement in _spine(prog):
                p = _image(statement, p, bindings)
            return p
        case If(guard, then, orelse):
            t, untaken = _guard(guard, bindings)
            return (_image(then, p & t, bindings)
                    | _image(orelse, p & untaken, bindings))
        case While(guard, body, _):
            t, untaken = _guard(guard, bindings)
            s = p
            while True:     # a rising chain of state sets: at most n + 1 rounds
                above = p | _image(body, s & t, bindings)
                if above == s:
                    return s & untaken
                s = above
    raise TypeError(f"not a program: {prog!r}")


def holds(triple: HoareTriple, bindings: Bindings) -> bool:
    """{p} x {q} iff p ; X ; !q is empty, decided as p <= [x]q."""
    _check_test(triple.pre, "precondition", bindings.space)
    return triple.pre.leq(wlp(triple.prog, triple.post, bindings))


def wlp(prog: Program, post: Rel, bindings: Bindings) -> Rel:
    """Weakest liberal precondition [x]post, by the exact transformer."""
    _check_test(post, "postcondition", bindings.space)
    return Rel(bindings.space, _wp(prog, post.bits, bindings)[0])


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
    space = bindings.space
    _check_test(pre, "precondition", space)
    _check_test(post, "postcondition", space)
    bits, vcs = _wp(prog, post.bits, bindings, [0])
    precondition = Rel(space, bits)
    head = VerificationCondition("precondition", pre, precondition)
    return VcReport(precondition, tuple([head] + vcs))


# ---------------------------------------------------------------------------
# intermediate-assertion synthesis

SYNTH_METHODS = ("wlp", "range", "meet")


def synth_mid(x: Program, y: Program, p: Rel, q: Rel, method: str,
              bindings: Bindings) -> Rel:
    """An intermediate test r with {p} x {r} and {r} y {q}.

    Requires the premise triple {p} x;y {q}, decided as p <= [x][y]q; the
    three methods are [y]q, the image ran(p ; X) of p through x, and their
    meet.  Both are predicate transformers, so no relation is formed.
    """
    if method not in SYNTH_METHODS:
        raise ModelError(f"unknown synthesis method {method!r} "
                         f"(one of {', '.join(SYNTH_METHODS)})")
    _check_test(p, "precondition", bindings.space)
    box = wlp(y, q, bindings)
    if not p.leq(wlp(x, box, bindings)):
        raise PremiseError("premise triple {p} x;y {q} does not hold")
    if method == "wlp":
        return box
    reach = Rel(bindings.space, _image(x, p.bits, bindings))
    if method == "range":
        return reach
    return box.intersect(reach)

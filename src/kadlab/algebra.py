"""Finite algebras given by operation tables.

A ``FiniteAlgebra`` carries a named carrier with tables for +, ;, and
optionally *, antidomain, antirange, a test subset and a test complement.
Axiom profiles (semiring, dioid, Kleene algebra, test semiring, KAT,
antidomain semiring, ..., through combined domain/range algebras) are
checked by exhaustive instantiation over the carrier, which is sound and
complete on finite models; star induction is a quasi-equation and is
checked by testing the implication at every assignment, with the order
x <= y decided by x + y = y.  Each law is compiled once, on first use,
into a Python loop nest over its variables that runs on the raw tables
and computes every subterm at the outermost loop binding its variables.
``check_rules`` checks the Hoare rules the same way, as quasi-laws
(``hoare_rules``).  The mid-assertion sentence phi, the rule inversion that
is no law, is scanned with sets of tests kept as bitmasks, so the search
for an intermediate test is one AND.

Tables are index-based (positions into the carrier tuple) and are built
once, as the constructor validates them, into one record (``_Tables``):
the loop nests take its fields as their parameters, and the phi scan and
the isomorphism test read it too.  The public entry points speak element
names.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from itertools import chain, permutations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import terms as tm
from .errors import EvalError, MissingTableError, ModelError
from .records import Frozen, Record

__all__ = [
    "Profile", "FiniteAlgebra", "CheckReport", "Violation", "PhiResult",
    "check_axioms", "check_phi", "evaluate",
    "lemma4_model", "bool2_model", "trivial_model", "near_as_model",
    "is_isomorphic", "profile_axioms", "required_ops", "hoare_rules",
    "check_rules",
]


class Profile(str, Enum):
    """Cumulative axiom profiles; the value doubles as the CLI spelling."""

    SEMIRING = "semiring"
    DIOID = "dioid"
    KLEENE = "kleene"
    TS = "ts"
    KAT = "kat"
    AS = "as"
    NEAR_AS = "near-as"
    KAD = "kad"
    ARS = "ars"
    KA_DR = "kadr"

    @classmethod
    def parse(cls, token: str) -> "Profile":
        for p in cls:
            if p.value == token:
                return p
        raise ModelError(f"unknown profile {token!r} "
                         f"(one of {', '.join(p.value for p in cls)})")


# ---------------------------------------------------------------------------
# axiom inventory
#
# Axioms are stored as desugared terms over variables x, y, z (carrier) and
# p, q, r, s, t (tests); test variables range over the declared test subset
# only.

class Equation(Frozen):
    __match_args__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: tm.Term, rhs: tm.Term):
        self.__dict__.update(name=name, lhs=lhs, rhs=rhs)


class Quasi(Frozen):
    """Implication between inequalities; s <= t is encoded as s + t = t."""

    __match_args__ = ("name", "premises", "conclusion")

    def __init__(self, name: str,
                 premises: tuple[tuple[tm.Term, tm.Term], ...],
                 conclusion: tuple[tm.Term, tm.Term]):
        self.__dict__.update(
            name=name, premises=premises, conclusion=conclusion)


class ClosureLaw(Frozen):
    """The term's value must land in the test subset."""

    __match_args__ = ("name", "term")

    def __init__(self, name: str, term: tm.Term):
        self.__dict__.update(name=name, term=term)


def _ax(text: str) -> tm.Term:
    return tm.desugar(tm.parse_term(text))


def _eq(name, lhs, rhs):
    return Equation(name, _ax(lhs), _ax(rhs))


_PLUS_MONOID = (
    _eq("plus-assoc", "(x + y) + z", "x + (y + z)"),
    _eq("plus-comm", "x + y", "y + x"),
    _eq("plus-zero", "x + 0", "x"),
)

_TIMES_MONOID = (
    _eq("times-assoc", "(x ; y) ; z", "x ; (y ; z)"),
    _eq("one-times", "1 ; x", "x"),
    _eq("times-one", "x ; 1", "x"),
)

_SEMIRING = _PLUS_MONOID + _TIMES_MONOID + (
    _eq("distrib-left", "x ; (y + z)", "x ; y + x ; z"),
    _eq("distrib-right", "(x + y) ; z", "x ; z + y ; z"),
    _eq("zero-times", "0 ; x", "0"),
    _eq("times-zero", "x ; 0", "0"),
)

# near-semiring variant: no left distributivity, no right annihilator x;0 = 0
_NEAR_SEMIRING = tuple(law for law in _SEMIRING
                       if law.name not in ("distrib-left", "times-zero"))

_IDEM = (_eq("plus-idem", "x + x", "x"),)

_STAR = (
    _eq("star-unfold-left", "1 + x ; x*", "x*"),
    _eq("star-unfold-right", "1 + x* ; x", "x*"),
    Quasi("star-induct-left", ((_ax("z + x ; y"), _ax("y")),),
          (_ax("x* ; z"), _ax("y"))),
    Quasi("star-induct-right", ((_ax("z + y ; x"), _ax("y")),),
          (_ax("z ; x*"), _ax("y"))),
)

# The declared tests must form a boolean subalgebra: closed under the three
# operations, a distributive lattice under +/; (join distributivity follows
# from absorption plus the ambient semiring distributivity), complemented.
_TESTS = (
    ClosureLaw("test-closed-plus", _ax("p + q")),
    ClosureLaw("test-closed-times", _ax("p ; q")),
    ClosureLaw("test-closed-not", _ax("!p")),
    _eq("test-times-comm", "p ; q", "q ; p"),
    _eq("test-times-idem", "p ; p", "p"),
    _eq("test-absorb-plus", "p + p ; q", "p"),
    _eq("test-absorb-times", "p ; (p + q)", "p"),
    _eq("test-not-bottom", "p ; !p", "0"),
    _eq("test-not-top", "p + !p", "1"),
)

_ADOM = (
    _eq("adom-annihilate", "a(x) ; x", "0"),
    _eq("adom-locality", "a(x ; y) + a(x ; d(y))", "a(x ; d(y))"),
    _eq("adom-complement", "a(x) + d(x)", "1"),
)

_ARAN = (
    _eq("aran-annihilate", "x ; ar(x)", "0"),
    _eq("aran-locality", "ar(x ; y) + ar(r(x) ; y)", "ar(r(x) ; y)"),
    _eq("aran-complement", "ar(x) + r(x)", "1"),
)

_COMPAT = (
    _eq("dom-antirange-compat", "d(ar(x))", "ar(x)"),
    _eq("range-antidomain-compat", "r(a(x))", "a(x)"),
)

_PROFILE_AXIOMS = {
    Profile.SEMIRING: _SEMIRING,
    Profile.DIOID: _SEMIRING + _IDEM,
    Profile.KLEENE: _SEMIRING + _IDEM + _STAR,
    Profile.TS: _SEMIRING + _IDEM + _TESTS,
    Profile.KAT: _SEMIRING + _IDEM + _STAR + _TESTS,
    Profile.AS: _SEMIRING + _ADOM,
    Profile.NEAR_AS: _NEAR_SEMIRING + _ADOM,
    Profile.KAD: _SEMIRING + _IDEM + _STAR + _ADOM,
    Profile.ARS: _SEMIRING + _ARAN,
    Profile.KA_DR: _SEMIRING + _IDEM + _STAR + _ADOM + _ARAN + _COMPAT,
}

# the operation each operator applies, in the order model search fills them:
# the ``_Tables`` field a compiled law reads and the method evaluation calls
# on a model or state space; for ``_READS``, ``!`` and test variables read
# the tests
_APPLY = {tm.Plus: "plus", tm.Times: "times", tm.Star: "star",
          tm.ADom: "adom", tm.ARan: "aran", tm.Not: "complement"}
_READS = {**_APPLY, tm.Not: "tests", tm.TestVar: "tests"}


def profile_axioms(profile: Profile):
    """The exact law list a profile checks, in check order."""
    return _PROFILE_AXIOMS[profile]


@functools.cache
def required_ops(profile: Profile) -> frozenset:
    """Optional operations the profile's laws read beyond + and ;."""
    ops = set().union(*map(_reads, profile_axioms(profile)))
    return frozenset(ops - {"plus", "times"})


# Hoare rules as quasi-laws (Kozen, ACM TOCL 2000): {p} x {q} is p;x;!q <= 0.
# Two inversions are no laws: that of consequence (r = p, s = q) restates its
# premise, and that of the sequential rule is the existential sentence phi
# (``check_phi``).  KAD proves phi with r = [y]q, the factored seq rule.

@functools.cache
def hoare_rules(profile: Profile) -> tuple:
    """The Hoare rules of KAT or of KAD as quasi-laws, in check order."""
    if profile not in (Profile.KAT, Profile.KAD):
        raise ModelError(f"Hoare rules are laws of kat and kad, not "
                         f"{profile.value}")

    def triple(p, x, q):
        return _ax(f"{p} ; ({x}) ; !{q}"), tm.ZERO

    def rule(name, premises, conclusion):
        return Quasi(name, tuple(triple(*t) for t in premises),
                     triple(*conclusion))

    branches = ("(p ; t)", "x", "q"), ("(p ; !t)", "y", "q")
    cond = ("p", "t ; x + !t ; y", "q")
    body, loop = ("(p ; t)", "x", "p"), ("p", "(t ; x)*", "p")
    rules = (
        rule("if-rule", branches, cond),
        rule("if-inversion-then", (cond,), branches[0]),
        rule("if-inversion-else", (cond,), branches[1]),
        # the postcondition p ; !t complemented as !p + t: only tests have
        # complements, and p ; !t is one only in a model of the test axioms
        Quasi("while-rule", (triple(*body),),
              (_ax("p ; (t ; x)* ; !t ; (!p + t)"), tm.ZERO)),
        rule("while-invariant", (body,), loop),
        rule("while-inversion", (loop,), body),
        Quasi("consequence", ((_ax("p"), _ax("r")), triple("r", "x", "s"),
                              (_ax("s"), _ax("q"))), triple("p", "x", "q")),
    )
    if profile == Profile.KAD:
        whole, factored = ("p", "x ; y", "q"), ("p", "x", "[y]q")
        rules += (rule("seq-factor", (whole,), factored),
                  rule("seq-compose", (factored,), whole))
    return rules


# ---------------------------------------------------------------------------
# algebras

def _indices_below(n, values) -> bool:
    """Whether every value is an index in range(n), in one C-level pass; an
    unhashable value is not an index."""
    try:
        return set(range(n)).issuperset(values)
    except TypeError:
        return False


class _Tables(NamedTuple):
    """A model's raw tables, in the parameter order of a compiled law.

    ``tests`` is empty and ``complement`` None when no tests are declared;
    otherwise ``complement`` maps each test, and only a test, to its
    complement, and ``tests`` lists its keys in order."""

    n: int
    tests: tuple[int, ...]
    plus: Sequence[Sequence[int]]
    times: Sequence[Sequence[int]]
    star: Optional[Sequence[int]]
    adom: Optional[Sequence[int]]
    aran: Optional[Sequence[int]]
    complement: Optional[Mapping[int, int]]
    zero: int
    one: int


class FiniteAlgebra:
    """Immutable-by-convention algebra over an explicitly tabled carrier.

    ``plus`` and ``times`` are n x n index tables; ``star``/``adom``/``aran``
    are length-n index tables.  ``tests`` lists test element names and
    ``complement`` maps test names to test names.  When an antidomain table
    is present the test subset is its image (and is derived automatically
    if not supplied); complement on tests then defaults to antidomain.
    The validated tables are kept in one record, ``tables``, which the law
    checks, phi and the isomorphism test read as they are.
    """

    def __init__(self, carrier: Sequence[str], zero: str, one: str,
                 plus: Sequence[Sequence[int]], times: Sequence[Sequence[int]],
                 *, star: Optional[Sequence[int]] = None,
                 adom: Optional[Sequence[int]] = None,
                 aran: Optional[Sequence[int]] = None,
                 tests: Optional[Iterable[str]] = None,
                 complement: Optional[Mapping[str, str]] = None,
                 name: str = "algebra"):
        self.name = name
        self.carrier = tuple(carrier)
        n = len(self.carrier)
        if n == 0:
            raise ModelError("empty carrier")
        if len(set(self.carrier)) != n:
            raise ModelError("duplicate carrier element names")
        self._index = {e: i for i, e in enumerate(self.carrier)}
        self.zero_i = self._require_element(zero)
        self.one_i = self._require_element(one)

        plus = self._check_binary("plus", plus, n)
        times = self._check_binary("times", times, n)
        star = self._check_unary("star", star, n)
        adom = self._check_unary("adom", adom, n)
        aran = self._check_unary("aran", aran, n)

        if adom is not None:
            derived = tuple(sorted(set(adom)))
            if tests is None:
                tests_i = derived
            else:
                tests_i = tuple(sorted(self._require_element(t) for t in tests))
                if tests_i != derived:
                    raise ModelError(
                        "declared tests differ from the image of the antidomain table")
        elif tests is not None:
            tests_i = tuple(sorted(self._require_element(t) for t in tests))
        else:
            tests_i = None
        if tests_i is not None:
            if self.zero_i not in tests_i or self.one_i not in tests_i:
                raise ModelError("tests must contain zero and one")

        comp = None
        if complement is not None:
            if tests_i is None:
                raise ModelError("complement table given without tests")
            comp = {}
            for k, v in complement.items():
                ki, vi = self._require_element(k), self._require_element(v)
                if ki not in tests_i or vi not in tests_i:
                    raise ModelError(f"complement row {k} -> {v} leaves the test set")
                comp[ki] = vi
            if set(comp) != set(tests_i):
                raise ModelError("complement table must cover exactly the tests")
            for t in tests_i:
                if comp[comp[t]] != t:
                    raise ModelError("complement table is not an involution")
                if adom is not None and comp[t] != adom[t]:
                    raise ModelError(
                        "complement table disagrees with antidomain on tests")
        elif tests_i is not None:
            if adom is None:
                raise ModelError("tests without a complement table or antidomain")
            comp = {t: adom[t] for t in tests_i}
        self.tables = _Tables(n, tests_i or (), plus, times, star, adom, aran,
                              comp, self.zero_i, self.one_i)

    # -- construction helpers ------------------------------------------------
    def _require_element(self, name: str) -> int:
        if name not in self._index:
            raise ModelError(f"unknown carrier element {name!r}")
        return self._index[name]

    @staticmethod
    def _check_binary(op, table, n):
        if table is None:
            raise ModelError(f"{op} table is required")
        rows = tuple(tuple(row) for row in table)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ModelError(f"{op} table must be {n}x{n}")
        if not _indices_below(n, chain.from_iterable(rows)):
            raise ModelError(f"{op} table value out of range")
        return rows

    @staticmethod
    def _check_unary(op, table, n):
        if table is None:
            return None
        row = tuple(table)
        if len(row) != n or not _indices_below(n, row):
            raise ModelError(f"{op} table must have {n} in-range entries")
        return row

    # -- index-level operations ----------------------------------------------
    @property
    def size(self) -> int:
        return len(self.carrier)

    @property
    def tests_i(self) -> Optional[tuple[int, ...]]:
        return self.tables.tests or None

    def element_name(self, i: int) -> str:
        return self.carrier[i]

    def index(self, name: str) -> int:
        return self._require_element(name)

    def plus(self, i: int, j: int) -> int:
        return self.tables.plus[i][j]

    def times(self, i: int, j: int) -> int:
        return self.tables.times[i][j]

    def star(self, i: int) -> int:
        if self.tables.star is None:
            raise MissingTableError(f"{self.name}: no star table")
        return self.tables.star[i]

    def adom(self, i: int) -> int:
        if self.tables.adom is None:
            raise MissingTableError(f"{self.name}: no antidomain table")
        return self.tables.adom[i]

    def aran(self, i: int) -> int:
        if self.tables.aran is None:
            raise MissingTableError(f"{self.name}: no antirange table")
        return self.tables.aran[i]

    def complement(self, i: int) -> int:
        comp = self.tables.complement
        if comp is None:
            raise MissingTableError(f"{self.name}: no tests declared")
        if i not in comp:
            raise EvalError(
                f"complement of non-test element {self.element_name(i)!r}")
        return comp[i]

    def leq(self, i: int, j: int) -> bool:
        return self.plus(i, j) == j

    def has_op(self, op: str) -> bool:
        """Whether the algebra has the table; it has a complement exactly
        when it has tests."""
        if op not in ("star", "adom", "aran", "tests", "complement"):
            raise ValueError(f"unknown op {op!r}")
        field = "complement" if op == "tests" else op
        return getattr(self.tables, field) is not None

    @property
    def zero(self) -> str:
        return self.carrier[self.zero_i]

    @property
    def one(self) -> str:
        return self.carrier[self.one_i]

    @property
    def tests(self) -> Optional[tuple[str, ...]]:
        if self.tests_i is None:
            return None
        return tuple(self.carrier[i] for i in self.tests_i)

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, size={self.size})"


# ---------------------------------------------------------------------------
# evaluation

def _operations(algebra) -> dict:
    """Each operator's operation on the algebra (``_APPLY``), bound once,
    so that evaluation looks it up by the node's type."""
    return {op: getattr(algebra, name) for op, name in _APPLY.items()}


def _eval_idx(algebra: FiniteAlgebra, t: tm.Term, venv, tenv,
              ops=None) -> int:
    """The index of the term's value, the variables bound to indices by
    ``venv`` and ``tenv``; ``ops`` is ``_operations(algebra)``, resolved
    here when it is not given."""
    ops = ops or _operations(algebra)
    match t:
        case tm.Zero():
            return algebra.zero_i
        case tm.One():
            return algebra.one_i
        case tm.Var(name):
            try:
                return venv[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        case tm.TestVar(name):
            try:
                return tenv[name]
            except KeyError:
                raise EvalError(f"unbound test variable {name!r}") from None
        case tm.Plus(l, r) | tm.Times(l, r):
            return ops[type(t)](_eval_idx(algebra, l, venv, tenv, ops),
                                _eval_idx(algebra, r, venv, tenv, ops))
        case tm.Star(a) | tm.Not(a) | tm.ADom(a) | tm.ARan(a):
            return ops[type(t)](_eval_idx(algebra, a, venv, tenv, ops))
        case tm.Dom(_) | tm.Ran(_) | tm.Box(_, _):
            return _eval_idx(algebra, tm.desugar(t), venv, tenv, ops)
    raise TypeError(f"not a term: {t!r}")


def evaluate(algebra: FiniteAlgebra, t: tm.Term,
             env: Optional[Mapping[str, str]] = None) -> str:
    """Evaluate a term to a carrier element name.

    ``env`` maps variable names to carrier element names; each binding must
    name a carrier element, checked in mapping order, and a variable with
    no binding denotes the carrier element of its name, so terms may
    mention model elements directly.  Then each test variable's element
    must be a test of the model, checked in sorted order.  d, r and [x]y
    are evaluated as written, by their definitions.
    """
    vvars, tvars = tm.variables(t)
    venv = {k: algebra.index(v) for k, v in (env or {}).items()}
    for k in vvars | tvars:
        if k not in venv and k in algebra.carrier:
            venv[k] = algebra.index(k)
    tests = algebra.tables.complement or {}
    for k in sorted(tvars & venv.keys()):
        if venv[k] not in tests:
            raise EvalError(f"test variable {k!r} bound to non-test element "
                            f"{algebra.element_name(venv[k])!r}")
    return algebra.element_name(_eval_idx(algebra, t, venv, venv))


# ---------------------------------------------------------------------------
# axiom checking

class Violation(Frozen):
    __match_args__ = ("axiom", "assignment", "lhs", "rhs")

    def __init__(self, axiom: str, assignment: tuple[tuple[str, str], ...],
                 lhs: str, rhs: str):
        self.__dict__.update(
            axiom=axiom, assignment=assignment, lhs=lhs, rhs=rhs)

    def __str__(self):
        binds = " ".join(f"{k}={v}" for k, v in self.assignment)
        return f"{self.axiom} at [{binds}]: {self.lhs} != {self.rhs}"


class CheckReport(Record):
    __match_args__ = ("profile", "violations", "axiom_count",
                      "instance_count", "law_instances")

    def __init__(self, profile: Profile,
                 violations: Optional[list[Violation]] = None,
                 axiom_count: int = 0, instance_count: int = 0,
                 law_instances: Optional[list[tuple[str, int]]] = None):
        self.profile = profile
        self.violations = [] if violations is None else violations
        self.axiom_count = axiom_count
        self.instance_count = instance_count
        # (law name, instances checked) in check order; sums to
        # instance_count
        self.law_instances = [] if law_instances is None else law_instances

    @property
    def passed(self) -> bool:
        return not self.violations


# Laws are compiled, on first use, into one Python function: a loop nest over
# their variables (element variables in sorted order, then test variables:
# the order of ``itertools.product`` over their domains) running on the raw
# tables.  Its parameters are the fields of ``_Tables``, by name, so a
# ``FiniteAlgebra``'s record is passed as it is and model search fills a list
# in the same layout.  Every subterm is computed at the outermost loop level
# that binds all of its variables, a table row indexed by a value from
# further out is fetched at that value's level, and each law is tested at the
# level of its last variable.  The function returns None, or the first
# violation it meets as the law's assignment with the values of the two sides
# (None as the right side of a closure law).  ``check_axioms`` compiles each
# law alone; model search compiles several into one nest and runs it on
# partial tables (see ``_LoopNest``).  Model search also compiles a stage's
# laws in pinned form, which tests only the instances that read one given
# cell of the stage's table: after filling that cell, the instances that do
# not read it stand as they stood before (see ``_compile``).  There an
# argument x op y of the occurrence, over two variables that nothing else
# binds, is not looped over the n^2 pairs under a guard: one loop runs over
# the filled cells of op that hold the pinned value, read from the per-value
# cell lists ``plus_pre`` and ``times_pre`` that the search keeps as it
# fills.  Only the fixed law inventory is compiled, never user text.

class _Open(str):
    """A guard line outside every loop: the rest of the nest runs under it."""


class _LoopNest:
    """Statements of a loop nest, each filed under its loop level.

    The nest loops over ``elements`` (over the carrier) and then ``tests``
    (over the test list).  With ``partial`` the tables are padded with an
    absorbing index ``n`` for the cells not yet filled, and an instance that
    reads one is skipped: an equation fails only when both sides are known
    and differ, and a premise holds only when it is known to.  ``pins`` binds
    further variables to locals set outside every loop (``ci``, ``cj``), and
    ``pairs`` holds (x op y, local) for terms whose two variables one loop,
    outside the others, binds to the filled cells of op holding that local.
    """

    def __init__(self, elements, tests, partial=False, pins=None, pairs=()):
        # each loop binds its variables to the items of its domain
        self.loops = ([((t.left.name, t.right.name),
                        f"{_READS[type(t)]}_pre[{c}]") for t, c in pairs]
                      + [((v,), "range(n)") for v in elements]
                      + [((v,), "tests") for v in tests])
        self.level = {name: k for k, (names, _) in enumerate(self.loops)
                      for name in names}
        # blocks[k + 1] runs inside loops[k], blocks[0] before every loop
        self.blocks = [[] for _ in range(len(self.loops) + 1)]
        self.partial = partial
        self.pins = pins or {}
        self._memo = {t: (c, -1) for t, c in pairs}
        self._count = 0

    def _bind(self, key, expr, level):
        if key not in self._memo:
            name = f"t{self._count}"
            self._count += 1
            self.blocks[level + 1].append(f"{name} = {expr}")
            self._memo[key] = name, level
        return self._memo[key]

    def _var(self, name):
        return self.pins.get(name, f"v_{name}"), self.level.get(name, -1)

    def value(self, t):
        """The local holding t's value and the loop level that computes it."""
        if isinstance(t, tm.Zero):
            return "zero", -1
        if isinstance(t, tm.One):
            return "one", -1
        if isinstance(t, (tm.Var, tm.TestVar)):
            return self._var(t.name)
        table = _APPLY[type(t)]
        if isinstance(t, (tm.Plus, tm.Times)):
            a, la = self.value(t.left)
            b, lb = self.value(t.right)
            if la < lb:
                row, _ = self._bind((table, a), f"{table}[{a}]", la)
                return self._bind(t, f"{row}[{b}]", lb)
            return self._bind(t, f"{table}[{a}][{b}]", la)
        a, la = self.value(t.arg)
        return self._bind(t, f"{table}[{a}]", la)

    def guard(self, t, target):
        """Skip the instances in which t's value is not ``target``, at the
        loop level that computes it."""
        v, level = self.value(t)
        if level < 0:
            self.blocks[0].append(_Open(f"if {v} == {target}:"))
        else:
            self.blocks[level + 1].append(f"if {v} != {target}: continue")

    def leq(self, s, t) -> str:
        """A condition for s <= t known to hold, that is s + t = t."""
        join, bound = self.value(tm.Plus(s, t))[0], self.value(t)[0]
        return f"{join} == {bound}" + (" != n" if self.partial else "")

    def add(self, law):
        """File the test of one law after its values, at its last variable."""
        vs, ts = _law_vars(law)
        level = max((self._var(v)[1] for v in vs + ts), default=-1)
        block = self.blocks[level + 1]
        found = "(" + "".join(f"{self._var(v)[0]}, " for v in vs + ts) + ")"
        if isinstance(law, Equation):
            lhs, rhs = self.value(law.lhs)[0], self.value(law.rhs)[0]
            known = f" and n != {lhs} and n != {rhs}" if self.partial else ""
            block += [f"if {lhs} != {rhs}{known}:",
                      f"    return {found}, {lhs}, {rhs}"]
        elif isinstance(law, ClosureLaw):
            v = self.value(law.term)[0]
            block += [f"if {v} not in complement:",
                      f"    return {found}, {v}, None"]
        else:
            premises = " and ".join(self.leq(s, t) for s, t in law.premises)
            # the conclusion's values at this level are computed only under
            # the premises, so no later law of the nest may reuse them
            mark, before = len(block), set(self._memo)
            s, t = law.conclusion
            lhs, rhs = self.value(s)[0], self.value(t)[0]
            join = self.value(tm.Plus(s, t))[0]
            known = f" and {join} != n" if self.partial else ""
            lazy = block[mark:]
            del block[mark:]
            self._memo = {k: e for k, e in self._memo.items()
                          if k in before or e[1] != level}
            block += ([f"if {premises}:"] + [f"    {line}" for line in lazy]
                      + [f"    if {join} != {rhs}{known}:",
                         f"        return {found}, {lhs}, {rhs}"])

    def lines(self):
        """The nest as source lines of a function body."""
        out, pad = [], "    "
        for k, block in enumerate(self.blocks):
            if k:
                names, domain = self.loops[k - 1]
                bound = ", ".join(f"v_{name}" for name in names)
                out.append(f"{pad}for {bound} in {domain}:")
                pad += "    "
            for line in block:
                out.append(pad + line)
                if isinstance(line, _Open):
                    pad += "    "
        return out


def _law_terms(law) -> tuple:
    if isinstance(law, Equation):
        return law.lhs, law.rhs
    if isinstance(law, ClosureLaw):
        return (law.term,)
    return tuple(t for pair in law.premises for t in pair) + law.conclusion


def _subterms(law):
    """Every subterm of the law, repeats included."""
    return tm._walk(*_law_terms(law))


def _reads(law) -> set:
    """The operations the law reads (see ``_READS``)."""
    return {_READS[type(t)] for t in _subterms(law) if type(t) in _READS}


def _law_vars(law):
    vs, ts = zip(*map(tm.variables, _law_terms(law)))
    return (tuple(sorted(frozenset().union(*vs))),
            tuple(sorted(frozenset().union(*ts))))


def _pinned_nest(law, occurrence, partial):
    """A nest over the instances of the law in which the occurrence, of +
    or ;, reads cell (ci, cj) of its table: a variable argument is bound to
    its coordinate, an argument x op y over two other variables loops over
    the cells of op that hold it, and any other is guarded."""
    coords = tuple(zip(tm._children(occurrence), ("ci", "cj")))
    pins, pairs = {}, []
    for a, c in coords:
        if isinstance(a, tm.Var):
            pins.setdefault(a.name, c)
    bound = set(pins)
    for a, c in coords:
        xy = {b.name for b in tm._children(a) if isinstance(b, tm.Var)}
        if (isinstance(a, (tm.Plus, tm.Times)) and len(xy) == 2
                and not xy & bound):
            pairs.append((a, c))
            bound |= xy
    vs, ts = _law_vars(law)
    nest = _LoopNest(tuple(v for v in vs if v not in bound), ts, partial,
                     pins, pairs)
    for a, c in coords:
        if (a, c) not in pairs and not (isinstance(a, tm.Var)
                                        and pins[a.name] == c):
            nest.guard(a, c)
    nest.add(law)
    return nest


def _compile(laws, partial=False, pin=None):
    """One function testing the laws, in order, in one loop nest.

    With ``pin``, ``tm.Plus`` or ``tm.Times``, the function takes four more
    arguments ``plus_pre, times_pre, ci, cj`` and tests only the instances
    in which the table is read at cell (ci, cj): one nest for each distinct
    occurrence of the table in each law, in which the occurrence's variable
    arguments are bound to ci and cj instead of looped over.  ``plus_pre[c]``
    and ``times_pre[c]`` list the filled cells (x, y) of + and ; that hold
    c, in any order.  The function's file name, such as ``<laws distrib-left,
    distrib-right partial pinned at times>``, names the laws and the pin, so
    that a profile keeps each compiled function apart.
    """
    if pin is None:
        vs, ts = set(), set()
        for law in laws:
            a, b = _law_vars(law)
            vs.update(a)
            ts.update(b)
        nests = [_LoopNest(tuple(sorted(vs)), tuple(sorted(ts)), partial)]
        for law in laws:
            nests[0].add(law)
        params = ", ".join(_Tables._fields)
    else:
        nests = [_pinned_nest(law, t, partial) for law in laws
                 for t in dict.fromkeys(t for t in _subterms(law)
                                        if isinstance(t, pin))]
        params = ", ".join(_Tables._fields
                           + ("plus_pre", "times_pre", "ci", "cj"))
    lines = [f"def law({params}):"]
    for nest in nests:
        lines += nest.lines()
    lines.append("    return None")
    label = ", ".join(law.name for law in laws) + " partial" * partial
    if pin is not None:
        label += f" pinned at {_READS[pin]}"
    namespace = {}
    exec(compile("\n".join(lines), f"<laws {label}>", "exec"), namespace)
    return namespace["law"]


@functools.cache
def _compile_law(law) -> tuple:
    """(law, element variables, test variables, compiled function)."""
    return (law, *_law_vars(law), _compile((law,)))


# keyed by the law list's function and profile too: hashing the laws' term
# trees on every call would cost as much as checking a small model
@functools.cache
def _compiled(laws_of, profile: Profile) -> tuple[tuple, ...]:
    return tuple(map(_compile_law, laws_of(profile)))


def _require_profile_ops(algebra: FiniteAlgebra, profile: Profile):
    for op in sorted(required_ops(profile)):
        if algebra.has_op(op):
            continue
        if op == "tests":
            raise ModelError(
                f"profile {profile.value} needs a declared test set")
        raise MissingTableError(f"profile {profile.value} needs a {op} table")


def check_axioms(algebra: FiniteAlgebra, profile: Profile) -> CheckReport:
    """Exhaustively instantiate every axiom of the profile over the carrier.

    Plain variables range over the whole carrier, test variables over the
    declared tests.  The first violating assignment (in carrier order) is
    recorded per axiom, and the instances counted for a law are those up
    to and including it.
    """
    return _check_laws(algebra, profile, _compiled(profile_axioms, profile))


def check_rules(algebra: FiniteAlgebra, profile: Profile) -> CheckReport:
    """Exhaustively instantiate the Hoare rules of KAT or KAD
    (``hoare_rules``) over the carrier, as ``check_axioms`` does axioms."""
    return _check_laws(algebra, profile, _compiled(hoare_rules, profile))


def _check_laws(algebra, profile, compiled) -> CheckReport:
    _require_profile_ops(algebra, profile)
    tables = algebra.tables
    name = algebra.element_name
    report = CheckReport(profile)
    for law, vs, ts, run in compiled:
        sizes = (tables.n,) * len(vs) + (len(tables.tests),) * len(ts)
        found = run(*tables)
        if found is None:
            count = math.prod(sizes)
        else:
            assignment, lhs, rhs = found
            positions = assignment[:len(vs)] + tuple(
                map(tables.tests.index, assignment[len(vs):]))
            rank = 0
            for pos, size in zip(positions, sizes):
                rank = rank * size + pos
            count = rank + 1
            report.violations.append(Violation(
                law.name, tuple(sorted(zip(vs + ts, map(name, assignment)))),
                name(lhs), "(not a test)" if rhs is None else name(rhs)))
        report.axiom_count += 1
        report.instance_count += count
        report.law_instances.append((law.name, count))
    return report


# ---------------------------------------------------------------------------
# the mid-assertion sentence

class PhiResult(Frozen):
    __match_args__ = ("holds", "witness", "instantiations")

    def __init__(self, holds: bool,
                 witness: Optional[tuple[str, str, str, str]] = None,
                 instantiations: int = 0):
        # instantiations: the (x, y, p, q) scanned, the witness included
        self.__dict__.update(
            holds=holds, witness=witness, instantiations=instantiations)


def check_phi(algebra: FiniteAlgebra) -> PhiResult:
    """Decide the sequential-rule inversion sentence by exhaustive scan.

    For every x, y in the carrier and tests p, q with p;x;y;!q = 0 there
    must be a test r with p;x;!r = 0 and r;y;!q = 0.  The first failing
    (x, y, p, q) in carrier order is the witness.  Sets of tests are
    bitmasks over the test list: ``zeroes[e]`` holds the tests t with
    e;!t = 0, so the r that suit p;x are ``zeroes[p;x]`` and the q that
    p;x;y admits are ``zeroes[p;x;y]``; ``after[y][r]`` is ``zeroes[r;y]``,
    the q with r;y;!q = 0, so the q that some suitable r serves are the OR
    of ``after[y]`` at the suitable r.
    """
    if algebra.tests_i is None:
        raise ModelError(f"{algebra.name}: phi needs tests and a complement "
                         "(or an antidomain table)")
    tb = algebra.tables
    n, tests, times, zero = tb.n, tb.tests, tb.times, tb.zero
    k = len(tests)
    nots = [tb.complement[t] for t in tests]
    zeroes = [sum(1 << i for i, c in enumerate(nots) if row[c] == zero)
              for row in times]
    after = [[zeroes[times[r][y]] for r in tests] for y in range(n)]
    # served[y][suits]: the q for which some r in ``suits`` has r;y;!q = 0
    served = [{} for _ in range(n)]
    # phi at (x, y, p, q) reads only e = p;x, y and q, so each e is scanned
    # once across all (x, p): held[e] is the y below which it holds for e
    held = [0] * n
    for x in range(n):
        # the first failing y for this x (n if none), and its p and q mask
        limit, failure = n, None
        for pi, p in enumerate(tests):
            e = times[p][x]
            suits, e_row = zeroes[e], times[e]
            # an earlier p wins a tie, so a later one is scanned below limit
            for y in range(held[e], limit):
                served_y = served[y]
                ok = served_y.get(suits)
                if ok is None:
                    ok = served_y[suits] = functools.reduce(
                        int.__or__, (qs for ri, qs in enumerate(after[y])
                                     if suits >> ri & 1), 0)
                unserved = zeroes[e_row[y]] & ~ok
                if unserved:
                    limit, failure = y, (pi, unserved)
                    break
            held[e] = max(held[e], limit)
        if failure is not None:
            pi, unserved = failure
            qi = (unserved & -unserved).bit_length() - 1
            name = algebra.element_name
            return PhiResult(
                False, (name(x), name(limit), name(tests[pi]), name(tests[qi])),
                ((x * n + limit) * k + pi) * k + qi + 1)
    return PhiResult(True, None, n * n * k * k)


# ---------------------------------------------------------------------------
# built-in models

def lemma4_model() -> FiniteAlgebra:
    """Three-element KAT with a non-test middle element.

    Chain 0 <= a <= 1 under +, a;a = 0, star constantly 1, tests {0, 1}.
    The sequential-rule inversion sentence fails here at x = y = a,
    p = 1, q = 0.
    """
    plus = [[max(i, j) for j in range(3)] for i in range(3)]
    times = [[0, 0, 0],
             [0, 0, 1],
             [0, 1, 2]]
    return FiniteAlgebra(
        ["0", "a", "1"], "0", "1", plus, times,
        star=[2, 2, 2], tests=["0", "1"],
        complement={"0": "1", "1": "0"}, name="lemma4")


def bool2_model() -> FiniteAlgebra:
    """The two-element boolean algebra as a Kleene algebra with domain and range."""
    return FiniteAlgebra(
        ["0", "1"], "0", "1",
        [[0, 1], [1, 1]], [[0, 0], [0, 1]],
        star=[1, 1], adom=[1, 0], aran=[1, 0], name="bool2")


def trivial_model() -> FiniteAlgebra:
    """The one-element algebra (zero = one); satisfies every profile."""
    return FiniteAlgebra(
        ["0"], "0", "0", [[0]], [[0]],
        star=[0], adom=[0], aran=[0], name="trivial")


def near_as_model() -> FiniteAlgebra:
    """Four-element antidomain near-semiring without left distributivity.

    + is the diamond lattice 0 < {e, 1} < w; multiplication restricted to
    {e, w} is the right projection, so e;(1 + e) = e;w = w while
    e;1 + e;e = e.  Right distributivity and the antidomain axioms hold,
    left distributivity does not.
    """
    Z, E, O, W = 0, 1, 2, 3

    def join(i, j):
        if i == j:
            return i
        s = {i, j}
        if Z in s:
            return (s - {Z}).pop()
        return W

    plus = [[join(i, j) for j in range(4)] for i in range(4)]
    times = [[Z] * 4 for _ in range(4)]
    for k in range(4):
        times[O][k] = k
        times[k][O] = k
        times[k][Z] = Z
    times[E][E] = E
    times[E][W] = W
    times[W][E] = E
    times[W][W] = W
    return FiniteAlgebra(
        ["0", "e", "1", "w"], "0", "1", plus, times,
        adom=[O, Z, Z, Z], name="nearas")


# ---------------------------------------------------------------------------
# isomorphism (a library check; the tests compare searched models with it)

def _relabel(tb: _Tables, pi: Sequence[int]) -> _Tables:
    """The same tables with every element i renamed pi[i]."""
    r = range(tb.n)
    inv = [0] * tb.n
    for i, image in enumerate(pi):
        inv[image] = i

    def binary(t):
        return tuple(tuple(pi[t[inv[i]][inv[j]]] for j in r) for i in r)

    def unary(t):
        return None if t is None else tuple(pi[t[inv[i]]] for i in r)

    tests = tuple(sorted(pi[t] for t in tb.tests))
    complement = (None if tb.complement is None else
                  {pi[k]: pi[v] for k, v in tb.complement.items()})
    return _Tables(tb.n, tests, binary(tb.plus), binary(tb.times),
                   unary(tb.star), unary(tb.adom), unary(tb.aran), complement,
                   pi[tb.zero], pi[tb.one])


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """Signature-preserving isomorphism test by permutation search.

    Zero and one must map to zero and one; both algebras must offer the
    same optional operations.
    """
    if a.size != b.size:
        return False
    ta, tb = a.tables, b.tables
    n = a.size
    movable = [i for i in range(n) if i not in (a.zero_i, a.one_i)]
    targets = [i for i in range(n) if i not in (b.zero_i, b.one_i)]
    pi = [0] * n
    pi[a.zero_i], pi[a.one_i] = b.zero_i, b.one_i
    for image in permutations(targets):
        for i, j in zip(movable, image):
            pi[i] = j
        if _relabel(ta, pi) == tb:
            return True
    return False

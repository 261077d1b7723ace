"""Finite algebras given by operation tables.

A ``FiniteAlgebra`` carries a named carrier with tables for +, ;, and
optionally *, antidomain, antirange, a test subset and a test complement.
Axiom profiles (semiring, dioid, Kleene algebra, test semiring, KAT,
antidomain semiring, ..., through combined domain/range algebras) are
checked by exhaustive instantiation over the carrier, which is sound and
complete on finite models; star induction is a quasi-equation and is
checked by testing the implication at every assignment, with the order
x <= y decided by x + y = y.

Tables are index-based (positions into the carrier tuple); the public
entry points speak element names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations, product
from typing import Iterable, Mapping, Optional, Sequence

from . import terms as tm
from .errors import EvalError, MissingTableError, ModelError

__all__ = [
    "Profile", "FiniteAlgebra", "CheckReport", "Violation", "PhiResult",
    "check_axioms", "check_phi", "evaluate", "derive_test_algebra",
    "lemma4_model", "bool2_model", "trivial_model", "near_as_model",
    "is_isomorphic", "profile_axioms", "required_ops",
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
# p, q (tests); test variables range over the declared test subset only.

@dataclass(frozen=True)
class Equation:
    name: str
    lhs: tm.Term
    rhs: tm.Term


@dataclass(frozen=True)
class Quasi:
    """Implication between inequalities; s <= t is encoded as s + t = t."""

    name: str
    premises: tuple[tuple[tm.Term, tm.Term], ...]
    conclusion: tuple[tm.Term, tm.Term]


@dataclass(frozen=True)
class ClosureLaw:
    """The term's value must land in the test subset."""

    name: str
    term: tm.Term


_AXIOM_TESTS = frozenset({"p", "q"})


def _ax(text: str) -> tm.Term:
    return tm.desugar(tm.parse_term(text, tests=_AXIOM_TESTS))


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

_PROFILE_OPS = {
    Profile.SEMIRING: frozenset(),
    Profile.DIOID: frozenset(),
    Profile.KLEENE: frozenset({"star"}),
    Profile.TS: frozenset({"tests"}),
    Profile.KAT: frozenset({"star", "tests"}),
    Profile.AS: frozenset({"adom"}),
    Profile.NEAR_AS: frozenset({"adom"}),
    Profile.KAD: frozenset({"star", "adom"}),
    Profile.ARS: frozenset({"aran"}),
    Profile.KA_DR: frozenset({"star", "adom", "aran"}),
}


def profile_axioms(profile: Profile):
    """The exact law list a profile checks, in check order."""
    return _PROFILE_AXIOMS[profile]


def required_ops(profile: Profile) -> frozenset:
    """Optional operations the profile needs beyond + and ;."""
    return _PROFILE_OPS[profile]


# ---------------------------------------------------------------------------
# algebras

class FiniteAlgebra:
    """Immutable-by-convention algebra over an explicitly tabled carrier.

    ``plus`` and ``times`` are n x n index tables; ``star``/``adom``/``aran``
    are length-n index tables.  ``tests`` lists test element names and
    ``complement`` maps test names to test names.  When an antidomain table
    is present the test subset is its image (and is derived automatically
    if not supplied); complement on tests then defaults to antidomain.
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

        self._plus = self._check_binary("plus", plus, n)
        self._times = self._check_binary("times", times, n)
        self._star = self._check_unary("star", star, n)
        self._adom = self._check_unary("adom", adom, n)
        self._aran = self._check_unary("aran", aran, n)

        if self._adom is not None:
            derived = tuple(sorted(set(self._adom)))
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
        self.tests_i = tests_i

        self._complement = None
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
                if self._adom is not None and comp[t] != self._adom[t]:
                    raise ModelError(
                        "complement table disagrees with antidomain on tests")
            self._complement = comp
        elif tests_i is not None and self._adom is None:
            raise ModelError("tests without a complement table or antidomain")

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
        if any(v not in range(n) for r in rows for v in r):
            raise ModelError(f"{op} table value out of range")
        return rows

    @staticmethod
    def _check_unary(op, table, n):
        if table is None:
            return None
        row = tuple(table)
        if len(row) != n or any(v not in range(n) for v in row):
            raise ModelError(f"{op} table must have {n} in-range entries")
        return row

    # -- index-level operations ----------------------------------------------
    @property
    def size(self) -> int:
        return len(self.carrier)

    def element_name(self, i: int) -> str:
        return self.carrier[i]

    def index(self, name: str) -> int:
        return self._require_element(name)

    def plus(self, i: int, j: int) -> int:
        return self._plus[i][j]

    def times(self, i: int, j: int) -> int:
        return self._times[i][j]

    def star(self, i: int) -> int:
        if self._star is None:
            raise MissingTableError(f"{self.name}: no star table")
        return self._star[i]

    def adom(self, i: int) -> int:
        if self._adom is None:
            raise MissingTableError(f"{self.name}: no antidomain table")
        return self._adom[i]

    def aran(self, i: int) -> int:
        if self._aran is None:
            raise MissingTableError(f"{self.name}: no antirange table")
        return self._aran[i]

    def complement(self, i: int) -> int:
        if self.tests_i is None:
            raise MissingTableError(f"{self.name}: no tests declared")
        if i not in self.tests_i:
            raise EvalError(
                f"complement of non-test element {self.element_name(i)!r}")
        if self._complement is not None:
            return self._complement[i]
        return self.adom(i)

    def leq(self, i: int, j: int) -> bool:
        return self.plus(i, j) == j

    def has_op(self, op: str) -> bool:
        if op == "star":
            return self._star is not None
        if op == "adom":
            return self._adom is not None
        if op == "aran":
            return self._aran is not None
        if op == "tests":
            return self.tests_i is not None
        if op == "complement":
            return self.tests_i is not None and (
                self._complement is not None or self._adom is not None)
        raise ValueError(f"unknown op {op!r}")

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

def _eval_idx(algebra: FiniteAlgebra, t: tm.Term, venv, tenv) -> int:
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
        case tm.Plus(l, r):
            return algebra.plus(_eval_idx(algebra, l, venv, tenv),
                                _eval_idx(algebra, r, venv, tenv))
        case tm.Times(l, r):
            return algebra.times(_eval_idx(algebra, l, venv, tenv),
                                 _eval_idx(algebra, r, venv, tenv))
        case tm.Star(a):
            return algebra.star(_eval_idx(algebra, a, venv, tenv))
        case tm.Not(a):
            return algebra.complement(_eval_idx(algebra, a, venv, tenv))
        case tm.ADom(a):
            return algebra.adom(_eval_idx(algebra, a, venv, tenv))
        case tm.ARan(a):
            return algebra.aran(_eval_idx(algebra, a, venv, tenv))
        case tm.Dom(_) | tm.Ran(_) | tm.Box(_, _):
            raise EvalError("term must be desugared before evaluation")
    raise TypeError(f"not a term: {t!r}")


def evaluate(algebra: FiniteAlgebra, t: tm.Term, env: Optional[tm.Env] = None) -> str:
    """Evaluate a term to a carrier element name.

    Sugar is expanded first (a no-op on already desugared terms).  Test
    variable bindings are checked for test membership in the model.
    Unbound variables whose name coincides with a carrier element resolve
    to that element, so terms may mention model elements directly.
    """
    env = env or tm.Env()
    t = tm.desugar(t)
    venv = {k: algebra.index(v) for k, v in env.elements.items()}
    tenv = {}
    for k, v in env.tests.items():
        i = algebra.index(v)
        if algebra.tests_i is None or i not in algebra.tests_i:
            raise EvalError(f"test variable {k!r} bound to non-test element {v!r}")
        tenv[k] = i
    vvars, tvars = tm.variables(t)
    for name in vvars:
        if name not in venv and name in algebra.carrier:
            venv[name] = algebra.index(name)
    # a test variable may also be satisfied by an element binding (or an
    # element literal) that happens to name a test
    for name in tvars:
        if name in tenv:
            continue
        if name in venv:
            i = venv[name]
        elif name in algebra.carrier:
            i = algebra.index(name)
        else:
            continue
        if algebra.tests_i is None or i not in algebra.tests_i:
            raise EvalError(
                f"test variable {name!r} bound to non-test element "
                f"{algebra.element_name(i)!r}")
        tenv[name] = i
    return algebra.element_name(_eval_idx(algebra, t, venv, tenv))


# ---------------------------------------------------------------------------
# axiom checking

@dataclass(frozen=True)
class Violation:
    axiom: str
    assignment: tuple[tuple[str, str], ...]
    lhs: str
    rhs: str

    def __str__(self):
        binds = " ".join(f"{k}={v}" for k, v in self.assignment)
        return f"{self.axiom} at [{binds}]: {self.lhs} != {self.rhs}"


@dataclass
class CheckReport:
    profile: Profile
    violations: list[Violation] = field(default_factory=list)
    axiom_count: int = 0
    instance_count: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


def _law_terms(law):
    if isinstance(law, Equation):
        return (law.lhs, law.rhs)
    if isinstance(law, ClosureLaw):
        return (law.term,)
    return tuple(t for pair in law.premises for t in pair) + law.conclusion


def _law_vars(law):
    vs, ts = set(), set()
    for t in _law_terms(law):
        a, b = tm.variables(t)
        vs |= a
        ts |= b
    return sorted(vs), sorted(ts)


def _require_profile_ops(algebra: FiniteAlgebra, profile: Profile):
    for op in sorted(required_ops(profile)):
        if op == "tests":
            if algebra.tests_i is None:
                raise ModelError(
                    f"profile {profile.value} needs a declared test set")
            if not algebra.has_op("complement"):
                raise MissingTableError(
                    f"profile {profile.value} needs a test complement")
        elif not algebra.has_op(op):
            raise MissingTableError(
                f"profile {profile.value} needs a {op} table")


def check_axioms(algebra: FiniteAlgebra, profile: Profile) -> CheckReport:
    """Exhaustively instantiate every axiom of the profile over the carrier.

    Plain variables range over the whole carrier, test variables over the
    declared tests.  The first violating assignment (in carrier order) is
    recorded per axiom.
    """
    _require_profile_ops(algebra, profile)
    report = CheckReport(profile)
    n = algebra.size
    test_range = algebra.tests_i or ()
    for law in profile_axioms(profile):
        report.axiom_count += 1
        vs, ts = _law_vars(law)
        domains = [range(n)] * len(vs) + [test_range] * len(ts)
        for assignment in product(*domains):
            report.instance_count += 1
            venv = dict(zip(vs, assignment[:len(vs)]))
            tenv = dict(zip(ts, assignment[len(vs):]))
            violation = _check_instance(algebra, law, venv, tenv)
            if violation is not None:
                report.violations.append(violation)
                break
    return report


def _check_instance(algebra, law, venv, tenv) -> Optional[Violation]:
    def names():
        pairs = [(k, algebra.element_name(v)) for k, v in venv.items()]
        pairs += [(k, algebra.element_name(v)) for k, v in tenv.items()]
        return tuple(sorted(pairs))

    if isinstance(law, Equation):
        l = _eval_idx(algebra, law.lhs, venv, tenv)
        r = _eval_idx(algebra, law.rhs, venv, tenv)
        if l != r:
            return Violation(law.name, names(),
                             algebra.element_name(l), algebra.element_name(r))
        return None
    if isinstance(law, ClosureLaw):
        v = _eval_idx(algebra, law.term, venv, tenv)
        if v not in algebra.tests_i:
            return Violation(law.name, names(),
                             algebra.element_name(v), "(not a test)")
        return None
    # quasi-equation
    for s, t in law.premises:
        si = _eval_idx(algebra, s, venv, tenv)
        ti = _eval_idx(algebra, t, venv, tenv)
        if not algebra.leq(si, ti):
            return None
    s, t = law.conclusion
    si = _eval_idx(algebra, s, venv, tenv)
    ti = _eval_idx(algebra, t, venv, tenv)
    if not algebra.leq(si, ti):
        return Violation(law.name, names(),
                         algebra.element_name(si), algebra.element_name(ti))
    return None


# ---------------------------------------------------------------------------
# the mid-assertion sentence

@dataclass(frozen=True)
class PhiResult:
    holds: bool
    witness: Optional[tuple[str, str, str, str]] = None


def check_phi(algebra: FiniteAlgebra) -> PhiResult:
    """Brute-force the sequential-rule inversion sentence.

    For every x, y in the carrier and tests p, q with p;x;y;!q = 0, search
    the tests for an intermediate r with p;x;!r = 0 and r;y;!q = 0.  The
    first failing (x, y, p, q) in carrier order is the witness.
    """
    if algebra.tests_i is None or not algebra.has_op("complement"):
        raise ModelError(f"{algebra.name}: phi needs tests and a complement "
                         "(or an antidomain table)")
    zero = algebra.zero_i
    tests = algebra.tests_i
    nbar = {q: algebra.complement(q) for q in tests}
    for x in range(algebra.size):
        for y in range(algebra.size):
            for p in tests:
                px = algebra.times(p, x)
                pxy = algebra.times(px, y)
                for q in tests:
                    if algebra.times(pxy, nbar[q]) != zero:
                        continue
                    if any(algebra.times(px, nbar[r]) == zero
                           and algebra.times(algebra.times(r, y), nbar[q]) == zero
                           for r in tests):
                        continue
                    name = algebra.element_name
                    return PhiResult(False, (name(x), name(y), name(p), name(q)))
    return PhiResult(True, None)


# ---------------------------------------------------------------------------
# derived test algebra

def derive_test_algebra(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Equip an antidomain semiring with its canonical test algebra.

    Tests become the image of the domain operation and complement is the
    antidomain restricted to tests.  Raises if the antidomain axioms fail.
    """
    report = check_axioms(algebra, Profile.AS)
    if not report.passed:
        raise ModelError(
            f"{algebra.name}: antidomain axioms fail: {report.violations[0]}")
    if algebra._complement is not None:
        return algebra
    tests = algebra.tests_i
    comp = {algebra.element_name(t): algebra.element_name(algebra.adom(t))
            for t in tests}
    return FiniteAlgebra(
        algebra.carrier, algebra.zero, algebra.one,
        algebra._plus, algebra._times, star=algebra._star,
        adom=algebra._adom, aran=algebra._aran,
        tests=[algebra.element_name(t) for t in tests],
        complement=comp, name=algebra.name)


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
# isomorphism (used for duplicate detection in searches and in tests)

def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """Signature-preserving isomorphism test by permutation search.

    Zero and one must map to zero and one; both algebras must offer the
    same optional operations.
    """
    if a.size != b.size:
        return False
    for op in ("star", "adom", "aran", "tests"):
        if a.has_op(op) != b.has_op(op):
            return False
    if a.tests_i is not None and len(a.tests_i) != len(b.tests_i):
        return False
    n = a.size
    movable = [i for i in range(n) if i not in (a.zero_i, a.one_i)]
    targets = [i for i in range(n) if i not in (b.zero_i, b.one_i)]
    for image in permutations(targets):
        pi = {a.zero_i: b.zero_i, a.one_i: b.one_i}
        pi.update(zip(movable, image))
        if _respects(a, b, pi):
            return True
    return False


def _respects(a, b, pi):
    n = a.size
    for i in range(n):
        for j in range(n):
            if pi[a.plus(i, j)] != b.plus(pi[i], pi[j]):
                return False
            if pi[a.times(i, j)] != b.times(pi[i], pi[j]):
                return False
    for op in ("star", "adom", "aran"):
        if a.has_op(op):
            fa, fb = getattr(a, op), getattr(b, op)
            if any(pi[fa(i)] != fb(pi[i]) for i in range(n)):
                return False
    if a.tests_i is not None:
        if {pi[t] for t in a.tests_i} != set(b.tests_i):
            return False
        if a.has_op("complement"):
            if any(pi[a.complement(t)] != b.complement(pi[t]) for t in a.tests_i):
                return False
    return True

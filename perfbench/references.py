"""Verdict references for the benchmark, written without importing kadlab.

Everything here is recomputed from definitions: operation tables for the
builtin models, product algebras, a table-law checker for every profile,
the mid-assertion sentence phi, a successor-set semantics for while
programs, and membership in eventually periodic sets.  A job's verdict is
correct when it agrees with what these functions derive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Optional


# ---------------------------------------------------------------------------
# finite algebras as plain tables

@dataclass(frozen=True)
class Table:
    """An algebra over carrier indices 0..n-1 with named elements.

    ``tests`` is a sorted tuple of indices and ``comp`` maps each test to
    its complement; both are None when the algebra has no test set.
    """

    names: tuple
    zero: int
    one: int
    plus: tuple
    times: tuple
    star: Optional[tuple] = None
    adom: Optional[tuple] = None
    aran: Optional[tuple] = None
    tests: Optional[tuple] = None
    comp: Optional[dict] = None

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def ops(self) -> frozenset:
        have = {"star": self.star, "adom": self.adom, "aran": self.aran,
                "tests": self.tests}
        return frozenset(k for k, v in have.items() if v is not None)

    def leq(self, i, j) -> bool:
        return self.plus[i][j] == j

    def index(self, name) -> int:
        return self.names.index(name)


def _table(names, zero, one, plus, times, *, star=None, adom=None, aran=None,
           tests=None, comp=None):
    tup = (lambda t: None if t is None else tuple(t))
    if adom is not None:
        tests = sorted(set(adom))
        comp = {t: adom[t] for t in tests}
    return Table(tuple(names), zero, one,
                 tuple(tuple(r) for r in plus), tuple(tuple(r) for r in times),
                 tup(star), tup(adom), tup(aran),
                 None if tests is None else tuple(sorted(tests)), comp)


def lemma4() -> Table:
    """Chain 0 < a < 1, a;a = 0, star constantly 1, tests {0, 1}."""
    return _table(["0", "a", "1"], 0, 2,
                  [[max(i, j) for j in range(3)] for i in range(3)],
                  [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
                  star=[2, 2, 2], tests=[0, 2], comp={0: 2, 2: 0})


def bool2() -> Table:
    """The two-element boolean algebra with star, domain and range."""
    return _table(["0", "1"], 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]],
                  star=[1, 1], adom=[1, 0], aran=[1, 0])


def trivial() -> Table:
    return _table(["0"], 0, 0, [[0]], [[0]], star=[0], adom=[0], aran=[0])


def nearas() -> Table:
    """Diamond 0 < {e, 1} < w; on {e, w} multiplication projects right."""
    Z, E, O, W = range(4)

    def join(i, j):
        if i == j or j == Z:
            return i
        return j if i == Z else W

    times = [[Z] * 4 for _ in range(4)]
    for k in range(4):
        times[O][k] = times[k][O] = k
        times[k][Z] = Z
    for i in (E, W):
        for j in (E, W):
            times[i][j] = j
    return _table(["0", "e", "1", "w"], Z, O,
                  [[join(i, j) for j in range(4)] for i in range(4)], times,
                  adom=[O, Z, Z, Z])


def relations(n: int) -> Table:
    """The full algebra of binary relations over n states, as pair sets."""
    states = range(n)
    cells = [(i, j) for i in states for j in states]
    rels = [frozenset(c for b, c in enumerate(cells) if mask >> b & 1)
            for mask in range(1 << len(cells))]
    pos = {r: k for k, r in enumerate(rels)}
    ident = frozenset((i, i) for i in states)

    def pair_compose(r, s):
        return frozenset((a, c) for a, b in r for b2, c in s if b == b2)

    def closure(r):
        acc = ident | r
        while True:
            nxt = acc | pair_compose(acc, acc)
            if nxt == acc:
                return acc
            acc = nxt

    def sub_id(keep):
        return frozenset((i, i) for i in states if keep(i))

    adom = [sub_id(lambda i, r=r: not any(a == i for a, _ in r)) for r in rels]
    aran = [sub_id(lambda i, r=r: not any(b == i for _, b in r)) for r in rels]
    return _table([f"r{k}" for k in range(len(rels))], pos[frozenset()],
                  pos[ident],
                  [[pos[r | s] for s in rels] for r in rels],
                  [[pos[pair_compose(r, s)] for s in rels] for r in rels],
                  star=[pos[closure(r)] for r in rels],
                  adom=[pos[a] for a in adom], aran=[pos[a] for a in aran])


BUILTINS = {
    "lemma4": lemma4, "bool2": bool2, "trivial": trivial, "nearas": nearas,
    "rel1": lambda: relations(1), "rel2": lambda: relations(2),
}


def product_table(*factors: Table) -> Table:
    """The direct product; an operation exists when every factor has it."""
    tuples = list(product(*(range(f.size) for f in factors)))
    pos = {t: k for k, t in enumerate(tuples)}

    def binary(op):
        return [[pos[tuple(getattr(f, op)[a][b] for f, a, b in zip(factors, s, t))]
                 for t in tuples] for s in tuples]

    def unary(op):
        if any(getattr(f, op) is None for f in factors):
            return None
        return [pos[tuple(getattr(f, op)[a] for f, a in zip(factors, s))]
                for s in tuples]

    tests = comp = None
    if all(f.tests is not None for f in factors):
        tests = [pos[t] for t in product(*(f.tests for f in factors))]
        comp = {pos[t]: pos[tuple(f.comp[a] for f, a in zip(factors, t))]
                for t in product(*(f.tests for f in factors))}
    names = ["_".join(f.names[a] for f, a in zip(factors, t)) for t in tuples]
    return _table(names, pos[tuple(f.zero for f in factors)],
                  pos[tuple(f.one for f in factors)],
                  binary("plus"), binary("times"), star=unary("star"),
                  adom=unary("adom"), aran=unary("aran"), tests=tests,
                  comp=comp)


def permuted(table: Table, order) -> Table:
    """The same algebra with its carrier listed in ``order`` (old indices)."""
    new = {old: k for k, old in enumerate(order)}

    def bin_(t):
        return [[new[t[a][b]] for b in order] for a in order]

    def un(t):
        return None if t is None else [new[t[a]] for a in order]

    return Table(tuple(table.names[a] for a in order), new[table.zero],
                 new[table.one], tuple(map(tuple, bin_(table.plus))),
                 tuple(map(tuple, bin_(table.times))),
                 *(None if t is None else tuple(t)
                   for t in (un(table.star), un(table.adom), un(table.aran))),
                 None if table.tests is None
                 else tuple(sorted(new[t] for t in table.tests)),
                 None if table.comp is None
                 else {new[k]: new[v] for k, v in table.comp.items()})


# ---------------------------------------------------------------------------
# axiom profiles as table predicates
#
# A law is (name, element variables, test variables, predicate).  The
# predicate receives the table and the values of the variables in the
# listed order; variables are named as in the program's reports.

def _eq(name, vs, ts, fn):
    return (name, vs, ts, fn)


def _d(A, x):
    return A.adom[A.adom[x]]


def _r(A, x):
    return A.aran[A.aran[x]]


_PLUS_MONOID = [
    _eq("plus-assoc", "xyz", "", lambda A, x, y, z:
        A.plus[A.plus[x][y]][z] == A.plus[x][A.plus[y][z]]),
    _eq("plus-comm", "xy", "", lambda A, x, y: A.plus[x][y] == A.plus[y][x]),
    _eq("plus-zero", "x", "", lambda A, x: A.plus[x][A.zero] == x),
]

_TIMES_MONOID = [
    _eq("times-assoc", "xyz", "", lambda A, x, y, z:
        A.times[A.times[x][y]][z] == A.times[x][A.times[y][z]]),
    _eq("one-times", "x", "", lambda A, x: A.times[A.one][x] == x),
    _eq("times-one", "x", "", lambda A, x: A.times[x][A.one] == x),
]

_DISTRIB_LEFT = _eq("distrib-left", "xyz", "", lambda A, x, y, z:
                    A.times[x][A.plus[y][z]]
                    == A.plus[A.times[x][y]][A.times[x][z]])
_TIMES_ZERO = _eq("times-zero", "x", "", lambda A, x: A.times[x][A.zero] == A.zero)

_NEAR_SEMIRING = _PLUS_MONOID + _TIMES_MONOID + [
    _eq("distrib-right", "xyz", "", lambda A, x, y, z:
        A.times[A.plus[x][y]][z] == A.plus[A.times[x][z]][A.times[y][z]]),
    _eq("zero-times", "x", "", lambda A, x: A.times[A.zero][x] == A.zero),
]
_SEMIRING = _NEAR_SEMIRING + [_DISTRIB_LEFT, _TIMES_ZERO]

_IDEM = [_eq("plus-idem", "x", "", lambda A, x: A.plus[x][x] == x)]

_STAR = [
    _eq("star-unfold-left", "x", "", lambda A, x:
        A.plus[A.one][A.times[x][A.star[x]]] == A.star[x]),
    _eq("star-unfold-right", "x", "", lambda A, x:
        A.plus[A.one][A.times[A.star[x]][x]] == A.star[x]),
    _eq("star-induct-left", "xyz", "", lambda A, x, y, z:
        not A.leq(A.plus[z][A.times[x][y]], y)
        or A.leq(A.times[A.star[x]][z], y)),
    _eq("star-induct-right", "xyz", "", lambda A, x, y, z:
        not A.leq(A.plus[z][A.times[y][x]], y)
        or A.leq(A.times[z][A.star[x]], y)),
]

_TESTS = [
    _eq("test-closed-plus", "", "pq", lambda A, p, q: A.plus[p][q] in A.tests),
    _eq("test-closed-times", "", "pq", lambda A, p, q: A.times[p][q] in A.tests),
    _eq("test-closed-not", "", "p", lambda A, p: A.comp[p] in A.tests),
    _eq("test-times-comm", "", "pq", lambda A, p, q:
        A.times[p][q] == A.times[q][p]),
    _eq("test-times-idem", "", "p", lambda A, p: A.times[p][p] == p),
    _eq("test-absorb-plus", "", "pq", lambda A, p, q:
        A.plus[p][A.times[p][q]] == p),
    _eq("test-absorb-times", "", "pq", lambda A, p, q:
        A.times[p][A.plus[p][q]] == p),
    _eq("test-not-bottom", "", "p", lambda A, p: A.times[p][A.comp[p]] == A.zero),
    _eq("test-not-top", "", "p", lambda A, p: A.plus[p][A.comp[p]] == A.one),
]

_ADOM = [
    _eq("adom-annihilate", "x", "", lambda A, x: A.times[A.adom[x]][x] == A.zero),
    _eq("adom-locality", "xy", "", lambda A, x, y:
        A.leq(A.adom[A.times[x][y]], A.adom[A.times[x][_d(A, y)]])),
    _eq("adom-complement", "x", "", lambda A, x:
        A.plus[A.adom[x]][_d(A, x)] == A.one),
]

_ARAN = [
    _eq("aran-annihilate", "x", "", lambda A, x: A.times[x][A.aran[x]] == A.zero),
    _eq("aran-locality", "xy", "", lambda A, x, y:
        A.leq(A.aran[A.times[x][y]], A.aran[A.times[_r(A, x)][y]])),
    _eq("aran-complement", "x", "", lambda A, x:
        A.plus[A.aran[x]][_r(A, x)] == A.one),
]

_COMPAT = [
    _eq("dom-antirange-compat", "x", "", lambda A, x: _d(A, A.aran[x]) == A.aran[x]),
    _eq("range-antidomain-compat", "x", "", lambda A, x:
        _r(A, A.adom[x]) == A.adom[x]),
]

PROFILE_LAWS = {
    "semiring": _SEMIRING,
    "dioid": _SEMIRING + _IDEM,
    "kleene": _SEMIRING + _IDEM + _STAR,
    "ts": _SEMIRING + _IDEM + _TESTS,
    "kat": _SEMIRING + _IDEM + _STAR + _TESTS,
    "as": _SEMIRING + _ADOM,
    "near-as": _NEAR_SEMIRING + _ADOM,
    "kad": _SEMIRING + _IDEM + _STAR + _ADOM,
    "ars": _SEMIRING + _ARAN,
    "kadr": _SEMIRING + _IDEM + _STAR + _ADOM + _ARAN + _COMPAT,
}

PROFILE_OPS = {
    "semiring": frozenset(), "dioid": frozenset(),
    "kleene": frozenset({"star"}), "ts": frozenset({"tests"}),
    "kat": frozenset({"star", "tests"}), "as": frozenset({"adom"}),
    "near-as": frozenset({"adom"}), "kad": frozenset({"star", "adom"}),
    "ars": frozenset({"aran"}), "kadr": frozenset({"star", "adom", "aran"}),
}


def profiles_for(ops: frozenset) -> list:
    """Profiles whose operations a model with ``ops`` provides."""
    have = set(ops) | ({"tests"} if "adom" in ops else set())
    return [p for p, need in PROFILE_OPS.items() if need <= have]


def law(profile: str, name: str):
    return next(entry for entry in PROFILE_LAWS[profile] if entry[0] == name)


def law_holds_at(A: Table, entry, assignment: dict) -> bool:
    """Evaluate one law instance; ``assignment`` maps variable to index."""
    _, vs, ts, fn = entry
    return fn(A, *(assignment[v] for v in vs), *(assignment[t] for t in ts))


def failing_laws(A: Table, profile: str) -> set:
    """Names of the profile's laws that some instance violates (exhaustive)."""
    n = range(A.size)
    failing = set()
    for name, vs, ts, fn in PROFILE_LAWS[profile]:
        domains = [n] * len(vs) + [A.tests] * len(ts)
        if not all(fn(A, *args) for args in product(*domains)):
            failing.add(name)
    return failing


def phi_fails_at(A: Table, x, y, p, q) -> bool:
    """Whether (x, y, p, q) is a counterexample to the mid-assertion sentence."""
    t, zero, comp = A.times, A.zero, A.comp
    if t[t[t[p][x]][y]][comp[q]] != zero:
        return False
    return not any(t[t[p][x]][comp[r]] == zero and t[t[r][y]][comp[q]] == zero
                   for r in A.tests)


def phi_holds(A: Table) -> bool:
    return not any(phi_fails_at(A, x, y, p, q)
                   for x in range(A.size) for y in range(A.size)
                   for p in A.tests for q in A.tests)


def canonical_form(A: Table) -> tuple:
    """Least relabelling of the table keeping 0 and 1 in place.

    Two tables with the same signature are isomorphic exactly when their
    canonical forms are equal.
    """
    n = A.size
    fixed = [A.zero] + ([A.one] if A.one != A.zero else [])
    movable = [i for i in range(n) if i not in fixed]
    best = None
    for perm in permutations(movable):
        order = fixed + list(perm)
        B = permuted(A, order)
        key = (B.plus, B.times, B.star, B.adom, B.aran, B.tests,
               None if B.comp is None else tuple(sorted(B.comp.items())))
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# the builtin verdict table
#
# From the paper and the model documentation: lemma4 is a KAT on which phi
# fails at x = y = a, p = 1, q = 0; bool2, trivial and the relation algebras
# satisfy every profile (relations form a Kleene algebra with domain and
# range) and phi (it holds in every antidomain near-semiring); nearas is an
# antidomain near-semiring that lacks left distributivity, so it fails
# exactly distrib-left in every full-semiring profile and satisfies phi.

BUILTIN_OPS = {
    "lemma4": frozenset({"star", "tests"}),
    "bool2": frozenset({"star", "adom", "aran"}),
    "trivial": frozenset({"star", "adom", "aran"}),
    "nearas": frozenset({"adom"}),
    "rel1": frozenset({"star", "adom", "aran"}),
    "rel2": frozenset({"star", "adom", "aran"}),
}

LEMMA4_PHI_WITNESS = ("a", "a", "1", "0")


def builtin_failures(builtin: str, profile: str) -> frozenset:
    """Laws of ``profile`` that the builtin violates."""
    if builtin == "nearas" and profile != "near-as":
        return frozenset({"distrib-left"})
    return frozenset()


def builtin_phi(builtin: str) -> bool:
    return builtin != "lemma4"


def product_failures(factors, profile: str) -> frozenset:
    """Equations, Horn quasi-equations and closure laws hold in a product of
    nonempty algebras exactly when they hold in every factor, so the
    product violates the union of what its factors violate."""
    out = frozenset()
    for f in factors:
        out |= builtin_failures(f, profile)
    return out


def product_phi(factors) -> bool:
    """phi holds in a product exactly when it holds in every factor."""
    return all(builtin_phi(f) for f in factors)


def product_ops(factors) -> frozenset:
    ops = frozenset.intersection(*(BUILTIN_OPS[f] for f in factors))
    if all("tests" in BUILTIN_OPS[f] or "adom" in BUILTIN_OPS[f] for f in factors):
        ops |= {"tests"}
    return ops


# ---------------------------------------------------------------------------
# terms over tables

def eval_term(A: Table, term, env: dict) -> int:
    """Evaluate a term tuple such as ("+", l, r); variables via ``env``."""
    op = term[0]
    if op == "0":
        return A.zero
    if op == "1":
        return A.one
    if op == "var":
        return env[term[1]]
    args = [eval_term(A, a, env) for a in term[1:]]
    if op == "+":
        return A.plus[args[0]][args[1]]
    if op == ";":
        return A.times[args[0]][args[1]]
    if op == "*":
        return A.star[args[0]]
    if op == "!":
        return A.comp[args[0]]
    if op == "a":
        return A.adom[args[0]]
    if op == "d":
        return _d(A, args[0])
    if op == "ar":
        return A.aran[args[0]]
    if op == "r":
        return _r(A, args[0])
    if op == "box":
        return A.adom[A.times[args[0]][A.adom[args[1]]]]
    raise ValueError(f"unknown operator {op!r}")


def render_term(term) -> str:
    """Concrete syntax, fully parenthesised so precedence cannot matter."""
    op = term[0]
    if op in ("0", "1"):
        return op
    if op == "var":
        return term[1]
    parts = [render_term(a) for a in term[1:]]
    if op in ("+", ";"):
        return f"({parts[0]} {op} {parts[1]})"
    if op == "*":
        return f"({parts[0]})*"
    if op == "!":
        return f"!({parts[0]})"
    if op == "box":
        return f"[{parts[0]}]({parts[1]})"
    return f"{op}({parts[0]})"


# ---------------------------------------------------------------------------
# while programs over successor sets
#
# A relation over states 0..n-1 is a tuple of frozensets: succ[s] is the set
# of states s steps to.  A test is a frozenset of states.  Programs are
# tuples: ("skip",), ("atom", name), ("seq", a, b), ("if", g, a, b) and
# ("while", g, body, invariant-or-None); guards are ("t", name), ("true",),
# ("false",), ("not", g), ("and", g, h), ("or", g, h).

def eval_guard(g, tests: dict, n: int) -> frozenset:
    kind = g[0]
    if kind == "t":
        return tests[g[1]]
    if kind == "true":
        return frozenset(range(n))
    if kind == "false":
        return frozenset()
    if kind == "not":
        return frozenset(range(n)) - eval_guard(g[1], tests, n)
    left, right = eval_guard(g[1], tests, n), eval_guard(g[2], tests, n)
    return left & right if kind == "and" else left | right


def compose(r, s):
    return tuple(frozenset().union(*(s[k] for k in r[i])) for i in range(len(r)))


def _restrict(t, r):
    """The relation t ; r for a test t."""
    return tuple(r[i] if i in t else frozenset() for i in range(len(r)))


def _reach(r):
    """Reflexive-transitive closure by a search from every state."""
    out = []
    for s in range(len(r)):
        seen = {s}
        todo = [s]
        while todo:
            for k in r[todo.pop()]:
                if k not in seen:
                    seen.add(k)
                    todo.append(k)
        out.append(frozenset(seen))
    return tuple(out)


def denotation(prog, atoms: dict, tests: dict, n: int):
    kind = prog[0]
    if kind == "skip":
        return tuple(frozenset({i}) for i in range(n))
    if kind == "atom":
        return atoms[prog[1]]
    if kind == "seq":
        return compose(denotation(prog[1], atoms, tests, n),
                        denotation(prog[2], atoms, tests, n))
    t = eval_guard(prog[1], tests, n)
    nott = frozenset(range(n)) - t
    if kind == "if":
        x = _restrict(t, denotation(prog[2], atoms, tests, n))
        y = _restrict(nott, denotation(prog[3], atoms, tests, n))
        return tuple(a | b for a, b in zip(x, y))
    loop = _reach(_restrict(t, denotation(prog[2], atoms, tests, n)))
    return tuple(frozenset(k for k in succ if k in nott) for succ in loop)


def wlp(rel, post: frozenset) -> frozenset:
    return frozenset(s for s, succ in enumerate(rel) if succ <= post)


def triple_holds(pre: frozenset, rel, post: frozenset) -> bool:
    return all(rel[s] <= post for s in pre)


def vc_conditions(pre, prog, post, atoms, tests, n):
    """(precondition, [(name, lhs, rhs)]) for {pre} prog {post}.

    Unannotated loops use the exact loop wlp; an annotated loop yields a
    preservation and an exit condition and contributes its invariant.
    Loops are numbered in the order the backward pass reaches them, which
    visits the second half of a sequence before the first.
    """
    counter = [0]

    def wp(p, q):
        kind = p[0]
        if kind == "skip":
            return q, []
        if kind == "atom":
            return wlp(atoms[p[1]], q), []
        if kind == "seq":
            wb, vb = wp(p[2], q)
            wa, va = wp(p[1], wb)
            return wa, va + vb
        t = eval_guard(p[1], tests, n)
        if kind == "if":
            wt, vt = wp(p[2], q)
            we, ve = wp(p[3], q)
            return (t & wt) | ((frozenset(range(n)) - t) & we), vt + ve
        if p[3] is None:
            return wlp(denotation(p, atoms, tests, n), q), []
        counter[0] += 1
        k = counter[0]
        inv = eval_guard(p[3], tests, n)
        wbody, vbody = wp(p[2], inv)
        return inv, [(f"while{k}-preserve", inv & t, wbody),
                     (f"while{k}-exit", inv - t, q)] + vbody

    precondition, vcs = wp(prog, post)
    return precondition, [("precondition", pre, precondition)] + vcs


def format_test(states: frozenset, names) -> str:
    """A test in the program's relation-literal format."""
    return "{" + ",".join(f"({names[s]},{names[s]})" for s in sorted(states)) + "}"


# ---------------------------------------------------------------------------
# eventually periodic sets

@dataclass(frozen=True)
class Periodic:
    """Below ``threshold`` membership is ``head``; above it, residues mod period."""

    threshold: int
    head: frozenset
    period: int
    residues: frozenset

    def __contains__(self, k: int) -> bool:
        if k < self.threshold:
            return k in self.head
        return k % self.period in self.residues

    def literal(self) -> str:
        head = ",".join(map(str, sorted(self.head)))
        res = ",".join(map(str, sorted(self.residues)))
        return f"periodic({self.threshold}; {head}; {self.period}; {res})"


EVENS = Periodic(0, frozenset(), 2, frozenset({0}))
ODDS = Periodic(0, frozenset(), 2, frozenset({1}))


def parse_finite(literal: str) -> frozenset:
    """Elements of a ``finite{...}`` literal; raises ValueError otherwise."""
    if not (literal.startswith("finite{") and literal.endswith("}")):
        raise ValueError(f"not a finite set literal: {literal!r}")
    body = literal[len("finite{"):-1].strip()
    return frozenset(int(k) for k in body.split(",")) if body else frozenset()


def refutation_ok(target: Periodic, candidate: str, verdict: str) -> bool:
    """Check one refutation: the candidate is a finite test disjoint from
    the target, and the reported extension adds one element outside both,
    so the candidate is no weakest liberal precondition."""
    cand = parse_finite(candidate)
    if any(k in target for k in cand):
        return False
    prefix = "not maximal, add "
    if not verdict.startswith(prefix):
        return False
    added, _, ext = verdict[len(prefix):].partition(" -> ")
    x = int(added)
    return (x not in target and x not in cand
            and parse_finite(ext) == cand | {x})

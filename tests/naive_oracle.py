"""Naive references for ``check_axioms``, ``check_rules``, ``check_phi``,
``find_models``, the eventually periodic sets of ``evsets``,
``load_model``, ``Rel.star``, Hoare triples and relation literals.

The checkers walk every instance with the shared term evaluator through
the index-level operations, in ``itertools.product`` order, and search
every intermediate test r for phi: the direct reading of the definitions
that the compiled law checker and the bitmask phi scan must reproduce
exactly.  The model enumeration tries every table fill without pruning,
and ``naive_is_least`` tries every relabelling of a complete model.
``NaiveEvPeriodicSet`` keeps head and residues as frozensets and computes
every operation and canonical form one element at a time; the naive
refuter searches the naturals in order for the element it adds.  The
model file loader and the squaring relation star are the versions the
one-pass loader and the packed Warshall star replaced.  A triple is
decided in its compose form p ; R ; !q = 0 on pair sets, and a relation
literal by the full-match grammar and ``findall`` that the one-pass split
replaced.
"""

import re
from dataclasses import dataclass
from itertools import combinations, count, islice, permutations, product
from math import lcm

from kadlab.algebra import (CheckReport, ClosureLaw, Equation, FiniteAlgebra,
                            PhiResult, Profile, Violation, _eval_idx,
                            _relabel, _require_profile_ops,
                            check_axioms, is_isomorphic, profile_axioms,
                            required_ops)
from kadlab.errors import ModelError, ParseError
from kadlab.relations import Rel
from kadlab.terms import variables


def _law_vars(law):
    if isinstance(law, Equation):
        terms = (law.lhs, law.rhs)
    elif isinstance(law, ClosureLaw):
        terms = (law.term,)
    else:
        terms = tuple(t for pair in law.premises for t in pair) + law.conclusion
    vs, ts = set(), set()
    for t in terms:
        a, b = variables(t)
        vs |= a
        ts |= b
    return sorted(vs), sorted(ts)


def _check_instance(algebra, law, venv, tenv):
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


def naive_check_axioms(algebra, profile, laws=None) -> CheckReport:
    """The profile's axioms, or the given laws (such as its Hoare rules),
    checked on a model with the profile's operations."""
    _require_profile_ops(algebra, profile)
    report = CheckReport(profile)
    n = algebra.size
    test_range = algebra.tests_i or ()
    for law in profile_axioms(profile) if laws is None else laws:
        report.axiom_count += 1
        vs, ts = _law_vars(law)
        domains = [range(n)] * len(vs) + [test_range] * len(ts)
        count = 0
        for assignment in product(*domains):
            count += 1
            venv = dict(zip(vs, assignment[:len(vs)]))
            tenv = dict(zip(ts, assignment[len(vs):]))
            violation = _check_instance(algebra, law, venv, tenv)
            if violation is not None:
                report.violations.append(violation)
                break
        report.instance_count += count
        report.law_instances.append((law.name, count))
    return report


def naive_check_phi(algebra) -> PhiResult:
    zero = algebra.zero_i
    tests = algebra.tests_i
    nbar = {q: algebra.complement(q) for q in tests}
    scanned = 0
    for x in range(algebra.size):
        for y in range(algebra.size):
            for p in tests:
                px = algebra.times(p, x)
                pxy = algebra.times(px, y)
                for q in tests:
                    scanned += 1
                    if algebra.times(pxy, nbar[q]) != zero:
                        continue
                    if any(algebra.times(px, nbar[r]) == zero
                           and algebra.times(algebra.times(r, y), nbar[q]) == zero
                           for r in tests):
                        continue
                    name = algebra.element_name
                    return PhiResult(False, (name(x), name(y), name(p), name(q)),
                                     scanned)
    return PhiResult(True, None, scanned)


class _Padded:
    """Index-level operations on tables padded with an absorbing unknown
    index n (rows, columns and entries), as model search fills them."""

    def __init__(self, tables):
        self.zero_i, self.one_i, self.tables = tables.zero, tables.one, tables

    def plus(self, i, j):
        return self.tables.plus[i][j]

    def times(self, i, j):
        return self.tables.times[i][j]

    def star(self, i):
        return self.tables.star[i]

    def adom(self, i):
        return self.tables.adom[i]

    def aran(self, i):
        return self.tables.aran[i]

    def complement(self, i):
        return self.tables.complement[i]


def naive_partial_violations(tables, law):
    """The assignments, in loop order, at which the law fails on padded
    tables with every value it reads known."""
    algebra, n = _Padded(tables), tables.n
    vs, ts = _law_vars(law)
    found = []
    for assignment in product(*([range(n)] * len(vs) + [tables.tests] * len(ts))):
        venv = dict(zip(vs, assignment[:len(vs)]))
        tenv = dict(zip(ts, assignment[len(vs):]))

        def ev(t):
            return _eval_idx(algebra, t, venv, tenv)

        def known_leq(s, t):
            return ev(t) != n and tables.plus[ev(s)][ev(t)] == ev(t)

        if isinstance(law, Equation):
            fails = n != ev(law.lhs) != ev(law.rhs) != n
        elif isinstance(law, ClosureLaw):
            fails = ev(law.term) not in tables.complement
        else:
            s, t = law.conclusion
            join = tables.plus[ev(s)][ev(t)]
            fails = (all(known_leq(*pair) for pair in law.premises)
                     and n != join != ev(t))
        if fails:
            found.append(assignment)
    return found


def naive_preimages(tables):
    """(plus_pre, times_pre): for each value v, the cells (x, y) of + and of
    ; that hold v, found by a double loop over the carrier.  A cell of
    padded tables that holds the unknown index n is in no list."""
    n = tables.n
    return tuple([[(x, y) for x in range(n) for y in range(n)
                   if table[x][y] == v] for v in range(n)]
                 for table in (tables.plus, tables.times))


# profiles in which x + x = x is an axiom or derivable
IDEMPOTENT = frozenset(Profile) - {Profile.SEMIRING, Profile.NEAR_AS}


def _fills(table, cells, values):
    """Every way to give the cells (lists of positions) values, in place."""
    for choice in product(*(values(cell[0]) for cell in cells)):
        for cell, v in zip(cells, choice):
            for i, j in cell:
                table[i][j] = v
        yield


def brute_force_models(n, profile):
    """The models of the profile on n elements, one per isomorphism class.

    Every table fill is tried under the fixed cells and ordering rules of
    model search: 0 is the additive unit, 1 the multiplicative one, 0
    annihilates on the left (and on the right, but in near-as), + is
    commutative, and for idempotent profiles x + x = x, 1 is the additive
    top and x + y is at or above x and y in carrier order.  The star,
    antidomain and antirange tables, the test set and its complement (any
    involution of it) are free.  What passes ``check_axioms`` is kept unless
    isomorphic to a model kept before.
    """
    idem = profile in IDEMPOTENT
    ops = required_ops(profile)
    one = n - 1
    names = [f"e{i}" for i in range(n)]
    plus = [[None] * n for _ in range(n)]
    times = [[None] * n for _ in range(n)]
    for i in range(n):
        plus[0][i] = plus[i][0] = i
        times[0][i] = 0
        times[one][i] = times[i][one] = i
        if profile is not Profile.NEAR_AS:
            times[i][0] = 0
        if idem:
            plus[i][i] = i
            plus[i][one] = plus[one][i] = one
    plus_cells = [[(i, j), (j, i)] for i in range(n) for j in range(i, n)
                  if plus[i][j] is None]
    times_cells = [[(i, j)] for i in range(n) for j in range(n)
                   if times[i][j] is None]
    unary = [product(range(n), repeat=n) if op in ops else [None]
             for op in ("star", "adom", "aran")]
    unary = list(product(*map(list, unary)))
    test_sets = [[(None, None)]]
    if "tests" in ops:
        test_sets = []
        for extra in product((False, True), repeat=max(n - 2, 0)):
            tests = sorted({0, one} | {i + 1 for i, b in enumerate(extra) if b})
            test_sets.append([
                (tests, dict(zip(tests, comp)))
                for comp in product(tests, repeat=len(tests))
                if all(comp[tests.index(c)] == t for t, c in zip(tests, comp))])
    kept = []
    for _ in _fills(plus, plus_cells,
                    lambda c: range(max(c), n) if idem else range(n)):
        for _ in _fills(times, times_cells, lambda c: range(n)):
            for (star, adom, aran), choices in product(unary, test_sets):
                for tests, comp in choices:
                    kwargs = {}
                    if tests is not None:
                        kwargs["tests"] = [names[t] for t in tests]
                        kwargs["complement"] = {names[k]: names[v]
                                                for k, v in comp.items()}
                    try:
                        model = FiniteAlgebra(
                            names, names[0], names[one], plus, times,
                            star=star, adom=adom, aran=aran, **kwargs)
                    except ModelError:
                        continue    # the antidomain's image misses 0 or 1
                    if (check_axioms(model, profile).passed
                            and not any(is_isomorphic(model, m) for m in kept)):
                        kept.append(model)
    return kept


def _model_key(tb):
    comp = (None if tb.complement is None
            else tuple(v for _, v in sorted(tb.complement.items())))
    return (tuple(map(tuple, tb.plus)), tuple(map(tuple, tb.times)),
            *(None if t is None else tuple(t) for t in (tb.star, tb.adom, tb.aran)),
            tuple(tb.tests), comp)


def naive_is_least(model, idem):
    """No relabelling of the middle elements gives smaller tables (one that
    breaks the search's order on + aside), comparing complete models only."""
    tb = model.tables
    mine = _model_key(tb)
    r = range(tb.n)
    for perm in islice(permutations(range(1, tb.n - 1)), 1, None):
        pi = (0, *perm, tb.n - 1)
        if idem and any(pi[tb.plus[i][j]] < max(pi[i], pi[j])
                        for i in r for j in r):
            continue
        if _model_key(_relabel(tb, pi)) < mine:
            return False
    return True


# ---------------------------------------------------------------------------
# eventually periodic sets, one element at a time

@dataclass(frozen=True)
class NaiveEvPeriodicSet:
    threshold: int
    head: frozenset
    period: int
    residues: frozenset

    def __post_init__(self):
        n, head = self.threshold, frozenset(self.head)
        p, res = self.period, frozenset(self.residues)
        if n < 0:
            raise ModelError("threshold must be nonnegative")
        if p < 1:
            raise ModelError("period must be positive")
        if not head <= frozenset(range(n)):
            raise ModelError("head elements must lie below the threshold")
        if not res <= frozenset(range(p)):
            raise ModelError("residues must lie below the period")

        # minimal period: smallest divisor of p under which the residue set
        # is shift-invariant
        for d in range(1, p + 1):
            if p % d:
                continue
            if all(((c + d) % p in res) == (c in res) for c in range(p)):
                res = frozenset(c for c in range(d) if c in res)
                p = d
                break

        # minimal threshold: absorb head entries that already follow the tail
        while n > 0 and ((n - 1) in head) == ((n - 1) % p in res):
            n -= 1

        object.__setattr__(self, "threshold", n)
        object.__setattr__(self, "head", frozenset(x for x in head if x < n))
        object.__setattr__(self, "period", p)
        object.__setattr__(self, "residues", res)

    def __contains__(self, n):
        if n < self.threshold:
            return n in self.head
        return n % self.period in self.residues

    @property
    def is_finite(self):
        return not self.residues

    @property
    def is_cofinite(self):
        return len(self.residues) == self.period

    @property
    def is_empty(self):
        return not self.head and not self.residues

    def least(self):
        if self.head:
            return min(self.head)
        if not self.residues:
            return None
        n = self.threshold
        return n + min((r - n) % self.period for r in self.residues)

    def _combine(self, other, op):
        p = lcm(self.period, other.period)
        n = max(self.threshold, other.threshold)
        head = frozenset(k for k in range(n) if op(k in self, k in other))
        res = frozenset(c for c in range(p)
                        if op(c % self.period in self.residues,
                              c % other.period in other.residues))
        return NaiveEvPeriodicSet(n, head, p, res)

    def union(self, other):
        return self._combine(other, lambda a, b: a or b)

    def intersect(self, other):
        return self._combine(other, lambda a, b: a and b)

    def difference(self, other):
        return self._combine(other, lambda a, b: a and not b)

    def complement(self):
        return NaiveEvPeriodicSet(
            self.threshold,
            frozenset(range(self.threshold)) - self.head,
            self.period,
            frozenset(range(self.period)) - self.residues)

    def leq(self, other):
        return self.difference(other).is_empty


NAIVE_EVENS = NaiveEvPeriodicSet(0, frozenset(), 2, frozenset({0}))
NAIVE_ODDS = NaiveEvPeriodicSet(0, frozenset(), 2, frozenset({1}))


def naive_finite_set(elements):
    elements = frozenset(elements)
    bound = max(elements) + 1 if elements else 0
    return NaiveEvPeriodicSet(bound, elements, 1, frozenset())


def naive_enumerate_candidates(target, count):
    """Finite sets of the target's non-members, by size then lexicographically."""
    universe = max(64, target.threshold + 4 * count * target.period)
    free = [k for k in range(universe) if k not in target]
    yield from islice((naive_finite_set(combo) for size in range(len(free) + 1)
                       for combo in combinations(free, size)), count)


def naive_refute_wlp_candidate(target, candidate):
    """("witness", the meet's least element) if the candidate meets the
    target, else ("missing", the least k in neither set, the candidate
    plus k)."""
    meet = target.intersect(candidate)
    if not meet.is_empty:
        return "witness", meet.least()
    k = next(k for k in count() if k not in target and k not in candidate)
    return "missing", k, candidate.union(naive_finite_set({k}))


def naive_format_evset(s):
    if s == NAIVE_EVENS:
        return "evens"
    if s == NAIVE_ODDS:
        return "odds"
    if s.is_finite:
        return "finite{" + ",".join(map(str, sorted(s.head))) + "}"
    if s.is_cofinite:
        comp = s.complement()
        return "cofinite{" + ",".join(map(str, sorted(comp.head))) + "}"
    head = ",".join(map(str, sorted(s.head)))
    res = ",".join(map(str, sorted(s.residues)))
    return f"periodic({s.threshold}; {head}; {s.period}; {res})"


# ---------------------------------------------------------------------------
# model files, relations, triples and relation literals


def naive_load_model(text, name="model"):
    """The model file loader as it was before the one-pass loader: a key
    dispatch per line, then one ``elem`` lookup per table cell.  It differs
    from ``load_model`` in one place only: a repeated ``carrier``/``zero``/
    ``one``/``tests`` line silently overrides the earlier one here."""
    carrier = None
    zero = one = None
    tests = None
    binary = {"plus": {}, "times": {}}
    unary = {k: {} for k in ("star", "adom", "aran", "not")}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
    if not carrier:
        raise ParseError("empty carrier line", source=name)
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


def naive_star(rel):
    """Reflexive-transitive closure by squaring R | id until it is stable,
    at most ceil(log2 n) + 1 times."""
    acc = rel.union(Rel.identity(rel.space))
    for _ in range(max(1, rel.space.size.bit_length() + 1)):
        nxt = acc.compose(acc)
        if nxt == acc:
            break
        acc = nxt
    return acc


def _pair_compose(r, s):
    return {(a, c) for a, b in r for b2, c in s if b == b2}


def naive_triple_holds(pre, rel, post):
    """{pre} rel {post} in its compose form: pre ; rel ; !post is empty,
    composed as pair sets."""
    not_post = {(s, s) for s in rel.space.names} - post.pairs()
    return not _pair_compose(_pair_compose(pre.pairs(), rel.pairs()), not_post)


_PAIR = r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)"
_LITERAL_RE = re.compile(rf"\{{\s*(?:{_PAIR}(?:\s*,\s*{_PAIR})*)?\s*\}}")


def naive_parse_rel_literal(space, text):
    """The relation literal grammar as regular expressions, independent of
    the str-method split and the digit buffer that ``parse_rel_literal``
    and ``Rel.from_pairs`` share: the whole literal as one full match, then
    ``findall`` for the pairs, whose names are looked up one at a time in
    reading order and whose bits are ORed in one pair at a time."""
    body = text.strip()
    named = {"id": Rel.identity, "empty": Rel.empty, "full": Rel.full}
    if body in named:
        return named[body](space)
    if not _LITERAL_RE.fullmatch(body):
        raise ParseError(f"bad relation literal {text!r}")
    bits = 0
    try:
        for a, b in re.findall(_PAIR, body):
            bits |= 1 << space.index(a) * space.size + space.index(b)
    except ModelError as e:
        raise ParseError(f"bad relation literal {text!r}: {e}") from None
    return Rel(space, bits)

"""Exhaustive search for small algebras satisfying an axiom profile.

The carrier is 0, the middle elements a, b, ... and then 1.  One
backtracking fills the cells of + and then of ; that no law fixes outright
(as x + 0 = x, 0 ; x = 0, 1 ; x = x do), + as a symmetric table when the
profile makes it commutative.  Each law of ``profile_axioms(profile)``
belongs to the last stage whose table it reads and is compiled by the law
checker's code generator to run on tables whose unfilled cells hold an
absorbing "unknown" index, so an instance that reads one is skipped.  The
laws of + and ; run in full as the search enters their table, and after a
cell only the instances that read it (or its mirror) run: each instance
is decided where the last cell it reads is filled (SEM: Zhang & Zhang,
IJCAI 1995).

The rest is derived from + and ;.  The star is the sum of the powers x^k
for k < n, the only star of a finite dioid (Kozen, 1994).  On each test
set in turn (with each complement, for ts and kat) the antidomain of x is
the join of the tests t with t ; x = 0 and its antirange that of the tests
with x ; t = 0 (Desharnais, Möller & Struth, ACM TOCL 2006); a test set
that is not their image is dropped.  The laws of these stages run once on
the derived tables, so every fill that comes out satisfies the profile.

Of the fills that differ by a relabelling of the middle elements only the
least is kept: + and ; compared row-major, then the derived antidomain
and antirange, then the test set and its complement.  A fill is dropped
once + or ; is complete and a relabelling that kept the earlier table
unchanged makes it smaller (every completion then has a smaller
relabelling too), and a derived fill once one that keeps + and ; does.

Search bound: for the profiles where x + x = x is an axiom or derivable,
the search also assumes that the unit is the additive top and that a + b
lies at or above a and b in carrier order.  Algebras whose unit is not the
additive top are never visited, so for those profiles an empty search
(``phi-fails`` included) shows only that no model of that shape exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator, Optional

from . import terms as tm
from .algebra import (Equation, FiniteAlgebra, Profile, _compile, _law_vars,
                      _subterms, check_phi, profile_axioms, required_ops)
from .errors import BoundError, ModelError

__all__ = ["find_models", "CONSTRAINTS", "SearchStats"]

CONSTRAINTS = ("phi-fails", "phi-holds")

# additive idempotence is an axiom of these profiles or derivable in them
_IDEMPOTENT = frozenset({
    Profile.DIOID, Profile.KLEENE, Profile.TS, Profile.KAT,
    Profile.AS, Profile.KAD, Profile.ARS, Profile.KA_DR,
})

# phi quantifies over tests: the profiles with a test algebra or an antidomain
_PHI_CAPABLE = frozenset(p for p in Profile
                         if required_ops(p) & {"tests", "adom"})

_MIDDLE_NAMES = "abcdefgh"

# the stages in fill order; a law belongs to the last stage whose table it reads
_STAGES = ("plus", "times", "star", "adom", "aran", "tests")
# the stage of each term type: of its table, or the tests stage
_STAGE_OF = {tm.Plus: 0, tm.Times: 1, tm.Star: 2, tm.ADom: 3, tm.ARan: 4,
             tm.Not: 5, tm.TestVar: 5}
_ATOMS = (tm.Zero, tm.One, tm.Var)


@dataclass
class SearchStats:
    """What one search did, counted as it runs.

    ``stages`` maps each stage the profile needs to ``[tried, pruned]``:
    the + and ; cell values tried (the laws of ; that run as the search
    enters it count for the last + cell), the star, adom and aran tables
    derived, or the test sets with a complement, and those a law refuted
    or, for adom and aran, whose image is not the test set.  ``duplicates``
    counts the fills dropped as relabellings of a smaller one,
    ``candidates`` the fills that passed every law and ``models`` the
    models yielded.
    """

    stages: dict = field(default_factory=dict)
    duplicates: int = 0
    candidates: int = 0
    models: int = 0


def find_models(size: int, profile, constraint: Optional[str] = None,
                *, bound: int = 4, limit: Optional[int] = None,
                stats: Optional[SearchStats] = None
                ) -> Iterator[FiniteAlgebra]:
    """Yield models of the profile on a carrier of the given size.

    ``constraint`` may be ``"phi-fails"`` or ``"phi-holds"`` to keep only
    models refuting/satisfying the mid-assertion sentence; it requires a
    profile that provides tests.  Enumeration order is deterministic.
    The search is complete up to isomorphism except that, for the profiles
    where + is idempotent, it visits only algebras whose unit is the
    additive top (see the module docstring).  Each model yielded is the
    least of its isomorphism class and satisfies the profile without a
    further check.  A ``SearchStats`` passed as ``stats`` is filled in.
    """
    if isinstance(profile, str):
        profile = Profile.parse(profile)
    if size < 1:
        raise BoundError("carrier size must be positive")
    if size > bound:
        raise BoundError(f"size {size} exceeds the search bound {bound}")
    if constraint is not None and constraint not in CONSTRAINTS:
        raise ModelError(f"unknown constraint {constraint!r} "
                         f"(one of {', '.join(CONSTRAINTS)})")
    if constraint is not None and profile not in _PHI_CAPABLE:
        raise ModelError(
            f"constraint {constraint} needs a profile with tests "
            f"(ts/kat) or an antidomain (as/near-as/kad/kadr)")

    if limit is not None and limit < 1:
        return
    stats = SearchStats() if stats is None else stats
    found = 0
    for model in _enumerate_models(size, profile, stats):
        if (constraint is not None
                and check_phi(model).holds != (constraint == "phi-holds")):
            continue
        found += 1
        stats.models += 1
        model.name = f"search-{profile.value}-{size}-{found}"
        yield model
        if limit is not None and found >= limit:
            return


# ---------------------------------------------------------------------------
# the laws of each stage

def _fixes_cells(law) -> bool:
    """x op y = z over constants and variables: it sets cells outright."""
    return (isinstance(law, Equation)
            and isinstance(law.lhs, (tm.Plus, tm.Times))
            and isinstance(law.lhs.left, _ATOMS)
            and isinstance(law.lhs.right, _ATOMS)
            and isinstance(law.rhs, _ATOMS))


def _commutes(law) -> bool:
    """x op y = y op x: the table is symmetric."""
    if not isinstance(law, Equation):
        return False
    l, r = law.lhs, law.rhs
    return (type(l) is type(r) and isinstance(l, (tm.Plus, tm.Times))
            and isinstance(l.left, tm.Var) and isinstance(l.right, tm.Var)
            and l.left != l.right and (l.left, l.right) == (r.right, r.left))


class _Stage:
    """The laws of one stage: those that set cells, whether its table is
    symmetric, and two compiled tests: ``full`` (every law, run once as the
    search enters a + or ; stage, and on each derived table or test set)
    and, for + and ;, ``at`` (pinned to the cell just filled)."""

    def __init__(self, name, laws):
        self.name = name
        self.laws = laws
        self.fixing = [law for law in laws if _fixes_cells(law)]
        self.symmetric = any(map(_commutes, laws))
        self.full = _compile(laws, partial=True)
        self.pinned = [law for law in laws
                       if law not in self.fixing and not _commutes(law)]
        filled = {"plus": tm.Plus, "times": tm.Times}.get(name)
        self.at = filled and _compile(self.pinned, partial=True, pin=filled)

    def check(self, i, j):
        """The test run after filling cell (i, j), and its mirror in a
        symmetric table: true when a law instance that reads the cell
        fails, given the compiled laws' arguments."""
        at = self.at
        if self.symmetric and i != j:
            return lambda args: (at(*args, i, j) is not None
                                 or at(*args, j, i) is not None)
        return lambda args: at(*args, i, j) is not None


@functools.cache
def _plan(profile: Profile) -> tuple[_Stage, ...]:
    """The stages the profile needs, in fill order."""
    laws = [[] for _ in _STAGES]
    for law in profile_axioms(profile):
        k = max(_STAGE_OF.get(type(t), 0) for t in _subterms(law))
        laws[k].append(law)
    return tuple(_Stage(name, laws[k]) for k, name in enumerate(_STAGES)
                 if k < 2 or name in required_ops(profile))


# ---------------------------------------------------------------------------
# enumeration

def _enumerate_models(n: int, profile: Profile,
                      stats: Optional[SearchStats] = None
                      ) -> Iterator[FiniteAlgebra]:
    """Every candidate the pruned search reaches, in search order."""
    stats = SearchStats() if stats is None else stats
    names = ("0", *_MIDDLE_NAMES[:max(n - 2, 0)], "1")[:n]
    idem = profile in _IDEMPOTENT
    one, unknown = n - 1, n
    # row and column n are the absorbing "unknown" index
    P, T = ([[unknown] * (n + 1) for _ in range(n + 1)] for _ in range(2))
    args = [n, (), P, T, None, None, None, None, None, 0, one]
    if idem:
        # the search bound: x + x = x, and 1 is the additive top
        for i in range(n):
            P[i][i] = i
            P[i][one] = P[one][i] = one

    # one step per free cell of + and ;, in fill order: the cell as (row,
    # column), its mirror (the cell itself unless the table is symmetric),
    # its values and the test run after it, which runs the ``full`` of the
    # stage it enters; the later stages derive their tables
    plan = [(stage, stats.stages.setdefault(stage.name, [0, 0]))
            for stage in _plan(profile)]
    steps = []
    for (stage, counts), table in zip(plan, (P, T)):
        for law in stage.fixing:
            _fix_cells(table, law, n, stage.symmetric)
        if steps:
            steps[-1][5] = _entering(steps[-1][5], stage.full)
        elif stage.full(*args) is not None:
            return
        # the search bound: a + b is at or above a and b in carrier order
        sym, bounded = stage.symmetric, table is P and idem
        cells = [(i, j) for i in range(n) for j in range(i if sym else 0, n)
                 if table[i][j] == unknown]
        for k, (i, j) in enumerate(cells):
            lo = max(i, j) if bounded else 0
            steps.append([table[i], j, table[j] if sym else table[i],
                          i if sym else j, range(lo, n),
                          stage.check(i, j), counts,
                          k == len(cells) - 1 and (table, bounded)])
    derived = dict((stage.name, (stage, counts)) for stage, counts in plan[2:])
    star = derived.pop("star", None)
    # the test sets, with each complement when the tests stage reads it
    choices = (_test_choices(n) if "tests" in derived else
               [(t, None) for t in _test_sets(n)] if derived else [((), None)])
    choices = [(t, c, [i in t for i in range(n)]) for t, c in choices]
    # the relabellings of the middle elements but the identity, with inverses
    perms = [(pi, tuple(sorted(range(n), key=pi.__getitem__)))
             for pi in ((0, *p, one) for p in permutations(range(1, one)))][1:]

    def key(pi, inv, tables, tests_i, comp_i):
        """The derived tables, test set and complement relabelled by pi."""
        ts = sorted(tests_i, key=pi.__getitem__)
        return ([[pi[t[j]] for j in inv] for t in tables],
                [pi[t] for t in ts], comp_i and [pi[comp_i[t]] for t in ts])

    def candidates(perms):
        """The fills that + and ; force, by their derived tables."""
        if star:
            star[1][0] += 1
            args[4] = _sum_of_powers(P, T, n)
            if star[0].full(*args) is not None:
                star[1][1] += 1
                return
        # the antidomain of x reads column x of ;, its antirange row x
        derive = {"adom": (5, list(zip(*T))[:n]), "aran": (6, T[:n])}
        kept = []
        for tests_i, comp_i, is_test in choices:
            args[1], args[7], args[8] = tests_i, comp_i, is_test
            tables = {}
            for stage, counts in derived.values():
                counts[0] += 1
                if stage.name in derive:
                    k, rows = derive[stage.name]
                    tables[stage.name] = args[k] = _annihilators(
                        P, rows, tests_i, is_test)
                if None in tables.values() or stage.full(*args) is not None:
                    counts[1] += 1
                    break
            else:
                own = list(tables.values())
                mine = key(range(n), range(n), own, tests_i, comp_i)
                if derived and any(key(*pi, own, tests_i, comp_i) < mine
                                   for pi in perms):
                    stats.duplicates += 1
                else:
                    kept.append((own, tests_i, comp_i, tables))
        # a stable sort: test-set order among equal derived tables
        for _, tests_i, comp_i, tables in sorted(kept, key=lambda f: f[0]):
            stats.candidates += 1
            yield FiniteAlgebra(
                names, names[0], names[one],
                *(tuple(tuple(row[:n]) for row in t[:n]) for t in (P, T)),
                star=star and tuple(args[4]), **tables, name="candidate",
                tests=[names[t] for t in tests_i] if comp_i else None,
                complement=comp_i and {names[k]: names[v]
                                       for k, v in comp_i.items()})

    def fill(k, perms):
        if k == len(steps):
            yield from candidates(perms)
            return
        row, col, mrow, mcol, values, refuted, counts, done = steps[k]
        for v in values:
            row[col] = mrow[mcol] = v
            counts[0] += 1
            if refuted(args):
                counts[1] += 1
                continue
            kept = _stabiliser(*done, perms, n) if done else perms
            if kept is None:
                stats.duplicates += 1
                continue
            yield from fill(k + 1, kept)
        row[col] = mrow[mcol] = unknown

    yield from fill(0, perms)


def _entering(check, full):
    """The check of a cell, then the ``full`` of the stage it enters."""
    return lambda args: check(args) or full(*args) is not None


def _fix_cells(table, law, n, symmetric):
    """Set the cells the law fixes outright, for every assignment."""
    vs = _law_vars(law)[0]
    for values in product(range(n), repeat=len(vs)):
        env = dict(zip(vs, values))
        a, b, v = (0 if isinstance(t, tm.Zero) else n - 1
                   if isinstance(t, tm.One) else env[t.name]
                   for t in (law.lhs.left, law.lhs.right, law.rhs))
        table[a][b] = v
        if symmetric:
            table[b][a] = v


def _sum_of_powers(P, T, n):
    """x* as the sum of x^k for k < n, the only star a finite dioid has."""
    star = []
    for x in range(n):
        total = power = n - 1
        for _ in range(1, n):
            power = T[power][x]
            total = P[total][power]
        star.append(total)
    return star


def _annihilators(P, rows, tests, is_test):
    """For each x the join of the tests t with rows[x][t] = 0: with the
    columns of ; its antidomain, with the rows its antirange, as the tests
    force them; None if the image is not the test set."""
    table = []
    for row in rows:
        join = 0
        for t in tests:
            if row[t] == 0:
                join = P[join][t]
        if not is_test[join]:
            return None
        table.append(join)
    return table if len(set(table)) == len(tests) else None


def _test_sets(n):
    """The subsets of the carrier that contain zero and one."""
    return [tuple(sorted({0, n - 1, *(m for m in range(1, n - 1)
                                       if mask >> m - 1 & 1)}))
            for mask in range(1 << max(n - 2, 0))]


@functools.cache
def _test_choices(n):
    """The test sets, each with every involution as complement that swaps
    zero and one."""
    found = []
    for tests in _test_sets(n):
        for values in product(tests, repeat=len(tests[1:-1])):
            comp = {0: n - 1, n - 1: 0, **dict(zip(tests[1:-1], values))}
            if all(comp[comp[t]] == t for t in tests):
                found.append((tests, comp))
    return found


# ---------------------------------------------------------------------------
# canonical representatives

def _stabiliser(table, bounded, perms, n):
    """The relabellings that leave the table just completed unchanged, or
    None if one makes it smaller, row-major as the tables are compared.
    ``bounded`` first drops those that break the search's order on +."""
    if bounded:
        perms = [(pi, inv) for pi, inv in perms
                 if all(pi[table[i][j]] >= max(pi[i], pi[j])
                        for i in range(n) for j in range(n))]
    kept = []
    for pi, inv in perms:
        for i in range(n):
            mine, src = table[i][:n], table[inv[i]]
            new = [pi[src[j]] for j in inv]
            if new != mine:
                if new < mine:
                    return None
                break
        else:
            kept.append((pi, inv))
    return kept

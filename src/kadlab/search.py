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
IJCAI 1995).  The search keeps, for each table and value v, the list of
its filled cells that hold v, adding a cell as it writes it and taking it
off as it backtracks.  Where a law reads the filled cell through an
argument x op y of two otherwise unbound variables, as (x ; y) ; z does,
the pinned check loops over the cells (x, y) of op that hold that
argument's coordinate instead of over all n^2 pairs.

The rest is derived from + and ;.  The star is the sum of the powers x^k
for k < n, the only star of a finite dioid (Kozen, 1994).  Only sets of
idempotents of ; that hold 0 and 1 are offered as test sets: t ; t = t is
a law of ts and kat, and the antidomain profiles derive it from right
distributivity, as a(x) = (a(x) + d(x)) ; a(x) = a(x) ; a(x) + 0, and
the antirange profiles likewise from left distributivity.  On each such
test set in turn the antidomain of x is the join of the tests r with
r ; x = 0, its antirange that of the tests with x ; r = 0, and for ts and
kat the complement of a test t that of the tests with r ; t = 0
(Desharnais, Möller & Struth, ACM TOCL 2006); a test set such a table
leaves or misses is dropped.  The laws of these stages run once on the
derived tables, so every fill that comes out satisfies the profile.

Of the fills that differ by a relabelling of the middle elements only the
least is kept: + and ; compared row-major, then the derived antidomain
and antirange, then the test set, which fixes the complement.  As each
row of ; and of an unbounded + (see below) is completed, before the next
stage's laws, a fill is dropped if a relabelling that kept the earlier
tables unchanged makes its filled rows smaller (every completion then has
a smaller relabelling too).  The bounded + is checked once complete, and
a derived fill once a relabelling that keeps + and ; makes it smaller.

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
from .algebra import (_READS, Equation, FiniteAlgebra, Profile, _compile,
                      _law_vars, _reads, _Tables, check_phi, profile_axioms,
                      required_ops)
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

# a stage per operation, in fill order; a law belongs to the stage of the
# last operation it reads
_STAGES = tuple(dict.fromkeys(_READS.values()))
_ATOMS = (tm.Zero, tm.One, tm.Var)
# the position of each field of ``_Tables`` in the compiled laws' arguments
_ARG = {name: k for k, name in enumerate(_Tables._fields)}


@dataclass
class SearchStats:
    """What one search did, counted as it runs.

    ``stages`` maps each stage the profile needs to ``[tried, pruned]``:
    the + and ; cell values tried (the laws of ; that run as the search
    enters it count for the last + cell), the star, adom and aran tables
    derived, or the test sets whose complement is derived, and those a law
    refuted or whose derived table leaves or misses the test set.  A test
    set that holds an x with x ; x != x is not offered and not counted.
    ``duplicates`` counts the fills dropped as relabellings of a smaller
    one, at the first completed row of + or ; that shows it,
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
    further check: a partial fill is dropped as soon as a completed row of
    + or ; shows a smaller relabelling, and only sets of idempotents are
    tried as test sets.  A ``SearchStats`` passed as ``stats`` is filled
    in.
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


@functools.cache
def _plan(profile: Profile) -> tuple[_Stage, ...]:
    """The stages the profile needs, in fill order."""
    laws = [[] for _ in _STAGES]
    for law in profile_axioms(profile):
        k = max(map(_STAGES.index, _reads(law)), default=0)
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
    args = list(_Tables(n=n, tests=(), plus=P, times=T, star=None, adom=None,
                        aran=None, complement=None, is_test=None, zero=0,
                        one=one))
    # pre[v] lists the filled cells (x, y) of each table that hold v
    P_pre, T_pre = ([[] for _ in range(n)] for _ in range(2))
    if idem:
        # the search bound: x + x = x, and 1 is the additive top
        for i in range(n):
            P[i][i] = i
            P[i][one] = P[one][i] = one

    # one step per free cell (i, j) of + and ;, in fill order: its row, its
    # mirror's row and column (itself unless the table is symmetric), its
    # values, the stage's pinned test ``at``, whether the mirror is another
    # cell, on a table's last cell the ``full`` of the stage it enters, its
    # counts, on the last cell of a row (of the table, if the order bound
    # constrains it) the table for ``_stabiliser``, and the table's cell
    # lists by value
    plan = [(stage, stats.stages.setdefault(stage.name, [0, 0]))
            for stage in _plan(profile)]
    steps = []
    for (stage, counts), table, pre in zip(plan, (P, T), (P_pre, T_pre)):
        for law in stage.fixing:
            _fix_cells(table, law, n, stage.symmetric)
        if steps:
            steps[-1][8] = stage.full
        elif stage.full(*args) is not None:
            return
        # the search bound: a + b is at or above a and b in carrier order
        sym, bounded = stage.symmetric, table is P and idem
        cells = [(i, j) for i in range(n) for j in range(i if sym else 0, n)
                 if table[i][j] == unknown]
        for k, (i, j) in enumerate(cells):
            lo = max(i, j) if bounded else 0
            steps.append([i, j, table[i], table[j] if sym else table[i],
                          i if sym else j, range(lo, n), stage.at,
                          sym and i != j, None, counts,
                          (k + 1 == len(cells)
                           or not bounded and cells[k + 1][0] != i)
                          and (table, bounded), pre])
    for table, pre in ((P, P_pre), (T, T_pre)):
        for x, y in product(range(n), repeat=2):
            if table[x][y] != unknown:
                pre[table[x][y]].append((x, y))
    derived = dict((stage.name, (stage, counts)) for stage, counts in plan[2:])
    star = derived.pop("star", None)
    test_sets = [(t, [i in t for i in range(n)], sum(1 << i for i in t))
                 for t in (_test_sets(n) if derived else [()])]
    # the relabellings of the middle elements but the identity, with inverses
    perms = [(pi, tuple(sorted(range(n), key=pi.__getitem__)))
             for pi in ((0, *p, one) for p in permutations(range(1, one)))][1:]

    def key(pi, inv, tables, tests_i):
        """The derived tables and test set relabelled by pi."""
        return ([[pi[t[j]] for j in inv] for t in tables],
                sorted(pi[t] for t in tests_i))

    def candidates(perms):
        """The fills that + and ; force, by their derived tables."""
        powers = None
        if star:
            star[1][0] += 1
            powers = args[_ARG["star"]] = _sum_of_powers(P, T, n)
            if star[0].full(*args) is not None:
                star[1][1] += 1
                return
        # the antidomain of x reads column x of ;, its antirange row x and
        # the complement of a test t column t, on the tests alone
        cols = list(zip(*T))[:n]
        derive = {"adom": ("adom", cols), "aran": ("aran", T[:n]),
                  "tests": ("complement", cols)}
        # tests are idempotent (see the module docstring): a test set that
        # holds an x with x ; x != x is skipped
        loose = sum(1 << x for x in range(n) if T[x][x] != x)
        kept = []
        for tests_i, is_test, mask in test_sets:
            if mask & loose:
                continue
            args[_ARG["tests"]], args[_ARG["is_test"]] = tests_i, is_test
            tables = {}
            for stage, counts in derived.values():
                counts[0] += 1
                field, rows = derive[stage.name]
                comp = field == "complement"
                if comp:  # the tests' columns, by test
                    rows = [rows[t] for t in tests_i]
                table = _annihilators(P, rows, tests_i, is_test)
                if comp and table:
                    table = dict(zip(tests_i, table))
                tables[field] = args[_ARG[field]] = table
                if table is None or stage.full(*args) is not None:
                    counts[1] += 1
                    break
            else:
                comp_i = tables.pop("complement", None)
                own = list(tables.values())
                mine = key(range(n), range(n), own, tests_i)
                if derived and any(key(*pi, own, tests_i) < mine
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
                star=powers, **tables, name="candidate",
                tests=[names[t] for t in tests_i] if comp_i else None,
                complement=comp_i and {names[k]: names[v]
                                       for k, v in comp_i.items()})

    def fill(k, perms):
        if k == len(steps):
            yield from candidates(perms)
            return
        (i, j, row, mrow, mcol, values, at, mirror, full, counts, done,
         pre) = steps[k]
        for v in values:
            row[j] = mrow[mcol] = v
            cells = pre[v]
            cells.append((i, j))
            if mirror:
                cells.append((j, i))
            counts[0] += 1
            if (at(*args, P_pre, T_pre, i, j) is not None
                    or mirror and at(*args, P_pre, T_pre, j, i) is not None):
                counts[1] += 1
            elif (kept := _stabiliser(*done, perms, n) if done and perms
                  else perms) is None:
                stats.duplicates += 1
            elif full and full(*args) is not None:
                counts[1] += 1
            else:
                yield from fill(k + 1, kept)
            cells.pop()
            if mirror:
                cells.pop()
        row[j] = mrow[mcol] = unknown

    yield from fill(0, perms)


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
    """For each row the join of the tests t with row[t] = 0: on the columns
    of ; the antidomain, on its rows the antirange, on the tests' columns
    the complement; None if a join is no test or the joins miss a test."""
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


# ---------------------------------------------------------------------------
# canonical representatives

def _stabiliser(table, bounded, perms, n):
    """The relabellings that may still leave the table unchanged, or None
    if one makes it smaller, row-major as the tables are compared.  Row i
    of the relabelled table is compared only where row i and the row it is
    relabelled from are both filled; a relabelling is kept at the first
    row that is not yet decided.  ``bounded`` (a complete + table) first
    drops those that break the search's order on +."""
    if bounded:
        perms = [(pi, inv) for pi, inv in perms
                 if all(pi[table[i][j]] >= max(pi[i], pi[j])
                        for i in range(n) for j in range(n))]
    rows = [row[:n] for row in table[:n]]
    filled = [n not in row for row in rows]
    kept = []
    for pi, inv in perms:
        for i, mine in enumerate(rows):
            if not (filled[i] and filled[inv[i]]):
                kept.append((pi, inv))
                break
            src = rows[inv[i]]
            new = [pi[src[j]] for j in inv]
            if new != mine:
                if new < mine:
                    return None
                break
        else:
            kept.append((pi, inv))
    return kept

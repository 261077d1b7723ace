"""Exhaustive search for small algebras satisfying an axiom profile.

The carrier is 0, the middle elements a, b, ... and then 1.  One
backtracking fills the operation tables cell by cell in stages: the free
cells of +, then of ;, then star, antidomain and antirange, and last the
test set with its complement.  Cells that a law of the profile fixes
outright (x + 0 = x, 0 ; x = 0, 1 ; x = x, ...) are set before the search,
and + is filled as a symmetric table when the profile makes it commutative.

Each law of ``profile_axioms(profile)`` belongs to the last stage whose
table it reads and is compiled by the law checker's code generator to run
on tables whose unfilled cells hold an absorbing "unknown" index, so an
instance that reads one is skipped.  Each instance is decided once, where
the last cell it reads is filled (SEM: Zhang & Zhang, IJCAI 1995).  The
laws of + and ; run in full as the search enters their table, with the
last cell of the table before it or before the first cell, which decides
the instances that read only fixed cells; after a cell only the instances
that read it (or its mirror) run, since any other reads what it read at
the parent node.  The test laws run on each test set, and the star,
antidomain and antirange laws of more than one variable once their table
is full, so every fill that comes out satisfies the profile.

Of the fills that differ by a relabelling of the middle elements only the
least is kept (tables compared in fill order, each row-major).  A fill is
dropped once a table is complete and a relabelling that kept the earlier
tables unchanged makes it smaller, since every completion then has a
smaller relabelling too; those that keep it unchanged are passed on.

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
# the term type of each stage's table; the tests stage fills no cells
_TABLE = (tm.Plus, tm.Times, tm.Star, tm.ADom, tm.ARan)
_STAGE_OF = {**{t: k for k, t in enumerate(_TABLE)}, tm.Not: 5, tm.TestVar: 5}
_ATOMS = (tm.Zero, tm.One, tm.Var)


@dataclass
class SearchStats:
    """What one search did, counted as it runs.

    ``stages`` maps each stage the profile needs to ``[tried, pruned]``:
    the cell values tried (for ``tests``, the test sets with a complement)
    and those a law refuted, the laws run as the search enters the next
    stage included.  ``duplicates`` counts the fills dropped as relabellings
    of a smaller one, at whichever table's end (or at the test set) that
    showed, ``candidates`` the fills that passed every law and ``models``
    the models yielded.
    """

    stages: dict = field(default_factory=dict)
    duplicates: int = 0
    candidates: int = 0
    models: int = 0


def _carrier_names(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("0",)
    return ("0",) + tuple(_MIDDLE_NAMES[: n - 2]) + ("1",)


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
    additive top (see the module docstring).  The search decides every law
    instance as soon as the cells it reads are known, and once a table is
    complete drops a fill that a relabelling makes smaller, so what it
    yields satisfies the profile, and of each isomorphism class only the
    least member.  A ``SearchStats`` passed as ``stats`` is filled in as
    the search runs.
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
        if constraint is not None:
            holds = check_phi(model).holds
            if constraint == "phi-fails" and holds:
                continue
            if constraint == "phi-holds" and not holds:
                continue
        found += 1
        stats.models += 1
        model.name = f"search-{profile.value}-{size}-{found}"
        yield model
        if limit is not None and found >= limit:
            return


# ---------------------------------------------------------------------------
# the laws of each stage

def _stage(law) -> int:
    return max(_STAGE_OF.get(type(t), 0) for t in _subterms(law))


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
    symmetric, and three compiled tests: ``full`` (every law, run once as
    the search enters a + or ; stage, and on each test set), ``at`` (pinned
    to the cell just filled) and ``end`` (run once the table is full)."""

    def __init__(self, name, laws):
        self.name = name
        self.laws = laws
        self.fixing = [law for law in laws if _fixes_cells(law)]
        self.symmetric = any(map(_commutes, laws))
        rest = [law for law in laws
                if law not in self.fixing and not _commutes(law)]
        if name in ("star", "adom", "aran"):
            # no fixed cell: no instance is known as the search enters
            self.full = None
            pinned = [law for law in rest if len(sum(_law_vars(law), ())) <= 1]
            end = [law for law in rest if law not in pinned]
        else:
            self.full = _compile(laws, partial=True)
            pinned, end = rest, []
        self.pinned = pinned
        k = _STAGES.index(name)
        self.at = (_compile(pinned, partial=True, pin=_TABLE[k])
                   if k < len(_TABLE) else None)
        self.end = _compile(end, partial=True)

    def check(self, cell, last):
        """The test run after filling ``cell``, a pair (i, j), or (k, k) in
        a unary table, and its mirror in a symmetric one: it takes the
        compiled laws' arguments and is true when a law fails.

        It runs only the instances that read the cell: ``full`` decided
        those that read no free cell when the search entered the stage, and
        any other instance reads what it read at the parent node, where it
        passed.  The last cell also runs ``end``.
        """
        i, j = cell
        at, end = self.at, self.end
        if self.symmetric and i != j:
            def refuted(args):
                return (at(*args, i, j) is not None
                        or at(*args, j, i) is not None)
        else:
            def refuted(args):
                return at(*args, i, j) is not None
        if not last:
            return refuted
        return lambda args: refuted(args) or end(*args) is not None


@functools.cache
def _plan(profile: Profile) -> tuple[_Stage, ...]:
    """The stages the profile needs, in fill order."""
    ops = required_ops(profile)
    laws = [[] for _ in _STAGES]
    for law in profile_axioms(profile):
        laws[_stage(law)].append(law)
    return tuple(_Stage(name, laws[k]) for k, name in enumerate(_STAGES)
                 if k < 2 or name in ops)


# ---------------------------------------------------------------------------
# enumeration

def _enumerate_models(n: int, profile: Profile,
                      stats: Optional[SearchStats] = None
                      ) -> Iterator[FiniteAlgebra]:
    """Every candidate the pruned search reaches, in search order."""
    stats = SearchStats() if stats is None else stats
    names = _carrier_names(n)
    idem = profile in _IDEMPOTENT
    one, unknown = n - 1, n
    # row and column n are the absorbing "unknown" index
    P, T = ([[unknown] * (n + 1) for _ in range(n + 1)] for _ in range(2))
    unary = {op: [unknown] * (n + 1) for op in ("star", "adom", "aran")}
    tables = {"plus": P, "times": T, **unary}
    args = [n, (), P, T, unary["star"], unary["adom"], unary["aran"],
            None, None, 0, one]
    if idem:
        # the search bound: x + x = x, and 1 is the additive top
        for i in range(n):
            P[i][i] = i
            P[i][one] = P[one][i] = one

    # one step per free cell, in fill order: the cell as (row, column), its
    # mirror (the cell itself unless the table is symmetric), its values and
    # the test run after it, which runs the ``full`` of the stages it enters
    steps, entering = [], {}
    tests_stage = None
    for stage in _plan(profile):
        counts = stats.stages.setdefault(stage.name, [0, 0])
        if stage.name == "tests":
            tests_stage = stage, counts
            continue
        table = tables[stage.name]
        if stage.name in unary:
            cells = [(table, k, table, k, (k, k)) for k in range(n)]
        else:
            entering.setdefault(len(steps), []).append(stage.full)
            for law in stage.fixing:
                _fix_cells(table, law, n, stage.symmetric)
            sym = stage.symmetric
            cells = [(table[i], j) + ((table[j], i) if sym else (table[i], j))
                     + ((i, j),)
                     for i in range(n) for j in range(i if sym else 0, n)
                     if table[i][j] == unknown]
        for k, (row, col, mrow, mcol, cell) in enumerate(cells):
            # the search bound: a + b is at or above a and b in carrier order
            lo = max(col, mcol) if stage.name == "plus" and idem else 0
            last = k == len(cells) - 1
            steps.append([row, col, mrow, mcol, range(lo, n),
                          stage.check(cell, last), counts,
                          last and (table, stage.name == "plus" and idem)])
    for k, fulls in entering.items():
        if k:
            steps[k - 1][5] = _entering(steps[k - 1][5], fulls)
        elif any(full(*args) is not None for full in fulls):
            return
    choices = _test_choices(n) if tests_stage else (((), None),)
    ops = required_ops(profile)
    # the relabellings of the middle elements but the identity, with inverses
    perms = [(pi, tuple(sorted(range(n), key=pi.__getitem__)))
             for pi in ((0, *p, one) for p in permutations(range(1, one)))][1:]

    def candidates(perms):
        plus = tuple(tuple(row[:n]) for row in P[:n])
        times = tuple(tuple(row[:n]) for row in T[:n])
        star, adom, aran = (tuple(t[:n]) if op in ops else None
                            for op, t in unary.items())
        for tests_i, comp_i in choices:
            is_test = [i in tests_i for i in range(n)]
            if tests_stage:
                stage, counts = tests_stage
                counts[0] += 1
                args[1], args[7], args[8] = tests_i, comp_i, is_test
                if stage.full(*args) is not None:
                    counts[1] += 1
                    continue

                def key(pi):
                    ts = sorted(tests_i, key=pi.__getitem__)
                    return [pi[t] for t in ts], [pi[comp_i[t]] for t in ts]
                mine = key(range(n))
                if any(key(pi) < mine for pi, _ in perms):
                    stats.duplicates += 1
                    continue
            stats.candidates += 1
            yield FiniteAlgebra(
                names, names[0], names[one], plus, times,
                star=star, adom=adom, aran=aran, name="candidate",
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


def _entering(check, fulls):
    """The check of a cell, then the ``full`` of each stage it enters."""
    return lambda args: check(args) or any(full(*args) is not None
                                           for full in fulls)


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


def _test_choices(n):
    """Test subsets (always containing zero and one) with an involution
    as complement that swaps zero and one."""
    one = n - 1
    middles = list(range(1, n - 1))
    found = []
    for mask in range(1 << len(middles)):
        tests = tuple(sorted({0, one} | {m for b, m in enumerate(middles)
                                         if mask >> b & 1}))
        mids = [t for t in tests if t not in (0, one)]
        for values in product(tests, repeat=len(mids)):
            comp = {0: one, one: 0}
            comp.update(zip(mids, values))
            if all(comp[comp[t]] == t for t in tests):
                found.append((tests, comp))
    return found


# ---------------------------------------------------------------------------
# canonical representatives

def _stabiliser(table, bounded, perms, n):
    """The relabellings that leave the table just completed unchanged, or
    None if one makes it smaller, row-major as the tables are compared.
    ``bounded`` first drops those that break the search's order on +."""
    unary = not isinstance(table[0], list)
    if bounded:
        perms = [(pi, inv) for pi, inv in perms
                 if all(pi[table[i][j]] >= max(pi[i], pi[j])
                        for i in range(n) for j in range(n))]
    kept = []
    for pi, inv in perms:
        for i in range(1 if unary else n):
            mine, src = ((table[:n], table) if unary
                         else (table[i][:n], table[inv[i]]))
            new = [pi[src[j]] for j in inv]
            if new != mine:
                if new < mine:
                    return None
                break
        else:
            kept.append((pi, inv))
    return kept

"""Eventually periodic subsets of the naturals.

A set is stored as an explicit head below a threshold plus a periodic tail
given by residues.  Every value is kept in canonical form (minimal period,
then minimal threshold), so equality is structural.  These sets form a
countable algebra of subsets of an infinite ground set that is closed
under union, intersection and complement, contains sets that are neither
finite nor cofinite (the evens), and carries the trivial star sending
every set to the full one.  That is exactly the environment needed to
refute proposed weakest liberal preconditions drawn from the
finite-or-cofinite test algebra: any candidate disjoint from an infinite,
co-infinite target set is finite and can be extended by one fresh element
while staying disjoint, so no candidate is maximal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, islice
from math import lcm
from typing import Iterator, Optional

from .errors import ModelError, ParseError

__all__ = [
    "EvPeriodicSet", "empty_set", "full_set", "evens", "odds",
    "finite_set", "cofinite_set", "kat_star", "in_test_algebra",
    "NotAPrecondition", "NotMaximal", "refute_wlp_candidate",
    "enumerate_candidates", "parse_evset", "format_evset",
]


@dataclass(frozen=True)
class EvPeriodicSet:
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

    # -- membership and views --------------------------------------------------
    def __contains__(self, n: int) -> bool:
        if n < self.threshold:
            return n in self.head
        return n % self.period in self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    @property
    def is_cofinite(self) -> bool:
        return len(self.residues) == self.period

    @property
    def is_empty(self) -> bool:
        return not self.head and not self.residues

    def least(self) -> Optional[int]:
        if self.head:
            return min(self.head)
        if not self.residues:
            return None
        n = self.threshold
        return n + min((r - n) % self.period for r in self.residues)

    def elements(self, below: int) -> list:
        return [n for n in range(below) if n in self]

    def __str__(self):
        return format_evset(self)

    # -- boolean algebra --------------------------------------------------------
    def _combine(self, other: "EvPeriodicSet", op) -> "EvPeriodicSet":
        p = lcm(self.period, other.period)
        n = max(self.threshold, other.threshold)
        head = frozenset(k for k in range(n) if op(k in self, k in other))
        res = frozenset(c for c in range(p)
                        if op(c % self.period in self.residues,
                              c % other.period in other.residues))
        return EvPeriodicSet(n, head, p, res)

    def union(self, other):
        return self._combine(other, lambda a, b: a or b)

    def intersect(self, other):
        return self._combine(other, lambda a, b: a and b)

    def difference(self, other):
        return self._combine(other, lambda a, b: a and not b)

    def complement(self) -> "EvPeriodicSet":
        return EvPeriodicSet(
            self.threshold,
            frozenset(range(self.threshold)) - self.head,
            self.period,
            frozenset(range(self.period)) - self.residues)

    def leq(self, other) -> bool:
        return self.difference(other).is_empty

    __or__ = union
    __and__ = intersect
    __sub__ = difference


def empty_set() -> EvPeriodicSet:
    return EvPeriodicSet(0, frozenset(), 1, frozenset())


def full_set() -> EvPeriodicSet:
    return EvPeriodicSet(0, frozenset(), 1, frozenset({0}))


def evens() -> EvPeriodicSet:
    return EvPeriodicSet(0, frozenset(), 2, frozenset({0}))


def odds() -> EvPeriodicSet:
    return EvPeriodicSet(0, frozenset(), 2, frozenset({1}))


def finite_set(elements) -> EvPeriodicSet:
    elements = frozenset(elements)
    if any(n < 0 for n in elements):
        raise ModelError("elements must be naturals")
    bound = max(elements) + 1 if elements else 0
    return EvPeriodicSet(bound, elements, 1, frozenset())


def cofinite_set(excluded) -> EvPeriodicSet:
    return finite_set(excluded).complement()


def kat_star(s: EvPeriodicSet) -> EvPeriodicSet:
    """Star in the powerset model: every set's star is the full set."""
    return full_set()


def in_test_algebra(s: EvPeriodicSet) -> bool:
    """Membership in the finite-or-cofinite test algebra."""
    return s.is_finite or s.is_cofinite


# ---------------------------------------------------------------------------
# refuting proposed weakest liberal preconditions

@dataclass(frozen=True)
class NotAPrecondition:
    """The candidate meets the target set, so {r} C {0} already fails."""

    witness: int


@dataclass(frozen=True)
class NotMaximal:
    """The candidate misses an element it could safely include."""

    missing: int
    extension: EvPeriodicSet


def refute_wlp_candidate(target: EvPeriodicSet, candidate: EvPeriodicSet):
    """Show that a finite-or-cofinite candidate is not the wlp of the target.

    ``target`` must be neither finite nor cofinite.  Either the candidate
    intersects the target (so it is no precondition at all), or it is
    necessarily finite and the least element of the target's complement
    outside the candidate extends it to a strictly larger test that is
    still disjoint from the target.
    """
    if not in_test_algebra(candidate):
        raise ModelError("candidate is not finite or cofinite")
    if in_test_algebra(target):
        raise ModelError("target must be neither finite nor cofinite")
    meet = target.intersect(candidate)
    if not meet.is_empty:
        return NotAPrecondition(meet.least())
    gap = target.complement().difference(candidate)
    x = gap.least()
    return NotMaximal(x, candidate.union(finite_set({x})))


def enumerate_candidates(target: EvPeriodicSet, count: int) -> Iterator[EvPeriodicSet]:
    """The first ``count`` test-algebra candidates disjoint from the target.

    These are the finite sets of the target's non-members below a universe
    sized off the target's period, by size then lexicographically.  Every
    period past the threshold holds a non-member, so the universe holds at
    least 4 * count: the empty set and the singletons already suffice.
    """
    if in_test_algebra(target):
        raise ModelError("target must be neither finite nor cofinite")
    if count < 0:
        raise ModelError("candidate count must be nonnegative")
    universe = max(64, target.threshold + 4 * count * target.period)
    free = [k for k in range(universe) if k not in target]
    yield from islice((finite_set(combo) for size in range(len(free) + 1)
                       for combo in combinations(free, size)), count)


# ---------------------------------------------------------------------------
# literals

_FINITE_RE = re.compile(r"^(?P<kind>finite|cofinite)\{(?P<body>[\d,\s]*)\}$")
_PERIODIC_RE = re.compile(
    r"^periodic\(\s*(?P<n>\d+)\s*;(?P<head>[\d,\s]*);\s*(?P<p>\d+)\s*;"
    r"(?P<res>[\d,\s]*)\)$")


def _csv(text):
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(x) for x in text.split(","))


def parse_evset(text: str) -> EvPeriodicSet:
    """Parse ``evens``, ``odds``, ``finite{..}``, ``cofinite{..}`` or
    ``periodic(threshold; head; period; residues)``."""
    body = text.strip()
    if body == "evens":
        return evens()
    if body == "odds":
        return odds()
    m = _FINITE_RE.match(body)
    if m:
        try:
            elems = _csv(m.group("body"))
        except ValueError:
            raise ParseError(f"bad set literal {text!r}") from None
        return finite_set(elems) if m.group("kind") == "finite" \
            else cofinite_set(elems)
    m = _PERIODIC_RE.match(body)
    if m:
        try:
            return EvPeriodicSet(int(m.group("n")), _csv(m.group("head")),
                                 int(m.group("p")), _csv(m.group("res")))
        except (ValueError, ModelError) as e:
            raise ParseError(f"bad set literal {text!r}: {e}") from None
    raise ParseError(f"bad set literal {text!r}")


def format_evset(s: EvPeriodicSet) -> str:
    if s == evens():
        return "evens"
    if s == odds():
        return "odds"
    if s.is_finite:
        return "finite{" + ",".join(map(str, sorted(s.head))) + "}"
    if s.is_cofinite:
        comp = s.complement()
        return "cofinite{" + ",".join(map(str, sorted(comp.head))) + "}"
    head = ",".join(map(str, sorted(s.head)))
    res = ",".join(map(str, sorted(s.residues)))
    return f"periodic({s.threshold}; {head}; {s.period}; {res})"

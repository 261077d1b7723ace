"""Eventually periodic subsets of the naturals.

A set is a threshold n, a period p and two bit patterns held in ints: bit
k < n of the head says whether k is a member, bit c < p of the residues
whether every k >= n with k % p == c is.  Values are canonical, so
equality is structural: the least period is the first offset at which the
p-bit residue word recurs in the word written twice, and the least
threshold is the bit length of the head XOR the repeated residues.
An empty or all-ones residue word (every finite and cofinite set) has
period 1 without that search.  Operations lift both sets to the larger
threshold and the lcm period, then apply one int operation each; a
residue pattern is repeated (a repunit product) only where the lift asks
for more than one period, two sets of one period keep it as it is, and a
period of 1 is all or nothing.  Order and disjointness tests use the
lifted bits and build no set.  The sets form a countable algebra closed
under union, intersection and complement, with sets neither finite nor
cofinite (the evens) and the trivial star sending every set to the full
one: the environment needed to refute proposed weakest liberal
preconditions from the finite-or-cofinite test algebra, as any candidate
disjoint from an infinite, co-infinite target is finite and grows by one
fresh element while staying disjoint.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, islice
from math import lcm
from operator import and_, or_, xor
from typing import Iterator, Optional

from .errors import ModelError, ParseError

__all__ = [
    "EvPeriodicSet", "empty_set", "full_set", "evens", "odds",
    "finite_set", "cofinite_set", "in_test_algebra",
    "NotAPrecondition", "NotMaximal", "refute_wlp_candidate",
    "verify_refutation", "enumerate_candidates", "parse_evset", "format_evset",
]


def _mask(width: int) -> int:
    return (1 << width) - 1


def _tail(res: int, period: int, below: int) -> int:
    """The residue bits repeated from 0 (times a repunit), cut at ``below``."""
    if not res:
        return 0
    if below <= period:
        return res & _mask(below)
    if period == 1:
        return res * _mask(below)
    return res * (_mask(-(-below // period) * period) // _mask(period)) & _mask(below)


def _without(a: int, b: int) -> int:
    return a & ~b


_ONE = re.compile("1")


def _members(bits: int) -> list:
    """The positions of the set bits, lowest first, in one C-level scan."""
    return list(map(re.Match.start, _ONE.finditer(bin(bits)[:1:-1])))


def _bits(elements, bound: int, message: str) -> int:
    elements = set(elements)
    try:
        if elements and not 0 <= min(elements) <= max(elements) < bound:
            raise ModelError(message)
        return sum(map((1).__lshift__, elements))
    except TypeError:       # not all integers
        raise ModelError(message) from None


def _canonical(n: int, head: int, p: int, res: int, s=None) -> "EvPeriodicSet":
    """Store the canonical form of (n, head, p, res) in ``s`` or a new set."""
    if res and res != _mask(p):
        word = format(res, f"0{p}b")
        p = (word + word).find(word, 1)     # the least rotation fixing it divides p
        res &= _mask(p)
    else:                                   # finite or cofinite
        p, res = 1, 1 if res else 0
    n = (head ^ _tail(res, p, n)).bit_length()
    s = object.__new__(EvPeriodicSet) if s is None else s
    s.__dict__.update(threshold=n, _head=head & _mask(n), period=p, _res=res)
    return s


@dataclass(frozen=True, init=False)
class EvPeriodicSet:
    """From iterables of naturals: members below the threshold, tail residues."""

    threshold: int
    _head: int
    period: int
    _res: int

    def __init__(self, threshold: int, head, period: int, residues):
        if threshold < 0:
            raise ModelError("threshold must be nonnegative")
        if period < 1:
            raise ModelError("period must be positive")
        h = _bits(head, threshold, "head elements must lie below the threshold")
        r = _bits(residues, period, "residues must lie below the period")
        _canonical(threshold, h, period, r, self)

    # -- membership and views --------------------------------------------------
    head = property(lambda self: frozenset(_members(self._head)))
    residues = property(lambda self: frozenset(_members(self._res)))

    def __contains__(self, n: int) -> bool:
        if n < self.threshold:
            return n >= 0 and self._head >> n & 1 == 1
        return self._res >> n % self.period & 1 == 1

    @property
    def is_finite(self) -> bool:
        return not self._res

    @property
    def is_cofinite(self) -> bool:
        return self._res == _mask(self.period)

    @property
    def is_empty(self) -> bool:
        return not self._head and not self._res

    def least(self) -> Optional[int]:
        bits = self._head or self._prefix(self.threshold + self.period)
        return (bits & -bits).bit_length() - 1 if bits else None

    def _prefix(self, below: int) -> int:
        """The membership bits of 0 .. below - 1: the head, then the tail."""
        n = self.threshold
        if below == n:
            return self._head
        if below <= n:
            return self._head & _mask(below)
        tail = _tail(self._res, self.period, below) >> n << n
        return (self._head | tail) & _mask(below)

    def __str__(self):
        return format_evset(self)

    # -- boolean algebra --------------------------------------------------------
    def _lift(self, other: "EvPeriodicSet", op) -> tuple:
        """``op`` on both sets lifted to the larger threshold and the lcm
        period, as an uncanonical (threshold, head, period, residues)."""
        n = max(self.threshold, other.threshold)
        p = self.period
        if p == other.period:
            res = op(self._res, other._res)
        else:
            p = lcm(p, other.period)
            res = op(_tail(self._res, self.period, p),
                     _tail(other._res, other.period, p))
        return n, op(self._prefix(n), other._prefix(n)), p, res

    def union(self, other):
        return _canonical(*self._lift(other, or_))

    def intersect(self, other):
        return _canonical(*self._lift(other, and_))

    def difference(self, other):
        return _canonical(*self._lift(other, _without))

    def complement(self) -> "EvPeriodicSet":
        return _canonical(self.threshold, self._head ^ _mask(self.threshold),
                          self.period, self._res ^ _mask(self.period))

    def leq(self, other) -> bool:
        _, head, _, res = self._lift(other, _without)
        return not head | res

    def isdisjoint(self, other) -> bool:
        _, head, _, res = self._lift(other, and_)
        return not head | res

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
    still disjoint from the target.  That element lies below the larger
    threshold plus the target's period: past its threshold every period of
    the co-infinite target holds a non-member.
    """
    if not in_test_algebra(candidate):
        raise ModelError("candidate is not finite or cofinite")
    if in_test_algebra(target):
        raise ModelError("target must be neither finite nor cofinite")
    if not target.isdisjoint(candidate):
        return NotAPrecondition(target.intersect(candidate).least())
    w = max(target.threshold, candidate.threshold) + target.period
    taken = target._prefix(w) | candidate._prefix(w)
    x = (~taken & (taken + 1)).bit_length() - 1     # the lowest clear bit
    head = candidate._head | 1 << x
    return NotMaximal(x, _canonical(head.bit_length(), head, 1, 0))


def verify_refutation(target, candidate, verdict) -> bool:
    """Check a verdict of ``refute_wlp_candidate``: a witness lies in the
    candidate and the target; an extension is a test disjoint from the
    target that is the candidate plus the missing element, which the
    candidate lacks (the two differ at that element alone)."""
    if isinstance(verdict, NotAPrecondition):
        return verdict.witness in candidate and verdict.witness in target
    x, ext = verdict.missing, verdict.extension
    _, head, _, res = ext._lift(candidate, xor)
    return (x >= 0 and head == 1 << x and not res and x not in candidate
            and in_test_algebra(ext) and target.isdisjoint(ext))


def enumerate_candidates(target: EvPeriodicSet, count: int) -> Iterator[EvPeriodicSet]:
    """The first ``count`` test-algebra candidates disjoint from the target.

    These are the finite sets of the target's non-members below a universe
    sized off the target's period, by size then lexicographically.  Every
    period past the threshold holds a non-member, so the universe holds at
    least ``count`` of them: the empty set and the singletons suffice.
    """
    if in_test_algebra(target):
        raise ModelError("target must be neither finite nor cofinite")
    if count < 0:
        raise ModelError("candidate count must be nonnegative")
    universe = max(64, target.threshold + count * target.period)
    free = _members(~target._prefix(universe) & _mask(universe))
    heads = (sum(map((1).__lshift__, combo)) for size in range(len(free) + 1)
             for combo in combinations(free, size))
    for head in islice(heads, count):
        yield _canonical(head.bit_length(), head, 1, 0)


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
    def csv(bits):
        return ",".join(map(str, _members(bits)))

    if s.threshold == 0 and s.period == 2:  # canonical: residues {0} or {1}
        return "evens" if s._res == 1 else "odds"
    if s.is_finite:
        return "finite{" + csv(s._head) + "}"
    if s.is_cofinite:
        return "cofinite{" + csv(s._head ^ _mask(s.threshold)) + "}"
    return f"periodic({s.threshold}; {csv(s._head)}; {s.period}; {csv(s._res)})"

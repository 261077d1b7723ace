"""Binary relations over a finite state space.

A relation is an adjacency matrix packed into an int; only the row view
below and ``StateSpace._pair_bits``, which sets the bits of named pairs
as digits of a buffer read as one int, know the layout.  The row view
splits the bits into n successor masks (bit j of row i set iff state i
steps to j), ORs each row onto its first bit or all rows onto the first
row by one logarithmic fold, builds the subidentity on a state mask or on
the states whose row lies in one, composes by copying each row of the
second relation into the rows of the first that reach it, and closes
transitively the same way, one row at a time.  Tests are subidentities,
and a composition with a test is a mask, not a product: t ; R keeps the
rows of R at t's states and R ; t keeps its columns there.  Relation
literals are split into pairs by str methods.  A ``StateSpace`` is the
relation algebra on its bit patterns: term evaluation runs on its
operations at any state count, ``Rel`` wraps them with a space check, and
``rel_algebra_model`` tabulates them into a ``FiniteAlgebra`` for checks,
up to 3 states (512 elements).
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import repeat
from operator import setitem, sub
from typing import Iterable, Iterator

from .algebra import FiniteAlgebra
from .errors import BoundError, EvalError, ModelError, ParseError
from .evsets import _members
from .records import Frozen

__all__ = ["StateSpace", "Rel", "parse_rel_literal", "rel_algebra_model",
           "all_relations"]


class StateSpace(Frozen):
    """Named states, and the full relation algebra on their bit patterns.

    Element i is the relation with bit pattern i, and the operations are
    those that term evaluation calls, so terms evaluate here at any state
    count.
    """

    __match_args__ = ("names",)
    zero_i = 0

    def __init__(self, names: Iterable[str]):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise ModelError("duplicate state names")
        if not names:
            raise ModelError("state space must be nonempty")
        self.__dict__["names"] = names

    @classmethod
    def of_size(cls, n: int) -> "StateSpace":
        return cls(str(i + 1) for i in range(n))

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _row_tops(self) -> dict[str, int]:
        n = self.size
        return {name: (n - i) * n - 1 for i, name in enumerate(self.names)}

    def _pair_bits(self, sources, targets) -> int:
        """The bits of the pairs, the names looked up in reading order: bit
        n * n - 1 - d is digit d of a buffer set in C (``any`` drains the
        map, as ``setitem`` returns None) and read as one int."""
        digits = bytearray(b"0") * self.size ** 2
        try:
            any(map(setitem, repeat(digits), map(
                sub, map(self._row_tops.__getitem__, sources),
                map(self._positions.__getitem__, targets)), repeat(ord("1"))))
        except KeyError as e:
            raise ModelError(f"unknown state {e.args[0]!r}") from None
        return int(digits, 2)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ModelError(f"unknown state {name!r}") from None

    # -- the relation algebra on bit patterns ---------------------------------
    @cached_property
    def one_i(self) -> int:
        return _spaced(self.size, self.size + 1)

    def element_name(self, i: int) -> str:
        names = self.names
        return "{" + ",".join(f"({names[a]},{names[b]})"
                              for a, b in _edges(i, self.size)) + "}"

    def plus(self, i: int, j: int) -> int:
        return i | j

    def times(self, i: int, j: int) -> int:
        return _compose(i, j, self.size)

    def star(self, i: int) -> int:
        return _closure(i | self.one_i, self.size)

    def adom(self, i: int) -> int:
        """Subidentity on the states with no outgoing edge."""
        return _within(i, self.size, 0)

    def aran(self, i: int) -> int:
        """Subidentity on the states with no incoming edge."""
        n = self.size
        return _diagonal(_reached(i, n) ^ (1 << n) - 1, n)

    def complement(self, i: int) -> int:
        if i & ~self.one_i:
            raise EvalError(
                f"complement of non-test element {self.element_name(i)!r}")
        return self.one_i & ~i

    def box(self, i: int, post: int) -> int:
        """[i]post for a test post: the subidentity on the states all of
        whose successors lie in post."""
        return _within(i, self.size, _reached(post, self.size))

    def image(self, pre: int, i: int) -> int:
        """ran(pre ; i) for a test pre: the subidentity on the states that
        i reaches from pre's, with pre ; i a mask on i's rows."""
        return _diagonal(_reached(self.times(pre, i), self.size), self.size)


# ---------------------------------------------------------------------------
# the row view, the only code that knows the layout; mask bit i is state i

def _rows(bits: int, n: int) -> list[int]:
    """Split packed bits into the n successor masks."""
    mask = (1 << n) - 1
    return [bits >> shift & mask for shift in range(0, n * n, n)]


@cache
def _spaced(n: int, step: int) -> int:
    """n set bits, step apart (step n: bit 0 of each row; n + 1: identity)."""
    return ((1 << n * step) - 1) // ((1 << step) - 1)


def _diagonal(states: int, n: int) -> int:
    """The subidentity on a state mask: its row copies cut to the identity."""
    return states * _spaced(n, n) & _spaced(n, n + 1)


def _fold(bits: int, n: int, step: int) -> int:
    """OR the n bits step apart that start at each position onto it: step 1
    ORs each row onto its bit 0, step n ORs every row onto row 0 (the other
    bits are left over from the fold)."""
    width = 1
    while 2 * width <= n:
        bits |= bits >> width * step
        width *= 2
    return bits | bits >> (n - width) * step


def _row_heads(bits: int, n: int) -> int:
    """Bit 0 of each nonempty row."""
    return _fold(bits, n, 1) & _spaced(n, n)


def _reached(bits: int, n: int) -> int:
    """The state mask of the union of all rows: the states with an incoming
    edge (for a subidentity, its states)."""
    return _fold(bits, n, n) & (1 << n) - 1


def _compose(a: int, b: int, n: int) -> int:
    """a ; b.  A test on the left keeps the rows of b at its states, one on
    the right the columns of a; otherwise row k of b is copied into the
    rows of a that reach k, by a carry-free product with column k of a
    moved to bit 0 of each row."""
    every_row, identity = _spaced(n, n), _spaced(n, n + 1)
    if a & ~identity == 0:
        return b & _row_heads(a, n) * ((1 << n) - 1)
    if b & ~identity == 0:
        return a & _reached(b, n) * every_row
    out = 0
    for k, row in enumerate(_rows(b, n)):
        if row:
            out |= (a >> k & every_row) * row
    return out


def _closure(bits: int, n: int) -> int:
    """Transitive closure by Warshall's passes: pass k copies row k into the
    rows that reach k, with the carry-free product of ``_compose``."""
    every_row, mask = _spaced(n, n), (1 << n) - 1
    for k in range(n):
        bits |= (bits >> k & every_row) * (bits >> k * n & mask)
    return bits


def _within(bits: int, n: int, allowed: int) -> int:
    """The subidentity on the states whose successors all lie in a mask:
    the rows with a successor outside it are left out."""
    every_row = _spaced(n, n)
    outside = _row_heads(bits & ~(allowed * every_row), n)
    return (every_row ^ outside) * ((1 << n) - 1) & _spaced(n, n + 1)


def _edges(bits: int, n: int) -> Iterator[tuple[int, int]]:
    """The index pairs (i, j) with i -> j, in row-major order."""
    return map(divmod, _members(bits), repeat(n))


class Rel(Frozen):
    __match_args__ = ("space", "bits")

    def __init__(self, space: StateSpace, bits: int):
        d = self.__dict__
        d["space"] = space
        d["bits"] = bits

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_pairs(cls, space: StateSpace, pairs) -> "Rel":
        sources, targets = list(zip(*pairs)) or ((), ())
        return cls(space, space._pair_bits(sources, targets))

    @classmethod
    def empty(cls, space: StateSpace) -> "Rel":
        return cls(space, 0)

    @classmethod
    def identity(cls, space: StateSpace) -> "Rel":
        return cls(space, space.one_i)

    @classmethod
    def full(cls, space: StateSpace) -> "Rel":
        return cls(space, (1 << space.size ** 2) - 1)

    @classmethod
    def test_from_states(cls, space: StateSpace, states) -> "Rel":
        return cls.from_pairs(space, ((s, s) for s in states))

    # -- views ---------------------------------------------------------------
    def pairs(self) -> frozenset:
        names = self.space.names
        return frozenset((names[i], names[j])
                         for i, j in _edges(self.bits, self.space.size))

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_subidentity(self) -> bool:
        return self.bits & ~self.space.one_i == 0

    def __str__(self):
        return format_rel(self)

    # -- algebra --------------------------------------------------------------
    def _same_space(self, other: "Rel"):
        if self.space != other.space:
            raise ModelError("relations live on different state spaces")

    def union(self, other: "Rel") -> "Rel":
        self._same_space(other)
        return Rel(self.space, self.bits | other.bits)

    __or__ = union

    def intersect(self, other: "Rel") -> "Rel":
        self._same_space(other)
        return Rel(self.space, self.bits & other.bits)

    __and__ = intersect

    def compose(self, other: "Rel") -> "Rel":
        self._same_space(other)
        return Rel(self.space, self.space.times(self.bits, other.bits))

    def leq(self, other: "Rel") -> bool:
        self._same_space(other)
        return self.bits & ~other.bits == 0

    def converse(self) -> "Rel":
        names = self.space.names
        return Rel.from_pairs(self.space, ((names[j], names[i]) for i, j
                                           in _edges(self.bits, self.space.size)))

    def adom(self) -> "Rel":
        """Subidentity on the states with no outgoing edge."""
        return Rel(self.space, self.space.adom(self.bits))

    def aran(self) -> "Rel":
        """Subidentity on the states with no incoming edge."""
        return Rel(self.space, self.space.aran(self.bits))

    def dom(self) -> "Rel":
        return self.adom().adom()

    def ran(self) -> "Rel":
        return self.aran().aran()

    def star(self) -> "Rel":
        return Rel(self.space, self.space.star(self.bits))

    def complement_test(self) -> "Rel":
        """Complement within the test algebra; defined on subidentities."""
        if not self.is_subidentity():
            raise ModelError("test complement of a non-subidentity relation")
        return Rel(self.space, self.space.complement(self.bits))

    def box(self, post: "Rel") -> "Rel":
        """Weakest liberal precondition a(R ; a(post)) as a subidentity: the
        states all of whose successors under self land in the post states."""
        self._same_space(post)
        if not post.is_subidentity():
            raise ModelError("box postcondition must be a subidentity")
        return Rel(self.space, self.space.box(self.bits, post.bits))


def all_relations(space: StateSpace) -> Iterator[Rel]:
    """Every relation on the space in a fixed (bit pattern) order."""
    for bits in range(1 << space.size ** 2):
        yield Rel(space, bits)


# ---------------------------------------------------------------------------
# literals

_NAMED = {"id": Rel.identity, "empty": Rel.empty, "full": Rel.full}
_SPLIT = str.maketrans({"(": None, ")": ","})


def parse_rel_literal(space: StateSpace, text: str) -> Rel:
    """Parse ``{(s1,s2),(s3,s3)}``, ``id``, ``empty`` or ``full``.

    Whitespace runs shrink to one space, dropped beside a bracket or comma.
    A "(" first, a ")" last and k - 1 of "),(" between, with no other
    bracket, leave k parts "s,t"; with "(" deleted and ")" made a comma,
    a split at commas gives 3k tokens only if each is two names and ""."""
    body = text.strip()
    if body in _NAMED:
        return _NAMED[body](space)
    inner = " ".join(body[1:-1].split())
    if " " in inner:
        for c in "(),":
            inner = inner.replace(f" {c}", c).replace(f"{c} ", c)
    tokens, k = inner.translate(_SPLIT).split(","), inner.count("(")
    sources, targets = tokens[:-1:3], tokens[1::3]  # none from "{}"
    if not (body[:1] == "{" and body[-1:] == "}" and (not inner or (
            " " not in inner and inner[0] + inner[-1] == "()"
            and inner.count(")") == k and inner.count("),(") == k - 1
            and len(tokens) == 3 * k and all(sources) and all(targets)))):
        raise ParseError(f"bad relation literal {text!r}")
    try:
        return Rel(space, space._pair_bits(sources, targets))
    except ModelError as e:
        raise ParseError(f"bad relation literal {text!r}: {e}") from None


def format_rel(r: Rel) -> str:
    return r.space.element_name(r.bits)


# ---------------------------------------------------------------------------
# the tabulated algebra, for checks

_MAX_STATES = 3


def rel_algebra_model(size: int) -> FiniteAlgebra:
    """The full relation algebra on ``size`` states, tabulated.

    Element i is the relation with bit pattern i; the tests are the
    subidentities, the image of the antidomain.  Above 3 states (512
    elements) it is refused.
    """
    if size > _MAX_STATES:
        raise BoundError(
            f"relation algebra over {size} states has 2^{size * size} "
            f"elements; the export bound is {_MAX_STATES} states")
    space = StateSpace.of_size(size)
    r = range(1 << size * size)
    # table entries share one int object per element: at 3 states, fresh
    # ints in the 512 x 512 tables would hold about 13 MB more
    element = tuple(r)
    carrier = tuple(map(space.element_name, r))
    return FiniteAlgebra(
        carrier, carrier[0], carrier[space.one_i],
        [[element[i | j] for j in r] for i in r],
        [[element[_compose(i, j, size)] for j in r] for i in r],
        star=list(map(space.star, r)), adom=list(map(space.adom, r)),
        aran=list(map(space.aran, r)), name=f"rel{size}")

"""Binary relations over a finite state space.

A relation is an adjacency matrix packed into an int: bit i*n + j is set
iff state i steps to state j.  Union is |, intersection is &, composition
is a boolean matrix product over rows, and reflexive-transitive closure is
computed by repeated squaring of (R | id).  Tests are subidentities.

``RelModel`` is the relation algebra on a space behind the index-level
interface of ``FiniteAlgebra``, computed on demand at any state count.
Tabulating it gives the eager 1- and 2-state algebras (at most 16
elements); over 3 states (512 elements) the model itself is exported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .algebra import FiniteAlgebra
from .errors import BoundError, EvalError, ModelError, ParseError

__all__ = ["StateSpace", "Rel", "RelModel", "as_finite_algebra",
           "parse_rel_literal", "rel_algebra_model", "all_relations"]


@dataclass(frozen=True)
class StateSpace:
    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise ModelError("duplicate state names")
        if not names:
            raise ModelError("state space must be nonempty")
        object.__setattr__(self, "names", names)

    @classmethod
    def of_size(cls, n: int) -> "StateSpace":
        return cls(str(i + 1) for i in range(n))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelError(f"unknown state {name!r}") from None


@dataclass(frozen=True)
class Rel:
    space: StateSpace
    bits: int

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_pairs(cls, space: StateSpace, pairs) -> "Rel":
        bits = 0
        n = space.size
        for a, b in pairs:
            bits |= 1 << (space.index(str(a)) * n + space.index(str(b)))
        return cls(space, bits)

    @classmethod
    def empty(cls, space: StateSpace) -> "Rel":
        return cls(space, 0)

    @classmethod
    def identity(cls, space: StateSpace) -> "Rel":
        n = space.size
        bits = 0
        for i in range(n):
            bits |= 1 << (i * n + i)
        return cls(space, bits)

    @classmethod
    def full(cls, space: StateSpace) -> "Rel":
        return cls(space, (1 << space.size ** 2) - 1)

    @classmethod
    def test_from_states(cls, space: StateSpace, states) -> "Rel":
        n = space.size
        bits = 0
        for s in states:
            i = space.index(str(s))
            bits |= 1 << (i * n + i)
        return cls(space, bits)

    # -- views ---------------------------------------------------------------
    def pairs(self) -> frozenset:
        n = self.space.size
        return frozenset(
            (self.space.names[i], self.space.names[j])
            for i in range(n) for j in range(n)
            if self.bits >> (i * n + j) & 1)

    def _row(self, i: int) -> int:
        n = self.space.size
        return (self.bits >> (i * n)) & ((1 << n) - 1)

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_subidentity(self) -> bool:
        return self.bits & ~Rel.identity(self.space).bits == 0

    def test_states(self) -> tuple[str, ...]:
        """State names on the diagonal; only meaningful for subidentities."""
        n = self.space.size
        return tuple(self.space.names[i] for i in range(n)
                     if self.bits >> (i * n + i) & 1)

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
        n = self.space.size
        rows = [other._row(k) for k in range(n)]
        out = 0
        for i in range(n):
            row = self._row(i)
            acc = 0
            k = 0
            while row:
                if row & 1:
                    acc |= rows[k]
                row >>= 1
                k += 1
            out |= acc << (i * n)
        return Rel(self.space, out)

    def leq(self, other: "Rel") -> bool:
        self._same_space(other)
        return self.bits & ~other.bits == 0

    def converse(self) -> "Rel":
        n = self.space.size
        out = 0
        for i in range(n):
            for j in range(n):
                if self.bits >> (i * n + j) & 1:
                    out |= 1 << (j * n + i)
        return Rel(self.space, out)

    def adom(self) -> "Rel":
        """Subidentity on the states with no outgoing edge."""
        n = self.space.size
        out = 0
        for i in range(n):
            if self._row(i) == 0:
                out |= 1 << (i * n + i)
        return Rel(self.space, out)

    def aran(self) -> "Rel":
        """Subidentity on the states with no incoming edge."""
        return self.converse().adom()

    def dom(self) -> "Rel":
        return self.adom().adom()

    def ran(self) -> "Rel":
        return self.aran().aran()

    def star(self) -> "Rel":
        # squaring (R | id) ceil(log2 n) + 1 times covers all path lengths
        n = self.space.size
        acc = self.union(Rel.identity(self.space))
        rounds = max(1, n.bit_length() + 1)
        for _ in range(rounds):
            nxt = acc.compose(acc)
            if nxt == acc:
                break
            acc = nxt
        return acc

    def complement_test(self) -> "Rel":
        """Complement within the test algebra; defined on subidentities."""
        if not self.is_subidentity():
            raise ModelError("test complement of a non-subidentity relation")
        return Rel(self.space, Rel.identity(self.space).bits & ~self.bits)

    def box(self, post: "Rel") -> "Rel":
        """Weakest liberal precondition a(R ; a(post)) as a subidentity.

        State s is included iff every successor of s under self lands in
        the post states.
        """
        self._same_space(post)
        if not post.is_subidentity():
            raise ModelError("box postcondition must be a subidentity")
        n = self.space.size
        post_states = 0
        for i in range(n):
            if post.bits >> (i * n + i) & 1:
                post_states |= 1 << i
        out = 0
        for i in range(n):
            if self._row(i) & ~post_states == 0:
                out |= 1 << (i * n + i)
        return Rel(self.space, out)


def all_relations(space: StateSpace) -> Iterator[Rel]:
    """Every relation on the space in a fixed (bit pattern) order."""
    for bits in range(1 << space.size ** 2):
        yield Rel(space, bits)


# ---------------------------------------------------------------------------
# literals

_PAIR_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


def parse_rel_literal(space: StateSpace, text: str) -> Rel:
    """Parse ``{(s1,s2),(s3,s3)}``, ``id``, ``empty`` or ``full``."""
    body = text.strip()
    if body == "id":
        return Rel.identity(space)
    if body == "empty":
        return Rel.empty(space)
    if body == "full":
        return Rel.full(space)
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"bad relation literal {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return Rel.empty(space)
    consumed = 0
    pairs = []
    for m in _PAIR_RE.finditer(inner):
        gap = inner[consumed:m.start()].strip()
        expected = "" if not pairs else ","
        if gap != expected:
            raise ParseError(f"bad relation literal {text!r}")
        pairs.append((m.group(1), m.group(2)))
        consumed = m.end()
    if inner[consumed:].strip():
        raise ParseError(f"bad relation literal {text!r}")
    try:
        return Rel.from_pairs(space, pairs)
    except ModelError as e:
        raise ParseError(f"bad relation literal {text!r}: {e}") from None


def format_rel(r: Rel) -> str:
    n = r.space.size
    parts = [f"({r.space.names[i]},{r.space.names[j]})"
             for i in range(n) for j in range(n)
             if r.bits >> (i * n + j) & 1]
    return "{" + ",".join(parts) + "}"


# ---------------------------------------------------------------------------
# the relation model

class RelModel:
    """The full relation algebra on a space, computed on demand.

    It offers the index-level interface of ``FiniteAlgebra`` with element
    index == bit pattern, so term evaluation runs on it at any state
    count; the carrier and test lists are built only when asked for.
    """

    def __init__(self, space: StateSpace):
        self.space = space
        self.name = f"rel{space.size}"
        self.size = 1 << space.size ** 2
        self.zero_i = 0
        self.one_i = Rel.identity(space).bits

    @cached_property
    def carrier(self) -> tuple[str, ...]:
        return tuple(map(self.element_name, range(self.size)))

    @cached_property
    def tests_i(self) -> tuple[int, ...]:
        """The subidentities in increasing bit-pattern order."""
        n = self.space.size
        return tuple(sum(1 << i * (n + 1) for i in range(n) if mask >> i & 1)
                     for mask in range(1 << n))

    def element_name(self, i: int) -> str:
        return format_rel(Rel(self.space, i))

    def index(self, name: str) -> int:
        try:
            return self.carrier.index(name)
        except ValueError:
            raise ModelError(f"unknown carrier element {name!r}") from None

    def plus(self, i: int, j: int) -> int:
        return i | j

    def times(self, i: int, j: int) -> int:
        if (i | j) & ~self.one_i == 0:
            # tests compose by intersection, far cheaper than a matrix product
            return i & j
        return Rel(self.space, i).compose(Rel(self.space, j)).bits

    def star(self, i: int) -> int:
        return Rel(self.space, i).star().bits

    def adom(self, i: int) -> int:
        return Rel(self.space, i).adom().bits

    def aran(self, i: int) -> int:
        return Rel(self.space, i).aran().bits

    def complement(self, i: int) -> int:
        if i & ~self.one_i:
            raise EvalError(
                f"complement of non-test element {self.element_name(i)!r}")
        return self.one_i & ~i

    def leq(self, i: int, j: int) -> bool:
        return i & ~j == 0

    def has_op(self, op: str) -> bool:
        if op in ("star", "adom", "aran", "tests", "complement"):
            return True
        raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# packaging for axiom checks

_EAGER_MAX = 2
_LAZY_MAX = 3


def as_finite_algebra(space: StateSpace) -> FiniteAlgebra | RelModel:
    """The full relation algebra on the space, packaged for axiom checks.

    Size <= 2 is tabulated into a ``FiniteAlgebra`` (2^(n^2) <= 16
    elements); size 3 returns the on-demand ``RelModel`` (512 elements);
    larger spaces are refused.
    """
    n = space.size
    if n > _LAZY_MAX:
        raise BoundError(
            f"relation algebra over {n} states has 2^{n * n} elements; "
            f"the export bound is {_LAZY_MAX} states")
    model = RelModel(space)
    return _tabulate(model) if n <= _EAGER_MAX else model


def rel_algebra_model(size: int) -> FiniteAlgebra | RelModel:
    return as_finite_algebra(StateSpace.of_size(size))


def _tabulate(m: RelModel) -> FiniteAlgebra:
    r = range(m.size)
    name = m.element_name
    return FiniteAlgebra(m.carrier, name(m.zero_i), name(m.one_i),
                         [[m.plus(i, j) for j in r] for i in r],
                         [[m.times(i, j) for j in r] for i in r],
                         star=list(map(m.star, r)), adom=list(map(m.adom, r)),
                         aran=list(map(m.aran, r)), name=m.name)

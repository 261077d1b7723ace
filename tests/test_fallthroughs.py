"""The last resorts of the term and program walks, and the str and repr of
the library's values: lines that no other test runs."""

import pytest

from kadlab import hoare
from kadlab.algebra import _eval_idx, lemma4_model
from kadlab.evsets import evens, format_evset
from kadlab.hoare import Bindings
from kadlab.relations import Rel, StateSpace, format_rel
from kadlab.terms import desugar, parse_term, print_term, sort_of


class _Stranger:
    """An object with attributes, none of them a subterm: no term, no
    program."""


_STRANGER = _Stranger()
_BINDINGS = Bindings(StateSpace.of_size(1), {}, {})
_REL = Rel.from_pairs(StateSpace.of_size(2), [("1", "2"), ("2", "2")])
_TERM = parse_term("[x*]!p + a(x ; y)")

# (a call, what it returns or the start of the TypeError it raises)
CASES = {
    "eval_idx": (lambda: _eval_idx(lemma4_model(), _STRANGER, {}, {}),
                 "not a term"),
    "sort_of": (lambda: sort_of(_STRANGER), "not a term"),
    "desugar": (lambda: desugar(_STRANGER), "not a term"),
    "print_term": (lambda: print_term(_STRANGER), "not a term"),
    "encode": (lambda: hoare._encode(_STRANGER), "not a program"),
    "wp": (lambda: hoare._wp(_STRANGER, 0, _BINDINGS), "not a program"),
    "image": (lambda: hoare._image(_STRANGER, 0, _BINDINGS),
              "not a program"),
    "repr-algebra": (lambda: repr(lemma4_model()),
                     "FiniteAlgebra('lemma4', size=3)"),
    "str-evset": (lambda: str(evens()), format_evset(evens())),
    "str-rel": (lambda: str(_REL), format_rel(_REL)),
    "str-term": (lambda: str(_TERM), print_term(_TERM)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_fallthrough_raises_and_str_formats(case):
    call, expected = CASES[case]
    try:
        got = call()
    except TypeError as e:
        got = str(e).partition(":")[0]
    assert got == expected

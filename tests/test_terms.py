import re

import pytest
from hypothesis import given, strategies as st

from kadlab.errors import ParseError, SortError
from kadlab.terms import (ADom, ARan, Box, Dom, Not, ONE, Plus, Ran, Sort,
                          Star, Times, Var, ZERO, desugar,
                          parse_term, print_term, sort_of, variables)
from kadlab.terms import TestVar as TV  # alias keeps pytest collection quiet
from kadlab.terms import _tokenize


# ---------------------------------------------------------------------------
# parsing

def test_parse_antidomain_of_product():
    assert parse_term("a(y ; !q)") == ADom(Times(Var("y"), Not(TV("q"))))


def test_parse_triple_body():
    assert parse_term("p ; x ; !q") == Times(
        Times(TV("p"), Var("x")), Not(TV("q")))


def test_parse_box_sugar():
    assert parse_term("[x]q") == Box(Var("x"), TV("q"))


def test_parse_precedence():
    # !, * tightest, then ;, then +
    assert parse_term("x + y ; z*") == Plus(
        Var("x"), Times(Var("y"), Star(Var("z"))))
    assert parse_term("!p ; x") == Times(Not(TV("p")), Var("x"))
    assert parse_term("(x + y) ; z") == Times(
        Plus(Var("x"), Var("y")), Var("z"))


def test_parse_explicit_test_set_overrides_convention():
    t = parse_term("x ; y", tests={"x"})
    assert t == Times(TV("x"), Var("y"))


def test_parse_operator_names_need_parens():
    assert parse_term("ar(x)") == ARan(Var("x"))
    assert parse_term("d(x)") == Dom(Var("x"))
    # a bare identifier r is a variable, not the range operator
    assert parse_term("r ; x") == Times(TV("r"), Var("x"))


def test_parse_and_or_are_sugar():
    assert parse_term("p & q | r") == parse_term("p ; q + r")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("x +")
    with pytest.raises(ParseError):
        parse_term("f(x)")  # unknown operator name
    with pytest.raises(ParseError):
        parse_term("x ? y")
    with pytest.raises(ParseError):
        parse_term("x y")


# the tokenizer as a loop over positions, one match at each: the reference
# for the one-scan ``_tokenize``
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<const>[01])"
    r"|(?P<sym>[+;*!()\[\]&|])"
)


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             column=pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(m.lastgroup), pos + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return exc.message, exc.column


# the token alphabet, then stray characters: newlines, tabs, digits 2-9,
# other punctuation and non-ASCII, a no-break space among them
_TOKEN_TEXT = st.text(st.sampled_from(
    "xyzpqad_' 01+;*!()[]&|" "\n\t\r23456789.,:-#=?{}<>\"\\" "é→λ\u00a0\u2028"),
    max_size=30)


@given(_TOKEN_TEXT)
def test_tokenize_matches_the_loop_over_positions(text):
    assert (_tokens_or_error(_tokenize, text)
            == _tokens_or_error(_reference_tokenize, text))


# ---------------------------------------------------------------------------
# desugaring

def test_desugar_box():
    assert desugar(Box(Var("x"), TV("q"))) == ADom(
        Times(Var("x"), ADom(TV("q"))))


def test_desugar_dom_ran():
    assert desugar(Dom(Var("x"))) == ADom(ADom(Var("x")))
    assert desugar(Ran(Var("x"))) == ARan(ARan(Var("x")))


def test_desugar_leaves_plain_terms():
    t = Times(Var("x"), Plus(ZERO, ONE))
    assert desugar(t) == t


# ---------------------------------------------------------------------------
# sorting

def test_sort_of_examples():
    assert sort_of(ADom(Var("x"))) is Sort.TEST
    assert sort_of(Var("x")) is Sort.ELEMENT
    with pytest.raises(SortError):
        sort_of(Not(Var("x")))


def test_sort_star_is_element():
    assert sort_of(Star(TV("p"))) is Sort.ELEMENT
    with pytest.raises(SortError):
        sort_of(Not(Star(TV("p"))))


def test_sort_of_tests():
    assert sort_of(Plus(TV("p"), TV("q"))) is Sort.TEST
    assert sort_of(Times(TV("p"), Var("x"))) is Sort.ELEMENT
    assert sort_of(Box(Var("x"), Var("y"))) is Sort.TEST


# ---------------------------------------------------------------------------
# properties

_leaves = st.one_of(
    st.just(ZERO), st.just(ONE),
    st.builds(Var, st.sampled_from(["x", "y", "z"])),
    st.builds(TV, st.sampled_from(["p", "q", "t1"])),
)

_terms = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Plus, inner, inner),
        st.builds(Times, inner, inner),
        st.builds(Star, inner),
        st.builds(Not, inner),
        st.builds(ADom, inner),
        st.builds(Dom, inner),
        st.builds(ARan, inner),
        st.builds(Ran, inner),
        st.builds(Box, inner, inner),
    ),
    max_leaves=12,
)


@given(_terms)
def test_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t


@given(_terms)
def test_desugar_idempotent_and_primitive(t):
    d = desugar(t)
    assert desugar(d) == d

    def no_sugar(node):
        if isinstance(node, (Box, Dom, Ran)):
            return False
        if isinstance(node, (Plus, Times)):
            return no_sugar(node.left) and no_sugar(node.right)
        if isinstance(node, (Star, Not, ADom, ARan)):
            return no_sugar(node.arg)
        return True

    assert no_sugar(d)


@given(_terms)
def test_sort_invariant_under_desugar(t):
    try:
        before = sort_of(t)
    except SortError:
        with pytest.raises(SortError):
            sort_of(desugar(t))
        return
    assert sort_of(desugar(t)) is before


@given(_terms)
def test_variables_preserved_by_desugar(t):
    assert variables(t) == variables(desugar(t))

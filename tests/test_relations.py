import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kadlab.algebra import (FiniteAlgebra, PhiResult, Profile, _eval_idx,
                            check_axioms, check_phi, evaluate)
from kadlab.errors import (BoundError, EvalError, KadlabError, ModelError,
                           ParseError)
from kadlab.evsets import parse_evset
from kadlab.hoare import Atom, Bindings, HoareTriple, holds
from kadlab.relations import (Rel, StateSpace, _edges, _rows, all_relations,
                              format_rel, parse_rel_literal, rel_algebra_model)
from kadlab.terms import (ADom, ARan, Box, Dom, Not, ONE, Plus, Star,
                          Times, Var, ZERO, desugar, parse_term)
from kadlab.terms import TestVar as TV  # alias keeps pytest collection quiet
from naive_oracle import (naive_parse_rel_literal, naive_star,
                          naive_triple_holds)


# ---------------------------------------------------------------------------
# pair-set oracles, independent of the bitmask implementation

def o_compose(p1, p2):
    return frozenset((a, c) for a, b in p1 for b2, c in p2 if b == b2)


def o_adom(pairs, states):
    return frozenset((s, s) for s in states
                     if all((s, t) not in pairs for t in states))


def o_star(pairs, states):
    acc = frozenset((s, s) for s in states)
    while True:
        nxt = acc | pairs | o_compose(acc, pairs)
        if nxt == acc:
            return acc
        acc = nxt


def o_box(pairs, post_states, states):
    return frozenset((s, s) for s in states
                     if all(t in post_states for s2, t in pairs if s2 == s))


# ---------------------------------------------------------------------------
# examples

S2 = StateSpace(["1", "2"])
S3 = StateSpace(["1", "2", "3"])


def test_compose_chain():
    r = Rel.from_pairs(S3, [("1", "2")])
    s = Rel.from_pairs(S3, [("2", "3")])
    assert r.compose(s).pairs() == {("1", "3")}


def test_compose_identity():
    r = Rel.from_pairs(S2, [("1", "2"), ("2", "2")])
    assert r.compose(Rel.identity(S2)) == r
    assert Rel.identity(S2).compose(r) == r


def test_compose_no_middle_state():
    r = Rel.from_pairs(S2, [("1", "2")])
    s = Rel.from_pairs(S2, [("1", "1")])
    assert r.compose(s).pairs() == o_compose(r.pairs(), s.pairs()) == frozenset()


def test_adom_examples():
    r = Rel.from_pairs(S2, [("1", "2")])
    assert r.adom().pairs() == {("2", "2")}
    assert Rel.empty(S2).adom() == Rel.identity(S2)
    assert Rel.full(S2).adom() == Rel.empty(S2)


def test_star_examples():
    assert Rel.empty(S2).star() == Rel.identity(S2)
    assert Rel.identity(S2).star() == Rel.identity(S2)
    r = Rel.from_pairs(S3, [("1", "2"), ("2", "3")])
    assert r.star().pairs() == o_star(r.pairs(), S3.names)
    assert r.star().pairs() == (Rel.identity(S3).pairs()
                                | {("1", "2"), ("2", "3"), ("1", "3")})


def test_aran_examples():
    r = Rel.from_pairs(S2, [("1", "2")])
    assert r.aran().pairs() == {("1", "1")}
    assert Rel.empty(S2).aran() == Rel.identity(S2)
    assert Rel.full(S2).aran() == Rel.empty(S2)


def test_box_examples():
    r = Rel.from_pairs(S2, [("1", "2")])
    q = Rel.test_from_states(S2, ["2"])
    assert r.box(q) == Rel.identity(S2)
    assert r.box(Rel.identity(S2)) == Rel.identity(S2)
    for q_states in ([], ["1"], ["2"], ["1", "2"]):
        q = Rel.test_from_states(S2, q_states)
        assert Rel.identity(S2).box(q) == q


def test_box_requires_subidentity():
    with pytest.raises(ModelError):
        Rel.empty(S2).box(Rel.from_pairs(S2, [("1", "2")]))


def test_test_complement_requires_subidentity():
    with pytest.raises(ModelError) as info:
        Rel.from_pairs(S2, [("1", "2")]).complement_test()
    assert (type(info.value), str(info.value)) == (
        ModelError, "test complement of a non-subidentity relation")


def test_space_mismatch():
    with pytest.raises(ModelError):
        Rel.empty(S2).compose(Rel.empty(S3))


def test_state_names_are_looked_up_as_given():
    # the int 1 is not the state named "1"
    for pairs in ([(1, "2")], [("1", 2)], [("1", "9")]):
        with pytest.raises(ModelError, match="unknown state"):
            Rel.from_pairs(S2, pairs)
    with pytest.raises(ModelError, match="unknown state 1"):
        Rel.test_from_states(S2, [1])


def test_trace_recorder_wraps_the_rel_methods():
    # perfbench's span recorder wraps Rel's operations by name from the
    # class body; a method defined elsewhere would make install() fail
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(Rel))
    rec = tracing.Recorder()
    rec.install()
    try:
        r = Rel.from_pairs(S2, [("1", "2")])
        assert r.compose(r).star() == Rel.identity(S2)
        assert rec.calls["relations.compose"] == 1
        assert rec.calls["relations.star"] == 1
    finally:
        rec.uninstall()
    assert dict(vars(Rel)) == before


# ---------------------------------------------------------------------------
# literals

def test_literal_roundtrip():
    r = Rel.from_pairs(S3, [("1", "2"), ("3", "3")])
    assert parse_rel_literal(S3, format_rel(r)) == r
    assert parse_rel_literal(S3, "id") == Rel.identity(S3)
    assert parse_rel_literal(S3, "empty") == Rel.empty(S3)
    assert parse_rel_literal(S3, "full") == Rel.full(S3)
    assert parse_rel_literal(S3, "{}") == Rel.empty(S3)
    assert parse_rel_literal(S3, "{ (1,2), (2,3) }").pairs() == {
        ("1", "2"), ("2", "3")}


def test_literal_errors():
    with pytest.raises(ParseError):
        parse_rel_literal(S2, "{(1,2)")
    with pytest.raises(ParseError):
        parse_rel_literal(S2, "{(1,9)}")
    with pytest.raises(ParseError):
        parse_rel_literal(S2, "{(1,2) (2,1)}")


# malformed: unbalanced braces, missing, doubled or stray separators, pairs
# that are not two names, unknown states
@pytest.mark.parametrize("text", [
    "{(1,2)", "(1,2)}", "{(1,2) (2,1)}", "{(1,2),}", "{,(1,2)}", "{(1,2),,(2,1)}",
    "{(1 2,3)}", "{(1,2)x}", "{{(1,2)}", "{(1,2)}}", "{(1,2,1)}", "{()}", "{,}",
    "{(1,9)}", "{(9,1)}", "ident", ""])
def test_literal_grammar_rejects(text):
    with pytest.raises(ParseError):
        parse_rel_literal(S2, text)


LITERAL_SPACE = StateSpace(["1", "2", "ab"])
_LITERAL_TOKENS = ["{", "}", "(", ")", ",", " ", "\t", "\n", "1", "2", "ab",
                   "9", "x", ";", "{}", "id", "full", "empty", "(1,2)", "(ab,1)"]


@st.composite
def _literal_like(draw, names=("1", "2", "ab", "9"), tokens=_LITERAL_TOKENS):
    """A literal built from drawn pairs, separators and spacing, then maybe
    one token inserted, one character deleted, or one swapped."""
    space_ = st.sampled_from([" ", "\t", "", "  ", "\n"])
    name = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(space_, name, space_, space_, name, space_),
                          max_size=4))
    seps = [draw(space_) + draw(st.sampled_from([",", ",", ",,", ""]))
            + draw(space_) for _ in pairs]
    text = (draw(space_) + "{" + draw(space_)
            + "".join((sep if k else "") + f"({s0}{a}{s1},{s2}{b}{s3})"
                      for k, ((s0, a, s1, s2, b, s3), sep)
                      in enumerate(zip(pairs, seps)))
            + draw(space_) + "}" + draw(space_))
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "swap"]))
        token = draw(st.sampled_from(tokens))
        text = (text[:i] + token + text[i:] if edit == "insert" else
                text[:i] + text[i + 1:] if edit == "delete" else
                text[:i] + token + text[i + 1:])
    return text


def _literal_outcome(parse, text, space=LITERAL_SPACE):
    try:
        return "ok", parse(space, text)
    except ParseError as e:
        return "error", str(e)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _literal_like(),
                 st.lists(st.sampled_from(_LITERAL_TOKENS), max_size=12)
                 .map("".join)))
def test_literal_parser_matches_the_grammar_oracle(text):
    assert (_literal_outcome(parse_rel_literal, text)
            == _literal_outcome(naive_parse_rel_literal, text))


# names of several characters, and names holding braces
BRACE_SPACE = StateSpace(["1", "2", "ab", "s10", "{", "a}", "}{"])
_BRACE_NAMES = ("1", "ab", "s10", "s1", "{", "a}", "}{", "}", "{}", "9")
_BRACE_TOKENS = _LITERAL_TOKENS + ["s10", "a}", "(s10,{)", "({,a})", "}{"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _literal_like(_BRACE_NAMES, _BRACE_TOKENS),
                 st.lists(st.sampled_from(_BRACE_TOKENS), max_size=12)
                 .map("".join)))
def test_literal_parser_matches_the_oracle_on_brace_names(text):
    assert (_literal_outcome(parse_rel_literal, text, BRACE_SPACE)
            == _literal_outcome(naive_parse_rel_literal, text, BRACE_SPACE))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 130).filter(lambda n: n % 8), st.integers(0, 2 ** 32))
def test_literal_roundtrip_with_pairs_shuffled_and_repeated(n, seed):
    rng = random.Random(seed)
    space = StateSpace.of_size(n)
    edges = rng.sample(range(n * n), rng.randint(0, min(n * n, 4 * n)))
    rel = Rel(space, sum(1 << e for e in edges))
    assert parse_rel_literal(space, format_rel(rel)) == rel
    names = space.names
    listed = [f"({names[e // n]},{names[e % n]})"
              for e in edges + rng.choices(edges, k=len(edges) // 3)]
    rng.shuffle(listed)
    spaced = "{" + rng.choice(("", " ")) + ", ".join(listed) + "}"
    assert parse_rel_literal(space, spaced) == rel
    assert Rel.from_pairs(space, (p[1:-1].split(",") for p in listed)) == rel


@pytest.mark.parametrize("text, unknown", [
    ("{(1,9),(8x,1)}", "'9'"), ("{(8x,1),(1,9)}", "'8x'"),
    ("{(1,2), (2,1), (3, 9)}", "'3'"), ("{(2,2),(2,{)}", "'{'")])
def test_literal_error_names_the_first_unknown_state(text, unknown):
    with pytest.raises(ParseError) as e:
        parse_rel_literal(S2, text)
    assert str(e.value) == (f"bad relation literal {text!r}: "
                            f"unknown state {unknown}")
    pairs = [p.split(",") for p in text.replace(" ", "")[2:-2].split("),(")]
    with pytest.raises(ModelError, match=f"^unknown state {unknown}$"):
        Rel.from_pairs(S2, pairs)


def _only_kadlab_errors(parse, text):
    try:
        parse(text)
    except KadlabError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_term_fuzz(text):
    _only_kadlab_errors(parse_term, text)
    _only_kadlab_errors(lambda t: parse_term(t, tests=("p", "q")), text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(
    ["evens", "odds", "finite", "cofinite", "periodic", "{", "}", "(", ")",
     ";", ",", " ", "0", "1", "2", "12", "x"]), max_size=12).map("".join)))
def test_parse_evset_fuzz(text):
    _only_kadlab_errors(parse_evset, text)


def test_state_index_on_a_large_space():
    space = StateSpace.of_size(128)
    assert [space.index(name) for name in space.names] == list(range(128))
    with pytest.raises(ModelError):
        space.index("129")
    assert space == StateSpace.of_size(128)
    assert hash(space) == hash(StateSpace.of_size(128))


@pytest.mark.parametrize("text, pairs", [
    ("{}", set()), (" { } ", set()), ("{(1,2)}", {("1", "2")}),
    ("{ ( 1 , 2 ) }", {("1", "2")}), ("{(1,2),(1,2)}", {("1", "2")}),
    ("{(1,2) ,\t(2,1)}", {("1", "2"), ("2", "1")}),
    ("\n{(2,2),(1,1)}\n", {("1", "1"), ("2", "2")})])
def test_literal_grammar_accepts(text, pairs):
    assert parse_rel_literal(S2, text).pairs() == pairs


# ---------------------------------------------------------------------------
# properties on random relations

def _spaces():
    return st.integers(min_value=1, max_value=4).map(StateSpace.of_size)


@st.composite
def _two_rels(draw):
    space = draw(_spaces())
    top = (1 << space.size ** 2) - 1
    a = draw(st.integers(0, top))
    b = draw(st.integers(0, top))
    return Rel(space, a), Rel(space, b)


@given(_two_rels())
def test_compose_matches_oracle(rels):
    r, s = rels
    assert r.compose(s).pairs() == o_compose(r.pairs(), s.pairs())


@given(_two_rels())
def test_adom_and_star_match_oracles(rels):
    r, _ = rels
    names = r.space.names
    assert r.adom().pairs() == o_adom(r.pairs(), names)
    assert r.star().pairs() == o_star(r.pairs(), names)


@given(_two_rels())
def test_box_pointwise(rels):
    r, s = rels
    q = s.dom()  # an arbitrary subidentity
    post_states = {a for a, _ in q.pairs()}
    assert r.box(q).pairs() == o_box(r.pairs(), post_states, r.space.names)


@given(_two_rels())
def test_box_galois(rels):
    # p <= [x]q iff p;x;!q = 0, and [x]q is the greatest such test
    x, s = rels
    q = s.dom()
    box = x.box(q)
    for p in _all_tests(x.space):
        valid = p.compose(x).compose(q.complement_test()).is_empty()
        assert valid == p.leq(box)


@given(_two_rels())
def test_star_least_fixpoint(rels):
    r, s = rels
    star = r.star()
    assert Rel.identity(r.space).union(r.compose(star)) == star
    # minimality against any reflexive-transitive candidate above r
    cand = s.union(Rel.identity(r.space)).union(r)
    if cand.compose(cand) == cand:
        assert star.leq(cand)


@st.composite
def _sparse_rels(draw, min_states=5, max_states=40, min_degree=0):
    """Two random sparse relations and two tests over 5-40 states (or the
    range given), each with the pairs it was built from; the relations hold
    min_degree to 3 pairs per state.  Random relations are almost never
    subidentities, so the tests are drawn on purpose: the first as a set of
    states, the second as a state mask (hypothesis favours the empty and the
    full mask)."""
    n = draw(st.integers(min_states, max_states))
    space = StateSpace.of_size(n)
    state = st.sampled_from(space.names)
    r_pairs, s_pairs = (draw(st.sets(st.tuples(state, state),
                                     min_size=min_degree * n, max_size=3 * n))
                        for _ in range(2))
    q_pairs = {(a, a) for a in draw(st.sets(state))}
    mask = draw(st.integers(0, (1 << n) - 1))
    u_pairs = {(a, a) for i, a in enumerate(space.names) if mask >> i & 1}
    return [(Rel.from_pairs(space, r_pairs), r_pairs),
            (Rel.from_pairs(space, s_pairs), s_pairs),
            (Rel.test_from_states(space, {a for a, _ in q_pairs}), q_pairs),
            (Rel.test_from_states(space, {a for a, _ in u_pairs}), u_pairs)]


@given(_two_rels())
def test_aran_is_adom_of_converse(rels):
    r, _ = rels
    assert r.aran() == r.converse().adom()


@settings(deadline=None)
@given(_sparse_rels(1, 128))
def test_aran_is_adom_of_converse_up_to_128_states(rels):
    for rel, _ in rels:
        assert rel.aran() == rel.converse().adom()


@settings(max_examples=200, deadline=None)
@given(_sparse_rels(1, 128))
def test_row_view_matches_pair_set_oracles(rels):
    (r, pairs), (s, s_pairs), (q, q_pairs), (u, u_pairs) = rels
    names = r.space.names
    assert (r.pairs(), s.pairs(), q.pairs()) == (pairs, s_pairs, q_pairs)
    assert bin(r.bits).count("1") == len(pairs)
    assert r.compose(s).pairs() == o_compose(pairs, s_pairs)
    assert r.converse().pairs() == {(b, a) for a, b in pairs}
    assert r.adom().pairs() == o_adom(pairs, names)
    assert r.aran().pairs() == o_adom({(b, a) for a, b in pairs}, names)
    post_states = {a for a, _ in q_pairs}
    assert r.box(q).pairs() == o_box(pairs, post_states, names)
    assert Rel.identity(r.space).pairs() == {(a, a) for a in names}
    assert q.is_subidentity() and u.is_subidentity()
    assert r.is_subidentity() == all(a == b for a, b in pairs)
    # a test on the left, on the right and on both sides composes as a mask
    assert q.compose(r).pairs() == o_compose(q_pairs, pairs)
    assert r.compose(u).pairs() == o_compose(pairs, u_pairs)
    assert (q.compose(r).compose(u).pairs()
            == o_compose(o_compose(q_pairs, pairs), u_pairs))
    assert (q.compose(u).pairs() == o_compose(q_pairs, u_pairs)
            == q_pairs & u_pairs)
    assert r.space.times(q.bits, u.bits) == (q & u).bits


@settings(deadline=None)
@given(_sparse_rels(1, 128))
def test_triple_holds_matches_compose_form(rels):
    (r, _), _, (p, _), (q, _) = rels
    bindings = Bindings(r.space, {"r": r}, {})

    def triple(pre):
        return holds(HoareTriple(pre, Atom("r"), q), bindings)

    assert triple(p) == naive_triple_holds(p, r, q)
    # the states of p whose successors all lie in q: there the triple holds
    q_states = {a for a, _ in q.pairs()}
    safe = Rel.test_from_states(p.space, [
        a for a, _ in p.pairs()
        if all(c in q_states for b, c in r.pairs() if b == a)])
    assert triple(safe) and naive_triple_holds(safe, r, q)
    # the image of p through r is the range of p ; r
    reached = {c for a, _ in p.pairs() for b, c in r.pairs() if b == a}
    assert (r.space.image(p.bits, r.bits)
            == Rel.test_from_states(r.space, reached).bits)


@given(_sparse_rels())
def test_format_then_parse_is_the_identity(rels):
    for rel, _ in rels:
        text = format_rel(rel)
        assert parse_rel_literal(rel.space, text) == rel
        # pairs print row-major: by source state, then by target state
        idx = {name: i for i, name in enumerate(rel.space.names)}
        listed = [tuple(p.split(",")) for p in text[2:-2].split("),(") if p]
        assert listed == sorted(listed, key=lambda e: (idx[e[0]], idx[e[1]]))
        assert set(listed) == rel.pairs()


def _row_walk(bits, n):
    """The edges row by row, off the successor masks."""
    return [(i, j) for i, row in enumerate(_rows(bits, n))
            for j in range(n) if row >> j & 1]


@pytest.mark.parametrize("n", [1, 3, 8, 32, 128])
def test_edges_match_the_row_walk(n):
    rng = random.Random(f"edges:{n}")
    full = (1 << n * n) - 1
    cases = [0, full, StateSpace.of_size(n).one_i]
    for density in (0.02, 0.3, 0.9):
        cases.append(sum(1 << k for k in range(n * n) if rng.random() < density))
        cases.append(sum(1 << i * (n + 1) for i in range(n)
                         if rng.random() < density))      # a subidentity
    for bits in cases:
        assert list(_edges(bits, n)) == _row_walk(bits, n)


@settings(max_examples=40, deadline=None)
@given(_sparse_rels(64, 128, min_degree=1))
def test_warshall_star_matches_squaring(rels):
    for rel, _ in rels:
        assert rel.star() == naive_star(rel)


def _all_tests(space):
    ident = Rel.identity(space)
    n = space.size
    for mask in range(1 << n):
        states = [space.names[i] for i in range(n) if mask >> i & 1]
        yield Rel.test_from_states(space, states)


def test_sampled_kat_kad_axioms_on_random_relations():
    rng = random.Random(20240811)
    for _ in range(400):
        n = rng.randint(1, 4)
        space = StateSpace.of_size(n)
        top = (1 << n * n) - 1
        x, y, z = (Rel(space, rng.randint(0, top)) for _ in range(3))
        ident = Rel.identity(space)
        zero = Rel.empty(space)
        assert x.union(y) == y.union(x)
        assert x.union(x) == x
        assert x.compose(y.union(z)) == x.compose(y).union(x.compose(z))
        assert x.union(y).compose(z) == x.compose(z).union(y.compose(z))
        assert x.compose(y).compose(z) == x.compose(y.compose(z))
        assert x.compose(ident) == x == ident.compose(x)
        assert x.compose(zero) == zero == zero.compose(x)
        assert ident.union(x.compose(x.star())) == x.star()
        assert ident.union(x.star().compose(x)) == x.star()
        # antidomain axioms
        assert x.adom().compose(x) == zero
        assert x.adom().union(x.dom()) == ident
        lhs = x.compose(y).adom()
        rhs = x.compose(y.dom()).adom()
        assert lhs.union(rhs) == rhs
        # antirange axioms
        assert x.compose(x.aran()) == zero
        assert x.aran().union(x.ran()) == ident
        lhs = x.compose(y).aran()
        rhs = x.ran().compose(y).aran()
        assert lhs.union(rhs) == rhs
        # compatibility of the two test algebras
        assert x.aran().dom() == x.aran()
        assert x.adom().ran() == x.adom()


# ---------------------------------------------------------------------------
# packaging

def test_algebra_size_1():
    m = rel_algebra_model(1)
    assert isinstance(m, FiniteAlgebra)
    assert m.size == 2
    assert m.carrier == ("{}", "{(1,1)}")
    assert check_axioms(m, Profile.KA_DR).passed


def test_algebra_size_2_passes_kad():
    m = rel_algebra_model(2)
    assert isinstance(m, FiniteAlgebra)
    assert m.size == 16
    assert len(m.tests) == 4
    assert check_axioms(m, Profile.KAD).passed
    assert check_axioms(m, Profile.TS).passed
    assert check_axioms(m, Profile.KAT).passed
    assert check_phi(m).holds


@pytest.fixture(scope="module")
def rel3():
    """The 512-element algebra, tabulated once for the tests that read it."""
    return rel_algebra_model(3)


def test_lazy_algebra_size_3(rel3):
    m = rel3
    assert isinstance(m, FiniteAlgebra)
    assert m.size == 512
    assert len(m.tests_i) == 8
    space = StateSpace.of_size(3)
    r = Rel.from_pairs(space, [("1", "2"), ("2", "3")])
    s = Rel.from_pairs(space, [("3", "1")])
    assert m.times(r.bits, s.bits) == r.compose(s).bits
    assert m.plus(r.bits, s.bits) == r.union(s).bits
    assert m.star(r.bits) == r.star().bits
    assert m.adom(r.bits) == r.adom().bits
    assert m.aran(r.bits) == r.aran().bits
    assert m.complement(m.adom(r.bits)) == r.dom().bits
    assert check_phi(m) == PhiResult(True, None, 512 * 512 * 8 * 8)


def test_evaluate_in_rel3(rel3):
    env = {"x": "{(1,2),(2,3)}"}
    assert evaluate(rel3, parse_term("x ; x*", tests=()), env) == \
        "{(1,2),(1,3),(2,3)}"


REL2 = rel_algebra_model(2)
REL2_SPACE = StateSpace.of_size(2)

_rel2_terms = st.recursive(
    st.one_of(st.just(ZERO), st.just(ONE),
              st.builds(Var, st.sampled_from(["x", "y"])),
              st.builds(TV, st.sampled_from(["p", "q"]))),
    lambda inner: st.one_of(
        st.builds(Plus, inner, inner), st.builds(Times, inner, inner),
        st.builds(Star, inner), st.builds(Not, inner),
        st.builds(ADom, inner), st.builds(ARan, inner),
        st.builds(Dom, inner), st.builds(Box, inner, inner)),
    max_leaves=10,
).map(desugar)


_rel2_tests = st.sampled_from(REL2.tests_i)


@given(_rel2_terms, st.integers(0, 15), st.integers(0, 15),
       _rel2_tests, _rel2_tests)
def test_tabulated_rel2_agrees_with_relation_model(t, x, y, p, q):
    # element i is bit pattern i in the table and in the space's operations
    venv, tenv = {"x": x, "y": y}, {"p": p, "q": q}
    results = []
    for model in (REL2, REL2_SPACE):
        try:
            results.append(model.element_name(_eval_idx(model, t, venv, tenv)))
        except EvalError as e:   # complement of a non-test, on both sides
            results.append(f"error: {e}")
    assert results[0] == results[1]


def test_algebra_size_4_refused():
    with pytest.raises(BoundError):
        rel_algebra_model(4)


def test_all_relations_count():
    assert sum(1 for _ in all_relations(S2)) == 16

import random

import pytest
from hypothesis import assume, given, strategies as st

from kadlab.errors import ModelError, ParseError
from kadlab.evsets import (EvPeriodicSet, NotAPrecondition, NotMaximal,
                           cofinite_set, empty_set, enumerate_candidates,
                           evens, finite_set, format_evset, full_set,
                           in_test_algebra, odds, parse_evset,
                           refute_wlp_candidate, verify_refutation)
from naive_oracle import (NaiveEvPeriodicSet, naive_enumerate_candidates,
                          naive_format_evset, naive_refute_wlp_candidate)


# ---------------------------------------------------------------------------
# canonical form

def test_normalization_minimal_period():
    # period 4 with residues {0, 2} is really period 2 with {0}
    s = EvPeriodicSet(0, frozenset(), 4, frozenset({0, 2}))
    assert s.period == 2 and s.residues == frozenset({0})
    assert s == evens()


def test_normalization_absorbs_head():
    s = EvPeriodicSet(5, frozenset({0, 2, 4}), 2, frozenset({0}))
    assert s == evens()
    assert s.threshold == 0 and not s.head


def test_normalization_keeps_exceptions():
    # evens plus the exceptional 1
    s = EvPeriodicSet(2, frozenset({0, 1}), 2, frozenset({0}))
    assert s.threshold == 2
    assert s.head == frozenset({0, 1})
    assert 1 in s and 3 not in s


def test_invalid_inputs():
    with pytest.raises(ModelError):
        EvPeriodicSet(0, frozenset(), 0, frozenset())
    with pytest.raises(ModelError):
        EvPeriodicSet(1, frozenset({3}), 2, frozenset())
    with pytest.raises(ModelError):
        EvPeriodicSet(0, frozenset(), 2, frozenset({5}))
    for head in ([-1], ["a"], [1.5], [0, 10 ** 30]):
        with pytest.raises(ModelError):
            EvPeriodicSet(3, head, 1, ())


def test_constructor_takes_any_iterables():
    s = EvPeriodicSet(3, [0, 2, 2], 2, iter([1]))
    assert s == EvPeriodicSet(3, frozenset({0, 2}), 2, frozenset({1}))
    assert s.head == frozenset({0, 2}) and s.residues == frozenset({1})


# ---------------------------------------------------------------------------
# membership and classification

def test_membership():
    assert 0 in evens() and 1 not in evens()
    assert 17 in odds()
    f = finite_set({0, 5})
    assert 5 in f and 4 not in f and 100 not in f


def test_finite_cofinite_flags():
    assert finite_set({1, 2}).is_finite
    assert cofinite_set({5}).is_cofinite
    assert not evens().is_finite and not evens().is_cofinite
    assert in_test_algebra(finite_set({0, 1, 2}))
    assert in_test_algebra(cofinite_set({5}))
    assert not in_test_algebra(evens())


def test_set_operations():
    assert evens().intersect(evens().complement()) == empty_set()
    assert finite_set({0, 2}).union(evens()) == evens()
    assert evens().complement() == odds()
    assert evens().union(odds()) == full_set()
    assert full_set().complement() == empty_set()


def test_least():
    assert empty_set().least() is None
    assert evens().least() == 0
    assert odds().least() == 1
    assert finite_set({7, 3}).least() == 3
    assert EvPeriodicSet(10, frozenset(), 4, frozenset({1})).least() == 13


# ---------------------------------------------------------------------------
# literals

@pytest.mark.parametrize("text", [
    "evens", "odds", "finite{}", "finite{1,3}", "cofinite{0}",
    "periodic(2; 0; 3; 1,2)",
])
def test_literal_roundtrip(text):
    s = parse_evset(text)
    assert parse_evset(format_evset(s)) == s


def test_literal_errors():
    with pytest.raises(ParseError):
        parse_evset("finite{1,")
    with pytest.raises(ParseError):
        parse_evset("weird")
    with pytest.raises(ParseError):
        parse_evset("periodic(0; ; 0; )")


@pytest.mark.parametrize("make,error,message", [
    (lambda: EvPeriodicSet(-1, (), 1, ()), ModelError,
     "threshold must be nonnegative"),
    (lambda: finite_set({3, -2}), ModelError, "elements must be naturals"),
    (lambda: parse_evset("finite{1,,2}"), ParseError,
     "bad set literal 'finite{1,,2}'"),
])
def test_refused_sets_say_why(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert (type(info.value), str(info.value)) == (error, message)


# ---------------------------------------------------------------------------
# refuter

def test_refuter_examples():
    e = evens()
    v = refute_wlp_candidate(e, empty_set())
    assert v == NotMaximal(1, finite_set({1}))
    v = refute_wlp_candidate(e, finite_set({1, 3}))
    assert v == NotMaximal(5, finite_set({1, 3, 5}))
    v = refute_wlp_candidate(e, finite_set({0}))
    assert v == NotAPrecondition(0)


def test_refuter_preconditions():
    with pytest.raises(ModelError):
        refute_wlp_candidate(evens(), evens())  # candidate outside B
    with pytest.raises(ModelError):
        refute_wlp_candidate(finite_set({1}), empty_set())  # target inside B


def test_refuter_on_cofinite_candidate():
    # a cofinite candidate always meets the evens
    v = refute_wlp_candidate(evens(), cofinite_set({1, 3}))
    assert isinstance(v, NotAPrecondition)


def test_cofinite_candidate_refutation_is_verified():
    candidate = cofinite_set({1})
    verdict = refute_wlp_candidate(evens(), candidate)
    assert verdict == NotAPrecondition(0)
    assert verify_refutation(evens(), candidate, verdict)


def test_finite_candidate_meeting_the_target_is_verified():
    candidate = finite_set({3, 4})
    verdict = refute_wlp_candidate(evens(), candidate)
    assert verdict == NotAPrecondition(4)
    assert verify_refutation(evens(), candidate, verdict)


@pytest.mark.parametrize("candidate, verdict", [
    # in the candidate, not in the target
    (finite_set({3, 4}), NotAPrecondition(3)),
    # in the target, not in the candidate
    (finite_set({3, 4}), NotAPrecondition(2)),
    # the extension meets the target
    (finite_set({3, 4}), NotMaximal(5, finite_set({3, 4, 5}))),
    # a disjoint extension, but the missing element is in the target
    (finite_set({1, 3}), NotMaximal(0, finite_set({1, 3, 5}))),
    # a disjoint extension that adds 5, not the missing 7
    (finite_set({1, 3}), NotMaximal(7, finite_set({1, 3, 5}))),
    # a disjoint extension that adds 7 besides the missing 5
    (finite_set({1, 3}), NotMaximal(5, finite_set({1, 3, 5, 7}))),
], ids=[f"verdict{i}" for i in range(6)])
def test_wrong_refutations_fail_verification(candidate, verdict):
    assert not verify_refutation(evens(), candidate, verdict)


def test_not_maximal_refutation_is_verified():
    candidate = finite_set({1, 3})
    verdict = refute_wlp_candidate(evens(), candidate)
    assert verify_refutation(evens(), candidate, verdict)
    assert not verify_refutation(evens(), candidate, NotMaximal(5, candidate))


def test_candidate_enumeration_order():
    cands = list(enumerate_candidates(evens(), 6))
    assert [format_evset(c) for c in cands] == [
        "finite{}", "finite{1}", "finite{3}", "finite{5}",
        "finite{7}", "finite{9}"]


def test_candidate_enumeration_order_with_a_head():
    target = parse_evset("periodic(4; 0,3; 12; 1,2,5,7,11)")
    assert target.head == frozenset({0, 3}) and target.period == 12
    assert [format_evset(c) for c in enumerate_candidates(target, 20)] == [
        "finite{}", "finite{1}", "finite{2}", "finite{4}", "finite{6}",
        "finite{8}", "finite{9}", "finite{10}", "finite{12}", "finite{15}",
        "finite{16}", "finite{18}", "finite{20}", "finite{21}", "finite{22}",
        "finite{24}", "finite{27}", "finite{28}", "finite{30}", "finite{32}"]


@pytest.mark.parametrize("count", [0, 1, 7, 250])
def test_exactly_count_candidates(count):
    assert len(list(enumerate_candidates(odds(), count))) == count


def test_negative_candidate_count_is_refused():
    with pytest.raises(ModelError):
        next(enumerate_candidates(evens(), -1))


def test_long_head_is_absorbed_in_one_pass():
    assert finite_set({100000}).union(evens()) == evens()
    s = EvPeriodicSet(20000, frozenset(range(0, 20000, 2)), 2, frozenset({0}))
    assert s == evens()


# ---------------------------------------------------------------------------
# properties

@st.composite
def _evsets(draw):
    n = draw(st.integers(0, 6))
    head = draw(st.frozensets(st.integers(0, max(n - 1, 0)), max_size=6)) \
        if n else frozenset()
    head = frozenset(x for x in head if x < n)
    p = draw(st.integers(1, 6))
    res = draw(st.frozensets(st.integers(0, p - 1), max_size=6))
    return EvPeriodicSet(n, head, p, res)


def _same_members(a, b, horizon=200):
    return all((k in a) == (k in b) for k in range(horizon))


@given(_evsets(), _evsets())
def test_ops_are_pointwise(a, b):
    u = a.union(b)
    i = a.intersect(b)
    d = a.difference(b)
    for k in range(0, 80):
        assert (k in u) == ((k in a) or (k in b))
        assert (k in i) == ((k in a) and (k in b))
        assert (k in d) == ((k in a) and (k not in b))


@given(_evsets())
def test_complement_involution(a):
    assert a.complement().complement() == a
    for k in range(0, 60):
        assert (k in a) != (k in a.complement())


@given(_evsets(), _evsets())
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersect(b.complement())


@given(_evsets(), _evsets())
def test_test_algebra_closed(a, b):
    # finite-or-cofinite sets are closed under the operations
    if in_test_algebra(a) and in_test_algebra(b):
        assert in_test_algebra(a.union(b))
        assert in_test_algebra(a.intersect(b))
        assert in_test_algebra(a.complement())


@given(_evsets(), _evsets(), _evsets())
def test_kat_spot_laws(a, b, c):
    # join/meet laws of the powerset KAT restricted to these carriers
    assert a.union(a) == a
    assert a.union(b) == b.union(a)
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
    assert a.union(b).intersect(c) == a.intersect(c).union(b.intersect(c))
    assert a.union(empty_set()) == a
    assert a.intersect(full_set()) == a
    assert a.intersect(empty_set()) == empty_set()


@given(st.frozensets(st.integers(0, 40), max_size=8))
def test_refuter_property_on_finite_candidates(elems):
    # any finite set of odds is refuted by a strictly larger disjoint test
    candidate = finite_set({2 * x + 1 for x in elems})
    verdict = refute_wlp_candidate(evens(), candidate)
    assert isinstance(verdict, NotMaximal)
    ext = verdict.extension
    assert in_test_algebra(ext)
    assert candidate.leq(ext) and not ext.leq(candidate)
    assert ext.intersect(evens()) == empty_set()
    assert verdict.missing not in candidate


# ---------------------------------------------------------------------------
# the bit patterns against the frozenset oracle

@st.composite
def _raw_sets(draw):
    """(threshold, head, period, residues) with thresholds up to 40 and
    periods up to 24.  The residues repeat a pattern of a random divisor of
    the period and the head follows the tail from a random cut, so both the
    period and the threshold usually shrink on canonicalisation."""
    n = draw(st.integers(0, 40))
    p = draw(st.integers(1, 24))
    d = draw(st.sampled_from([d for d in range(1, p + 1) if p % d == 0]))
    pattern = draw(st.frozensets(st.integers(0, d - 1)))
    res = frozenset(c for c in range(p) if c % d in pattern)
    cut = draw(st.integers(0, n))
    low = draw(st.frozensets(st.integers(0, cut - 1))) if cut else frozenset()
    return n, low | {k for k in range(cut, n) if k % p in res}, p, res


def _canon(s):
    return s.threshold, s.head, s.period, s.residues


def _both(raw):
    return EvPeriodicSet(*raw), NaiveEvPeriodicSet(*raw)


@given(_raw_sets())
def test_unary_views_match_the_oracle(raw):
    s, naive = _both(raw)
    assert _canon(s) == _canon(naive)
    assert _canon(s.complement()) == _canon(naive.complement())
    assert s.least() == naive.least()
    assert format_evset(s) == naive_format_evset(naive)
    assert [k in s for k in range(200)] == [k in naive for k in range(200)]
    assert (s.is_finite, s.is_cofinite, s.is_empty) == \
        (naive.is_finite, naive.is_cofinite, naive.is_empty)


def test_canonical_form_matches_the_oracle_on_every_word():
    # every residue word of every period up to 12 (8,190 words), with no
    # head and with a 5-element head that follows the tail, at every element
    # or all but the last
    for p in range(1, 13):
        for word in range(1 << p):
            res = frozenset(c for c in range(p) if word >> c & 1)
            follows = frozenset(k for k in range(5) if k % p in res)
            for raw in ((0, (), p, res), (5, follows, p, res),
                        (5, follows ^ {4}, p, res)):
                assert _canon(EvPeriodicSet(*raw)) == \
                    _canon(NaiveEvPeriodicSet(*raw)), raw


@given(_raw_sets(), _raw_sets())
def test_binary_ops_match_the_oracle(raw_a, raw_b):
    (a, naive_a), (b, naive_b) = _both(raw_a), _both(raw_b)
    for op in ("union", "intersect", "difference"):
        assert _canon(getattr(a, op)(b)) == _canon(getattr(naive_a, op)(naive_b))
    assert a.leq(b) == naive_a.leq(naive_b)
    assert a.isdisjoint(b) == naive_a.intersect(naive_b).is_empty
    assert a.union(b).leq(a) == naive_a.union(naive_b).leq(naive_a)


def _seeded_periodic(seed, period, count):
    rng = random.Random(seed)
    threshold = rng.randint(0, 8)
    head = frozenset(k for k in range(threshold) if rng.random() < 0.5)
    return threshold, head, period, frozenset(rng.sample(range(period), count))


@pytest.mark.parametrize("raw", [
    (0, (), 2, {0}), (0, (), 2, {1}),
    _seeded_periodic(3, 12, 5), _seeded_periodic(7, 10, 3),
])
def test_first_500_candidates_match_the_oracle(raw):
    target, naive = _both(raw)
    assert not in_test_algebra(target)
    ours = enumerate_candidates(target, 500)
    theirs = naive_enumerate_candidates(naive, 500)
    assert [_canon(c) for c in ours] == [_canon(c) for c in theirs]


@st.composite
def _test_algebra_raw(draw):
    """A finite or a cofinite set as (threshold, head, period, residues),
    with elements or exceptions below 40."""
    n = draw(st.integers(0, 40))
    head = draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    return n, head, 1, draw(st.sampled_from([frozenset(), frozenset({0})]))


@given(_raw_sets(), _test_algebra_raw())
def test_refuter_matches_the_oracle(raw_target, raw_candidate):
    target, naive_target = _both(raw_target)
    candidate, naive_candidate = _both(raw_candidate)
    assume(not in_test_algebra(target))
    verdict = refute_wlp_candidate(target, candidate)
    if isinstance(verdict, NotAPrecondition):
        got = "witness", verdict.witness
    else:
        got = "missing", verdict.missing, _canon(verdict.extension)
    expected = naive_refute_wlp_candidate(naive_target, naive_candidate)
    assert got == expected[:2] + tuple(map(_canon, expected[2:]))
    assert verify_refutation(target, candidate, verdict)

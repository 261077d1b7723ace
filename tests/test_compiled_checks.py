"""The compiled law checker and the bitmask phi scan against naive oracles.

Every report must equal the naive oracle's exactly: violations, first
violating assignments, instance counts (total and per law) and the phi
witness with its instantiation count.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kadlab.algebra import (FiniteAlgebra, Profile, bool2_model, check_axioms,
                            check_phi, lemma4_model, near_as_model,
                            trivial_model)
from kadlab.errors import KadlabError
from kadlab.relations import RelModel, StateSpace, rel_algebra_model
from kadlab.search import _enumerate_models, find_models

from naive_oracle import naive_check_axioms, naive_check_phi

BUILTINS = {
    "lemma4": lemma4_model, "bool2": bool2_model, "trivial": trivial_model,
    "nearas": near_as_model, "rel1": lambda: rel_algebra_model(1),
    "rel2": lambda: rel_algebra_model(2),
}


def _outcome(check, *args):
    try:
        return check(*args)
    except KadlabError as e:
        return type(e).__name__, str(e)


def assert_same_reports(model, oracle=None):
    """Compiled and naive checks agree on every profile and on phi."""
    oracle = model if oracle is None else oracle
    for profile in Profile:
        got = _outcome(check_axioms, model, profile)
        assert got == _outcome(naive_check_axioms, oracle, profile), profile
        if not isinstance(got, tuple):
            assert sum(k for _, k in got.law_instances) == got.instance_count
            assert len(got.law_instances) == got.axiom_count
    if model.has_op("complement"):
        assert check_phi(model) == naive_check_phi(oracle)


def product_model(*factors, seed=0):
    """The direct product of the factors, its carrier in a shuffled order."""
    tuples = list(product(*(range(f.size) for f in factors)))
    random.Random(seed).shuffle(tuples)
    pos = {t: k for k, t in enumerate(tuples)}
    names = ["_".join(f.element_name(a) for f, a in zip(factors, t))
             for t in tuples]

    def binary(op):
        return [[pos[tuple(getattr(f, op)(a, b) for f, a, b in zip(factors, s, t))]
                 for t in tuples] for s in tuples]

    def unary(op):
        if not all(f.has_op(op) for f in factors):
            return None
        return [pos[tuple(getattr(f, op)(a) for f, a in zip(factors, s))]
                for s in tuples]

    def name_of(t):
        return names[pos[t]]

    adom = unary("adom")
    tests = complement = None
    if adom is None and all(f.has_op("complement") for f in factors):
        test_tuples = list(product(*(f.tests_i for f in factors)))
        tests = [name_of(t) for t in test_tuples]
        complement = {name_of(t): name_of(tuple(f.complement(a)
                                                for f, a in zip(factors, t)))
                      for t in test_tuples}
    return FiniteAlgebra(
        names, name_of(tuple(f.zero_i for f in factors)),
        name_of(tuple(f.one_i for f in factors)),
        binary("plus"), binary("times"), star=unary("star"), adom=adom,
        aran=unary("aran"), tests=tests, complement=complement,
        name="x".join(f.name for f in factors))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtins_match_oracle(name):
    assert_same_reports(BUILTINS[name]())


def test_relation_model_is_tabulated_once_and_matches_oracle():
    assert_same_reports(RelModel(StateSpace.of_size(2)), rel_algebra_model(2))


@pytest.mark.parametrize("profile", list(Profile))
def test_searched_models_match_oracle(profile):
    # every candidate up to size 3, failing ones included, and every model
    # the search keeps at size 4
    for size in (1, 2, 3):
        for model in _enumerate_models(size, profile):
            assert check_axioms(model, profile) == naive_check_axioms(model, profile)
    for model in find_models(4, profile):
        assert_same_reports(model)


@pytest.mark.parametrize("factors", [
    ("lemma4", "lemma4"), ("nearas", "lemma4"), ("lemma4", "bool2", "bool2"),
    ("nearas", "nearas"), ("nearas", "bool2", "bool2"),
])
def test_product_models_match_oracle(factors):
    model = product_model(*(BUILTINS[f]() for f in factors))
    assert 9 <= model.size <= 16
    assert_same_reports(model)


@st.composite
def random_algebras(draw):
    """Arbitrary tables of size 1-4; most laws fail somewhere in them."""
    n = draw(st.integers(1, 4))
    idx = st.integers(0, n - 1)
    zero, one = draw(idx), draw(idx)
    row = st.lists(idx, min_size=n, max_size=n)
    table = st.lists(row, min_size=n, max_size=n)
    # a chain join makes the star induction premises hold often
    plus = draw(table | st.just([[max(i, j) for j in range(n)] for i in range(n)]))
    times = draw(table)
    star, adom, aran = (draw(st.none() | row) for _ in range(3))
    tests = complement = None
    if adom is not None:
        # the antidomain's image is the test set, which must hold 0 and 1
        spots = draw(st.permutations(range(n)))
        adom[spots[0]], adom[spots[-1]] = zero, one
    elif draw(st.booleans()):
        others = [i for i in range(n) if i not in (zero, one)]
        tests = sorted({zero, one} | set(draw(st.sets(st.sampled_from(others))
                                              if others else st.just(set()))))
        order = draw(st.permutations(tests))
        swaps = draw(st.lists(st.booleans(), min_size=len(order) // 2,
                              max_size=len(order) // 2))
        complement = {t: t for t in order}
        for k, swap in enumerate(swaps):
            a, b = order[2 * k], order[2 * k + 1]
            if swap:
                complement[a], complement[b] = b, a
    names = [f"e{i}" for i in range(n)]
    return FiniteAlgebra(
        names, names[zero], names[one], plus, times, star=star, adom=adom,
        aran=aran, tests=None if tests is None else [names[t] for t in tests],
        complement=None if complement is None else {
            names[k]: names[v] for k, v in complement.items()},
        name="random")


@settings(max_examples=150, deadline=None)
@given(random_algebras())
def test_random_tables_match_oracle(model):
    assert_same_reports(model)


def test_per_law_counts_follow_check_order():
    report = check_axioms(lemma4_model(), Profile.KAT)
    names = [name for name, _ in report.law_instances]
    assert names[:3] == ["plus-assoc", "plus-comm", "plus-zero"]
    assert dict(report.law_instances)["plus-assoc"] == 27
    assert dict(report.law_instances)["test-times-comm"] == 4
    assert sum(k for _, k in report.law_instances) == report.instance_count


def test_counts_stop_at_the_first_violation():
    # plus-idem fails first at x = a in a 3-chain whose a + a = 1
    plus = [[max(i, j) for j in range(3)] for i in range(3)]
    plus[1][1] = 2
    m = FiniteAlgebra(["0", "a", "1"], "0", "1", plus,
                      [[0, 0, 0], [0, 1, 1], [0, 1, 2]])
    report = check_axioms(m, Profile.DIOID)
    assert dict(report.law_instances)["plus-idem"] == 2
    assert [v.axiom for v in report.violations][-1] == "plus-idem"


def test_phi_counts_instantiations():
    assert check_phi(rel_algebra_model(2)).instantiations == 16 * 16 * 4 * 4
    # lemma4 fails at x = y = a, p = 1, q = 0: the 19th (x, y, p, q)
    assert check_phi(lemma4_model()).instantiations == ((1 * 3 + 1) * 2 + 1) * 2 + 0 + 1

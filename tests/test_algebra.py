from itertools import product

import pytest

from kadlab.algebra import (FiniteAlgebra, Profile, bool2_model, check_axioms,
                            check_phi, evaluate,
                            is_isomorphic, lemma4_model, near_as_model,
                            profile_axioms, required_ops, trivial_model)
from kadlab.cli import BUILTIN_MODELS
from kadlab.errors import EvalError, KadlabError, MissingTableError, ModelError
from kadlab.files import load_model
from kadlab.relations import rel_algebra_model
from kadlab.search import find_models
from kadlab.terms import Env, parse_term
from test_files import _BASES


# ---------------------------------------------------------------------------
# the three-element counterexample

def test_lemma4_tables():
    m = lemma4_model()
    times = lambda a, b: m.element_name(m.times(m.index(a), m.index(b)))
    plus = lambda a, b: m.element_name(m.plus(m.index(a), m.index(b)))
    star = lambda a: m.element_name(m.star(m.index(a)))
    assert times("a", "a") == "0"
    assert star("a") == "1"
    assert plus("a", "1") == "1"
    assert star("0") == "1" and star("1") == "1"
    assert m.tests == ("0", "1")


def test_lemma4_eval_examples():
    m = lemma4_model()
    assert evaluate(m, parse_term("1 ; a ; a ; !0")) == "0"
    # recomputed from the tables: 1;a;!0 = 1;a;1 = a
    assert evaluate(m, parse_term("1 ; a ; !0")) == "a"


def test_eval_unit_law_everywhere():
    for m in (lemma4_model(), bool2_model(), near_as_model()):
        for e in m.carrier:
            env = Env(elements={"x": e})
            assert evaluate(m, parse_term("1 ; x"), env) == e


def test_lemma4_is_a_kat_independent_check():
    # independent of check_axioms: walk the tables directly
    m = lemma4_model()
    n = m.size
    rng = range(n)
    for x, y, z in product(rng, repeat=3):
        assert m.plus(m.plus(x, y), z) == m.plus(x, m.plus(y, z))
        assert m.times(m.times(x, y), z) == m.times(x, m.times(y, z))
        assert m.times(x, m.plus(y, z)) == m.plus(m.times(x, y), m.times(x, z))
        assert m.times(m.plus(x, y), z) == m.plus(m.times(x, z), m.times(y, z))
    for x in rng:
        assert m.plus(x, x) == x
        assert m.plus(m.one_i, m.times(x, m.star(x))) == m.star(x)
        assert m.plus(m.one_i, m.times(m.star(x), x)) == m.star(x)
    for x, y, z in product(rng, repeat=3):
        if m.leq(m.plus(z, m.times(x, y)), y):
            assert m.leq(m.times(m.star(x), z), y)
        if m.leq(m.plus(z, m.times(y, x)), y):
            assert m.leq(m.times(z, m.star(x)), y)
    for p in m.tests_i:
        c = m.complement(p)
        assert m.times(p, c) == m.zero_i
        assert m.plus(p, c) == m.one_i


def test_lemma4_passes_kat():
    report = check_axioms(lemma4_model(), Profile.KAT)
    assert report.passed, [str(v) for v in report.violations]


def test_lemma4_has_no_antidomain():
    with pytest.raises(MissingTableError):
        check_axioms(lemma4_model(), Profile.KAD)


def test_lemma4_refutes_phi():
    result = check_phi(lemma4_model())
    assert not result.holds
    assert result.witness == ("a", "a", "1", "0")


def test_phi_trivial_model():
    m = trivial_model()
    assert m.tests == ("0",)
    assert check_phi(m).holds


def test_phi_on_relational_kad():
    assert check_phi(rel_algebra_model(2)).holds


# ---------------------------------------------------------------------------
# axiom checking on broken models

def test_broken_plus_unit_reports_violation():
    broken = FiniteAlgebra(
        ["0", "1"], "0", "1",
        [[0, 1], [1, 0]],  # 1 + 1 = 0 breaks idempotence, x + 0 ok
        [[0, 0], [0, 1]], name="broken")
    report = check_axioms(broken, Profile.DIOID)
    assert not report.passed
    names = {v.axiom for v in report.violations}
    assert "plus-idem" in names


def test_broken_zero_unit():
    broken = FiniteAlgebra(
        ["0", "1"], "0", "1",
        [[1, 1], [1, 1]],  # x + 0 != x
        [[0, 0], [0, 1]], name="broken2")
    report = check_axioms(broken, Profile.SEMIRING)
    assert not report.passed
    v = next(v for v in report.violations if v.axiom == "plus-zero")
    assert v.assignment == (("x", "0"),)


def test_violation_is_first_in_carrier_order():
    m = FiniteAlgebra(
        ["0", "a", "1"], "0", "1",
        [[0, 1, 2], [1, 1, 1], [2, 1, 2]],  # a+1 = a breaks nothing?? -> comm ok; assoc broken
        [[0, 0, 0], [0, 0, 1], [0, 1, 2]], name="weird")
    report = check_axioms(m, Profile.SEMIRING)
    assert not report.passed


# ---------------------------------------------------------------------------
# antidomain structure

AS_BUILTINS = [trivial_model, bool2_model,
               lambda: rel_algebra_model(1), lambda: rel_algebra_model(2)]


# the tests of each are the image of its antidomain
AS_TEST_COUNTS = {"trivial": 1, "bool2": 2, "rel1": 2, "rel2": 4}


@pytest.mark.parametrize("factory", AS_BUILTINS)
def test_as_builtins_pass_as(factory):
    m = factory()
    report = check_axioms(m, Profile.AS)
    assert report.passed, [str(v) for v in report.violations]
    assert len(m.tests) == AS_TEST_COUNTS[m.name]
    assert check_axioms(m, Profile.TS).passed


@pytest.mark.parametrize("factory", AS_BUILTINS)
def test_weak_locality_exhaustive(factory):
    # x;y = 0 iff x;d(y) = 0
    m = factory()
    d = lambda i: m.adom(m.adom(i))
    for x, y in product(range(m.size), repeat=2):
        assert (m.times(x, y) == m.zero_i) == (m.times(x, d(y)) == m.zero_i)


@pytest.mark.parametrize("factory", AS_BUILTINS)
def test_domain_is_a_retraction(factory):
    m = factory()
    d = lambda i: m.adom(m.adom(i))
    image = {d(x) for x in range(m.size)}
    for x in range(m.size):
        assert d(d(x)) == d(x)
        # fixpoints of d are exactly its image
        assert (x in image) == (d(x) == x)
        assert m.times(m.adom(x), x) == m.zero_i
        assert m.plus(m.adom(x), d(x)) == m.one_i


@pytest.mark.parametrize("factory", AS_BUILTINS)
def test_as_implies_dioid(factory):
    assert check_axioms(factory(), Profile.DIOID).passed


@pytest.mark.parametrize("factory", AS_BUILTINS)
def test_phi_holds_on_antidomain_models(factory):
    assert check_phi(factory()).holds


# ---------------------------------------------------------------------------
# the near-semiring witness

def test_near_as_model_passes_near_as():
    report = check_axioms(near_as_model(), Profile.NEAR_AS)
    assert report.passed, [str(v) for v in report.violations]


def test_near_as_model_fails_left_distributivity():
    report = check_axioms(near_as_model(), Profile.SEMIRING)
    assert {v.axiom for v in report.violations} == {"distrib-left"}


def test_near_as_model_satisfies_phi():
    assert check_phi(near_as_model()).holds


def test_kadr_compatibility_laws():
    for factory in (trivial_model, bool2_model, lambda: rel_algebra_model(2)):
        m = factory()
        assert check_axioms(m, Profile.KA_DR).passed
        for x in range(m.size):
            ar = m.aran(x)
            assert m.adom(m.adom(ar)) == ar
            a = m.adom(x)
            assert m.aran(m.aran(a)) == a


def test_required_ops_are_the_operations_the_laws_read():
    assert {p.value: set(required_ops(p)) for p in Profile} == {
        "semiring": set(), "dioid": set(), "kleene": {"star"},
        "ts": {"tests"}, "kat": {"star", "tests"}, "as": {"adom"},
        "near-as": {"adom"}, "kad": {"star", "adom"}, "ars": {"aran"},
        "kadr": {"star", "adom", "aran"}}


# ---------------------------------------------------------------------------
# construction validation

def test_tests_must_match_adom_image():
    with pytest.raises(ModelError):
        FiniteAlgebra(["0", "1"], "0", "1", [[0, 1], [1, 1]],
                      [[0, 0], [0, 1]], adom=[1, 0], tests=["0"])


def test_tests_need_complement_without_adom():
    with pytest.raises(ModelError):
        FiniteAlgebra(["0", "1"], "0", "1", [[0, 1], [1, 1]],
                      [[0, 0], [0, 1]], tests=["0", "1"])


def test_complement_must_be_involution():
    with pytest.raises(ModelError):
        FiniteAlgebra(["0", "a", "1"], "0", "1",
                      [[max(i, j) for j in range(3)] for i in range(3)],
                      [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
                      tests=["0", "a", "1"],
                      complement={"0": "1", "1": "0", "a": "1"})


# a three-element carrier 0 < a < 1 whose tests, when declared, are 0 and 1
_CHAIN = (["0", "a", "1"], "0", "1",
          [[max(i, j) for j in range(3)] for i in range(3)],
          [[min(i, j) for j in range(3)] for i in range(3)])


@pytest.mark.parametrize("args,kwargs,message", [
    (([], "0", "1", [], []), {}, "empty carrier"),
    ((["0", "0"], "0", "0", [[0, 0], [0, 0]], [[0, 0], [0, 0]]), {},
     "duplicate carrier element names"),
    (_CHAIN, {"complement": {"0": "1", "1": "0"}},
     "complement table given without tests"),
    (_CHAIN, {"tests": ["0", "1"], "complement": {"0": "a", "1": "0"}},
     "complement row 0 -> a leaves the test set"),
    (_CHAIN, {"tests": ["0", "1"], "complement": {"0": "1"}},
     "complement table must cover exactly the tests"),
    (_CHAIN, {"adom": [2, 0, 0], "complement": {"0": "0", "1": "1"}},
     "complement table disagrees with antidomain on tests"),
    ((["0", "1"], "0", "1", None, [[0, 0], [0, 1]]), {},
     "plus table is required"),
    ((["0", "1"], "0", "1", [[0, 1], [1, 1]], [[0, 0]]), {},
     "times table must be 2x2"),
])
def test_construction_errors(args, kwargs, message):
    with pytest.raises(ModelError) as info:
        FiniteAlgebra(*args, **kwargs)
    assert (type(info.value), str(info.value)) == (ModelError, message)


def test_missing_tables_and_unknown_names():
    untested = FiniteAlgebra(*_CHAIN)
    with pytest.raises(MissingTableError, match="^lemma4: no antirange table$"):
        lemma4_model().aran(0)
    with pytest.raises(MissingTableError, match="^algebra: no tests declared$"):
        untested.complement(0)
    with pytest.raises(ValueError, match="^unknown op 'plus'$"):
        untested.has_op("plus")
    with pytest.raises(ModelError) as info:
        check_phi(untested)
    assert (type(info.value), str(info.value)) == (
        ModelError, "algebra: phi needs tests and a complement "
        "(or an antidomain table)")
    with pytest.raises(ModelError) as info:
        Profile.parse("kadt")
    assert (type(info.value), str(info.value)) == (
        ModelError, "unknown profile 'kadt' (one of semiring, dioid, kleene, "
        "ts, kat, as, near-as, kad, ars, kadr)")


@pytest.mark.parametrize("bad", [2, -1, None, "1", [0], 0.5])
def test_table_values_must_be_indices(bad):
    plus, times = [[0, 1], [1, 1]], [[0, 0], [0, 1]]
    with pytest.raises(ModelError, match="plus table value out of range"):
        FiniteAlgebra(["0", "1"], "0", "1", [[0, 1], [1, bad]], times)
    with pytest.raises(ModelError, match="times table value out of range"):
        FiniteAlgebra(["0", "1"], "0", "1", plus, [[0, 0], [bad, 1]])
    with pytest.raises(ModelError, match="star table must have 2 in-range"):
        FiniteAlgebra(["0", "1"], "0", "1", plus, times, star=[1, bad])


def test_eval_errors():
    m = lemma4_model()
    with pytest.raises(EvalError):
        evaluate(m, parse_term("x ; y"))  # unbound
    with pytest.raises(EvalError):
        evaluate(m, parse_term("!q"), Env(tests={"q": "a"}))  # not a test
    with pytest.raises(MissingTableError):
        evaluate(m, parse_term("a(x)"), Env(elements={"x": "a"}))


def test_profiles_are_cumulative():
    names = {p: {law.name for law in profile_axioms(p)} for p in Profile}
    assert names[Profile.KAT] == names[Profile.KLEENE] | names[Profile.TS]
    assert names[Profile.KAD] == names[Profile.KLEENE] | names[Profile.AS]
    assert names[Profile.DIOID] == names[Profile.SEMIRING] | {"plus-idem"}
    assert names[Profile.NEAR_AS] == names[Profile.AS] - {
        "distrib-left", "times-zero"}
    assert names[Profile.KA_DR] >= names[Profile.KAD] | names[Profile.ARS]


def test_isomorphism_checker():
    m = lemma4_model()
    relabeled = FiniteAlgebra(
        ["0", "b", "1"], "0", "1",
        [[max(i, j) for j in range(3)] for i in range(3)],
        [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
        star=[2, 2, 2], tests=["0", "1"],
        complement={"0": "1", "1": "0"}, name="relabeled")
    assert is_isomorphic(m, relabeled)
    assert not is_isomorphic(m, bool2_model())


# ---------------------------------------------------------------------------
# the test complement: given, or the antidomain on the tests

def _with_explicit_complement(m):
    """The model, its complement also given as a table equal to adom."""
    tb, names = m.tables, m.carrier
    return FiniteAlgebra(
        names, m.zero, m.one, tb.plus, tb.times, star=tb.star, adom=tb.adom,
        aran=tb.aran, tests=m.tests, name=m.name,
        complement={names[t]: names[tb.adom[t]] for t in tb.tests})


def _report(m, profile):
    try:
        report = check_axioms(m, profile)
    except KadlabError as e:
        return type(e), str(e)
    return report.violations, report.law_instances


ADOM_BUILTINS = ["bool2", "nearas", "rel1", "rel2", "trivial"]


@pytest.mark.parametrize("name", ADOM_BUILTINS)
def test_given_complement_equal_to_adom_changes_no_verdict(name):
    derived = BUILTIN_MODELS[name]()
    given = _with_explicit_complement(derived)
    for profile in Profile:
        assert _report(given, profile) == _report(derived, profile), profile
    assert check_phi(given) == check_phi(derived)
    assert is_isomorphic(given, derived) and is_isomorphic(derived, given)
    for other in BUILTIN_MODELS.values():
        other = other()
        assert is_isomorphic(given, other) == is_isomorphic(derived, other)


def _every_model():
    yield from (factory() for factory in BUILTIN_MODELS.values())
    yield from (load_model(text) for text in _BASES)
    for profile in Profile:
        for size in range(1, 5):
            yield from find_models(size, profile)


def test_a_complement_exactly_when_tests():
    models = 0
    for m in _every_model():
        models += 1
        tests = m.tests_i or ()
        assert m.has_op("complement") == m.has_op("tests") == bool(tests)
        assert m.tables.is_test == tuple(i in tests for i in range(m.size))
        assert sorted(map(m.complement, tests)) == list(tests), m.name
    assert models == 6 + len(_BASES) + 154

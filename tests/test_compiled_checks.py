"""The compiled law checker and the bitmask phi scan against naive oracles.

Every report must equal the naive oracle's exactly: violations, first
violating assignments, instance counts (total and per law) and the phi
witness with its instantiation count.
"""

import cProfile
import pstats
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kadlab.algebra import (Equation, FiniteAlgebra, Profile, Quasi,
                            _compile, _require_profile_ops,
                            bool2_model, check_axioms, check_phi, check_rules,
                            hoare_rules, lemma4_model, near_as_model,
                            profile_axioms, trivial_model)
from kadlab.errors import KadlabError
from kadlab.relations import rel_algebra_model
from kadlab.search import _enumerate_models, _plan, find_models
from kadlab.terms import ONE, Plus, Times, Var

from naive_oracle import (naive_check_axioms, naive_check_phi,
                          naive_partial_violations, naive_preimages)

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


def assert_same_reports(model):
    """Compiled and naive checks agree on every profile, on the Hoare rules
    of KAT and KAD and on phi."""
    for profile in Profile:
        got = _outcome(check_axioms, model, profile)
        assert got == _outcome(naive_check_axioms, model, profile), profile
        if not isinstance(got, tuple):
            assert sum(k for _, k in got.law_instances) == got.instance_count
            assert len(got.law_instances) == got.axiom_count
    for profile in (Profile.KAT, Profile.KAD):
        got = _outcome(check_rules, model, profile)
        assert got == _outcome(naive_check_axioms, model, profile,
                               hoare_rules(profile)), profile
    if model.has_op("complement"):
        assert check_phi(model) == naive_check_phi(model)


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


@pytest.mark.parametrize("profile", list(Profile))
def test_searched_models_match_oracle(profile):
    # every candidate up to size 3 and every model the search keeps at size
    # 4, on every profile, the Hoare rules and phi: a candidate of one
    # profile may fail another's laws, so violations are compared too
    for size in (1, 2, 3):
        for model in _enumerate_models(size, profile):
            assert_same_reports(model)
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


@pytest.mark.parametrize("factors", [
    ("lemma4", "lemma4", "lemma4"), ("nearas", "lemma4", "bool2"),
    ("lemma4", "bool2", "bool2", "bool2"), ("rel2", "bool2"),
    ("rel2", "rel1"), ("nearas", "bool2", "bool2", "bool2"),
    ("rel1", "rel1", "rel1", "rel1", "bool2"),
])
def test_phi_on_products_matches_oracle(factors):
    # phi alone on products of up to 32 elements, where prefixes p;x repeat
    # across many (x, p)
    model = product_model(*(BUILTINS[f]() for f in factors))
    assert 24 <= model.size <= 32
    assert check_phi(model) == naive_check_phi(model)


def test_phi_matches_oracle_in_every_carrier_order_of_lemma4():
    # lemma4 fails only at x = y = a: with a last, the scan of each prefix
    # p;x must reach the carrier's last y
    orders = {}
    for seed in range(20):
        model = product_model(lemma4_model(), seed=seed)
        orders[model.carrier] = model
    assert len(orders) == 6
    for model in orders.values():
        assert check_phi(model) == naive_check_phi(model)


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


@settings(max_examples=100, deadline=None)
@given(random_algebras())
def test_fused_partial_nest_fails_when_a_law_does(model):
    # on complete tables, a profile's laws fused into one partial-table
    # nest (as model search runs them) fail exactly when check_axioms does
    for profile in Profile:
        try:
            passed = check_axioms(model, profile).passed
        except KadlabError:
            continue
        run = _compile(profile_axioms(profile), partial=True)
        assert (run(*model.tables) is None) == passed


def test_fused_nest_recomputes_what_a_premise_guards():
    # x* ; z is computed under star-induct-left's premise; a later law of
    # the nest must compute it afresh, or it reads a stale value
    induct = next(law for law in profile_axioms(Profile.KLEENE)
                  if law.name == "star-induct-left")
    s = induct.conclusion[0]
    reuse = Equation("reuse", s, Times(s.left, Times(s.right, ONE)))
    for model in (lemma4_model(), bool2_model(), rel_algebra_model(2)):
        assert _compile((induct, reuse))(*model.tables) is None


def padded_tables(tb, rnd):
    """The tables with about a third of the cells blanked to the absorbing
    unknown index n, as model search leaves them."""
    n = tb.n

    def blank(row):
        return [n if rnd.random() < 0.3 else v for v in row] + [n]

    def unary(t):
        return None if t is None else blank(t)

    return tb._replace(
        plus=[blank(row) for row in tb.plus] + [[n] * (n + 1)],
        times=[blank(row) for row in tb.times] + [[n] * (n + 1)],
        star=unary(tb.star), adom=unary(tb.adom), aran=unary(tb.aran),
        complement=tb.complement and {**tb.complement, n: n})


@settings(max_examples=60, deadline=None)
@given(random_algebras(), st.randoms(use_true_random=False))
def test_partial_nests_skip_unknown_cells(model, rnd):
    # each law compiled for partial tables must report the first instance
    # the naive partial reading finds
    padded = padded_tables(model.tables, rnd)
    # a premise whose right side is compound, so that it can be unknown
    x, y = Var("x"), Var("y")
    laws = {0: Quasi("unknown-bound", ((x, Times(x, y)),), (y, x))}
    for profile in Profile:
        try:
            _require_profile_ops(model, profile)
        except KadlabError:
            continue
        laws.update((id(law), law) for law in profile_axioms(profile))
    for law in laws.values():
        expected = naive_partial_violations(padded, law)
        found = _compile((law,), partial=True)(*padded)
        assert (found and found[0]) == (expected[0] if expected else None), \
            law.name


@settings(max_examples=80, deadline=None)
@given(random_algebras(), st.randoms(use_true_random=False))
def test_pinned_checks_read_the_filled_cell(model, rnd):
    # model search fills + and ; cell by cell: it runs every law of the
    # stage once, when it enters the stage, and after each cell only the
    # instances of the pinned laws that read it (or its mirror in a
    # symmetric table); both must fail exactly when a law does.  The tables
    # here need not be symmetric, so an instance that reads only the mirror
    # need not have a mirror image that reads the cell.  The pinned checks
    # read the filled cells by value from lists built here naively.
    tb = model.tables
    n = tb.n
    for profile in Profile:
        try:
            _require_profile_ops(model, profile)
        except KadlabError:
            continue
        for stage in _plan(profile):
            if stage.at is None:
                continue
            padded = padded_tables(tb, rnd)
            table, full = getattr(padded, stage.name), getattr(tb, stage.name)
            cells = list(product(range(n), repeat=2))

            def at(t, cell):
                return t[cell[0]][cell[1]]

            def put(cell, v):
                table[cell[0]][cell[1]] = v

            def fails(laws):
                return any(naive_partial_violations(padded, law)
                           for law in laws)

            # the stage's entry check runs on whatever the tables hold
            assert ((stage.full(*padded) is not None)
                    == fails(stage.laws)), (profile, stage.name)
            # later cells: fill the table in a random order, leaving blank
            # the cells skipped and those a law refuted, then fill each blank
            for cell in cells:
                put(cell, n)
            rnd.shuffle(cells)
            for cell in cells:
                if rnd.random() < 0.7:
                    put(cell, at(full, cell))
                    if fails(stage.laws):
                        put(cell, n)
            for cell in [c for c in cells if at(table, c) == n]:
                v = rnd.choice((at(full, cell), rnd.randrange(n)))
                mirror = cell[::-1] if stage.symmetric else cell
                before = at(table, mirror)
                put(cell, v)
                put(mirror, v)
                i, j = cell
                pre = naive_preimages(padded)
                found = (stage.at(*padded, *pre, i, j) is not None
                         or stage.symmetric and i != j
                         and stage.at(*padded, *pre, j, i) is not None)
                assert found == fails(stage.pinned), (
                    profile, stage.name, cell)
                put(mirror, before)
                put(cell, n)


def test_pinned_guards_outside_every_loop():
    # an occurrence with a repeated variable or a constant argument reads
    # the cell only if the cell's coordinates match, tested before any loop
    x = Var("x")
    square = Equation("square", Times(x, x), x)
    unit = Equation("unit", Times(ONE, ONE), ONE)
    tb = lemma4_model().tables
    pre = naive_preimages(tb)
    run = _compile((square, unit), partial=True, pin=Times)
    assert run(*tb, *pre, 1, 1) == ((1,), 0, 1)       # a ; a = 0
    assert run(*tb, *pre, 1, 2) is None and run(*tb, *pre, 2, 2) is None
    off = tb._replace(times=((0, 0, 0), (0, 0, 1), (0, 1, 1)))
    pre = naive_preimages(off)
    assert _compile((unit,), partial=True, pin=Times)(*off, *pre, 2, 2) \
        == ((), 1, 2)
    assert _compile((unit,), partial=True, pin=Times)(*off, *pre, 2, 1) is None


def test_pinned_pairs_read_the_listed_cells():
    # (x + y) ; 1 = x + y pinned to ; at (a, 1): x + y loops over the cells
    # of + that hold a, taken from the list passed in and not from the table
    x, y = Var("x"), Var("y")
    law = Equation("sum-unit", Times(Plus(x, y), ONE), Plus(x, y))
    run = _compile((law,), partial=True, pin=Times)
    tb = lemma4_model().tables
    off = tb._replace(times=((0, 0, 0), (0, 0, 0), (0, 1, 2)))  # a ; 1 = 0
    plus_pre, times_pre = naive_preimages(off)
    assert plus_pre[1] == [(0, 1), (1, 0), (1, 1)]
    assert run(*off, plus_pre, times_pre, 1, 2) == ((0, 1), 0, 1)
    # in padded tables only a + a = a is filled of those three cells
    n = off.n
    padded = off._replace(plus=[[0, n, 2, n], [n, 1, 2, n], [2, 2, 2, n],
                                [n] * (n + 1)])
    plus_pre, times_pre = naive_preimages(padded)
    assert plus_pre[1] == [(1, 1)]
    assert run(*padded, plus_pre, times_pre, 1, 2) == ((1, 1), 0, 1)
    # mutation: with that cell dropped from its list, nothing reads it
    plus_pre[1].remove((1, 1))
    assert run(*padded, plus_pre, times_pre, 1, 2) is None


def test_compiled_functions_name_their_laws():
    x = Var("x")
    square = Equation("square", Times(x, x), x)
    unit = Equation("unit", Times(ONE, ONE), ONE)
    names = [_compile(laws, **kw).__code__.co_filename for laws, kw in [
        ((square,), {}), ((unit,), {}), ((square,), {"partial": True}),
        ((square, unit), {"partial": True, "pin": Times})]]
    assert names == ["<laws square>", "<laws unit>", "<laws square partial>",
                     "<laws square, unit partial pinned at times>"]
    # so a profile lists each law's compiled function apart
    profile = cProfile.Profile()
    profile.runcall(check_axioms, lemma4_model(), Profile.KAT)
    laws = {key for key in pstats.Stats(profile).stats if key[2] == "law"}
    assert len(laws) == len(profile_axioms(Profile.KAT))

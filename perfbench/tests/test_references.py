"""Tests for the benchmark's verdict references and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import references as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# algebra verdicts

@pytest.mark.parametrize("builtin", sorted(ref.BUILTINS))
def test_builtin_table_matches_exhaustive_check(builtin):
    A = ref.BUILTINS[builtin]()
    assert ref.profiles_for(A.ops) == ref.profiles_for(ref.BUILTIN_OPS[builtin])
    for profile in ref.profiles_for(ref.BUILTIN_OPS[builtin]):
        assert ref.failing_laws(A, profile) == ref.builtin_failures(builtin, profile)
    assert ref.phi_holds(A) == ref.builtin_phi(builtin)


def test_lemma4_witness_is_a_a_1_0():
    A = ref.lemma4()
    x, y, p, q = (A.index(e) for e in ref.LEMMA4_PHI_WITNESS)
    assert ref.phi_fails_at(A, x, y, p, q)
    first = next((x, y, p, q) for x in range(3) for y in range(3)
                 for p in A.tests for q in A.tests if ref.phi_fails_at(A, x, y, p, q))
    assert tuple(A.names[i] for i in first) == ref.LEMMA4_PHI_WITNESS


def test_nearas_fails_only_left_distributivity():
    A = ref.nearas()
    assert ref.failing_laws(A, "near-as") == set()
    assert ref.failing_laws(A, "as") == {"distrib-left"}
    e, one, w = (A.index(n) for n in ("e", "1", "w"))
    assert A.times[e][A.plus[one][e]] == w
    assert A.plus[A.times[e][one]][A.times[e][e]] == e


def test_lemma4_times_bool2_refutes_phi():
    factors = ("lemma4", "bool2")
    A = ref.product_table(*(ref.BUILTINS[f]() for f in factors))
    assert A.size == 6
    assert not ref.product_phi(factors)
    assert not ref.phi_holds(A)
    # the lemma4 witness paired with zero tests on the bool2 side
    x, y, p, q = (A.index(f"{e}_0") for e in ("a", "a", "1", "0"))
    assert ref.phi_fails_at(A, x, y, p, q)


@pytest.mark.parametrize("factors", [
    ("lemma4", "bool2"), ("nearas", "lemma4"), ("nearas", "bool2"),
    ("rel1", "nearas"), ("bool2", "bool2", "trivial"),
])
def test_product_rule_matches_exhaustive_check(factors):
    A = ref.product_table(*(ref.BUILTINS[f]() for f in factors))
    ops = ref.product_ops(factors)
    for profile in ref.profiles_for(ops):
        assert ref.failing_laws(A, profile) == ref.product_failures(factors, profile)
    if "tests" in ops:
        assert ref.phi_holds(A) == ref.product_phi(factors)


def test_permuting_the_carrier_keeps_the_canonical_form():
    A = ref.product_table(ref.lemma4(), ref.bool2())
    order = list(range(A.size))
    random.Random(5).shuffle(order)
    B = ref.permuted(A, order)
    assert ref.canonical_form(A) == ref.canonical_form(B)
    assert ref.failing_laws(B, "kat") == set()
    assert ref.canonical_form(ref.lemma4()) != ref.canonical_form(
        ref.product_table(ref.bool2(), ref.bool2()))


def test_rendered_terms_evaluate_by_hand():
    A = ref.bool2()
    one, zero = A.index("1"), A.index("0")
    term = ("box", ("var", "x"), ("0",))          # [x]0 = a(x ; a(0))
    assert ref.render_term(term) == "[x](0)"
    assert ref.eval_term(A, term, {"x": one}) == zero
    assert ref.eval_term(A, term, {"x": zero}) == one
    rng = random.Random(1)
    for _ in range(50):
        t = workloads.random_term(rng, ref.relations(1).ops, 8, ("x",), ("p",))
        ref.eval_term(ref.relations(1), t, {"x": 1, "p": 0})


# ---------------------------------------------------------------------------
# successor-set semantics: states 0 -> 1 -> 2, 2 has no successor

STEP = (frozenset({1}), frozenset({2}), frozenset())
ATOMS = {"x": STEP}
TESTS = {"t": frozenset({0, 1}), "p": frozenset({0})}
LOOP = ("while", ("t", "t"), ("atom", "x"), None)


def test_denotation_of_a_loop_runs_to_the_exit_state():
    assert ref.denotation(LOOP, ATOMS, TESTS, 3) == (
        frozenset({2}), frozenset({2}), frozenset({2}))
    skip_or_step = ("if", ("t", "p"), ("atom", "x"), ("skip",))
    assert ref.denotation(skip_or_step, ATOMS, TESTS, 3) == (
        frozenset({1}), frozenset({1}), frozenset({2}))


def test_wlp_is_vacuous_on_stuck_states():
    assert ref.wlp(STEP, frozenset({2})) == frozenset({1, 2})
    assert ref.triple_holds(frozenset({0}), STEP, frozenset({1}))
    assert not ref.triple_holds(frozenset({0, 1}), STEP, frozenset({1}))


def test_three_state_vcgen_with_an_invariant():
    everything = ("or", ("t", "t"), ("not", ("t", "t")))
    prog = ("while", ("t", "t"), ("atom", "x"), everything)
    pre, post = frozenset({0}), frozenset({2})
    precondition, vcs = ref.vc_conditions(pre, prog, post, ATOMS, TESTS, 3)
    assert precondition == frozenset({0, 1, 2})
    assert vcs == [
        ("precondition", frozenset({0}), frozenset({0, 1, 2})),
        ("while1-preserve", frozenset({0, 1}), frozenset({0, 1, 2})),
        ("while1-exit", frozenset({2}), frozenset({2})),
    ]
    _, vcs = ref.vc_conditions(pre, prog, frozenset({1}), ATOMS, TESTS, 3)
    assert [l <= r for _, l, r in vcs] == [True, True, False]


def test_vcgen_numbers_loops_from_the_back():
    inv = ("t", "t")
    first = ("while", ("t", "p"), ("atom", "x"), inv)
    second = ("while", ("t", "t"), ("atom", "x"), inv)
    _, vcs = ref.vc_conditions(frozenset(), ("seq", first, second),
                               frozenset({2}), ATOMS, TESTS, 3)
    names = [name for name, _, _ in vcs]
    assert names == ["precondition", "while2-preserve", "while2-exit",
                     "while1-preserve", "while1-exit"]
    # while1 is the second loop: its exit condition targets the post
    assert vcs[4][1:] == (frozenset(), frozenset({2}))


def test_unannotated_loop_uses_the_exact_wlp():
    precondition, vcs = ref.vc_conditions(frozenset({0}), LOOP, frozenset({2}),
                                          ATOMS, TESTS, 3)
    assert precondition == frozenset({0, 1, 2}) and len(vcs) == 1


def test_relation_literals_use_state_names():
    assert ref.format_test(frozenset({0, 2}), ["1", "2", "3"]) == "{(1,1),(3,3)}"
    assert workloads._rel_literal(STEP, ["a", "b", "c"]) == "{(a,b),(b,c)}"
    prog = ("seq", ("atom", "x"), ("if", ("not", ("t", "p")), ("skip",),
                                   ("while", ("t", "t"), ("atom", "x"), ("t", "p"))))
    assert workloads.render_program(prog) == \
        "x ; if !p then skip else while t invariant p do x od fi"


# ---------------------------------------------------------------------------
# eventually periodic sets

def test_periodic_membership():
    s = ref.Periodic(4, frozenset({1}), 3, frozenset({0}))
    assert [k for k in range(12) if k in s] == [1, 6, 9]
    assert [k for k in range(6) if k in ref.EVENS] == [0, 2, 4]


def test_refutation_check():
    ok = ref.refutation_ok
    assert ok(ref.EVENS, "finite{1,3}", "not maximal, add 5 -> finite{1,3,5}")
    assert not ok(ref.EVENS, "finite{1,3}", "not maximal, add 4 -> finite{1,3,4}")
    assert not ok(ref.EVENS, "finite{2}", "not maximal, add 1 -> finite{1,2}")
    assert not ok(ref.EVENS, "finite{1}", "not maximal, add 3 -> finite{1}")
    assert not ok(ref.ODDS, "finite{}", "intersects target at 1")
    assert ok(ref.ODDS, "finite{}", "not maximal, add 0 -> finite{0}")


def test_seeded_periodic_targets_have_their_nominal_period():
    rng = random.Random(2)
    for period, count in ((12, 5), (10, 3), (7, 3)):
        t = workloads.random_periodic(rng, period, count)
        shifts = [d for d in range(1, period) if period % d == 0 and all(
            ((c + d) % period in t.residues) == (c in t.residues)
            for c in range(period))]
        assert shifts == []


# ---------------------------------------------------------------------------
# generation, percentiles and span arithmetic

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def build(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        jobs = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), d)
        files = {p.name: p.read_text() for p in sorted(d.iterdir())}
        return [(j.label, tuple(a.replace(str(d), "") for a in j.argv), j.search)
                for j in jobs], files

    assert build(1, "a") == build(1, "b")
    assert len(build(1, "c")[0]) == len(build(2, "d")[0])


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0


def test_harrell_davis_percentile():
    assert run.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert run.percentile([7.0] * 9, 90) == pytest.approx(7.0)
    assert run.percentile(range(41), 75) == pytest.approx(30.25, abs=0.01)
    values = [1, 2, 2, 3, 5, 8, 13, 21, 34, 55]
    estimates = [run.percentile(values, p) for p in (10, 50, 75, 90)]
    assert estimates == sorted(estimates)
    assert values[0] < estimates[0] and estimates[-1] < values[-1]


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1],
        ["algebra.check_axioms", 1.0, 6.0, 0, 1],
        ["terms.variables", 2.0, 3.0, 1, 1],
        ["hoare.denote", 7.0, 9.0, 0, 1],
        ["hoare.denote", 7.5, 8.5, 3, 1],
    ]
    st = tracing.SpanTable(spans)
    assert st.self_time == [3.0, 4.0, 1.0, 1.0, 1.0]
    assert st.outer_s({"hoare.denote"}) == 2.0
    assert st.self_s({"hoare.denote"}) == 2.0
    assert st.layer_self() == dict(dict.fromkeys(tracing.LAYERS, 0.0), cli=3.0,
                                   algebra=4.0, terms=1.0, hoare=2.0)
    assert st.under("terms.variables", "algebra.check_axioms") == [2]
    assert st.top_level_s() == 10.0

import inspect
import random
from itertools import product

import pytest

from kadlab.algebra import (Profile, Quasi, _check_laws, _compile_law,
                            _eval_idx, check_phi, check_rules, hoare_rules,
                            lemma4_model)
from kadlab import hoare
from kadlab.errors import ModelError, ParseError
from kadlab.hoare import (Atom, Bindings, HoareTriple, If, PremiseError, Seq,
                          Skip, While, denote, eval_test, holds,
                          parse_program, parse_test_expr, synth_mid, vcgen,
                          wlp)
from kadlab.relations import Rel, StateSpace, rel_algebra_model
from kadlab.terms import (MAX_DEPTH, ONE, ZERO, Not, Plus, Times, Var,
                          desugar, parse_term)
from kadlab.terms import TestVar as TV

from naive_oracle import naive_check_axioms, naive_triple_holds

S2 = StateSpace(["1", "2"])
S3 = StateSpace(["1", "2", "3"])


def b2(**extra_tests):
    atoms = {"x": Rel.from_pairs(S2, [("1", "2")]),
             "y": Rel.from_pairs(S2, [("2", "1")]),
             "swap": Rel.from_pairs(S2, [("1", "2"), ("2", "1")])}
    tests = {"p": Rel.test_from_states(S2, ["1"]),
             "q": Rel.test_from_states(S2, ["2"])}
    tests.update(extra_tests)
    return Bindings(S2, atoms, tests)


def b3():
    return Bindings(
        S3,
        {"x": Rel.from_pairs(S3, [("1", "2")]),
         "y": Rel.from_pairs(S3, [("2", "3")])},
        {"p": Rel.test_from_states(S3, ["1"]),
         "q": Rel.test_from_states(S3, ["3"])})


def _tests_of(space):
    n = space.size
    for mask in range(1 << n):
        yield Rel.test_from_states(
            space, [space.names[i] for i in range(n) if mask >> i & 1])


def _rels_of(space):
    for bits in range(1 << space.size ** 2):
        yield Rel(space, bits)


# ---------------------------------------------------------------------------
# parsing

def test_parse_program_shapes():
    b = b2()
    p = parse_program("x ; skip ; y", b.atoms, b.tests)
    assert p == Seq(Seq(Atom("x"), Skip()), Atom("y"))
    assert isinstance(p.first, Seq)     # left-deep; == ignores the grouping
    p = parse_program("if p then x else y fi", b.atoms, b.tests)
    assert p == If(TV("p"), Atom("x"), Atom("y"))
    p = parse_program("while p & !q do x od", b.atoms, b.tests)
    assert p == While(Times(TV("p"), Not(TV("q"))), Atom("x"))
    p = parse_program("while p invariant 1 do x od", b.atoms, b.tests)
    assert p == While(TV("p"), Atom("x"), invariant=ONE)


def test_program_nesting_is_bounded():
    b = b2()
    for depth, ok in ((MAX_DEPTH, True), (MAX_DEPTH + 1, False)):
        text = "while p do " * (depth - 1) + "if q then x else y fi" \
            + " od" * (depth - 1)
        if ok:
            assert isinstance(parse_program(text, b.atoms, b.tests), While)
        else:
            with pytest.raises(ParseError, match="nested deeper"):
                parse_program(text, b.atoms, b.tests)
    # sequenced blocks do not nest
    text = " ; ".join(["while p do x od"] * (MAX_DEPTH + 1))
    assert isinstance(parse_program(text, b.atoms, b.tests), Seq)


def test_parse_test_expressions():
    b = b2()
    t = parse_test_expr("p | q & !p", b.tests)
    assert t == Plus(TV("p"), Times(TV("q"), Not(TV("p"))))
    assert eval_test(t, b) == Rel.identity(S2)


def test_parse_errors():
    b = b2()
    with pytest.raises(ParseError):
        parse_program("nosuch", b.atoms, b.tests)
    with pytest.raises(ParseError):
        parse_program("if x then skip else skip fi", b.atoms, b.tests)
    with pytest.raises(ParseError):
        parse_program("while p do x", b.atoms, b.tests)


def test_guards_are_tests_over_declared_names():
    b = b2()
    for guard in ("x", "nosuch", "p*", "!(p*)"):
        with pytest.raises(ParseError):
            parse_program(f"while {guard} do x od", b.atoms, b.tests)
        with pytest.raises(ParseError):
            parse_test_expr(guard, b.tests)


# ---------------------------------------------------------------------------
# denotation

def test_unbound_names_raise_model_error():
    b = b2()
    with pytest.raises(ModelError):
        denote(Atom("nosuch"), b)
    with pytest.raises(ModelError):
        eval_test(TV("nosuch"), b)



def test_complement_of_an_atom_raises_model_error():
    with pytest.raises(ModelError, match=r"^complement of non-test element "
                       r"'\{\(1,2\)\}'$"):
        eval_test(Not(Var("x")), b2())


@pytest.mark.parametrize("atoms,tests,message", [
    ({"x": Rel.identity(S3)}, {}, "atom 'x' lives on a different space"),
    ({}, {"p": Rel.identity(S3)}, "test 'p' lives on a different space"),
    ({}, {"p": Rel.from_pairs(S2, [("1", "2")])},
     "test 'p' is not a subidentity"),
])
def test_bindings_refuse_foreign_and_non_test_relations(atoms, tests, message):
    with pytest.raises(ModelError) as info:
        Bindings(S2, atoms, tests)
    assert (type(info.value), str(info.value)) == (ModelError, message)


def test_conditions_on_another_space_are_refused():
    with pytest.raises(ModelError) as info:
        wlp(Skip(), Rel.identity(S3), b2())
    assert (type(info.value), str(info.value)) == (
        ModelError, "relations live on different state spaces")


def test_denote_skip_is_identity():
    assert denote(Skip(), b2()) == Rel.identity(S2)


def test_denote_if_encoding():
    b = b2()
    prog = If(TV("p"), Atom("x"), Atom("y"))
    t = b.tests["p"]
    expected = t.compose(b.atoms["x"]).union(
        t.complement_test().compose(b.atoms["y"]))
    assert denote(prog, b) == expected


def test_denote_while_skip():
    b = b2()
    assert denote(While(TV("p"), Skip()), b) == \
        b.tests["p"].complement_test()


def test_denote_while_loop():
    # loop from 1: guard p holds only at 1, body moves 1 -> 2
    b = b2()
    prog = While(TV("p"), Atom("x"))
    r = denote(prog, b)
    assert r.pairs() == {("1", "2"), ("2", "2")}


# ---------------------------------------------------------------------------
# triples and wlp

def test_holds_examples():
    b = b2()
    ident = Rel.identity(S2)
    assert holds(HoareTriple(ident, Skip(), ident), b)
    assert holds(HoareTriple(ident, Atom("x"), b.tests["q"]), b)
    assert not holds(HoareTriple(ident, Atom("x"), b.tests["p"]), b)


def test_wlp_examples():
    b = b2()
    for q in _tests_of(S2):
        assert wlp(Skip(), q, b) == q
    assert wlp(Atom("x"), b.tests["q"], b) == Rel.identity(S2)


def test_wlp_seq_composes():
    b = b2()
    for q in _tests_of(S2):
        lhs = wlp(Seq(Atom("x"), Atom("y")), q, b)
        rhs = wlp(Atom("x"), wlp(Atom("y"), q, b), b)
        assert lhs == rhs


def test_wlp_sound_and_weakest_sampled():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        space = StateSpace.of_size(n)
        top = (1 << n * n) - 1
        bind = Bindings(space, {"x": Rel(space, rng.randint(0, top))}, {})
        prog = Atom("x")
        q = Rel(space, rng.randint(0, top)).dom()
        w = wlp(prog, q, bind)
        assert holds(HoareTriple(w, prog, q), bind)
        for p in _tests_of(space):
            if holds(HoareTriple(p, prog, q), bind):
                assert p.leq(w)


# ---------------------------------------------------------------------------
# synthesis

def test_synth_mid_example_values():
    b = b3()
    p, q = b.tests["p"], b.tests["q"]
    x, y = Atom("x"), Atom("y")
    assert synth_mid(x, y, p, q, "wlp", b) == Rel.identity(S3)
    assert synth_mid(x, y, p, q, "range", b) == \
        Rel.test_from_states(S3, ["2"])
    assert synth_mid(x, y, p, q, "meet", b) == \
        Rel.test_from_states(S3, ["2"])


def test_synth_mid_premise_required():
    b = b2()
    with pytest.raises(PremiseError):
        synth_mid(Atom("x"), Skip(), Rel.identity(S2), b.tests["p"], "wlp", b)


def test_synth_mid_unknown_method():
    b = b2()
    with pytest.raises(ModelError):
        synth_mid(Skip(), Skip(), b.tests["p"], b.tests["p"], "magic", b)


def test_synth_methods_always_validate_exhaustive_size2():
    space = S2
    for X, Y in product(_rels_of(space), repeat=2):
        bind = Bindings(space, {"x": X, "y": Y}, {})
        for p, q in product(_tests_of(space), repeat=2):
            if not p.compose(X).compose(Y).compose(
                    q.complement_test()).is_empty():
                continue
            for method in ("wlp", "range", "meet"):
                r = synth_mid(Atom("x"), Atom("y"), p, q, method, bind)
                assert holds(HoareTriple(p, Atom("x"), r), bind)
                assert holds(HoareTriple(r, Atom("y"), q), bind)


# ---------------------------------------------------------------------------
# rules, as the quasi-laws of kadlab.algebra.hoare_rules

def _rule(name):
    return next(law for law in hoare_rules(Profile.KAD) if law.name == name)


def _at(law, space, **binds):
    """(all premises hold, conclusion holds) of the law in the relation
    algebra of the space, its variables bound to the given relations."""
    env = {k: rel.bits for k, rel in binds.items()}

    def leq(s, t):
        s, t = (_eval_idx(space, u, env, env) for u in (s, t))
        return space.plus(s, t) == t

    return all(leq(*pair) for pair in law.premises), leq(*law.conclusion)


# {p} (t;x)*;!t {p;!t} => {p;t} x {p}: the while rule read backwards
_PLAIN_INVERSION = Quasi("while-inversion-plain",
                         (_rule("while-rule").conclusion,),
                         _rule("while-rule").premises[0])
# {p} x;y {q} => {p} x {d(y;q)}: the diamond in place of the box
_DIAMOND_FACTOR = Quasi(
    "seq-factor-diamond", _rule("seq-factor").premises,
    (desugar(parse_term("p ; x ; !d(y ; q)", tests="pq")), ZERO))


def test_seq_rule_both_directions():
    b = b3()
    inst = dict(p=b.tests["p"], x=b.atoms["x"], y=b.atoms["y"], q=b.tests["q"])
    for name in ("seq-factor", "seq-compose"):
        assert _at(_rule(name), S3, **inst) == (True, True)


def test_if_rule_two_state_instance():
    b = b2()
    inst = dict(p=b.tests["p"], t=b.tests["q"], x=b.atoms["x"],
                y=b.atoms["y"], q=Rel.identity(S2))
    for name in ("if-rule", "if-inversion-then", "if-inversion-else"):
        assert _at(_rule(name), S2, **inst) == (True, True)


def test_while_rule_empty_guard():
    # guard 0: premise and conclusion both vacuous/trivial
    b = b2()
    inst = dict(p=Rel.identity(S2), t=Rel.empty(S2), x=b.atoms["swap"])
    for name in ("while-rule", "while-invariant", "while-inversion"):
        assert _at(_rule(name), S2, **inst) == (True, True)


def test_while_plain_consequent_is_not_invertible():
    # {p} while 1 do swap od {p & !1} holds vacuously (no terminating run)
    # yet the body triple {p & 1} swap {p} fails: inversion needs the
    # strengthened consequent {p} (1;swap)* {p}, which fails too
    b = b2()
    inst = dict(p=b.tests["p"], t=Rel.identity(S2), x=b.atoms["swap"])
    assert _at(_PLAIN_INVERSION, S2, **inst) == (True, False)
    assert _at(_rule("while-inversion"), S2, **inst) == (False, False)


def test_conseq_rule():
    b = b2()
    inst = dict(p=b.tests["p"], r=Rel.identity(S2), x=b.atoms["x"],
                s=b.tests["q"], q=Rel.identity(S2))
    assert _at(_rule("consequence"), S2, **inst) == (True, True)


def test_kat_rules_hold_where_only_phi_separates():
    # lemma4 is a KAT: every rule and inversion that is a KAT theorem holds
    # there, and only the sequential inversion (phi) fails
    lemma4 = lemma4_model()
    assert check_rules(lemma4, Profile.KAT).passed
    assert not check_phi(lemma4).holds
    rel2 = rel_algebra_model(2)
    report = check_rules(rel2, Profile.KAD)
    assert report.passed and report.instance_count == 62208
    assert check_phi(rel2).holds


@pytest.mark.parametrize("law", [_PLAIN_INVERSION, _DIAMOND_FACTOR],
                         ids=lambda law: law.name)
def test_wrong_rules_fail_on_rel2(law):
    rel2 = rel_algebra_model(2)
    report = _check_laws(rel2, Profile.KAD, (_compile_law(law),))
    assert not report.passed
    assert report == naive_check_axioms(rel2, Profile.KAD, (law,))


def test_hoare_rules_refuse_other_profiles():
    assert hoare_rules(Profile.KAD)[:7] == hoare_rules(Profile.KAT)
    for profile in Profile:
        if profile not in (Profile.KAT, Profile.KAD):
            with pytest.raises(ModelError, match="laws of kat and kad"):
                hoare_rules(profile)
            with pytest.raises(ModelError, match="laws of kat and kad"):
                check_rules(lemma4_model(), profile)


def test_rules_refuse_conditions_that_are_not_tests():
    b = b2()
    step, p, q = b.atoms["x"], b.tests["p"], b.tests["q"]
    with pytest.raises(ModelError, match="^precondition must be"):
        holds(HoareTriple(step, Atom("x"), q), b)
    with pytest.raises(ModelError, match="^precondition must be"):
        synth_mid(Atom("x"), Atom("y"), step, q, "wlp", b)
    with pytest.raises(ModelError, match="^postcondition must be"):
        holds(HoareTriple(p, Atom("x"), step), b)
    with pytest.raises(ModelError, match="^postcondition must be"):
        wlp(Atom("x"), step, b)
    with pytest.raises(ModelError, match="^postcondition must be"):
        synth_mid(Atom("x"), Atom("y"), p, step, "wlp", b)


# ---------------------------------------------------------------------------
# verification conditions

def test_vcgen_straightline():
    b = b2()
    prog = parse_program("x", b.atoms, b.tests)
    report = vcgen(b.tests["p"], prog, b.tests["q"], b)
    assert report.valid
    assert [c.name for c in report.conditions] == ["precondition"]


def test_vcgen_with_invariant():
    space = S3
    bind = Bindings(
        space,
        {"inc": Rel.from_pairs(space, [("1", "2"), ("2", "3"), ("3", "3")])},
        {"low": Rel.test_from_states(space, ["1", "2"])})
    prog = parse_program("while low invariant 1 do inc od",
                         bind.atoms, bind.tests)
    pre = Rel.identity(space)
    post = Rel.test_from_states(space, ["3"])
    report = vcgen(pre, prog, post, bind)
    assert report.valid
    assert [c.name for c in report.conditions] == [
        "precondition", "while1-preserve", "while1-exit"]


def test_vcgen_bad_invariant_reports_violation():
    space = S3
    bind = Bindings(
        space,
        {"inc": Rel.from_pairs(space, [("1", "2"), ("2", "3"), ("3", "3")])},
        {"low": Rel.test_from_states(space, ["1", "2"]),
         "attwo": Rel.test_from_states(space, ["2"])})
    prog = parse_program("while low invariant attwo do inc od",
                         bind.atoms, bind.tests)
    report = vcgen(Rel.test_from_states(space, ["2"]), prog,
                   Rel.test_from_states(space, ["3"]), bind)
    assert not report.valid


def test_vcgen_without_invariant_is_exact():
    b = b2()
    prog = parse_program("while p do x od", b.atoms, b.tests)
    for q in _tests_of(S2):
        report = vcgen(Rel.empty(S2), prog, q, b)
        assert report.precondition == denote(prog, b).box(q)


def test_long_chains_keep_their_meaning_and_conditions():
    b = b2()
    rng = random.Random(7)
    pieces = ["x", "y", "swap", "skip", "while p invariant 1 do x od",
              "if q then y else skip fi"]
    stmts = [rng.choice(pieces) for _ in range(400)]
    prog = parse_program(" ; ".join(stmts), b.atoms, b.tests)
    expected = Rel.identity(S2)
    for st in stmts:
        expected = expected.compose(denote(parse_program(st, b.atoms, b.tests), b))
    assert denote(prog, b) == expected
    # the same statements nested to the right: one meaning, same conditions
    right = parse_program(stmts[-1], b.atoms, b.tests)
    for st in reversed(stmts[:-1]):
        right = Seq(parse_program(st, b.atoms, b.tests), right)
    assert denote(right, b) == expected
    q = b.tests["q"]
    left_report, right_report = (vcgen(b.tests["p"], p, q, b)
                                 for p in (prog, right))
    assert left_report == right_report
    loops = stmts.count(pieces[4])
    assert [c.name for c in left_report.conditions][1:3] == [
        f"while{loops}-preserve", f"while{loops}-exit"]


def test_program_level_phi():
    # whenever {p} x;y {q} holds on a 2-state space, synthesis succeeds
    space = S2
    rng = random.Random(99)
    for _ in range(300):
        top = (1 << 4) - 1
        X, Y = Rel(space, rng.randint(0, top)), Rel(space, rng.randint(0, top))
        bind = Bindings(space, {"x": X, "y": Y}, {})
        p = Rel(space, rng.randint(0, top)).dom()
        q = Rel(space, rng.randint(0, top)).dom()
        prog = Seq(Atom("x"), Atom("y"))
        if holds(HoareTriple(p, prog, q), bind):
            r = synth_mid(Atom("x"), Atom("y"), p, q, "wlp", bind)
            assert holds(HoareTriple(p, Atom("x"), r), bind)
            assert holds(HoareTriple(r, Atom("y"), q), bind)


def test_long_sequences_compare_hash_and_print_without_recursion():
    names = {"x", "y"}
    text = " ; ".join(["x", "y"] * 1500)
    left = parse_program(text, names, set())
    right = Atom("y")
    for name in ["x", "y"] * 1499 + ["x"]:
        right = Seq(Atom(name), right)
    assert left == right and hash(left) == hash(right)
    assert left != parse_program(text + " ; x", names, set())
    assert left != Atom("x") and left != If(TV("p"), left, left)
    assert repr(left) == "Seq(" + ", ".join(
        [f"Atom(name={n!r})" for n in ["x", "y"] * 1500]) + ")"
    assert repr(If(TV("p"), left, Skip())).count("Atom(name='x')") == 1500


# ---------------------------------------------------------------------------
# the predicate transformers against the relational semantics

_GUARDS = (ZERO, ONE, TV("p"), Not(TV("q")), Times(TV("p"), Not(TV("q"))),
           Plus(TV("p"), TV("q")))


def _random_program(rng, depth):
    """A seeded program over atoms x and y with if/while nested at most
    ``depth`` levels, skip statements and bodies, guards from ``_GUARDS``
    (0 and 1 among them) and an invariant on about half of the loops."""
    kind = rng.choice(("leaf", "seq", "if", "while", "while") if depth else
                      ("leaf",))
    if kind == "leaf":
        return rng.choice((Atom("x"), Atom("y"), Skip()))
    first = _random_program(rng, depth - 1)
    if kind == "seq":
        return Seq(first, _random_program(rng, depth - 1))
    guard = rng.choice(_GUARDS)
    if kind == "if":
        return If(guard, first, _random_program(rng, depth - 1))
    return While(guard, first, rng.choice((None, rng.choice(_GUARDS))))


def _unannotated(prog):
    match prog:
        case Seq(first, second):
            return Seq(_unannotated(first), _unannotated(second))
        case If(guard, then, orelse):
            return If(guard, _unannotated(then), _unannotated(orelse))
        case While(guard, body, _):
            return While(guard, _unannotated(body))
    return prog


def _transformer_cases():
    """Seeded (bindings, x, y, p, q) over 1-32 states: x and y are
    ``_random_program``s of depth 3, the atoms have up to 3 successors per
    state and the tests are random state sets."""
    cases = []
    for k in range(150):
        rng = random.Random(f"transformers:{k}")
        space = StateSpace.of_size(rng.randint(1, 32))
        names = space.names

        def rel():
            return Rel.from_pairs(space, [
                (a, b) for a in names
                for b in rng.sample(names, rng.randint(0, min(3, len(names))))])

        def test():
            return Rel.test_from_states(
                space, [a for a in names if rng.random() < 0.5])

        bindings = Bindings(space, {"x": rel(), "y": rel()},
                            {"p": test(), "q": test()})
        cases.append((bindings, _random_program(rng, 3),
                      _random_program(rng, 3), test(), test()))
    return cases


def _loops(prog, outer=0):
    """(loops, loops inside loops, annotated loops, skip loop bodies)."""
    match prog:
        case Seq(first, second):
            return tuple(map(sum, zip(_loops(first, outer),
                                      _loops(second, outer))))
        case If(_, then, orelse):
            return tuple(map(sum, zip(_loops(then, outer),
                                      _loops(orelse, outer))))
        case While(_, body, invariant):
            inner = _loops(body, outer + 1)
            return (inner[0] + 1, inner[1] + (outer > 0),
                    inner[2] + (invariant is not None),
                    inner[3] + (body == Skip()))
    return 0, 0, 0, 0


def test_transformer_cases_cover_the_shapes():
    cases = _transformer_cases()
    loops, nested, annotated, skips = map(sum, zip(*(
        _loops(prog) for _, x, y, _, _ in cases for prog in (x, y))))
    assert nested and skips and 0 < annotated < loops
    guards = {repr(prog.guard) for _, x, _, _, _ in cases
              for prog in [x] if isinstance(prog, (If, While))}
    assert {repr(ZERO), repr(ONE)} <= guards
    sizes = {b.space.size for b, *_ in cases}
    assert min(sizes) == 1 and max(sizes) == 32
    assert sum(size <= 8 for size in sizes) >= 5


def _transformers_agree(case) -> bool:
    """wlp, vcgen without invariants, synth_mid's range and holds against
    ``denote`` (holds also against the pair-set oracle, up to 8 states)."""
    bindings, x, y, p, q = case
    relation = denote(x, bindings)
    box = relation.box(q)
    verdict = holds(HoareTriple(p, x, q), bindings)
    return (wlp(x, q, bindings) == box
            and vcgen(p, _unannotated(x), q, bindings).precondition == box
            and synth_mid(x, y, p, Rel.identity(bindings.space), "range",
                          bindings) == p.compose(relation).aran().aran()
            and verdict == p.leq(box)
            and (bindings.space.size > 8
                 or verdict == naive_triple_holds(p, relation, q)))


def test_transformers_match_the_relational_semantics():
    for case in _transformer_cases():
        assert _transformers_agree(case), case


@pytest.mark.parametrize("function, old, new", [
    (hoare._wp, "if below == s:\n                    return s, []",
     "if True:\n                    return below, []"),
    (hoare._image, "if above == s:\n                    return s & untaken",
     "if True:\n                    return above & untaken"),
], ids=["wlp", "image"])
def test_loops_stopped_after_one_round_break_the_property(monkeypatch, function,
                                                          old, new):
    # the function rebuilt from its source with the fixpoint cut to one
    # round, so a loop that needs more rounds comes out wrong
    source = inspect.getsource(function)
    assert source.count(old) == 1
    namespace = dict(vars(hoare))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(hoare, function.__name__, namespace[function.__name__])
    assert not all(map(_transformers_agree, _transformer_cases()))


def test_transformers_refuse_what_denote_refuses():
    b = b2()
    p, q, step = b.tests["p"], b.tests["q"], b.atoms["x"]
    nosuch = Seq(Atom("x"), While(TV("p"), If(ONE, Atom("nosuch"), Skip())))
    unbound = "^unbound variable 'nosuch'$"
    with pytest.raises(ModelError, match=unbound):
        denote(nosuch, b)
    for call in (lambda: wlp(nosuch, q, b),
                 lambda: holds(HoareTriple(p, nosuch, q), b),
                 lambda: vcgen(p, nosuch, q, b),
                 lambda: synth_mid(nosuch, Skip(), p, q, "range", b),
                 lambda: synth_mid(Skip(), nosuch, p, q, "wlp", b)):
        with pytest.raises(ModelError, match=unbound):
            call()
    with pytest.raises(ModelError, match="^precondition must be"):
        vcgen(step, nosuch, q, b)
    with pytest.raises(ModelError, match="^postcondition must be"):
        vcgen(p, nosuch, step, b)
    loop = While(TV("p"), Atom("x"))
    with pytest.raises(PremiseError):
        synth_mid(loop, Skip(), Rel.identity(S2), b.tests["p"], "range", b)

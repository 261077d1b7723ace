"""The library's records: value semantics, one table over every class, and
an import that builds them without generating code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kadlab import algebra, evsets, files, hoare, relations, search, terms
from kadlab.algebra import (CheckReport, ClosureLaw, Equation, PhiResult,
                            Profile, Quasi, Violation)
from kadlab.evsets import EvPeriodicSet, NotAPrecondition, NotMaximal, evens
from kadlab.files import ProgramFile
from kadlab.hoare import (Atom, Bindings, HoareTriple, If, Seq, Skip,
                          VcReport, VerificationCondition, While)
from kadlab.relations import Rel, StateSpace
from kadlab.search import SearchStats
from kadlab.terms import (ADom, ARan, Box, Dom, Not, One, Plus, Ran, Star,
                          Times, Var, Zero)
from kadlab.terms import TestVar as TVar

SRC = Path(__file__).resolve().parents[1] / "src"

X, P = Var("x"), TVar("p")
SPACE = StateSpace(("1", "2"))
ID = Rel(SPACE, 9)
BINDINGS = Bindings(SPACE, {"x": ID}, {"p": ID})
VC = VerificationCondition("seq", ID, ID)


def _fields():
    """Per record class, fresh field values for one record: equal values
    on every call, the mutable ones new objects."""
    return {
        Zero: (), One: (), Var: ("x",), TVar: ("p",),
        Plus: (X, P), Times: (X, P), Star: (X,), Not: (P,), ADom: (X,),
        Dom: (X,), ARan: (X,), Ran: (X,), Box: (X, P),
        Skip: (), Atom: ("x",), Seq: (Atom("x"), Skip()),
        If: (P, Atom("x"), Skip()), While: (P, Atom("x"), P),
        HoareTriple: (ID, Atom("x"), ID),
        Bindings: (SPACE, {"x": ID}, {"p": ID}),
        VerificationCondition: ("seq", ID, ID),
        VcReport: (ID, (VC,)),
        Equation: ("plus-comm", Plus(X, P), Plus(P, X)),
        Quasi: ("q", ((X, P),), (P, X)),
        ClosureLaw: ("closed", ADom(X)),
        Violation: ("plus-comm", (("x", "a"),), "a", "b"),
        CheckReport: (Profile.KAT, [], 1, 2, [("plus-comm", 2)]),
        PhiResult: (False, ("a", "b", "c", "d"), 7),
        EvPeriodicSet: (3, {0, 2}, 2, {1}),
        NotAPrecondition: (4,),
        NotMaximal: (5, evens()),
        StateSpace: (("1", "2"),),
        Rel: (SPACE, 9),
        ProgramFile: (BINDINGS, Atom("x"), ID, None),
        SearchStats: ({"plus": [2, 0]}, 1, 2, 3),
    }


REL = "Rel(space=StateSpace(names=('1', '2')), bits=9)"
REPRS = {
    Zero: "Zero()", One: "One()", Var: "Var(name='x')",
    TVar: "TestVar(name='p')",
    Plus: "Plus(left=Var(name='x'), right=TestVar(name='p'))",
    Times: "Times(left=Var(name='x'), right=TestVar(name='p'))",
    Star: "Star(arg=Var(name='x'))", Not: "Not(arg=TestVar(name='p'))",
    ADom: "ADom(arg=Var(name='x'))", Dom: "Dom(arg=Var(name='x'))",
    ARan: "ARan(arg=Var(name='x'))", Ran: "Ran(arg=Var(name='x'))",
    Box: "Box(prog=Var(name='x'), post=TestVar(name='p'))",
    Skip: "Skip()", Atom: "Atom(name='x')",
    Seq: "Seq(Atom(name='x'), Skip())",
    If: "If(guard=TestVar(name='p'), then=Atom(name='x'), orelse=Skip())",
    While: "While(guard=TestVar(name='p'), body=Atom(name='x'), "
           "invariant=TestVar(name='p'))",
    HoareTriple: f"HoareTriple(pre={REL}, prog=Atom(name='x'), post={REL})",
    Bindings: f"Bindings(space=StateSpace(names=('1', '2')), "
              f"atoms={{'x': {REL}}}, tests={{'p': {REL}}})",
    VerificationCondition: f"VerificationCondition(name='seq', lhs={REL}, "
                           f"rhs={REL})",
    VcReport: f"VcReport(precondition={REL}, conditions=("
              f"VerificationCondition(name='seq', lhs={REL}, rhs={REL}),))",
    Equation: "Equation(name='plus-comm', lhs=Plus(left=Var(name='x'), "
              "right=TestVar(name='p')), rhs=Plus(left=TestVar(name='p'), "
              "right=Var(name='x')))",
    Quasi: "Quasi(name='q', premises=((Var(name='x'), TestVar(name='p')),), "
           "conclusion=(TestVar(name='p'), Var(name='x')))",
    ClosureLaw: "ClosureLaw(name='closed', term=ADom(arg=Var(name='x')))",
    Violation: "Violation(axiom='plus-comm', assignment=(('x', 'a'),), "
               "lhs='a', rhs='b')",
    CheckReport: "CheckReport(profile=<Profile.KAT: 'kat'>, violations=[], "
                 "axiom_count=1, instance_count=2, "
                 "law_instances=[('plus-comm', 2)])",
    PhiResult: "PhiResult(holds=False, witness=('a', 'b', 'c', 'd'), "
               "instantiations=7)",
    EvPeriodicSet: "EvPeriodicSet(threshold=3, _head=5, period=2, _res=2)",
    NotAPrecondition: "NotAPrecondition(witness=4)",
    NotMaximal: "NotMaximal(missing=5, extension=EvPeriodicSet(threshold=0, "
                "_head=0, period=2, _res=1))",
    StateSpace: "StateSpace(names=('1', '2'))", Rel: REL,
    ProgramFile: f"ProgramFile(bindings=Bindings(space=StateSpace(names=("
                 f"'1', '2')), atoms={{'x': {REL}}}, tests={{'p': {REL}}}), "
                 f"program=Atom(name='x'), pre={REL}, post=None)",
    SearchStats: "SearchStats(stages={'plus': [2, 0]}, duplicates=1, "
                 "candidates=2, models=3)",
}
# the values positional patterns bind where they differ from the arguments
# (a set's fields are its canonical form)
MATCHED = {EvPeriodicSet: (3, 5, 2, 2)}
MUTABLE = {CheckReport, SearchStats}
# frozen records whose fields hold dicts, and so do not hash
UNHASHABLE = {Bindings, ProgramFile}
# records of different classes over the same fields
UNEQUAL = [(Var("x"), TVar("x")), (Plus(X, P), Times(X, P)),
           (Star(P), Not(P)), (ADom(X), Dom(X)), (ARan(X), Ran(X)),
           (Zero(), One()), (Zero(), Skip()), (Var("x"), Atom("x")),
           (Equation("seq", ID, ID), VC), (NotAPrecondition(4), Var(4))]
# the modules that define records; their other classes with
# ``__match_args__`` are bases or tuples
MODULES = (terms, algebra, hoare, evsets, relations, files, search)
BASES = {"Term", "Program"}


def _positional(value, cls, n):
    """The fields an n-place positional class pattern binds."""
    match n, value:
        case 0, cls():
            return ()
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return a, b
        case 3, cls(a, b, c):
            return a, b, c
        case 4, cls(a, b, c, d):
            return a, b, c, d
        case 5, cls(a, b, c, d, e):
            return a, b, c, d, e
    raise AssertionError(f"{value!r} does not match {cls.__name__}")


def test_the_table_holds_every_record_class():
    classes = {cls for module in MODULES for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and hasattr(cls, "__match_args__")
               and not issubclass(cls, tuple)
               and not cls.__name__.startswith("_")
               and cls.__name__ not in BASES}
    assert classes == set(_fields()) == set(REPRS)
    assert len(classes) == 35


@pytest.mark.parametrize("cls", list(REPRS), ids=lambda c: c.__name__)
def test_record_semantics(cls):
    args = _fields()[cls]
    a, b = cls(*args), cls(*_fields()[cls])
    assert a == b and not a != b
    assert repr(a) == REPRS[cls]
    assert _positional(a, cls, len(args)) == MATCHED.get(cls, args)
    if cls in MUTABLE:
        assert cls.__hash__ is None
        setattr(a, cls.__match_args__[0], None)
        assert a != b
    else:
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        name = cls.__match_args__[0] if args else "extra"
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == b


@pytest.mark.parametrize("a,b", UNEQUAL, ids=lambda r: type(r).__name__)
def test_records_of_different_classes_differ(a, b):
    assert a != b and b != a and not a == b


def test_defaults():
    assert While(P, Skip()).invariant is None
    assert PhiResult(True) == PhiResult(True, None, 0)
    report = CheckReport(Profile.KAT)
    assert report == CheckReport(Profile.KAT, [], 0, 0, [])
    assert report.violations is not CheckReport(Profile.KAT).violations
    assert SearchStats() == SearchStats({}, 0, 0, 0)
    assert SearchStats().stages is not SearchStats().stages
    assert (EvPeriodicSet(3, [0, 2, 2], 2, iter([1]))
            == EvPeriodicSet(3, {0, 2}, 2, {1}))


def test_cached_properties_are_no_fields():
    # a space caches its name positions in its __dict__; a fresh space
    # with the same names is still equal and hashes alike
    used, fresh = StateSpace(("1", "2")), StateSpace(("1", "2"))
    Rel.from_pairs(used, [("1", "2")])
    assert used.one_i == 9
    assert used == fresh and hash(used) == hash(fresh)


def test_importing_the_cli_generates_no_record_code():
    # dataclasses (and the inspect module it imports) cost a fresh
    # process about 27 ms; the records are plain classes
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kadlab.cli; "
         "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"

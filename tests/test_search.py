import functools
import hashlib

import pytest

from kadlab import search
from kadlab.algebra import (Equation, FiniteAlgebra, Profile, _tables,
                            check_axioms, check_phi, is_isomorphic,
                            lemma4_model, profile_axioms)
from kadlab.cli import BUILTIN_MODELS
from kadlab.errors import BoundError, ModelError
from kadlab.files import dump_model
from kadlab.search import CONSTRAINTS, _PHI_CAPABLE, SearchStats, find_models
from kadlab.terms import Var, parse_term

from naive_oracle import IDEMPOTENT, brute_force_models, naive_is_least


def test_size_bound():
    with pytest.raises(BoundError):
        next(find_models(5, Profile.KAT))
    with pytest.raises(BoundError):
        next(find_models(0, Profile.KAT))


def test_constraint_validation():
    with pytest.raises(ModelError):
        next(find_models(2, Profile.KLEENE, "phi-fails"))
    with pytest.raises(ModelError):
        next(find_models(2, Profile.KAT, "phi-sometimes"))


def test_size_1_kat_phi_fails_is_empty():
    assert list(find_models(1, Profile.KAT, "phi-fails")) == []


def test_size_1_models_exist():
    models = list(find_models(1, Profile.KAT))
    assert len(models) == 1
    assert models[0].size == 1


def test_kat_3_phi_fails_contains_lemma4():
    models = list(find_models(3, Profile.KAT, "phi-fails"))
    assert models
    assert any(is_isomorphic(m, lemma4_model()) for m in models)
    for m in models:
        assert check_axioms(m, Profile.KAT).passed
        assert not check_phi(m).holds


def test_kad_2_is_boolean_algebra():
    models = list(find_models(2, Profile.KAD))
    assert len(models) == 1
    expected = FiniteAlgebra(
        ["0", "1"], "0", "1", [[0, 1], [1, 1]], [[0, 0], [0, 1]],
        star=[1, 1], adom=[1, 0], name="expected")
    assert is_isomorphic(models[0], expected)


def test_enumeration_is_deterministic():
    a = [str(m.name) + ":" + str(m.carrier) for m in find_models(3, Profile.KAT)]
    b = [str(m.name) + ":" + str(m.carrier) for m in find_models(3, Profile.KAT)]
    assert a == b


def test_limit():
    models = list(find_models(3, Profile.DIOID, limit=2))
    assert len(models) == 2


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_yields_nothing(limit):
    stats = SearchStats()
    assert list(find_models(2, Profile.KAT, limit=limit, stats=stats)) == []
    assert stats.candidates == 0


def test_near_as_search_includes_proper_near_semiring():
    # at size 3 some antidomain near-semirings already drop x;0 = 0
    models = list(find_models(3, Profile.NEAR_AS))
    assert models
    assert any(not check_axioms(m, Profile.AS).passed for m in models)
    for m in models:
        assert check_phi(m).holds


def test_near_as_search_at_4_rediscovers_the_builtin_witness():
    from kadlab.algebra import near_as_model
    models = list(find_models(4, Profile.NEAR_AS))
    nld = [m for m in models
           if any(v.axiom == "distrib-left"
                  for v in check_axioms(m, Profile.SEMIRING).violations)]
    assert nld
    assert any(is_isomorphic(m, near_as_model()) for m in nld)


def test_phi_holds_constraint():
    models = list(find_models(3, Profile.KAT, "phi-holds"))
    assert models
    for m in models:
        assert check_phi(m).holds
        assert not is_isomorphic(m, lemma4_model())


# Model counts of the search, pinned for every (size, profile, constraint)
# the benchmark runs; the search space is bounded as the module docstring
# says (for idempotent profiles the unit is the additive top).
_COUNTS = {
    "semiring": (1, 2, 6, 40, 295), "dioid": (1, 1, 2, 9, 49),
    "kleene": (1, 1, 2, 9, 49), "ts": (1, 1, 2, 10, 49),
    "kat": (1, 1, 2, 10, 49), "as": (1, 1, 1, 3, 9),
    "near-as": (1, 1, 3, 22), "kad": (1, 1, 1, 3, 9, 50),
    "ars": (1, 1, 1, 3, 9), "kadr": (1, 1, 1, 3, 9),
}
_PHI_COUNTS = {"ts": (40, 9), "kat": (40, 9), "as": (0, 9), "kad": (0, 9),
               "kadr": (0, 9)}
_PINNED = ([(size, profile, None, count)
            for profile, counts in _COUNTS.items()
            for size, count in enumerate(counts, 1)]
           + [(5, profile, constraint, count)
              for profile, counts in _PHI_COUNTS.items()
              for constraint, count in zip(("phi-fails", "phi-holds"), counts)])


@pytest.mark.parametrize("size, profile, constraint, count", _PINNED)
def test_model_counts_are_pinned(size, profile, constraint, count):
    models = list(find_models(size, profile, constraint, bound=size))
    assert len(models) == count
    assert [m.name for m in models] == [
        f"search-{profile}-{size}-{k}" for k in range(1, count + 1)]


@pytest.mark.parametrize("profile", list(Profile))
def test_search_matches_brute_force_enumeration(profile):
    # every table fill at sizes 1-3 under the search's fixed cells and
    # ordering rules, filtered by check_axioms, one per isomorphism class
    for size in (1, 2, 3):
        expected = brute_force_models(size, profile)
        found = list(find_models(size, profile))
        assert len(found) == len(expected), size
        for m in found:
            assert sum(is_isomorphic(m, e) for e in expected) == 1


def test_stats_count_the_search():
    stats = SearchStats()
    models = list(find_models(4, Profile.KAT, "phi-fails", stats=stats))
    assert list(stats.stages) == ["plus", "times", "star", "tests"]
    assert stats.models == len(models) < stats.candidates
    assert stats == SearchStats({"plus": [2, 0], "times": [64, 41],
                                 "star": [9, 0], "tests": [45, 35]},
                                0, 10, 7)


# What four searches did, [tried, pruned] per stage and then duplicates,
# candidates and models.  Each law instance is decided once, where the last
# cell it reads is filled: at that cell, or, if it reads no free cell of its
# table, when the search enters the stage, which counts as pruning the last
# cell of the table before.  A relabelled fill is dropped at the end of the
# first table it makes smaller.
_STATS = [
    (4, "semiring", None, {"plus": [720, 495], "times": [464, 331]}, 23, 40, 40),
    (5, "kat", "phi-fails", {"plus": [19, 4], "times": [920, 690],
                             "star": [49, 0], "tests": [686, 637]}, 4, 49, 40),
    (4, "near-as", None, {"plus": [720, 495], "times": [1220, 865],
                          "adom": [280, 258]}, 26, 22, 22),
    (5, "kadr", None, {"plus": [19, 4], "times": [920, 690], "star": [49, 0],
                       "adom": [392, 383], "aran": [9, 0]}, 4, 9, 9),
]


@pytest.mark.parametrize(
    "size, profile, constraint, stages, duplicates, candidates, models", _STATS)
def test_stats_are_pinned(size, profile, constraint, stages, duplicates,
                          candidates, models):
    stats = SearchStats()
    list(find_models(size, profile, constraint, bound=size, stats=stats))
    assert list(stats.stages) == list(stages)
    assert stats == SearchStats(stages, duplicates, candidates, models)


# Every profile at sizes 1-5 under each constraint it takes, and kad at 6:
# 111 searches, 1,417 models.
_SEARCHES = ([(size, profile, constraint) for profile in Profile
              for size in range(1, 6)
              for constraint in ((None, *CONSTRAINTS)
                                 if profile in _PHI_CAPABLE else (None,))]
             + [(6, Profile.KAD, None)])
# SHA-256 over each search and the name and model file of every model it
# yields, as the search gave them when it dropped relabellings only among
# complete fills
_DIGEST = "da2d48a46a6d783c39137e88191a96325ad47bdf1f85cad42cdb04913a19eac9"


@pytest.fixture(scope="module")
def searched_with_stats():
    runs = []
    for spec in _SEARCHES:
        stats = SearchStats()
        models = list(find_models(*spec, bound=spec[0], stats=stats))
        runs.append((spec, models, stats))
    return runs


@pytest.fixture(scope="module")
def searched(searched_with_stats):
    return [(spec, models) for spec, models, _ in searched_with_stats]


def test_searches_yield_the_pinned_models(searched):
    digest = hashlib.sha256()
    for (size, profile, constraint), models in searched:
        digest.update(f"{size} {profile.value} {constraint}\n".encode())
        for m in models:
            digest.update(f"{m.name}\n{dump_model(m)}".encode())
    assert sum(len(models) for _, models in searched) == 1417
    assert digest.hexdigest() == _DIGEST


def test_every_yielded_model_passes_its_profile(searched):
    # the search decides every law instance itself; nothing re-checks
    for (_, profile, _), models in searched:
        for m in models:
            assert check_axioms(m, profile).passed, m.name


def test_a_law_on_a_table_with_no_free_cell_prunes(monkeypatch):
    # at size 2 every cell of ; is fixed, and (x ; y) ; y = x fails there at
    # x = 1, y = 0: only the check run as the search enters the ; stage
    # reads those cells
    law = Equation("fixed-cells", parse_term("(x ; y) ; y"), Var("x"))
    monkeypatch.setattr(search, "profile_axioms",
                        lambda profile: profile_axioms(profile) + (law,))
    search._plan.cache_clear()
    try:
        for profile in Profile:
            assert list(find_models(2, profile)) == [], profile
    finally:
        search._plan.cache_clear()


def test_every_yielded_model_is_the_least_of_its_class(searched):
    for (_, profile, _), models in searched:
        for m in models:
            assert naive_is_least(m, profile in IDEMPOTENT), m.name


def test_the_star_stage_prunes_nothing(searched_with_stats):
    # a finite dioid has exactly one star, the sum of the powers of x
    # (Kozen, 1994), so every star the search derives passes the star laws
    assert len(searched_with_stats) == 111
    derived = 0
    for spec, _, stats in searched_with_stats:
        tried, pruned = stats.stages.get("star", [0, 0])
        assert pruned == 0, spec
        derived += tried
    assert derived > 0


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_builtin_tables_follow_the_derivation_rule(name):
    # the search derives the star as the sum of the powers, and the
    # antidomain and antirange of x as the joins of the tests t with
    # t ; x = 0 and with x ; t = 0; none of these models came from the search
    tb = _tables(BUILTIN_MODELS[name]())
    P, T = tb.plus, tb.times
    assert tb.star or tb.adom or tb.aran

    def join(elements):
        return functools.reduce(lambda acc, e: P[acc][e], elements, tb.zero)

    for x in range(tb.n):
        if tb.star:
            powers = [tb.one]
            for _ in range(1, tb.n):
                powers.append(T[powers[-1]][x])
            assert tb.star[x] == join(powers), x
        if tb.adom:
            assert tb.adom[x] == join(t for t in tb.tests
                                      if T[t][x] == tb.zero), x
        if tb.aran:
            assert tb.aran[x] == join(t for t in tb.tests
                                      if T[x][t] == tb.zero), x

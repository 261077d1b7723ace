import functools
import hashlib
from itertools import permutations

import pytest

from kadlab import search
from kadlab.algebra import (Equation, FiniteAlgebra, Profile, _Tables,
                            check_axioms, check_phi, is_isomorphic,
                            lemma4_model, profile_axioms)
from kadlab.cli import BUILTIN_MODELS
from kadlab.errors import BoundError, ModelError
from kadlab.files import dump_model
from kadlab.search import CONSTRAINTS, _PHI_CAPABLE, SearchStats, find_models
from kadlab.terms import Var, parse_term

from naive_oracle import (IDEMPOTENT, brute_force_models, naive_is_least,
                          naive_preimages)


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
                                 "star": [9, 0], "tests": [20, 10]},
                                0, 10, 7)


# What four searches did, [tried, pruned] per stage and then duplicates,
# candidates and models.  Each law instance is decided once, where the last
# cell it reads is filled: at that cell, or, if it reads no free cell of its
# table, when the search enters the stage, which counts as pruning the last
# cell of the table before.  A relabelled fill is dropped at the first
# completed row of ; or of an unbounded + that shows it smaller (at the end
# of the + table the order bound constrains), before the laws of the next
# stage.  Only test sets of idempotents are tried.
_STATS = [
    (4, "semiring", None, {"plus": [604, 401], "times": [464, 331]}, 30, 40, 40),
    (5, "kat", "phi-fails", {"plus": [19, 4], "times": [850, 634],
                             "star": [49, 0], "tests": [137, 88]}, 4, 49, 40),
    (4, "near-as", None, {"plus": [604, 401], "times": [1220, 865],
                          "adom": [203, 181]}, 33, 22, 22),
    (5, "kadr", None, {"plus": [19, 4], "times": [850, 634], "star": [49, 0],
                       "adom": [137, 128], "aran": [9, 0]}, 4, 9, 9),
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


# (candidates, models) of each search in _SEARCHES at sizes 1, 2, ..., as
# the search gave them when it dropped relabellings only among complete
# tables and tried every test set
_YIELDS = {
    ("semiring", None): ((1, 1), (2, 2), (6, 6), (40, 40), (295, 295)),
    ("dioid", None): ((1, 1), (1, 1), (2, 2), (9, 9), (49, 49)),
    ("kleene", None): ((1, 1), (1, 1), (2, 2), (9, 9), (49, 49)),
    ("ts", None): ((1, 1), (1, 1), (2, 2), (10, 10), (49, 49)),
    ("ts", "phi-fails"): ((1, 0), (1, 0), (2, 1), (10, 7), (49, 40)),
    ("ts", "phi-holds"): ((1, 1), (1, 1), (2, 1), (10, 3), (49, 9)),
    ("kat", None): ((1, 1), (1, 1), (2, 2), (10, 10), (49, 49)),
    ("kat", "phi-fails"): ((1, 0), (1, 0), (2, 1), (10, 7), (49, 40)),
    ("kat", "phi-holds"): ((1, 1), (1, 1), (2, 1), (10, 3), (49, 9)),
    ("as", None): ((1, 1), (1, 1), (1, 1), (3, 3), (9, 9)),
    ("as", "phi-fails"): ((1, 0), (1, 0), (1, 0), (3, 0), (9, 0)),
    ("as", "phi-holds"): ((1, 1), (1, 1), (1, 1), (3, 3), (9, 9)),
    ("near-as", None): ((1, 1), (1, 1), (3, 3), (22, 22), (244, 244)),
    ("near-as", "phi-fails"): ((1, 0), (1, 0), (3, 0), (22, 0), (244, 0)),
    ("near-as", "phi-holds"): ((1, 1), (1, 1), (3, 3), (22, 22), (244, 244)),
    ("kad", None): ((1, 1), (1, 1), (1, 1), (3, 3), (9, 9), (50, 50)),
    ("kad", "phi-fails"): ((1, 0), (1, 0), (1, 0), (3, 0), (9, 0)),
    ("kad", "phi-holds"): ((1, 1), (1, 1), (1, 1), (3, 3), (9, 9)),
    ("ars", None): ((1, 1), (1, 1), (1, 1), (3, 3), (9, 9)),
    ("kadr", None): ((1, 1), (1, 1), (1, 1), (3, 3), (9, 9)),
    ("kadr", "phi-fails"): ((1, 0), (1, 0), (1, 0), (3, 0), (9, 0)),
    ("kadr", "phi-holds"): ((1, 1), (1, 1), (1, 1), (3, 3), (9, 9)),
}


def test_searches_keep_their_candidates_and_models(searched_with_stats):
    got = {}
    for (size, profile, constraint), _, stats in searched_with_stats:
        runs = got.setdefault((profile.value, constraint), [])
        assert len(runs) == size - 1
        runs.append((stats.candidates, stats.models))
    assert got == {spec: list(runs) for spec, runs in _YIELDS.items()}


def _relabellings(n):
    """The relabellings of the middle elements but the identity, with
    their inverses, as the search passes them to ``_stabiliser``."""
    return [(pi, tuple(sorted(range(n), key=pi.__getitem__)))
            for pi in ((0, *p, n - 1) for p in permutations(range(1, n - 1)))
            ][1:]


def _partial_plus(n, rows):
    """A + table on n elements with 0 as its unit, the given rows filled
    and mirrored, and every other cell the unknown index n."""
    P = [[n] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        P[0][i] = P[i][0] = i
    for i, row in rows.items():
        for j, v in enumerate(row):
            P[i][j] = P[j][i] = v
    return P


def test_stabiliser_drops_a_partial_table_at_its_first_smaller_row():
    # 0 a b c 1: with a + b = c = a + c, swapping b and c maps row a onto
    # (a, a, b, b, 1), smaller than (a, a, c, c, 1); rows b, c and 1 still
    # hold the unknown index, and no completion can undo it
    P = _partial_plus(5, {1: [1, 1, 3, 3, 4]})
    assert search._stabiliser(P, False, _relabellings(5), 5) is None


def test_stabiliser_keeps_a_relabelling_its_unfilled_rows_decide():
    # with a + b = b and a + c = c, swapping b and c keeps row a and stops
    # at row b, and every other relabelling reads row a from row b or c,
    # which still hold the unknown index: all are kept
    perms = _relabellings(5)
    P = _partial_plus(5, {1: [1, 1, 2, 3, 4]})
    assert search._stabiliser(P, False, perms, 5) == perms
    # once row b reads b + b = b, swapping a and b maps it onto row a as
    # (a, a, a, ...), smaller than (a, a, b, ...)
    P = _partial_plus(5, {1: [1, 1, 2, 3, 4], 2: [2, 2, 2, 3, 4]})
    assert search._stabiliser(P, False, perms, 5) is None


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


@pytest.mark.parametrize("profile", list(Profile))
def test_pinned_checks_get_the_filled_cells_by_value(profile, monkeypatch):
    # on every pinned call, plus_pre and times_pre hold, as multisets, the
    # filled cells of + and ; grouped by the value they hold
    calls = []

    def checked(at):
        def wrapper(*args):
            plus_pre, times_pre, ci, cj = args[-4:]
            tables = _Tables(*args[:-4])
            expected = naive_preimages(tables)
            got = [[sorted(cells) for cells in pre]
                   for pre in (plus_pre, times_pre)]
            assert got == [[sorted(cells) for cells in pre]
                           for pre in expected], (tables.n, ci, cj)
            calls.append(tables.n)
            return at(*args)
        return wrapper

    for stage in search._plan(profile):
        if stage.at is not None:
            monkeypatch.setattr(stage, "at", checked(stage.at))
    for size in (1, 2, 3, 4) + ((5,) if profile == Profile.KAD else ()):
        list(find_models(size, profile, bound=size))
    assert 4 in calls and (profile != Profile.KAD or 5 in calls)


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


def test_every_other_complement_breaks_a_law(searched):
    # the complement of a Boolean algebra is unique, so the one the search
    # derives is the only involution of the test set that passes the profile
    models = others = 0
    for (_, profile, constraint), found in searched:
        if profile not in (Profile.TS, Profile.KAT) or constraint:
            continue
        for m in found:
            models += 1
            tb, names = m.tables, m.carrier
            for values in permutations(tb.tests):
                comp = dict(zip(tb.tests, values))
                if comp == tb.complement or any(comp[v] != t
                                                for t, v in comp.items()):
                    continue
                other = FiniteAlgebra(
                    names, names[tb.zero], names[tb.one], tb.plus, tb.times,
                    star=tb.star, tests=[names[t] for t in tb.tests],
                    complement={names[t]: names[v] for t, v in comp.items()})
                assert not check_axioms(other, profile).passed, (m.name, comp)
                others += 1
    assert (models, others) == (126, 140)


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_builtin_tables_follow_the_derivation_rule(name):
    # the search derives the star as the sum of the powers, the antidomain
    # and antirange of x as the joins of the tests t with t ; x = 0 and with
    # x ; t = 0, and the complement of a test t as the join of the tests r
    # with r ; t = 0; none of these models came from the search
    tb = BUILTIN_MODELS[name]().tables
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
    for t in tb.tests if tb.complement else ():
        assert tb.complement[t] == join(r for r in tb.tests
                                        if T[r][t] == tb.zero), t

"""Seeded job sets for the four workloads.

Each workload is a fixed list of job slots.  The seed decides the content
of every slot (carrier order and row order of model files, terms, random
relations and tests, target sets) and the order of the jobs, never which
slots exist, so the work per pass is the same for every seed.  Inputs
reach the program only as files and argv; every job carries a check that
derives its verdict from ``references`` alone.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import references as ref

STRUCTURED = ("--format", "structured")


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    ``argv`` is a kadlab command line (the global ``--format structured``
    comes first); ``search`` is ``(size, profile, constraint)`` for a
    library ``find_models`` call.  ``check`` takes the job's output and
    returns None when the verdict matches the reference, else a reason.
    """

    label: str
    check: Callable
    argv: tuple = ()
    search: Optional[tuple] = None


def _expect(cond, reason):
    return None if cond else reason


# ---------------------------------------------------------------------------
# laws: check-axioms, check-phi, eval and demo separation

# factor lists of the product models; sizes 9, 12, 12, 16, 16, 32, 48, 64, 64
PRODUCTS = (
    ("lemma4", "lemma4"), ("nearas", "lemma4"), ("lemma4", "bool2", "bool2"),
    ("nearas", "nearas"), ("nearas", "bool2", "bool2"), ("rel2", "bool2"),
    ("lemma4", "rel2"), ("rel2", "nearas"), ("rel2", "bool2", "bool2"),
)
# products up to this size get every applicable profile checked; larger
# ones only these (near-as on rel2 x bool2 is 100,544 instances)
AXIOM_PRODUCT_MAX = 16
LARGE_AXIOM_JOBS = {("rel2", "bool2"): ("near-as",)}
REL2_PROFILES = ("kat", "as", "kad", "ars", "kadr")
EVAL_BUILTINS = ("lemma4", "bool2", "nearas", "trivial")
EVALS_PER_BUILTIN = 4
EVALS_PER_PRODUCT = 4


def dump_model(A: ref.Table, rng: random.Random) -> str:
    """Model file text with the table rows in a seeded order."""
    n = A.names
    rows = [f"{op}: {n[i]} {n[j]} -> {n[getattr(A, op)[i][j]]}"
            for op in ("plus", "times")
            for i in range(A.size) for j in range(A.size)]
    for op in ("star", "adom", "aran"):
        table = getattr(A, op)
        if table is not None:
            rows += [f"{op}: {n[i]} -> {n[table[i]]}" for i in range(A.size)]
    if A.tests is not None and A.adom is None:
        rows += [f"not: {n[t]} -> {n[A.comp[t]]}" for t in A.tests]
    rng.shuffle(rows)
    head = [f"carrier: {' '.join(n)}", f"zero: {n[A.zero]}", f"one: {n[A.one]}"]
    if A.tests is not None:
        head.append("tests: " + " ".join(n[t] for t in A.tests))
    return "\n".join(head + rows) + "\n"


def random_term(rng: random.Random, ops: frozenset, size: int,
                elem_vars, test_vars, want_test=False):
    """A well-sorted term tuple with about ``size`` operator nodes."""
    if size <= 0:
        pool = ["0", "1"] + list(test_vars) + ([] if want_test else list(elem_vars))
        pick = rng.choice(pool)
        return (pick,) if pick in ("0", "1") else ("var", pick)
    choices = ["+", ";"]
    if "tests" in ops:
        choices.append("!")
    if "adom" in ops:
        choices += ["a", "d", "box"]
    if "aran" in ops:
        choices += ["ar", "r"]
    if "star" in ops and not want_test:
        choices.append("*")
    op = rng.choice(choices)
    rest = size - 1

    def sub(n, test=want_test):
        return random_term(rng, ops, n, elem_vars, test_vars, test)

    if op in ("+", ";"):
        k = rng.randint(0, rest)
        return (op, sub(k), sub(rest - k))
    if op == "!":
        return ("!", sub(rest, True))
    if op == "box":
        k = rng.randint(0, rest)
        return ("box", sub(k, False), sub(rest - k, False))
    return (op, sub(rest, False))


def _check_axioms_job(label, source, A, profile, failures):
    def check(out):
        code, payload, _ = out
        if payload is None:
            return f"no report (exit {code})"
        seen = {v["axiom"] for v in payload["violations"]}
        reason = (_expect(code == (1 if failures else 0), f"exit {code}")
                  or _expect(payload["passed"] == (not failures), "verdict")
                  or _expect(seen == set(failures), f"violated {sorted(seen)}"))
        if reason or A is None:
            return reason
        for v in payload["violations"]:
            env = {k: A.index(e) for k, e in v["assignment"].items()}
            if ref.law_holds_at(A, ref.law(profile, v["axiom"]), env):
                return f"{v['axiom']} holds at the reported assignment"
        return None

    return Job(label, check, STRUCTURED + ("check-axioms",) + source
               + ("--profile", profile))


def _check_phi_job(label, source, A, holds, witness=None):
    def check(out):
        code, payload, _ = out
        if payload is None:
            return f"no report (exit {code})"
        reason = (_expect(code == (0 if holds else 1), f"exit {code}")
                  or _expect(payload["holds"] == holds, "verdict"))
        if reason or holds:
            return reason
        got = tuple(payload["witness"])
        if witness is not None:
            return _expect(got == witness, f"witness {got}")
        return _expect(ref.phi_fails_at(A, *(A.index(e) for e in got)),
                       f"witness {got} does not refute phi")

    return Job(label, check, STRUCTURED + ("check-phi",) + source)


def _eval_job(label, source, A, rng):
    test_names = [A.names[t] for t in A.tests] if A.tests is not None else []
    env = {v: rng.choice(A.names) for v in ("x", "y", "z")}
    test_vars = ()
    if test_names:
        env.update({v: rng.choice(test_names) for v in ("p", "q")})
        test_vars = ("p", "q")
    term = random_term(rng, A.ops, rng.randint(6, 14), ("x", "y", "z"), test_vars)
    expected = A.names[ref.eval_term(A, term, {k: A.index(e) for k, e in env.items()})]

    def check(out):
        code, payload, _ = out
        if payload is None:
            return f"no report (exit {code})"
        return (_expect(code == 0, f"exit {code}")
                or _expect(payload["result"] == expected,
                           f"{payload['result']} != {expected}"))

    return Job(label, check, STRUCTURED + (
        "eval",) + source + ("--term", ref.render_term(term),
                             "--env", ",".join(f"{k}={v}" for k, v in env.items())))


def _separation_check(out):
    code, payload, _ = out
    if payload is None:
        return f"no report (exit {code})"
    want = {"kat_axioms_pass": True, "phi_fails_on_lemma4": True,
            "phi_witness": list(ref.LEMMA4_PHI_WITNESS),
            "kad_axioms_pass": True, "phi_holds_on_rel2": True,
            "separated": True}
    wrong = [k for k, v in want.items() if payload.get(k) != v]
    return _expect(code == 0 and not wrong, f"exit {code}, wrong {wrong}")


def laws_jobs(rng: random.Random, workdir: Path) -> list:
    jobs = []
    for b, make in ref.BUILTINS.items():
        A = make()
        source = ("--builtin", b)
        # the program names rel1/rel2 elements differently, so reported
        # violations are re-checked on the other builtins only
        named = A if b in EVAL_BUILTINS else None
        profiles = ref.profiles_for(ref.BUILTIN_OPS[b])
        if b == "rel2":
            profiles = REL2_PROFILES
        for p in profiles:
            jobs.append(_check_axioms_job(f"check-axioms {b} {p}", source, named,
                                          p, ref.builtin_failures(b, p)))
        witness = None if ref.builtin_phi(b) else ref.LEMMA4_PHI_WITNESS
        jobs.append(_check_phi_job(f"check-phi {b}", source, named,
                                   ref.builtin_phi(b), witness))
        if b in EVAL_BUILTINS:
            jobs += [_eval_job(f"eval {b}", source, A, rng)
                     for _ in range(EVALS_PER_BUILTIN)]
    for factors in PRODUCTS:
        name = "x".join(factors)
        A = ref.product_table(*(ref.BUILTINS[f]() for f in factors))
        order = list(range(A.size))
        rng.shuffle(order)
        A = ref.permuted(A, order)
        path = workdir / f"{name}.alg"
        path.write_text(dump_model(A, rng))
        source = ("--model", str(path))
        ops = ref.product_ops(factors)
        profiles = (ref.profiles_for(ops) if A.size <= AXIOM_PRODUCT_MAX
                    else LARGE_AXIOM_JOBS.get(factors, ()))
        for p in profiles:
            jobs.append(_check_axioms_job(f"check-axioms {name} {p}", source, A,
                                          p, ref.product_failures(factors, p)))
        if "tests" in ops:
            jobs.append(_check_phi_job(f"check-phi {name}", source, A,
                                       ref.product_phi(factors)))
        jobs += [_eval_job(f"eval {name}", source, A, rng)
                 for _ in range(EVALS_PER_PRODUCT)]
    jobs.append(Job("demo separation", _separation_check,
                    STRUCTURED + ("demo", "separation")))
    return jobs


# ---------------------------------------------------------------------------
# search: find_models through the library (the CLI refuses sizes above 4)

IDEMPOTENT = ("dioid", "kleene", "ts", "kat", "as", "kad", "ars", "kadr")
PHI_CAPABLE = ("ts", "kat", "as", "kad", "kadr")


def _search_check(size, profile, constraint):
    def check(models):
        for A in models:
            if A.size != size:
                return f"model of size {A.size}"
            bad = ref.failing_laws(A, profile)
            if bad:
                return f"yielded model violates {sorted(bad)}"
            if constraint is not None and \
                    ref.phi_holds(A) != (constraint == "phi-holds"):
                return f"yielded model breaks {constraint}"
        forms = {ref.canonical_form(A) for A in models}
        return _expect(len(forms) == len(models), "isomorphic models yielded")

    return check


def search_jobs(rng: random.Random, workdir: Path) -> list:
    specs = [(s, p, None) for s in (3, 4) for p in ref.PROFILE_LAWS]
    for p in IDEMPOTENT:
        specs.append((5, p, None))
        if p in PHI_CAPABLE:
            specs += [(5, p, "phi-fails"), (5, p, "phi-holds")]
    specs += [(5, "semiring", None), (6, "kad", None)]
    return [Job(f"find_models {s} {p} {c or ''}".rstrip(), _search_check(s, p, c),
                search=(s, p, c)) for s, p, c in specs]


# ---------------------------------------------------------------------------
# hoare: vcgen and synth-mid on program files

HOARE_SIZES = (8, 32, 128)
# program files per template and state-space size, each with fresh bindings
TEMPLATE_FILES = {8: 12, 32: 12, 128: 8}
# (statements, files) of straight-line programs; parsing dominates these
STRAIGHT_LINE = {8: (300, 4), 32: (200, 4)}
PRE_SHAPE, POST_SHAPE = 3, 0
SYNTH_METHODS = ("wlp", "range", "meet")
SYNTH_REPEATS = 2
ATOMS = ("x1", "x2", "x3", "x4", "x5", "x6")
ATOM_DEGREE = 3
TESTS = ("t1", "t2", "t3", "t4")


def _guard(rng, shape):
    """A guard of a fixed shape (0-3) over seeded test names; the shape
    fixes the share of states it admits: 1/2, 1/2, 1/4 or 3/4."""
    a, b = rng.sample(TESTS, 2)
    return [("t", a), ("not", ("t", a)), ("and", ("t", a), ("t", b)),
            ("or", ("t", a), ("not", ("t", b)))][shape]


def _seq(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("seq", out, p)
    return out


def _templates(rng):
    """Nested if/while shapes; the seed fills in atoms and guard names."""
    shapes = itertools.cycle(range(4))
    a = lambda: ("atom", rng.choice(ATOMS))
    g = lambda: _guard(rng, next(shapes))
    return [
        _seq(a(), ("if", g(), _seq(a(), a()), ("while", g(), _seq(a(), a()), None)),
             ("while", g(), ("if", g(), a(), ("skip",)), g()), a()),
        _seq(("while", g(), ("if", g(), _seq(a(), a()), a()), None),
             ("if", g(), ("while", g(), a(), None), _seq(a(), a()))),
        ("while", g(), _seq(a(), ("while", g(), a(), g()),
                            ("if", g(), a(), ("skip",))), g()),
        ("if", g(), _seq(a(), a(), a()),
         _seq(("while", g(), a(), None), a())),
    ]


def render_guard(g) -> str:
    kind = g[0]
    if kind == "t":
        return g[1]
    if kind == "true":
        return "1"
    if kind == "false":
        return "0"
    if kind == "not":
        return "!" + render_guard(g[1])
    op = " & " if kind == "and" else " | "
    return "(" + render_guard(g[1]) + op + render_guard(g[2]) + ")"


def render_program(p) -> str:
    kind = p[0]
    if kind == "skip":
        return "skip"
    if kind == "atom":
        return p[1]
    if kind == "seq":
        return f"{render_program(p[1])} ; {render_program(p[2])}"
    if kind == "if":
        return (f"if {render_guard(p[1])} then {render_program(p[2])} "
                f"else {render_program(p[3])} fi")
    inv = "" if p[3] is None else f" invariant {render_guard(p[3])}"
    return f"while {render_guard(p[1])}{inv} do {render_program(p[2])} od"


def _rel_literal(succ, names):
    return "{" + ",".join(f"({names[s]},{names[t]})"
                          for s in range(len(succ)) for t in sorted(succ[s])) + "}"


def _bindings(rng, n):
    """Sparse atoms and half-size tests.  Every state has ATOM_DEGREE
    successors, so a loop guarded by half the states still branches more
    than once per step and the size of its closure varies little by seed."""
    atoms = {x: tuple(frozenset(rng.sample(range(n), ATOM_DEGREE)) for _ in range(n))
             for x in ATOMS}
    tests = {t: frozenset(rng.sample(range(n), n // 2)) for t in TESTS}
    return atoms, tests


def _program_file(names, atoms, tests, pre=None, post=None, prog=None):
    lines = [f"states: {' '.join(names)}"]
    lines += [f"rel {x} = {_rel_literal(r, names)}" for x, r in atoms.items()]
    lines += [f"test {t} = {ref.format_test(s, names)}" for t, s in tests.items()]
    if pre is not None:
        lines += [f"pre: {render_guard(pre)}", f"post: {render_guard(post)}"]
    if prog is not None:
        lines.append(f"program: {render_program(prog)}")
    return "\n".join(lines) + "\n"


def _vcgen_job(label, path, names, atoms, tests, pre, prog, post):
    n = len(names)
    p = ref.eval_guard(pre, tests, n)
    q = ref.eval_guard(post, tests, n)
    precondition, vcs = ref.vc_conditions(p, prog, q, atoms, tests, n)
    fmt = lambda s: ref.format_test(s, names)
    want = sorted((name, fmt(l), fmt(r), l <= r) for name, l, r in vcs)
    valid = all(l <= r for _, l, r in vcs)

    def check(out):
        code, payload, _ = out
        if payload is None:
            return f"no report (exit {code})"
        got = sorted((c["name"], c["lhs"], c["rhs"], c["holds"])
                     for c in payload["conditions"])
        return (_expect(code == (0 if valid else 1), f"exit {code}")
                or _expect(payload["valid"] == valid, "verdict")
                or _expect(payload["precondition"] == fmt(precondition),
                           "precondition")
                or _expect(got == want, "conditions"))

    return Job(label, check, STRUCTURED + ("vcgen", "--program", str(path)))


def _synth_job(label, path, names, atoms, tests, x, y, pre, post, method):
    n = len(names)
    p = ref.eval_guard(pre, tests, n)
    q = ref.eval_guard(post, tests, n)
    X = ref.denotation(x, atoms, tests, n)
    Y = ref.denotation(y, atoms, tests, n)
    premise = ref.triple_holds(p, ref.compose(X, Y), q)
    reach = frozenset(k for s in p for k in X[s])
    r = {"wlp": ref.wlp(Y, q), "range": reach,
         "meet": ref.wlp(Y, q) & reach}[method]

    def check(out):
        code, payload, err = out
        if not premise:
            return _expect(code == 1 and payload is None and "refused" in err,
                           f"premise fails but exit {code}")
        if payload is None:
            return f"no report (exit {code})"
        return (_expect(code == 0, f"exit {code}")
                or _expect(payload["r"] == ref.format_test(r, names), "r")
                or _expect(payload["first_triple"] and payload["second_triple"],
                           "triples"))

    return Job(label, check, STRUCTURED + (
        "synth-mid", "--program", str(path), "--x", render_program(x),
        "--y", render_program(y), "--pre", render_guard(pre),
        "--post", render_guard(post), "--method", method))


def hoare_jobs(rng: random.Random, workdir: Path) -> list:
    jobs = []
    for n in HOARE_SIZES:
        names = [str(i + 1) for i in range(n)]
        for f in range(TEMPLATE_FILES[n]):
            for k, prog in enumerate(_templates(rng)):
                atoms, tests = _bindings(rng, n)
                pre, post = _guard(rng, PRE_SHAPE), _guard(rng, POST_SHAPE)
                path = workdir / f"n{n}-t{k}-{f}.prog"
                path.write_text(_program_file(names, atoms, tests, pre, post, prog))
                jobs.append(_vcgen_job(f"vcgen n={n} template {k}", path, names,
                                       atoms, tests, pre, prog, post))
        length, files = STRAIGHT_LINE.get(n, (0, 0))
        for f in range(files):
            atoms, tests = _bindings(rng, n)
            prog = _seq(*(("atom", rng.choice(ATOMS)) for _ in range(length)))
            pre, post = _guard(rng, PRE_SHAPE), _guard(rng, POST_SHAPE)
            path = workdir / f"n{n}-line-{f}.prog"
            path.write_text(_program_file(names, atoms, tests, pre, post, prog))
            jobs.append(_vcgen_job(f"vcgen n={n} straight line", path, names,
                                   atoms, tests, pre, prog, post))
        # each method once with a seeded postcondition (the premise may fail,
        # which the program must refuse) and once with post 1 (it holds)
        atoms, tests = _bindings(rng, n)
        path = workdir / f"n{n}-bindings.prog"
        path.write_text(_program_file(names, atoms, tests))
        for method in SYNTH_METHODS * SYNTH_REPEATS:
            for post in (_guard(rng, POST_SHAPE), ("true",)):
                x, y = _templates(rng)[:2]
                jobs.append(_synth_job(f"synth-mid n={n} {method}", path, names,
                                       atoms, tests, x, y,
                                       _guard(rng, PRE_SHAPE), post, method))
    return jobs


# ---------------------------------------------------------------------------
# nonexpressivity: demo nonexpressivity on infinite, co-infinite targets

# (target kind, candidate count); "pP/R" is a seeded periodic set of
# period P with R residues, R coprime to P so P is the minimal period
NONEXPRESSIVITY_SLOTS = (
    [("evens", 100), ("odds", 100), ("p12/5", 100), ("p7/3", 100)] * 4
    + [("evens", 150), ("odds", 150), ("p12/5", 150), ("p10/3", 150)] * 3
    + [("evens", 250), ("odds", 250), ("p12/5", 250), ("p7/3", 250)] * 2
    + [("evens", 250), ("odds", 250), ("evens", 500), ("p12/5", 500)]
)


def random_periodic(rng: random.Random, period: int, count: int) -> ref.Periodic:
    threshold = rng.randint(0, 8)
    head = frozenset(k for k in range(threshold) if rng.random() < 0.5)
    residues = frozenset(rng.sample(range(period), count))
    return ref.Periodic(threshold, head, period, residues)


def nonexpressivity_jobs(rng: random.Random, workdir: Path) -> list:
    jobs = []
    for kind, count in NONEXPRESSIVITY_SLOTS:
        if kind == "evens":
            target, literal = ref.EVENS, "evens"
        elif kind == "odds":
            target, literal = ref.ODDS, "odds"
        else:
            period, residues = map(int, kind[1:].split("/"))
            target = random_periodic(rng, period, residues)
            literal = target.literal()

        def check(out, target=target, count=count):
            code, payload, _ = out
            if payload is None:
                return f"no report (exit {code})"
            entries = payload["entries"]
            cands = [e["candidate"] for e in entries]
            return (_expect(code == 0 and payload["all_refuted"], f"exit {code}")
                    or _expect(payload["refuted"] == count == len(entries),
                               "candidate count")
                    or _expect(len(set(cands)) == count, "repeated candidates")
                    or _expect(all(e["verified"] and ref.refutation_ok(
                        target, e["candidate"], e["verdict"]) for e in entries),
                        "a refutation does not hold"))

        jobs.append(Job(f"nonexpressivity {kind} {count}", check, STRUCTURED + (
            "demo", "nonexpressivity", "--set", literal,
            "--candidates", str(count))))
    return jobs


WORKLOADS = {
    "laws": laws_jobs,
    "search": search_jobs,
    "hoare": hoare_jobs,
    "nonexpressivity": nonexpressivity_jobs,
}

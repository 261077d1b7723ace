"""Per-layer timings of kadlab's layers, into BENCH_<label>.json.

Usage, from the repository root:

    python3 bench/layers.py --label NAME [--src DIR] [--against DIR]
        [--out DIR]

``--src`` is the directory that holds the ``kadlab`` package (default:
this repository's ``src``), so the same script times any checkout.  For
each layer and state count n in 3, 8, 32 and 128 it builds a seeded set of
inputs, times one loop over them ``RUNS`` times and records the median and
the quartiles:

- ``compose``: R ; S on random relations with three successors per state;
- ``compose_test_left`` / ``compose_test_right``: t ; R and R ; t with a
  test t on half the states;
- ``star``, ``box`` (R and a half-size test), ``aran``;
- ``parse_rel_literal``: the printed form of such a relation (3n pairs).

The Hoare layer (workload ``hoare``) times ``denote``, ``wlp`` (post q),
``vcgen`` (pre p, post q) and ``synth_mid`` for each method (layers
``denote``, ``wlp``, ``vcgen`` and ``synth_mid_<method>``) at the same
state counts, on seeded if/while programs of nesting depth 2 over two such
relations x, y and two such tests p, q, each input with its own bindings;
``synth_mid`` splits each program from the next one, under a precondition
for which the premise holds.

The law layer (workload ``laws``, size 16, the carrier of ``rel2``) times
``check_axioms(rel2, profile)`` for every profile (``rel2`` has all their
operations), as layer ``check_axioms_<profile>``, ``check_rules(rel2,
profile)`` for kat and kad, as layer ``check_rules_<profile>``, and
``check_phi(rel2)``; its instances are the library's own counts,
``CheckReport.instance_count`` and ``PhiResult.instantiations``.  Layer
``evaluate`` times ``evaluate`` on ``EVAL_TERMS`` seeded terms over each of
lemma4, bool2, nearas and trivial (size: the carrier), each term and its
bindings drawn as perfbench's ``laws`` workload draws an ``eval`` job and
read as the ``eval`` command reads them; it reports microseconds per call.
Layer ``eval_command`` times those jobs' ``eval`` commands, run through
``cli.main`` in process as that workload runs them, in microseconds per
command.
At size 512, the carrier of ``rel3``, it times one call per run of
``rel_algebra_model(3)`` (layer ``rel3_build``, one instance) and of
``check_phi`` on a ``rel3`` built beforehand (layer ``check_phi_rel3``).  Layer ``check_phi_products`` times ``check_phi`` on
the products with tests of perfbench's ``laws`` workload at 32 and 64
elements, loaded from their seeded dumps as that workload writes them;
its instances are the instantiations the calls report.  Layer
``structured_report`` (workload ``cli``) times the ``--format
structured`` encoder on the payloads of ``demo nonexpressivity`` at 100
and 500 candidates, of ``vcgen`` on a 128-state program file of
perfbench's ``hoare`` workload and of a failing ``check-axioms``
(``nearas``, ``as``), one record per report (``report``) at the size of
its text in characters, so it reports microseconds per report.  Both
layers are timed as the search layers are (below).  Layer
``load_model`` times ``load_model`` on ``LOAD_TEXTS`` model texts at
each of 16, 32 and 64 elements, the products of perfbench's ``laws``
workload at those sizes, each relabelled and with its rows shuffled by
perfbench's ``dump_model`` as that workload writes them; its instances
are the texts' table rows, so it reports microseconds per row.  Layers
``load_model_commented``,
``load_model_tabbed`` and ``load_model_spaced`` time the 64-element texts
behind a ``# model 1`` line, as ``find-models`` prints a model, with tabs
around ``->``, and spelt ``plus:a b->c``; the last two are read row by
row.  Layer ``load_program_file`` times
``load_program_file`` on the program texts of perfbench's ``hoare``
workload at each of its state counts (8, 32 and 128), one text per
template with fresh bindings, written by that workload's own writer; its
instances are the pairs of the texts' relation literals, so it reports
microseconds per pair.

The search layer (workload ``search``) times ``find_models`` for each of
the 40 (size, profile, constraint) jobs of perfbench's ``search`` workload,
for near-as at size 5 and for kleene, ts, kat and kadr at size 6 (with
the workload's kad, every star profile at size 6), as layer
``find_models_<profile>[_<constraint>]`` at the carrier size, and records
the ``SearchStats`` of one call under ``stats``.  A run makes as many calls
(``instances``) as took ``SEARCH_RUN_S`` by the untimed pass, at least one,
so that sub-millisecond searches are not timed one call at a time.  A
layer left at one call per run gets ``SLOW_RUNS`` runs, or more if they
take less than ``SLOW_RUNS_S`` by the untimed pass: seven single-call runs
of a 5-200 ms search spread by 17-36% of their median on a shared host,
too widely to show a change of 10-20%.

``--against DIR`` names a second directory holding a ``kadlab`` package,
typically a checkout of the parent commit.  It is imported beside the
first under the package name ``kadlab_against`` (the package's modules
import each other relatively), and each search layer left at one call per
run times the two trees' calls alternately in one process, the first
call of each pair taking turns.  Host drift over the minutes between two
separate files then cancels out of the per-pair ratio.  Before anything
is timed, each search layer's models (their names and model files) are
compared with those the other tree yields; if they differ the script
stops with exit 2 and names the layer, so that a ratio never compares
different work.  A paired record also holds ``seconds_runs``, this
tree's runs, ``against`` (the other tree's commit, source hash, median,
quartiles and ``seconds_runs``) and ``ratio``, the median over the pairs
of this tree's run over the other's.

The evsets layer (workload ``nonexpressivity``) times
``refute_wlp_candidate`` then ``verify_refutation`` on each of the first
500 candidates of the evens and of a seeded period-12 target (layers
``refute_verify_evens`` and ``refute_verify_p12``, size 500), and
``union``, ``intersect``, ``difference`` and ``leq`` on 64 seeded pairs of
sets with thresholds up to 8 and periods up to 12 (size 12).

The start-up layers (workload ``cli``) run fresh interpreters,
``FRESH_RUNS`` of each after one untimed, with ``--src`` on their path:
layer ``import_cli`` times ``import kadlab.cli`` inside the interpreter,
probed before and after as perfbench's ``setup_s`` is (its snippet, with
no builtins built), and layer ``cli_wall`` the wall time of one ``python
-m kadlab.cli`` process per command of the README's Command line block,
in text form, in a directory holding the files those commands read (both
as ``tests/test_readme_golden.py`` has them); its records name the
command.  Under ``--against`` the two trees' processes run in turn, the
first of each pair taking turns, and the ratio is taken over the
rescaled runs.

Each record holds workload, layer, size, instances (operations per run),
seconds (median per run), seconds_q1 and seconds_q3 (the quartiles of the
runs), runs (their number), rate (instances / seconds), the Python
version, and the commit and a hash of the ``kadlab`` sources it timed.
Just before each timed run the median of nine speed probes
(``perfbench/speed.py``) is taken, and the run is rescaled by it to the
probe's reference speed.  ``probe_s`` is the median of those probes and
``seconds_ref`` the median of the rescaled runs (``seconds_ref_q1`` and
``seconds_ref_q3`` their quartiles), so that host drift between two
files, and within one layer's runs, can be told from a change to the
layer.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import importlib.util
import json
import math
import operator
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from speed import probe, rescale  # noqa: E402
SIZES = (3, 8, 32, 128)
INPUTS = 16
# loops over the inputs per run, so that a run at each size takes milliseconds
LOOPS = {3: 200, 8: 100, 32: 20, 128: 3}
# timed runs per layer and size
RUNS = 7
DEGREE = 3
# loops per run of each law-layer call (a few milliseconds each on rel2)
LAW_LOOPS = 10
# the evaluate layer: terms per builtin, and loops over them per run
EVAL_TERMS = 16
EVAL_LOOPS = 10
# the load_model layer: per carrier size, the product model, the texts of
# it timed and the loops over them per run
LOAD_PRODUCTS = {16: ("nearas", "nearas"), 32: ("rel2", "bool2"),
                 64: ("rel2", "bool2", "bool2")}
LOAD_TEXTS = 4
LOAD_LOOPS = {16: 10, 32: 3, 64: 1}
# the 64-element texts again, as find-models prints a model (behind its
# comment line) and in two spellings the bulk reader refuses (tabs around
# ->, and no space after : or around ->)
LOAD_SPELLINGS = {
    "load_model_commented": "# model 1 (search-laws-64-1)\n".__add__,
    "load_model_tabbed": lambda text: text.replace(" -> ", "\t->\t"),
    "load_model_spaced": lambda text: text.replace(": ", ":").replace(
        " -> ", "->")}
# loops per run over the load_program_file texts, by state count
PROGRAM_LOOPS = {8: 20, 32: 5, 128: 1}
# loops per run over the set-operation pairs
SETOP_LOOPS = 50
# seconds a run of one search layer should take, by its untimed pass
SEARCH_RUN_S = 0.005
# runs of a search layer at one call per run: at least SLOW_RUNS, and as
# many as take SLOW_RUNS_S by the untimed pass
SLOW_RUNS = 15
SLOW_RUNS_S = 1.0
# timed fresh interpreters per tree of each start-up layer
FRESH_RUNS = 11
# the search workload's profiles with + idempotent, and those with tests
IDEMPOTENT = ("dioid", "kleene", "ts", "kat", "as", "kad", "ars", "kadr")
PHI_CAPABLE = ("ts", "kat", "as", "kad", "kadr")


def _rel(Rel, space, rng: random.Random):
    """A random relation with ``DEGREE`` successors per state."""
    n, names = space.size, space.names
    return Rel.from_pairs(space, [(names[i], names[j]) for i in range(n)
                                  for j in rng.sample(range(n), min(DEGREE, n))])


def _test(Rel, space, rng: random.Random):
    """A random test on half the states."""
    return Rel.test_from_states(space, rng.sample(space.names, space.size // 2))


def _cases(kadlab_relations, n: int, rng: random.Random) -> dict:
    """Per layer, the zero-argument calls of one loop over the inputs."""
    Rel, StateSpace = kadlab_relations.Rel, kadlab_relations.StateSpace
    parse, fmt = kadlab_relations.parse_rel_literal, kadlab_relations.format_rel
    space = StateSpace.of_size(n)
    rels = [(_rel(Rel, space, rng), _rel(Rel, space, rng),
             _test(Rel, space, rng)) for _ in range(INPUTS)]
    texts = [fmt(r) for r, _, _ in rels]
    return {
        "compose": [lambda r=r, s=s: r.compose(s) for r, s, _ in rels],
        "compose_test_left": [lambda r=r, t=t: t.compose(r) for r, _, t in rels],
        "compose_test_right": [lambda r=r, t=t: r.compose(t) for r, _, t in rels],
        "star": [r.star for r, _, _ in rels],
        "box": [lambda r=r, t=t: r.box(t) for r, _, t in rels],
        "aran": [r.aran for r, _, _ in rels],
        "parse_rel_literal": [lambda text=text: parse(space, text) for text in texts],
    }


def _program(rng: random.Random, depth: int) -> str:
    """A seeded program text over atoms x, y and tests p, q."""
    if depth == 0:
        return rng.choice(("x", "y", "skip"))
    guard = rng.choice(("p", "q", "!p", "p ; !q", "p + q"))
    first, second = _program(rng, depth - 1), _program(rng, depth - 1)
    return rng.choice((f"if {guard} then {first} else {second} fi",
                       f"while {guard} do {first} ; {second} od",
                       f"{first} ; {second}"))


def _hoare_cases(relations, hoare, n: int, rng: random.Random) -> dict:
    """Per Hoare layer, the zero-argument calls of one loop over the inputs.

    Input i is a program over its own bindings; synthesis splits it from
    the program of input i + 1 (mod ``INPUTS``), with q as postcondition and
    p meet the wlp of the pair as precondition, so that the premise holds."""
    Rel, space = relations.Rel, relations.StateSpace.of_size(n)
    inputs = []
    for _ in range(INPUTS):
        bindings = hoare.Bindings(
            space, {"x": _rel(Rel, space, rng), "y": _rel(Rel, space, rng)},
            {"p": _test(Rel, space, rng), "q": _test(Rel, space, rng)})
        prog = hoare.parse_program(_program(rng, 2), bindings.atoms,
                                   bindings.tests)
        inputs.append((bindings, prog))
    cases = {"denote": [functools.partial(hoare.denote, prog, b)
                        for b, prog in inputs]}
    cases["wlp"] = [functools.partial(hoare.wlp, prog, b.tests["q"], b)
                    for b, prog in inputs]
    cases["vcgen"] = [functools.partial(hoare.vcgen, b.tests["p"], prog,
                                        b.tests["q"], b) for b, prog in inputs]
    for method in hoare.SYNTH_METHODS:
        cases[f"synth_mid_{method}"] = calls = []
        for i, (b, x) in enumerate(inputs):
            y, q = inputs[(i + 1) % INPUTS][1], b.tests["q"]
            pre = b.tests["p"] & hoare.wlp(hoare.Seq(x, y), q, b)
            calls.append(functools.partial(hoare.synth_mid, x, y, pre, q,
                                           method, b))
    return cases


def _law_cases(algebra, relations) -> dict:
    """Per law layer, (size, loops per run, instances of one call, the call)
    on ``rel2`` and ``rel3``."""
    rel2 = relations.rel_algebra_model(2)
    cases = {}
    for profile in algebra.Profile:
        call = functools.partial(algebra.check_axioms, rel2, profile)
        cases[f"check_axioms_{profile.value}"] = (
            16, LAW_LOOPS, call().instance_count, call)
    for profile in (algebra.Profile.KAT, algebra.Profile.KAD):
        call = functools.partial(algebra.check_rules, rel2, profile)
        cases[f"check_rules_{profile.value}"] = (
            16, LAW_LOOPS, call().instance_count, call)
    phi = functools.partial(algebra.check_phi, rel2)
    cases["check_phi"] = 16, LAW_LOOPS, phi().instantiations, phi
    build = functools.partial(relations.rel_algebra_model, 3)
    cases["rel3_build"] = 512, 1, 1, build
    phi = functools.partial(algebra.check_phi, build())
    cases["check_phi_rel3"] = 512, 1, phi().instantiations, phi
    return cases


def _eval_cases(algebra, cli, terms) -> dict:
    """Per builtin, (its carrier size, the zero-argument ``evaluate`` calls
    of one loop, the zero-argument ``eval`` commands of one loop) on terms
    and bindings drawn as perfbench's ``eval`` jobs draw them, parsed as the
    ``eval`` command parses them: an identifier is a test variable when the
    element it is bound to, or else the element of its name, is a test."""
    import references
    from run import run_cli
    from workloads import EVAL_BUILTINS, _eval_job
    cases = {}
    for b in EVAL_BUILTINS:
        rng = random.Random(f"evaluate:{b}")
        model, calls, commands = cli.BUILTIN_MODELS[b](), [], []
        tests = model.tests or ()
        for _ in range(EVAL_TERMS):
            argv = _eval_job(b, ("--builtin", b), references.BUILTINS[b](),
                             rng).argv
            env = dict(item.split("=")
                       for item in argv[argv.index("--env") + 1].split(","))
            term = terms.parse_term(argv[argv.index("--term") + 1], {
                *(k for k, v in env.items() if v in tests),
                *(t for t in tests if t not in env)})
            calls.append(functools.partial(algebra.evaluate, model, term,
                                           env))
            commands.append(functools.partial(run_cli, argv))
        cases[b] = model.size, calls, commands
    return cases


def _phi_product_cases(algebra, files) -> dict:
    """Per carrier size (32 and 64), (instantiations of one loop, the
    zero-argument calls of one loop) of ``check_phi`` on the products with
    tests of perfbench's ``laws`` workload, loaded from seeded dumps."""
    import references
    from workloads import PRODUCTS, dump_model
    rng = random.Random("check_phi_products")
    cases = {}
    for factors in PRODUCTS:
        table = references.product_table(
            *(references.BUILTINS[f]() for f in factors))
        if (table.size not in (32, 64)
                or "tests" not in references.product_ops(factors)):
            continue
        order = list(range(table.size))
        rng.shuffle(order)
        model = files.load_model(dump_model(references.permuted(table, order),
                                            rng))
        call = functools.partial(algebra.check_phi, model)
        count, calls = cases.get(table.size, (0, []))
        cases[table.size] = count + call().instantiations, calls + [call]
    return cases


def _report_cases(cli) -> dict:
    """Per report, (the characters of its text, the zero-argument call that
    encodes its payload) for the ``structured_report`` layer."""
    import workloads as w
    # a tree from before cli._dumps printed json.dumps's indenting encoder
    encode = getattr(cli, "_dumps", None) or functools.partial(
        json.dumps, indent=2, sort_keys=True)
    rng = random.Random("structured_report")
    names = [str(i + 1) for i in range(128)]
    atoms, tests = w._bindings(rng, 128)
    text = w._program_file(names, atoms, tests, w._guard(rng, w.PRE_SHAPE),
                           w._guard(rng, w.POST_SHAPE), w._templates(rng)[0])
    parser, cases = cli._build_parser(), {}
    with tempfile.TemporaryDirectory() as tmp:
        program = Path(tmp) / "n128.prog"
        program.write_text(text)
        for report, argv in {
                "nonexpressivity_100": ["demo", "nonexpressivity"],
                "nonexpressivity_500": ["demo", "nonexpressivity",
                                        "--candidates", "500"],
                "vcgen_128": ["vcgen", "--program", str(program)],
                "check_axioms_fails": ["check-axioms", "--builtin", "nearas",
                                       "--profile", "as"]}.items():
            args = parser.parse_args(argv)
            payload = args.handler(args)[2]
            cases[report] = (len(encode(payload)),
                             functools.partial(encode, payload))
    return cases


def _load_cases(files) -> dict:
    """Per (layer, carrier size), (table rows of one loop, the zero-argument
    calls of one loop) of ``load_model`` on seeded texts of a product model,
    at 64 elements in ``LOAD_SPELLINGS`` too."""
    import references
    from workloads import dump_model
    cases = {}
    for size, factors in LOAD_PRODUCTS.items():
        rng = random.Random(f"load_model:{size}")
        table = references.product_table(
            *(references.BUILTINS[f]() for f in factors))
        assert table.size == size
        texts = []
        for _ in range(LOAD_TEXTS):
            order = list(range(size))
            rng.shuffle(order)
            texts.append(dump_model(references.permuted(table, order), rng))
        rows = sum(text.count(" -> ") for text in texts)
        spellings = {"load_model": str}
        if size == 64:
            spellings.update(LOAD_SPELLINGS)
        for layer, spell in spellings.items():
            cases[layer, size] = rows, [
                functools.partial(files.load_model, spell(text))
                for text in texts]
    return cases


def _program_cases(files) -> dict:
    """Per state count, (literal pairs of one loop, the zero-argument calls
    of one loop) of ``load_program_file`` on seeded ``hoare`` program
    texts, one per template."""
    import workloads as w
    cases = {}
    for n in w.HOARE_SIZES:
        rng = random.Random(f"load_program_file:{n}")
        names = [str(i + 1) for i in range(n)]
        pairs, calls = 0, []
        for prog in w._templates(rng):
            atoms, tests = w._bindings(rng, n)
            pre, post = w._guard(rng, w.PRE_SHAPE), w._guard(rng, w.POST_SHAPE)
            text = w._program_file(names, atoms, tests, pre, post, prog)
            pairs += (sum(map(len, tests.values()))
                      + sum(len(row) for succ in atoms.values() for row in succ))
            calls.append(functools.partial(files.load_program_file, text))
        cases[n] = pairs, calls
    return cases


def _search_cases(algebra, search, files) -> dict:
    """Per (search layer, size), the call, the ``SearchStats`` of one call
    and the name and model file of each model it yields."""
    specs = [(size, p.value, None) for size in (3, 4) for p in algebra.Profile]
    for p in IDEMPOTENT:
        specs.append((5, p, None))
        if p in PHI_CAPABLE:
            specs += [(5, p, "phi-fails"), (5, p, "phi-holds")]
    specs += [(5, "semiring", None), (6, "kad", None), (5, "near-as", None),
              (6, "ts", None), (6, "kat", None), (6, "kleene", None),
              (6, "kadr", None)]
    cases = {}
    for size, profile, constraint in specs:
        def call(stats=None, spec=(size, profile, constraint)):
            return list(search.find_models(*spec, bound=spec[0], stats=stats))
        stats = search.SearchStats()
        models = [f"{m.name}\n{files.dump_model(m)}" for m in call(stats)]
        layer = f"find_models_{profile}" + (f"_{constraint}" if constraint else "")
        cases[layer, size] = call, vars(stats), models
    return cases


def _evset(evsets, rng: random.Random, period: int, residues: int):
    """A seeded set: threshold up to 8, a random head, ``residues`` residues."""
    threshold = rng.randint(0, 8)
    head = [k for k in range(threshold) if rng.random() < 0.5]
    return evsets.EvPeriodicSet(threshold, head, period,
                                rng.sample(range(period), residues))


def _evset_cases(evsets) -> dict:
    """Per evsets layer, (size, loops per run, the zero-argument calls of
    one loop)."""
    rng = random.Random("evsets")
    cases = {}
    for name, target in (("evens", evsets.evens()),
                         ("p12", _evset(evsets, rng, 12, 5))):
        cases[f"refute_verify_{name}"] = 500, 1, [
            lambda c=c, t=target: evsets.verify_refutation(
                t, c, evsets.refute_wlp_candidate(t, c))
            for c in evsets.enumerate_candidates(target, 500)]
    pairs = []
    for _ in range(INPUTS * 4):
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        pairs.append((_evset(evsets, rng, p, rng.randint(0, p)),
                      _evset(evsets, rng, q, rng.randint(0, q))))
    for op in ("union", "intersect", "difference", "leq"):
        cases[op] = 12, SETOP_LOOPS, [functools.partial(getattr(a, op), b)
                                      for a, b in pairs]
    return cases


def _fresh_env(src: Path) -> dict:
    """The environment of a fresh interpreter that imports from ``src``
    (and the speed probes from ``perfbench``)."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(ROOT / "perfbench")]))


def _import_cli(src: Path) -> tuple[float, float]:
    """The seconds a fresh interpreter takes to import ``kadlab.cli`` from
    ``src``, and the mean of the probes it takes before and after."""
    from run import SETUP_SNIPPET
    out = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET.format(builtins=())],
        env=_fresh_env(src), capture_output=True, text=True, timeout=60,
        check=True)
    elapsed, before, after = map(float, out.stdout.split())
    return elapsed, (before + after) / 2


def _cli_wall(src: Path, argv, cwd) -> tuple[float, float]:
    """The wall seconds of one fresh ``python -m kadlab.cli`` process, and
    the probe taken just before it."""
    speed = _probe()
    t0 = time.perf_counter()
    # no timeout: waiting with one polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-m", "kadlab.cli", *argv],
                   env=_fresh_env(src), cwd=cwd, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0, speed


def _fresh(measure, srcs) -> list:
    """Per tree of ``srcs``, the (seconds, probes) of ``FRESH_RUNS`` calls
    ``measure(src)`` after an untimed one, the trees in turn, the first of
    each round taking turns."""
    for src in srcs:
        measure(src)
    runs = [([], []) for _ in srcs]
    for k in range(FRESH_RUNS):
        for i in range(len(srcs))[::1 if k % 2 == 0 else -1]:
            seconds, speed = measure(srcs[i])
            runs[i][0].append(seconds)
            runs[i][1].append(speed)
    return runs


def _startup_cases(cwd: Path) -> dict:
    """Per start-up layer and README command (None for ``import_cli``), the
    measure that ``_fresh`` calls with a tree; the commands run in ``cwd``,
    where their files are written."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_readme_golden as golden
    golden._write_files(cwd)
    cases = {("import_cli", None): _import_cli}
    for name, argv in golden.COMMANDS.items():
        cases["cli_wall", name] = functools.partial(
            _cli_wall, argv=argv.split() if isinstance(argv, str) else argv,
            cwd=cwd)
    return cases


def _probe() -> float:
    """The median of nine speed probes."""
    return sorted(probe() for _ in range(9))[4]


def _run(calls, loops: int) -> float:
    """The seconds of ``loops`` passes over the calls."""
    t0 = time.perf_counter()
    for _ in range(loops):
        for call in calls:
            call()
    return time.perf_counter() - t0


def _time(calls, loops: Optional[int], against=None):
    """The seconds of ``RUNS`` runs of ``loops`` passes over the calls,
    after one untimed pass, the probe (``_probe``) taken just before each
    run, ``loops``, and the other tree's seconds or None.  With ``loops``
    None a run makes as many passes as the untimed pass says take
    ``SEARCH_RUN_S``, at least one, and a run of one pass is repeated as
    the ``SLOW_RUNS`` constants say; such a run is paired with one of the
    other tree's calls ``against``, when given, the two timed in turn."""
    elapsed = _run(calls, 1)
    runs = RUNS
    if loops is None:
        loops = max(1, round(SEARCH_RUN_S / elapsed))
        if loops == 1:
            runs = max(SLOW_RUNS, math.ceil(SLOW_RUNS_S / elapsed))
    theirs = None
    if against is not None and loops == 1:
        _run(against, 1)
        theirs = []
    seconds, probes = [], []
    for k in range(runs):
        probes.append(_probe())
        if theirs is not None and k % 2:
            theirs.append(_run(against, 1))
        seconds.append(_run(calls, loops))
        if theirs is not None and not k % 2:
            theirs.append(_run(against, 1))
    return seconds, probes, loops, theirs


def _commit(src: Path) -> str:
    try:
        return subprocess.run(["git", "-C", str(src), "describe", "--always",
                               "--dirty"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _source_hash(package: Path) -> str:
    digest = hashlib.sha1()
    for path in sorted(package.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _import_as(src: Path, name: str):
    """Import the ``kadlab`` package under ``src`` as package ``name``."""
    package = src / "kadlab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--against", type=Path, default=None,
                        help="another tree's kadlab directory to pair the "
                        "single-call search layers and the start-up layers "
                        "with")
    parser.add_argument("--out", type=Path, default=ROOT / "bench")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from kadlab import (algebra, cli, evsets, files, hoare, relations, search,
                        terms)

    common = {"python": platform.python_version(), "commit": _commit(src),
              "source_sha1": _source_hash(src / "kadlab")}
    searches = _search_cases(algebra, search, files)
    theirs, other_tree = {}, None
    if args.against is not None:
        other = args.against.resolve()
        _import_as(other, "kadlab_against")
        theirs = _search_cases(
            *(importlib.import_module(f"kadlab_against.{name}")
              for name in ("algebra", "search", "files")))
        other_tree = {"commit": _commit(other),
                      "source_sha1": _source_hash(other / "kadlab")}
        for (layer, size), (_, _, models) in searches.items():
            if (layer, size) in theirs and theirs[layer, size][2] != models:
                parser.exit(2, f"{layer} at size {size} yields other models "
                            f"in {other}; no layer was timed\n")
    records = []

    def store(workload, layer, size, instances, runs, probes,
              other_runs=None, other_probes=None, **extra):
        """Record the runs of ``instances`` instances each; the other
        tree's runs, paired with them, give the ratio, over the rescaled
        runs when the other tree's probes are given."""
        q1, seconds, q3 = statistics.quantiles(runs, n=4)
        rescaled = list(map(rescale, runs, probes))
        ref_q1, ref, ref_q3 = statistics.quantiles(rescaled, n=4)
        if other_runs:
            q1_, median, q3_ = statistics.quantiles(other_runs, n=4)
            against = {**other_tree, "seconds": median, "seconds_q1": q1_,
                       "seconds_q3": q3_, "seconds_runs": other_runs}
            mine, theirs = runs, other_runs
            if other_probes:
                mine, theirs = rescaled, list(map(rescale, other_runs,
                                                  other_probes))
                (against["seconds_ref_q1"], against["seconds_ref"],
                 against["seconds_ref_q3"]) = statistics.quantiles(theirs,
                                                                   n=4)
            extra.update(seconds_runs=runs, ratio=statistics.median(
                map(operator.truediv, mine, theirs)), against=against)
        records.append({"workload": workload, **common, "layer": layer,
                        "size": size, "instances": instances,
                        "seconds": seconds, "seconds_q1": q1,
                        "seconds_q3": q3, "runs": len(runs),
                        "rate": instances / seconds,
                        "probe_s": statistics.median(probes),
                        "seconds_ref": ref, "seconds_ref_q1": ref_q1,
                        "seconds_ref_q3": ref_q3, **extra})
        print(f"{layer:30} n={size:<4} {seconds / instances * 1e6:12.3f} us/op"
              + (f"  {extra['ratio']:.3f}x against" if other_runs else ""))

    def record(workload, layer, size, per_loop, calls, loops, against=None,
               **extra):
        """Time ``loops`` passes over the calls per run, ``per_loop``
        instances each (see ``_time`` for ``loops`` None and ``against``)."""
        runs, probes, loops, other_runs = _time(calls, loops, against)
        store(workload, layer, size, loops * per_loop, runs, probes,
              other_runs, **extra)

    for n in SIZES:
        cases = _cases(relations, n, random.Random(f"layers:{n}"))
        for layer, calls in cases.items():
            record("relations", layer, n, len(calls), calls, LOOPS[n])
    for n in SIZES:
        cases = _hoare_cases(relations, hoare, n, random.Random(f"denote:{n}"))
        for layer, calls in cases.items():
            record("hoare", layer, n, len(calls), calls, LOOPS[n])
    law_cases = _law_cases(algebra, relations)
    for layer, (size, loops, count, call) in law_cases.items():
        record("laws", layer, size, count, [call], loops)
    for b, (size, calls, commands) in _eval_cases(algebra, cli,
                                                  terms).items():
        record("laws", "evaluate", size, len(calls), calls, EVAL_LOOPS,
               model=b)
        record("laws", "eval_command", size, len(commands), commands,
               EVAL_LOOPS, model=b)
    for size, (count, calls) in _phi_product_cases(algebra, files).items():
        record("laws", "check_phi_products", size, count, calls, None)
    for report, (size, call) in _report_cases(cli).items():
        record("cli", "structured_report", size, 1, [call], None,
               report=report)
    for (layer, size), (rows, calls) in _load_cases(files).items():
        record("laws", layer, size, rows, calls, LOAD_LOOPS[size])
    for n, (pairs, calls) in _program_cases(files).items():
        record("hoare", "load_program_file", n, pairs, calls, PROGRAM_LOOPS[n])
    for (layer, size), (call, stats, _) in searches.items():
        other = theirs.get((layer, size))
        record("search", layer, size, 1, [call], None,
               other and [other[0]], stats=stats)
    for layer, (size, loops, calls) in _evset_cases(evsets).items():
        record("nonexpressivity", layer, size, len(calls), calls, loops)
    trees = [src] if args.against is None else [src, args.against.resolve()]
    with tempfile.TemporaryDirectory() as tmp:
        for (layer, command), measure in _startup_cases(Path(tmp)).items():
            (runs, probes), *other = _fresh(measure, trees)
            store("cli", layer, 1, 1, runs, probes,
                  *(other[0] if other else ()),
                  **({"command": command} if command else {}))
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

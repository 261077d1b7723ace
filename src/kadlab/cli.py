"""Command-line front end.

Exit codes: 0 when the checked property holds (or requested objects were
produced), 1 when a check is refuted (axiom violation, phi counterexample,
invalid verification condition, failing premise, empty search), 2 on
usage, parse or model errors, and 3 on an internal error: any other
exception, reported as ``internal error: <type>: <message>`` on stderr
without a traceback (the traceback goes to the ``kadlab.cli`` logger at
debug level).  Reports are deterministic for identical inputs;
``--format structured`` switches to JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import evsets
from .algebra import (FiniteAlgebra, Profile, bool2_model, check_axioms,
                      check_phi, evaluate, lemma4_model, near_as_model,
                      trivial_model)
from .errors import KadlabError, ModelError
from .files import _parse_pieces, dump_model, load_model, load_program_file
from .hoare import (PremiseError, parse_program, read_test, holds,
                    synth_mid, vcgen, HoareTriple, SYNTH_METHODS)
from .relations import format_rel, rel_algebra_model
from .search import CONSTRAINTS, SearchStats, find_models
from .terms import Env, parse_term, print_term, sort_of, variables

BUILTIN_MODELS = {
    "lemma4": lemma4_model,
    "bool2": bool2_model,
    "trivial": trivial_model,
    "nearas": near_as_model,
    "rel1": lambda: rel_algebra_model(1),
    "rel2": lambda: rel_algebra_model(2),
}


def _load_algebra(args) -> FiniteAlgebra:
    if args.builtin is not None:
        try:
            return BUILTIN_MODELS[args.builtin]()
        except KeyError:
            raise ModelError(
                f"unknown builtin {args.builtin!r} "
                f"(one of {', '.join(sorted(BUILTIN_MODELS))})") from None
    return _load_file(load_model, args.model)


def _load_file(load, path_str):
    """``load`` on the file's text, named by the file."""
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ModelError(f"cannot read {path}: {e}") from None
    return load(text, name=path.name)


def _argument(args, flag, parse, *context):
    """``parse`` of argument ``--flag`` and ``context``, located by column."""
    return _parse_pieces([(None, getattr(args, flag))], f"--{flag}", parse,
                         *context)


def _split_bindings(text: str) -> list[str]:
    """Split ``--env`` on the commas outside braces and parentheses, so an
    element may be a relation literal such as ``{(1,2),(2,1)}``."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    return items + [text[start:]]


# ---------------------------------------------------------------------------
# handlers

def _cmd_check_axioms(args):
    algebra = _load_algebra(args)
    profile = Profile.parse(args.profile)
    report = check_axioms(algebra, profile)
    lines = [f"model: {algebra.name} ({algebra.size} elements)",
             f"profile: {profile.value}",
             f"axioms: {report.axiom_count}",
             f"instances: {report.instance_count}"]
    for v in report.violations:
        lines.append(f"violation: {v}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    payload = {
        "command": "check-axioms",
        "model": algebra.name,
        "profile": profile.value,
        "axioms": report.axiom_count,
        "instances": report.instance_count,
        "passed": report.passed,
        "violations": [
            {"axiom": v.axiom, "assignment": dict(v.assignment),
             "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations],
        "stats": {"instances_per_law": [
            {"axiom": name, "instances": count}
            for name, count in report.law_instances]},
    }
    return (0 if report.passed else 1), lines, payload


def _cmd_eval(args):
    algebra = _load_algebra(args)
    term = _argument(args, "term", parse_term, frozenset())
    elements = {}
    for item in _split_bindings(args.env):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq:
            raise ModelError(f"bad env binding {item!r} (expected name=element)")
        elements[key.strip()] = value.strip()
    names = sorted(variables(term)[0])
    for name in names:
        if name not in elements and name not in algebra.carrier:
            raise ModelError(f"unbound identifier {name!r}")
    # an identifier is a test iff the element it names is one
    tests = algebra.tests or ()
    sort_of(term, declared_tests={n for n in names if elements.get(n, n) in tests})
    result = evaluate(algebra, term, Env(elements=elements))
    lines = [f"{print_term(term)} = {result}"]
    payload = {"command": "eval", "model": algebra.name,
               "term": print_term(term), "result": result}
    return 0, lines, payload


def _cmd_check_phi(args):
    algebra = _load_algebra(args)
    result = check_phi(algebra)
    lines = [f"model: {algebra.name} ({algebra.size} elements)"]
    if result.holds:
        lines.append("phi: holds")
    else:
        x, y, p, q = result.witness
        lines.append(f"phi: FAILS at x={x} y={y} p={p} q={q}")
    payload = {"command": "check-phi", "model": algebra.name,
               "holds": result.holds,
               "witness": None if result.holds else list(result.witness),
               "stats": {"instantiations": result.instantiations}}
    return (0 if result.holds else 1), lines, payload


def _cmd_find_models(args):
    profile = Profile.parse(args.profile)
    lines = []
    dumps = []
    count = 0
    stats = SearchStats()
    for model in find_models(args.size, profile, args.constraint,
                             limit=args.limit, stats=stats):
        count += 1
        text = dump_model(model)
        dumps.append(text)
        lines.append(f"# model {count} ({model.name})")
        lines.extend(text.rstrip("\n").splitlines())
        lines.append("")
    lines.append(f"found: {count}")
    payload = {"command": "find-models", "size": args.size,
               "profile": profile.value, "constraint": args.constraint,
               "count": count, "models": dumps,
               "stats": {"stages": [{"stage": name, "tried": tried,
                                     "pruned": pruned}
                                    for name, (tried, pruned)
                                    in stats.stages.items()],
                         "duplicates": stats.duplicates,
                         "candidates": stats.candidates,
                         "models": stats.models}}
    return (0 if count else 1), lines, payload


def _cmd_vcgen(args):
    pf = _load_file(load_program_file, args.program)
    if pf.program is None:
        raise ModelError("program file declares no program")
    pre, post = (getattr(pf, f) if getattr(args, f) is None else
                 _argument(args, f, read_test, pf.bindings) for f in ("pre", "post"))
    if pre is None or post is None:
        raise ModelError("both a precondition and a postcondition are needed "
                         "(pre:/post: lines or --pre/--post)")
    report = vcgen(pre, pf.program, post, pf.bindings)
    # each test rendered once, for both the text and the payload
    precondition = format_rel(report.precondition)
    conditions = [{"name": c.name, "lhs": format_rel(c.lhs),
                   "rhs": format_rel(c.rhs), "holds": c.holds}
                  for c in report.conditions]
    lines = [f"program file: {args.program}",
             f"precondition computed: {precondition}"]
    for c in conditions:
        status = "ok" if c["holds"] else "VIOLATED"
        lines.append(f"vc {c['name']}: {c['lhs']} <= {c['rhs']} : {status}")
    lines.append(f"result: {'VALID' if report.valid else 'INVALID'}")
    payload = {"command": "vcgen", "program": args.program,
               "precondition": precondition, "valid": report.valid,
               "conditions": conditions}
    return (0 if report.valid else 1), lines, payload


def _cmd_synth_mid(args):
    pf = _load_file(load_program_file, args.program)
    b = pf.bindings
    x, y = (_argument(args, f, parse_program, b.atoms, b.tests) for f in "xy")
    p, q = (_argument(args, f, read_test, b) for f in ("pre", "post"))
    r = synth_mid(x, y, p, q, args.method, b)
    first = holds(HoareTriple(p, x, r), b)
    second = holds(HoareTriple(r, y, q), b)
    shown = format_rel(r)
    lines = [f"method: {args.method}",
             f"r = {shown}",
             f"{{p}} x {{r}}: {'ok' if first else 'VIOLATED'}",
             f"{{r}} y {{q}}: {'ok' if second else 'VIOLATED'}"]
    payload = {"command": "synth-mid", "method": args.method,
               "r": shown, "first_triple": first,
               "second_triple": second}
    return (0 if first and second else 1), lines, payload


def _cmd_demo(args):
    if args.what == "separation":
        return _demo_separation()
    return _demo_nonexpressivity(args)


def _demo_separation():
    lemma4 = lemma4_model()
    kat_report = check_axioms(lemma4, Profile.KAT)
    phi_kat = check_phi(lemma4)
    rel2 = rel_algebra_model(2)
    kad_report = check_axioms(rel2, Profile.KAD)
    phi_kad = check_phi(rel2)
    lines = [
        f"[1] {lemma4.name}: KAT axioms "
        f"{'PASS' if kat_report.passed else 'FAIL'} "
        f"({kat_report.axiom_count} axioms, {kat_report.instance_count} instances)",
    ]
    if phi_kat.holds:
        lines.append(f"[2] {lemma4.name}: phi holds (unexpected)")
    else:
        x, y, p, q = phi_kat.witness
        lines.append(f"[2] {lemma4.name}: phi FAILS at x={x} y={y} p={p} q={q}")
    lines.append(
        f"[3] {rel2.name}: KAD axioms {'PASS' if kad_report.passed else 'FAIL'} "
        f"({kad_report.axiom_count} axioms, {kad_report.instance_count} instances)")
    verdict = (f"holds ({phi_kad.instantiations} instantiations)"
               if phi_kad.holds else "FAILS")
    lines.append(f"[4] {rel2.name}: phi {verdict}")
    separated = (kat_report.passed and not phi_kat.holds
                 and kad_report.passed and phi_kad.holds)
    lines.append("summary: KAT ⊬ φ, AS ⊢ φ" if separated
                 else "summary: separation NOT reproduced")
    payload = {"command": "demo-separation",
               "kat_axioms_pass": kat_report.passed,
               "phi_fails_on_lemma4": not phi_kat.holds,
               "phi_witness": None if phi_kat.holds else list(phi_kat.witness),
               "kad_axioms_pass": kad_report.passed,
               "phi_holds_on_rel2": phi_kad.holds,
               "separated": separated}
    return (0 if separated else 1), lines, payload


def _demo_nonexpressivity(args):
    target = evsets.parse_evset(args.set)
    count = args.candidates
    lines = [f"target set: {evsets.format_evset(target)} "
             "(neither finite nor cofinite)",
             f"candidates: {count}"]
    refuted = 0
    entries = []
    for i, cand in enumerate(evsets.enumerate_candidates(target, count), start=1):
        verdict = evsets.refute_wlp_candidate(target, cand)
        ok = evsets.verify_refutation(target, cand, verdict)
        if isinstance(verdict, evsets.NotAPrecondition):
            desc = f"intersects target at {verdict.witness}"
        else:
            desc = (f"not maximal, add {verdict.missing} -> "
                    f"{evsets.format_evset(verdict.extension)}")
        refuted += ok
        shown = evsets.format_evset(cand)
        entries.append({"candidate": shown, "verdict": desc, "verified": ok})
        lines.append(f"  {i}. {shown} : {desc}"
                     + ("" if ok else " [verification FAILED]"))
    all_ok = refuted == count
    lines.append(f"refuted and verified: {refuted}/{count}")
    payload = {"command": "demo-nonexpressivity",
               "target": evsets.format_evset(target),
               "candidates": count, "refuted": refuted,
               "all_refuted": all_ok, "entries": entries}
    return (0 if all_ok else 1), lines, payload


# ---------------------------------------------------------------------------
# parser

def _add_model_source(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model file to load")
    group.add_argument("--builtin",
                       help=f"builtin model ({', '.join(sorted(BUILTIN_MODELS))})")


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


@functools.cache
def _build_parser():
    # --format is accepted before and after the subcommand; SUPPRESS keeps
    # a subcommand's missing copy from overwriting the global value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default=argparse.SUPPRESS,
                        help="report format (default: text)")
    parser = argparse.ArgumentParser(
        prog="kadlab", parents=[common],
        description="Finite-model toolkit for Kleene algebras with tests "
                    "and with domain")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return subs.add_parser(name, parents=[common], help=summary)

    sub = command("check-axioms", "check an axiom profile")
    _add_model_source(sub)
    sub.add_argument("--profile", required=True,
                     help="|".join(p.value for p in Profile))
    sub.set_defaults(handler=_cmd_check_axioms)

    sub = command("eval", "evaluate a term in a model")
    _add_model_source(sub)
    sub.add_argument("--term", required=True)
    sub.add_argument("--env", default="",
                     help="comma separated name=element bindings "
                          "(commas inside braces or parentheses do not "
                          "separate)")
    sub.set_defaults(handler=_cmd_eval)

    sub = command("check-phi", "check the mid-assertion sentence")
    _add_model_source(sub)
    sub.set_defaults(handler=_cmd_check_phi)

    sub = command("find-models", "search small models")
    sub.add_argument("--size", type=int, required=True)
    sub.add_argument("--profile", required=True)
    sub.add_argument("--constraint", choices=CONSTRAINTS, default=None)
    sub.add_argument("--limit", type=_count, default=None)
    sub.set_defaults(handler=_cmd_find_models)

    sub = command("vcgen", "generate verification conditions")
    sub.add_argument("--program", required=True, help="program file")
    sub.add_argument("--pre", help="precondition test expression")
    sub.add_argument("--post", help="postcondition test expression")
    sub.set_defaults(handler=_cmd_vcgen)

    sub = command("synth-mid", "synthesize an intermediate assertion")
    sub.add_argument("--program", required=True,
                     help="program file with the bindings")
    sub.add_argument("--x", required=True, help="first program")
    sub.add_argument("--y", required=True, help="second program")
    sub.add_argument("--pre", required=True)
    sub.add_argument("--post", required=True)
    sub.add_argument("--method", choices=SYNTH_METHODS, required=True)
    sub.set_defaults(handler=_cmd_synth_mid)

    sub = command("demo", "scripted demonstrations")
    sub.add_argument("what", choices=("separation", "nonexpressivity"))
    sub.add_argument("--set", default="evens",
                     help="target set literal (nonexpressivity)")
    sub.add_argument("--candidates", type=_count, default=100)
    sub.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv, namespace=argparse.Namespace(format="text"))
    try:
        code, lines, payload = args.handler(args)
        print(json.dumps(payload, indent=2, sort_keys=True)
              if args.format == "structured" else "\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader closed stdout (``| head``): the verdict's code stands,
        # and stdout goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except PremiseError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except KadlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a defect, not a verdict: exit 1 would read as "refuted"; logging
        # is imported here so that it costs nothing on every other run
        import logging
        logging.getLogger(__name__).debug("internal error", exc_info=True)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

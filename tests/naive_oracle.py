"""Naive reference checkers for ``check_axioms`` and ``check_phi``.

They walk every instance with the shared term evaluator through the
index-level operations, in ``itertools.product`` order, and search every
intermediate test r for phi: the direct reading of the definitions that
the compiled law checker and the bitmask phi scan must reproduce exactly.
"""

from itertools import product

from kadlab.algebra import (CheckReport, ClosureLaw, Equation, PhiResult,
                            Violation, _eval_idx, _require_profile_ops,
                            profile_axioms)
from kadlab.terms import variables


def _law_vars(law):
    if isinstance(law, Equation):
        terms = (law.lhs, law.rhs)
    elif isinstance(law, ClosureLaw):
        terms = (law.term,)
    else:
        terms = tuple(t for pair in law.premises for t in pair) + law.conclusion
    vs, ts = set(), set()
    for t in terms:
        a, b = variables(t)
        vs |= a
        ts |= b
    return sorted(vs), sorted(ts)


def _check_instance(algebra, law, venv, tenv):
    def names():
        pairs = [(k, algebra.element_name(v)) for k, v in venv.items()]
        pairs += [(k, algebra.element_name(v)) for k, v in tenv.items()]
        return tuple(sorted(pairs))

    if isinstance(law, Equation):
        l = _eval_idx(algebra, law.lhs, venv, tenv)
        r = _eval_idx(algebra, law.rhs, venv, tenv)
        if l != r:
            return Violation(law.name, names(),
                             algebra.element_name(l), algebra.element_name(r))
        return None
    if isinstance(law, ClosureLaw):
        v = _eval_idx(algebra, law.term, venv, tenv)
        if v not in algebra.tests_i:
            return Violation(law.name, names(),
                             algebra.element_name(v), "(not a test)")
        return None
    for s, t in law.premises:
        si = _eval_idx(algebra, s, venv, tenv)
        ti = _eval_idx(algebra, t, venv, tenv)
        if not algebra.leq(si, ti):
            return None
    s, t = law.conclusion
    si = _eval_idx(algebra, s, venv, tenv)
    ti = _eval_idx(algebra, t, venv, tenv)
    if not algebra.leq(si, ti):
        return Violation(law.name, names(),
                         algebra.element_name(si), algebra.element_name(ti))
    return None


def naive_check_axioms(algebra, profile) -> CheckReport:
    _require_profile_ops(algebra, profile)
    report = CheckReport(profile)
    n = algebra.size
    test_range = algebra.tests_i or ()
    for law in profile_axioms(profile):
        report.axiom_count += 1
        vs, ts = _law_vars(law)
        domains = [range(n)] * len(vs) + [test_range] * len(ts)
        count = 0
        for assignment in product(*domains):
            count += 1
            venv = dict(zip(vs, assignment[:len(vs)]))
            tenv = dict(zip(ts, assignment[len(vs):]))
            violation = _check_instance(algebra, law, venv, tenv)
            if violation is not None:
                report.violations.append(violation)
                break
        report.instance_count += count
        report.law_instances.append((law.name, count))
    return report


def naive_check_phi(algebra) -> PhiResult:
    zero = algebra.zero_i
    tests = algebra.tests_i
    nbar = {q: algebra.complement(q) for q in tests}
    scanned = 0
    for x in range(algebra.size):
        for y in range(algebra.size):
            for p in tests:
                px = algebra.times(p, x)
                pxy = algebra.times(px, y)
                for q in tests:
                    scanned += 1
                    if algebra.times(pxy, nbar[q]) != zero:
                        continue
                    if any(algebra.times(px, nbar[r]) == zero
                           and algebra.times(algebra.times(r, y), nbar[q]) == zero
                           for r in tests):
                        continue
                    name = algebra.element_name
                    return PhiResult(False, (name(x), name(y), name(p), name(q)),
                                     scanned)
    return PhiResult(True, None, scanned)

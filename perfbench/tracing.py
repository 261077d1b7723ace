"""Span recording around kadlab's layer boundaries, from outside the program.

``Recorder.install`` rebinds every public function (no leading underscore)
of each kadlab module
(in each kadlab module that imported it, so ``kadlab.search.check_axioms``
and ``kadlab.cli.check_phi`` are covered) and wraps the operation methods
of ``Rel`` and ``EvPeriodicSet``.  Per-cell accessors such as
``FiniteAlgebra.plus``/``times`` and set membership stay unwrapped: they
run millions of times per job.  Spans are kept in memory as (name, start,
end, parent, job) and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("terms", "algebra", "relations", "search", "hoare", "evsets",
          "files", "cli")
REL_METHODS = ("compose", "star", "box", "union", "intersect", "leq",
               "converse", "adom", "aran", "dom", "ran", "complement_test")
SET_METHODS = ("union", "intersect", "difference", "complement", "leq")
SETOPS = frozenset(f"evsets.{m}" for m in SET_METHODS)
GENERATORS = frozenset({"search.find_models", "evsets.enumerate_candidates"})


class Recorder:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, job]
        self.calls = Counter()
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        rec = self
        observe = _OBSERVERS.get(name)

        if name in GENERATORS:
            def resumes(it):
                while True:
                    idx = rec._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec._close(idx)
                    rec.counts[name + ".items"] += 1
                    yield item

            def wrapper(*args, **kwargs):
                rec.calls[name] += 1
                return resumes(fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                rec.calls[name] += 1
                idx = rec._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec._close(idx)
                if observe is not None:
                    observe(rec.counts, args, result)
                return result

        return wrapper

    # -- installation -------------------------------------------------------
    def install(self):
        modules = {layer: importlib.import_module(f"kadlab.{layer}")
                   for layer in LAYERS}
        everywhere = [importlib.import_module("kadlab"), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not (
                        inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in everywhere:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, key, wrapper)
        self._wrap_methods(modules["relations"].Rel, "relations", REL_METHODS)
        self._wrap_methods(modules["evsets"].EvPeriodicSet, "evsets", SET_METHODS)

    def _wrap_methods(self, cls, layer, names):
        for attr in names:
            fn = vars(cls)[attr]
            wrapper = self._wrap(f"{layer}.{attr}", fn)
            for key, value in list(vars(cls).items()):
                if value is fn:        # operator aliases such as __or__
                    self._rebind(cls, key, wrapper)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- output -------------------------------------------------------------
    def write(self, path):
        with open(path, "w") as f:
            f.write("id\tname\tstart\tend\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def _count_instances(counts, args, report):
    counts["algebra.instances"] += report.instance_count


def _count_conditions(counts, args, report):
    counts["hoare.conditions"] += len(report.conditions)


def _count_bytes(key):
    def observe(counts, args, result):
        counts[key] += len(args[0])
    return observe


_OBSERVERS = {
    "algebra.check_axioms": _count_instances,
    "hoare.vcgen": _count_conditions,
    "files.load_model": _count_bytes("files.model_bytes"),
    "files.load_program_file": _count_bytes("files.program_bytes"),
}


# ---------------------------------------------------------------------------
# span arithmetic

class SpanTable:
    """Durations, self times and nesting queries over recorded spans."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        # a span's self time excludes the time its child spans cover
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def self_s(self, names) -> float:
        return sum(t for n, t in zip(self.names, self.self_time) if n in names)

    def outer_s(self, names) -> float:
        """Time inside spans of ``names``, counting nested ones once."""
        inside = [False] * len(self.names)
        total = 0.0
        for i, (n, p) in enumerate(zip(self.names, self.parent)):
            covered = p >= 0 and inside[p]
            inside[i] = covered or n in names
            if n in names and not covered:
                total += self.dur[i]
        return total

    def under(self, name, parent_name):
        """Indices of ``name`` spans whose direct parent is ``parent_name``."""
        return [i for i, (n, p) in enumerate(zip(self.names, self.parent))
                if n == name and p >= 0 and self.names[p] == parent_name]

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for n, t in zip(self.names, self.self_time):
            out[n.split(".", 1)[0]] += t
        return out

    def top_level_s(self) -> float:
        return sum(d for d, p in zip(self.dur, self.parent) if p < 0)


def layer_metrics(rec: Recorder, job_time: float, passes: int) -> dict:
    """Per-layer metrics of the traced passes.  Counts and seconds are per
    pass over the job set; ``job_time`` is the summed latency of the traced
    jobs, the base of every ``share.*`` value."""
    st = SpanTable(rec.spans)
    calls, counts = rec.calls, rec.counts
    checks = st.under("algebra.check_axioms", "search.find_models")
    phis = st.under("algebra.check_phi", "search.find_models")
    check_axioms_s = st.outer_s({"algebra.check_axioms"})
    candidates = len(checks)
    models = counts["search.find_models.items"]
    m = {
        "algebra.check_axioms_calls": calls["algebra.check_axioms"],
        "algebra.check_axioms_s": check_axioms_s,
        "algebra.instances": counts["algebra.instances"],
        "algebra.instances_per_s": (counts["algebra.instances"] / check_axioms_s
                                    if check_axioms_s else 0.0),
        "algebra.check_phi_calls": calls["algebra.check_phi"],
        "algebra.check_phi_s": st.outer_s({"algebra.check_phi"}),
        "algebra.evaluate_calls": calls["algebra.evaluate"],
        "algebra.evaluate_s": st.outer_s({"algebra.evaluate"}),
        "search.find_models_calls": calls["search.find_models"],
        "search.self_s": st.self_s({"search.find_models"}),
        "search.candidates": candidates,
        "search.models": models,
        "search.yield_ratio": models / candidates if candidates else 0.0,
        "search.revalidate_s": sum(st.dur[i] for i in checks),
        "search.phi_filter_s": sum(st.dur[i] for i in phis),
        "relations.export_s": st.outer_s({"relations.rel_algebra_model"}),
    }
    for op in ("compose", "star", "box"):
        m[f"relations.{op}_calls"] = calls[f"relations.{op}"]
        m[f"relations.{op}_s"] = st.outer_s({f"relations.{op}"})
    for fn in ("vcgen", "denote", "synth_mid"):
        m[f"hoare.{fn}_calls"] = calls[f"hoare.{fn}"]
        m[f"hoare.{fn}_self_s"] = st.self_s({f"hoare.{fn}"})
    m["hoare.conditions"] = counts["hoare.conditions"]
    m.update({
        "evsets.candidates": counts["evsets.enumerate_candidates.items"],
        "evsets.enumerate_s": st.outer_s({"evsets.enumerate_candidates"}),
        "evsets.refute_calls": calls["evsets.refute_wlp_candidate"],
        "evsets.refute_s": st.outer_s({"evsets.refute_wlp_candidate"}),
        "evsets.setop_calls": sum(calls[n] for n in SETOPS),
        "evsets.setop_s": st.outer_s(SETOPS),
        "files.load_model_calls": calls["files.load_model"],
        "files.load_model_s": st.outer_s({"files.load_model"}),
        "files.model_bytes": counts["files.model_bytes"],
        "files.load_program_calls": calls["files.load_program_file"],
        "files.load_program_s": st.outer_s({"files.load_program_file"}),
        "files.program_bytes": counts["files.program_bytes"],
        "terms.parse_calls": calls["terms.parse_term"],
        "terms.parse_s": st.outer_s({"terms.parse_term"}),
        "cli.main_calls": calls["cli.main"],
        "cli.self_s": st.self_s({"cli.main"}),
    })
    for layer, t in st.layer_self().items():
        m[f"share.{layer}"] = t / job_time if job_time else 0.0
    m["share.outside"] = ((job_time - st.top_level_s()) / job_time
                          if job_time else 0.0)
    m["trace.spans"] = len(rec.spans)
    for k in m:
        if not k.startswith("share.") and not k.endswith(("_ratio", "_per_s")):
            m[k] /= passes
    return m

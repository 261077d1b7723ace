"""kadlab benchmark: closed-loop verdict jobs on four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload laws --seed 1 --seconds 30 --trace 0

One client in this process runs the workload's seeded job set in whole
passes, one job at a time, until another pass would overrun ``--seconds``
(at least three passes).  Every verdict is checked against ``references``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, and it carries
the per-layer metrics and the tracing overhead.  Human-readable
lines and ``.perfbench/<workload>-<seed>/result.json`` (plus
``spans.tsv`` when traced) hold the metadata.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, probe, rescale  # noqa: E402

SETUP_REPEATS = 5
# builtin models each workload builds; setup_s times these plus the import
SETUP_BUILTINS = {"laws": tuple(ref.BUILTINS), "search": (), "hoare": (),
                  "nonexpressivity": ()}
SETUP_SNIPPET = """
import time
from speed import probe
before = sorted(probe() for _ in range(9))[4]
t0 = time.perf_counter()
import kadlab.cli as cli
for name in {builtins!r}:
    cli.BUILTIN_MODELS[name]()
elapsed = time.perf_counter() - t0
after = sorted(probe() for _ in range(9))[4]
print(elapsed, before, after)
"""
TAIL_BEYOND = 10
# untraced passes (trace 0) and untraced/traced rounds (trace 1) at least
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
# speed probes: one every PROBE_PERIOD_S; those within PROBE_MARGIN_S of a
# job (or during it) estimate the machine's speed while it ran
PROBE_PERIOD_S = 0.02
PROBE_MARGIN_S = 0.1


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest percentile with at least ten of the pass's jobs beyond it."""
    return 100.0 * (1 - TAIL_BEYOND / jobs_per_pass)


def percentile(values, pct, steps=2000):
    """Harrell-Davis estimate of the ``pct`` percentile.

    A weighted mean of all order statistics, with the weights of a
    Beta(p(n+1), (1-p)(n+1)) distribution (Harrell and Davis, Biometrika
    1982).  Where neighbouring jobs differ, it moves less between runs than
    interpolating between the two nearest ranks.
    """
    xs = sorted(values)
    n = len(xs)
    p = pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # the Beta distribution function on a grid, by the trapezoid rule
    cdf = [0.0]
    prev = density(0.0)
    for k in range(1, steps + 1):
        cur = density(k / steps)
        cdf.append(cdf[-1] + (prev + cur) / (2 * steps))
        prev = cur

    def F(x):
        k = min(int(x * steps), steps - 1)
        return (cdf[k] + (cdf[k + 1] - cdf[k]) * (x * steps - k)) / cdf[-1]

    return sum(x * (F((i + 1) / n) - F(i / n)) for i, x in enumerate(xs))


# ---------------------------------------------------------------------------
# running jobs

def run_cli(argv):
    import kadlab.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kadlab.cli.main(list(argv))
        except SystemExit as e:          # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_search(size, profile, constraint):
    import kadlab.search
    return list(kadlab.search.find_models(size, profile, constraint, bound=size))


def as_table(m) -> ref.Table:
    """Read a yielded FiniteAlgebra through its public accessors."""
    n = range(m.size)
    unary = {op: tuple(getattr(m, op)(i) for i in n) if m.has_op(op) else None
             for op in ("star", "adom", "aran")}
    tests = m.tests_i
    return ref.Table(tuple(m.carrier), m.zero_i, m.one_i,
                     tuple(tuple(m.plus(i, j) for j in n) for i in n),
                     tuple(tuple(m.times(i, j) for j in n) for i in n),
                     unary["star"], unary["adom"], unary["aran"],
                     None if tests is None else tuple(tests),
                     None if tests is None else {t: m.complement(t) for t in tests})


class Sampler:
    """Times ``speed.probe`` every ``period`` seconds from a SIGALRM handler,
    so the machine's speed is known during long jobs too.  The handler's
    own time is subtracted from the jobs it interrupts."""

    def __init__(self, period):
        self.period = period
        self.starts = []         # perf_counter at each handler entry
        self.costs = []          # wall time of each handler call
        self.probes = []         # probe durations
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def job_time(self, t0, t1):
        """(seconds the job itself ran, median probe from PROBE_MARGIN_S
        before it to PROBE_MARGIN_S after it)."""
        i, j = (bisect.bisect_left(self.starts, t) for t in (t0, t1))
        lo, hi = (bisect.bisect_left(self.starts, t)
                  for t in (t0 - PROBE_MARGIN_S, t1 + PROBE_MARGIN_S))
        window = self.probes[lo:hi] or self.probes[max(0, lo - 1):lo + 1]
        return (t1 - t0) - sum(self.costs[i:j]), statistics.median(window)


class Runner:
    """Runs passes over one job set and verifies every verdict.

    A job's latency comes from its run time in the passes of one mode
    (untraced or traced) and the speed probes taken during and around
    each run (see ``Sampler`` and ``latencies``).
    """

    def __init__(self, jobs):
        self.jobs = jobs
        # per mode and slot: (start, end) of each completed run
        self.samples = {mode: [[] for _ in jobs] for mode in (False, True)}
        self.sampler = Sampler(PROBE_PERIOD_S)
        self.passes = {False: 0, True: 0}
        self.pass_seconds = {False: [], True: []}   # summed latency per pass
        self.attempted = 0
        self.failures = []       # (label, reason)
        self._verified = {}      # (slot, output) -> reason or None

    def run_job(self, slot, recorder=None):
        """Run and verify one job; returns its (start, end), or None if it
        raised."""
        job = self.jobs[slot]
        self.attempted += 1
        if recorder is not None:
            recorder.job = self.attempted
        try:
            t0 = time.perf_counter()
            if job.search is not None:
                raw = run_search(*job.search)
            else:
                raw = run_cli(job.argv)
            t1 = time.perf_counter()
        except Exception:
            self.failures.append((job.label, traceback.format_exc(limit=3)))
            return None
        if job.search is not None:
            output = tuple(as_table(m) for m in raw)
            key = (slot, tuple((A.plus, A.times, A.star, A.adom, A.aran, A.tests)
                               for A in output))
        else:
            code, stdout, stderr = raw
            key = (slot, raw)
            try:
                payload = json.loads(stdout) if stdout.strip() else None
            except ValueError:
                payload = None
            output = (code, payload, stderr)
        if key not in self._verified:
            try:
                self._verified[key] = job.check(output)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                self._verified[key] = f"malformed output: {e!r}"
        reason = self._verified[key]
        if reason is not None:
            self.failures.append((job.label, reason))
        return t0, t1

    def run_pass(self, recorder=None):
        traced = recorder is not None
        # keep the benchmark's own objects (inputs, outputs kept for
        # verification) out of the collector's way while kadlab runs
        gc.collect()
        gc.freeze()
        total = 0.0
        for slot in range(len(self.jobs)):
            span = self.run_job(slot, recorder)
            if span is not None:
                total += span[1] - span[0]
                self.samples[traced][slot].append(span)
        self.passes[traced] += 1
        self.pass_seconds[traced].append(total)

    def run_for(self, budget_s, min_rounds, recorder=None):
        """Rounds of one untraced pass (plus one traced pass when a recorder
        is given) until ``min_rounds`` are done and another round would
        overrun ``budget_s``."""
        start = time.perf_counter()
        with self.sampler:
            while True:
                t = time.perf_counter()
                self.run_pass()
                if recorder is not None:
                    recorder.install()
                    try:
                        self.run_pass(recorder)
                    finally:
                        recorder.uninstall()
                now = time.perf_counter()
                if (self.passes[False] >= min_rounds
                        and now - start + (now - t) > budget_s):
                    return

    def job_times(self, traced=False):
        """Per job, (seconds it ran, median probe around it) in each pass."""
        return [[self.sampler.job_time(t0, t1) for t0, t1 in samples]
                for samples in self.samples[traced]]

    def latencies(self, traced=False, rescaled=True):
        """Per job, the median over its passes of the (rescaled) run time."""
        return [statistics.median(rescale(sec, p) if rescaled else sec
                                  for sec, p in runs)
                for runs in self.job_times(traced) if runs]



# ---------------------------------------------------------------------------
# metrics

def measure_setup(workload):
    """Median over fresh interpreters (after one warm-up) of importing
    kadlab.cli and building the workload's builtin models, each rescaled
    by the speed probes taken just before and after it in that process."""
    code = SETUP_SNIPPET.format(builtins=SETUP_BUILTINS[workload])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        elapsed, before, after = map(float, out.stdout.split())
        if i:
            times.append(rescale(elapsed, (before + after) / 2))
    return statistics.median(times)


UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


def timings(runner, traced=False, rescaled=True):
    lat = runner.latencies(traced, rescaled)
    return {"jobs_per_s": len(lat) / sum(lat),
            "job_p50_ms": 1000 * percentile(lat, 50),
            "job_tail_ms": 1000 * percentile(lat, tail_percentile(len(runner.jobs)))}


def metadata_block(args, runner):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "python": platform.python_version(), "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs_per_pass": len(runner.jobs),
        "passes": runner.passes[False], "traced_passes": runner.passes[True],
        "pass_seconds": [round(t, 4) for t in runner.pass_seconds[False]],
        "traced_pass_seconds": [round(t, 4) for t in runner.pass_seconds[True]],
        "latency_samples": sum(map(len, runner.samples[False])),
        "latency": "per job, median over its passes of run time x "
                   "(reference probe / median probe during and around it)",
        "probe_reference_s": REFERENCE_S,
        "probe_fastest_s": min(runner.sampler.probes),
        "probe_median_s": statistics.median(runner.sampler.probes),
        "raw": timings(runner, rescaled=False),
        "jobs": [{"label": job.label, "raw_s_and_probe_s": runs}
                 for job, runs in zip(runner.jobs, runner.job_times())],
        "tail_percentile": tail_percentile(len(runner.jobs)),
        "attempted": runner.attempted, "failed": len(runner.failures),
        "error_ratio": len(runner.failures) / runner.attempted,
        "error_ratio_base": "failed jobs / jobs attempted",
        "failures": [f"{label}: {reason}" for label, reason in runner.failures[:20]],
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kadlab" / "cli.py").is_file():
        print(f"error: no kadlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kadlab.cli  # noqa: F401  (import cost belongs to setup_s)
    import kadlab.search  # noqa: F401

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    jobs = workloads.WORKLOADS[args.workload](rng, workdir)
    rng.shuffle(jobs)
    runner = Runner(jobs)

    if args.trace:
        import tracing
        recorder = tracing.Recorder()
        runner.run_for(args.seconds, MIN_TRACED_ROUNDS, recorder)
        metrics = tracing.layer_metrics(recorder, sum(runner.pass_seconds[True]),
                                        runner.passes[True])
        plain = timings(runner)["jobs_per_s"]
        traced = timings(runner, traced=True)["jobs_per_s"]
        metrics["trace.untraced_jobs_per_s"] = plain
        metrics["trace.traced_jobs_per_s"] = traced
        metrics["trace.overhead_ratio"] = 1 - traced / plain
        recorder.write(workdir / "spans.tsv")
        units = {k: _layer_unit(k) for k in metrics}
    else:
        setup_s = measure_setup(args.workload)
        runner.run_for(args.seconds, MIN_PASSES)
        metrics = timings(runner)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = setup_s
        units = UNITS

    meta = metadata_block(args, runner)
    (workdir / "result.json").write_text(json.dumps(
        {"metadata": meta, "metrics": metrics, "units": units}, indent=2))
    for k in sorted(meta):
        if k not in ("failures", "jobs"):
            print(f"# {k}: {meta[k]}")
    for line in meta["failures"]:
        print(f"# FAILED {line}")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.startswith(("share.", "trace.overhead")) or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

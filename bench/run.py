"""Benchmark of `mpg solve` and `mpg enum` on three seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve|enumerate|wide-weights \\
        --seed N --seconds S --trace 0|1

One process, one thread, standard library only; the package is imported
from ``src/``.  A run sets its workload up several times, then runs whole
passes over the workload's operations (closed loop, one caller) until
``--seconds`` have gone by, then checks every answer of the first pass
against the oracle and every later pass against the first.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones of ``spans.py``.
The line before it holds the run context and the raw timings; the same
record, with the spans of a traced run, is written to ``.bench_out/``.

Times are reported at a nominal machine speed: a fixed pure-Python loop is
timed every 10 ms from SIGALRM, and each timed stretch is scaled by
NOMINAL_REF_S over the loop's mean time inside it (see README.md).
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "mpgsolver" / "__init__.py").is_file():
    sys.exit("bench/run.py: no src/mpgsolver package under %s" % ROOT)
sys.path.insert(0, str(ROOT / "src"))

from mpgsolver import cli, lattice, serialize_arena, values  # noqa: E402

import checks  # noqa: E402
import families  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("solve", "enumerate", "wide-weights")
OUT = ROOT / ".bench_out"
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# An operation still running after LIMIT_S seconds at the nominal speed is
# stopped and counted as failed.  The slowest operation that completes
# takes under a third of it.  A nominal limit does not stop more
# operations when the machine runs slower.
LIMIT_S = 3.0
SAMPLE_EVERY_S = 0.01
# Time of one reference_loop() call at the nominal machine speed.
NOMINAL_REF_S = 0.00045
LISTED = 16

clock = time.perf_counter


class OperationTimeout(BaseException):
    """Raised from SIGALRM inside an operation that overran LIMIT_S."""


class OperationFailed(Exception):
    pass


def _ominus(value, weight, cap):
    if value > cap:
        return cap + 1
    lifted = value - weight
    if lifted <= 0:
        return 0
    return cap + 1 if lifted > cap else lifted


_REF_SCALE = 2 ** 17  # probe-sized integers
_REF_OUT = tuple(tuple(((u * 5 + k * 3 + 1) % 16,
                        ((u * 7 + k * 11) % 9 - 4) * _REF_SCALE)
                       for k in range(2 + u % 2)) for u in range(16))


def reference_loop():
    """Fixed work in the style of the package: a tight integer loop, then
    lifting-style sweeps (function calls, generators, a deque, big ints).

    Against the operations' times, the first part alone slows down too
    little when the machine slows (log-log slope 1.2) and the second too
    much (0.8); together the slope is 1.0 on solve and 1.1 on wide-weights.
    """
    n = 48
    out = [[((u * 7 + k * 13) % n, (u * 31 + k * 17) % 21 - 10)
            for k in range(3)] for u in range(n)]
    f = [0] * n
    for _ in range(15):
        for u in range(n):
            best = None
            for v, w in out[u]:
                need = f[v] - w
                if need < 0:
                    need = 0
                if best is None or need < best:
                    best = need
            f[u] = min(best, 10 ** 4)
    cap = 60 * _REF_SCALE
    g = [0] * 16
    queue = collections.deque(range(16))
    for _ in range(9):
        for u in range(16):
            needs = (_ominus(g[v], w, cap) for v, w in _REF_OUT[u])
            target = min(needs) if u % 2 == 0 else max(needs)
            if target > g[u]:
                g[u] = target
            queue.append(queue.popleft())
    return f, g


class Sampler:
    """Times reference_loop() every SAMPLE_EVERY_S, from SIGALRM.

    A timed stretch's own time is its elapsed time minus the samples taken
    inside it; its speed is their mean duration, or the last sample before
    it if it holds none.  The handler also stops an operation once its
    nominal time passes its limit.
    """

    def __init__(self):
        self.ends = []       # sample end times, ascending
        self.durations = []
        self.limit = None    # (nominal seconds, first sample, start time)

    def sample(self):
        start = clock()
        reference_loop()
        end = clock()
        self.ends.append(end)
        self.durations.append(end - start)

    def _handler(self, signum, frame):
        self.sample()
        if self.limit is not None:
            seconds, first, start = self.limit
            if self._own_nominal(first, start, clock())[1] > seconds:
                self.limit = None
                raise OperationTimeout()

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.limit = None

    def paused(self, start, end):
        """Seconds spent sampling between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.durations[lo:hi])

    def _own_nominal(self, first, start, end):
        """Own and nominal seconds from ``start`` to ``end``, whose samples
        begin at index ``first``."""
        inside = self.durations[first:]
        own = end - start - sum(inside)
        speed = (statistics.fmean(inside) if inside
                 else self.durations[first - 1])
        return own, own * NOMINAL_REF_S / speed

    def timed(self, fn, limit=None):
        """(fn(), own s, nominal s); fn() stops at ``limit`` nominal s,
        and the result is then None."""
        first = len(self.durations)
        start = clock()
        if limit is not None:
            self.limit = (limit, first, start)
        try:
            result = fn()
        except OperationTimeout:
            result = None
        finally:
            self.limit = None
            end = clock()
        return (result,) + self._own_nominal(first, start, end)


# Operations -------------------------------------------------------------

def solve_op(path):
    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["solve", path, "--format", "json"])
        if code != 0:
            raise OperationFailed("mpg solve exited with %d" % code)
        return buf.getvalue()
    return op


def enumerate_op(classes):
    def op():
        results = []
        for cls in classes:
            x, b = lattice.enumerate_lattice(cls.subgame, cls.nu)
            blocks = lattice.decompose(cls.subgame, cls.nu, x,
                                       max_listed=LISTED)
            results.append((x, b, blocks))
        return results
    return op


def enumerate_signature(results):
    """What a later pass must repeat exactly: measures, nodes, blocks."""
    return [([f.values for f in x],
             [(node.mask.key(), node.sepm_id, tuple(node.parent_ids))
              for node in b.nodes],
             [(block.count, [s.choice for s in block.strategies])
              for block in blocks])
            for x, b, blocks in results]


def set_up(workload, seed):
    """Cases and one operation per case; the workload's whole set-up."""
    cases = families.family(workload, seed)
    ops = []
    if workload == "enumerate":
        for case in cases:
            case.vals = values.solve_values(case.arena)
            case.classes = list(values.ergodic_partition(case.arena,
                                                         case.vals))
            ops.append(enumerate_op(case.classes))
    else:
        folder = OUT / ("arenas-%s-%d" % (workload, seed))
        folder.mkdir(parents=True, exist_ok=True)
        for case in cases:
            path = folder / (case.name + ".mpg")
            path.write_text(serialize_arena(case.arena), encoding="utf-8")
            ops.append(solve_op(str(path)))
    return cases, ops


# Measurement ------------------------------------------------------------

def run_pass(sampler, ops, failures, tracer):
    """One closed-loop pass: per op (answer, own s, nominal s) or None.

    The tracer forgets the calls of a failed op, whose counts depend on
    where the limit cut it.
    """
    results = []
    for i, op in enumerate(ops):
        state = tracer.mark()
        try:
            output, own, nominal = sampler.timed(op, LIMIT_S)
        except OperationFailed as exc:
            output, failures[i] = None, str(exc)
        except OperationTimeout:  # the alarm came just after op() returned
            output = None
        if output is None:
            failures.setdefault(i, "over the %.0f s limit" % LIMIT_S)
            tracer.rollback(state)
            results.append(None)
        else:
            results.append((output, own, nominal))
    return results


def peak_alloc_kb(ops, answers):
    """Largest tracemalloc peak of one lattice call, in one extra pass.

    Only operations that completed in the timed passes run, so this pass
    needs no time limit.
    """
    tracer = spans.Tracer(memory=True)
    tracer.install()
    try:
        for op, answer in zip(ops, answers):
            if answer is not None:
                op()
    finally:
        tracer.uninstall()
    return tracer.maxima["lattice.peak_alloc_kb"]


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().split()[:3]
    except OSError:
        return None


def signature(workload, answers):
    """What every pass must repeat exactly."""
    if workload == "enumerate":
        return [a and enumerate_signature(a) for a in answers]
    return answers


def check_answers(workload, cases, answers):
    """Checks the first pass's answers against the oracle."""
    for case, answer in zip(cases, answers):
        if answer is None:
            continue
        if workload == "enumerate":
            checks.check_values(case.arena, case.vals.vals,
                                checks.oracle_solution(case.arena)[0])
            for cls, one in zip(case.classes, answer):
                checks.check_enumeration(
                    cls.subgame, cls.nu, one,
                    checks.oracle_solution(cls.subgame), case.degenerate)
        else:
            checks.check_solve_output(case.arena, answer,
                                      checks.oracle_solution(case.arena))


def layer_metrics(tracers, passes, sampler):
    """Per-layer metrics: counts of a pass, times as medians over passes.

    Span times exclude the sampling inside them and are scaled by the
    pass's nominal-to-own ratio.  A count that differs between passes is
    returned as a problem.
    """
    per_pass = []
    for tracer, times in zip(tracers, passes):
        done = [t for t in times if t is not None]
        factor = sum(t[1] for t in done) / sum(t[0] for t in done)
        metrics = tracer.metrics(sampler.paused)
        per_pass.append({
            name: value * factor if spans.METRICS[name] == "s" else value
            for name, value in metrics.items()})
    layer, problem = {}, None
    for name, unit in spans.METRICS.items():
        samples = [m[name] for m in per_pass]
        if unit != "s" and len(set(samples)) != 1:
            problem = "%s differs between passes" % name
        value = statistics.median(samples) if unit == "s" else samples[0]
        layer[name] = {"value": value, "unit": unit}
    return layer, problem


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    context = {"nproc": os.cpu_count(),
               "python": platform.python_version(),
               "loadavg_start": loadavg()}

    sampler = Sampler()
    sampler.start()
    setups = []
    started = clock()
    while len(setups) < SETUP_REPEATS or clock() - started < SETUP_MIN_S:
        (cases, ops), own, nominal = sampler.timed(
            lambda: set_up(args.workload, args.seed))
        setups.append((own, nominal))
    # Only the first pass's answers are kept; later passes are compared
    # with them at once, so memory does not grow with the pass count.
    tracers, passes, failures = [], [], {}
    answers = first = repeated = None
    started = clock()
    while not passes or clock() - started < args.seconds:
        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
        try:
            results = run_pass(sampler, ops, failures, tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        passes.append([r and r[1:] for r in results])
        now = signature(args.workload, [r and r[0] for r in results])
        if answers is None:
            answers, first = [r and r[0] for r in results], now
        elif now != first and repeated is None:
            repeated = [c.name for c, a, b in zip(cases, first, now) if a != b]
        del results, now
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = True
    try:
        check_answers(args.workload, cases, answers)
        checks.require(repeated is None, "a later pass gave other answers "
                       "for %s", repeated)
    except checks.CheckFailed as exc:
        correct = False
        context["check_failed"] = str(exc)

    walls = [sum(r[1] for r in p if r is not None) for p in passes]
    per_op = []
    for i in range(len(ops)):
        samples = [p[i][1] for p in passes if p[i] is not None]
        if samples:
            per_op.append(statistics.median(samples))
    end_to_end = {
        "setup_s": statistics.median(nominal for _, nominal in setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(per_op),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
             "peak_rss_mb": "MiB"}
    context.update({
        "loadavg_end": loadavg(),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "operations": [c.name for c in cases],
        "failures": {cases[i].name: why for i, why in failures.items()},
        "raw": {"setup_s": statistics.median(own for own, _ in setups),
                "wall_s": statistics.median(
                    sum(r[0] for r in p if r is not None) for p in passes),
                "ref_s": statistics.median(sampler.durations)},
        "nominal": end_to_end,
    })

    if args.trace:
        metrics, problem = layer_metrics(tracers, passes, sampler)
        if metrics["lattice.enumerate_s"]["value"]:
            metrics["lattice.peak_alloc_kb"]["value"] = peak_alloc_kb(
                ops, answers)
        if problem:
            correct = False
            context["check_failed"] = problem
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in end_to_end.items()}

    attempted = len(ops) * len(passes)
    failed = sum(r is None for p in passes for r in p)
    OUT.mkdir(exist_ok=True)
    record = dict(context, metrics=metrics, setups=setups, times=passes)
    if args.trace:
        record["spans"] = [tracer.spans for tracer in tracers]
    with open(OUT / ("%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w",
            encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps(context))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""cellmat benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout (it imports cellmat from ./src):

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Workloads (workloads.py): ``dense``, ``grouped`` and ``cli``, each one client in
a closed loop.  A workload builds the run's operation set from the seed; every
operation of it runs once, and then the loop keeps passing over the set, in a
new seeded order each pass, until the timed operations add up to ``--seconds``.
Each operation's time is the median of its executions.  Inputs, references and
checks stay outside the timed region.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` the loop makes whole passes
and runs each operation once plain and once with spans installed (tracing.py),
in alternating order, and the line holds the per-layer metrics.  The line
before it holds details: the tail percentile and its sample count, failures by
kind and by bucket, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy  # noqa: E402  (after the BLAS settings)

from checks import ERR_FLOOR, TOL  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
WARMUP_S = 1.5
FAIL_KINDS = ("wrong", "DomainError", "ConvergenceError", "CellMatrixError", "other")
BUCKETS = ("n10", "n50", "n100", "n200", "extreme", "k1", "k2", "k5", "k8", "k16", "k32", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "correct_frac": "frac",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = {
    "eigen.jacobi": ("calls", "self_s", "fail"),
    "eigen.core_root": ("calls", "self_s", "fail"),
    "eigen.char_poly": ("self_s",),
    "eigen.poly_roots": ("self_s",),
    "reduction.reduce": ("self_s", "ops"),
    "reduction.build_dk": ("self_s",),
    "reduction.route": ("self_s",),
    "iep.solve": ("self_s", "fail"),
    "iep.membership": ("self_s",),
    "perm.transposition": ("calls", "self_s"),
    "perm.invariance": ("self_s",),
    "cell.construct": ("calls", "self_s"),
    "cell.group": ("self_s", "fail"),
    "cell.recognize": ("self_s",),
    "cell.det": ("self_s",),
}
_STAT_UNITS = {"calls": "count", "fail": "count", "ops": "count", "self_s": "s"}

PER_LAYER = {f"{span}.{stat}": _STAT_UNITS[stat]
             for span, stats in _SPAN_METRICS.items() for stat in stats}
PER_LAYER.update({f"eigen.jacobi.self_s.{b}": "s" for b in BUCKETS[:4]})
PER_LAYER.update({"cli.import_s": "s", "cli.main_s": "s", "cli.process_s": "s",
                  "cli.out_bytes": "bytes", "ref.lapack_s": "s", "trace.overhead_frac": "frac",
                  "passes": "count", "latency.tail_pct": "%", "latency.samples": "count",
                  "fail.frac": "frac"})
PER_LAYER.update({f"fail.kind.{k}": "frac" for k in FAIL_KINDS})
PER_LAYER.update({f"fail.bucket.{b}": "frac" for b in BUCKETS})


class Outcome:
    """One operation of the run's set, over all of its executions."""

    __slots__ = ("op", "bucket", "times", "failure", "error")

    def __init__(self, op):
        self.op = op.name  # the operation's kind: what it does and at which size
        self.bucket = op.bucket
        self.times: list[float] = []
        self.failure = None  # one of FAIL_KINDS, from its first failed execution
        self.error = 0.0  # largest relative error of its returned answers

    def record(self, op, result, exc, seconds) -> None:
        self.times.append(seconds)
        if exc is not None:
            kind = getattr(exc, "kind", type(exc).__name__)
            self.failure = self.failure or (kind if kind in FAIL_KINDS else "other")
            return
        try:
            error = op.check(result)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            error = math.inf  # an answer of the wrong shape
        self.error = max(self.error, error)
        if error > TOL:
            self.failure = self.failure or "wrong"

    @property
    def seconds(self) -> float:
        """Its typical time: the median of its executions."""
        return statistics.median(self.times)


def timed(fn):
    """(result, exception, seconds) of one call."""
    start = time.perf_counter()
    try:
        result, exc = fn(), None
    except Exception as e:  # every failure of the program is a counted outcome
        result, exc = None, e
    return result, exc, time.perf_counter() - start


class ImportTimer:
    """Wall times of new interpreters that import ``module`` and exit, at the
    reference speed when a Speed is given."""

    def __init__(self, module: str, env: dict, speed=None):
        self.cmd = [sys.executable, "-c", f"import {module}"]
        self.env = env
        self.speed = speed
        self.times: list[float] = []
        subprocess.run(self.cmd, env=env, cwd=ROOT, check=True, capture_output=True)  # bytecode

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, capture_output=True)
            seconds = time.perf_counter() - start
            self.times.append(self.speed.scaled(seconds) if self.speed else seconds)

    def median(self) -> float:
        return statistics.median(self.times)


class Speed:
    """The machine's speed, from a fixed kernel timed next to every execution.

    On a host shared with other jobs a core's speed drifts, by up to 1.7x in
    phases of tens of seconds, and every operation of a run drifts with it.
    The kernel runs before and after each timed execution and, inside
    ``sampling()`` when ``interval_s`` is set, every ``interval_s`` during it,
    from a timer signal whose time is taken out of the execution's.
    ``scaled`` multiplies the execution's wall time by ``reference_s`` over
    the kernel's mean time in those samples: the time the execution would
    take on a machine that runs the kernel in ``reference_s``.  The program
    never runs inside a kernel, so a change to it moves the scaled times as
    it moves the wall times.
    """

    def __init__(self, kernel, reference_s: float, repeats: int = 1, interval_s=None):
        self.kernel = kernel
        self.reference_s = reference_s
        self.repeats = repeats
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.during: list[float] = []  # kernel times sampled inside the execution
        self.paused = 0.0  # the time those samples took
        self.last = self.sample()

    def sample(self) -> float:
        """The median of ``repeats`` kernel runs."""
        seconds = statistics.median(self.kernel() for _ in range(self.repeats))
        self.samples.append(seconds)
        return seconds

    def _sample_during(self, signum, frame) -> None:
        start = time.perf_counter()
        self.during.append(self.kernel())
        self.paused += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Samples the kernel every ``interval_s`` while the enclosed call runs."""
        if self.interval_s is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample_during)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, seconds: float) -> float:
        """``seconds`` just measured, less the samples taken during it, at the
        reference speed."""
        before, self.last = self.last, self.sample()
        kernel_s = statistics.fmean([before, self.last, *self.during])
        seconds -= self.paused
        self.during, self.paused = [], 0.0
        return seconds * self.reference_s / kernel_s

    def factor(self) -> float:
        """The run's median speed relative to the reference."""
        return self.reference_s / statistics.median(self.samples)


def interpreter_speed() -> Speed:
    """For work in this process: pure-Python complex arithmetic (Horner
    evaluation of a degree-11 polynomial along a path), which tracks the
    program's own speed more closely than numpy-bound kernels do; 0.6 ms at
    the reference speed.  It is also sampled during each execution."""
    coefficients = [complex(math.sin(i), math.cos(i)) for i in range(12)]

    def kernel():
        start = time.perf_counter()
        z = 0.3 + 0.4j
        for _ in range(600):
            w = 0j
            for c in coefficients:
                w = w * z + c
            z = z * 0.999 + 0.001j
        return time.perf_counter() - start

    return Speed(kernel, 0.6e-3, repeats=3, interval_s=0.1)


def process_speed(env: dict) -> Speed:
    """For work in new processes: a new interpreter that runs ``pass`` and
    exits; 50 ms at the reference speed."""
    cmd = [sys.executable, "-c", "pass"]

    def kernel():
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        return time.perf_counter() - start

    return Speed(kernel, 0.05)


def passes(opset, seed):
    """(pass number, index) over the set, each pass in a new seeded order."""
    number = 0
    while True:
        order = list(range(len(opset.ops)))
        random.Random(f"order:{seed}:{number}").shuffle(order)
        for index in order:
            yield number, index
        number += 1


def run_plain(opset, seconds, seed, speed, after_pass=lambda: None):
    """Executes every operation of the set once, then goes on passing over it
    until the timed operations add up to ``seconds`` of wall time; the last
    pass may stop part-way.  Returns one Outcome per operation, with its times
    at the reference speed, and the passes begun."""
    outcomes = [Outcome(op) for op in opset.ops]
    timed_s, begun = 0.0, 0
    for number, index in passes(opset, seed):
        if number and timed_s >= seconds:
            break
        if number == begun:
            if begun:
                after_pass()
            begun += 1
        op = opset.ops[index]
        with speed.sampling():
            result, exc, dt = timed(op.call)
        outcomes[index].record(op, result, exc, speed.scaled(dt))
        timed_s += dt
    return outcomes, begun


def run_traced(opset, seconds, seed, tracer, after_pass=lambda: None):
    """Whole passes over the set, each operation plain and traced, alternating
    which goes first, until the time spent adds up to ``seconds``."""
    outcomes = [Outcome(op) for op in opset.ops]
    plain_s = traced_s = spent = 0.0
    process_s, main_s, out_bytes = [], [], []
    passes_run = 0
    for number, index in passes(opset, seed):
        if number == passes_run:  # a pass begins
            if passes_run and spent >= seconds:
                break
            if passes_run:
                after_pass()
            passes_run += 1
        op = opset.ops[index]
        tracer.op += 1
        if op.inproc is not None:  # cli: the process first, then cli.main in-process
            result, exc, dt = timed(op.call)
            outcomes[index].record(op, result, exc, dt)
            process_s.append(dt)
            out_bytes.append(len(result.encode()) if result is not None else 0)
            spent += dt
            fn = op.inproc
        else:
            fn = op.call
        pair = {}
        traced_first = tracer.op % 2 == 0
        for trace_on in (traced_first, not traced_first):
            with tracer.installed() if trace_on else contextlib.nullcontext():
                pair[trace_on] = timed(fn)
        if op.inproc is None:
            outcomes[index].record(op, *pair[False])
        else:
            main_s.append(pair[False][2])
        plain_s += pair[False][2]
        traced_s += pair[True][2]
        spent += pair[False][2] + pair[True][2]
    extra = {"ref.lapack_s": opset.lapack_s,
             "trace.overhead_frac": (traced_s - plain_s) / plain_s,
             "cli.main_s": statistics.median(main_s) if main_s else 0.0,
             "cli.process_s": statistics.median(process_s) if process_s else 0.0,
             "cli.out_bytes": statistics.fmean(out_bytes) if out_bytes else 0.0}
    return outcomes, passes_run, extra


def tail(values):
    """The tail of ``values``: (percentile, mean of the samples from it on).

    The percentile is the highest with ten samples beyond it.  The mean of
    the samples from it on, rather than the single order statistic, keeps the
    figure steady when the percentile falls between two clusters of a mixed
    workload.
    """
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), statistics.fmean(ordered[index:])


def typical_latency(outcomes):
    """Geometric mean, over operation kinds that are mostly correct, of each
    kind's median time over the executions of its correct operations; None
    when no kind is mostly correct."""
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.op, []).append(o)
    medians = []
    for group in by_kind.values():
        ok = [o for o in group if o.failure is None]
        if 2 * len(ok) > len(group):
            medians.append(math.log(statistics.median(t for o in ok for t in o.times)))
    return math.exp(statistics.fmean(medians)) if medians else None


def failure_breakdown(outcomes):
    attempted = {b: 0 for b in BUCKETS}
    failed = {b: 0 for b in BUCKETS}
    kinds = {k: 0 for k in FAIL_KINDS}
    for o in outcomes:
        attempted[o.bucket] += 1
        if o.failure is not None:
            failed[o.bucket] += 1
            kinds[o.failure] += 1
    return attempted, failed, kinds


def end_to_end(outcomes, setup_s, rss_mb):
    """The end-to-end metrics; those measured on correct operations are left
    out when there are none."""
    ok = [o for o in outcomes if o.failure is None]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / sum(o.seconds for o in outcomes),
        "latency_p50_s": typical_latency(outcomes),
        "correct_frac": len(ok) / len(outcomes),
        "peak_rss_mb": rss_mb,
    }
    if ok:
        metrics["latency_tail_s"] = tail(o.seconds for o in ok)[1]
        # log10 of the error grows with it, so its tail holds the worst answers.
        metrics["accuracy_digits"] = -tail(math.log10(max(o.error, ERR_FLOOR)) for o in ok)[1]
    return {name: metrics[name] for name in END_TO_END if metrics.get(name) is not None}


def per_layer(outcomes, passes_run, summary, extra):
    """The per-layer metrics; span figures are per pass over the set."""
    values = {name: 0.0 for name in PER_LAYER}
    for span, stats in _SPAN_METRICS.items():
        row = summary.get(span)
        if row is None:
            continue
        for stat in stats:
            values[f"{span}.{stat}"] = row["count" if stat == "ops" else stat] / passes_run
    jacobi = summary.get("eigen.jacobi")
    if jacobi is not None:
        for bucket, seconds in jacobi["tags"].items():
            values[f"eigen.jacobi.self_s.{bucket}"] = seconds / passes_run
    values.update(extra)
    latencies = [o.seconds for o in outcomes if o.failure is None]
    if latencies:
        values["latency.tail_pct"] = tail(latencies)[0]
    else:  # no correct operations: there is no tail to place
        del values["latency.tail_pct"]
    attempted, failed, kinds = failure_breakdown(outcomes)
    values.update({"passes": passes_run, "latency.samples": len(latencies),
                   "fail.frac": sum(failed.values()) / len(outcomes)})
    values.update({f"fail.kind.{k}": v / len(outcomes) for k, v in kinds.items()})
    values.update({f"fail.bucket.{b}": failed[b] / attempted[b] if attempted[b] else 0.0
                   for b in BUCKETS})
    return values


def report(outcomes, passes_run, metrics, units, known_defects, details) -> int:
    """Print the metrics, the details line and the result line; the exit code.

    ``attempted`` and ``failed`` count the operations of the set, each once
    however often it ran, so they depend on the seed alone.  The result is
    correct while every failure lies in a known-defect bucket.  A run that
    could not measure every metric (no correct operations to time) still
    prints its failures, with correct=false, and exits with 1.
    """
    attempted, failed, kinds = failure_breakdown(outcomes)
    ok = [o for o in outcomes if o.failure is None]
    unexpected = sorted(b for b, f in failed.items() if f and b not in known_defects)
    missing = [name for name in units if name not in metrics]
    details = dict(details, **{
        "passes": passes_run,
        "executions": sum(len(o.times) for o in outcomes),
        "latency_samples": len(ok),
        "latency_tail_pct": tail(o.seconds for o in ok)[0] if ok else None,
        "attempted_by_bucket": {b: v for b, v in attempted.items() if v},
        "failed_by_bucket": {b: v for b, v in failed.items() if v},
        "failed_by_kind": {k: v for k, v in kinds.items() if v},
        "unexpected_failures": unexpected,
        "unmeasured": missing,
    })
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not (unexpected or missing),
        "attempted": len(outcomes),
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    if missing:
        print(f"perfbench: too few correct operations to measure {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


def environment():
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dense", "grouped", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cellmat", "__init__.py")):
        print(f"perfbench: no cellmat package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cellmat

    if not os.path.abspath(cellmat.__file__).startswith(SRC + os.sep):
        print(f"perfbench: cellmat imported from {cellmat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    # solve_grouped's dominance diagnostic would print once per call site.
    warnings.simplefilter("ignore", RuntimeWarning)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    workload = workloads.WORKLOADS[args.workload](args.seed, env, ROOT)
    opset = workload.build()

    # Warm-up: operations of another seed's set, untimed and unchecked.
    warm_until = time.perf_counter() + WARMUP_S
    for op in workloads.WORKLOADS[args.workload](-1 - args.seed, env, ROOT).build().ops:
        if time.perf_counter() >= warm_until:
            break
        timed(op.call)

    details = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if args.trace:
        tracer = Tracer()
        if args.workload == "cli":
            # cli.import_s is sampled before, between and after the passes, so
            # that it meets the machine as the calls do.
            timer = ImportTimer("cellmat.cli", env)
            timer.sample(3)
            after_pass = timer.sample
        else:
            timer, after_pass = None, lambda: None
        outcomes, passes_run, extra = run_traced(opset, args.seconds, args.seed, tracer,
                                                 after_pass)
        if timer is not None:
            timer.sample(max(0, SETUP_REPEATS - len(timer.times)))
            extra["cli.import_s"] = timer.median()
        metrics = per_layer(outcomes, passes_run, tracer.summary(), extra)
        units = PER_LAYER
    else:
        # The cli workload's operations are new processes, like set-up's.
        speeds = {"process": process_speed(env)}
        if args.workload != "cli":
            speeds["interpreter"] = interpreter_speed()
        # Set-up is sampled before, between and after the passes, so that its
        # median spans the run.
        timer = ImportTimer("cellmat", env, speeds["process"])
        timer.sample(3)
        speed = speeds.get("interpreter", speeds["process"])
        outcomes, passes_run = run_plain(opset, args.seconds, args.seed, speed, timer.sample)
        timer.sample(max(0, SETUP_REPEATS - len(timer.times)))
        details["speed"] = {name: speed.factor() for name, speed in speeds.items()}
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        metrics = end_to_end(outcomes, timer.median(), rss_mb)
        units = END_TO_END

    return report(outcomes, passes_run, metrics, units, workload.known_defects, details)


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads dense grouped cli --seeds 1-10 \\
        [--trace 1] [--baseline perfbench/baseline.json --label <commit>]

Every run measures BENCHMARK.json's ``run_seconds``.  It runs the seeds twice,
as two sets of runs of the same code (once with ``--trace 1``).  For every
workload and metric it prints, per set, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.  For
end-to-end metrics it also checks each spread against a third of the metric's
bound and, with two sets, that the second set's median is not worse than the
first's by more than the bound.  With ``--baseline`` the figures are stored in
that file under ``baseline`` (end-to-end) or ``per_layer_baseline`` (traced),
together with the label, seeds and environment.  A spread whose median is 0 is
stored as null.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def measure_set(workload, seeds, seconds, trace):
    """Per-metric figures over one run per seed, and each run's failures."""
    values, runs, env = {}, [], None
    for seed in seeds:
        details, result = run_once(workload, seed, seconds, trace)
        env = details["env"]
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "failed_by_bucket": details["failed_by_bucket"],
                     "failed_by_kind": details["failed_by_kind"]})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    rows = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else None, "values": vals}
    return {"metrics": rows, "runs": runs}, env


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def report(workload, sets, spec) -> bool:
    """Print each metric's figures per set; True when every check passes."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for name in sets[0]["metrics"]:
        rows = [s["metrics"][name] for s in sets]
        metric = end_to_end.get(name)
        notes = []
        if metric is not None:
            for i, row in enumerate(rows):
                if name != "setup_s" and (row["spread"] or 0.0) >= metric["bound"] / 3:
                    notes.append(f"set {i + 1} WIDE")
            for row in rows[1:]:
                if worsening(rows[0]["median"], row["median"], metric["better"]) > metric["bound"]:
                    notes.append("median MOVED")
            ok = ok and not notes
            notes.insert(0, f"bound {metric['bound']}")
        print(f"  {name}")
        for i, row in enumerate(rows):
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"    set {i + 1}: median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {spread}")
        if notes:
            print("    " + ", ".join(notes))
    print(f"{workload}: {'steady' if ok else 'NOT STEADY'}", flush=True)
    return ok


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="JSON file to store the figures in")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    table, env, steady = {}, None, True
    for workload in args.workloads:
        sets = []
        for _ in range(1 if args.trace else 2):
            figures, env = measure_set(workload, args.seeds, seconds, args.trace)
            sets.append(figures)
        steady = report(workload, sets, spec) and steady
        table[workload] = {"sets": sets}

    if args.baseline:
        data = {}
        if os.path.exists(args.baseline):
            with open(args.baseline) as fh:
                data = json.load(fh)
        key = "per_layer_baseline" if args.trace else "baseline"
        data[key] = {"label": args.label, "seeds": args.seeds, "seconds": seconds,
                     "env": env, "workloads": table}
        text = json.dumps(data, indent=1, allow_nan=False)  # raises before the file is touched
        with open(args.baseline, "w") as fh:
            fh.write(text + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

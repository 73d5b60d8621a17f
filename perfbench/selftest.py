"""Self-test of the benchmark's reference checker and metric output.

Run from the root of a checkout (about two minutes):

    python3 perfbench/selftest.py

It shows that a spectrum off by 1e-6 and a raised ConvergenceError both count
as failures, that a spectrum within rounding does not, that an operation
that goes wrong on a later pass over the set counts as one failed operation,
that a run with no correct operation still reports its failures and exits
nonzero, and that every metric named in BENCHMARK.json is emitted, with its
unit, on every workload.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import cellmat as cm  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from workloads import CliFailure, Op, OpSet, _check_spectrum  # noqa: E402


# Leaves times as measured: the checker, not the speed scaling, is under test.
UNIT_SPEED = run.Speed(lambda: 1.0, 1.0)


def _raise(exc):
    raise exc


class CheckerTest(unittest.TestCase):
    def setUp(self):
        x = tuple(np.linspace(0.5, 7.0, 12))
        self.ref, _ = checks.reference_spectrum(checks.cell_matrix(x))
        self.check = _check_spectrum(self.ref)

    def outcomes(self, *calls, seconds=0.0):
        ops = [Op(f"op{i}", "n10", call, self.check) for i, call in enumerate(calls)]
        outcomes, passes_run = run.run_plain(OpSet(ops, 0.0), seconds, 0, UNIT_SPEED)
        self.assertEqual(len(outcomes), len(calls))
        if not seconds:
            self.assertEqual(passes_run, 1)
        return outcomes

    def test_exact_spectrum_is_correct(self):
        good = SimpleNamespace(values=tuple(self.ref * (1 + 1e-13)))
        [o] = self.outcomes(lambda: good)
        self.assertIsNone(o.failure)

    def test_perturbed_spectrum_counts_as_failure(self):
        good = SimpleNamespace(values=tuple(self.ref))
        off = SimpleNamespace(values=tuple(self.ref * (1 + 1e-6)))
        outcomes = self.outcomes(lambda: good, lambda: off)
        self.assertEqual([o.failure for o in outcomes], [None, "wrong"])
        metrics = run.end_to_end(outcomes, 0.1, 1.0)
        self.assertEqual(metrics["correct_frac"], 0.5)
        layers = run.per_layer(outcomes, 1, {}, {})
        self.assertEqual(layers["fail.frac"], 0.5)
        self.assertEqual(layers["fail.kind.wrong"], 0.5)
        self.assertEqual(layers["fail.bucket.n10"], 0.5)

    def test_convergence_error_counts_as_failure(self):
        good = SimpleNamespace(values=tuple(self.ref))
        outcomes = self.outcomes(lambda: good, lambda: _raise(cm.ConvergenceError("stuck")))
        self.assertEqual([o.failure for o in outcomes], [None, "ConvergenceError"])
        self.assertEqual(run.end_to_end(outcomes, 0.1, 1.0)["correct_frac"], 0.5)
        self.assertEqual(run.per_layer(outcomes, 1, {}, {})["fail.kind.ConvergenceError"], 0.5)

    def test_operation_failing_on_a_later_pass_counts_once(self):
        good = SimpleNamespace(values=tuple(self.ref))
        off = SimpleNamespace(values=tuple(self.ref * (1 + 1e-6)))
        answers = itertools.chain([good], itertools.repeat(off))
        outcomes = self.outcomes(lambda: good, lambda: next(answers), seconds=0.01)
        self.assertGreater(min(len(o.times) for o in outcomes), 1)
        self.assertEqual([o.failure for o in outcomes], [None, "wrong"])
        self.assertEqual(run.end_to_end(outcomes, 0.1, 1.0)["correct_frac"], 0.5)

    def test_cli_exit_status_maps_to_error_kind(self):
        stdout = json.dumps({"error": {"kind": "convergence", "message": "stuck"}})
        [o] = self.outcomes(lambda: _raise(CliFailure(4, stdout)))
        self.assertEqual(o.failure, "ConvergenceError")
        [o] = self.outcomes(lambda: _raise(CliFailure(1, "Traceback ...")))
        self.assertEqual(o.failure, "other")

    def test_run_without_correct_operations_reports_its_failures(self):
        off = SimpleNamespace(values=tuple(self.ref * (1 + 1e-6)))
        outcomes = self.outcomes(lambda: off, lambda: _raise(cm.ConvergenceError("stuck")))
        for units, metrics in ((run.END_TO_END, run.end_to_end(outcomes, 0.1, 1.0)),
                               (run.PER_LAYER, run.per_layer(outcomes, 1, {}, {}))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.report(outcomes, 1, metrics, units, frozenset({"n10"}), {})
            self.assertEqual(code, 1)
            details, result = [json.loads(line) for line in out.getvalue().splitlines()[-2:]]
            self.assertFalse(result["correct"])
            self.assertEqual((result["attempted"], result["failed"]), (2, 2))
            self.assertEqual(details["details"]["failed_by_kind"],
                             {"wrong": 1, "ConvergenceError": 1})
        self.assertEqual(metrics["fail.frac"], 1.0)
        self.assertEqual(metrics["fail.bucket.n10"], 1.0)

    def test_nonfinite_answer_is_wrong(self):
        bad = SimpleNamespace(values=(float("nan"),) * len(self.ref))
        [o] = self.outcomes(lambda: bad)
        self.assertEqual(o.failure, "wrong")


class SpeedTest(unittest.TestCase):
    def test_times_scale_by_reference_over_kernel_time(self):
        kernel_times = iter([0.002, 0.004])
        speed = run.Speed(lambda: next(kernel_times), 0.001)
        self.assertAlmostEqual(speed.scaled(0.3), 0.3 * 0.001 / 0.003)
        self.assertAlmostEqual(speed.factor(), 0.001 / 0.003)


class EmittedMetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                  1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
                        capture_output=True, text=True, timeout=300)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted[trace])


if __name__ == "__main__":
    unittest.main()

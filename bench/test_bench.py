"""Smoke tests of the benchmark itself, at toy size.

    python3 -m unittest discover -s bench -p 'test_*.py'

They check that every metric BENCHMARK.json declares is printed with its
unit, that counters repeat for a repeated seed, that a wrong reference
raises ``fail_frac``, and that the benchmark refuses to run without the
package source.  They use only the standard library and numpy.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_pass(workload: str, seed: int = 3, trace: bool = False) -> dict:
    with tempfile.TemporaryDirectory() as outdir, mock.patch.dict(os.environ):
        return run_pass(workload, seed, "tiny", trace, outdir)


class MetricsEmitted(unittest.TestCase):
    def test_every_declared_metric_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", workload,
                         "--seed", "5", "--seconds", "0.1", "--trace", str(trace),
                         "--size", "tiny"],
                        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                                     {m["name"]: m["unit"] for m in declared})
                    for line in proc.stdout.splitlines()[:-1]:
                        self.assertFalse(line.startswith("{"))


class Determinism(unittest.TestCase):
    def test_counters_repeat_for_a_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = tiny_pass(workload, 9, trace=True), tiny_pass(workload, 9, trace=True)
                self.assertEqual(a["counts"], b["counts"])
                self.assertEqual(a["trace_counts"], b["trace_counts"])
                self.assertEqual([r[:1] + r[2:3] for r in a["tasks"]],
                                 [r[:1] + r[2:3] for r in b["tasks"]])

    def test_counters_follow_the_seed(self):
        a, b = tiny_pass("event_logs", 1), tiny_pass("event_logs", 2)
        self.assertNotEqual(a["counts"]["sim.simulate.events"], b["counts"]["sim.simulate.events"])

    def test_tracing_does_not_change_counters(self):
        self.assertEqual(tiny_pass("mc_sampling", 4)["counts"],
                         tiny_pass("mc_sampling", 4, trace=True)["counts"])


class Gates(unittest.TestCase):
    def fail_frac(self, result: dict) -> float:
        return run.summarize([result], [])["metrics"]["fail_frac"][0]

    def test_perturbed_reference_raises_fail_frac(self):
        honest = tiny_pass("mc_sampling")
        exact = refs.chain_moments

        def tripled(rho, rates):
            mean, var = exact(rho, rates)
            return 3.0 * mean, var

        with mock.patch.object(refs, "chain_moments", tripled):
            perturbed = tiny_pass("mc_sampling")
        self.assertEqual(self.fail_frac(honest), 0.0)
        self.assertGreater(self.fail_frac(perturbed), 0.5)

    def test_known_defects_name_real_tasks(self):
        names = {t.name for w in workloads.WORKLOADS for t in workloads.build(w, 0).tasks}
        self.assertLessEqual(set(workloads.KNOWN_DEFECTS), names)

    def test_cli_writes_only_under_its_outdir(self):
        with tempfile.TemporaryDirectory() as outdir, mock.patch.dict(os.environ):
            result = run_pass("event_logs", 3, "tiny", False, outdir)
            self.assertEqual(os.listdir(outdir), ["events_simulate.txt"])
        self.assertTrue(all(r[2] for r in result["tasks"]))


class References(unittest.TestCase):
    def test_ladder_table_reproduces(self):
        import mpmath
        with mpmath.workprec(300):
            value = mpmath.exp(refs.equal_rate_mean_log(64))
            self.assertLess(abs(value / refs.ladder_mean(64) - 1), mpmath.mpf("1e-38"))

    def test_small_cases(self):
        from fractions import Fraction
        self.assertEqual(refs.unit_chain_fraction(3), Fraction(8, 3))
        self.assertEqual(refs.chain_moments(1, []), (1.0, 1.0))
        self.assertEqual(refs.chain_moments(3, [1, 2]), refs.chain_moments(2, [3, 1]))


class Refusal(unittest.TestCase):
    def test_fails_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "event_logs",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()

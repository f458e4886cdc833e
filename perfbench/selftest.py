"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload runs and reports every metric of
``BENCHMARK.json`` with its unit, that planted faults are caught (a
recovered database missing one acknowledged write fails the
``durable_writes`` check; an injected error frame raises the error rate
above 0), and that the command fails without a result when the checkout
holds no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
import warnings

from common import ROOT, WORK_DIR, import_program

import_program()

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: tiny versions of each workload's script
TINY = {
    "wire_serving": {"population": 16, "ops": 200},
    "sjoberg_evolution": {"population": 50, "events": 12},
    "durable_writes": {"population": 200, "single_writes": 12, "batches": 4},
}


def tiny_run(name: str, trace: bool, fault: str = None):
    options = dict(TINY[name], **({"fault": fault} if fault else {}))
    workload = run.make_workload(name, 3, **options)
    try:
        trials, setups = run.run_trials(workload, 0, trace, extra_setups=1)
    finally:
        workload.close()
    return trials, setups


class BenchTest(unittest.TestCase):
    def setUp(self):
        # workloads abandon databases without closing them on purpose
        warnings.simplefilter("ignore", ResourceWarning)


class EveryMetricReported(BenchTest):
    def test_end_to_end(self):
        for name in TINY:
            with self.subTest(workload=name):
                trials, setups = tiny_run(name, trace=False)
                self.assertEqual(sum(t.failed for t in trials), 0, trials[0].failures)
                metrics = run.end_to_end(trials, setups)
                for spec in SPEC["end_to_end"]:
                    self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"])
                    self.assertGreater(metrics[spec["name"]]["value"], 0, spec["name"])
                self.assertEqual(len(metrics), len(SPEC["end_to_end"]))

    def test_per_layer(self):
        for name in TINY:
            with self.subTest(workload=name):
                trials, _setups = tiny_run(name, trace=True)
                self.assertEqual(sum(t.failed for t in trials), 0, trials[0].failures)
                traced = [t for t in trials if t.traced]
                untraced = [t for t in trials if not t.traced]
                metrics = run.per_layer(untraced, traced)
                for spec in SPEC["per_layer"]:
                    self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"])
                self.assertEqual(len(metrics), len(SPEC["per_layer"]))
                self.assertGreater(metrics["trace.overhead_ratio"]["value"], 0)
                self.assertIn("|", run.layer_report(traced, metrics))


class PlantedFaults(BenchTest):
    def test_missing_acknowledged_write_fails_recovery_check(self):
        trials, _ = tiny_run("durable_writes", trace=False, fault="missing_write")
        self.assertGreater(sum(t.failed for t in trials), 0)
        self.assertTrue(any("recovered" in m for t in trials for m in t.failures))

    def test_error_frame_raises_error_rate(self):
        trials, _ = tiny_run("wire_serving", trace=False, fault="error_frame")
        failed = sum(t.failed for t in trials)
        attempted = sum(t.attempted for t in trials)
        self.assertGreater(failed / attempted, 0)
        self.assertTrue(any("error frame" in m for t in trials for m in t.failures))


class NoProgram(BenchTest):
    def test_exits_nonzero_without_result(self):
        bare = WORK_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "wire_serving",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()

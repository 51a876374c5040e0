"""Self-test of the benchmark: the exact reference, the generators and the
metric output.

Run from the repository root (about three minutes, half of it the traced run):

    python3 bench/selftest.py

The file name keeps it out of pytest's default collection, so the tier-1
suite never runs a benchmark.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

EULERIAN = {2: (1, 1), 3: (1, 4, 1), 4: (1, 11, 11, 1)}


def bench(*args):
    """Run bench/run.py; returns (final JSON object, stdout)."""
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class ReferenceTest(unittest.TestCase):
    def test_eulerian_sections(self):
        # {x : sum x = s} has (d-1)-volume sqrt(d) A(d-1, s-1) / (d-1)!
        for d in (3, 4, 5):
            for s in range(1, d):
                got = reference.section_volume([1.0] * d, float(s))
                expect = math.sqrt(d) * EULERIAN[d - 1][s - 1] / math.factorial(d - 1)
                self.assertAlmostEqual(float(got), expect, delta=4 * math.ulp(expect))

    def test_corner_closed_form(self):
        a = [0.41, 0.5, 0.52, 0.56]
        b = 0.3
        prod = math.prod(Fraction(x) for x in a)
        half = reference.halfspace_volume(a, b)
        self.assertEqual(half, Fraction(b) ** 4 / (24 * prod))
        section = reference.section_volume(a, b)
        expect = math.sqrt(sum(x * x for x in a)) * b**3 / (6 * float(prod))
        self.assertAlmostEqual(float(section), expect, delta=1e-14 * expect)

    def test_diagonal_closed_form(self):
        # acceptance test 04: d^(d/2)/(d-1)! (sqrt(d)/2 - t)^(d-1) in the corner band
        for d in range(3, 13):
            lo, hi = math.sqrt(d - 1) / 2, math.sqrt(d) / 2
            for k in range(5):
                t = lo + (k + 0.5) * (hi - lo) / 5
                a = [1.0 / math.sqrt(d)] * d
                got = float(reference.section_volume(a, math.sqrt(d) / 2 - t))
                expect = d ** (d / 2) / math.factorial(d - 1) * (math.sqrt(d) / 2 - t) ** (d - 1)
                self.assertAlmostEqual(got, expect, delta=1e-12 * expect)

    def test_full_halfspace_is_one(self):
        self.assertEqual(reference.halfspace_volume([0.3, 0.7, 0.2], 1.5), 1)

    def test_violates(self):
        ref = Fraction(1, 3)
        self.assertFalse(reference.violates(1 / 3, 0.0, ref))
        self.assertTrue(reference.violates(1 / 3 + 1e-12, 1e-13, ref))
        self.assertFalse(reference.violates(1 / 3 + 1e-12, 2e-12, ref))


class GeneratorTest(unittest.TestCase):
    def test_seeded(self):
        for wl in workloads.WORKLOADS:
            first = workloads.first_items(wl, 7, 40)
            self.assertEqual(first, workloads.first_items(wl, 7, 40))
            self.assertNotEqual(first, workloads.first_items(wl, 8, 40))

    def test_no_deep_cut_above_20(self):
        for seed in range(5):
            for item in workloads.first_items("exact", seed, 400):
                self.assertLessEqual(item["d"], workloads.DEEP_DIM_MAX)
        self.assertLessEqual(max(cell[0] for cell in workloads.deep_cells()), workloads.DEEP_DIM_MAX)

    def test_exact_keeps_witnesses(self):
        items = next(workloads.blocks("exact", 3))
        specs = [(it["a"], it["t"]) for it in items if it["family"] == "tiny"]
        for a, t in workloads.WITNESSES:
            self.assertIn((list(a), t), specs)

    def test_pool_not_larger_than_nproc(self):
        env = run.bench_env()
        self.assertLessEqual(int(env["HYPERSLICE_THREADS"]), run.nproc())
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.assertEqual(env[key], "1")


class KnownDefectTest(unittest.TestCase):
    def test_only_baseline_classes_are_known(self):
        self.assertTrue(worker.known_defect("integral:value", "tiny", 3))
        self.assertTrue(worker.known_defect("vertex_sum:err", "deep", 20))
        self.assertTrue(worker.known_defect("halfspace:err", "random", 12))
        self.assertFalse(worker.known_defect("integral:value", "random", 6))
        self.assertFalse(worker.known_defect("vertex_sum:value", "deep", 20))
        self.assertFalse(worker.known_defect("vertex_sum:err", "random", 4))
        self.assertFalse(worker.known_defect("integral:err", "random", 7))
        self.assertFalse(worker.known_defect("mc_section", "random", 5))
        self.assertFalse(worker.known_defect("rigorous", "certify", 22))


class OutputTest(unittest.TestCase):
    def assert_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        for entry in wanted:
            got = result["metrics"][entry["name"]]
            self.assertEqual(got["unit"], entry["unit"])
            self.assertTrue(math.isfinite(got["value"]), entry["name"])

    def test_untraced_tiny_runs(self):
        for wl in workloads.WORKLOADS:
            runs = []
            for seed in (3, 3, 4):
                result, _ = bench("--workload", wl, "--seed", str(seed), "--seconds", "1",
                                  "--items", "11")
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"], wl)
                saved = json.loads((run.OUT_DIR / f"{wl}-seed{seed}.json").read_text())
                self.assertEqual(len(saved["setup_samples_s"]), run.SETUP_SAMPLES + 1)
                runs.append(([r["item"] for r in saved["items"]],
                             result["failed"] / result["attempted"]))
            self.assertEqual(runs[0], runs[1], wl)
            self.assertNotEqual(runs[0][0], runs[2][0], wl)

    def test_traced_run(self):
        result, _ = bench("--workload", "exact", "--seed", "3", "--seconds", "1", "--trace", "1")
        self.assert_metrics(result, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()

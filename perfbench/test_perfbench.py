#!/usr/bin/env python3
"""The benchmark's own tests.

Each workload runs at its tiny size through perfbench/run.py. The tests
check that every metric BENCHMARK.json declares prints with its unit, that
the output checks pass, that quality repeats exactly for one seed, that
spans cover at least 90% of the traced wall time, and that a corrupt
fixture fails the run.

Run from the repository root:  python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
BINARY = os.path.join(ROOT, ".bench_build", "cmake", "kml_perfbench")
WORKLOADS = ("ra_mixgraph", "cache_phases", "fleet_zipf", "kv_durable")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (workload, out.stderr))
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


class Workloads(unittest.TestCase):

    def check_metrics(self, result, declared):
        self.assertEqual(
            sorted((name, m["unit"]) for name, m in result["metrics"].items()),
            sorted((m["name"], m["unit"]) for m in declared))

    def test_end_to_end_metrics_and_repeatable_quality(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                prov, first = run(workload, seed=5, trace=0)
                _, second = run(workload, seed=5, trace=0)
                self.assertEqual(prov["seed"], 5)
                for key in ("source_id", "build_type", "cpu_model", "nproc",
                            "simd"):
                    self.assertIn(key, prov)
                for result in (first, second):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, SPEC["end_to_end"])
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)
                self.assertEqual(first["metrics"]["quality"]["value"],
                                 second["metrics"]["quality"]["value"])

    def test_per_layer_metrics_and_span_coverage(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, seed=7, trace=1)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                residue = result["metrics"]["trace.residue_share"]["value"]
                self.assertLessEqual(residue, 0.10)


class Fixtures(unittest.TestCase):

    def test_corrupt_fixture_fails_the_run(self):
        run("fleet_zipf", seed=1, trace=0)  # builds the binary
        scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            fixtures = os.path.join(scratch, "fixtures")
            shutil.copytree(os.path.join(HERE, "fixtures"), fixtures)
            model = os.path.join(fixtures, "fleet_model.kml")
            with open(model, "r+b") as f:
                f.seek(100)
                byte = f.read(1)
                f.seek(100)
                f.write(bytes([byte[0] ^ 0xFF]))
            out = subprocess.run(
                [BINARY, "--workload", "fleet_zipf", "--seed", "1",
                 "--seconds", "1", "--trace", "0", "--tiny", "--fixtures",
                 fixtures, "--scratch", scratch],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            failed = out.returncode != 0 or not json.loads(
                out.stdout.splitlines()[-1])["correct"]
            self.assertTrue(failed)
            self.assertIn("fleet_model.kml", out.stderr)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

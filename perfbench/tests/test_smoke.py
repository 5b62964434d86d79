#!/usr/bin/env python3
"""Smoke test of the benchmark command on tiny inputs.

    python3 perfbench/tests/test_smoke.py    (from the root of a checkout)

For every workload and both trace modes, perfbench/run.py --smoke must exit
0, print each metric BENCHMARK.json names on a line with its unit, and end
with the result JSON carrying exactly those metrics and units. It must
reject unknown flags, and fail without a result outside a checkout.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class Smoke(unittest.TestCase):
    def check(self, workload, trace, metrics):
        out = run(["--workload", workload, "--seed", "2", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        text = lines[:-1]
        for name, unit in want.items():
            rows = [l.split() for l in text]
            self.assertTrue(
                any(r[:1] == [name] and unit in r for r in rows),
                "no '%s ... %s' line" % (name, unit))
        self.assertTrue(any(l.startswith("error_rate") for l in text))
        self.assertTrue(any(l.startswith("# pinned:") for l in text))
        self.assertTrue(any(l.startswith("# build:") for l in text))

    def test_every_workload_prints_every_metric(self):
        spec = load_spec()
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], 0, spec["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check(w["name"], 1, spec["per_layer"])

    def test_unknown_flags_are_refused(self):
        out = run(["--workload", "summa-2d", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--smok"])
        self.assertNotEqual(out.returncode, 0)
        out = run(["--workload", "summa-2e", "--seed", "1", "--seconds", "1",
                   "--trace", "0"])
        self.assertNotEqual(out.returncode, 0)

    def test_fault_injection_is_refused(self):
        env = dict(os.environ, CAGNET_FAULT="kill:0:any:post:1")
        out = subprocess.run(
            RUN + ["--workload", "halo-local-1d", "--seed", "1", "--seconds",
                   "1", "--trace", "0", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertIn("CAGNET_FAULT", out.stderr)

    def test_fails_without_a_result_outside_a_checkout(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(alone, "perfbench"))
        try:
            out = run(["--workload", "summa-2d", "--seed", "1", "--seconds",
                       "1", "--trace", "0"], cwd=alone)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

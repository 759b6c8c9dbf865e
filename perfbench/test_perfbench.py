#!/usr/bin/env python3
"""The benchmark's own tests: input determinism and the output contract.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that each workload's
generated inputs are a pure function of the seed (the printed query-stream
hash), and that a short run of each workload prints every metric
BENCHMARK.json names, with its unit, and reports its answers correct.
"""

import json
import os
import subprocess
import unittest

import run

WORKLOADS = ["q80-2client", "hot-served"]

# Query-stream hashes for seed 1. A change here means the workload's inputs
# changed, so figures before and after it are not comparable.
GOLDEN_SEED1 = {
    "q80-2client": "1a74411a72329276",
    "hot-served": "ad5f69b3657bf755",
}


def stream_hash(workload, seed):
    out = subprocess.run([run.BINARY, "--workload", workload, "--seed",
                          str(seed), "--hash-only"], check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def run_workload(workload, trace):
    proc = subprocess.run([run.BINARY, "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s --trace %d failed: %s" %
                             (workload, trace, proc.stderr))
    return proc.stdout.strip().splitlines()


class InputDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            self.assertEqual(stream_hash(w, 7), stream_hash(w, 7), w)

    def test_seed_selects_the_stream(self):
        for w in WORKLOADS:
            self.assertNotEqual(stream_hash(w, 1), stream_hash(w, 2), w)

    def test_golden_hashes(self):
        for w in WORKLOADS:
            self.assertEqual(stream_hash(w, 1), GOLDEN_SEED1[w], w)


class OutputContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, workload, trace, section):
        lines = run_workload(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want, workload)
        return lines, result

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            lines, result = self.check(w, 0, "end_to_end")
            for name in ("qps", "p50_ms", "p99_ms", "setup_s"):
                self.assertGreater(result["metrics"][name]["value"], 0, name)
            self.assertTrue(any("query hash" in l for l in lines))

    def test_per_layer_ledger_closes(self):
        for w in WORKLOADS:
            lines, _ = self.check(w, 1, "per_layer")
            self.assertTrue(any("ledger closes" in l for l in lines), w)


if __name__ == "__main__":
    run.build()
    unittest.main()

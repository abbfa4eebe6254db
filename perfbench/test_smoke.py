#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py

For every workload in BENCHMARK.json it runs `perfbench/run.py --tiny`
once untraced and once traced, and checks that the run is correct and
prints every end-to-end (resp. per-layer) metric named in BENCHMARK.json,
with its unit, and that the traced run measured the layers the workload
stresses.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics that must be nonzero in a traced run of each workload:
# one for each layer it stresses (counts, where a tiny run's times could
# round to zero).
STRESSED = {
    "antisat-1cpu": ["core.train_epoch_ms", "gnn.epoch_ms"],
    "sfll-store": ["core.train_epoch_ms", "gnn.epoch_ms", "codec.encoded_bytes",
                   "codec.decoded_bytes", "store.publishes", "store.loads"],
    "daemon-service": ["core.train_epoch_ms", "gnn.epoch_ms", "store.publishes",
                       "daemon.exec_ms", "daemon.status_rtt_ms"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


class Smoke(unittest.TestCase):
    def test_every_metric_appears_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for workload in (w["name"] for w in bench["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, doc = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(doc["correct"])
                    self.assertEqual(doc["failed"], 0)
                    self.assertGreaterEqual(doc["attempted"], 1)
                    for metric in bench[key]:
                        got = doc["metrics"].get(metric["name"])
                        self.assertIsNotNone(got, metric["name"])
                        self.assertEqual(got["unit"], metric["unit"], metric["name"])
                        self.assertIsInstance(got["value"], (int, float), metric["name"])
                    if trace == 0:
                        for name, got in doc["metrics"].items():
                            self.assertNotEqual(got["value"], 0, name)
                    else:
                        for name in ["trace.spans"] + STRESSED[workload]:
                            self.assertGreater(doc["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()

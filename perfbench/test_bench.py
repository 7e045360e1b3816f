"""The benchmark's own tests. From the repo root:

    python3 -m unittest perfbench/test_bench.py

Most cases drive a 4x4 topology so the suite takes under a minute; the
kv-uniform sample-count case runs the default 16x16 scale.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as runner  # noqa: E402

WORKLOADS = ["kv-uniform", "logpi-zipf", "graph-txn"]
SMALL = ["--nodes", "4", "--procs", "4"]
BENCH = json.loads((runner.ROOT / "BENCHMARK.json").read_text())


def drive(workload, seed=1, trace=0, extra=SMALL):
    proc = subprocess.run(
        [str(runner.BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    records = [l for l in lines if l.startswith("# record ")]
    record = json.loads(records[0][len("# record "):]) if records else None
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, record, result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        runner.build()

    def test_same_seed_repeats_every_simulated_figure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc_a, a, res_a = drive(workload, seed=5)
                rc_b, b, res_b = drive(workload, seed=5)
                self.assertEqual((rc_a, rc_b), (0, 0))
                self.assertEqual(a["input_digest"], b["input_digest"])
                self.assertEqual(a["sim"], b["sim"])
                for name, metric in res_a["metrics"].items():
                    if name.startswith("sim_"):
                        self.assertEqual(metric, res_b["metrics"][name], name)

    def test_other_seed_changes_the_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a, _ = drive(workload, seed=1)
                _, b, _ = drive(workload, seed=7)
                self.assertNotEqual(a["input_digest"], b["input_digest"])
                self.assertNotEqual(a["sim"], b["sim"])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, record, result = drive(workload)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertEqual(record["hcl_sim_threads"], "1")
                self.assertEqual(record["mismatches"], [])

    def test_traced_run_reconciles_and_exercises_its_layers(self):
        expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, plain, _ = drive(workload)
                # hclbench itself fails the run when traced simulated
                # figures differ from untraced ones or the handler stage sum
                # misses handler_busy_ns by more than 1%.
                rc, traced, result = drive(workload, trace=1)
                self.assertEqual(rc, 0, traced["mismatches"])
                self.assertTrue(result["correct"])
                self.assertEqual(traced["sim"], plain["sim"])
                m = {n: v["value"] for n, v in result["metrics"].items()}
                self.assertEqual({n: v["unit"] for n, v in result["metrics"].items()},
                                 expected)
                self.assertLessEqual(m["obs.handler_reconcile_pct"], 1.0)
                self.assertEqual(m["rpc.retries"], 0)
                self.assertEqual(m["cache.stale_reads"], 0)
                self.assertGreater(m["rpc.traced_requests"], 0)
                if workload == "kv-uniform":
                    self.assertEqual(m["cache.lookups"], 0)
                    self.assertEqual(m["shm.sends"], 0)
                    self.assertEqual(m["txn.commits"], 0)
                    self.assertEqual(m["rpc.bundles"], 0)
                if workload == "logpi-zipf":
                    self.assertGreater(m["cache.hit_ratio"], 0)
                    self.assertGreater(m["shm.send_share"], 0)
                    self.assertGreater(m["rpc.batch_ops_per_bundle"], 1)
                if workload == "graph-txn":
                    self.assertGreater(m["txn.commits"], 0)
                    self.assertGreater(m["txn.aborts_per_commit"], 0)
                    self.assertEqual(m["cache.lookups"], 0)
                    self.assertEqual(m["shm.sends"], 0)

    def test_oracle_mismatch_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, record, result = drive(workload, extra=[*SMALL, "--perturb-oracle", "1"])
                self.assertEqual(rc, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(record["mismatches"])

    def test_kv_latency_percentiles_rest_on_enough_samples(self):
        rc, record, _ = drive("kv-uniform", extra=[])
        self.assertEqual(rc, 0)
        ranks = record["topology"]["ranks"]
        for op, per_rank in (("get", "reads_per_rank"), ("put", "writes_per_rank")):
            samples = record["sim"][f"sim_{op}_samples"]
            self.assertEqual(samples, ranks * record["config"][per_rank])
            self.assertGreaterEqual(samples, 10000)
            self.assertLessEqual(record["sim"][f"sim_{op}_p50_us"],
                                 record["sim"][f"sim_{op}_p999_us"])

    def test_bad_arguments_exit_nonzero(self):
        rc, _, result = drive("no-such-workload")
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()

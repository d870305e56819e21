#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and runs every workload at the tiny
self-test scale: two runs with one seed must repeat their counts exactly,
every metric BENCHMARK.json names must be printed with its unit, no step may
fail, and the run must refuse a host override or a thread budget larger
than the CPUs it may use.
"""
import json
import os
import subprocess
import unittest

import run

WORKLOADS = ["fig2_imex", "redistribute", "service"]

# Counts that depend only on the inputs, never on timing.
EXACT = {
    "fig2_imex": ["solvers.iterations", "comm.p2p_messages", "comm.p2p_bytes",
                  "comm.collectives", "tpetra.spmv_calls",
                  "precond.amg_apply_calls"],
    "redistribute": ["odin.elements_moved", "comm.coll_messages",
                     "comm.coll_bytes", "comm.bytes_copied",
                     "comm.zero_copy_bytes"],
    "service": ["odin.driver.control_bytes_per_round"],
}


def clean_env():
    env = dict(os.environ)
    for var in ("PYHPC_THREADS", "PYHPC_EXEC_SPACE", "PYHPC_TRACE"):
        env.pop(var, None)
    return env


def bench(workload, trace, seed=7, env=None, cpus=None, cwd=None):
    """Runs the binary at tiny scale; returns (exit code, stdout lines)."""
    args = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    preexec = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    p = subprocess.run(args, capture_output=True, text=True, timeout=180,
                       env=env or clean_env(), preexec_fn=preexec, cwd=cwd)
    return p.returncode, p.stdout.strip().splitlines()


def result(workload, trace, seed=7):
    code, lines = bench(workload, trace, seed)
    assert code == 0, f"{workload} exited {code}"
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_counts_repeat_exactly(self):
        for w in WORKLOADS:
            first, second = result(w, 1), result(w, 1)
            self.assertGreater(first["metrics"][EXACT[w][0]]["value"], 0)
            for name in EXACT[w]:
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name])

    def test_every_named_metric_is_printed_with_its_unit(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                r = result(w, trace)
                named = {m["name"]: m["unit"] for m in self.spec[key]}
                printed = {k: v["unit"] for k, v in r["metrics"].items()}
                with self.subTest(workload=w, trace=trace):
                    self.assertEqual(printed, named)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)

    def test_end_to_end_metrics_are_positive(self):
        for w in WORKLOADS:
            for name, m in result(w, 0)["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_trace_spans_cover_the_steps(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = result(w, 1)["metrics"]
                self.assertGreaterEqual(m["trace.coverage"]["value"], 0.9)
                self.assertGreater(m["trace_overhead"]["value"], 0)

    def test_refuses_host_overrides(self):
        cwd = run.BUILD / "refused"
        cwd.mkdir(exist_ok=True)
        for var in ("PYHPC_THREADS", "PYHPC_EXEC_SPACE", "PYHPC_TRACE"):
            with self.subTest(var=var):
                env = clean_env()
                env[var] = "1"
                code, lines = bench("service", 0, env=env, cwd=cwd)
                self.assertNotEqual(code, 0)
                self.assertEqual(lines, [])
                self.assertEqual(os.listdir(cwd), [])  # no trace left behind

    def test_refuses_more_threads_than_cpus(self):
        code, lines = bench("fig2_imex", 0, cpus={0})
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()

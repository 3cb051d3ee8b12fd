"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They run real passes (about a minute on two cores) and check that tracing
leaves outputs unchanged, that self times add up, that the exact counters
repeat, and that failures are counted rather than dropped.
"""

import contextlib
import io
import json
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(run.EXPECTED) as f:
    EXPECTED = json.load(f)


def one_pass(workload, trace, seed=1, expected=EXPECTED):
    specs = run.pass_specs(workload, random.Random(seed))
    return run.run_pass(workload, specs, trace, seed, expected)


class TracedPasses(unittest.TestCase):

    def test_traced_output_matches_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = one_pass(workload, False)
                traced = one_pass(workload, True)
                self.assertEqual((plain["failed"], traced["failed"]), (0, 0))
                self.assertEqual(plain["digest"], traced["digest"])

    def test_self_times_sum_to_traced_wall(self):
        p = one_pass("sequences", True)
        for t in p["traces"]:
            self.assertEqual(t["missing"], [])
            covered = (sum(g[1] for g in t["groups"].values())
                       + t["root_self_s"] + t["overhead_s"])
            self.assertAlmostEqual(covered, t["root_s"], delta=1e-6)
        m = run.layer_metrics(p)
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        self.assertAlmostEqual(
            layers + m["trace.wrapper_s"] + m["untraced.self_s"], p["wall"],
            delta=1e-6)
        # what no span covers: interpreter start-up, tracer install, exit
        self.assertGreater(m["untraced.self_s"], 0.0)
        self.assertLess(m["untraced.self_s"], 0.25 * p["wall"])

    def test_exact_counters_repeat(self):
        for workload in ("verify-default", "sequences"):
            with self.subTest(workload=workload):
                a = run.layer_metrics(one_pass(workload, True, seed=1))
                b = run.layer_metrics(one_pass(workload, True, seed=2))
                for name in ("polycore.mul.calls",
                             "polycore.mul.coeff_products",
                             "convolution.s_poly.calls"):
                    self.assertGreater(a[name], 0, name)
                    self.assertEqual(a[name], b[name], name)


class Failures(unittest.TestCase):

    def test_corrupted_digest_counts_as_failure(self):
        bad = json.loads(json.dumps(EXPECTED))
        bad["sequences"]["table 3"] = "0" * 64
        summary = run.run("sequences", 1, 0, False, bad, min_passes=1)
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.report(summary)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 3)
        self.assertFalse(result["correct"])

    def test_pass_over_budget_counts_as_failure(self):
        budget = run.PASS_BUDGET_S["verify-default"]
        run.PASS_BUDGET_S["verify-default"] = 0.01
        try:
            p = one_pass("verify-default", False)
        finally:
            run.PASS_BUDGET_S["verify-default"] = budget
        self.assertTrue(p["timed_out"])
        self.assertEqual(p["failed"], p["ops"])


class Declaration(unittest.TestCase):

    def test_benchmark_json_matches_reported_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()

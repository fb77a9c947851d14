#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark: answer checks, count repeatability
and the accounting identities (README.md "Checks").

    python3 perfbench/test_perfbench.py        # ~3 minutes on 4 cores

Runs perfbench/run.py with --seconds 1 (one answer per mode) and checks
its result lines and the per-run reports it leaves in
.bench_build/perfbench/runs/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = os.path.join(ROOT, ".bench_build", "perfbench", "runs")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_cache = {}


def bench(workload, seed, trace, cwd=ROOT):
    """(result line, per-run report) of one run; memoized per argument set."""
    key = (workload, seed, trace)
    if cwd == ROOT and key in _cache:
        return _cache[key]
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError("run.py failed:\n" + r.stderr[-3000:])
    result = json.loads(r.stdout.strip().split("\n")[-1])
    with open(os.path.join(RUNS, "%s-seed%d-trace%d.json"
                           % (workload, seed, trace))) as f:
        report = json.load(f)
    _cache[key] = (result, report)
    return result, report


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def counts(result):
    """The count-type per-layer metrics of a traced result."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


class ResultShape(unittest.TestCase):
    def check(self, result, metrics):
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in metrics})

    def test_untraced_reports_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = bench(w["name"], 2017, 0)
                self.check(result, SPEC["end_to_end"])
                for name, v in values(result).items():
                    self.assertGreater(v, 0.0, name)

    def test_traced_reports_every_per_layer_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = bench(w["name"], 2017, 1)
                self.check(result, SPEC["per_layer"])


class Accounting(unittest.TestCase):
    def test_identities_hold_on_every_traced_answer(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, report = bench(w["name"], 2017, 1)
                traced = [a for a in report["answers"] if a["traced"]]
                self.assertTrue(traced)
                for a in traced:
                    v = a["layers"]
                    self.assertEqual(v["exec.requests"],
                                     v["dse.simulations"]
                                     + v["dse.store_hits"]
                                     + v["dse.cache_hits"])
                    self.assertLessEqual(v["milp.solve_s"] + v["exec.batch_s"],
                                         a["answer_s"])
                    self.assertLessEqual(v["exec.utilization"], 1.0)
                    self.assertLessEqual(v["crowd.utilization"], 1.0)
                shares = values(result)
                self.assertLessEqual(shares["exec.utilization"], 1.0)
                self.assertLessEqual(shares["crowd.utilization"], 1.0)

    def test_traced_counts_equal_untraced_counts(self):
        # Each traced run also checks this answer by answer in-process;
        # here the untraced and traced processes are compared.
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                untraced = bench(w["name"], 2017, 0)[1]["counts"]
                traced = bench(w["name"], 2017, 1)[1]["counts"]
                self.assertEqual(untraced, traced)

    def test_layer_split_matches_the_workload(self):
        cold = values(bench("ladder_cold", 2017, 1)[0])
        warm = values(bench("ladder_warm", 2017, 1)[0])
        crowd = values(bench("crowd_sweep", 2017, 1)[0])
        self.assertGreater(cold["dse.simulations"], 0)
        self.assertEqual(cold["store.evals_appended"], cold["dse.simulations"])
        self.assertEqual(warm["dse.simulations"], 0)
        self.assertEqual(warm["des.events"], 0)
        self.assertEqual(warm["store.records_loaded"],
                         cold["dse.simulations"])
        self.assertEqual(crowd["milp.solves"], 0)
        self.assertEqual(crowd["exec.requests"], 0)
        self.assertGreater(crowd["net.crowd_cross_offered"], 0)


class Answers(unittest.TestCase):
    def test_counts_repeat_exactly_for_one_seed(self):
        first = counts(bench("ladder_cold", 2017, 1)[0])
        _cache.pop(("ladder_cold", 2017, 1))
        again = counts(bench("ladder_cold", 2017, 1)[0])
        self.assertEqual(first, again)
        self.assertEqual(first["des.events"], 279848479)

    def test_held_out_seed_changes_counts_and_still_checks(self):
        seed_2017 = values(bench("ladder_cold", 2017, 1)[0])
        result, _ = bench("ladder_cold", 99, 1)
        self.assertTrue(result["correct"])
        seed_99 = values(result)
        self.assertEqual(seed_2017["pareto.front_size"], 7)
        self.assertEqual(seed_99["pareto.front_size"], 6)
        self.assertNotEqual(seed_2017["des.events"], seed_99["des.events"])

    def test_warm_resume_of_held_out_seed_matches_its_cold_run(self):
        cold = values(bench("ladder_cold", 99, 1)[0])
        result, _ = bench("ladder_warm", 99, 1)
        self.assertTrue(result["correct"])
        warm = values(result)
        self.assertEqual(warm["dse.simulations"], 0)
        self.assertEqual(warm["dse.store_hits"], cold["dse.simulations"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "crowd_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

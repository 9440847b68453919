"""Self-tests of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

They check the dispatcher's coverage, the recorded verdicts, the seeded
order, and that tracing changes no verdict, repeats its counts exactly and
accounts for the traced wall time.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from nerveforge import scenarios  # noqa: E402

# Items per traced self-test run: a prefix of the seeded pass.
TRACE_ITEMS = {"periodic-mix": 12, "finite-mix": 80}


def expected(workload):
    with open(os.path.join(HERE, "expected", f"{workload}.json")) as f:
        return json.load(f)


def traced_report(workload, seed=3):
    return json.loads(run.run_child([
        os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", "--items", str(TRACE_ITEMS[workload])]))


class DispatchCoverage(unittest.TestCase):
    def test_every_kind_style_and_periodic_family_reaches_a_check(self):
        kinds, styles, periodic = set(), set(), set()
        for workload in workloads.WORKLOADS:
            record = expected(workload)
            for item in workloads.catalog(workload):
                verdict = record[workloads.item_key(item)]
                if item["family"] == "unitriangular":
                    self.assertIn("hirsch_rank", verdict)
                    continue
                self.assertTrue(verdict["checks"], item)
                kinds.add(verdict["kind"])
                params = item["params"]
                if "style" in params:
                    styles.add(params["style"])
                if item["family"] == "periodic-boxes":
                    periodic.add(params["family"])
        self.assertEqual(kinds, set(scenarios.KINDS))
        self.assertEqual(styles, set(workloads.ARRANGEMENT_STYLES))
        self.assertEqual(periodic, set(scenarios.PERIODIC_FAMILIES))

    def test_record_matches_catalog(self):
        for workload in workloads.WORKLOADS:
            keys = [workloads.item_key(it) for it in workloads.catalog(workload)]
            self.assertEqual(len(keys), len(set(keys)), workload)
            self.assertEqual(set(keys), set(expected(workload)), workload)


class SeededOrder(unittest.TestCase):
    def test_seed_fixes_the_order_of_the_same_items(self):
        items = workloads.catalog("finite-mix")
        a = workloads.pass_order(items, 5, 0)
        self.assertEqual(a, workloads.pass_order(items, 5, 0))
        self.assertNotEqual(a, workloads.pass_order(items, 6, 0))
        key = workloads.item_key
        self.assertEqual(sorted(map(key, a)), sorted(map(key, items)))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.percentile_with_tail(list(range(100)))[0], 90)
        self.assertEqual(run.percentile_with_tail(list(range(50)))[0], 80)


class Tracing(unittest.TestCase):
    def test_traced_runs_agree_and_account_for_wall_time(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced_report(workload), traced_report(workload)
                self.assertEqual(first["failed"], 0, first["failure_notes"])
                self.assertTrue(first["traced_equals_untraced"])
                counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
                self.assertEqual(
                    counts,
                    {k: v for k, v in second["layers"].items() if not k.endswith("_s")})
                # self times cover the items; the rest is the loop's own cost
                share = first["self_time_sum_s"] / first["traced_wall_s"]
                self.assertGreater(share, 0.95)
                self.assertLessEqual(share, 1.0)


if __name__ == "__main__":
    unittest.main()

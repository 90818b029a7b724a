"""Tests of the benchmark's statistics and output schema.

    python3 perfbench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_never_reported_with_fewer_than_ten_beyond(self):
        for n in range(0, 400):
            samples = [float(i) for i in range(n)]
            for q in (0.5, 0.75, 0.9, 0.95, 0.99):
                v = run.percentile(samples, q)
                if v is None:
                    continue
                beyond = sum(1 for x in samples if x > v)
                self.assertGreaterEqual(beyond, run.MIN_BEYOND, (n, q))

    def test_reported_once_enough_samples(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)

    def test_a_day_of_steps_has_a_median_but_no_p90(self):
        steps = [float(i) for i in range(24)]
        self.assertIsNotNone(run.percentile(steps, 0.5))
        self.assertIsNone(run.percentile(steps, 0.9))
        self.assertEqual(run.tail_percentile(steps), None)

    def test_too_few_steps_is_an_error(self):
        samples = {"wall_s": [1.0], "cpu_s": [1.0], "step_ms": [1.0] * 99,
                   "setup_s": [0.1], "peak_rss_mb": [10.0]}
        with self.assertRaises(ValueError):
            run.end_to_end(samples)


class Schema(unittest.TestCase):
    def samples(self):
        return {"wall_s": [4.0, 4.1, 3.9], "cpu_s": [4.0, 4.2, 4.0],
                "step_ms": [float(i) for i in range(168)], "setup_s": [0.01] * 5,
                "peak_rss_mb": [177.0, 177.1, 177.2]}

    def test_end_to_end_result_round_trips(self):
        result = run.result_line(True, 4, 0, run.end_to_end(self.samples()))
        back = json.loads(json.dumps(result))
        self.assertEqual(back, result)
        run.check_result(back)
        self.assertEqual(set(back["metrics"]), {n for n, *_ in run.END_TO_END})

    def test_per_layer_result_round_trips(self):
        layers = {n: [1.5, u] for n, u, _ in run.PER_LAYER}
        result = run.result_line(True, 5, 0, run.per_layer(layers))
        back = json.loads(json.dumps(result))
        self.assertEqual(back, result)
        self.assertEqual(set(back["metrics"]), {n for n, *_ in run.PER_LAYER})

    def test_unit_mismatch_is_rejected(self):
        layers = {n: [1.5, u] for n, u, _ in run.PER_LAYER}
        layers["storage.serve.ns_per_req"][1] = "us"
        with self.assertRaises(ValueError):
            run.per_layer(layers)

    def test_schema_violations_are_rejected(self):
        good = run.result_line(True, 1, 0, {"x": {"value": 1.0, "unit": "s"}})
        for bad in (
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, failed=1.5),
            dict(good, correct="yes"),
            dict(good, metrics={"x": {"value": float("nan"), "unit": "s"}}),
            dict(good, metrics={"x": {"value": 1.0}}),
        ):
            with self.assertRaises(ValueError):
                run.check_result(bad)

    def test_manifest_matches_committed_benchmark_json(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            self.assertEqual(json.load(f), run.manifest())

    def test_manifest_limits(self):
        m = run.manifest()
        names = [w["name"] for w in m["workloads"]]
        names += [x["name"] for x in m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(len(n) <= 64 for n in names))
        self.assertTrue(all(len(w["why"]) <= 200 for w in m["workloads"]))
        self.assertTrue(all(0 < e["bound"] <= 0.25 for e in m["end_to_end"]))
        setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(e["bound"] for e in m["end_to_end"]))


class Compare(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
        self.assertEqual(run.verdict(base, base, "lower", 0.1), "unchanged")
        self.assertEqual(run.verdict(base, [x * 1.3 for x in base], "lower", 0.1), "worse")
        self.assertEqual(run.verdict(base, [x * 0.8 for x in base], "lower", 0.1), "improved")
        self.assertEqual(run.verdict(base, [x * 0.8 for x in base], "higher", 0.1), "worse")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(run.verdict(noisy, base, "lower", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()

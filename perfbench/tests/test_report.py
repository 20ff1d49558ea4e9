"""Unit tests of perfbench's statistics and report code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import report  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def make_doc(**overrides):
    doc = {
        "workload": "serve", "seed": 1, "attempted": 3, "failed": 0,
        "failures": [],
        "samples": {"setup_s": [0.3, 0.1, 0.2],
                    "latency_s": [float(i) for i in range(1, 101)],
                    "op_s": [2.0, 2.2, 2.1]},
        "values": {"throughput_per_s": 0.5, "acc": 0.8, "peak_rss_mb": 60.25,
                   "cpu_util": 2.0},
        "layers": {}, "spans": [],
    }
    doc.update(overrides)
    return doc


class MedianAndPercentile(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(report.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(report.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(report.median([7.5]), 7.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            report.median([])

    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(report.percentile(values, 0), 10.0)
        self.assertEqual(report.percentile(values, 100), 50.0)
        self.assertEqual(report.percentile(values, 50), 30.0)
        self.assertAlmostEqual(report.percentile(values, 90), 46.0)

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            report.percentile([], 50)
        with self.assertRaises(ValueError):
            report.percentile([1.0], 101)


class TailRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertAlmostEqual(report.samples_beyond(100, 90.0), 10.0)
        self.assertAlmostEqual(report.samples_beyond(1000, 99.0), 10.0)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(report.tail([1.0] * 10000)[0], 99.9)
        self.assertEqual(report.tail([1.0] * 1000)[0], 99.0)
        self.assertEqual(report.tail([1.0] * 999)[0], 95.0)
        self.assertEqual(report.tail([1.0] * 200)[0], 95.0)
        self.assertEqual(report.tail([1.0] * 100)[0], 90.0)
        self.assertEqual(report.tail([1.0] * 99)[0], 75.0)
        self.assertEqual(report.tail([1.0] * 40)[0], 75.0)
        self.assertEqual(report.tail([1.0] * 20)[0], 50.0)

    def test_no_tail_below_twenty_samples(self):
        self.assertIsNone(report.tail([1.0] * 19))
        self.assertIsNone(report.tail([]))

    def test_tail_value(self):
        values = [float(i) for i in range(1, 101)]
        p, v = report.tail(values)
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(v, report.percentile(values, 90.0))

    def test_timing_summary_counts_samples(self):
        s = report.timing_summary([1.0, 2.0, 3.0])
        self.assertEqual(s["n"], 3)
        self.assertEqual(s["median"], 2.0)
        self.assertIsNone(s["tail_p"])
        s = report.timing_summary([float(i) for i in range(40)])
        self.assertEqual((s["n"], s["tail_p"]), (40, 75.0))


class NameValidation(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "compute.spmm_gflops.cpu-arena", "a", "9x",
                     "x" * 64):
            self.assertEqual(report.validate_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".dot", "sp ace", "slash/x", "x" * 65,
                     "unié", None, 3):
            with self.assertRaises(ValueError):
                report.validate_name(name)

    def test_units(self):
        for unit in ("s", "ms", "1/s", "GFLOP/s", "%", "count", "MiB"):
            self.assertEqual(report.validate_unit(unit), unit)
        for unit in ("", "x" * 17, "per sec", None):
            with self.assertRaises(ValueError):
                report.validate_unit(unit)


class OutputSchema(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.spec = json.load(f)

    def test_end_to_end_line(self):
        line = report.result_line(make_doc(), self.spec, trace=False)
        self.assertEqual(sorted(line), sorted(report.RESULT_KEYS))
        self.assertTrue(line["correct"])
        self.assertEqual(line["attempted"], 3)
        names = [m["name"] for m in self.spec["end_to_end"]]
        self.assertEqual(sorted(line["metrics"]), sorted(names))
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.2, "unit": "s"})
        self.assertEqual(line["metrics"]["latency_p50_s"]["value"], 50.5)
        # The line round-trips through JSON unchanged.
        self.assertEqual(json.loads(json.dumps(line)), line)

    def test_failed_check_is_not_correct(self):
        line = report.result_line(make_doc(failed=1), self.spec, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_trace_line_has_every_layer(self):
        layers = {m["name"]: 1.5 for m in self.spec["per_layer"]}
        line = report.result_line(make_doc(layers=layers), self.spec,
                                  trace=True)
        self.assertEqual(len(line["metrics"]), len(self.spec["per_layer"]))

    def test_missing_layer_raises(self):
        with self.assertRaises(KeyError):
            report.result_line(make_doc(layers={}), self.spec, trace=True)

    def test_non_finite_value_raises(self):
        doc = make_doc(values={"throughput_per_s": math.nan, "acc": 0.8,
                               "peak_rss_mb": 1.0})
        with self.assertRaises(ValueError):
            report.result_line(doc, self.spec, trace=False)

    def test_validate_result_rejects_bad_shapes(self):
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"x": {"value": 1.0, "unit": "s"}}}
        report.validate_result(good)
        bad = [
            dict(good, extra=1),
            dict(good, correct=1),
            dict(good, attempted=0),
            dict(good, attempted=1.0),
            dict(good, failed=2),
            dict(good, metrics={}),
            dict(good, metrics={"x": {"value": 1.0}}),
            dict(good, metrics={"x": {"value": True, "unit": "s"}}),
            dict(good, metrics={"bad name": {"value": 1.0, "unit": "s"}}),
        ]
        for result in bad:
            with self.assertRaises(ValueError, msg=result):
                report.validate_result(result)

    def test_spec_names_and_units_are_valid(self):
        seen = set()
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            report.validate_name(m["name"])
            report.validate_unit(m["unit"])
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for w in self.spec["workloads"]:
            report.validate_name(w["name"])
            self.assertIn(w["name"], report.HEADLINES)


class Spans(unittest.TestCase):
    SPANS = [
        [1, 0, "loop", 0.0, 10.0],
        [2, 1, "collect", 0.0, 6.0],
        [3, 1, "train", 6.0, 9.0],
        [4, 3, "kernel", 6.5, 7.5],
        [5, 0, "loop", 10.0, 12.0],
    ]

    def test_self_time_subtracts_direct_children(self):
        table = report.self_times(self.SPANS)
        self.assertEqual(table["loop"], (3.0, 12.0, 2))
        self.assertEqual(table["collect"], (6.0, 6.0, 1))
        self.assertEqual(table["train"], (2.0, 3.0, 1))
        self.assertEqual(table["kernel"], (1.0, 1.0, 1))
        # Self times partition the root spans' wall.
        self.assertAlmostEqual(sum(s for s, _, _ in table.values()), 12.0)

    def test_chrome_trace(self):
        trace = json.loads(report.chrome_trace(self.SPANS))
        events = trace["traceEvents"]
        self.assertEqual(len(events), 5)
        self.assertEqual(events[3]["args"], {"id": 4, "parent": 3})
        self.assertEqual(events[3]["ph"], "X")
        self.assertAlmostEqual(events[3]["ts"], 6.5e6)
        self.assertAlmostEqual(events[3]["dur"], 1.0e6)


if __name__ == "__main__":
    unittest.main()

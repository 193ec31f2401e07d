"""Unit tests for the benchmark's statistics and its metric tables.

    python3 perfbench/test_stats.py
"""

import json
import math
import unittest
from pathlib import Path

import run
import stats


def op(ms, ok=True, kind="fetch"):
    return {"ms": ms, "ok": ok, "kind": kind}


class PercentileTest(unittest.TestCase):
    def test_median_needs_ten_samples_beyond_it(self):
        self.assertIsNone(stats.percentile(list(range(19)), 0.5))
        # 20 samples: nearest rank 10, and ten lie beyond it.
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(stats.percentile(list(range(999)), 0.99))
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.percentile(samples[::-1], 0.9), 90)

    def test_empty_and_degenerate_quantiles(self):
        self.assertIsNone(stats.percentile([], 0.5))
        self.assertIsNone(stats.percentile(list(range(100)), 1.0))
        self.assertIsNone(stats.percentile(list(range(100)), 0.0))

    def test_tail_percentile_picks_highest_reportable(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 1001))),
                         (0.99, 990))
        self.assertEqual(stats.tail_percentile(list(range(1, 101))),
                         (0.9, 90))
        self.assertIsNone(stats.tail_percentile(list(range(50))))


class FailureTest(unittest.TestCase):
    def test_failed_operations_are_latency_misses(self):
        ops = [op(1.0) for _ in range(10)] + [op(1.0, ok=False)
                                              for _ in range(11)]
        samples = stats.latencies(ops)
        self.assertEqual(samples.count(math.inf), 11)
        # Half the fetches failed, so the median misses every limit.
        self.assertEqual(stats.percentile(samples, 0.5), math.inf)

    def test_a_failure_moves_the_tail_not_the_median(self):
        ops = [op(float(i)) for i in range(1, 100)] + [op(5.0, ok=False)]
        samples = stats.latencies(ops)
        self.assertEqual(stats.percentile(samples, 0.5), 50.0)
        self.assertEqual(stats.percentile(samples, 0.9), 90.0)
        self.assertEqual(max(samples), math.inf)

    def test_latencies_filter_by_kind(self):
        ops = [op(1.0), op(2.0, kind="publish"), op(3.0, ok=False)]
        self.assertEqual(stats.latencies(ops), [1.0, math.inf])
        self.assertEqual(stats.latencies(ops, "publish"), [2.0])

    def test_ops_failed_frac(self):
        self.assertEqual(stats.ops_failed_frac([]), 0.0)
        self.assertEqual(stats.ops_failed_frac([op(1.0)] * 4), 0.0)
        ops = [op(1.0), op(1.0, ok=False), op(1.0, kind="publish"),
               op(1.0, ok=False, kind="publish")]
        self.assertEqual(stats.ops_failed_frac(ops), 0.5)


def user(contribution, start, end, granted=0.0):
    return {"contribution": contribution, "bytes_start": start,
            "bytes_end": end, "granted_share": granted}


class ShareTest(unittest.TestCase):
    def test_exact_eq2_delivery_scores_one(self):
        # Ledger 1:2:3:4 and delivery in the same ratio keeps every share
        # equal to its prediction at both ends of the window.
        users = [user(1e9 * j - stats.LEDGER_EPSILON, 0, 1e6 * j)
                 for j in (1, 2, 3, 4)]
        self.assertAlmostEqual(stats.share_ratio_min(users), 1.0, places=9)

    def test_underserved_user_sets_the_minimum(self):
        users = [user(1e12, 0, 100), user(1e12, 0, 300)]
        # Predicted 1/2 each; delivered 1/4 and 3/4.
        self.assertAlmostEqual(stats.share_ratio_min(users), 0.5, places=6)

    def test_nothing_delivered_has_no_ratio(self):
        self.assertIsNone(stats.share_ratio_min([user(1.0, 5, 5)]))

    def test_granted_share_ratio(self):
        users = [user(1e12, 0, 0, granted=0.25), user(3e12, 0, 0, granted=0.75)]
        self.assertAlmostEqual(stats.granted_share_ratio_min(users), 1.0,
                               places=9)
        users[0]["granted_share"] = 0.2
        self.assertAlmostEqual(stats.granted_share_ratio_min(users), 0.8,
                               places=9)
        users[0]["granted_share"] = 0.0
        self.assertIsNone(stats.granted_share_ratio_min(users))


def span(sid, parent, name, start, end, op_id=1):
    return {"id": sid, "parent": parent, "op": op_id, "name": name,
            "start": start, "end": end}


class SpanTest(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertEqual(stats.union_ns([(0, 10), (5, 20), (30, 40)], 0, 35),
                         25)
        self.assertEqual(stats.union_ns([(-5, 5), (50, 60)], 0, 40), 5)
        self.assertEqual(stats.union_ns([], 0, 10), 0)

    def test_self_time_subtracts_parallel_children_once(self):
        spans = [span(1, 0, "op.fetch", 0, 100),
                 span(2, 1, "net.session", 10, 60),
                 span(3, 1, "net.session", 20, 80)]
        table = stats.span_table(spans)
        self.assertAlmostEqual(table["op.fetch"]["self_ms"], 30 / 1e6)
        self.assertEqual(table["net.session"]["count"], 2)

    def test_coverage_counts_stage_spans_of_the_same_operation(self):
        spans = [span(1, 0, "op.fetch", 0, 100),
                 span(2, 1, "disco.resolve", 0, 10),
                 span(3, 1, "net.session", 10, 90),
                 span(4, 0, "op.fetch", 0, 100, op_id=2),
                 span(5, 4, "net.session", 0, 50, op_id=2)]
        self.assertAlmostEqual(stats.span_coverage(spans), (0.9 + 0.5) / 2)
        self.assertIsNone(stats.span_coverage([]))

    def test_median_of_setup_passes(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertIsNone(stats.median([]))


def checked_op(ok=True, checked=True, kind="fetch"):
    return {"kind": kind, "ms": 1.0, "ok": ok, "checked": checked,
            "traced": False, "bytes": 1 << 20 if ok else 0, "k": 8}


def result_doc(ops, trace=False):
    result = {"workload": "small_fetch", "ops": ops, "setup_s": [0.5],
              "window_s": 1.0, "checks": {"verified": 0, "mismatched": 0}}
    if trace:
        result.update(spans=[], spans_dropped=0, cross_check={"ok": True})
    return {"seed": 1, "trace": int(trace), "host": {}, "result": result}


class CorrectnessTest(unittest.TestCase):
    def test_clean_run_has_no_problems(self):
        doc = result_doc([checked_op(), checked_op(ok=False)], trace=True)
        self.assertEqual(run.correctness_problems(doc["result"], True), [])

    def test_mismatch_fails_the_run(self):
        doc = result_doc([checked_op()])
        doc["result"]["checks"]["mismatched"] = 1
        self.assertEqual(len(run.correctness_problems(doc["result"], False)),
                         1)

    def test_unchecked_operation_fails_the_run(self):
        doc = result_doc([checked_op(), checked_op(ok=False, checked=False)])
        self.assertIn("1 operations were never checked",
                      run.correctness_problems(doc["result"], False))

    def test_dropped_span_and_failed_cross_check_fail_traced_runs(self):
        doc = result_doc([checked_op()], trace=True)
        doc["result"]["spans_dropped"] = 3
        doc["result"]["cross_check"]["ok"] = False
        self.assertEqual(len(run.correctness_problems(doc["result"], True)),
                         2)
        # An untraced run has neither spans nor a cross-check.
        self.assertEqual(run.correctness_problems(doc["result"], False), [])


class ReportTest(unittest.TestCase):
    def test_every_report_metric_carries_its_unit(self):
        ops = [checked_op() for _ in range(120)]
        ops += [checked_op(kind="publish") for _ in range(30)]
        for i, o in enumerate(ops):
            o["hops"] = i % 3
        doc = result_doc(ops)
        report = run.workload_report(doc, ops)
        metrics = report["metrics"]
        self.assertEqual(metrics["fetch_ms_p90"], {"value": 1.0, "unit": "ms"})
        self.assertEqual(metrics["ops_failed_frac"]["unit"], "ratio")
        for name, entry in metrics.items():
            self.assertEqual(entry["unit"], run.REPORT[name])

    def test_report_and_result_metrics_do_not_overlap(self):
        self.assertFalse(set(run.REPORT) & set(run.END_TO_END))
        self.assertFalse(set(run.REPORT) & set(run.PER_LAYER))


class MetricTableTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        path = Path(run.ROOT) / "BENCHMARK.json"
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's statistics and span arithmetic.

    python3 -m unittest discover -s perfbench
"""

import statistics
import unittest

import bench_stats as bs


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertAlmostEqual(bs.self_times([span("a", 1.0, 3.5)])[0], 2.5)

    def test_parent_minus_disjoint_children(self):
        spans = [span("p", 0.0, 10.0), span("c1", 1.0, 3.0, 0), span("c2", 5.0, 6.0, 0)]
        self.assertAlmostEqual(bs.self_times(spans)[0], 7.0)

    def test_overlapping_children_count_once(self):
        # Children that ran concurrently cover [1, 6] together, not 3 + 4.
        spans = [span("p", 0.0, 10.0), span("c1", 1.0, 4.0, 0), span("c2", 2.0, 6.0, 0)]
        self.assertAlmostEqual(bs.self_times(spans)[0], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 2.0, 4.0), span("c", 1.0, 3.0, 0)]
        self.assertAlmostEqual(bs.self_times(spans)[0], 1.0)

    def test_only_direct_children_are_subtracted(self):
        spans = [span("p", 0.0, 10.0), span("c", 0.0, 4.0, 0), span("g", 1.0, 2.0, 1)]
        own = bs.self_times(spans)
        self.assertAlmostEqual(own[0], 6.0)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 1.0)

    def test_span_table_sums_by_name(self):
        spans = [span("p", 0.0, 4.0), span("k", 0.0, 1.0, 0), span("k", 2.0, 3.0, 0)]
        table = bs.span_table(spans)
        self.assertEqual(table["k"]["n"], 2)
        self.assertAlmostEqual(table["k"]["self"], 2.0)
        self.assertAlmostEqual(table["p"]["self"], 2.0)
        self.assertAlmostEqual(table["p"]["incl"], 4.0)


class Quantiles(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q = statistics.quantiles(vals, n=4)
        self.assertEqual(bs.median(vals), statistics.median(vals))
        self.assertEqual(bs.quartiles(vals), (q[0], q[2]))
        self.assertAlmostEqual(bs.spread(vals), (q[2] - q[0]) / statistics.median(vals))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(bs.quartiles([3.0]), (3.0, 3.0))
        self.assertEqual(bs.spread([3.0]), 0.0)

    def test_nulls_are_skipped_not_counted_as_zero(self):
        self.assertEqual(bs.median([None, 4.0, 2.0]), 3.0)
        self.assertIsNone(bs.median([None, None]))
        self.assertIsNone(bs.quartiles([]))
        self.assertIsNone(bs.spread([None]))


class TailPercentile(unittest.TestCase):
    def test_no_tail_below_ten_samples_beyond(self):
        self.assertIsNone(bs.tail_percentile([float(i) for i in range(8)]))
        self.assertIsNone(bs.tail_percentile([float(i) for i in range(99)]))

    def test_p90_needs_a_hundred_samples(self):
        vals = [float(i) for i in range(1, 101)]
        self.assertEqual(bs.tail_percentile(vals), (90.0, 90.0))

    def test_highest_qualifying_percentile_wins(self):
        vals = [float(i) for i in range(1, 1001)]
        self.assertEqual(bs.tail_percentile(vals), (99.0, 990.0))
        self.assertEqual(bs.tail_percentile(vals * 10)[0], 99.9)


class NullHandling(unittest.TestCase):
    def test_measured_zero_stays_zero(self):
        self.assertEqual(bs.ratio(0, 5), 0.0)
        self.assertEqual(bs.scaled(0, 1e-9), 0.0)

    def test_missing_inputs_give_null(self):
        self.assertIsNone(bs.ratio(None, 5))
        self.assertIsNone(bs.ratio(5, None))
        self.assertIsNone(bs.ratio(5, 0))
        self.assertIsNone(bs.scaled(None, 2.0))

    def test_absent_span_is_absent_from_the_table(self):
        self.assertNotIn("trace.store.add", bs.span_table([span("p", 0.0, 1.0)]))

    def test_result_line_writes_null_as_zero_only_there(self):
        self.assertEqual(bs.contract_value(None), 0)
        self.assertEqual(bs.contract_value(0.25), 0.25)


class Digest(unittest.TestCase):
    def test_fnv1a64_reference_values(self):
        self.assertEqual(bs.fnv1a64(b""), "cbf29ce484222325")
        self.assertEqual(bs.fnv1a64(b"a"), "af63dc4c8601ec8c")
        self.assertEqual(bs.fnv1a64(b"foobar"), "85944171f73967e8")


if __name__ == "__main__":
    unittest.main()

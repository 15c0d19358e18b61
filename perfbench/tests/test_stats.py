"""Percentile choice: python3 -m unittest discover -s perfbench/tests"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 500), 50)
        self.assertEqual(stats.percentile(values, 900), 90)
        self.assertEqual(stats.percentile(values, 999), 100)
        self.assertEqual(stats.percentile([3.0], 500), 3.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 500), 3)

    def test_tail_keeps_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(100), 900)   # 10 above p90
        self.assertEqual(stats.tail_percentile(99), 750)    # p90 would leave 9
        self.assertEqual(stats.tail_percentile(200), 950)
        self.assertEqual(stats.tail_percentile(1000), 990)
        self.assertEqual(stats.tail_percentile(10000), 999)

    def test_tail_falls_back_to_median(self):
        self.assertEqual(stats.tail_percentile(20), 500)
        self.assertEqual(stats.tail_percentile(5), 500)

    def test_every_choice_has_ten_beyond(self):
        for n in range(20, 3000, 7):
            per_mille = stats.tail_percentile(n)
            self.assertGreaterEqual(n - stats._rank(per_mille, n), stats.MIN_BEYOND)


if __name__ == "__main__":
    unittest.main()

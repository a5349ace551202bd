"""Self-tests of spread.py's arithmetic: quartile spread, worsening against a
bound, and seed lists.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_of_one_to_ten(self):
        # statistics.quantiles' default (exclusive) method: Q1 = 2.75,
        # median = 5.5, Q3 = 8.25.
        self.assertAlmostEqual(spread.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(spread.spread([4.0] * 10), 0.0)
        self.assertEqual(spread.spread([0.0] * 10), 0.0)

    def test_zero_median_with_spread_is_infinite(self):
        self.assertTrue(math.isinf(spread.spread([-1.0, 0.0, 0.0, 0.0, 1.0])))

    def test_single_value(self):
        self.assertEqual(spread.spread([3.0]), 0.0)


class WorseningTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(spread.worsening(100.0, 90.0, "higher"), 0.1)
        self.assertAlmostEqual(spread.worsening(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(spread.worsening(100.0, 110.0, "higher"), -0.1)

    def test_zero_base(self):
        self.assertEqual(spread.worsening(0.0, 0.0, "lower"), 0.0)
        self.assertTrue(math.isinf(spread.worsening(0.0, 1.0, "lower")))


class SeedsTest(unittest.TestCase):
    def test_ranges_and_singles(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])
        self.assertEqual(spread.parse_seeds("5"), [5])


if __name__ == "__main__":
    unittest.main()

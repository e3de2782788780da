#!/usr/bin/env python3
"""Unit tests of perfbench_ab's no-regression verdict.

    python3 tools/test_perfbench_ab.py
"""

import unittest

from perfbench_ab import verdict


class Verdict(unittest.TestCase):
    def test_within_bound(self):
        # A 10% lower median on a tight parent, against a 25% bound.
        parent = [10.0, 10.1, 9.9, 10.0, 10.2]
        change = [9.0, 9.1, 8.9, 9.0, 9.2]
        self.assertEqual(verdict(parent, change, "higher", 0.25),
                         "within bound")

    def test_worse_than_bound(self):
        # A 20% higher median of a lower-is-better metric, bound 15%.
        parent = [100.0, 101.0, 99.0, 100.0]
        change = [120.0, 121.0, 119.0, 120.0]
        self.assertEqual(verdict(parent, change, "lower", 0.15),
                         "worse than bound")

    def test_unresolved(self):
        # The parent's quartiles spread 40% of its median, wider than the
        # bound, and one change run reads worse than a parent run.
        parent = [6.0, 8.0, 10.0, 12.0, 14.0]
        change = [9.0, 10.0, 11.0, 12.0, 13.0]
        self.assertEqual(verdict(parent, change, "higher", 0.25),
                         "unresolved")
        # Unless every change run beats every parent run.
        self.assertEqual(verdict(parent, [15.0, 16.0, 17.0], "higher", 0.25),
                         "within bound")


if __name__ == "__main__":
    unittest.main()

"""
Self-test of the benchmark's output validation: well-formed outputs give
fail_ratio 0, and each kind of corruption raises it above 0.

Run from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest

import validate


def fail_ratio(checked: tuple) -> float:
    attempted, failed, _ = checked
    return failed / attempted


class ReportValidation(unittest.TestCase):
    def setUp(self):
        self.expected = validate.expected_report_cells()
        self.cells = [{"id": i, "kind": k, "n": n, "status": "pass",
                       "witness": None, "millis": 1}
                      for i, k, n in sorted(self.expected)]
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.path = os.path.join(tmp.name, "report.json")

    def check(self, cells, rc=0):
        with open(self.path, "w") as fh:
            json.dump({"version": 1, "checks": cells}, fh)
        return validate.check_report(self.path, rc, self.expected)

    def test_seed_fixture_has_134_cells(self):
        self.assertEqual(len(self.expected), 134)

    def test_clean_report_passes(self):
        self.assertEqual(fail_ratio(self.check(self.cells)), 0)

    def test_corrupted_status(self):
        self.cells[5]["status"] = "fail"
        self.assertGreater(fail_ratio(self.check(self.cells)), 0)

    def test_missing_cell(self):
        self.assertGreater(fail_ratio(self.check(self.cells[1:])), 0)

    def test_duplicated_or_extra_cell(self):
        extra = dict(self.cells[0], n=99)
        self.assertGreater(fail_ratio(self.check(self.cells + [extra])), 0)
        self.assertGreater(
            fail_ratio(self.check(self.cells + [self.cells[0]])), 0)

    def test_nonzero_exit(self):
        self.assertGreater(fail_ratio(self.check(self.cells, rc=1)), 0)

    def test_unreadable_report(self):
        with open(self.path, "w") as fh:
            fh.write("{")
        checked = validate.check_report(self.path, 0, self.expected)
        self.assertEqual(checked[1], checked[0] - 1)


class EnumerationValidation(unittest.TestCase):
    lines = [f"line {i}" for i in range(3072)]

    def test_closed_form_counts(self):
        self.assertEqual(validate.wachs_count("B", 7), 3072)
        self.assertEqual(validate.wachs_count("A", 4), 8)
        self.assertEqual(validate.wachs_count("B", 3), 16)
        self.assertEqual(validate.wachs_count("A", 9), 1920)

    def test_full_enumeration_passes(self):
        out = "\n".join(self.lines) + "\n"
        self.assertEqual(fail_ratio(validate.check_enumeration("B", 7, 0, out)), 0)

    def test_short_enumeration(self):
        out = "\n".join(self.lines[:-1]) + "\n"
        self.assertGreater(
            fail_ratio(validate.check_enumeration("B", 7, 0, out)), 0)

    def test_repeated_line(self):
        out = "\n".join(self.lines[:-1] + self.lines[:1]) + "\n"
        self.assertGreater(
            fail_ratio(validate.check_enumeration("B", 7, 0, out)), 0)


class PassLineValidation(unittest.TestCase):
    def out(self, ns, status="PASS"):
        return "".join(f"graded-A A n={n} {status} [3 ms]\n" for n in ns)

    def test_all_pass(self):
        checked = validate.check_passes("graded-A", "A", [1, 2, 3], 0,
                                        self.out([1, 2, 3]))
        self.assertEqual(fail_ratio(checked), 0)

    def test_failed_line_and_exit(self):
        checked = validate.check_passes("graded-A", "A", [1, 2, 3], 1,
                                        self.out([1, 2, 3], "FAIL"))
        self.assertEqual(checked[:2], (4, 4))

    def test_missing_line(self):
        checked = validate.check_passes("graded-A", "A", [1, 2, 3], 0,
                                        self.out([1, 2]))
        self.assertGreater(fail_ratio(checked), 0)


if __name__ == "__main__":
    unittest.main()

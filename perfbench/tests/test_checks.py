"""Output checks: python3 -m unittest discover -s perfbench/tests"""
import contextlib
import io
import os
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from polytopenums import cli  # noqa: E402


def output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


class CheckOutputTest(unittest.TestCase):
    def test_every_seq_format_passes(self):
        for fmt in ("table", "csv", "json"):
            for family, r, route, interior in (("alpha", None, None, True),
                                               ("lambda", 2, "both", True),
                                               ("gamma", None, "oracle", True),
                                               ("oracle", 1, None, False)):
                op = workloads._seq_op(family, 4, r, 3, 30, route, fmt, interior)
                text = output(op["argv"])
                self.assertIsNone(checks.check_output(op, text), op["argv"])
                self.assertEqual(checks.work_units(op, text), 28)

    def test_bfile_and_wrong_value(self):
        op = workloads._seq_op("beta", 3, None, 1, 12, None, "bfile", False)
        text = output(op["argv"])
        self.assertIsNone(checks.check_output(op, text))
        wrong = text.replace("\n12 1156\n", "\n12 1157\n")
        self.assertIn("oracle", checks.check_output(op, wrong))

    def test_missing_row_is_caught(self):
        op = workloads._seq_op("alpha", 2, None, 1, 10, None, "csv", False)
        text = output(op["argv"])
        self.assertIsNotNone(checks.check_output(op, text.replace("3,6\n", "")))

    def test_decompose_formats_and_recombination(self):
        for fmt in workloads.DECOMPOSE_FORMATS:
            for op in (workloads._decompose_op("lambda", 6, fmt, r=2),
                       workloads._decompose_op("shift", 3, fmt, a=4, b=5)):
                text = output(op["argv"])
                self.assertIsNone(checks.check_output(op, text), op["argv"])
                self.assertGreater(checks.work_units(op, text), 0)
        op = workloads._decompose_op("lambda", 6, "table", r=2)
        self.assertIsNotNone(checks.check_output(op, output(op["argv"]).replace("1, ", "2, ")))

    def test_verify_counts_are_pinned(self):
        good = "".join(f"{line}\n" for line in (
            "identities: 6 identities, 3872 checks, 0 failures",
            "oracle: 5509 checks, 0 failures",
            "decompositions: 6970 checks, 0 failures",
            "verify: PASS"))
        op = {"kind": "verify", "argv": ["verify", "--suite", "all"]}
        self.assertIsNone(checks.check_output(op, good))
        self.assertEqual(checks.work_units(op, good), 3872 + 5509 + 6970)
        self.assertIsNotNone(checks.check_output(op, good.replace("5509", "5508")))

    def test_unparsable_output_counts_no_units(self):
        op = workloads._decompose_op("lambda", 6, "json", r=2)
        self.assertEqual(checks.work_units(op, "not json"), 0)
        self.assertIn("unparsable", checks.check_output(op, "not json"))


if __name__ == "__main__":
    unittest.main()

"""Spans and self time: python3 -m unittest discover -s perfbench/tests"""
import contextlib
import io
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
from polytopenums import cli, oracle, rectified  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        # root 0..100 with children 10..30 and 40..90; 40..90 has child 50..60
        start, end, parent = [0, 10, 40, 50], [100, 30, 90, 60], [-1, 0, 0, 2]
        self.assertEqual(list(tracing.self_times(start, end, parent)), [30, 20, 40, 10])

    def test_overlapping_children_count_once(self):
        start, end, parent = [0, 10, 20], [100, 50, 60], [-1, 0, 0]
        self.assertEqual(tracing.self_times(start, end, parent)[0], 50)

    def test_child_clipped_to_parent(self):
        start, end, parent = [0, 80], [100, 130], [-1, 0]
        self.assertEqual(list(tracing.self_times(start, end, parent)), [80, 50])

    def test_roots_keep_full_duration(self):
        self.assertEqual(list(tracing.self_times([0, 5], [3, 9], [-1, -1])), [3, 4])


def run(argv, main=cli.main):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TracerTest(unittest.TestCase):
    def test_wrap_records_nested_spans(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1, "distinct")
        outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
        self.assertEqual(outer(1), 4)
        self.assertEqual(tracer.names, ["inner", "outer"])
        self.assertEqual(list(tracer.parent), [-1, 0, 0])
        totals = tracer.layer_totals()["layers"]
        self.assertEqual(totals["inner"]["calls"], 2)
        self.assertEqual(totals["inner"]["distinct"], 1)
        self.assertGreaterEqual(totals["outer"]["self_s"], 0)

    def test_span_closes_when_the_call_raises(self):
        tracer = tracing.Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("boom", boom)()
        self.assertGreater(tracer.end[0], 0)
        self.assertEqual(tracer._stack, [-1])

    def test_missing_names_are_reported(self):
        tracer = tracing.Tracer()
        tracer.install([("gone", "polytopenums.cli", "no_such_function", None),
                        ("gone", "polytopenums.cli", "no_such_module.fn", None),
                        ("gone", "polytopenums.no_such_module", "fn", None)])
        tracer.uninstall()
        self.assertEqual(len(tracer.missing), 3)

    def test_install_keeps_outputs_and_recursion_untouched(self):
        argv_list = [["seq", "--family", "lambda", "-d", "4", "-r", "1", "--to", "30",
                      "--route", "both", "--interior"],
                     ["decompose", "--shift", "-d", "3", "-a", "4", "-b", "2"],
                     ["verify", "--suite", "identities"]]
        plain = [run(argv) for argv in argv_list]
        recursion = oracle.polytope_number
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(oracle.polytope_number, recursion)
            self.assertIsNot(cli.oracle, oracle)
            self.assertTrue(hasattr(rectified.shift_decomposition, "__wrapped__"))
            main = tracer.wrap(tracing.ROOT, cli.main)
            traced = [run(argv, main) for argv in argv_list]
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertIs(cli.oracle, oracle)
        self.assertFalse(hasattr(rectified.shift_decomposition, "__wrapped__"))
        self.assertEqual(tracer.missing, [])
        result = tracer.layer_totals(["seq", "decompose", "verify"])
        totals = result["layers"]
        self.assertEqual(set(result["by_group"]), {"seq", "decompose", "verify"})
        self.assertIn("oracle.polytope_number", result["by_group"]["seq"])
        self.assertEqual(totals[tracing.ROOT]["calls"], 3)
        self.assertNotIn("oracle.polytope_number", result["by_group"]["decompose"])
        self.assertGreater(totals["oracle.polytope_number"]["calls"], 0)
        self.assertGreater(totals["rectified.shift_decomposition"]["calls"], 0)
        self.assertGreater(totals["identities.run_suite"]["tally"], 0)

    def test_write_round_trip(self):
        tracer = tracing.Tracer()
        tracer.wrap("f", abs)(-2)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans")
            tracer.write(path)
            with open(path, "rb") as handle:
                header = handle.readline()
                body = handle.read()
        self.assertIn(b'"count": 1', header)
        self.assertEqual(len(body), 2 + 8 + 8 + 8)


if __name__ == "__main__":
    unittest.main()

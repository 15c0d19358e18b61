"""Seeded op generation: python3 -m unittest discover -s perfbench/tests"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import workloads  # noqa: E402


class GenerateTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))

    def test_other_seed_other_ops_same_strata(self):
        for name in ("seq-formula", "seq-oracle", "decompose-large"):
            a, b = workloads.generate(name, 1), workloads.generate(name, 2)
            self.assertNotEqual(a, b)
            self.assertEqual(len(a), len(b))
            key = lambda op: (op["kind"], op.get("family"), op.get("mode"), op.get("format"))
            if name != "seq-oracle":  # seq-oracle may alias a family as "oracle"
                self.assertEqual(sorted(map(key, a), key=str), sorted(map(key, b), key=str))

    def test_verify_all_is_one_fixed_op(self):
        self.assertEqual(workloads.generate("verify-all", 3),
                         [{"kind": "verify", "argv": ["verify", "--suite", "all"]}])

    def test_unknown_workload(self):
        with self.assertRaises(ValueError):
            workloads.generate("nope", 1)

    def test_seq_formula_covers_every_family_and_format(self):
        ops = workloads.generate("seq-formula", 5)
        self.assertEqual({op["family"] for op in ops}, {"alpha", "beta", "gamma", "lambda"})
        self.assertEqual({op["format"] for op in ops}, set(workloads.SEQ_FORMATS))
        self.assertTrue(all(op["route"] == "formula" for op in ops))
        self.assertTrue(any(op["interior"] for op in ops))
        self.assertTrue(all(not op["interior"] or op["family"] in ("alpha", "lambda")
                            for op in ops))
        self.assertTrue(max(op["to"] for op in ops) >= 17000)

    def test_seq_oracle_revisits_stay_shallow(self):
        for seed in range(20):
            filled = {}
            for op in workloads.generate("seq-oracle", seed):
                key = (op["d"], op["r"] if op["r"] is None else min(op["r"], op["d"] - 1 - op["r"]),
                       op["family"] in ("beta",), op["family"] in ("gamma",))
                top = filled.get(key, 0)
                self.assertLessEqual(op["from"] - top, 200 if top else 100)
                self.assertNotEqual(op["route"], "formula")
                filled[key] = max(top, op["to"])

    def test_decompose_large_shares_rows(self):
        ops = workloads.generate("decompose-large", 9)
        lambdas = [op for op in ops if op["mode"] == "lambda"]
        self.assertEqual(len(lambdas), 26)
        self.assertEqual(len({op["d"] for op in lambdas}), 13)
        self.assertTrue(all(0 < op["r"] < op["d"] for op in lambdas))
        self.assertTrue(all(op["a"] >= 1 and op["b"] >= 0
                            for op in ops if op["mode"] == "shift"))


if __name__ == "__main__":
    unittest.main()

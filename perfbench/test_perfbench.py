"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py
    python3 -m unittest discover -s perfbench
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _small(workload, trace=False, corrupt=None):
    return run.run(workload, seed=3, seconds=0.01, trace=trace, small=True, corrupt=corrupt)


class Checks(unittest.TestCase):
    def test_isomorphic_is_the_pairwise_definition(self):
        self.assertTrue(check.isomorphic((22, 41, 35, 37), (18, 48, 29, 42)))
        self.assertFalse(check.isomorphic((22, 41, 35, 37), (18, 48, 42, 29)))
        self.assertFalse(check.isomorphic((1, 1), (1, 2)))

    def test_small_oracles(self):
        self.assertEqual(check.longest_increasing((2, 1, 4, 3, 6, 5)), 3)
        self.assertTrue(check.brute_opsm((1, 2, 3), (5, 2, 1, 4, 3, 6)))
        self.assertFalse(check.brute_opsm((1, 2, 3, 4), (2, 1, 4, 3, 6, 5)))


class EveryWorkload(unittest.TestCase):
    def test_runs_to_the_end_with_every_metric(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            names = {m["name"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = _small(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]), names)
                    for name, metric in result["metrics"].items():
                        if metric["unit"] == "s":
                            self.assertGreater(metric["value"], 0, name)


class CorruptedAnswers(unittest.TestCase):
    """A wrong CLI answer is a failed operation, not a crash or a pass."""

    def test_dropped_position(self):
        def drop_first(query, text):
            return text.split("\n", 1)[1] if query.argv[0] == "match-string" else text

        result = _small("string-dense", corrupt=drop_first)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_flipped_yes(self):
        def flip(query, text):
            return "no\n" if query.argv[0] == "opsm" and text == "yes\n" else text

        for trace in (False, True):
            with self.subTest(trace=trace):
                result = _small("dag", trace, corrupt=flip)
                # the planted opsm query, once per CLI call
                self.assertEqual(result["failed"], 2 if trace else 1)


class CleanCheckout(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = HERE / "_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

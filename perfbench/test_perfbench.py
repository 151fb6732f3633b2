"""Self-test of the benchmark: its checks catch bad outputs, its smoke mode runs.

    python3 perfbench/test_perfbench.py

The package's own test suite does not collect this file; it tests the
benchmark, not the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import diagramsort as ds  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def recursive_sort(word: tuple[int, ...]) -> tuple[int, ...]:
    """The L n R definition: sort(L n R) = sort(L) sort(R) n."""
    if not word:
        return ()
    i = word.index(max(word))
    return recursive_sort(word[:i]) + recursive_sort(word[i + 1 :]) + (word[i],)


class OracleTests(unittest.TestCase):
    def test_bell_numbers(self):
        self.assertEqual([oracles.bell(m) for m in range(8)], [1, 1, 2, 5, 15, 52, 203, 877])

    def test_stack_pass_matches_recursive_definition(self):
        for n in range(7):
            for p in permutations(range(1, n + 1)):
                self.assertEqual(oracles.stack_sort(p), recursive_sort(p))

    def test_census_check_rejects_off_by_one(self):
        good = ds.census_stretch_sortable(3)
        self.assertTrue(oracles.check_census(good, 3))
        for bad in (
            ds.CensusRow(n=3, total=good.total, sortable=good.sortable + 1, elapsed=0.0),
            ds.CensusRow(n=3, total=good.total - 1, sortable=good.sortable, elapsed=0.0),
            None,
        ):
            self.assertFalse(oracles.check_census(bad, 3))

    def test_sort_checks_reject_wrong_images(self):
        word = (2, 3, 1)
        d = ds.embed_permutation(word)
        self.assertTrue(oracles.check_sorted_permutation(ds, word, ds.sort_diagram(d)))
        self.assertFalse(oracles.check_sorted_permutation(ds, word, d))
        source = ds.parse_diagram("{1,2'|2,1'}", 2)
        moved = ds.parse_diagram("{1,2,1',2'}", 2)
        self.assertTrue(oracles.check_sorted_diagram(source, ds.sort_diagram(source)))
        self.assertFalse(oracles.check_sorted_diagram(source, moved))

    def test_stretch_masks_match_stretch_map(self):
        small = ds.parse_diagram("{1,2'|2,1'}", 2)
        parts = [[1, 4], [3]]
        expected = ds.PartitionDiagram(5, oracles.stretch_masks(small.blocks, parts, 5))
        self.assertEqual(ds.stretch_map(parts, 5, small), expected)


class CheckerTests(unittest.TestCase):
    def test_corrupted_census_count_is_a_failure(self):
        """An off-by-one census result counts as failed, and does not stop the run."""
        w = workloads.build(ds, "census", 1, smoke=True)
        checker = run.Checker(w.ops)
        _, _, results = run.run_pass(w.ops, None)
        checker.check(results)
        self.assertEqual((checker.attempted, checker.failed), (3, 0))

        row = results[-1]
        results[-1] = ds.CensusRow(n=row.n, total=row.total, sortable=row.sortable - 1, elapsed=row.elapsed)
        checker.check(results)
        self.assertEqual((checker.attempted, checker.failed), (6, 1))

    def test_raising_operation_is_a_failure(self):
        def boom(call):
            raise ValueError("broken")

        ops = [workloads.Op(kind="boom", run=boom, check=lambda r: True)]
        _, _, results = run.run_pass(ops, None)
        checker = run.Checker(ops)
        checker.check(results)
        self.assertEqual(checker.failed, 1)

    def test_workload_inputs_repeat_for_a_seed(self):
        for name in workloads.BUILDERS:
            a = workloads.build(ds, name, 7, smoke=True)
            b = workloads.build(ds, name, 7, smoke=True)
            self.assertEqual(a.masks, b.masks)


class SmokeTests(unittest.TestCase):
    def run_bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "perfbench/run.py", *args]
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)

    def test_every_workload_reports_every_metric(self):
        for name in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = self.run_bench(HERE.parent, "--workload", name, "--seed", "1", "--seconds", "0.5",
                                          "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
            proc = self.run_bench(Path(tmp), "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

The statistics, pass counting, name grammar and span arithmetic are
checked directly; SmokeTest builds the driver and runs every workload
at minimal length (about a minute; set PERFBENCH_SKIP_SMOKE=1 to skip).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class MedianTailTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_tail_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        p, value, n = benchlib.tail(values)
        self.assertEqual((p, value, n), (90, 90, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_tail_of_a_thousand_is_p99(self):
        p, value, n = benchlib.tail(range(1000))
        self.assertEqual((p, value, n), (99, 989, 1000))

    def test_tail_is_never_below_the_median(self):
        self.assertIsNone(benchlib.tail([]))
        self.assertIsNone(benchlib.tail(range(10)))
        # Nineteen samples: p47 would be the highest with ten beyond it.
        self.assertIsNone(benchlib.tail(range(19)))
        # Twenty: the median is the tail, with exactly ten beyond it.
        self.assertEqual(benchlib.tail(range(20)), (50, 9, 20))

    def test_tail_order_independent(self):
        self.assertEqual(benchlib.tail([5, 1, 4, 2, 3] * 5),
                         benchlib.tail(sorted([5, 1, 4, 2, 3] * 5)))



def rchar():
    """Bytes this process has read so far (/proc/self/io), as the
    driver reads them for itself and for the daemon."""
    with open("/proc/self/io") as io:
        for line in io:
            key, _, value = line.partition(":")
            if key == "rchar":
                return int(value)
    raise AssertionError("no rchar in /proc/self/io")


class PassCountTest(unittest.TestCase):
    def test_trace_passes(self):
        self.assertEqual(benchlib.trace_passes(640, 320), 2.0)
        with self.assertRaises(ValueError):
            benchlib.trace_passes(1, 0)

    def test_two_reads_count_two_passes(self):
        size = 4 << 20
        with tempfile.NamedTemporaryFile() as f:
            f.write(os.urandom(size))
            f.flush()
            before = rchar()
            for _ in range(2):
                with open(f.name, "rb") as again:
                    while again.read(1 << 20):
                        pass
            passes = benchlib.trace_passes(rchar() - before, size)
        # Reading /proc/self/io itself adds a few hundred bytes.
        self.assertGreaterEqual(passes, 2.0)
        self.assertLess(passes, 2.01)


class NameGrammarTest(unittest.TestCase):
    def test_every_metric_name_is_valid_and_unique(self):
        names = [n for n, _ in benchlib.END_TO_END + benchlib.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, benchlib.NAME_RE)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")

    def test_grammar_rejects(self):
        for bad in ["", "a b", "x/y", "_lead", "a" * 65, "p50%"]:
            self.assertIsNone(benchlib.NAME_RE.match(bad), bad)

    def test_benchmark_json_matches(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         benchlib.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         benchlib.PER_LAYER)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_and_clipped_children(self):
        spans = [
            ["root", 0, -1, 0.0, 10.0],
            ["child", 0, 0, 1.0, 3.0],
            ["child", 0, 0, 2.0, 5.0],    # overlaps the first child
            ["child", 0, 0, 8.0, 12.0],   # runs past its parent
            ["grandchild", 0, 1, 1.5, 2.5],
        ]
        out = benchlib.self_times(spans)
        # Children cover [1, 5] and [8, 10] of the root: 6 of 10 s.
        self.assertEqual(out["root"], (1, 10.0, 4.0))
        count, total, self_s = out["child"]
        self.assertEqual((count, total), (3, 9.0))
        self.assertAlmostEqual(self_s, 8.0)
        self.assertEqual(out["grandchild"], (1, 1.0, 1.0))

    def test_leaf_self_time_is_its_duration(self):
        out = benchlib.self_times([["a", 1, -1, 2.0, 2.5]])
        self.assertEqual(out["a"], (1, 0.5, 0.5))


class TraceOverheadTest(unittest.TestCase):
    def test_ratio_of_medians(self):
        traced = [110.0, 990.0, 105.0]
        untraced = [100.0, 102.0, 98.0, 500.0]
        self.assertAlmostEqual(
            benchlib.trace_overhead_pct(traced, untraced), 900 / 101)

    def test_an_empty_half_reads_zero(self):
        self.assertEqual(benchlib.trace_overhead_pct([1.0], []), 0.0)
        self.assertEqual(benchlib.trace_overhead_pct(None, [1.0]), 0.0)


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE"), "smoke skipped")
class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=1200)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        lines = [l for l in done.stdout.splitlines()
                 if l.startswith("smoke ")]
        self.assertEqual(len(lines), 6, done.stdout)
        self.assertTrue(all(l.endswith(" ok") for l in lines), lines)


if __name__ == "__main__":
    unittest.main()

"""Self-tests for scripts/bench_compare.py (stdlib only):

    python3 scripts/test_bench_compare.py
"""
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare as B  # noqa: E402


def iteration(name, real_time, unit="ns"):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": real_time, "cpu_time": real_time, "time_unit": unit}


def aggregate(name, kind, real_time, unit="ns"):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": kind,
            "real_time": real_time, "cpu_time": real_time, "time_unit": unit}


def capture(name, times, cv=None, unit="ns"):
    """Rows of one benchmark repeated len(times) times, with the library's
    median and (when given) cv aggregates."""
    rows = [iteration(name, t, unit) for t in times]
    ordered = sorted(times)
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else (ordered[mid - 1] + ordered[mid]) / 2)
    rows.append(aggregate(name, "median", median, unit))
    if cv is not None:
        rows.append(aggregate(name, "cv", cv))
    return rows


class Files(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, rows):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"context": {}, "benchmarks": rows}, f)
        return path

    def run_main(self, *paths):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = B.main(["bench_compare.py", *paths])
        return code, out.getvalue(), err.getvalue()


class LoadRows(Files):
    def test_reads_recorded_median_and_cv(self):
        path = self.write("a.json", capture("BM_A", [10, 30, 20], cv=0.05))
        self.assertEqual(B.load_rows(path), {"BM_A": (20.0, 0.05)})

    def test_converts_time_units_to_ns(self):
        path = self.write("a.json", capture("BM_A", [1.5, 2.5], cv=0.1,
                                            unit="ms"))
        median, _ = B.load_rows(path)["BM_A"]
        self.assertAlmostEqual(median, 2.0e6)

    def test_refuses_single_repetition(self):
        path = self.write("a.json", [iteration("BM_A", 10)])
        with self.assertRaises(B.InputError) as ctx:
            B.load_rows(path)
        self.assertIn("--benchmark_repetitions", str(ctx.exception))

    def test_refuses_capture_without_cv_row(self):
        path = self.write("a.json", capture("BM_A", [9, 10, 11]))
        with self.assertRaises(B.InputError):
            B.load_rows(path)

    def test_refuses_non_benchmark_json(self):
        path = os.path.join(self.dir.name, "x.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("[1, 2]")
        with self.assertRaises(B.InputError):
            B.load_rows(path)


class Compare(unittest.TestCase):
    def test_flags_only_changes_beyond_combined_cv(self):
        base = {"BM_Fast": (100.0, 0.02), "BM_Slow": (100.0, 0.02),
                "BM_Noise": (100.0, 0.05)}
        new = {"BM_Fast": (80.0, 0.03), "BM_Slow": (110.0, 0.03),
               "BM_Noise": (108.0, 0.04)}
        got = {r["name"]: r for r in B.compare(base, new)}
        self.assertEqual(got["BM_Fast"]["verdict"], "faster")
        self.assertAlmostEqual(got["BM_Fast"]["change"], -0.2)
        self.assertAlmostEqual(got["BM_Fast"]["noise"], 0.05)
        self.assertEqual(got["BM_Slow"]["verdict"], "slower")
        # 8 % change inside 5 % + 4 % of recorded noise.
        self.assertEqual(got["BM_Noise"]["verdict"], "~")

    def test_change_equal_to_noise_is_not_flagged(self):
        got = B.compare({"BM_A": (100.0, 0.25)}, {"BM_A": (150.0, 0.25)})
        self.assertEqual(got[0]["verdict"], "~")

    def test_rows_in_one_file_only(self):
        got = B.compare({"BM_Old": (1.0, 0.0), "BM_Both": (1.0, 0.0)},
                        {"BM_Both": (1.0, 0.0), "BM_New": (1.0, 0.0)})
        self.assertEqual([(r["name"], r["verdict"]) for r in got],
                         [("BM_Old", "only in base"), ("BM_Both", "~"),
                          ("BM_New", "only in new")])


class Main(Files):
    def test_prints_one_line_per_row(self):
        base = self.write("base.json",
                          capture("BM_A", [100, 101, 99], cv=0.01) +
                          capture("BM_B", [100, 100, 100], cv=0.0))
        new = self.write("new.json",
                         capture("BM_A", [80, 81, 79], cv=0.01) +
                         capture("BM_B", [100, 100, 100], cv=0.0))
        code, out, _ = self.run_main(base, new)
        self.assertEqual(code, 0)
        lines = out.splitlines()
        self.assertEqual(len(lines), 3)
        self.assertIn("-20.0%", lines[1])
        self.assertTrue(lines[1].endswith("faster"))
        self.assertTrue(lines[2].endswith("~"))

    def test_usage_and_bad_input_exit_2(self):
        code, _, err = self.run_main("only-one.json")
        self.assertEqual(code, 2)
        self.assertIn("usage", err)
        code, _, err = self.run_main(
            os.path.join(self.dir.name, "missing.json"),
            os.path.join(self.dir.name, "missing.json"))
        self.assertEqual(code, 2)
        self.assertIn("bench_compare:", err)


if __name__ == "__main__":
    unittest.main()

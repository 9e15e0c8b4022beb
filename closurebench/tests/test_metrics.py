"""Tests of the closure-engineer benchmark.

    python3 -m unittest discover -s closurebench/tests -v

The statistics tests are instant. The run tests build the benchmark and
run every workload briefly (a few minutes on four cores); set
CLOSUREBENCH_SKIP_RUNS=1 to skip them.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(metrics.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(metrics.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(metrics.percentile(list(range(11)), 90), 9.0)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)

    def test_tail_has_ten_samples_beyond_it(self):
        cases = {19: None, 20: 50.0, 99: 50.0, 100: 90.0, 999: 90.0,
                 1000: 99.0, 9999: 99.0, 10000: 99.9, 50000: 99.9}
        for n, want in cases.items():
            tail = metrics.tail_percentile([float(i) for i in range(n)])
            if want is None:
                self.assertIsNone(tail, n)
                continue
            p, value = tail
            self.assertEqual(p, want, n)
            self.assertGreaterEqual(sum(1 for i in range(n) if i > value), 10)
            self.assertAlmostEqual(value, metrics.percentile(range(n), p))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        values = [float(v) for v in range(1, 11)]
        # statistics.quantiles(n=4) puts the quartiles at 2.75 and 8.25.
        self.assertAlmostEqual(metrics.quartile_spread(values),
                               (8.25 - 2.75) / 5.5)
        shuffled = [9.0, 1.0, 4.0, 10.0, 3.0, 7.0, 2.0, 8.0, 6.0, 5.0]
        self.assertAlmostEqual(metrics.quartile_spread(shuffled),
                               metrics.quartile_spread(values))
        q = statistics.quantiles([3.0, 3.1, 2.9, 3.05], n=4)
        self.assertAlmostEqual(metrics.quartile_spread([3.0, 3.1, 2.9, 3.05]),
                               (q[2] - q[0]) / statistics.median(
                                   [3.0, 3.1, 2.9, 3.05]))
        self.assertEqual(metrics.quartile_spread([5.0] * 10), 0.0)


class EndToEndTest(unittest.TestCase):
    def test_ops_per_s_counts_only_the_timed_operations(self):
        raw = {"samples": {"op_ms": [10.0, 20.0, 30.0], "setup_s": [1.0]},
               "values": {"ops_completed": 3, "op_time_s": 0.06,
                          "peak_rss_mb": 5.0}}
        m = metrics.end_to_end(raw)
        self.assertAlmostEqual(m["ops_per_s"], 50.0)
        self.assertEqual(m["op_ms_p50"], 20.0)
        self.assertEqual(m["aux_ms_p50"], 0.0)


class HostSpeedTest(unittest.TestCase):
    def test_times_scale_and_rates_divide(self):
        ref = metrics.CALIB_REF_MS
        raw = {"samples": {"op_ms": [10.0, 20.0, 30.0], "aux_ms": [4.0],
                           "setup_s": [1.0],
                           "calib_ms": [ref * 2, ref * 2, ref * 9]},
               "values": {"ops_completed": 3, "op_time_s": 0.06,
                          "peak_rss_mb": 5.0}}
        scale = metrics.host_scale(raw)
        self.assertAlmostEqual(scale, 0.5)  # median pass twice the reference
        m = metrics.end_to_end(raw, scale)
        self.assertAlmostEqual(m["op_ms_p50"], 10.0)
        self.assertAlmostEqual(m["aux_ms_p50"], 2.0)
        self.assertAlmostEqual(m["setup_s"], 0.5)
        self.assertAlmostEqual(m["ops_per_s"], 100.0)
        self.assertEqual(m["peak_rss_mb"], 5.0)
        self.assertEqual(metrics.end_to_end_raw(raw)["op_ms_p50"], 20.0)

    def test_uncalibrated_run_is_unscaled(self):
        self.assertEqual(metrics.host_scale({"samples": {}}), 1.0)

    def test_per_layer_scales_times_only(self):
        out = metrics.at_reference_speed(
            {"a": 2.0, "b": 3.0, "c": 4.0, "d": 5.0},
            {"a": "ms", "b": "us", "c": "count", "d": "ratio"}, 0.5)
        self.assertEqual(out, {"a": 1.0, "b": 1.5, "c": 4.0, "d": 5.0})


class LibraryCacheTest(unittest.TestCase):
    def test_cache_is_keyed_on_characterization_sources(self):
        key = run.char_source_key()
        self.assertEqual(key, run.char_source_key())
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            stale = out / "libcache" / "0123456789abcdef"
            stale.mkdir(parents=True)
            (stale / "primed").touch()
            (out / "libcache" / "primed").touch()  # unkeyed layout
            cache = run.library_cache(out)
            self.assertEqual(cache, out / "libcache" / key)
            self.assertEqual(list((out / "libcache").iterdir()), [cache])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        ev = lambda name, ts, dur, tid=1: {  # noqa: E731
            "name": name, "cat": "bench", "ph": "X", "ts": ts, "dur": dur,
            "tid": tid}
        events = [
            ev("bench.first_wns_100k", 0, 10000),
            ev("sta.graph", 0, 2000),
            ev("interconnect.extract", 2000, 3000),
            ev("sta.run", 5000, 4000),
            ev("sta.sweep", 12000, 1000),
            ev("serve.rtt.slack", 0, 500, tid=2),
            {"name": "propagate", "cat": "sta", "ph": "X", "ts": 5000,
             "dur": 3000, "tid": 1},
        ]
        self_ms = metrics.Spans(events).self_times()
        self.assertAlmostEqual(self_ms["bench"], 1.0)
        self.assertAlmostEqual(self_ms["sta"], 7.0)
        self.assertAlmostEqual(self_ms["interconnect"], 3.0)
        self.assertAlmostEqual(self_ms["serve"], 0.5)
        self.assertEqual(self_ms["opt"], 0.0)


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_metric_definitions(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(bench["command"], ["python3", "closurebench/run.py"])
        self.assertEqual(bench["paths"], ["closurebench"])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["cold_ladder", "eco_stream", "mcmm_corners",
                          "serve_mix"])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]], metrics.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            metrics.PER_LAYER)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


def run_bench(workload, seed, trace, seconds=1):
    """Run run.py; returns (exit code, stdout lines, result object)."""
    r = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=1200)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines, json.loads(lines[-1])


def digest_of(lines):
    return [l for l in lines if l.startswith("input digest")][0]


@unittest.skipIf(os.environ.get("CLOSUREBENCH_SKIP_RUNS"),
                 "CLOSUREBENCH_SKIP_RUNS set")
class RunTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_and_is_seeded(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for w in [w["name"] for w in bench["workloads"]]:
            with self.subTest(workload=w):
                code, lines, plain = run_bench(w, 1, 0)
                self.assertEqual(code, 0)
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertGreaterEqual(plain["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in plain["metrics"].items()}, e2e)
                for k, v in plain["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

                code, traced_lines, traced = run_bench(w, 1, 1)
                self.assertEqual(code, 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in traced["metrics"].items()},
                    layer)
                _, again_lines, again = run_bench(w, 1, 1)
                for k in metrics.SEED_DETERMINED[w]:
                    self.assertEqual(traced["metrics"][k]["value"],
                                     again["metrics"][k]["value"], k)
                self.assertEqual(digest_of(traced_lines),
                                 digest_of(again_lines))

                _, other_lines, _ = run_bench(w, 2, 0)
                self.assertNotEqual(digest_of(lines), digest_of(other_lines))


if __name__ == "__main__":
    unittest.main()

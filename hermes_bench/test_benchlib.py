"""Tests of hermes-bench's arithmetic, and a smoke run of all workloads.

    python3 -m unittest discover -s hermes_bench -p 'test_*.py'

The smoke test builds the benchmark and runs every workload for about a
second on small inputs (about a minute in all, with the first build).
"""

import json
import os
import subprocess
import sys
import unittest

import benchlib
import run

HERE = os.path.dirname(os.path.abspath(__file__))


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40]
        self.assertEqual(benchlib.percentile(xs, 0), 10)
        self.assertEqual(benchlib.percentile(xs, 100), 40)
        self.assertAlmostEqual(benchlib.percentile(xs, 50), 25)
        self.assertAlmostEqual(benchlib.percentile(xs, 99), 39.7)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)
        self.assertEqual(benchlib.median([5, 1, 4, 2]), 3)

    def test_single_value_and_bad_input(self):
        self.assertEqual(benchlib.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1], 101)


class FailedFrac(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(benchlib.failed_frac(200, 0), 0.0)
        self.assertEqual(benchlib.failed_frac(200, 3), 0.015)
        self.assertEqual(benchlib.failed_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            benchlib.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            benchlib.failed_frac(5, 6)
        with self.assertRaises(ValueError):
            benchlib.failed_frac(5, -1)

    def test_serve_outcomes_count_each_failure_once(self):
        ms = 1_000_000
        records = [
            (1 * ms, 1 * ms + 1000, 1 * ms + 3000, 1 * ms + 30_000, 1),  # ok
            (2 * ms, 2 * ms + 500, 2 * ms + 2500, 2 * ms + 60_000, 1),   # ok
            (3 * ms, 3 * ms, 3 * ms + 2000, 0, 0),           # never ended
            (4 * ms, 4 * ms, 4 * ms + 2000, 4 * ms + 25_000, 2),  # ran twice
            (5 * ms, 5 * ms, 5 * ms + 2000, 5 * ms + 3 * 10**9, 1),  # late
            (6 * ms, 0, 0, 0, 0),                            # not submitted
        ]
        soj, lag, attempted, failed = benchlib.serve_outcomes(
            records, deadline_ns=2 * 10**9)
        self.assertEqual(attempted, 5)
        self.assertEqual(failed, 3)
        self.assertEqual(soj[:2], [30.0, 60.0])
        self.assertEqual(soj[2:], [benchlib.FAILED_SOJOURN_US] * 3)
        self.assertEqual(lag, [1.0, 0.5, 0.0, 0.0, 0.0])


class SteadySojourns(unittest.TestCase):
    """Windows are 1 ms of due time here; a generator stall is over
    100 us."""

    @staticmethod
    def request(due_us, lag_us=1, call_us=2, sojourn_us=30):
        due = due_us * 1000
        submit = due + lag_us * 1000
        return (due, submit, submit + call_us * 1000,
                due + sojourn_us * 1000, 1)

    def steady(self, records):
        return benchlib.steady_sojourns(records, deadline_ns=2 * 10**9,
                                        window_ns=10**6, stall_ns=100_000)

    def test_pools_every_request_when_the_generator_kept_up(self):
        r = self.request
        records = [r(0), r(400), r(1200, sojourn_us=900), r(2100)]
        soj, dropped = self.steady(records)
        self.assertEqual(soj, [30.0, 30.0, 900.0, 30.0])
        self.assertEqual(dropped, 0.0)

    def test_drops_the_windows_a_stall_outside_submit_spans(self):
        r = self.request
        records = [r(0), r(500),
                   # Ready at 1.6 ms, submitted at 2.3 ms: windows 1, 2.
                   r(1600, lag_us=700, sojourn_us=800),
                   r(2400, sojourn_us=50), r(3200, sojourn_us=40)]
        soj, dropped = self.steady(records)
        self.assertEqual(soj, [30.0, 30.0, 40.0])
        self.assertEqual(dropped, 0.5)

    def test_keeps_a_delay_inside_submit(self):
        r = self.request
        # The first submit call takes 800 us: the second request is late
        # because of the runtime, not of the host, and stays in.
        records = [r(0, call_us=800), r(300, lag_us=502, sojourn_us=600)]
        soj, dropped = self.steady(records)
        self.assertEqual(soj, [30.0, 600.0])
        self.assertEqual(dropped, 0.0)

    def test_drops_the_windows_a_steal_interval_overlaps(self):
        r = self.request
        records = [r(0), r(1100, sojourn_us=900), r(2100, sojourn_us=700),
                   r(3100, sojourn_us=40)]
        samples = [(-500_000, 7), (500_000, 7), (1_200_000, 8),
                   (2_050_000, 10), (2_900_000, 10)]
        stolen = benchlib.steal_intervals(samples)
        self.assertEqual(stolen, [(500_000, 1_200_000),
                                  (1_200_000, 2_050_000)])
        soj, dropped = benchlib.steady_sojourns(
            records, deadline_ns=2 * 10**9, window_ns=10**6,
            stall_ns=100_000, stolen=stolen)
        # Windows 0, 1 and 2 overlap a rise; only window 3 is kept.
        self.assertEqual(soj, [40.0])
        self.assertEqual(dropped, 0.75)

    def test_steal_frac_is_the_share_of_cpu_time(self):
        # 50 ticks of 100/s over 2 s on 4 CPUs: 0.5 s of 8 CPU-seconds.
        samples = [(0, 1000), (10**9, 1020), (2 * 10**9, 1050)]
        self.assertAlmostEqual(benchlib.steal_frac(samples, 100, 4), 0.0625)
        self.assertEqual(benchlib.steal_frac(samples[:1], 100, 4), 0.0)

    def test_keeps_everything_when_every_window_stalled(self):
        r = self.request
        records = [r(0, lag_us=300, sojourn_us=400),
                   r(1500, lag_us=300, sojourn_us=500)]
        soj, dropped = self.steady(records)
        self.assertEqual(soj, [400.0, 500.0])
        self.assertEqual(dropped, 1.0)
        with self.assertRaises(ValueError):
            self.steady([(0, 0, 0, 0, 0)])


class Aggregation(unittest.TestCase):
    def test_sum_counters_is_keywise(self):
        total = benchlib.sum_counters([{"ops": 3, "parks": 1},
                                       {"ops": 2, "steals": 4}])
        self.assertEqual(total, {"ops": 5, "parks": 1, "steals": 4})

    def test_ratio_of_a_zero_base_is_zero(self):
        self.assertEqual(benchlib.ratio(5, 0), 0.0)
        self.assertEqual(benchlib.ratio(6, 4), 1.5)

    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(benchlib.covered((0, 100), []), 0)
        self.assertEqual(benchlib.covered((0, 100), [(10, 20), (15, 30)]), 20)
        self.assertEqual(benchlib.covered((0, 100), [(-5, 10), (90, 120)]), 20)
        self.assertEqual(benchlib.covered((0, 100), [(200, 300)]), 0)

    @staticmethod
    def span(name, parent, op, start, end):
        return {"name": name, "parent": parent, "op": op,
                "start": start, "end": end}

    def test_self_time_subtracts_children_of_the_same_operation(self):
        s = self.span
        spans = [
            s("runtime.run", "-", 1, 0, 10_000),
            s("workloads.sort", "runtime.run", 1, 1_000, 9_000),
            s("runtime.run", "-", 1, 20_000, 25_000),
            s("workloads.hull", "runtime.run", 1, 20_500, 24_000),
            # Same name in another operation: not a child of op 1's runs.
            s("workloads.sort", "runtime.run", 2, 2_000, 3_000),
        ]
        self_us = benchlib.self_times_us(spans)
        self.assertAlmostEqual(self_us["runtime"], (2_000 + 1_500) / 1e3)
        self.assertAlmostEqual(self_us["workloads"], (8_000 + 3_500 + 1_000) / 1e3)
        self.assertEqual(sorted(benchlib.run_return_us(spans)), [1.0, 1.0])

    def test_durations_scale(self):
        spans = [self.span("submit.call", "-", 1, 100, 2_100)]
        self.assertEqual(benchlib.durations(spans, "submit.call", 1.0), [2000])
        self.assertEqual(benchlib.med_or_zero([]), 0.0)


class Smoke(unittest.TestCase):
    def run_all(self, trace):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        results = [json.loads(line) for line in r.stdout.splitlines()
                   if line.startswith("{")]
        self.assertEqual(len(results), len(run.WORKLOADS), r.stderr[-2000:])
        healthy = all(res["correct"] and res["failed"] == 0
                      for res in results)
        # 1 means an operation failed (the known TaskGroup completion
        # race can crash a smoke operation) or an output check did.
        self.assertEqual(r.returncode, 0 if healthy else 1, r.stderr[-2000:])
        return dict(zip(run.WORKLOADS, results))

    def check(self, results, units):
        for name, res in results.items():
            with self.subTest(workload=name):
                self.assertEqual(sorted(res),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertLessEqual(res["failed"], res["attempted"])
                # A wrong output is wrong whatever else failed.
                self.assertTrue(res["correct"] or res["failed"] > 0)
                # Most operations must finish, and then be measured.
                self.assertLess(res["failed"], res["attempted"] / 2)
                self.assertEqual(sorted(res["metrics"]), sorted(units))
                for k, v in res["metrics"].items():
                    self.assertEqual(v["unit"], units[k], k)

    def test_every_workload_reports_every_end_to_end_metric(self):
        results = self.run_all(0)
        self.check(results, run.E2E_UNITS)
        for name, res in results.items():
            for k in ("setup_s", "makespan_s", "energy_j", "sojourn_p50_us",
                      "sojourn_p99_us", "energy_per_req_mj", "peak_rss_mb"):
                self.assertGreater(res["metrics"][k]["value"], 0, (name, k))

    def test_every_workload_reports_every_per_layer_metric(self):
        results = self.run_all(1)
        self.check(results, run.LAYER_UNITS)
        tempo = ["tempo.workload_ups", "tempo.workload_downs",
                 "tempo.steal_downs", "tempo.relay_ups", "tempo.out_of_work",
                 "dvfs.transitions"]
        # The tempo layer is bypassed with tempo off, and used with it on.
        for name in ("fib", "serve"):
            for k in tempo:
                self.assertEqual(results[name]["metrics"][k]["value"], 0,
                                 (name, k))
        for name in ("fib-hermes", "fanout-hermes"):
            self.assertGreater(
                results[name]["metrics"]["dvfs.transitions"]["value"], 0,
                name)
        self.assertGreater(
            results["serve"]["metrics"]["runtime.parks_per_req"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

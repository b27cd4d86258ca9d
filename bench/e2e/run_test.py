#!/usr/bin/env python3
"""Unit tests of the benchmark runner's statistics (bench/e2e/run.py).

  python3 bench/e2e/run_test.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def open_samples(rows):
    """beas_bench's open-loop arrays from (due, ready, sent, first, done) rows."""
    keys = ("open_due_us", "open_ready_us", "open_sent_us", "open_first_us", "open_done_us")
    return {k: [r[i] for r in rows] for i, k in enumerate(keys)}


def stalled_session(arrival_us=1000, service_us=100, n=1000, stall=(500_000, 600_000)):
    """One session fed a request every arrival_us; each takes service_us,
    except that the server does nothing during the stall window. Rows are
    recorded as beas_bench records them."""
    rows, free = [], 0.0
    for k in range(n):
        due = k * arrival_us
        ready = max(due, free)
        sent = ready
        start = stall[1] if stall[0] <= sent < stall[1] else sent
        done = start + service_us
        rows.append((due, ready, sent, done, done))
        free = done
    return rows


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 50), 500)
        self.assertEqual(run.percentile(values, 99), 990)

    def test_p99_needs_1000_samples(self):
        run.percentile(list(range(1000)), 99)
        with self.assertRaises(run.Invalid):
            run.percentile(list(range(999)), 99)
        self.assertEqual(run.percentile(list(range(1, 1000)), 99, strict=False), 990)


class OpenLoopAccounting(unittest.TestCase):
    def test_stall_delays_every_request_due_during_it(self):
        requests = run.open_loop(open_samples(stalled_session()))
        delayed = sum(1 for r in requests if r.latency_ms > 1)
        # Requests due in the 100 ms stall, plus the ~10 the backlog drains
        # over; timing from the send would show one.
        self.assertGreaterEqual(delayed, 100)
        self.assertLessEqual(delayed, 115)
        self.assertAlmostEqual(run.met_share(requests, 1), 1 - delayed / 1000)
        self.assertAlmostEqual(max(r.latency_ms for r in requests), 100.1)
        # A busy session is not generator lag.
        self.assertEqual(max(r.lag_ms for r in requests), 0)

    def test_generator_lag_is_time_past_ready(self):
        rows = [(0, 0, 250, 300, 400), (1000, 1000, 1000, 1100, 1200)]
        requests = run.open_loop(open_samples(rows))
        self.assertEqual([r.lag_ms for r in requests], [0.25, 0.0])
        self.assertEqual([r.ttfp_ms for r in requests], [0.3, 0.1])

    def test_failed_requests_miss_the_limit(self):
        rows = [(0, 0, 0, 50, 100), (1000, 1000, 1000, -1, -1)]
        requests = run.open_loop(open_samples(rows))
        self.assertEqual([r.latency_ms for r in requests], [0.1, None])
        self.assertEqual(run.met_share(requests, 1), 0.5)

    def test_the_tail_shows_the_stall_and_the_median_does_not(self):
        raw = dict(open_samples(stalled_session()), setup_s=[1.0], closed_completed=500,
                   closed_s=2.0, eta_mean=1.0, rss_mb=10.0)
        m = run.end_to_end(raw, run.open_loop(raw), 1, strict=True)
        self.assertEqual(m["throughput_qps"], 250)
        self.assertAlmostEqual(m["latency_p50_ms"], 0.1)
        self.assertGreater(m["latency_p90_ms"], 10)
        self.assertAlmostEqual(m["ttfp_p50_ms"], 0.1)


class BoundChecks(unittest.TestCase):
    def test_relative_lower_is_better(self):
        self.assertFalse(run.regressed("lower", 0.1, 10.0, 10.9))
        self.assertTrue(run.regressed("lower", 0.1, 10.0, 11.1))
        self.assertFalse(run.regressed("lower", 0.1, 10.0, 1.0))

    def test_relative_higher_is_better(self):
        self.assertFalse(run.regressed("higher", 0.1, 10.0, 9.1))
        self.assertTrue(run.regressed("higher", 0.1, 10.0, 8.9))
        self.assertFalse(run.regressed("higher", 0.1, 10.0, 100.0))

    def test_compare_applies_bounds_and_exact_counts(self):
        spec = {m["name"]: m for m in run.load_benchmark_json()["end_to_end"]}
        bound = spec["throughput_qps"]["bound"]

        def record(seeds, qps, keys):
            return {"seeds": seeds, "cells": {"tfacc_point": {
                "throughput_qps": {"median": qps},
                "index.keys_charged_mean": {"median": keys}}}}

        with tempfile.TemporaryDirectory() as d:
            def check(base, new):
                paths = [Path(d) / "base.json", Path(d) / "new.json"]
                for p, doc in zip(paths, (base, new)):
                    p.write_text(json.dumps(doc))
                return run.compare(*paths)

            base = record([1, 5], 1000.0, 2.65)
            self.assertTrue(check(base, record([1, 5], 1000 * (1 - bound / 2), 2.65)))
            self.assertFalse(check(base, record([1, 5], 1000 * (1 - 2 * bound), 2.65)))
            self.assertFalse(check(base, record([1, 5], 1000.0, 2.66)))
            self.assertTrue(check(base, record([6, 10], 1000.0, 2.66)))


if __name__ == "__main__":
    unittest.main()

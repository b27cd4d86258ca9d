#!/usr/bin/env python3
"""End-to-end benchmark of BEAS: SQL text in over loopback TCP, last cursor
page out, on four workloads. See bench/e2e/README.md.

  # one workload, one run: a table of every metric, then one JSON line
  python3 bench/e2e/run.py --workload tfacc_point --seed 1 --seconds 27 --trace 0
  # all four workloads, traced
  python3 bench/e2e/run.py --seed 1
  # medians and quartiles of N runs per workload (seeds seed..seed+N-1)
  python3 bench/e2e/run.py --repeat 5 --out bench/e2e/results/BENCH_<rev>.json
  # bound check of a candidate record against a base record
  python3 bench/e2e/run.py --compare BASE.json NEW.json
  # all workloads with tiny pools and 1 s of measurement each
  python3 bench/e2e/run.py --smoke

Unless --binary names a built beas_bench, the runner first builds bench/e2e
(with the library sources of the repository it sits in) into .bench_build/
at the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}, with the end-to-end metrics under --trace 0 and the per-layer
metrics under --trace 1. The exit code is 0 only when every answer matched
its reference within the budget and the measurement was valid.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"

# Shares of --seconds spent in the warm-up, the closed loop and the open loop.
PHASES = (0.1, 0.3, 0.6)
# Queries in the traced pass: enough for a p95 with ten samples beyond it.
TRACED = 200
# A run whose generator lag p99 exceeds this share of the latency limit
# measured the load generator, not the server, and is invalid.
MAX_LAG_SHARE = 0.1

# Each workload: the arguments of beas_bench (data, pool, and the open-loop
# rate, about a quarter of the single session's closed-loop capacity), and
# the latency limit slo_met_frac counts against. BENCHMARK.json says why
# each workload is there; README.md has the rest.
WORKLOADS = {
    "tpch_mix": {
        "args": dict(dataset="tpch", scale=0.01, pool_kind="mix", pool=2000, alpha=0.01,
                     backend="memory", cache_bytes=0, write_interval_s=0, rate=150),
        "limit_ms": 100,
    },
    "tfacc_point": {
        "args": dict(dataset="tfacc", scale=50000, pool_kind="point", pool=20000, alpha=0.01,
                     backend="memory", cache_bytes=0, write_interval_s=0, rate=6000),
        "limit_ms": 5,
    },
    "scan_stream": {
        "args": dict(dataset="tfacc", scale=5000, pool_kind="scan", pool=200, alpha=0.2,
                     backend="memory", cache_bytes=0, write_interval_s=0, rate=100),
        "limit_ms": 50,
    },
    "disk_rw": {
        "args": dict(dataset="tfacc", scale=50000, pool_kind="point", pool=20000, alpha=0.01,
                     backend="disk", cache_bytes=4500000, write_interval_s=2.0, rate=5000),
        "limit_ms": 1000,
    },
}

# --smoke: the same workloads at toy sizes.
SMOKE = {
    "tpch_mix": dict(scale=0.002, pool=60),
    "tfacc_point": dict(scale=2000, pool=300),
    "scan_stream": dict(scale=2000, pool=12),
    "disk_rw": dict(scale=2000, pool=300, cache_bytes=65536, write_interval_s=0.2),
}

# End-to-end metrics: what a client sees. Untraced, over the wire.
E2E = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ttfp_p50_ms": "ms",
    "slo_met_frac": "ratio",
    "eta_mean": "ratio",
    "rss_mb": "MB",
}

# Per-layer counts that repeat exactly at one seed.
EXACT_COUNTS = ("index.keys_charged_mean", "index.fetch_ops_mean", "engine.rows_out_mean",
                "beas.budget_util_mean")


class Invalid(Exception):
    """The run measured nothing trustworthy (too few samples, a lagging
    generator, a failed beas_bench)."""


# ---------------------------------------------------------------------------
# Statistics.

def rank(p, n):
    """The 1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values, p, strict=True):
    """Nearest-rank p-th percentile. With strict, refuses a percentile that
    has fewer than ten samples beyond it, so p99 needs 1000 samples."""
    n = len(values)
    if n == 0:
        raise Invalid("no samples")
    r = rank(p, n)
    if strict and n - r < 10:
        raise Invalid(f"p{p:g} of {n} samples has {n - r} beyond it, fewer than 10")
    return sorted(values)[r - 1]


Request = namedtuple("Request", "latency_ms ttfp_ms lag_ms")


def open_loop(raw):
    """Every open-loop request, with its latency and time to first page
    counted from the time it was due, so a stall counts against every
    request it delays (both None when it failed), and its generator lag,
    counted from when the session was free to send it."""
    return [Request((done - due) / 1000 if done >= 0 else None,
                    (first - due) / 1000 if done >= 0 else None, (sent - ready) / 1000)
            for due, ready, sent, first, done in zip(
                raw["open_due_us"], raw["open_ready_us"], raw["open_sent_us"],
                raw["open_first_us"], raw["open_done_us"])]


def met_share(requests, limit_ms):
    """The share of requests that succeeded within limit_ms."""
    met = sum(1 for r in requests if r.latency_ms is not None and r.latency_ms <= limit_ms)
    return met / max(1, len(requests))


def served(requests, field):
    """field of every request that succeeded."""
    return [getattr(r, field) for r in requests if getattr(r, field) is not None]


def regressed(better, bound, base, new):
    """Whether new is worse than base by more than bound, a share of base,
    in the metric's direction."""
    if better == "lower":
        return new > base * (1 + bound)
    return new < base * (1 - bound)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Metrics of one run.

def end_to_end(raw, requests, limit_ms, strict):
    latency = served(requests, "latency_ms")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_qps": raw["closed_completed"] / raw["closed_s"],
        "latency_p50_ms": percentile(latency, 50, strict),
        "latency_p90_ms": percentile(latency, 90, strict),
        "ttfp_p50_ms": percentile(served(requests, "ttfp_ms"), 50, strict),
        "slo_met_frac": met_share(requests, limit_ms),
        "eta_mean": raw["eta_mean"],
        "rss_mb": raw["rss_mb"],
    }


def per_layer(raw, strict):
    """Per-layer metrics, name -> (value, unit). Self times come from the
    traced pass as per-query differences between consecutive layers'
    calls; their means add up to the mean single-session wire latency."""
    t = {k[2:]: v for k, v in raw.items() if k.startswith("t_")}
    if not t["wire_us"]:
        raise Invalid("the traced pass produced no samples")
    zipped = lambda *cols: zip(*(t[c] for c in cols))  # noqa: E731
    self_us = {
        "ra.parse": t["parse_us"],
        "beas.plan_chase": t["chase_us"],
        "beas.plan_chat": t["chat_us"],
        "beas.plan_other": [p - c - h for p, c, h in zipped("plan_us", "chase_us", "chat_us")],
        "index.fetch": t["fetch_us"],
        "engine.dq_build": t["dq_build_us"],
        "engine.eval": t["eval_us"],
        "bench.unattributed": [e - f - d - v for e, f, d, v in
                               zipped("execute_us", "fetch_us", "dq_build_us", "eval_us")],
        "service.overhead": [a - p - e for a, p, e in zipped("answer_us", "plan_us", "execute_us")],
        "net.overhead": [w - a - p for w, a, p in zipped("wire_us", "answer_us", "parse_us")],
    }
    mean = statistics.fmean
    m = {f"{name}_us_mean": (mean(v), "us") for name, v in self_us.items()}
    for name, col in (("ra.parse_us", "parse_us"), ("beas.plan_us", "plan_us"),
                      ("beas.execute_us", "execute_us"), ("bench.wire_us", "wire_us")):
        m[f"{name}_p50"] = (percentile(t[col], 50, strict), "us")
        m[f"{name}_p95"] = (percentile(t[col], 95, strict), "us")
    m["beas.plan_us_mean"] = (mean(t["plan_us"]), "us")
    m["beas.execute_us_mean"] = (mean(t["execute_us"]), "us")
    m["bench.wire_us_mean"] = (mean(t["wire_us"]), "us")
    m["service.overhead_us_p50"] = (percentile(self_us["service.overhead"], 50, strict), "us")
    m["net.overhead_us_p50"] = (percentile(self_us["net.overhead"], 50, strict), "us")
    m["net.fetch_us_p50"] = (percentile(t["fetch_rtt_us"], 50, strict), "us")
    m["net.fetch_us_p95"] = (percentile(t["fetch_rtt_us"], 95, strict), "us")

    budget = raw["budget"]
    m["ra.fingerprint_repeat_frac"] = (raw["fingerprint_repeat_frac"], "ratio")
    m["beas.budget_util_mean"] = (mean(a / budget for a in t["accessed"]), "ratio")
    m["index.keys_charged_mean"] = (mean(t["keys_charged"]), "count")
    m["index.fetch_ops_mean"] = (mean(t["fetch_ops"]), "count")
    traffic = raw["block_cache_hits"] + raw["block_cache_misses"]
    m["index.block_cache_hit_rate"] = (raw["block_cache_hits"] / traffic if traffic else 0.0,
                                       "ratio")
    m["index.cache_resident_mb"] = (raw["cache_resident_mb"], "MB")
    m["engine.rows_out_mean"] = (mean(t["rows"]), "count")
    m["engine.filter_windows_mean"] = (mean(t["filter_windows"]), "count")
    m["net.pages_per_query_mean"] = (mean(t["pages"]), "count")
    m["net.peak_cursor_kb"] = (raw["peak_cursor_kb"], "KB")
    m["service.queue_wait_us_mean"] = (raw["queue_wait_us_mean"], "us")

    if not raw["maintain_ms"] or len(raw["maintain_ms"]) != len(raw["service_write_ms"]):
        raise Invalid("the maintenance timings are missing")
    m["index.maintain_ms_p50"] = (statistics.median(raw["maintain_ms"]), "ms")
    m["service.write_ms_p50"] = (statistics.median(raw["service_write_ms"]), "ms")
    m["service.write_overhead_ms_p50"] = (statistics.median(
        s - d for s, d in zip(raw["service_write_ms"], raw["maintain_ms"])), "ms")

    m["proc.cpu_ms_per_query"] = (1000 * raw["closed_cpu_s"] / raw["closed_completed"], "ms")
    m["proc.peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    return m


def summarize(raw, limit_ms, trace, strict):
    """One run's result: counts, correctness, and metrics."""
    requests = open_loop(raw)
    lag_p99 = percentile([r.lag_ms for r in requests], 99, strict)
    if strict and lag_p99 > MAX_LAG_SHARE * limit_ms:
        raise Invalid(f"generator lag p99 {lag_p99:.3f} ms exceeds {MAX_LAG_SHARE:g} of the "
                      f"{limit_ms} ms limit")
    tally = raw["tally"]
    result = {
        "correct": tally["mismatched"] == 0 and tally["over_budget"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "pool": raw["pool"],
        "pool_dropped": raw["pool_dropped"],
        "open_requests": len(requests),
        "e2e": {k: (v, E2E[k])
                for k, v in end_to_end(raw, requests, limit_ms, strict).items()},
        "per_layer": {},
    }
    if trace:
        result["per_layer"] = per_layer(raw, strict)
        result["per_layer"]["bench.gen_lag_p99_ms"] = (lag_p99, "ms")
    return result


# ---------------------------------------------------------------------------
# Building and running beas_bench.

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Invalid(f"no BEAS sources at {ROOT}: the benchmark builds them from source")
    tmp = BUILD / "tmp"  # the compiler's temporary files stay in the repository too
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=log, stderr=log,
                       env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                    "--target", "beas_bench"], check=True, stdout=log, stderr=log, env=env)
    return BUILD / "beas_bench"


def run_workload(binary, name, seed, seconds, trace, smoke=False):
    workload = WORKLOADS[name]
    args = dict(workload["args"], **(SMOKE[name] if smoke else {}))
    warmup_s, closed_s, open_s = (seconds * share for share in PHASES)
    args.update(seed=seed, warmup_s=warmup_s, closed_s=closed_s, open_s=open_s,
                traced=(20 if smoke else TRACED) if trace else 0)
    tmpdir = Path(binary).parent / "tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    args["tmpdir"] = tmpdir
    cmd = [str(binary)] + [x for k, v in args.items() for x in (f"--{k}", str(v))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise Invalid(f"{name}: beas_bench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return summarize(raw, workload["limit_ms"], trace, strict=not smoke)


def print_table(name, seed, result):
    print(f"== {name} (seed {seed}): {result['attempted']} operations, {result['failed']} "
          f"failed, correct={result['correct']}, pool {result['pool']} "
          f"({result['pool_dropped']} failed solo and left it), "
          f"{result['open_requests']} open-loop requests")
    for section in ("e2e", "per_layer"):
        for metric, (value, unit) in result[section].items():
            print(f"  {metric:34s} {value:14.6g} {unit}")


def contract_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Modes.

def record(binary, names, seed, seconds, repeat, out):
    """Runs every workload `repeat` times, one seed each, and writes the
    median and quartiles of every metric."""
    cells = {}
    for name in names:
        values = {}
        for s in range(seed, seed + repeat):
            result = run_workload(binary, name, s, seconds, trace=True)
            print_table(name, s, result)
            if not result["correct"]:
                raise Invalid(f"{name}: seed {s} served a wrong answer")
            for section in ("e2e", "per_layer"):
                for metric, (value, unit) in result[section].items():
                    values.setdefault(metric, (section, unit, []))[2].append(value)
        cells[name] = {}
        for metric, (section, unit, vs) in values.items():
            q1, med, q3 = quartiles(vs)
            cells[name][metric] = {"section": section, "unit": unit, "median": med, "q1": q1,
                                   "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0,
                                   "values": vs}
    doc = {"seeds": [seed, seed + repeat - 1], "seconds": seconds, "cpus": os.cpu_count(),
           "cells": cells}
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    print("spread (IQR / median) of each end-to-end metric:")
    for name in names:
        for metric in E2E:
            cell = cells[name][metric]
            print(f"  {name:12s} {metric:16s} median {cell['median']:12.6g}  spread "
                  f"{cell['spread']:.4f}")
    return doc


def compare(base_path, new_path):
    """Bound check: every end-to-end median of `new` against `base`, and the
    exact per-layer counts when both records ran the same seeds."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    spec = {m["name"]: m for m in load_benchmark_json()["end_to_end"]}
    same_seeds = base["seeds"] == new["seeds"]
    worse = 0
    for name, cells in base["cells"].items():
        for metric, cell in cells.items():
            if name not in new["cells"] or metric not in new["cells"][name]:
                print(f"  MISSING  {name} {metric}")
                worse += 1
                continue
            b, n = cell["median"], new["cells"][name][metric]["median"]
            if metric in spec:
                bad = regressed(spec[metric]["better"], spec[metric]["bound"], b, n)
            elif metric in EXACT_COUNTS and same_seeds:
                bad = n != b
            else:
                continue
            worse += bad
            print(f"  {'WORSE' if bad else 'ok':8s} {name:12s} {metric:26s} {b:12.6g} -> {n:12.6g}")
    return worse == 0


def smoke(binary):
    """All workloads at toy sizes: every metric BENCHMARK.json names is
    emitted with its unit, and every answer matches its reference."""
    spec = load_benchmark_json()
    ok = sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    if not ok:
        print("BENCHMARK.json workloads differ from the runner's")
    for name in WORKLOADS:
        result = run_workload(binary, name, 1, 1.0, trace=True, smoke=True)
        print_table(name, 1, result)
        ok &= result["correct"] and result["failed"] == 0
        for section, key in (("e2e", "end_to_end"), ("per_layer", "per_layer")):
            for m in spec[key]:
                got = result[section].get(m["name"])
                if got is None or got[1] != m["unit"]:
                    print(f"  {name}: {m['name']} missing or not in {m['unit']}")
                    ok = False
    print("smoke:", "ok" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    a = ap.parse_args()
    if a.compare:
        return 0 if compare(*a.compare) else 1
    try:
        binary = Path(a.binary) if a.binary else build()
        if a.smoke:
            return 0 if smoke(binary) else 1
        names = [a.workload] if a.workload else list(WORKLOADS)
        if a.repeat:
            record(binary, names, a.seed, a.seconds, a.repeat,
                   a.out or BUILD / "results" / "record.json")
            return 0
        results = {}
        for name in names:
            results[name] = run_workload(binary, name, a.seed, a.seconds, a.trace)
            print_table(name, a.seed, results[name])
    except (Invalid, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    section = "per_layer" if a.trace else "e2e"
    if a.workload:
        metrics = results[a.workload][section]
    else:
        out = Path(a.out or BUILD / "results" / f"seed-{a.seed}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"results written to {out}")
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for s in ("e2e", "per_layer") for m, v in r[s].items()}
    print(contract_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

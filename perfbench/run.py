#!/usr/bin/env python3
"""Seeded benchmark of the Harpocrates evolution loop and its detection
campaigns, end to end and per layer.

    python3 perfbench/run.py --workload <evolve_adder|evolve_l1d|detect> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds perfbench/ against the
library sources in src/ into .bench_build/perfbench.

A run is K repetitions of the workload, each in a fresh perfbench_workload
process. K is --seconds divided by the workload's nominal repetition time,
so a run measures for about --seconds seconds. Repetition k runs the
workload with seed `seed * 64 + k`, so that one run averages over K inputs
and the same (seed, seconds) always gives the same inputs. Timings are
medians over the repetitions; the figures the inputs decide rather than
the host (coverage or detection reached, peak RSS) are their means. On a
host much slower than nominal no repetition starts after 2 x --seconds
(3 x in a traced run), and the run reports the inputs it finished.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the K
repetitions are traced and the metrics are the per-layer ones. One extra
untraced repetition of the second input, run right after its traced one,
gives the tracing overhead; the first repetition of a run tends to read
slower, so it is left out of that pair. The last traced repetition's spans stay in .bench_build/traces/
as schema-v1 JSONL, which examples/trace_report reads.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 after printing it, 1 when
the build or a repetition fails (nothing is printed then), 2 on a usage
error. perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench_workload")

# Workload -> (what `attempted` counts, nominal seconds per repetition on
# 4 cores).
WORKLOADS = {
    "evolve_adder": ("programs graded", 2.5),
    "evolve_l1d": ("programs graded", 5.0),
    "detect": ("faults sampled", 5.0),
}
MEAN_FIGURES = ("quality", "peak_rss_mb", "best_fitness")
MAX_REPS = 64
# No repetition starts once the run would pass this many seconds, and a
# repetition still running this many seconds after the build is killed,
# so that a run on a slow host still ends within 180 s.
HARD_LIMIT_S = 150.0
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def build():
    """Configure on first use, then build incrementally. Tool output goes
    to stderr so that stdout carries only the report."""
    cpus = len(os.sched_getaffinity(0))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(min(4, cpus))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_rep(workload, seed, trace_path, timeout):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    values = sorted(samples)
    n = len(values)
    if n < 11:
        return (values[-1] if values else 0.0), 100.0, n
    return values[n - 11], 100.0 * (n - 10) / n, n


def aggregate(records, key):
    """Median of each figure over the repetitions; mean for the figures
    the inputs decide (MEAN_FIGURES)."""
    out = {}
    for name, first in records[0][key].items():
        values = [r[key][name]["value"] for r in records]
        mean = name in MEAN_FIGURES
        out[name] = {"value": statistics.fmean(values) if mean
                     else statistics.median(values),
                     "unit": first["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 57 or args.seconds < 1:
        parser.error("need 0 <= --seed < 2^57 and --seconds >= 1")

    counted, nominal = WORKLOADS[args.workload]
    reps = max(1, min(MAX_REPS, round(args.seconds / nominal)))
    plan = [(k, bool(args.trace)) for k in range(reps)]
    pair = 1 if reps > 1 else 0
    if args.trace:
        plan.insert(pair + 1, (pair, False))
    # Repetitions that run even on a slow host: the first, and in a traced
    # run everything up to the untraced half of the overhead pair.
    required = plan.index((pair, False)) + 1 if args.trace else 1

    try:
        build()
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        done = []  # (k, traced, record)
        durations = []
        start = time.monotonic()
        # A traced repetition also runs the probes, so it gets more time.
        limit = min(HARD_LIMIT_S, (3.0 if args.trace else 2.0) * args.seconds)
        for k, traced in plan:
            if len(done) >= required and (
                    time.monotonic() - start +
                    statistics.median(durations) > limit):
                break
            t0 = time.monotonic()
            record = run_rep(args.workload, args.seed * MAX_REPS + k,
                             trace_path if traced else None,
                             max(1.0, DEADLINE_S - (t0 - start)))
            durations.append(time.monotonic() - t0)
            done.append((k, traced, record))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    measured = [r for _, traced, r in done if traced == bool(args.trace)]
    if not measured:
        print(f"perfbench: no {'traced ' if args.trace else ''}repetition "
              f"finished in time", file=sys.stderr)
        return 1

    errors = [e for _, _, r in done for e in r["errors"]]
    by_input = {}
    for k, _, r in done:
        by_input.setdefault(k, set()).add(r["digest"])
    for k, digests in sorted(by_input.items()):
        if len(digests) != 1:
            errors.append(f"repetitions of input {k} disagree: "
                          + ", ".join(sorted(digests)))
    digest = hashlib.sha256(" ".join(
        min(by_input[k]) for k in sorted(by_input)).encode()).hexdigest()
    attempted = sum(r["attempted"] for _, _, r in done)
    failed = sum(r["failed"] for _, _, r in done)
    correct = not errors and attempted >= 1 and failed == 0

    first = done[0][2]
    print(f"perfbench {args.workload}: seed {args.seed}, {len(by_input)} of "
          f"{reps} inputs, {len(done)} repetitions in "
          f"{time.monotonic() - start:.1f} s; pool "
          f"{first['threads']} threads, {first['affinity_cpus']} CPUs in "
          f"the affinity mask")
    for k, traced, r in done:
        print(f"  input {k} ({'traced' if traced else 'plain'}): seed "
              f"{r['seed']}, timed {r['timed_s']:.3f} s, digest "
              f"{r['digest']}, {'ok' if r['correct'] else 'FAILED'}")
    print(f"  digest {digest[:16]}")
    print(f"  attempted {attempted} {counted}, failed {failed}")
    for e in errors:
        print(f"  check failed: {e}")

    if args.trace:
        metrics = aggregate(measured, "layers")
        for name, key in (("core.gen_ms", "gen_ms"),
                          ("faultsim.campaign_ms", "campaign_ms")):
            samples = [x for r in measured for x in r["samples"][key]]
            value, pct, n = tail(samples)
            metrics[name + "_p50"] = {
                "value": statistics.median(samples) if samples else 0.0,
                "unit": "ms"}
            metrics[name + "_tail"] = {"value": value, "unit": "ms"}
            if n:
                print(f"  {name}_tail is p{pct:.2f} of n={n}")
        plain, traced = (next(r["timed_s"] for k, t, r in done
                              if k == pair and t == kind)
                         for kind in (False, True))
        metrics["telemetry.trace_overhead_pct"] = {
            "value": 100.0 * (traced / plain - 1.0), "unit": "%"}
        shown = metrics
        print(f"  spans: {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = aggregate(measured, "end_to_end")
        shown = {**aggregate(measured, "summary"), **metrics}
    for name in sorted(shown):
        print(f"  {name:40s} {shown[name]['value']:16.6g} "
              f"{shown[name]['unit']}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

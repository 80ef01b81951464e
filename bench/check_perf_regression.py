#!/usr/bin/env python3
"""Gate on perf regressions between two google-benchmark JSON reports.

Compares per-benchmark cpu_time of a current run against a committed
baseline (bench/BENCH_perf.json) and fails when any shared benchmark got
slower than --threshold times the baseline. Benchmarks present in only
one report are listed but never fail the gate, so adding or retiring
benchmarks does not require touching this script.

User counters whose name starts with ``hist_`` (the serve bench exports
its obs-histogram latency quantiles as hist_p50_us / hist_p99_us) are
gated too, as pseudo-benchmarks named ``<benchmark>#<counter>`` — so a
latency-distribution regression fails the gate even when the benchmark's
own cpu_time stays flat (closed-loop wall time hides tail latency).

User counters whose name starts with ``floor_`` are gated as MINIMA:
bigger is better, and the gate fails when the current value drops below
baseline / threshold. The batch solver exports its measured speedup over
sequential scalar solves as ``floor_speedup_vs_scalar``, so losing the
batched win is a gate failure, not a silent note in a report.

Usage:
    bench/check_perf_regression.py BASELINE CURRENT [--threshold 3.0]
"""
from __future__ import annotations

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_report(path: str) -> tuple[dict[str, float], dict[str, float]]:
    """Returns (cpu times in ns incl. hist_ counters, floor_ counters)."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    times: dict[str, float] = {}
    floors: dict[str, float] = {}
    for bench in report.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) so repetition runs
        # compare raw iterations against raw iterations.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        unit = _UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None:
            raise SystemExit(f"{path}: unknown time_unit in {bench['name']}")
        times[bench["name"]] = float(bench["cpu_time"]) * unit
        for counter, value in bench.items():
            if not isinstance(counter, str):
                continue
            # hist_* user counters are latency quantiles in microseconds;
            # gate them alongside cpu_time as pseudo-benchmarks.
            if counter.startswith("hist_"):
                times[f"{bench['name']}#{counter}"] = float(value) * 1e3
            # floor_* counters are bigger-is-better figures gated as
            # minima by main().
            elif counter.startswith("floor_"):
                floors[f"{bench['name']}#{counter}"] = float(value)
    return times, floors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="JSON from the run under test")
    parser.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="fail when cpu_time exceeds threshold x baseline (default 3.0)",
    )
    args = parser.parse_args()

    baseline, baseline_floors = load_report(args.baseline)
    current, current_floors = load_report(args.current)
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: no overlapping benchmarks between the two reports",
              file=sys.stderr)
        return 2

    failures = []
    for name in shared:
        ratio = (current[name] / baseline[name]
                 if baseline[name] > 0.0 else float("inf"))
        verdict = "FAIL" if ratio > args.threshold else "ok"
        print(f"{verdict:>4}  {name}: {baseline[name]:,.0f} ns -> "
              f"{current[name]:,.0f} ns  ({ratio:.2f}x)")
        if ratio > args.threshold:
            failures.append(name)

    # floor_ counters: bigger is better; fail when the current value
    # drops below baseline / threshold.
    for name in sorted(set(baseline_floors) & set(current_floors)):
        floor = baseline_floors[name] / args.threshold
        verdict = "FAIL" if current_floors[name] < floor else "ok"
        print(f"{verdict:>4}  {name}: {baseline_floors[name]:,.2f} -> "
              f"{current_floors[name]:,.2f}  (floor {floor:,.2f})")
        if current_floors[name] < floor:
            failures.append(name)

    for name in sorted(set(current) - set(baseline)):
        print(f" new  {name}: {current[name]:,.0f} ns (no baseline)")
    for name in sorted(set(current_floors) - set(baseline_floors)):
        print(f" new  {name}: {current_floors[name]:,.2f} (no baseline)")
    for name in sorted(set(baseline) - set(current)):
        print(f"gone  {name}: baseline only, not in current run")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{args.threshold:.1f}x: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"\nall {len(shared)} shared benchmarks within "
          f"{args.threshold:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

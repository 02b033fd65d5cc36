"""Compare two result sets written by :mod:`sweep`.

    python3 afpbench/compare.py results/parent results/change

Prints one row per workload and end-to-end metric: both medians, both
quartiles, the change of the median, and a verdict under the metric's
bound in ``BENCHMARK.json``:

* ``worse`` — the second median is worse than the first by more than
  the bound;
* ``unresolved`` — the first set's own spread (quartile distance over
  median) exceeds the bound, unless every run of the second set beats
  every run of the first;
* ``better`` — the second median is better by more than the first
  set's spread;
* ``same`` — otherwise.

Per-layer metrics (the ``.trace.jsonl`` files) follow with their medians
and change, without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sweep import load, spread

HERE = Path(__file__).resolve().parent


def verdict(metric: dict, first: list[float], second: list[float]) -> str:
    lower = metric["better"] == "lower"
    median_a, q1_a, q3_a = spread(first)
    median_b = spread(second)[0]
    worse_by = (median_b - median_a) / median_a * (1 if lower else -1)
    own_spread = (q3_a - q1_a) / median_a
    if worse_by > metric["bound"]:
        return "worse"
    beats_all = (max(second) < min(first)) if lower else (min(second) > max(first))
    if own_spread > metric["bound"] and not beats_all:
        return "unresolved"
    if -worse_by > own_spread:
        return "better"
    return "same"


def values(results: list[dict], name: str) -> list[float]:
    return [result["metrics"][name]["value"] for result in results if name in result["metrics"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    header = f"{'workload':16s} {'metric':34s} {'median A':>11s} {'[q1, q3] A':>23s} " \
             f"{'median B':>11s} {'[q1, q3] B':>23s} {'change':>8s}"
    print(header + "  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        first = load(args.first / f"{workload}.jsonl")
        second = load(args.second / f"{workload}.jsonl")
        if not first or not second:
            print(f"{workload:16s} (no results in one of the sets)")
            continue
        for metric in spec["end_to_end"]:
            a, b = values(first, metric["name"]), values(second, metric["name"])
            (ma, qa1, qa3), (mb, qb1, qb3) = spread(a), spread(b)
            print(
                f"{workload:16s} {metric['name']:34s} {ma:11.4f} [{qa1:10.4f}, {qa3:10.4f}] "
                f"{mb:11.4f} [{qb1:10.4f}, {qb3:10.4f}] {(mb - ma) / ma:+8.2%}  "
                f"{verdict(metric, a, b)}"
            )
    print()
    print(f"{'workload':16s} {'per-layer metric':34s} {'median A':>11s} {'median B':>11s} {'change':>8s}")
    for workload in (w["name"] for w in spec["workloads"]):
        first = load(args.first / f"{workload}.trace.jsonl")
        second = load(args.second / f"{workload}.trace.jsonl")
        if not first or not second:
            continue
        for metric in spec["per_layer"]:
            ma = spread(values(first, metric["name"]))[0]
            mb = spread(values(second, metric["name"]))[0]
            change = f"{(mb - ma) / abs(ma):+8.2%}" if ma else f"{'':8s}"
            print(f"{workload:16s} {metric['name']:34s} {ma:11.4f} {mb:11.4f} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

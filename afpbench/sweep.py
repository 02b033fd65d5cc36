"""Run every workload over several seeds and report how steady it is.

    python3 afpbench/sweep.py --out results/parent --runs 10 [--first-seed 1]
        [--workloads solve-layered serve-social] [--trace 0]

Writes ``<out>/<workload>.jsonl`` (``.trace.jsonl`` with ``--trace 1``),
one result line per run, and prints each metric's median and its spread:
the distance between the first and third quartile as a share of the
median.  :mod:`compare` reads two such directories.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def load(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def summary(results: list[dict]) -> dict[str, tuple[float, float, float]]:
    names = results[0]["metrics"] if results else {}
    return {
        name: spread([result["metrics"][name]["value"] for result in results])
        for name in names
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = ".trace.jsonl" if args.trace else ".jsonl"
    for workload in args.workloads:
        path = args.out / f"{workload}{suffix}"
        for seed in range(args.first_seed, args.first_seed + args.runs):
            completed = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if completed.returncode != 0:
                print(f"{workload} seed {seed}: exit {completed.returncode}\n"
                      f"{completed.stderr[-2000:]}", file=sys.stderr)
                continue
            result = json.loads(completed.stdout.splitlines()[-1])
            with path.open("a") as handle:
                handle.write(json.dumps(result) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
        results = load(path)
        print(f"{workload}: {len(results)} runs")
        for name, (median, q1, q3) in summary(results).items():
            share = (q3 - q1) / median if median else float("nan")
            print(f"  {name:36s} median {median:12.4f}  spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

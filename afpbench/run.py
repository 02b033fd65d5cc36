"""Run one benchmark workload and print its metrics as one JSON line.

    python3 afpbench/run.py --workload solve-layered --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, and scratch files go under ``.bench_build/``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.  Sample counts and failed checks go
to standard error.

One run:

1. times ``SETUP_PROBES`` cold starts, each in a fresh interpreter
   (``--setup-probe``), and reports their median as ``setup_s``
   (untraced runs only);
2. sets the workload up, makes one untimed warm-up operation (lazy
   state such as the delta maintainer is built on the first write) and
   a checkpoint;
3. for ``--seconds``, makes timed operations, each followed by a timed
   read round and an untimed check, with one more checkpoint at a
   seeded operation and one at the end.  A full collection precedes
   every operation, so each starts from the same collector state.

Every timing is rescaled to a fixed host speed (:mod:`steady`).  With
``--trace 1`` half the operations run with the layer wrappers of
:mod:`spans` installed; the others give the untraced baseline for
``trace.overhead``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from steady import Clock, Reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
#: Even a slow workload gets this many timed operations.
MIN_OPERATIONS = 4
#: Rounds of the loaded-versus-fresh reference comparison.
REF_ROUNDS = 20


def import_program() -> None:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"cannot import the program from {src}: {error}")
    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Time one cold start in a fresh interpreter; returns seconds."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"setup probe failed: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.splitlines()[-1])["ms"] / 1e3


def reference_loaded_vs_fresh(reference: Reference) -> float:
    """Reference time in this (loaded) process over that in a fresh
    interpreter: the median over rounds of the ratio between the runs
    here just before and after one fresh interpreter and the runs in it,
    so each ratio compares the two at the same host speed."""
    ratios = []
    for _ in range(REF_ROUNDS):
        before = statistics.median(reference.timings(3))
        completed = subprocess.run(
            [sys.executable, str(HERE / "steady.py"), "3"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        after = statistics.median(reference.timings(3))
        ratios.append((before + after) / 2 / float(completed.stdout))
    return statistics.median(ratios)


class Run:
    def __init__(self, args: argparse.Namespace, workdir: Path, reference: Reference) -> None:
        self.args = args
        self.workdir = workdir
        self.reference = reference
        self.workload = WORKLOADS[args.workload](args.seed, workdir)
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)

    def checkpoint(self, index: int) -> None:
        self.attempted += 1
        try:
            problems = self.workload.checkpoint()
        except Exception as error:  # noqa: BLE001 - a failed check, reported
            problems = [f"{type(error).__name__}: {error}"]
        if problems:
            self.fail(f"checkpoint after operation {index}", problems)

    def setups(self) -> list[float]:
        times = []
        for probe in range(SETUP_PROBES):
            self.attempted += 1
            try:
                times.append(setup_probe(self.args.workload, self.args.seed, self.workdir))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
                self.fail(f"setup probe {probe}", [str(error)])
        return times

    def loop(self, tracer=None) -> tuple[list, list]:
        """Timed operations; returns the untraced and the traced entries."""
        workload = self.workload
        checkpoint_at = random.Random(self.args.seed).randrange(2, 6)
        clock = Clock(self.reference)
        untraced, traced = [], []
        deadline = time.perf_counter() + self.args.seconds
        index, last = 0, False
        while not last:
            index += 1
            self.attempted += 1
            workload.requests.clear()
            # Traced in runs of two, so both halves of a write pair are traced.
            tracing = tracer is not None and index % 4 in (1, 2)
            try:
                if tracing:
                    tracer.op, tracer.phase = index, "op"
                    tracer.install()
                try:
                    _, op_sample = clock.measure(lambda: workload.operate(index))
                    if tracing:
                        tracer.phase = "read"
                    _, read_sample = clock.measure(workload.read)
                finally:
                    if tracing:
                        tracer.remove()
                problems = workload.check()
            except Exception as error:  # noqa: BLE001 - a failed operation, reported
                problems = [f"{type(error).__name__}: {error}"]
            if problems:
                self.fail(f"operation {index}", problems)
            else:
                entry = {
                    "id": index,
                    "op": op_sample,
                    "read": read_sample,
                    "requests": list(workload.requests),
                    "composition": workload.composition(),
                }
                (traced if tracing else untraced).append(entry)
            last = time.perf_counter() >= deadline and index >= MIN_OPERATIONS
            if index == checkpoint_at or last:
                self.checkpoint(index)
            workload.release()
            gc.collect()
        return untraced, traced

    def execute(self) -> dict:
        args, workload = self.args, self.workload
        setups = [] if args.trace else self.setups()
        self.attempted += 1
        workload.setup()
        try:
            workload.operate(0)
            workload.read()
            problems = workload.check()
        except Exception as error:  # noqa: BLE001 - a failed operation, reported
            problems = [f"{type(error).__name__}: {error}"]
        if problems:
            self.fail("warm-up operation", problems)
        self.checkpoint(0)
        workload.release()
        gc.collect()
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        try:
            untraced, traced = self.loop(tracer)
        finally:
            workload.close()
        samples = untraced + traced
        refs = [entry[half].ref_ms for entry in samples for half in ("op", "read")]
        print(
            f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
            f"{len(traced)} traced operations, {len(setups)} setup probes, "
            f"{self.failed} failed; reference task median "
            f"{statistics.median(refs) if refs else float('nan'):.3f} ms",
            file=sys.stderr,
        )
        if not samples:
            raise SystemExit("no operation completed")
        if not args.trace:
            if not setups:
                raise SystemExit("no setup probe completed")
            op_ms = [entry["op"].ms for entry in samples]
            read_ms = [entry["read"].ms for entry in samples]
            return {
                "setup_s": statistics.median(setups),
                "op_ms_p50": statistics.median(op_ms),
                "read_ms_p50": statistics.median(read_ms),
                "ops_per_s": len(samples) / (sum(op_ms + read_ms) / 1e3),
                "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        from spans import layer_metrics

        if not traced or not untraced:
            raise SystemExit("the traced run needs traced and untraced operations")

        def mean_ms(entries: list) -> float:
            return statistics.fmean(entry["op"].ms + entry["read"].ms for entry in entries)

        tracer.write(ROOT / ".bench_build" / "afpbench" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(tracer, traced, workload.reads_per_round)
        metrics["trace.overhead"] = mean_ms(traced) / mean_ms(untraced) - 1
        metrics["steady.ref_loaded_vs_fresh"] = reference_loaded_vs_fresh(self.reference)
        return metrics


def probe_main(args: argparse.Namespace, reference: Reference) -> int:
    clock = Clock(reference)
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    try:
        _, sample = clock.measure(workload.setup)
    finally:
        workload.close()
    print(json.dumps({"ms": sample.ms}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Before the program exists in this process: see Reference.
    reference = Reference()
    import_program()
    if args.setup_probe:
        return probe_main(args, reference)
    metric_spec = spec()["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".bench_build" / "afpbench" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, workdir, reference)
        values = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for metric in metric_spec:
        if metric["name"] not in values:
            raise SystemExit(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

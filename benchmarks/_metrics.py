"""Machine-readable benchmark metrics — one ``BENCH_<name>.json`` per module.

Every ``bench_*.py`` funnels its measurements through :func:`emit`, so CI
can archive the numbers as artifacts instead of scraping them out of
captured stdout.  A file holds::

    {
      "schema": 1,
      "benchmark": "<name>",
      "records": [
        {"workload": "...", "sizes": {...}, "timings_s": {...},
         "speedups": {...}, ...},
        ...
      ]
    }

``timings_s`` maps phase/variant labels to seconds (best-of-N, matching
what the benchmark asserts on); ``speedups`` maps ratio labels to floats.
Files land in ``$REPRO_BENCH_OUT`` (created if needed) or, by default,
the repository root.  The first :func:`emit` for a name in a process truncates any
stale file from a previous run; later calls from the same run append, so
a module's parametrised tests accumulate into one document.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Mapping, Optional

SCHEMA_VERSION = 1

# Names already written by this process: first emit truncates, later
# emits append — re-runs never accumulate records from older sessions.
_INITIALISED: set[str] = set()


def output_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_OUT")
    if override:
        return Path(override)
    # Default to the repository root (parent of benchmarks/) so BENCH_*.json
    # files land in a stable place regardless of pytest's working directory.
    return Path(__file__).resolve().parent.parent


def _round_values(mapping: Optional[Mapping[str, float]]) -> dict[str, float]:
    return {key: round(float(value), 6) for key, value in (mapping or {}).items()}


def emit(
    name: str,
    *,
    workload: str,
    sizes: Optional[Mapping[str, object]] = None,
    timings: Optional[Mapping[str, float]] = None,
    speedups: Optional[Mapping[str, float]] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Path:
    """Append one measurement record to ``BENCH_<name>.json``.

    *timings* are seconds; *sizes* describe the workload (atoms, rules,
    layers, ...); *speedups* are dimensionless ratios; *extra* is for
    anything else worth archiving (method counts, agreement flags, ...).
    Returns the path written.
    """
    directory = output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"

    document: dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "benchmark": name,
        "records": [],
    }
    if name in _INITIALISED and path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded.get("records"), list):
                document = loaded
        except (OSError, ValueError):
            pass  # unreadable → start the document over
    _INITIALISED.add(name)

    record: dict[str, object] = {
        "workload": workload,
        "sizes": dict(sizes or {}),
        "timings_s": _round_values(timings),
        "speedups": _round_values(speedups),
    }
    if extra:
        record["extra"] = dict(extra)
    document["records"].append(record)

    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)
    return path


def benchmark_best(benchmark) -> Optional[float]:
    """Best observed seconds from a ``pytest-benchmark`` fixture, or ``None``
    when benchmarking is disabled and no stats were collected."""
    try:
        return float(benchmark.stats.stats.min)
    except (AttributeError, TypeError):
        return None


def timed(benchmark, function):
    """Run *function* under the ``benchmark`` fixture; return
    ``(result, seconds)``.

    With benchmarking enabled, *seconds* is the fixture's best round.
    Under ``--benchmark-disable`` (the CI smoke run) the fixture calls the
    function exactly once and records nothing, so the wall-clock time of
    that single call stands in — less precise, but every module still
    emits its ``BENCH_*.json``."""
    start = time.perf_counter()
    result = benchmark(function)
    wall = time.perf_counter() - start
    best = benchmark_best(benchmark)
    return result, wall if best is None else best

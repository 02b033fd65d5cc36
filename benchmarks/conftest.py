"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper
(the ``E<n>`` experiment id is in its docstring and its ``repro`` marker;
the measured numbers land in ``BENCH_<name>.json``, see ``_metrics.py``).  The benchmarks use ``pytest-benchmark`` for timing and also
*assert* the qualitative shape the paper reports — who wins, what is true /
false / undefined — so a benchmark run doubles as a reproduction check.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest


def pytest_configure(config):  # pragma: no cover - benchmarking plumbing
    config.addinivalue_line("markers", "repro(experiment): paper experiment id")
    config.addinivalue_line(
        "markers", "benchsmoke: fast benchmark subset runnable on every CI push"
    )
    config.addinivalue_line(
        "markers", "benchslow: heavy benchmark excluded from the CI smoke step"
    )


def pytest_collection_modifyitems(config, items):  # pragma: no cover - plumbing
    # Every benchmark doubles as a reproduction check, so the CI smoke step
    # (`-m benchsmoke`, with REPRO_BENCH_SMOKE=1 trimming the size sweeps —
    # see _smoke.py) runs them all except the ones explicitly marked
    # benchslow.
    for item in items:
        if "benchslow" not in item.keywords:
            item.add_marker(pytest.mark.benchsmoke)


@pytest.fixture
def report(capsys):
    """Print a small labelled table from inside a benchmark without it being
    swallowed by the capture plugin (shown with ``-s`` or on failure)."""

    def _report(title: str, rows: list[tuple]) -> None:
        print(f"\n[{title}]")
        for row in rows:
            print("   ", *row)

    return _report

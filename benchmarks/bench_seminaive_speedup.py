"""Experiment E13 — naive versus semi-naive evaluation strategies.

The semi-naive engine (``repro.evaluation``) drives every fixpoint with
per-rule unsatisfied-literal counters and per-atom watch lists, so each
(atom, rule) pair is touched O(1) times per ``S_P`` evaluation; the naive
strategy re-applies ``T_{P∪Ĩ}`` by scanning every ground rule each round,
exactly as Definition 4.2 reads.  This benchmark sweeps the two workloads
the scaling experiment (E7) uses — win–move games and random propositional
programs — computing the well-founded model via the alternating fixpoint
under both strategies.  It asserts:

* the two strategies produce identical models at every size, and
* at the largest size of each workload the semi-naive strategy is strictly
  faster (on chain games the gap is asymptotic: naive costs
  O(stages² · rules), semi-naive O(stages · rules)).

Run with ``pytest benchmarks/bench_seminaive_speedup.py -s``.
"""

import time

import pytest

from _metrics import emit
from repro.core import alternating_fixpoint, build_context
from repro.games import chain_edges, random_game_edges, win_move_program
from repro.workloads import random_propositional_program

CHAIN_SIZES = [16, 32, 64]
RANDOM_GAME_SIZES = [16, 32, 64]
PROGRAM_SIZES = [(20, 60), (40, 120), (80, 240)]
# Best-of-5 keeps the strictly-faster assertions robust on noisy shared
# runners: one clean run per strategy decides, not the scheduler.
REPEAT = 5


def _best_time(function) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _compare(context):
    """Return (naive seconds, seminaive seconds) after asserting the two
    strategies agree on the model."""
    fast = alternating_fixpoint(context, strategy="seminaive")
    slow = alternating_fixpoint(context, strategy="naive")
    assert fast.true_atoms() == slow.true_atoms()
    assert fast.false_atoms() == slow.false_atoms()
    naive = _best_time(lambda: alternating_fixpoint(context, strategy="naive"))
    seminaive = _best_time(lambda: alternating_fixpoint(context, strategy="seminaive"))
    return naive, seminaive


@pytest.mark.repro("E13")
def test_win_move_chain_speedup(report):
    """Chains are the deep-alternation worst case: the game value propagates
    one position per A_P application, so the naive strategy pays a full rule
    scan per inner round per stage."""
    rows = []
    timings = {}
    for size in CHAIN_SIZES:
        context = build_context(win_move_program(chain_edges(size)))
        naive, seminaive = _compare(context)
        timings[size] = (naive, seminaive)
        emit(
            "seminaive_speedup",
            workload=f"win_move_chain:{size}",
            sizes={"positions": size},
            timings={"naive": naive, "seminaive": seminaive},
            speedups={"seminaive_over_naive": naive / seminaive},
        )
        rows.append((size, f"naive {naive * 1000:8.2f} ms", f"seminaive {seminaive * 1000:8.2f} ms",
                     f"speedup {naive / seminaive:6.1f}x"))
    report("win-move chain: naive vs seminaive", rows)
    naive, seminaive = timings[CHAIN_SIZES[-1]]
    assert seminaive < naive, (
        f"semi-naive ({seminaive:.4f}s) must beat naive ({naive:.4f}s) "
        f"on the {CHAIN_SIZES[-1]}-position chain game"
    )


@pytest.mark.repro("E13")
def test_win_move_random_game_speedup(report):
    rows = []
    timings = {}
    for size in RANDOM_GAME_SIZES:
        context = build_context(win_move_program(random_game_edges(size, out_degree=3, seed=size)))
        naive, seminaive = _compare(context)
        timings[size] = (naive, seminaive)
        emit(
            "seminaive_speedup",
            workload=f"win_move_random:{size}",
            sizes={"positions": size},
            timings={"naive": naive, "seminaive": seminaive},
            speedups={"seminaive_over_naive": naive / seminaive},
        )
        rows.append((size, f"naive {naive * 1000:8.2f} ms", f"seminaive {seminaive * 1000:8.2f} ms",
                     f"speedup {naive / seminaive:6.1f}x"))
    report("win-move random games: naive vs seminaive", rows)
    naive, seminaive = timings[RANDOM_GAME_SIZES[-1]]
    assert seminaive < naive


@pytest.mark.repro("E13")
def test_polytime_scaling_speedup(report):
    """The polynomial-time workload of E7 (random propositional programs)."""
    rows = []
    timings = {}
    for atoms, rules in PROGRAM_SIZES:
        context = build_context(random_propositional_program(atoms=atoms, rules=rules, seed=atoms))
        naive, seminaive = _compare(context)
        timings[(atoms, rules)] = (naive, seminaive)
        emit(
            "seminaive_speedup",
            workload=f"random_propositional:{atoms}x{rules}",
            sizes={"atoms": atoms, "rules": rules},
            timings={"naive": naive, "seminaive": seminaive},
            speedups={"seminaive_over_naive": naive / seminaive},
        )
        rows.append(((atoms, rules), f"naive {naive * 1000:8.2f} ms",
                     f"seminaive {seminaive * 1000:8.2f} ms", f"speedup {naive / seminaive:6.1f}x"))
    report("random propositional programs: naive vs seminaive", rows)
    naive, seminaive = timings[PROGRAM_SIZES[-1]]
    assert seminaive < naive


@pytest.mark.repro("E13")
@pytest.mark.parametrize("strategy", ["seminaive", "naive"])
def test_timed_afp_chain64(benchmark, strategy):
    """pytest-benchmark timing record (compare runs with ``--benchmark-compare``)."""
    context = build_context(win_move_program(chain_edges(64)))
    result = benchmark(lambda: alternating_fixpoint(context, strategy=strategy))
    assert result.is_total

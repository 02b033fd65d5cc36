"""Experiment E7 — the polynomial-time claim of Section 5.

"For finite H, it is routine to show that the least fixpoint of A_P is
computable in time that is polynomial in the size of H, if the program P is
regarded as fixed."  The benchmark sweeps win–move games and random
propositional programs of increasing size and records the alternating
fixpoint cost; the assertions check the structural facts that drive the
polynomial bound (the number of S̃_P applications is at most ~2·|H| + 2)
rather than wall-clock ratios, which pytest-benchmark records.
"""

import pytest

from _metrics import emit, timed
from repro.core import alternating_fixpoint, build_context
from repro.games import chain_edges, random_game_edges, win_move_program
from repro.workloads import random_propositional_program

GAME_SIZES = [8, 16, 32, 64, 128]
PROGRAM_SIZES = [(10, 30), (20, 60), (40, 120), (80, 240)]


def _record(workload: str, context, result, best: float) -> None:
    emit(
        "polytime_scaling",
        workload=workload,
        sizes={"atoms": len(context.base), "stages": result.iterations},
        timings={"alternating_fixpoint": best},
    )


@pytest.mark.repro("E7")
@pytest.mark.parametrize("nodes", GAME_SIZES)
def test_scaling_win_move_random_games(benchmark, nodes):
    program = win_move_program(random_game_edges(nodes, out_degree=3, seed=nodes))
    context = build_context(program)

    result, best = timed(benchmark, lambda: alternating_fixpoint(context))

    # Each application of A_P adds at least one new negative conclusion
    # until the fixpoint, so the number of stages is linearly bounded.
    assert result.iterations <= 2 * len(context.base) + 2
    _record(f"win_move_random:{nodes}", context, result, best)


@pytest.mark.repro("E7")
@pytest.mark.parametrize("nodes", GAME_SIZES)
def test_scaling_win_move_chain_games(benchmark, nodes):
    """Chains are the worst case for alternation depth: the game value
    propagates one position per A_P application."""
    program = win_move_program(chain_edges(nodes))
    context = build_context(program)
    result, best = timed(benchmark, lambda: alternating_fixpoint(context))
    assert result.is_total
    assert result.iterations <= 2 * len(context.base) + 2
    _record(f"win_move_chain:{nodes}", context, result, best)


@pytest.mark.repro("E7")
@pytest.mark.parametrize("atoms,rules", PROGRAM_SIZES)
def test_scaling_random_propositional_programs(benchmark, atoms, rules):
    program = random_propositional_program(atoms=atoms, rules=rules, seed=atoms)
    context = build_context(program)
    result, best = timed(benchmark, lambda: alternating_fixpoint(context))
    assert result.iterations <= 2 * len(context.base) + 2
    _record(f"random_propositional:{atoms}x{rules}", context, result, best)

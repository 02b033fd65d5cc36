"""Experiment E12 — ablation of the implementation choices.

Three implementation decisions are worth quantifying:

* the counting-based ``S_P`` evaluation versus the naive ``T_{P∪Ĩ}``
  iteration the definition literally prescribes;
* the relevance-pruned grounding versus the naive Herbrand instantiation;
* computing the well-founded model via the alternating fixpoint versus via
  the ``W_P`` (unfounded-set) iteration.

Each pair is benchmarked on the same workload with the results asserted
equal, so the ablation also serves as a differential correctness check.
"""

import pytest

from _metrics import emit, timed
from repro.core import (
    alternating_fixpoint,
    build_context,
    eventual_consequence,
    eventual_consequence_naive,
    well_founded_model,
)
from repro.fixpoint.lattice import NegativeSet
from repro.games import random_game_edges, win_move_program
from repro.workloads import complement_of_transitive_closure_program, random_propositional_program
from repro.games.graphs import chain_edges


PROGRAM = random_propositional_program(atoms=30, rules=90, seed=7)
GAME = win_move_program(random_game_edges(20, 3, seed=7))

# Best times seen so far this run, so the slow half of each ablation pair
# can emit the pair's speedup (tests run in file order).
_OBSERVED: dict[str, float] = {}


def _record(label: str, workload: str, best: float, fast_counterpart: str | None = None) -> None:
    _OBSERVED[label] = best
    speedups = {}
    if fast_counterpart is not None and fast_counterpart in _OBSERVED:
        speedups[f"{fast_counterpart}_over_{label}"] = best / _OBSERVED[fast_counterpart]
    emit(
        "ablation_strategies",
        workload=workload,
        timings={label: best},
        speedups=speedups,
    )


# --------------------------------------------------------------------- #
# Ablation 1: S_P evaluation strategy.
# --------------------------------------------------------------------- #
@pytest.mark.repro("E12")
def test_sp_counting_propagation(benchmark):
    context = build_context(PROGRAM)
    negatives = NegativeSet(sorted(context.base, key=str)[::2])
    fast, best = timed(benchmark, lambda: eventual_consequence(context, negatives))
    assert fast == eventual_consequence_naive(context, negatives)
    _record("sp_counting", "random_propositional:30x90", best)


@pytest.mark.repro("E12")
def test_sp_naive_iteration(benchmark):
    context = build_context(PROGRAM)
    negatives = NegativeSet(sorted(context.base, key=str)[::2])
    _, best = timed(benchmark, lambda: eventual_consequence_naive(context, negatives))
    _record("sp_naive", "random_propositional:30x90", best, fast_counterpart="sp_counting")


# --------------------------------------------------------------------- #
# Ablation 2: grounding strategy.
# --------------------------------------------------------------------- #
NTC = complement_of_transitive_closure_program(chain_edges(5))


@pytest.mark.repro("E12")
def test_grounding_relevant(benchmark):
    context, best = timed(benchmark, lambda: build_context(NTC, grounder="relevant"))
    assert context.rule_count > 0
    _record("ground_relevant", "ntc_chain:5", best)


@pytest.mark.repro("E12")
def test_grounding_naive(benchmark):
    context, best = timed(benchmark, lambda: build_context(NTC, grounder="naive"))
    # The naive instantiation is strictly larger but must give the same
    # derivable atoms.
    relevant = build_context(NTC, grounder="relevant")
    assert context.rule_count >= relevant.rule_count
    assert alternating_fixpoint(context).true_atoms() == alternating_fixpoint(relevant).true_atoms()
    _record("ground_naive", "ntc_chain:5", best, fast_counterpart="ground_relevant")


# --------------------------------------------------------------------- #
# Ablation 3: AFP iteration vs W_P iteration.
# --------------------------------------------------------------------- #
@pytest.mark.repro("E12")
@pytest.mark.parametrize("name,program", [("random-prop", PROGRAM), ("win-move", GAME)])
def test_wfs_via_alternating_fixpoint(benchmark, name, program):
    context = build_context(program)
    result, best = timed(benchmark, lambda: alternating_fixpoint(context))
    assert result.model is not None
    _record(f"wfs_afp:{name}", name, best)


@pytest.mark.repro("E12")
@pytest.mark.parametrize("name,program", [("random-prop", PROGRAM), ("win-move", GAME)])
def test_wfs_via_unfounded_sets(benchmark, name, program):
    context = build_context(program)
    result, best = timed(benchmark, lambda: well_founded_model(context))
    afp = alternating_fixpoint(context)
    assert result.model.true_atoms == afp.true_atoms()
    assert result.model.false_atoms == afp.false_atoms()
    _record(f"wfs_unfounded:{name}", name, best, fast_counterpart=f"wfs_afp:{name}")

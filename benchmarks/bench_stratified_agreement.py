"""Experiment E11 — agreement on (locally) stratified programs (Section 2.4).

"Every locally stratified program has a total well-founded model and a
unique stable model that coincide with each other and with the perfect
model."  The benchmarks evaluate stratified workloads under the stratified
evaluator, the alternating fixpoint and the stable-model enumerator and
assert the three-way agreement, timing each evaluator for the ablation
record (``BENCH_stratified_agreement.json``).
"""

import pytest

from _metrics import emit, timed
from repro.analysis import classify
from repro.core import alternating_fixpoint, build_context, stable_models
from repro.games.graphs import chain_edges, complete_dag_edges, random_digraph_edges
from repro.semantics import stratified_model
from repro.workloads import complement_of_transitive_closure_program, reachability_program


def workloads():
    yield "ntc-chain-6", complement_of_transitive_closure_program(chain_edges(6))
    yield "ntc-dag-5", complement_of_transitive_closure_program(complete_dag_edges(5))
    yield "ntc-random-6", complement_of_transitive_closure_program(
        random_digraph_edges(6, 0.3, seed=21)
    )
    yield "reach-chain-10", reachability_program(chain_edges(10), sources=["n0"])


WORKLOADS = list(workloads())
IDS = [name for name, _ in WORKLOADS]


def _record(evaluator: str, workload: str, best: float) -> None:
    emit("stratified_agreement", workload=workload, timings={evaluator: best})


@pytest.mark.repro("E11")
@pytest.mark.parametrize("name,program", WORKLOADS, ids=IDS)
def test_stratified_evaluator(benchmark, name, program):
    assert classify(program, check_local=False).is_stratified
    result, best = timed(benchmark, lambda: stratified_model(program))
    assert result.true_atoms
    _record("stratified", name, best)


@pytest.mark.repro("E11")
@pytest.mark.parametrize("name,program", WORKLOADS, ids=IDS)
def test_alternating_fixpoint_is_total_and_agrees(benchmark, name, program):
    stratified = stratified_model(program)

    afp, best = timed(benchmark, lambda: alternating_fixpoint(program))

    assert afp.is_total
    assert afp.true_atoms() == stratified.true_atoms
    _record("alternating_fixpoint", name, best)


@pytest.mark.repro("E11")
@pytest.mark.parametrize("name,program", WORKLOADS[:2], ids=IDS[:2])
def test_unique_stable_model_agrees(benchmark, name, program):
    context = build_context(program)
    afp = alternating_fixpoint(context)

    models, best = timed(benchmark, lambda: stable_models(context, afp=afp))

    assert len(models) == 1
    assert models[0].true_atoms == afp.true_atoms()
    _record("stable_enumeration", name, best)

"""Experiment E15 — component-wise versus monolithic well-founded evaluation.

The monolithic alternating fixpoint pays (number of global stages) ×
(whole-program ``S_P`` cost); on layered workloads the stage count grows
with the negation-chain depth while every stage touches every layer, so
the total work is quadratic-ish in the program size.  The component-wise
evaluator (:mod:`repro.core.modular`) condenses the atom dependency graph,
solves each SCC with the cheapest sound method, and only runs the
alternating fixpoint on the tiny negation-through-recursion clusters —
near-linear total work.

``layered_program`` is the adversarial case the ISSUE names: stacked
negation chains (each needs Θ(depth) global stages monolithically, but
every rung is a singleton SCC), one undefined triangle per layer (the
per-component alternating fixpoint), and observers resting on the
undefined atoms (the stratified double closure).

Every comparison asserts the partial models are byte-identical across the
modular engine, the monolithic alternating fixpoint, and the unfounded-set
characterisation (``well_founded_model``), so a timing run doubles as a
Theorem 7.8 / splitting-property check.

Run with ``pytest benchmarks/bench_modular_wfs.py -s``.
"""

import time

import pytest

from _metrics import emit
from _smoke import trim
from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.core.modular import modular_well_founded
from repro.core.wellfounded import well_founded_model
from repro.workloads import layered_program

# The acceptance criterion: ≥5× on a layered workload of ≥8 negation
# clusters.  Small enough (~2s total) to run on every CI push.
ACCEPTANCE_LAYERS = 12
ACCEPTANCE_SIZE = 200
SCALING_SWEEP = trim([(2, 40), (6, 100), (12, 200)], keep=2)
REPEAT = 3


def _best_time(function) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _render(true_atoms, false_atoms) -> bytes:
    """A canonical byte serialisation of a partial model."""
    lines = sorted(str(atom) for atom in true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in false_atoms))
    return "\n".join(lines).encode("utf-8")


def _assert_byte_identical(context):
    """Modular, monolithic-AFP and unfounded-set models, byte for byte."""
    modular = modular_well_founded(context)
    monolithic = alternating_fixpoint(context, keep_stages=False)
    unfounded = well_founded_model(context)
    blobs = {
        "modular": _render(modular.model.true_atoms, modular.model.false_atoms),
        "monolithic": _render(
            monolithic.positive_fixpoint, monolithic.negative_fixpoint.atoms
        ),
        "unfounded-set": _render(
            unfounded.model.true_atoms, unfounded.model.false_atoms
        ),
    }
    assert blobs["modular"] == blobs["monolithic"] == blobs["unfounded-set"], (
        "well-founded models diverge across evaluation paths"
    )
    return modular, monolithic


@pytest.mark.repro("E15")
def test_layered_acceptance(report):
    """≥5× modular over monolithic at 12 layers × 200-deep chains, with the
    three evaluation paths producing byte-identical partial models."""
    context = build_context(layered_program(ACCEPTANCE_LAYERS, ACCEPTANCE_SIZE))
    modular_result, monolithic_result = _assert_byte_identical(context)

    modular = _best_time(lambda: modular_well_founded(context))
    monolithic = _best_time(lambda: alternating_fixpoint(context, keep_stages=False))
    stats = modular_result.statistics()
    report(
        f"layered {ACCEPTANCE_LAYERS}x{ACCEPTANCE_SIZE}: modular vs monolithic WFS",
        [
            (f"atoms {stats['atoms']}, ground rules {stats['ground_rules']}",),
            (f"components {stats['components']} (methods {stats['methods']})",),
            (f"monolithic stages {monolithic_result.iterations}",),
            (f"modular    {modular * 1000:9.2f} ms",),
            (f"monolithic {monolithic * 1000:9.2f} ms",),
            (f"speedup    {monolithic / modular:9.1f}x",),
        ],
    )
    emit(
        "modular_wfs",
        workload=f"layered:{ACCEPTANCE_LAYERS}x{ACCEPTANCE_SIZE}",
        sizes={
            "atoms": stats["atoms"],
            "ground_rules": stats["ground_rules"],
            "components": stats["components"],
        },
        timings={"modular": modular, "monolithic": monolithic},
        speedups={"modular_over_monolithic": monolithic / modular},
        extra={
            "methods": stats["methods"],
            "monolithic_stages": monolithic_result.iterations,
        },
    )
    assert monolithic >= 5 * modular, (
        f"modular engine must be ≥5× faster on the layered workload: "
        f"modular {modular * 1000:.2f} ms, monolithic {monolithic * 1000:.2f} ms "
        f"({monolithic / modular:.1f}x)"
    )


@pytest.mark.repro("E15")
def test_layer_scaling(report):
    """Modular work grows near-linearly with the workload while monolithic
    alternation degrades super-linearly; the gap must widen with size."""
    rows = []
    ratios = []
    for layers, size in SCALING_SWEEP:
        context = build_context(layered_program(layers, size))
        _assert_byte_identical(context)
        modular = _best_time(lambda: modular_well_founded(context))
        monolithic = _best_time(lambda: alternating_fixpoint(context, keep_stages=False))
        ratios.append(monolithic / modular)
        emit(
            "modular_wfs",
            workload=f"layered:{layers}x{size}",
            sizes={"layers": layers, "layer_size": size},
            timings={"modular": modular, "monolithic": monolithic},
            speedups={"modular_over_monolithic": monolithic / modular},
        )
        rows.append(
            (
                f"{layers:3d} layers x {size:3d}",
                f"modular {modular * 1000:8.2f} ms",
                f"monolithic {monolithic * 1000:8.2f} ms",
                f"ratio {monolithic / modular:6.1f}x",
            )
        )
    report("layered workload sweep: modular vs monolithic", rows)
    assert ratios[-1] > ratios[0], (
        "the modular advantage must grow with workload size: "
        + ", ".join(f"{ratio:.2f}x" for ratio in ratios)
    )


@pytest.mark.repro("E15")
def test_dispatch_statistics():
    """The layered workload exercises all three per-component methods with
    the expected multiplicities."""
    layers, size = 4, 12
    modular = modular_well_founded(build_context(layered_program(layers, size)))
    counts = modular.method_counts()
    assert counts["alternating"] == layers
    assert counts["stratified"] == 2 * layers
    assert counts["horn"] == modular.component_count - 3 * layers
    # Each undefined triangle is one 3-atom component.
    triangles = [r for r in modular.components if r.method == "alternating"]
    assert all(r.size == 3 for r in triangles)


@pytest.mark.repro("E15")
@pytest.mark.parametrize("engine", ["modular", "monolithic"])
def test_timed_layered_wfs(benchmark, engine):
    """pytest-benchmark timing record (compare runs with ``--benchmark-compare``)."""
    context = build_context(layered_program(4, 40))
    if engine == "modular":
        result = benchmark(lambda: modular_well_founded(context))
        assert result.model.false_atoms
    else:
        result = benchmark(lambda: alternating_fixpoint(context, keep_stages=False))
        assert result.false_atoms()

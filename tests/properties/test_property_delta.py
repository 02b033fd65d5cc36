"""Property: atom-level delta maintenance is invisible.

Random assert/retract/batch churn against sessions running atom-level
delta maintenance (counting + DRed + resolve fallback) must stay
byte-identical, after *every* refresh, to a from-scratch solve of the
current program — through both the in-memory and the durable SQLite
store, and in lockstep with a session that re-solves from scratch on
every refresh (the monolithic engine) applying the same operations.  This is the soundness contract of
:mod:`repro.delta`: no counter drift, no over- or under-deletion, no
stale verdict survives any interleaving.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - environment guard
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.config import EngineConfig
from repro.datalog.atoms import Atom
from repro.engine.solver import solve_configured
from repro.session import KnowledgeBase
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import random_propositional_program, social_graph_stream

ATOM_POOL = 12

DELTA = EngineConfig(semantics="well-founded")
REBUILD = EngineConfig(semantics="well-founded", engine="monolithic")


def _model_bytes(solution) -> bytes:
    """Canonical byte serialisation of a solution's partial model + base."""
    lines = sorted(str(atom) for atom in solution.interpretation.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in solution.interpretation.false_atoms))
    lines.extend(sorted(f"base {atom}" for atom in solution.base))
    return "\n".join(lines).encode("utf-8")


def _apply_and_check(kb: KnowledgeBase, operations) -> None:
    for insert, atom in operations:
        (kb.assert_fact if insert else kb.retract_fact)(atom)
        scratch = solve_configured(kb._program(), kb.config)
        assert _model_bytes(kb.solution) == _model_bytes(scratch), (
            f"delta-maintained model diverged after "
            f"{'assert' if insert else 'retract'} {atom}"
        )


# Atoms drawn partly from the program's own alphabet (hitting counters,
# DRed circuits and resolve components) and partly fresh (floating facts).
_operations = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(
            [f"p{i}" for i in range(ATOM_POOL)] + ["fresh_a", "fresh_b"]
        ).map(lambda name: Atom(name, ())),
    ),
    min_size=1,
    max_size=8,
)


class TestDeltaLockstep:
    @given(seed=st.integers(min_value=0, max_value=40), operations=_operations)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_delta_matches_scratch_on_memory_store(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb = KnowledgeBase(program, config=DELTA, store=MemoryStore())
        _apply_and_check(kb, operations)

    @given(seed=st.integers(min_value=0, max_value=12), operations=_operations)
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_delta_matches_scratch_on_sqlite_store(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        with KnowledgeBase(
            program, config=DELTA, store=SqliteStore(":memory:")
        ) as kb:
            _apply_and_check(kb, operations)

    @given(seed=st.integers(min_value=0, max_value=15), operations=_operations)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_delta_and_rebuilding_sessions_agree(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        delta = KnowledgeBase(program, config=DELTA)
        rebuild = KnowledgeBase(program, config=REBUILD)
        assert delta.is_incremental and not rebuild.is_incremental
        for insert, atom in operations:
            for kb in (delta, rebuild):
                (kb.assert_fact if insert else kb.retract_fact)(atom)
            assert _model_bytes(delta.solution) == _model_bytes(rebuild.solution)

    @given(seed=st.integers(min_value=0, max_value=15), operations=_operations)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_churn_matches_scratch(self, seed, operations):
        """The whole sequence in one batch: one maintenance pass over the
        union of changes still lands on the from-scratch model."""
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb = KnowledgeBase(program, config=DELTA)
        kb.solution
        with kb.batch():
            for insert, atom in operations:
                (kb.assert_fact if insert else kb.retract_fact)(atom)
        scratch = solve_configured(kb._program(), kb.config)
        assert _model_bytes(kb.solution) == _model_bytes(scratch)


class TestStreamChurn:
    @given(seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_social_graph_stream_stays_identical(self, seed):
        """Seeded churn over a recursive workload (counting + DRed mix):
        every prefix of the stream leaves the session on the oracle model."""
        program, ops = social_graph_stream(
            12, extra_edges=4, back_edges=3, steps=10, seed=seed
        )
        kb = KnowledgeBase(program, config=DELTA)
        kb.solution
        _apply_and_check(
            kb, [(op.kind == "assert", op.atom) for op in ops]
        )

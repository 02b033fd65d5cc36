"""Kernel engagement and fallback paths across the session layer.

The compiled kernel (:mod:`repro.kernel`) holds the solved state of every
incremental session — ground rules, well-founded-family semantics,
modular-style dispatch — and every other configuration must fall back to
a full re-solve with identical models.  These tests pin each gate.
"""

import pytest

from repro.config import EngineConfig
from repro.core.context import build_context
from repro.datalog import parse_atom, parse_program
from repro.engine.solver import solve
from repro.kernel import ComponentKernel, get_kernel
from repro.session import KnowledgeBase
from repro.session.incremental import IncrementalEngine

GAME_TEXT = """
move(a, b). move(b, a). move(b, c). move(c, d).
wins(X) :- move(X, Y), not wins(Y).
"""

GROUND_TEXT = """
r. s :- r. p :- not q. q :- not p. win :- s, not lose. lose :- not win.
"""


def _interpretation(kb: KnowledgeBase):
    return kb.solution.interpretation


class TestKernelEngagement:
    def test_ground_wfs_kernel_sessions_are_incremental(self):
        kb = KnowledgeBase(
            GROUND_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        assert kb.is_incremental
        kb.solution  # force the lazily-built engine
        assert isinstance(kb._engine._kernel, ComponentKernel)

    def test_kernel_kb_matches_modular_kb_across_updates(self):
        config = lambda engine: EngineConfig(semantics="well-founded", engine=engine)
        kernel_kb = KnowledgeBase(GROUND_TEXT, config=config("kernel"))
        modular_kb = KnowledgeBase(GROUND_TEXT, config=config("modular"))
        assert _interpretation(kernel_kb) == _interpretation(modular_kb)
        for action, atom in [
            ("retract", "r"),
            ("assert", "q"),
            ("assert", "r"),
            ("retract", "q"),
        ]:
            for kb in (kernel_kb, modular_kb):
                if action == "assert":
                    kb.assert_fact(atom)
                else:
                    kb.retract_fact(atom)
            assert _interpretation(kernel_kb) == _interpretation(modular_kb), (
                action,
                atom,
            )
        # The kernel session really took the incremental path.
        assert kernel_kb.last_update.mode == "delta"


class TestFallbacks:
    def test_non_ground_rules_fall_back_to_rebuild(self):
        kb = KnowledgeBase(
            GAME_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        assert not kb.is_incremental
        kb.solution
        kb.assert_fact("move", "d", "e")
        kb.solution
        assert kb.last_update.mode == "rebuild"
        oracle = KnowledgeBase(
            GAME_TEXT, config=EngineConfig(semantics="well-founded")
        )
        oracle.assert_fact("move", "d", "e")
        assert _interpretation(kb) == _interpretation(oracle)

    def test_monolithic_engine_bypasses_kernel(self):
        kb = KnowledgeBase(
            GROUND_TEXT,
            config=EngineConfig(semantics="well-founded", engine="monolithic"),
        )
        assert not kb.is_incremental
        oracle = KnowledgeBase(
            GROUND_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        assert _interpretation(kb) == _interpretation(oracle)

    @pytest.mark.parametrize("semantics", ["stable", "stratified", "horn"])
    def test_non_wfs_semantics_bypass_kernel(self, semantics):
        # Horn requires a definite program; the others exercise negation.
        text = "a. b :- a." if semantics == "horn" else "a. b :- a. c :- b, not d."
        kb = KnowledgeBase(
            text, config=EngineConfig(semantics=semantics, engine="kernel")
        )
        assert not kb.is_incremental
        with_kernel = solve(text, config=EngineConfig(semantics=semantics, engine="kernel"))
        plain = solve(text, config=EngineConfig(semantics=semantics, engine="modular"))
        assert with_kernel.interpretation == plain.interpretation

    def test_solve_component_leaves_truth_untouched(self):
        compiled = get_kernel(build_context(parse_program("p :- not q.")))
        kernel = ComponentKernel(compiled)
        p = compiled.table.id_of(parse_atom("p"))
        # q is false (no rules); p's component reads it from the truth
        # vector, and the re-solve reports p true without writing it.
        kernel.truth[compiled.table.id_of(parse_atom("q"))] = 2
        true_ids, false_ids, method, *_ = kernel.solve_component(compiled.comp_of[p])
        assert list(true_ids) == [p] and not list(false_ids)
        assert method == "horn"
        assert kernel.truth[p] == 0

    def test_kernel_session_matches_monolithic_oracle(self):
        rules = parse_program("p :- not q. q :- r. win :- not lose. lose :- not win.")
        engine = IncrementalEngine(rules)
        engine.refresh(frozenset({parse_atom("r")}), None)
        oracle = solve(
            "r. " + " ".join(str(rule) for rule in rules),
            config=EngineConfig(semantics="well-founded", engine="monolithic"),
        )
        assert engine.model == oracle.interpretation
        assert engine.base == oracle.base
        assert engine.model.is_true(parse_atom("q"))
        assert engine.model.is_false(parse_atom("p"))

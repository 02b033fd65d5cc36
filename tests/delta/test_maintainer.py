"""Unit tests for atom-level delta maintenance (repro.delta).

The maintainer is exercised the way its one real caller drives it —
through :class:`~repro.session.IncrementalEngine` — plus direct
:func:`classify_component` checks on the method dispatch.  Every
maintained model is compared against a from-scratch solve of the same
program.
"""

import pytest

from repro.config import EngineConfig
from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.datalog.rules import Program
from repro.delta import DeltaMaintainer, classify_component
from repro.engine.solver import solve_configured
from repro.session import IncrementalEngine, KnowledgeBase

WFS = EngineConfig(semantics="well-founded")


class _Harness:
    """One engine plus the mutable fact set and the rules to re-solve."""

    def __init__(self, text: str):
        program = parse_program(text)
        self.rules = Program(rule for rule in program if not rule.is_fact)
        self.facts = {rule.head for rule in program.facts()}
        self.engine = IncrementalEngine(self.rules)
        self.engine.refresh(frozenset(self.facts), None)

    def refresh(self, atom_name: str, *, add: bool):
        atom = Atom(atom_name, ())
        (self.facts.add if add else self.facts.discard)(atom)
        return self.engine.refresh(frozenset(self.facts), {atom})

    def check(self):
        text = "\n".join(f"{atom}." for atom in sorted(self.facts, key=str))
        program = Program(list(self.rules) + list(parse_program(text)))
        scratch = solve_configured(program, WFS).interpretation
        assert self.engine.model == scratch, "maintained model diverged"


class TestClassify:
    def _methods(self, text):
        harness = _Harness(text)
        compiled = harness.engine._kernel.compiled
        atoms = compiled.table.atoms
        comp_off = compiled.comp_off
        return {
            frozenset(
                str(atoms[i]) for i in compiled.comp_atoms[comp_off[c] : comp_off[c + 1]]
            ): classify_component(compiled, c)
            for c in range(compiled.n_components)
        }

    def test_stratified_singletons_use_counting(self):
        methods = self._methods("a. b :- a, not c. d :- b.")
        assert methods[frozenset({"b"})] == "counting"
        assert methods[frozenset({"d"})] == "counting"

    def test_positive_recursion_uses_dred(self):
        methods = self._methods("p :- q. q :- p. q :- seed. seed.")
        assert methods[frozenset({"p", "q"})] == "dred"

    def test_positive_self_loop_uses_dred(self):
        # A singleton that feeds itself positively still needs
        # overdelete/rederive: a counter would count its own support.
        methods = self._methods("p :- p. p :- seed. seed.")
        assert methods[frozenset({"p"})] == "dred"

    def test_negation_through_recursion_falls_back_to_resolve(self):
        methods = self._methods("p :- not q. q :- not p.")
        assert methods[frozenset({"p", "q"})] == "resolve"


class TestCountingMaintenance:
    TEXT = "a. b :- a, not c. e :- b, not d. f :- e."

    def test_toggle_matches_scratch(self):
        harness = _Harness(self.TEXT)
        for name, add in [("c", True), ("d", True), ("c", False), ("a", False)]:
            stats = harness.refresh(name, add=add)
            assert stats.mode == "delta"
            assert set(stats.methods) <= {"counting"}
            harness.check()

    def test_redundant_support_is_cheap(self):
        # b already holds through a; a second support must not recompute
        # anything downstream — the verdict never moves.
        harness = _Harness("a. b :- a. b :- extra. g :- b.")
        stats = harness.refresh("extra", add=True)
        assert stats.mode == "delta"
        assert stats.components_recomputed <= 2  # extra itself + b's counters
        harness.check()


class TestDredMaintenance:
    # Mutual recursion with an external seed and a redundant side door.
    TEXT = "seed. p :- seed. p :- q. q :- p. q :- door."

    def test_overdelete_rederive_cycle(self):
        harness = _Harness(self.TEXT)
        # Open the side door (redundant support), then cut the seed: the
        # cycle must survive through the door — and die once both are gone
        # (mutual support alone is not well-founded).
        harness.refresh("door", add=True)
        harness.check()
        stats = harness.refresh("seed", add=False)
        assert stats.mode == "delta"
        harness.check()
        assert Atom("p", ()) in harness.engine.model.true_atoms
        harness.refresh("door", add=False)
        harness.check()
        assert Atom("p", ()) not in harness.engine.model.true_atoms

    def test_dred_method_surfaces_in_stats(self):
        harness = _Harness(self.TEXT)
        stats = harness.refresh("seed", add=False)
        assert "dred" in stats.methods
        assert "dred" in harness.engine.last_update.methods


class TestResolveFallback:
    TEXT = "p :- not q, gate. q :- not p."

    def test_negative_loop_component_is_re_solved(self):
        harness = _Harness(self.TEXT)
        stats = harness.refresh("gate", add=True)
        assert stats.mode == "delta"
        assert "resolve" in stats.methods
        harness.check()
        stats = harness.refresh("gate", add=False)
        assert "resolve" in stats.methods
        harness.check()


class TestSolvedStateIsTheTruthVector:
    def test_maintenance_writes_the_kernel_truth_vector(self):
        harness = _Harness("a. b :- a, not c.")
        kernel = harness.engine._kernel
        b = kernel.compiled.table.id_of(Atom("b", ()))
        assert kernel.truth[b] == 1
        stats = harness.refresh("c", add=True)
        assert stats.mode == "delta"
        assert kernel.truth[b] == 2
        harness.check()

    def test_maintainer_is_rebuilt_after_a_full_solve(self):
        harness = _Harness("a. b :- a, not c.")
        harness.refresh("c", add=True)
        first = harness.engine._delta
        assert first is not None
        harness.engine.refresh(frozenset(harness.facts), None)
        assert harness.engine._delta is None
        harness.refresh("c", add=False)
        assert harness.engine._delta is not first
        harness.check()


class TestPendingChanges:
    def test_duplicate_same_direction_events_stay_pending(self):
        # Regression: a listener replay (or a rollback's inverse replay)
        # delivers the same direction twice; a symmetric toggle would
        # cancel the change and the refresh would silently skip it.
        harness = _Harness("a. b :- a.")
        engine = harness.engine
        atom = Atom("c", ())
        engine._record_change(atom, True)
        engine._record_change(atom, True)
        assert atom in engine.pending_changes
        harness.facts.add(atom)
        engine.refresh_pending(frozenset(harness.facts))
        assert engine.pending_changes == frozenset()

    def test_assert_retract_pair_cancels(self):
        harness = _Harness("a. b :- a.")
        engine = harness.engine
        atom = Atom("c", ())
        engine._record_change(atom, True)
        engine._record_change(atom, False)
        assert engine.pending_changes == frozenset()

    def test_failed_refresh_keeps_pending_queued(self, monkeypatch):
        harness = _Harness("a. b :- a, not c.")
        engine = harness.engine
        atom = Atom("c", ())
        engine._record_change(atom, True)
        harness.facts.add(atom)

        def boom(self, *args, **kwargs):
            raise RuntimeError("maintenance pass died")

        monkeypatch.setattr(DeltaMaintainer, "apply", boom)
        with pytest.raises(RuntimeError):
            engine.refresh_pending(frozenset(harness.facts))
        # Drained only on success: the same delta is retried next call.
        assert atom in engine.pending_changes
        monkeypatch.undo()
        engine.refresh_pending(frozenset(harness.facts))
        assert engine.pending_changes == frozenset()
        harness.check()


class TestSessionDefaults:
    def test_knowledge_base_defaults_to_delta(self):
        kb = KnowledgeBase("a. b :- a, not c.", config=WFS)
        kb.solution
        kb.assert_fact("c")
        assert kb.is_false("b")
        assert kb.last_update.mode == "delta"

    def test_session_delta_matches_scratch_solve(self):
        kb = KnowledgeBase("a. b :- a, not c. d :- not b.", config=WFS)
        kb.solution
        kb.assert_fact("c")
        assert kb.is_true("d")
        assert kb.last_update.mode == "delta"
        scratch = solve_configured(kb._program(), WFS)
        assert kb.solution.interpretation == scratch.interpretation
        assert kb.solution.base == scratch.base

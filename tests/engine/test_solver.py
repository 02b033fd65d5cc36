"""Unit tests for the high-level solve() API."""

import pytest

from repro.config import EngineConfig
from repro.datalog import Database, parse_program
from repro.datalog.atoms import atom
from repro.engine.solver import SUPPORTED_SEMANTICS, solve
from repro.exceptions import EvaluationError, NotStratifiedError
from repro.fixpoint.interpretations import TruthValue

TC_TEXT = """
edge(1, 2). edge(2, 3). node(1). node(2). node(3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
ntc(X, Y) :- node(X), node(Y), not tc(X, Y).
"""


class TestSolve:
    def test_accepts_text_or_program(self):
        from_text = solve(TC_TEXT)
        from_program = solve(parse_program(TC_TEXT))
        assert from_text.relation("tc") == from_program.relation("tc")

    def test_auto_picks_cheapest_semantics(self):
        assert solve("a. b :- a.").semantics == "horn"
        assert solve(TC_TEXT).semantics == "stratified"
        assert solve("wins(X) :- move(X, Y), not wins(Y). move(a, b).").semantics == (
            "alternating-fixpoint"
        )

    def test_relation_unwraps_constants(self):
        solution = solve(TC_TEXT)
        assert solution.relation("tc") == {(1, 2), (2, 3), (1, 3)}
        assert (3, 1) in solution.relation("ntc")

    def test_truth_value_queries(self):
        solution = solve(TC_TEXT)
        assert solution.is_true("tc", 1, 3)
        assert solution.is_false("tc", 3, 1)
        assert solution.value_of(atom("tc", 9, 9)) is TruthValue.FALSE

    def test_undefined_relation_for_partial_models(self):
        solution = solve("move(a, b). move(b, a). wins(X) :- move(X, Y), not wins(Y).")
        assert solution.undefined_relation("wins") == {("a",), ("b",)}
        assert not solution.is_total

    def test_database_attachment(self):
        rules = "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."
        database = Database.from_tuples({"edge": [(1, 2), (2, 3)]})
        solution = solve(rules, database=database)
        assert solution.is_true("tc", 1, 3)

    def test_explicit_semantics_selection(self):
        for semantics in ("alternating-fixpoint", "well-founded", "stratified", "stable"):
            solution = solve(TC_TEXT, semantics=semantics)
            assert solution.is_true("ntc", 3, 1), semantics

    def test_fitting_and_inflationary_selectable(self):
        text = "p :- not q. q :- r."
        assert solve(text, semantics="fitting").is_true("p")
        assert solve(text, semantics="inflationary").is_true("p")

    def test_unknown_semantics_rejected(self):
        with pytest.raises(EvaluationError):
            solve("p.", semantics="magic")

    def test_stratified_semantics_on_unstratified_program_fails(self):
        with pytest.raises(NotStratifiedError):
            solve("p :- not p.", semantics="stratified")

    def test_stable_semantics_requires_a_stable_model(self):
        with pytest.raises(EvaluationError):
            solve("p :- not p.", semantics="stable")

    def test_stable_intersection_semantics(self):
        solution = solve("p :- q. p :- r. q :- not r. r :- not q.", semantics="stable")
        assert solution.is_true("p")
        assert solution.is_undefined("q")

    def test_supported_semantics_constant(self):
        assert "alternating-fixpoint" in SUPPORTED_SEMANTICS
        assert "auto" in SUPPORTED_SEMANTICS

    def test_is_total_flag(self):
        assert solve(TC_TEXT).is_total
        assert not solve("p :- not q. q :- not p.").is_total


class TestEngineSelection:
    GAME = "move(a, b). move(b, a). move(b, c). wins(X) :- move(X, Y), not wins(Y)."

    def test_engines_agree_on_wfs_semantics(self):
        for semantics in ("alternating-fixpoint", "well-founded"):
            modular = solve(self.GAME, config=EngineConfig(semantics=semantics, engine="modular"))
            monolithic = solve(
                self.GAME, config=EngineConfig(semantics=semantics, engine="monolithic")
            )
            assert modular.interpretation == monolithic.interpretation
            assert modular.engine == "modular"
            assert monolithic.engine == "monolithic"

    def test_default_engine_is_modular(self):
        from repro.engine.solver import DEFAULT_ENGINE

        assert DEFAULT_ENGINE == "modular"
        assert solve(self.GAME).engine == "modular"

    def test_unknown_engine_rejected(self):
        with pytest.raises(EvaluationError):
            solve(self.GAME, config=EngineConfig(engine="hyperdrive"))

    def test_engine_constant_exported(self):
        from repro.engine.solver import EVALUATION_ENGINES

        assert set(EVALUATION_ENGINES) == {"modular", "monolithic", "kernel"}

"""Unit tests for program classification."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.classification import classify, recommend_semantics
from repro.datalog.parser import parse_program
from repro.engine.solver import resolve_auto_semantics
from repro.workloads import (
    random_negative_loop_program,
    random_nonground_program,
    random_propositional_program,
)


class TestClassification:
    def test_horn_program(self):
        classification = classify(parse_program("p :- q. q."))
        assert classification.is_definite
        assert classification.is_stratified
        assert classification.is_locally_stratified
        assert classification.recommended_semantics == "horn"

    def test_stratified_program(self, ntc_program):
        classification = classify(ntc_program)
        assert not classification.is_definite
        assert classification.is_stratified
        assert classification.recommended_semantics == "stratified"
        assert classification.has_total_well_founded_model

    def test_unstratified_program(self, win_move_4b):
        classification = classify(win_move_4b)
        assert not classification.is_stratified
        assert not classification.is_locally_stratified
        assert classification.recommended_semantics == "alternating-fixpoint"

    def test_locally_but_not_globally_stratified(self):
        program = parse_program(
            """
            even(0).
            even(2) :- not even(1).
            even(1) :- not even(0).
            """
        )
        classification = classify(program)
        assert not classification.is_stratified
        assert classification.is_locally_stratified

    def test_check_local_flag_skips_grounding(self, win_move_4b):
        classification = classify(win_move_4b, check_local=False)
        assert not classification.is_locally_stratified

    def test_summary_keys(self):
        summary = classify(parse_program("p.")).summary()
        assert {"definite", "stratified", "recommended_semantics"} <= set(summary)

    def test_ground_and_propositional_flags(self):
        classification = classify(parse_program("p :- not q."))
        assert classification.is_ground
        assert classification.is_propositional


class TestRecommendSemanticsFastPath:
    """``recommend_semantics`` (the ``auto`` resolver) reads only the
    definite and stratified flags; it must agree with the full
    classification on every program."""

    @given(
        program=st.one_of(
            st.builds(
                random_propositional_program,
                atoms=st.integers(1, 8),
                rules=st.integers(0, 12),
                seed=st.integers(0, 10_000),
                negation_probability=st.sampled_from([0.0, 0.2, 0.5]),
            ),
            st.builds(
                random_nonground_program,
                constants=st.integers(1, 3),
                facts=st.integers(0, 6),
                rules=st.integers(0, 6),
                seed=st.integers(0, 10_000),
                negation_probability=st.sampled_from([0.0, 0.25, 0.6]),
            ),
            st.builds(
                random_negative_loop_program,
                pairs=st.integers(0, 4),
                seed=st.integers(0, 10_000),
            ),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_classify(self, program):
        assert recommend_semantics(program) == classify(program).recommended_semantics

    def test_solver_resolves_auto_through_the_fast_path(self, ntc_program, win_move_4b):
        assert resolve_auto_semantics(parse_program("p :- q. q.")) == "horn"
        assert resolve_auto_semantics(ntc_program) == "stratified"
        assert resolve_auto_semantics(win_move_4b) == "alternating-fixpoint"

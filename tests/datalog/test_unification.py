"""Unit tests for matching and unification."""

from repro.datalog.atoms import atom
from repro.datalog.terms import Compound, Constant, Variable
from repro.datalog.unification import (
    apply_substitution,
    compose,
    match_atom,
    match_term,
    unify_atoms,
    unify_terms,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


class TestMatching:
    def test_variable_matches_anything(self):
        assert match_term(X, a) == {X: a}
        assert match_term(X, Compound("f", (a,))) == {X: Compound("f", (a,))}

    def test_constant_matches_itself_only(self):
        assert match_term(a, a) == {}
        assert match_term(a, b) is None

    def test_compound_matches_structurally(self):
        pattern = Compound("f", (X, b))
        assert match_term(pattern, Compound("f", (a, b))) == {X: a}
        assert match_term(pattern, Compound("f", (a, a))) is None
        assert match_term(pattern, Compound("g", (a, b))) is None

    def test_repeated_variable_must_match_same_value(self):
        pattern = atom("p", "X", "X")
        assert match_atom(pattern, atom("p", 1, 1)) == {X: Constant(1)}
        assert match_atom(pattern, atom("p", 1, 2)) is None

    def test_binding_is_threaded(self):
        binding = match_atom(atom("p", "X"), atom("p", 1))
        assert match_atom(atom("q", "X"), atom("q", 2), binding) is None
        assert match_atom(atom("q", "X"), atom("q", 1), binding) == {X: Constant(1)}

    def test_predicate_mismatch(self):
        assert match_atom(atom("p", "X"), atom("q", 1)) is None
        assert match_atom(atom("p", "X"), atom("p", 1, 2)) is None

    def test_input_binding_not_mutated(self):
        binding = {X: a}
        match_atom(atom("p", "Y"), atom("p", 1), binding)
        assert binding == {X: a}


class TestUnification:
    def test_unify_variable_with_constant(self):
        assert unify_terms(X, a) == {X: a}
        assert unify_terms(a, X) == {X: a}

    def test_unify_two_variables(self):
        result = unify_terms(X, Y)
        assert result in ({X: Y}, {Y: X})

    def test_unify_compounds(self):
        left = Compound("f", (X, b))
        right = Compound("f", (a, Y))
        unifier = unify_terms(left, right)
        assert apply_substitution(left, unifier) == apply_substitution(right, unifier)

    def test_unifier_is_idempotent(self):
        # g(X, a) = g(Y, X): X ↦ Y then Y ↦ a; one application must unify.
        left = Compound("g", (X, a))
        right = Compound("g", (Y, X))
        unifier = unify_terms(left, right)
        assert unifier == {X: a, Y: a}
        assert apply_substitution(left, unifier) == apply_substitution(right, unifier)

    def test_unify_failure_on_clash(self):
        assert unify_terms(Compound("f", (a,)), Compound("g", (a,))) is None
        assert unify_terms(a, b) is None

    def test_occurs_check(self):
        assert unify_terms(X, Compound("f", (X,))) is None

    def test_unify_atoms(self):
        unifier = unify_atoms(atom("p", "X", "b"), atom("p", "a", "Y"))
        assert unifier == {X: Constant("a"), Y: Constant("b")}

    def test_unify_atoms_mismatch(self):
        assert unify_atoms(atom("p", "X"), atom("q", "X")) is None


class TestCompose:
    def test_compose_applies_second_to_first(self):
        first = {X: Y}
        second = {Y: a}
        composed = compose(first, second)
        assert composed[X] == a
        assert composed[Y] == a

    def test_compose_keeps_first_bindings(self):
        composed = compose({X: a}, {Y: b})
        assert composed == {X: a, Y: b}

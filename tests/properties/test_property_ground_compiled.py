"""Differential property tests: the int grounder ≡ the scan and naive oracles.

:func:`repro.kernel.ground.ground_compiled` grounds straight into the
kernel IR, so its output is checked *decoded*: the compiled rules (head,
positive and negative body atoms), the EDB facts and the atom base must
equal the relevant grounding computed by the original linear-scan matcher
(``grounder="relevant-scan"``), and the well-founded model evaluated over
the IR must equal — true, false and undefined sets — both the monolithic
alternating fixpoint over the scan grounding and, for function-free
programs, the one over the literal Herbrand instantiation ``naive_ground``
(on which every atom the relevant grounders drop must come out false).

Programs come from :func:`repro.workloads.random_nonground_program` with
the EDB in the program, in a :class:`MemoryStore` or in a
:class:`SqliteStore`, plus a compound-term family built from rule
templates with function symbols.  Limits are exercised too: unsafe rules,
``max_rules`` (which must trip exactly when the scan oracle's does), an
already expired ``max_seconds`` and a :class:`Budget` whose token trips
at every possible checkpoint in the middle of a grounding.  Ground
programs are interned as they stand, with no limits, as the ground-program
pass-through always has been.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.datalog.grounding import GroundingLimits, naive_ground, relevant_ground
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.exceptions import Cancelled, GroundingError, GroundingTimeout, SafetyError
from repro.kernel.eval import solve_compiled
from repro.kernel.ground import ground_compiled
from repro.resilience.budget import Budget, CancelToken, metered
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import random_nonground_program

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

programs = st.builds(
    random_nonground_program,
    constants=st.integers(2, 4),
    edb_relations=st.integers(1, 3),
    idb_relations=st.integers(1, 3),
    facts=st.integers(0, 10),
    rules=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)

#: Safe rule templates with function symbols: compound heads, compound
#: patterns matched against rows, fully bound compound keys, compound
#: negative literals and compound EDB facts.
COMPOUND_RULES = (
    "w(f(X)) :- e(X).",
    "w(g(X, Y)) :- pair(X, Y).",
    "v(X) :- w(f(X)), not w(g(X, X)).",
    "u(Y) :- w(g(Y, Z)), e(Z).",
    "h(f(f(X))) :- w(f(X)), not u(X).",
    "k(X) :- holds(f(X)), w(f(X)).",
    "m(Y) :- h(Y), not v(Y).",
    "n(X, Y) :- pair(X, Y), not w(g(Y, X)).",
    "c(X) :- h(f(Y)), w(Y), e(X).",
)
CONSTANTS = ("a", "b", "c")


@st.composite
def compound_programs(draw):
    rules = draw(st.lists(st.sampled_from(COMPOUND_RULES), min_size=1, max_size=6))
    facts = []
    for constant in draw(st.lists(st.sampled_from(CONSTANTS), max_size=3)):
        facts.append(f"e({constant}).")
    for left, right in draw(
        st.lists(st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS)), max_size=3)
    ):
        facts.append(f"pair({left}, {right}).")
    for constant in draw(st.lists(st.sampled_from(CONSTANTS), max_size=2)):
        facts.append(f"holds(f({constant})).")
    return parse_program("\n".join(facts + rules))


def _split(program: Program):
    rules = Program(rule for rule in program if not rule.is_fact)
    facts = [rule.head for rule in program if rule.is_fact]
    return rules, facts


def _store(kind: str, facts):
    store = MemoryStore() if kind == "memory" else SqliteStore(":memory:")
    for fact in facts:
        store.add_atom(fact)
    return store


def _compiled(program: Program, store_kind: str, **kwargs):
    """``ground_compiled`` with the EDB in the program or in a store."""
    if store_kind == "program":
        return ground_compiled(program, **kwargs)
    rules, facts = _split(program)
    store = _store(store_kind, facts)
    try:
        return ground_compiled(rules, store=store, **kwargs)
    finally:
        store.close()


def _decoded_rules(compiled):
    atoms = compiled.table.atoms
    rules = set()
    for rule in range(compiled.n_rules):
        positive = compiled.pos_atoms[compiled.pos_off[rule] : compiled.pos_off[rule + 1]]
        negative = compiled.neg_atoms[compiled.neg_off[rule] : compiled.neg_off[rule + 1]]
        rules.add(
            (
                atoms[compiled.heads[rule]],
                frozenset(atoms[i] for i in positive),
                frozenset(atoms[i] for i in negative),
            )
        )
    return rules


def _context_rules(context):
    return {
        (rule.head, frozenset(rule.positive_body), frozenset(rule.negative_body))
        for rule in context.rules
    }


def _verdicts(model, base):
    true, false = set(model.true_atoms), set(model.false_atoms)
    return true, false, set(base) - true - false


def _assert_matches_oracles(program: Program, store_kind: str, naive_oracle: bool = True) -> None:
    compiled = _compiled(program, store_kind)
    scan = build_context(program, grounder="relevant-scan")

    # The IR decoded: rules, EDB and atom base equal the scan grounding.
    assert _decoded_rules(compiled) == _context_rules(scan)
    atoms = compiled.table.atoms
    assert {atoms[i] for i in compiled.fact_ids} == set(scan.facts)
    assert set(atoms) == set(scan.base)
    assert len(atoms) == len(set(atoms)), "atom ids must be a bijection"

    # The model over the IR equals the monolithic oracle on the scan grounding.
    model, *_ = solve_compiled(compiled)
    got = _verdicts(model, atoms)
    oracle = alternating_fixpoint(scan)
    assert got == _verdicts(oracle.model, scan.base)

    if not naive_oracle:
        return
    # ... and on the literal Herbrand instantiation, where every atom the
    # relevant grounding dropped is false.
    naive = build_context(naive_ground(program))
    naive_true, naive_false, naive_undefined = _verdicts(
        alternating_fixpoint(naive).model, naive.base
    )
    true, false, undefined = got
    assert true == naive_true
    assert undefined == naive_undefined
    assert false <= naive_false
    assert naive_false - false == set(naive.base) - set(atoms)


@pytest.mark.parametrize("store_kind", ["program", "memory", "sqlite"])
class TestMatchesOracles:
    @SETTINGS
    @given(program=programs)
    def test_random_nonground_programs(self, store_kind, program):
        _assert_matches_oracles(program, store_kind)

    @SETTINGS
    @given(program=compound_programs())
    def test_compound_term_programs(self, store_kind, program):
        # Function symbols make the Herbrand universe infinite, and any depth
        # bound truncates the naive instantiation, so only the scan oracle
        # (which needs no bound) applies.
        _assert_matches_oracles(program, store_kind, naive_oracle=False)


class TestLimits:
    def test_unsafe_rules_raise_like_the_oracle(self):
        program = parse_program("e(1). p(X) :- e(Y), not q(X).")
        with pytest.raises(SafetyError):
            relevant_ground(program, matcher="scan")
        with pytest.raises(SafetyError):
            ground_compiled(program)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @given(program=programs, data=st.data())
    def test_max_rules_trips_exactly_when_the_oracle_does(self, program, data):
        # Ground programs pass through unlimited, as they always have.
        assume(not program.is_ground)
        total = len(relevant_ground(program, matcher="scan"))
        limit = data.draw(st.integers(0, total + 1), label="max_rules")
        limits = GroundingLimits(max_rules=limit)
        outcomes = []
        for run in (
            lambda: relevant_ground(program, limits, matcher="scan"),
            lambda: ground_compiled(program, limits=limits),
        ):
            try:
                run()
                outcomes.append(None)
            except GroundingError as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1]

    @SETTINGS
    @given(program=programs)
    def test_expired_deadline_raises_grounding_timeout(self, program):
        assume(not program.is_ground)
        limits = GroundingLimits(max_seconds=0)
        with pytest.raises(GroundingTimeout):
            relevant_ground(program, limits, matcher="scan")
        if any(rule.body for rule in program):
            with pytest.raises(GroundingTimeout):
                ground_compiled(program, limits=limits)

    @settings(max_examples=20, deadline=None)
    @given(program=programs, data=st.data())
    def test_budget_trips_mid_grounding(self, program, data):
        counter = _TripAfter(10**9)
        with metered(Budget(token=counter)):
            expected = _decoded_rules(ground_compiled(program))
        checkpoints = 10**9 - counter.remaining
        if not checkpoints:
            return
        trip = data.draw(st.integers(0, checkpoints - 1), label="trip")
        with pytest.raises(Cancelled):
            with metered(Budget(token=_TripAfter(trip))):
                ground_compiled(program)
        # The aborted run left nothing behind: a fresh grounding agrees.
        assert _decoded_rules(ground_compiled(program)) == expected


class _TripAfter(CancelToken):
    """A token that reports cancellation from its ``n + 1``-th read on."""

    __slots__ = ("remaining",)

    def __init__(self, n: int) -> None:
        super().__init__()
        self.remaining = n

    @property
    def cancelled(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0

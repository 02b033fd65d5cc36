"""Unit tests for the int-level grounder that feeds the kernel IR."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.context import build_context
from repro.datalog.atoms import atom
from repro.datalog.grounding import GroundingLimits, relevant_ground
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.terms import Constant
from repro.exceptions import GroundingError, SafetyError
from repro.kernel.eval import solve_compiled
from repro.kernel.ground import IntGrounding, ground_compiled, join_order
from repro.obs import TraceRecorder
from repro.storage import MemoryStore

TC = """
edge(1, 2). edge(2, 3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""


def ground(predicate, *values):
    return atom(predicate, *(Constant(v) for v in values))


def rule_set(compiled):
    """The compiled rules as (head, positive, negative) atom triples."""
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


def heads_of(text):
    compiled = ground_compiled(parse_program(text))
    return {compiled.table.atoms[head] for head in compiled.heads}


def vars_of(*conjuncts):
    """Per conjunct and position, the variable names an argument mentions."""
    return [
        [frozenset(arg.split("+")) if arg[0].isupper() else frozenset() for arg in conjunct]
        for conjunct in conjuncts
    ]


class TestJoinOrder:
    def test_seed_comes_first_then_most_bound(self):
        # sg(P, Q) shares both variables with the two parent conjuncts.
        conjuncts = vars_of(("P", "X"), ("Q", "Y"), ("P", "Q"))
        order = join_order(conjuncts, [(0, 1), (0, 1), (0, 1)], seed=2)
        # After the sg delta binds P and Q, both parent conjuncts have one
        # bound position; the leftmost wins the tie.
        assert order == (2, 0, 1)

    def test_smaller_window_breaks_ties(self):
        conjuncts = vars_of(("X",), ("Y",))
        assert join_order(conjuncts, [(0, 5), (0, 1)]) == (1, 0)

    def test_already_bound_variables_count(self):
        conjuncts = vars_of(("X", "Y"), ("Y", "Z"))
        windows = [(0, 4), (0, 4)]
        assert join_order(conjuncts, windows, bound=frozenset({"X"})) == (0, 1)
        assert join_order(conjuncts, windows, bound=frozenset({"Z"})) == (1, 0)


class TestIntJoins:
    def test_two_way_join(self):
        heads = heads_of("e(1, 2). e(2, 3). t(2, 3). t(3, 3). j(X, Y) :- e(X, Z), t(Z, Y).")
        assert heads == {ground("j", 1, 3), ground("j", 2, 3)}

    def test_recursion_reaches_the_fixpoint(self):
        heads = heads_of(TC)
        assert heads == {ground("tc", 1, 2), ground("tc", 2, 3), ground("tc", 1, 3)}

    def test_repeated_variables_filtered(self):
        assert heads_of("e(1, 1). e(1, 2). loop(X) :- e(X, X).") == {ground("loop", 1)}

    def test_constants_probe_the_index(self):
        heads = heads_of("e(1, 2). e(2, 2). e(2, 3). out(Y) :- e(2, Y).")
        assert heads == {ground("out", 2), ground("out", 3)}

    def test_missing_relation_and_arity_are_keyed_apart(self):
        assert heads_of("e(1, 2). p(X) :- missing(X). q(X) :- e(X).") == set()

    def test_fully_bound_conjunct_is_a_membership_probe(self):
        heads = heads_of("e(1, 2). e(2, 1). e(2, 3). sym(X, Y) :- e(X, Y), e(Y, X).")
        assert heads == {ground("sym", 1, 2), ground("sym", 2, 1)}


class TestCompoundTerms:
    PROGRAM = """
    e(a). e(b). pair(a, b). holds(f(a)).
    w(f(X)) :- e(X).
    w(g(X, Y)) :- pair(X, Y).
    v(X) :- w(f(X)), not w(g(X, X)).
    u(Y) :- w(g(Y, Z)), e(Z).
    h(f(f(X))) :- w(f(X)), not u(X).
    k(X) :- holds(f(X)), w(f(X)).
    """

    def test_rule_set_matches_the_scan_oracle(self):
        program = parse_program(self.PROGRAM)
        scan = build_context(program, grounder="relevant-scan")
        expected = {
            (rule.head, frozenset(rule.positive_body), frozenset(rule.negative_body))
            for rule in scan.rules
        }
        compiled = ground_compiled(program)
        assert rule_set(compiled) == expected
        assert set(compiled.table.atoms) == set(scan.base)

    def test_compound_heads_are_built_and_matched(self):
        compiled = ground_compiled(parse_program(self.PROGRAM))
        model, *_ = solve_compiled(compiled)
        assert parse_atom("u(a)") in model.true_atoms
        assert parse_atom("h(f(f(a)))") in model.false_atoms
        assert parse_atom("h(f(f(b)))") in model.true_atoms
        assert parse_atom("k(a)") in model.true_atoms


class TestGroundCompiled:
    def test_facts_first_and_ids_dense(self):
        compiled = ground_compiled(parse_program(TC))
        assert compiled.n_atoms == len(compiled.table.atoms) == 5
        facts = {compiled.table.atoms[i] for i in compiled.fact_ids}
        assert facts == {ground("edge", 1, 2), ground("edge", 2, 3)}
        assert sorted(compiled.fact_ids) == [0, 1]

    def test_duplicate_instances_collapse(self):
        # Two source rules with the same ground instances emit them once.
        compiled = ground_compiled(parse_program("e(1). p(X) :- e(X). p(Y) :- e(Y)."))
        assert compiled.n_rules == 1

    def test_ground_program_interns_atoms_directly(self):
        program = parse_program("a. p :- a, not q. q :- not p. r :- missing.")
        compiled = ground_compiled(program)
        # The pass-through keeps every rule, supported or not.
        assert compiled.n_rules == 3
        assert set(compiled.table.atoms) == {atom(n) for n in "apqr"} | {atom("missing")}

    def test_store_facts_join_the_edb(self):
        store = MemoryStore()
        store.load({"edge": [(1, 2), (2, 3)]})
        rules = parse_program("tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).")
        assert rule_set(ground_compiled(rules, store=store)) == rule_set(
            ground_compiled(parse_program(TC))
        )
        assert len(store) == 2  # nothing derived leaks into the store

    def test_unsafe_rule_rejected(self):
        with pytest.raises(SafetyError):
            ground_compiled(parse_program("e(1). p(X) :- not e(X)."))

    def test_rule_limit(self):
        with pytest.raises(GroundingError, match="exceeded the limit"):
            ground_compiled(parse_program(TC), limits=GroundingLimits(max_rules=3))

    def test_spans_and_counters(self):
        recorder = TraceRecorder()
        ground_compiled(parse_program(TC), recorder=recorder)
        assert [span.name for span in recorder.spans] == ["ground", "compile"]
        totals = recorder.counter_totals()
        assert totals["ground.rules"] == 3
        assert totals["ground.facts"] == 2
        assert totals["ground.rounds"] >= 2
        assert totals["kernel.atoms"] == 5

    def test_atoms_decoded_lazily_and_once(self):
        grounding = IntGrounding.build(parse_program(TC))
        table = grounding.table()
        assert len(table) == 5
        assert grounding._atoms is None, "len() must not decode"
        assert table.atoms is grounding.atoms() is table.atoms
        assert table.id_of(ground("tc", 1, 3)) is not None

    def test_relevant_ground_drops_unsupported_ground_rules(self):
        program = parse_program("a. p :- a. q :- missing.")
        assert {str(rule) for rule in relevant_ground(program)} == {"a.", "p :- a."}


def test_ids_independent_of_hash_seed():
    """Atom ids come from derivation order only: two interpreters with
    different string-hash seeds assign identical ids."""
    script = (
        "from repro.datalog.parser import parse_program\n"
        "from repro.kernel.ground import ground_compiled\n"
        "c = ground_compiled(parse_program('''wins(X) :- move(X, Y), not wins(Y).\n"
        "tc(X, Y) :- move(X, Y).\ntc(X, Z) :- move(X, Y), tc(Y, Z).\n"
        "move(a, b). move(b, c). move(c, a). move(c, d).'''))\n"
        "print([str(a) for a in c.table.atoms], list(c.heads), list(c.pos_atoms))\n"
    )
    outputs = set()
    for seed in ("1", "2"):
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source_root)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1

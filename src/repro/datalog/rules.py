"""Rules and programs.

A *normal rule* (Definition 3.1 of the paper) has an atom as its head and a
conjunction of literals as its body::

    wins(X) :- move(X, Y), not wins(Y).

A *fact* is a rule with a ground head and an empty body.  A *normal logic
program* is a finite set of normal rules.  :class:`Program` also records the
EDB/IDB split (Section 2.5): a predicate is extensional (EDB) when every
rule for it is a fact, and intensional (IDB) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..exceptions import NotGroundError, SafetyError
from .atoms import Atom, Literal, Predicate
from .terms import Term, Variable

__all__ = ["Rule", "Program"]


@dataclass(frozen=True)
class Rule:
    """A normal rule ``head :- body``.

    The body is stored as a tuple of literals; an empty body makes the rule
    a fact when the head is ground.
    """

    head: Atom
    body: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {body}."

    def __repr__(self) -> str:
        return f"Rule({self.head!r}, {self.body!r})"

    # ------------------------------------------------------------------ #
    # Structural queries
    # ------------------------------------------------------------------ #
    @property
    def is_fact(self) -> bool:
        """True when the rule has no body and a ground head."""
        return not self.body and self.head.is_ground

    @property
    def is_ground(self) -> bool:
        return self.head.is_ground and all(lit.is_ground for lit in self.body)

    @property
    def is_definite(self) -> bool:
        """True when every body literal is positive (a Horn rule)."""
        return all(lit.positive for lit in self.body)

    def positive_body(self) -> tuple[Literal, ...]:
        """The positive literals of the body."""
        return tuple(lit for lit in self.body if lit.positive)

    def negative_body(self) -> tuple[Literal, ...]:
        """The negative literals of the body."""
        return tuple(lit for lit in self.body if lit.negative)

    def variables(self) -> set[Variable]:
        """All variables occurring anywhere in the rule."""
        result = set(self.head.variables())
        for lit in self.body:
            result.update(lit.variables())
        return result

    def head_variables(self) -> set[Variable]:
        return set(self.head.variables())

    def body_predicates(self) -> set[str]:
        return {lit.predicate for lit in self.body}

    def substitute(self, binding: Mapping[Variable, Term]) -> "Rule":
        """Instantiate the rule under a variable binding."""
        return Rule(
            self.head.substitute(binding),
            tuple(lit.substitute(binding) for lit in self.body),
        )

    def check_safety(self) -> None:
        """Raise :class:`SafetyError` unless the rule is range-restricted.

        Safety requires every variable of the head and of each negative body
        literal to occur in at least one positive body literal; this is the
        standard condition that makes the grounding finite relative to the
        active domain.
        """
        positive_vars: set[Variable] = set()
        for lit in self.positive_body():
            positive_vars.update(lit.variables())
        unsafe = {v for v in self.head.variables() if v not in positive_vars}
        for lit in self.negative_body():
            unsafe.update(v for v in lit.variables() if v not in positive_vars)
        if unsafe:
            names = ", ".join(sorted(v.name for v in unsafe))
            raise SafetyError(f"rule '{self}' is unsafe: variable(s) {names} "
                              "do not occur in any positive body literal")


class Program:
    """A normal logic program: an ordered collection of :class:`Rule` objects.

    The program exposes the EDB/IDB split, per-predicate rule indexing, and
    convenience constructors used throughout the library.  Programs are
    conceptually immutable; :meth:`with_facts` and :meth:`with_rules` return
    new programs.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: tuple[Rule, ...] = tuple(rules)
        self._by_head: dict[str, tuple[Rule, ...]] = {}
        by_head: dict[str, list[Rule]] = {}
        for rule in self._rules:
            by_head.setdefault(rule.head.predicate, []).append(rule)
        self._by_head = {name: tuple(rs) for name, rs in by_head.items()}
        self._is_ground: bool | None = None

    # ------------------------------------------------------------------ #
    # Basic container behaviour
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._rules

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return set(self._rules) == set(other._rules)

    def __hash__(self) -> int:
        return hash(frozenset(self._rules))

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self._rules)

    def __repr__(self) -> str:
        return f"Program({len(self._rules)} rules)"

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    # ------------------------------------------------------------------ #
    # Predicate structure
    # ------------------------------------------------------------------ #
    def predicates(self) -> set[str]:
        """All predicate names mentioned anywhere in the program."""
        result: set[str] = set()
        for rule in self._rules:
            result.add(rule.head.predicate)
            result.update(rule.body_predicates())
        return result

    def predicate_signatures(self) -> set[Predicate]:
        """All ``name/arity`` signatures mentioned in the program."""
        result: set[Predicate] = set()
        for rule in self._rules:
            result.add(rule.head.signature)
            result.update(lit.signature for lit in rule.body)
        return result

    def head_predicates(self) -> set[str]:
        """Predicates that appear in some rule head."""
        return set(self._by_head)

    def edb_predicates(self) -> set[str]:
        """Extensional predicates: every rule for them is a fact, or they
        never occur in a head at all (pure input relations)."""
        heads = self.head_predicates()
        edb = {p for p in self.predicates() if p not in heads}
        for predicate, rules in self._by_head.items():
            if all(rule.is_fact for rule in rules):
                edb.add(predicate)
        return edb

    def idb_predicates(self) -> set[str]:
        """Intensional predicates: defined by at least one non-fact rule."""
        return {
            predicate
            for predicate, rules in self._by_head.items()
            if any(not rule.is_fact for rule in rules)
        }

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """The rules whose head predicate is *predicate* (possibly empty)."""
        return self._by_head.get(predicate, ())

    def facts(self) -> tuple[Rule, ...]:
        return tuple(rule for rule in self._rules if rule.is_fact)

    def fact_atoms(self) -> set[Atom]:
        """The set of ground atoms asserted as facts."""
        return {rule.head for rule in self._rules if rule.is_fact}

    def non_fact_rules(self) -> tuple[Rule, ...]:
        return tuple(rule for rule in self._rules if not rule.is_fact)

    # ------------------------------------------------------------------ #
    # Structural properties
    # ------------------------------------------------------------------ #
    @property
    def is_ground(self) -> bool:
        # Computed once: the solve path asks on every call, and programs
        # are immutable.
        if self._is_ground is None:
            self._is_ground = all(rule.is_ground for rule in self._rules)
        return self._is_ground

    @property
    def is_definite(self) -> bool:
        """True when the program is Horn: no negative body literals."""
        return all(rule.is_definite for rule in self._rules)

    @property
    def is_propositional(self) -> bool:
        """True when every atom has arity zero."""
        for rule in self._rules:
            if rule.head.arity:
                return False
            if any(lit.atom.arity for lit in rule.body):
                return False
        return True

    def check_safety(self) -> None:
        """Check every rule for safety; raise :class:`SafetyError` on the
        first violation."""
        for rule in self._rules:
            rule.check_safety()

    def require_ground(self) -> None:
        """Raise :class:`NotGroundError` unless the program is ground."""
        if not self.is_ground:
            offending = next(rule for rule in self._rules if not rule.is_ground)
            raise NotGroundError(f"program is not ground; e.g. rule '{offending}'")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        """Return a new program extended with *rules*."""
        return Program(self._rules + tuple(rules))

    def with_facts(self, atoms: Iterable[Atom]) -> "Program":
        """Return a new program extended with the given ground atoms as facts."""
        new_rules = []
        for fact in atoms:
            if not fact.is_ground:
                raise NotGroundError(f"fact {fact} is not ground")
            new_rules.append(Rule(fact))
        return self.with_rules(new_rules)

    def without_predicates(self, predicates: set[str]) -> "Program":
        """Return a new program dropping every rule whose head predicate is
        in *predicates*."""
        return Program(r for r in self._rules if r.head.predicate not in predicates)

    def restricted_to(self, predicates: set[str]) -> "Program":
        """Return a new program keeping only rules whose head predicate is in
        *predicates*."""
        return Program(r for r in self._rules if r.head.predicate in predicates)

    @classmethod
    def from_rules(cls, *rules: Rule) -> "Program":
        return cls(rules)

    @classmethod
    def union(cls, *programs: "Program") -> "Program":
        combined: list[Rule] = []
        for program in programs:
            combined.extend(program.rules)
        return cls(combined)

    # ------------------------------------------------------------------ #
    # Statistics (used by benchmark reporting)
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict[str, int]:
        """Summary counts used in benchmark output and documentation."""
        return {
            "rules": len(self._rules),
            "facts": len(self.facts()),
            "predicates": len(self.predicates()),
            "idb_predicates": len(self.idb_predicates()),
            "edb_predicates": len(self.edb_predicates()),
            "negative_literals": sum(
                1 for rule in self._rules for lit in rule.body if lit.negative
            ),
        }

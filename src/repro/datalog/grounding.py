"""Herbrand universes, Herbrand bases, and grounding.

Section 3 of the paper defines the Herbrand instantiation ``P_H`` of a
program: every rule is instantiated with ground terms in all possible ways.
The alternating fixpoint, well-founded, and stable semantics are all defined
on this (possibly huge) ground program, so a grounder is the first substrate
the library needs.

Two grounding strategies are provided:

* :func:`naive_ground` — the literal Definition: substitute every tuple of
  universe elements for the rule variables.  Exponential, but exactly the
  ``P_H`` of the paper; useful for small programs and for differential
  testing of the smarter grounder.
* :func:`relevant_ground` — instantiates rules only with substitutions whose
  positive body literals are supported by an over-approximation of the
  derivable atoms (the minimum model of the program with negative literals
  erased).  Negative literals over atoms outside that over-approximation are
  vacuously true and are dropped.  This produces an equivalent ground
  program for every semantics implemented here (atoms outside the
  over-approximation are false in every partial model considered), and it is
  the default used by :func:`ground_program`.

:func:`relevant_ground` itself dispatches between two matchers, mirroring
the ``"seminaive"`` / ``"naive"`` strategy split of :mod:`repro.evaluation`:

* ``"indexed"`` (default) — the int-level semi-naive grounder of
  :mod:`repro.kernel.ground`.  Terms are interned to ints once, each rule
  is compiled to variable slots, and the envelope fixpoint runs
  delta-window hash joins over int-tuple relations, emitting every rule
  instance exactly once.  Its output is the kernel's flat IR; this module
  decodes it to :class:`~repro.datalog.rules.Rule` objects for consumers
  that want objects (:func:`stream_relevant_ground`).  The one-shot
  well-founded solve never decodes rules at all: it hands the IR straight
  to the kernel evaluator.
* ``"scan"`` — the original matcher: a naive envelope fixpoint that
  re-matches every rule against the whole derivable set each round by
  linear scan over per-signature fact lists, then a second pass that
  re-instantiates every rule.  Quadratically slower on recursive
  workloads; kept as the differential-testing oracle.

Programs with function symbols have infinite Herbrand universes; the
``max_depth`` parameter of :func:`naive_ground` bounds the term nesting
considered (all paper experiments are function-free).  The relevant
grounders need no bound: they terminate whenever the positive envelope's
minimum model is finite, and ``max_rules`` guards the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..exceptions import GroundingError
from ..obs.recorder import Recorder
from ..resilience.budget import Budget, current_meter
from .atoms import Atom, Literal
from .rules import Program, Rule
from .terms import Constant, Term, enumerate_ground_terms, term_constants, term_functions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

__all__ = [
    "GroundingLimits",
    "GROUNDING_MATCHERS",
    "DEFAULT_GROUNDING_MATCHER",
    "herbrand_universe",
    "herbrand_base",
    "naive_ground",
    "relevant_ground",
    "stream_relevant_ground",
    "ground_program",
    "grounding_meter",
]

DEFAULT_MAX_GROUND_RULES = 2_000_000

#: Matchers accepted by :func:`relevant_ground`: ``"indexed"`` is the
#: semi-naive hash-join grounder, ``"scan"`` the original linear-scan
#: matcher kept as the differential oracle.
GROUNDING_MATCHERS = ("indexed", "scan")
DEFAULT_GROUNDING_MATCHER = "indexed"


@dataclass(frozen=True)
class GroundingLimits:
    """Resource limits applied during grounding.

    ``max_depth`` bounds compound-term nesting in the Herbrand universe;
    ``max_rules`` aborts the grounding when the instantiated program would
    exceed the given number of rules (protecting against accidental
    combinatorial blow-ups in user programs); ``max_seconds``, when set,
    aborts with :class:`~repro.exceptions.GroundingTimeout` once the
    grounder has spent that much wall-clock time (deadline-bound serving,
    benchmark budgets).
    """

    max_depth: int = 0
    max_rules: int = DEFAULT_MAX_GROUND_RULES
    max_seconds: float | None = None


def grounding_meter(limits: GroundingLimits):
    """The budget meter one grounding run checks against.

    The legacy per-grounding ``limits.max_seconds`` starts a local
    :class:`~repro.resilience.BudgetMeter` chained to the ambient one (a
    solve-level :class:`~repro.resilience.Budget`, when active), so
    whichever deadline is tighter trips first; without a grounding-local
    deadline the ambient meter (or the no-op null meter) is used directly.
    Either way, a wall-clock trip inside grounding raises the legacy
    :class:`~repro.exceptions.GroundingTimeout`.
    """
    ambient = current_meter()
    if limits.max_seconds is not None:
        # The legacy contract admits max_seconds=0 as "already expired";
        # Budget requires a positive deadline, so clamp to one tick.
        seconds = max(limits.max_seconds, 1e-9)
        return Budget(max_seconds=seconds).start(parent=ambient)
    return ambient


def herbrand_universe(program: Program, max_depth: int = 0) -> list[Term]:
    """The ground terms constructible from the program's constants and
    function symbols, up to *max_depth* nesting.

    If the program mentions no constants at all, a single fresh constant
    ``u0`` is invented so that rules with variables still have a non-empty
    instantiation (the standard convention).
    """
    constants: list[Constant] = []
    functions: list[tuple[str, int]] = []
    seen_constants: set[Constant] = set()
    seen_functions: set[tuple[str, int]] = set()

    def collect_from_atom(atom: Atom) -> None:
        for arg in atom.args:
            for constant in term_constants(arg):
                if constant not in seen_constants:
                    seen_constants.add(constant)
                    constants.append(constant)
            for signature in term_functions(arg):
                if signature not in seen_functions:
                    seen_functions.add(signature)
                    functions.append(signature)

    for rule in program:
        collect_from_atom(rule.head)
        for literal in rule.body:
            collect_from_atom(literal.atom)

    if not constants:
        constants.append(Constant("u0"))
    return enumerate_ground_terms(constants, functions, max_depth)


def herbrand_base(
    program: Program,
    universe: Optional[Sequence[Term]] = None,
    predicates: Optional[Iterable[str]] = None,
    max_depth: int = 0,
) -> set[Atom]:
    """The Herbrand base: all ground atoms over the given predicates.

    By default the base is restricted to the IDB predicates, following the
    paper's convention that EDB relations are not mentioned in
    interpretations (Section 3.3).  Pass ``predicates`` explicitly to widen
    or narrow the base.
    """
    if universe is None:
        universe = herbrand_universe(program, max_depth)
    signatures = program.predicate_signatures()
    if predicates is None:
        wanted = program.idb_predicates()
    else:
        wanted = set(predicates)
    base: set[Atom] = set()
    for signature in signatures:
        if signature.name not in wanted:
            continue
        if signature.arity == 0:
            base.add(Atom(signature.name, ()))
            continue
        for combination in itertools.product(universe, repeat=signature.arity):
            base.add(Atom(signature.name, tuple(combination)))
    return base


def naive_ground(program: Program, limits: GroundingLimits | None = None) -> Program:
    """The literal Herbrand instantiation ``P_H`` of the program.

    Each rule is instantiated with every assignment of universe elements to
    its variables.  Raises :class:`GroundingError` when the result would
    exceed ``limits.max_rules``.
    """
    limits = limits or GroundingLimits()
    budget = grounding_meter(limits)
    universe = herbrand_universe(program, limits.max_depth)
    ground_rules: list[Rule] = []
    for rule in program:
        variables = sorted(rule.variables(), key=lambda v: v.name)
        if not variables:
            ground_rules.append(rule)
            continue
        count_estimate = len(universe) ** len(variables)
        if len(ground_rules) + count_estimate > limits.max_rules:
            raise GroundingError(
                f"naive grounding of rule '{rule}' would produce {count_estimate} "
                f"instances, exceeding the limit of {limits.max_rules}"
            )
        for combination in itertools.product(universe, repeat=len(variables)):
            binding = dict(zip(variables, combination))
            ground_rules.append(rule.substitute(binding))
            budget.tick("ground")
    return Program(ground_rules)


def _validate_matcher(matcher: str) -> None:
    if matcher not in GROUNDING_MATCHERS:
        choices = ", ".join(GROUNDING_MATCHERS)
        raise GroundingError(f"unknown grounding matcher {matcher!r}; expected one of: {choices}")


def relevant_ground(
    program: Program,
    limits: GroundingLimits | None = None,
    matcher: str = DEFAULT_GROUNDING_MATCHER,
    store: "FactStore | None" = None,
) -> Program:
    """Instantiate rules only where their positive body is supportable.

    The over-approximation of derivable atoms is the minimum model of the
    *positive envelope* of the program (the Horn program obtained by erasing
    negative body literals), computed bottom-up to a fixpoint.  Rules are
    instantiated by matching their positive body literals against that set,
    threading the variable binding; safety guarantees that all variables
    end up bound.

    Ground negative literals are kept verbatim (even when their atom is
    outside the over-approximation and therefore underivable) so that the
    atoms the paper's examples mention as *false* still occur in the ground
    program and are reported in the computed models.  The resulting ground
    program has the same well-founded, stable, stratified, Horn and
    inflationary models (restricted to the occurring atoms) as the full
    Herbrand instantiation.  The Fitting semantics is the exception: it can
    leave *underivable* atoms undefined (their proof search never finitely
    fails), so :func:`repro.semantics.fitting.fitting_model` grounds naively
    by default.

    *matcher* selects the implementation (see the module docstring):
    ``"indexed"`` — the int-level semi-naive grounder — or ``"scan"`` — the
    original linear-scan oracle.  Both produce the same rule set (the
    property suite asserts this), differing only in enumeration order.

    *store*, when given, supplies EDB facts from a live
    :class:`~repro.storage.FactStore` in addition to the program's own fact
    rules; the indexed matcher interns them (see
    :func:`stream_relevant_ground`), the scan oracle materialises the
    store's facts into the program first.
    """
    _validate_matcher(matcher)
    if matcher == "scan":
        if store is not None:
            program = Program.union(store.as_program(), program)
        return _scan_relevant_ground(program, limits)
    return Program(stream_relevant_ground(program, limits, store=store))


def stream_relevant_ground(
    program: Program,
    limits: GroundingLimits | None = None,
    store: "FactStore | None" = None,
    recorder: Recorder | None = None,
) -> Iterator[Rule]:
    """Yield the ground rules of ``relevant_ground(program)`` (indexed matcher).

    Runs the int grounder (:class:`repro.kernel.ground.IntGrounding`) and
    decodes its output: fact rules first (sorted), then each rule instance
    in derivation order.  *store*, when given, is a live
    :class:`~repro.storage.FactStore` whose facts join the program's own
    fact rules as the EDB; it is read once (its facts are interned) and
    never written.

    *recorder*, when tracing (see :mod:`repro.obs`), accumulates the
    ``ground.rounds`` / ``ground.delta_atoms`` / ``ground.rules_emitted``
    counters — one tally per envelope round, never per row.
    """
    from ..kernel.ground import IntGrounding  # deferred: the kernel imports this module

    grounding = IntGrounding.build(
        program, store=store, limits=limits, recorder=recorder, join_ground=True
    )
    yield from grounding.rules()


def _scan_relevant_ground(program: Program, limits: GroundingLimits | None = None) -> Program:
    """The original matcher: naive envelope fixpoint + linear-scan joins.

    Kept verbatim (modulo the ``(predicate, arity)`` fact index and the
    wall-clock budget) as the differential oracle for the indexed grounder.
    """
    from .unification import match_atom  # local import to avoid a cycle at import time

    limits = limits or GroundingLimits()
    budget = grounding_meter(limits)
    program.check_safety()

    facts = set(program.fact_atoms())
    non_facts = program.non_fact_rules()

    # ------------------------------------------------------------------ #
    # 1. Over-approximate the derivable atoms with the positive envelope.
    # ------------------------------------------------------------------ #
    derivable: set[Atom] = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in non_facts:
            budget.check("ground")
            positive = [lit.atom for lit in rule.body if lit.positive]
            for binding in _match_body(positive, derivable, match_atom):
                budget.tick("ground")
                head = rule.head.substitute(binding)
                if not head.is_ground:
                    raise GroundingError(
                        f"rule '{rule}' produced a non-ground head {head}; "
                        "the rule is unsafe"
                    )
                if head not in derivable:
                    derivable.add(head)
                    changed = True

    # ------------------------------------------------------------------ #
    # 2. Instantiate rules against the over-approximation.
    # ------------------------------------------------------------------ #
    ground_rules: list[Rule] = [Rule(fact) for fact in sorted(facts, key=str)]
    seen: set[Rule] = set(ground_rules)
    for rule in non_facts:
        budget.check("ground")
        positive = [lit.atom for lit in rule.body if lit.positive]
        for binding in _match_body(positive, derivable, match_atom):
            budget.tick("ground")
            head = rule.head.substitute(binding)
            body: list[Literal] = []
            for lit in rule.body:
                if lit.positive:
                    body.append(lit.substitute(binding))
                    continue
                ground_negative = lit.substitute(binding)
                if not ground_negative.is_ground:
                    raise GroundingError(
                        f"negative literal {lit} in rule '{rule}' is not ground "
                        "after binding positive body variables; the rule is unsafe"
                    )
                body.append(ground_negative)
            new_rule = Rule(head, tuple(body))
            if new_rule not in seen:
                seen.add(new_rule)
                ground_rules.append(new_rule)
            if len(ground_rules) > limits.max_rules:
                raise GroundingError(
                    f"grounding exceeded the limit of {limits.max_rules} rules"
                )
    return Program(ground_rules)


def ground_program(
    program: Program,
    limits: GroundingLimits | None = None,
    matcher: str = DEFAULT_GROUNDING_MATCHER,
) -> Program:
    """Ground *program*, returning it unchanged when it is already ground.

    This is the entry point the semantics modules use; it currently
    delegates to :func:`relevant_ground` with the given matcher.
    """
    if program.is_ground:
        return program
    return relevant_ground(program, limits, matcher=matcher)


def _match_body(atoms: Sequence[Atom], facts: set[Atom], match_atom) -> Iterable[dict]:
    """Yield every binding of the variables of *atoms* such that all atoms
    match some fact in *facts* (conjunctive matching, left to right)."""
    if not atoms:
        yield {}
        return
    # Index facts by (predicate, arity) once; bodies repeatedly probe the
    # same relations, and the full signature keeps a probe for p/2 from
    # wading through p/1 facts.
    by_signature: dict[tuple[str, int], list[Atom]] = {}
    for fact in facts:
        by_signature.setdefault((fact.predicate, fact.arity), []).append(fact)

    def extend(index: int, binding: dict) -> Iterable[dict]:
        if index == len(atoms):
            yield binding
            return
        pattern = atoms[index]
        for fact in by_signature.get((pattern.predicate, pattern.arity), ()):  # pragma: no branch
            extended = match_atom(pattern, fact, binding)
            if extended is not None:
                yield from extend(index + 1, extended)

    yield from extend(0, {})

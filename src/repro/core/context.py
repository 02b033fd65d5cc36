"""Ground evaluation contexts.

Every operator of the paper (``T_P``, ``S_P``, ``S̃_P``, ``A_P``, ``U_P``,
``W_P``) is defined on the Herbrand instantiation of a program.  The
:class:`GroundContext` bundles a ground program together with the atom
universe the operators work over and the rule indexes that make repeated
operator applications fast:

* ``rules`` — the ground non-fact rules, decomposed into head / positive
  body / negative body;
* ``facts`` — the ground atoms asserted unconditionally;
* ``base`` — the atom universe ``H`` relative to which complements and
  conjugates (Definition 3.2) are taken.

By default the base is the set of atoms *occurring* in the ground program.
Atoms of the full Herbrand base that never occur in any rule cannot be
derived under any semantics implemented here, so restricting to occurring
atoms changes nothing except keeping the negative sets small; pass
``full_base=True`` to :func:`build_context` to use the complete Herbrand
base instead (useful when reproducing the paper's examples verbatim, whose
tables list every ``p(x)`` atom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ..config import DEFAULT_GROUNDER, validate_grounder
from ..datalog.atoms import Atom
from ..datalog.grounding import (
    GroundingLimits,
    herbrand_base,
    naive_ground,
    relevant_ground,
)
from ..datalog.rules import Program, Rule
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter
if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import EngineConfig
    from ..storage.base import FactStore

__all__ = ["GroundRule", "GroundContext", "build_context"]


@dataclass(frozen=True)
class GroundRule:
    """A ground rule split into the pieces the operators consume."""

    head: Atom
    positive_body: tuple[Atom, ...]
    negative_body: tuple[Atom, ...]
    source: Rule

    def __str__(self) -> str:
        return str(self.source)


@dataclass(frozen=True)
class GroundContext:
    """A ground program prepared for fixpoint evaluation.

    The context is immutable and reusable: all the operators in
    :mod:`repro.core` take a context plus the varying literal sets, so one
    grounding pays for every semantics computed on the program.
    """

    program: Program
    rules: tuple[GroundRule, ...]
    facts: frozenset[Atom]
    base: frozenset[Atom]
    rules_by_positive_atom: Mapping[Atom, tuple[int, ...]]
    rules_by_head: Mapping[Atom, tuple[int, ...]]

    @property
    def atom_count(self) -> int:
        return len(self.base)

    @property
    def rule_count(self) -> int:
        return len(self.rules) + len(self.facts)

    def atoms_of_predicate(self, predicate: str) -> set[Atom]:
        return {atom for atom in self.base if atom.predicate == predicate}

    def statistics(self) -> dict[str, int]:
        return {
            "ground_rules": len(self.rules),
            "facts": len(self.facts),
            "atoms": len(self.base),
        }


def build_context(
    program: Program,
    limits: GroundingLimits | None = None,
    full_base: bool = False,
    extra_atoms: Iterable[Atom] = (),
    grounder: str | None = None,
    config: "EngineConfig | None" = None,
    store: "FactStore | None" = None,
    recorder: Recorder | None = None,
) -> GroundContext:
    """Ground *program* and build an evaluation context.

    Parameters
    ----------
    program:
        The input program (ground or not).
    limits:
        Grounding limits forwarded to the grounder.
    full_base:
        When true, the base is the full Herbrand base over the program's IDB
        predicates (plus all occurring atoms); when false (default) only the
        occurring atoms.
    extra_atoms:
        Additional ground atoms to include in the base, e.g. query atoms the
        caller wants a definite truth value for even if they occur nowhere.
    grounder:
        ``"relevant"`` (default) instantiates only rules whose positive body
        is supportable — equivalent for the well-founded, stable, stratified,
        Horn and inflationary semantics.  It runs the int-level semi-naive
        grounder (:class:`repro.kernel.ground.IntGrounding`) and decodes its
        rules to objects.
        ``"relevant-scan"`` is the same relevant grounding computed
        by the original linear-scan matcher (the differential oracle).
        ``"naive"`` is the literal Herbrand instantiation ``P_H``; the
        Fitting semantics needs it because it can leave *underivable* atoms
        undefined rather than false.
    config:
        An :class:`~repro.config.EngineConfig` supplying ``grounder`` (with
        the matcher folded in) and ``limits`` together; the per-field
        keywords, when given, take precedence.
    store:
        An optional :class:`~repro.storage.FactStore` supplying EDB facts
        alongside the program's own fact rules.  With the default
        ``"relevant"`` grounder and a non-ground program, the grounder
        interns the store's facts directly.  Ground programs and the other
        grounders materialise the store's facts into the program instead
        (preserving their exact historical rule sets and atom bases).
    recorder:
        Optional :class:`~repro.obs.Recorder`; a tracing recorder captures
        the whole grounding-plus-context pass as one ``ground`` span
        (annotated with the resulting rule/fact/atom counts) and the
        grounder's round/delta counters.
    """
    if config is not None:
        if grounder is None:
            grounder = config.resolved_grounder
        if limits is None:
            limits = config.limits
    validate_grounder(grounder if grounder is not None else DEFAULT_GROUNDER)
    if grounder is None:
        grounder = DEFAULT_GROUNDER
    recorder = recorder if recorder is not None else NULL_RECORDER
    with recorder.span("ground", grounder=grounder) as ground_span:
        if store is not None and (program.is_ground or grounder != "relevant"):
            program = Program.union(store.as_program(), program)
            store = None
        if program.is_ground:
            grounded = program
        elif grounder == "naive":
            grounded = naive_ground(program, limits)
        elif grounder == "relevant-scan":
            grounded = relevant_ground(program, limits, matcher="scan")
        else:
            # Deferred import: the kernel package imports this module.
            from ..kernel.ground import IntGrounding

            grounded = Program(
                IntGrounding.build(program, store=store, limits=limits, recorder=recorder).rules()
            )

        facts: set[Atom] = set()
        ground_rules: list[GroundRule] = []
        occurring: set[Atom] = set()
        # Already-ground programs bypass the grounder's own budget ticks,
        # so the collection loop checkpoints the ambient meter itself.
        meter = current_meter()
        for rule in grounded:
            meter.tick("ground", stride=256)
            if rule.is_fact:
                facts.add(rule.head)
                occurring.add(rule.head)
                continue
            positive = tuple(lit.atom for lit in rule.body if lit.positive)
            negative = tuple(lit.atom for lit in rule.body if lit.negative)
            ground_rules.append(GroundRule(rule.head, positive, negative, rule))
            occurring.add(rule.head)
            occurring.update(positive)
            occurring.update(negative)

        base: set[Atom] = set(occurring)
        base.update(extra_atoms)
        if full_base:
            # Widen with the Herbrand base of the *original* program so that the
            # reported models mention every instantiable IDB atom.
            base.update(herbrand_base(program, max_depth=(limits.max_depth if limits else 0)))

        by_positive: dict[Atom, list[int]] = {}
        by_head: dict[Atom, list[int]] = {}
        for index, ground_rule in enumerate(ground_rules):
            meter.tick("ground", stride=512)
            by_head.setdefault(ground_rule.head, []).append(index)
            # Deduplicate so a rule is listed once per *distinct* body atom; the
            # counting propagation in repro.core.eventual relies on this.
            for atom in set(ground_rule.positive_body):
                by_positive.setdefault(atom, []).append(index)

        context = GroundContext(
            program=grounded,
            rules=tuple(ground_rules),
            facts=frozenset(facts),
            base=frozenset(base),
            rules_by_positive_atom={atom: tuple(ids) for atom, ids in by_positive.items()},
            rules_by_head={atom: tuple(ids) for atom, ids in by_head.items()},
        )
    if recorder.enabled:
        ground_span.annotate(
            rules=len(context.rules), facts=len(context.facts), atoms=len(context.base)
        )
        recorder.count("ground.rules", len(context.rules))
        recorder.count("ground.facts", len(context.facts))
        recorder.count("ground.atoms", len(context.base))
    return context

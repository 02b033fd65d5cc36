"""Component-wise alternating fixpoint: SCC-decomposed well-founded evaluation.

The monolithic alternating fixpoint (Section 5) re-derives the *entire*
ground program at every stage ``Ĩ_{k+1} = S̃_P(Ĩ_k)``, so a program made of
``c`` independent or layered negation clusters pays ``O(c)`` alternating
stages × whole-program ``S_P`` cost.  But the well-founded semantics is
*relevant*: an atom's verdict only depends on the atoms it transitively
depends on (the Section 8 dependency-graph analyses, here at ground-atom
granularity).  This module exploits that:

1. condense the ground program's atom-level dependency graph
   (:func:`repro.analysis.dependency.build_atom_dependency_graph`) into
   strongly connected components, topologically ordered callees-first;
2. evaluate components bottom-up, freezing each solved component's
   true/false atoms as fixed context for the components above it;
3. per component, dispatch to the cheapest sound method:

   * ``"horn"`` — no negation left after partial evaluation against the
     solved context: one semi-naive counter closure; underivable atoms of
     the component are false;
   * ``"stratified"`` — negation only points *downward* (the component is
     locally stratified within itself) but some body literal rests on an
     atom left *undefined* below: two counter closures — the definite
     closure gives the true atoms, the closure that also fires through the
     undefined literals gives the envelope of possibly-true atoms; atoms
     outside the envelope are false, inside-but-underived undefined;
   * ``"alternating"`` — negation through recursion inside the component:
     the full alternating fixpoint, run over just this component's rules
     with a component-local base.  Undefined literals from below are
     replaced by one designated undefined atom (defined by the canonical
     ``u ← ¬u`` rule), which is exactly the three-valued partial
     evaluation of the splitting property of the well-founded semantics.
     The local :class:`~repro.core.context.GroundContext` caches its
     :class:`~repro.evaluation.indexes.RuleIndex`, so all of the
     component's ``S_P`` stages share one index build.

On layered workloads (stacked win–move towers, chained same-generation
blocks — see :func:`repro.workloads.generators.layered_program`) this turns
quadratic-in-layers work into near-linear work; the equality of the
assembled model with the monolithic alternating fixpoint and with the
unfounded-set characterisation is checked by the differential property
tests and by ``benchmarks/bench_modular_wfs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..analysis.dependency import build_atom_dependency_graph
from ..config import (
    DEFAULT_ENGINE,
    DEFAULT_STRATEGY,
    EVALUATION_ENGINES,
    EngineConfig,
    merge_entry_config,
    validate_engine,
)
from ..datalog.atoms import Atom, Literal
from ..datalog.grounding import GroundingLimits
from ..datalog.rules import Program, Rule
from ..fixpoint.interpretations import PartialInterpretation
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import metered
from .context import GroundContext, build_context

__all__ = [
    "EVALUATION_ENGINES",
    "DEFAULT_ENGINE",
    "validate_engine",
    "ComponentReport",
    "ModularResult",
    "fresh_undef_atom",
    "solve_component",
    "modular_well_founded",
    "modular_model",
]

#: Fallback predicate name for the designated undefined atom injected into
#: component-local programs (suffixed until fresh if a program really uses
#: the name).
_UNDEF_PREDICATE = "_wfs_undef"


@dataclass(frozen=True)
class ComponentReport:
    """How one strongly connected component was solved.

    ``stages`` counts fixpoint passes: the number of counter closures for
    the ``horn``/``stratified`` methods, the number of ``S̃_P`` applications
    for ``alternating``.

    When a tracing :class:`~repro.obs.Recorder` is attached, every field of
    this report is also emitted as the attributes of the per-``component``
    span — the report is the *derived*, API-stable view of the same
    per-component record the :mod:`repro.obs` trace captures.
    """

    index: int
    atoms: tuple[Atom, ...]
    method: str
    rules: int
    stages: int
    true_count: int
    false_count: int

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def undefined_count(self) -> int:
        return len(self.atoms) - self.true_count - self.false_count


@dataclass(frozen=True)
class ModularResult:
    """The assembled well-founded partial model plus the per-component log."""

    context: GroundContext
    model: PartialInterpretation
    components: tuple[ComponentReport, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def largest_component(self) -> int:
        return max((report.size for report in self.components), default=0)

    @property
    def is_total(self) -> bool:
        return self.model.is_total_over(self.context.base)

    @property
    def undefined_atoms(self) -> frozenset[Atom]:
        return self.model.undefined_atoms(self.context.base)

    def method_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for report in self.components:
            counts[report.method] = counts.get(report.method, 0) + 1
        return counts

    def stages_by_method(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for report in self.components:
            totals[report.method] = totals.get(report.method, 0) + report.stages
        return totals

    def statistics(self) -> dict[str, object]:
        return {
            "components": self.component_count,
            "largest_component": self.largest_component,
            "methods": self.method_counts(),
            "stages": self.stages_by_method(),
            **self.context.statistics(),
        }


# --------------------------------------------------------------------- #
# Component-local closures (horn / stratified methods)
# --------------------------------------------------------------------- #
def _component_closure(
    local_rules: list[tuple[Atom, tuple[Atom, ...], tuple[Atom, ...], bool]],
    seed: Iterable[Atom],
    fire_markers: bool,
    recorder: Recorder = NULL_RECORDER,
) -> set[Atom]:
    """Least set containing *seed* closed under the definite local rules,
    by counter propagation (Dowling–Gallier, mirroring
    :mod:`repro.evaluation.seminaive` on the component-local rule list).

    Rules carrying an undefined-marker only participate when *fire_markers*
    is set (the envelope closure of the stratified method).  Rules with
    internal negation never reach here — the dispatcher sends those
    components to the alternating method.
    """
    heads: list[Atom] = []
    counters: list[int] = []
    watchers: dict[Atom, list[int]] = {}
    zero_rules: list[Atom] = []

    for head, positive, _negative, marker in local_rules:
        if marker and not fire_markers:
            continue
        distinct = set(positive)
        rule_id = len(heads)
        heads.append(head)
        counters.append(len(distinct))
        if not distinct:
            zero_rules.append(head)
        else:
            for atom in distinct:
                watchers.setdefault(atom, []).append(rule_id)

    derived: set[Atom] = set()
    frontier: list[Atom] = []
    for atom in seed:
        if atom not in derived:
            derived.add(atom)
            frontier.append(atom)
    for head in zero_rules:
        if head not in derived:
            derived.add(head)
            frontier.append(head)

    while frontier:
        atom = frontier.pop()
        for rule_id in watchers.get(atom, ()):
            counters[rule_id] -= 1
            if counters[rule_id] == 0:
                head = heads[rule_id]
                if head not in derived:
                    derived.add(head)
                    frontier.append(head)
    if recorder.enabled:
        # Every derived atom is popped from the frontier exactly once and
        # decrements each rule watching it, so the Dowling–Gallier work is
        # reconstructible after the fact — the hot loop stays untouched.
        recorder.count(
            "dg.decrements",
            sum(len(watchers.get(atom, ())) for atom in derived),
        )
    return derived


def fresh_undef_atom(base: Iterable[Atom]) -> Atom:
    """A zero-arity atom whose predicate name clashes with nothing in *base*."""
    name = _UNDEF_PREDICATE
    taken = {atom.predicate for atom in base}
    while name in taken:
        name += "_"
    return Atom(name, ())


def solve_component(
    component: set[Atom],
    comp_index: int,
    rules: Sequence,
    rules_by_head: Mapping[Atom, tuple[int, ...]],
    facts: frozenset[Atom],
    true_atoms: set[Atom],
    false_atoms: set[Atom],
    undef_atom: Atom,
    strategy: str = DEFAULT_STRATEGY,
    *,
    recorder: Recorder = NULL_RECORDER,
) -> tuple[set[Atom], set[Atom], ComponentReport]:
    """Solve one strongly connected component against its solved context.

    *true_atoms* / *false_atoms* are the verdicts of the components already
    evaluated (everything this component's rules can reach outside itself
    must be decided or deliberately left undefined there); they are read,
    never written.  Returns the component's true set, false set and
    :class:`ComponentReport`.  This is the unit of work of the batch
    evaluator below.
    """
    # ---- singleton fast path ---------------------------------------- #
    # The vast majority of components are single atoms with no
    # self-dependency; their verdict falls out of one pass over their
    # rules with no closure machinery at all.
    if len(component) == 1:
        fast = _solve_singleton(component, rules, rules_by_head, facts, true_atoms, false_atoms)
        if fast is not None:
            comp_true, comp_false, method, rule_count, stages = fast
            return (
                comp_true,
                comp_false,
                ComponentReport(
                    index=comp_index,
                    atoms=tuple(component),
                    method=method,
                    rules=rule_count,
                    stages=stages,
                    true_count=len(comp_true),
                    false_count=len(comp_false),
                ),
            )

    # ---- partial evaluation against the solved context --------------- #
    local_rules: list[tuple[Atom, tuple[Atom, ...], tuple[Atom, ...], bool]] = []
    has_internal_negation = False
    for head in component:
        for rule_id in rules_by_head.get(head, ()):
            rule = rules[rule_id]
            killed = False
            positive_internal: list[Atom] = []
            negative_internal: list[Atom] = []
            marker = False
            for atom in rule.positive_body:
                if atom in component:
                    positive_internal.append(atom)
                elif atom in true_atoms:
                    continue  # satisfied; drop the literal
                elif atom in false_atoms:
                    killed = True
                    break
                else:
                    marker = True  # undefined below
            if not killed:
                for atom in rule.negative_body:
                    if atom in component:
                        negative_internal.append(atom)
                    elif atom in false_atoms:
                        continue  # satisfied; drop the literal
                    elif atom in true_atoms:
                        killed = True
                        break
                    else:
                        marker = True  # undefined below
            if killed:
                continue
            if negative_internal:
                has_internal_negation = True
            local_rules.append(
                (head, tuple(positive_internal), tuple(negative_internal), marker)
            )

    local_facts = component & facts

    # ---- cheapest-sound-method dispatch ------------------------------ #
    if has_internal_negation:
        method = "alternating"
        comp_true, comp_false, stages = _solve_alternating(
            component, local_rules, local_facts, undef_atom, strategy
        )
        if recorder.enabled:
            recorder.count("alternating.stages", stages)
    else:
        definite = _component_closure(
            local_rules, local_facts, fire_markers=False, recorder=recorder
        )
        if any(marker for (_, _, _, marker) in local_rules):
            method = "stratified"
            envelope = _component_closure(
                local_rules, local_facts, fire_markers=True, recorder=recorder
            )
            stages = 2
        else:
            method = "horn"
            envelope = definite
            stages = 1
        comp_true = definite
        comp_false = component - envelope

    return (
        comp_true,
        comp_false,
        ComponentReport(
            index=comp_index,
            atoms=tuple(component),
            method=method,
            rules=len(local_rules),
            stages=stages,
            true_count=len(comp_true),
            false_count=len(comp_false),
        ),
    )


# --------------------------------------------------------------------- #
# The component-wise evaluator
# --------------------------------------------------------------------- #
def modular_well_founded(
    program: Program | GroundContext,
    limits: GroundingLimits | None = None,
    full_base: bool = False,
    extra_atoms: Iterable[Atom] = (),
    strategy: str | None = None,
    config: Optional[EngineConfig] = None,
    grounder: str | None = None,
    recorder: Recorder | None = None,
) -> ModularResult:
    """Compute the well-founded partial model component by component.

    Accepts either a :class:`~repro.datalog.rules.Program` (grounded first)
    or a pre-built :class:`GroundContext`.  *strategy* selects the engine
    used inside the per-component alternating fixpoints; a *config* supplies
    ``strategy``/``limits`` together (the two spellings are exclusive).

    A tracing *recorder* (see :mod:`repro.obs`) captures the evaluation's
    phase structure: a ``condense`` span around the SCC condensation, one
    ``component`` span per SCC (annotated with the fields of its
    :class:`ComponentReport`), and an ``assemble`` span around the final
    model construction, plus per-method component counters.
    """
    strategy, _, limits, grounder, budget = merge_entry_config(
        config, strategy=strategy, limits=limits, grounder=grounder
    )
    recorder = recorder if recorder is not None else NULL_RECORDER
    with metered(budget) as meter:
        if isinstance(program, GroundContext):
            context = program
        else:
            context = build_context(
                program,
                limits=limits,
                full_base=full_base,
                extra_atoms=extra_atoms,
                grounder=grounder,
                recorder=recorder,
            )

        with recorder.span("condense") as condense_span:
            graph = build_atom_dependency_graph(context)
            meter.check("component")
            components = graph.condensation_order()
            meter.check("component")
        undef_atom = fresh_undef_atom(context.base)

        rules = context.rules
        rules_by_head: Mapping[Atom, tuple[int, ...]] = context.rules_by_head
        facts = context.facts

        true_atoms: set[Atom] = set()
        false_atoms: set[Atom] = set()
        reports: list[ComponentReport] = []

        tracing = recorder.enabled
        if tracing:
            condense_span.annotate(components=len(components))
            recorder.count("components.total", len(components))
            # Trace path: one `components` group span holding a `component`
            # child per SCC, so the loop's own bookkeeping is accounted to the
            # phase rather than falling between spans.
            with recorder.span("components"):
                for comp_index, component in enumerate(components):
                    meter.step("component")
                    with recorder.span("component") as comp_span:
                        comp_true, comp_false, report = solve_component(
                            component,
                            comp_index,
                            rules,
                            rules_by_head,
                            facts,
                            true_atoms,
                            false_atoms,
                            undef_atom,
                            strategy,
                            recorder=recorder,
                        )
                        comp_span.annotate(
                            index=comp_index,
                            method=report.method,
                            size=report.size,
                            rules=report.rules,
                            stages=report.stages,
                            true=report.true_count,
                            false=report.false_count,
                        )
                        recorder.count(f"components.{report.method}")
                    true_atoms.update(comp_true)
                    false_atoms.update(comp_false)
                    reports.append(report)
        else:
            for comp_index, component in enumerate(components):
                meter.step("component")
                comp_true, comp_false, report = solve_component(
                    component,
                    comp_index,
                    rules,
                    rules_by_head,
                    facts,
                    true_atoms,
                    false_atoms,
                    undef_atom,
                    strategy,
                )
                true_atoms.update(comp_true)
                false_atoms.update(comp_false)
                reports.append(report)

    with recorder.span("assemble") as assemble_span:
        model = PartialInterpretation(true_atoms, false_atoms)
        result = ModularResult(context=context, model=model, components=tuple(reports))
    if tracing:
        assemble_span.annotate(true=len(true_atoms), false=len(false_atoms))
    return result


def _solve_singleton(
    component: set[Atom],
    rules,
    rules_by_head,
    facts: frozenset[Atom],
    true_atoms: set[Atom],
    false_atoms: set[Atom],
):
    """Resolve a single-atom component without closure machinery.

    Returns ``(true, false, method, rules, stages)`` or ``None`` when the
    atom depends on itself (a genuine one-atom SCC with a loop), which the
    generic dispatcher handles.
    """
    head = next(iter(component))
    satisfied = head in facts
    possible = False
    rule_count = 0
    marker_seen = False
    for rule_id in rules_by_head.get(head, ()):
        rule = rules[rule_id]
        rule_count += 1
        killed = False
        marker = False
        for atom in rule.positive_body:
            if atom == head:
                return None  # self-dependent: generic path
            if atom in true_atoms:
                continue
            if atom in false_atoms:
                killed = True
                break
            marker = True
        if killed:
            continue
        for atom in rule.negative_body:
            if atom == head:
                return None  # self-dependent: generic path
            if atom in false_atoms:
                continue
            if atom in true_atoms:
                killed = True
                break
            marker = True
        if killed:
            continue
        if marker:
            marker_seen = True
            possible = True
        else:
            satisfied = True
    method = "stratified" if marker_seen else "horn"
    stages = 2 if marker_seen else 1
    if satisfied:
        return {head}, set(), method, rule_count, stages
    if possible:
        return set(), set(), method, rule_count, stages
    return set(), {head}, method, rule_count, stages


def _solve_alternating(
    component: set[Atom],
    local_rules: list[tuple[Atom, tuple[Atom, ...], tuple[Atom, ...], bool]],
    local_facts: set[Atom],
    undef_atom: Atom,
    strategy: str,
) -> tuple[set[Atom], set[Atom], int]:
    """Run the full alternating fixpoint on one component's residual rules.

    Undefined-marker literals become positive occurrences of *undef_atom*,
    which is made undefined by the canonical ``u ← ¬u`` rule; the component
    atoms are forced into the local base via ``extra_atoms`` so that atoms
    whose rules were all killed still come out false.
    """
    from .alternating import alternating_fixpoint  # deferred: cycle with engine dispatch

    needs_undef = any(marker for (_, _, _, marker) in local_rules)
    pieces: list[Rule] = [Rule(fact) for fact in local_facts]
    for head, positive, negative, marker in local_rules:
        body = [Literal(atom, positive=True) for atom in positive]
        body.extend(Literal(atom, positive=False) for atom in negative)
        if marker:
            body.append(Literal(undef_atom, positive=True))
        pieces.append(Rule(head, tuple(body)))
    if needs_undef:
        pieces.append(Rule(undef_atom, (Literal(undef_atom, positive=False),)))

    local_context = build_context(Program(pieces), extra_atoms=component)
    result = alternating_fixpoint(local_context, strategy=strategy, keep_stages=False)

    comp_true = set(result.positive_fixpoint) & component
    comp_false = set(result.negative_fixpoint.atoms) & component
    return comp_true, comp_false, result.iterations


def modular_model(program: Program | GroundContext, **kwargs) -> PartialInterpretation:
    """Convenience wrapper returning just the well-founded partial model."""
    return modular_well_founded(program, **kwargs).model

"""Flat-array evaluation of a compiled ground program.

One ``bytearray`` truth vector (``0`` unknown, ``1`` true, ``2`` false)
carries the entire partial model; components are solved in the compiled
callees-first order with the same cheapest-sound-method dispatch as
:mod:`repro.core.modular`, but over ints:

* singleton components resolve in one pass over their rules' CSR segments
  (no closure machinery, no set construction);
* ``horn`` / ``stratified`` components run Dowling–Gallier counter
  propagation over int watch lists — one closure, or two when some body
  literal rests on an atom left undefined below (the envelope pass);
* ``alternating`` components run the per-component alternating fixpoint
  with the ``S_P`` stages as int-set transforms.  The object engine's
  designated undefined atom (``u ← ¬u``) is replaced by its phase
  portrait: ``u`` belongs to ``Ĩ_k`` exactly for odd ``k``, so
  undefined-marker rules are enabled in odd (overestimate) stages and
  disabled in even (underestimate) stages — same fixpoint, no extra atom.
  Unfounded atoms fall out as the complement of the final envelope, via
  the same counter decrements.

:func:`evaluate_compiled` solves a whole program in one pass.
:class:`ComponentKernel` keeps the truth and fact vectors of one compiled
program alive across updates: it is the single solved state of an
incremental session, which :class:`~repro.delta.DeltaMaintainer` updates
in place and which re-solves one component at a time on request.

The object-level modular engine stays the differential oracle: the
Hypothesis suite asserts byte-identical models across ``kernel``,
``modular`` and ``monolithic`` for every semantics family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..config import EngineConfig, merge_entry_config
from ..core.context import GroundContext, build_context
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits
from ..datalog.rules import Program
from ..exceptions import EvaluationError
from ..fixpoint.interpretations import PartialInterpretation
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter, metered
from .compile import CompiledProgram, get_kernel

__all__ = [
    "KernelResult",
    "ComponentKernel",
    "decode_model",
    "evaluate_compiled",
    "solve_compiled",
    "kernel_well_founded",
    "kernel_model",
]

_UNKNOWN, _TRUE, _FALSE = 0, 1, 2
_MAX_STAGES = 10_000_000
#: Budget checkpoints are batched: one meter call per this many components
#: keeps deadline enforcement responsive without a call in the hot loop.
_METER_STRIDE = 128

_METHODS = ("horn", "stratified", "alternating")

#: Translation tables turning a truth vector into a 0/1 mask of its true
#: (resp. false) atoms, for :func:`itertools.compress`.
_TRUE_MASK = bytes.maketrans(b"\x02", b"\x00")
_FALSE_MASK = bytes.maketrans(b"\x01\x02", b"\x00\x01")


@dataclass(frozen=True)
class KernelResult:
    """The assembled model plus the kernel's aggregate evaluation log.

    The kernel tracks per-method component counts and total stage /
    decrement counters instead of per-component reports — keeping the hot
    loop free of per-component object construction is half the speedup.
    """

    context: GroundContext
    model: PartialInterpretation
    compiled: CompiledProgram
    methods: Mapping[str, int]
    stages: int
    decrements: int

    @property
    def component_count(self) -> int:
        return self.compiled.n_components

    @property
    def is_total(self) -> bool:
        return self.model.is_total_over(self.context.base)

    def method_counts(self) -> Dict[str, int]:
        return dict(self.methods)

    def statistics(self) -> Dict[str, object]:
        return {
            "components": self.compiled.n_components,
            "methods": self.method_counts(),
            "stages": self.stages,
            **{f"kernel_{k}": v for k, v in self.compiled.statistics().items()},
            **self.context.statistics(),
        }


# --------------------------------------------------------------------- #
# Core evaluation
# --------------------------------------------------------------------- #
def evaluate_compiled(
    compiled: CompiledProgram,
    is_fact: Optional[bytearray] = None,
    tracing: bool = False,
    phase: str = "component",
) -> Tuple[bytearray, List[int], int, int]:
    """Evaluate every component of *compiled* bottom-up.

    Returns ``(truth, method_counts, stages, decrements)`` where *truth* is
    the dense truth vector and *method_counts* the per-method component
    tallies in :data:`_METHODS` order.  *is_fact* is the EDB as a fact
    vector over atom ids, overriding the compiled program's own facts (an
    incremental session refreshes facts without recompiling);
    ``decrements`` is only tallied when *tracing* is set, the same contract
    as the object engine's ``dg.decrements``.  Component steps are charged
    to the budget under *phase*.
    """
    n_atoms = compiled.n_atoms
    truth = bytearray(n_atoms)
    if is_fact is None:
        is_fact = bytearray(n_atoms)
        for atom_id in compiled.fact_ids:
            is_fact[atom_id] = 1

    (
        heads,
        pos_off,
        pos_atoms,
        neg_off,
        neg_atoms,
        head_off,
        head_rules,
        comp_off,
        comp_atoms,
        comp_of,
    ) = compiled.hot()
    self_dep = compiled.self_dep

    method_counts = [0, 0, 0]
    stages_total = 0
    decrements = 0
    meter = current_meter()

    n_components = compiled.n_components
    for comp_index in range(n_components):
        if not comp_index % _METER_STRIDE:
            # One step per component, as the object engine counts them,
            # charged a batch at a time.
            meter.step(phase, min(_METER_STRIDE, n_components - comp_index))
        start = comp_off[comp_index]
        end = comp_off[comp_index + 1]

        # ---- singleton fast path ------------------------------------- #
        if end - start == 1:
            head = comp_atoms[start]
            if not self_dep[head]:
                satisfied = is_fact[head]
                possible = False
                marker_seen = False
                for slot in range(head_off[head], head_off[head + 1]):
                    rule = head_rules[slot]
                    killed = False
                    marker = False
                    for cursor in range(pos_off[rule], pos_off[rule + 1]):
                        value = truth[pos_atoms[cursor]]
                        if value == 1:
                            continue
                        if value == 2:
                            killed = True
                            break
                        marker = True
                    if killed:
                        continue
                    for cursor in range(neg_off[rule], neg_off[rule + 1]):
                        value = truth[neg_atoms[cursor]]
                        if value == 2:
                            continue
                        if value == 1:
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
                if satisfied:
                    truth[head] = 1
                elif not possible:
                    truth[head] = 2
                if marker_seen:
                    method_counts[1] += 1
                    stages_total += 2
                else:
                    method_counts[0] += 1
                    stages_total += 1
                continue

        # ---- general path: partial evaluation + dispatch -------------- #
        members = comp_atoms[start:end]
        local_rules, has_negation, any_marker = _partial_evaluate(
            members,
            comp_index,
            comp_of,
            truth,
            heads,
            pos_off,
            pos_atoms,
            neg_off,
            neg_atoms,
            head_off,
            head_rules,
        )
        local_facts = [atom_id for atom_id in members if is_fact[atom_id]]

        if has_negation:
            comp_set = set(members)
            comp_true, comp_false, stages, spent = _alternating_ints(
                comp_set, local_rules, local_facts, tracing
            )
            decrements += spent
            method_counts[2] += 1
            stages_total += stages
        else:
            definite, spent = _closure_ints(local_rules, local_facts, False, tracing)
            decrements += spent
            if any_marker:
                envelope, spent = _closure_ints(local_rules, local_facts, True, tracing)
                decrements += spent
                method_counts[1] += 1
                stages_total += 2
            else:
                envelope = definite
                method_counts[0] += 1
                stages_total += 1
            comp_true = definite
            comp_false = [atom_id for atom_id in members if atom_id not in envelope]

        for atom_id in comp_true:
            truth[atom_id] = 1
        for atom_id in comp_false:
            truth[atom_id] = 2

    return truth, method_counts, stages_total, decrements


def _partial_evaluate(
    members,
    comp_index: int,
    comp_of,
    truth: bytearray,
    heads,
    pos_off,
    pos_atoms,
    neg_off,
    neg_atoms,
    head_off,
    head_rules,
) -> Tuple[List[Tuple[int, List[int], List[int], bool]], bool, bool]:
    """Residual local rules of one component against the solved context.

    Mirrors the object engine's partial evaluation exactly: body atoms of
    lower components are dropped when satisfied, kill the rule when
    falsified, and raise the undefined marker when left undefined below.
    """
    local_rules: List[Tuple[int, List[int], List[int], bool]] = []
    has_negation = False
    any_marker = False
    for head in members:
        for slot in range(head_off[head], head_off[head + 1]):
            rule = head_rules[slot]
            killed = False
            marker = False
            pos_internal: List[int] = []
            neg_internal: List[int] = []
            for cursor in range(pos_off[rule], pos_off[rule + 1]):
                body = pos_atoms[cursor]
                if comp_of[body] == comp_index:
                    pos_internal.append(body)
                    continue
                value = truth[body]
                if value == 1:
                    continue
                if value == 2:
                    killed = True
                    break
                marker = True
            if killed:
                continue
            for cursor in range(neg_off[rule], neg_off[rule + 1]):
                body = neg_atoms[cursor]
                if comp_of[body] == comp_index:
                    neg_internal.append(body)
                    continue
                value = truth[body]
                if value == 2:
                    continue
                if value == 1:
                    killed = True
                    break
                marker = True
            if killed:
                continue
            if neg_internal:
                has_negation = True
            if marker:
                any_marker = True
            local_rules.append((head, pos_internal, neg_internal, marker))
    return local_rules, has_negation, any_marker


def _closure_ints(
    local_rules: List[Tuple[int, List[int], List[int], bool]],
    seed: Iterable[int],
    fire_markers: bool,
    tracing: bool,
) -> Tuple[Set[int], int]:
    """Dowling–Gallier counter propagation over one component's residual
    definite rules (negative-free by dispatch), as int sets."""
    rule_heads: List[int] = []
    counters: List[int] = []
    watchers: Dict[int, List[int]] = {}
    derived: Set[int] = set()
    frontier: List[int] = []
    for head, positive, _negative, marker in local_rules:
        if marker and not fire_markers:
            continue
        if not positive:
            if head not in derived:
                derived.add(head)
                frontier.append(head)
            continue
        rule_id = len(rule_heads)
        rule_heads.append(head)
        counters.append(len(positive))
        for body in positive:
            watchers.setdefault(body, []).append(rule_id)
    for atom_id in seed:
        if atom_id not in derived:
            derived.add(atom_id)
            frontier.append(atom_id)
    while frontier:
        atom_id = frontier.pop()
        for rule_id in watchers.get(atom_id, ()):
            counters[rule_id] -= 1
            if not counters[rule_id]:
                head = rule_heads[rule_id]
                if head not in derived:
                    derived.add(head)
                    frontier.append(head)
    spent = 0
    if tracing:
        spent = sum(len(watchers.get(atom_id, ())) for atom_id in derived)
    return derived, spent


def _alternating_ints(
    comp_set: Set[int],
    local_rules: List[Tuple[int, List[int], List[int], bool]],
    local_facts: List[int],
    tracing: bool,
) -> Tuple[Set[int], Set[int], int, int]:
    """Per-component alternating fixpoint over int sets.

    ``S_P`` with respect to an assumed-false set keeps a rule when its
    internal negative body is entirely assumed false; undefined-marker
    rules are additionally gated on the stage parity (see the module
    docstring — this is the compiled form of the ``u ← ¬u`` construction).
    Termination compares consecutive even (underestimate) stages.
    """
    decrements = 0
    # The watch lists and counter seeds are shared across every S_P stage
    # (the compiled analogue of the object engine sharing one RuleIndex
    # across a component's stages); each stage re-seeds the counters and
    # gates rules with a per-stage `enabled` vector instead of rebuilding
    # the index.
    n_rules = len(local_rules)
    rule_heads = [rule[0] for rule in local_rules]
    base_counters = [len(rule[1]) for rule in local_rules]
    watchers: Dict[int, List[int]] = {}
    for rule_id, (_head, positive, _negative, _marker) in enumerate(local_rules):
        for body in positive:
            watchers.setdefault(body, []).append(rule_id)

    def stability(assumed_false: Set[int], markers_on: bool) -> Set[int]:
        nonlocal decrements
        counters = base_counters.copy()
        enabled = bytearray(n_rules)
        derived: Set[int] = set(local_facts)
        frontier: List[int] = list(derived)
        for rule_id, (head, positive, negative, marker) in enumerate(local_rules):
            if marker and not markers_on:
                continue
            usable = True
            for body in negative:
                if body not in assumed_false:
                    usable = False
                    break
            if not usable:
                continue
            if positive:
                enabled[rule_id] = 1
            elif head not in derived:
                derived.add(head)
                frontier.append(head)
        while frontier:
            atom_id = frontier.pop()
            for rule_id in watchers.get(atom_id, ()):
                if not enabled[rule_id]:
                    continue
                counters[rule_id] -= 1
                if not counters[rule_id]:
                    head = rule_heads[rule_id]
                    if head not in derived:
                        derived.add(head)
                        frontier.append(head)
        if tracing:
            for atom_id in derived:
                for rule_id in watchers.get(atom_id, ()):
                    if enabled[rule_id]:
                        decrements += 1
        return derived

    assumed_false: Set[int] = set()
    positive = stability(assumed_false, False)
    previous_even = assumed_false
    index = 0
    while True:
        index += 1
        if index > _MAX_STAGES:
            raise EvaluationError("kernel alternating fixpoint did not converge")
        assumed_false = comp_set - positive
        positive = stability(assumed_false, index % 2 == 1)
        if not index % 2:
            if len(assumed_false) == len(previous_even) and assumed_false == previous_even:
                break
            previous_even = assumed_false
    return positive, assumed_false, index, decrements


# --------------------------------------------------------------------- #
# Batch entry point
# --------------------------------------------------------------------- #
def kernel_well_founded(
    program: Program | GroundContext,
    limits: GroundingLimits | None = None,
    full_base: bool = False,
    extra_atoms: Iterable[Atom] = (),
    strategy: str | None = None,
    config: Optional[EngineConfig] = None,
    grounder: str | None = None,
    recorder: Recorder | None = None,
) -> KernelResult:
    """The well-founded partial model via the compiled kernel.

    Accepts a :class:`~repro.datalog.rules.Program` (grounded first) or a
    pre-built :class:`GroundContext`; the compiled IR is cached on the
    context, so repeated evaluation of one grounding pays the compile once.
    *strategy* is accepted for interface parity with the object engines but
    unused — the kernel has exactly one (semi-naive, counter-driven)
    evaluation scheme.

    A tracing *recorder* captures a ``compile`` span (with the
    ``kernel.atoms`` / ``kernel.rules`` / ``kernel.bytes`` counters on a
    fresh build), an ``evaluate`` span with the aggregate method split, the
    ``kernel.decrements`` / ``kernel.stages`` counters, and an ``assemble``
    span around the model decode.
    """
    _strategy, _, limits, grounder, budget = merge_entry_config(
        config, strategy=strategy, limits=limits, grounder=grounder
    )
    recorder = recorder if recorder is not None else NULL_RECORDER
    with metered(budget):
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

        with recorder.span("compile", method="kernel") as compile_span:
            compiled = get_kernel(context, recorder=recorder)
        if recorder.enabled:
            compile_span.annotate(**compiled.statistics())

        model, methods, stages, decrements = solve_compiled(compiled, recorder)
    return KernelResult(
        context=context,
        model=model,
        compiled=compiled,
        methods=methods,
        stages=stages,
        decrements=decrements,
    )


def solve_compiled(
    compiled: CompiledProgram, recorder: Recorder = NULL_RECORDER
) -> Tuple[PartialInterpretation, Dict[str, int], int, int]:
    """Evaluate *compiled* and assemble its well-founded partial model.

    Returns ``(model, methods, stages, decrements)``.  A tracing *recorder*
    captures an ``evaluate`` span with the aggregate method split, the
    ``kernel.decrements`` / ``kernel.stages`` / ``components.*`` counters,
    and an ``assemble`` span around the decode, which builds each atom of
    the table exactly once.
    """
    tracing = recorder.enabled
    with recorder.span("evaluate", method="kernel") as evaluate_span:
        truth, method_counts, stages, decrements = evaluate_compiled(compiled, tracing=tracing)

    with recorder.span("assemble") as assemble_span:
        model = decode_model(compiled, truth)

    methods = {name: count for name, count in zip(_METHODS, method_counts) if count}
    if tracing:
        evaluate_span.annotate(components=compiled.n_components, stages=stages, **methods)
        assemble_span.annotate(true=len(model.true_atoms), false=len(model.false_atoms))
        recorder.count("kernel.decrements", decrements)
        recorder.count("kernel.stages", stages)
        recorder.count("components.total", compiled.n_components)
        for name, count in methods.items():
            recorder.count(f"components.{name}", count)
    return model, methods, stages, decrements


def kernel_model(program: Program | GroundContext, **kwargs) -> PartialInterpretation:
    """Convenience wrapper returning just the well-founded partial model."""
    return kernel_well_founded(program, **kwargs).model


def decode_model(
    compiled: CompiledProgram, truth: bytearray, extra_true: Iterable[Atom] = ()
) -> PartialInterpretation:
    """The partial model a truth vector encodes, as atom objects.

    The truth codes are mapped to 0/1 masks and the atom table filtered by
    them, so decoding never loops over ids in Python.  *extra_true* adds
    atoms outside the compiled universe (a session's floating facts).
    """
    atoms = compiled.table.atoms
    true_atoms = frozenset(compress(atoms, truth.translate(_TRUE_MASK)))
    if extra_true:
        true_atoms = true_atoms.union(extra_true)
    false_atoms = frozenset(compress(atoms, truth.translate(_FALSE_MASK)))
    return PartialInterpretation(true_atoms, false_atoms)


# --------------------------------------------------------------------- #
# Long-lived solved state (incremental sessions)
# --------------------------------------------------------------------- #
class ComponentKernel:
    """The solved state of one compiled ground program.

    A session's whole three-valued model is one ``truth`` vector over the
    atom ids of ``compiled``, next to the ``is_fact`` vector of its EDB.
    :meth:`solve_all` fills the truth vector from scratch with the batch
    evaluator; :meth:`solve_component` re-solves one component against it
    for :class:`~repro.delta.DeltaMaintainer`, which owns every later
    write.  Both vectors keep their identity for the kernel's lifetime, so
    the maintainer can hold them directly.
    """

    __slots__ = ("compiled", "truth", "is_fact")

    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.truth = bytearray(compiled.n_atoms)
        self.is_fact = bytearray(compiled.n_atoms)

    def solve_all(self, tracing: bool = False) -> Tuple[Dict[str, int], int, int]:
        """Solve every component from the fact vector.

        Returns ``(methods, stages, decrements)`` as
        :func:`evaluate_compiled` tallies them.  The component steps are
        charged to the budget as ``"refresh"`` steps, the unit of a
        session's refresh.
        """
        truth, counts, stages, decrements = evaluate_compiled(
            self.compiled, self.is_fact, tracing, "refresh"
        )
        self.truth[:] = truth
        methods = {name: count for name, count in zip(_METHODS, counts) if count}
        return methods, stages, decrements

    def solve_component(
        self, comp_index: int, tracing: bool = False
    ) -> Tuple[Iterable[int], Iterable[int], str, int, int, int]:
        """Solve component *comp_index* against the current truth vector.

        A component's solve reads only the verdicts of lower components,
        never its own, so the result does not depend on the stale entries
        it replaces.  Returns ``(true_ids, false_ids, method, rules,
        stages, decrements)`` and leaves the truth vector untouched.
        """
        compiled = self.compiled
        comp_off = compiled.comp_off
        members = compiled.hot()[8][comp_off[comp_index] : comp_off[comp_index + 1]]
        return _solve_members(compiled, self.truth, self.is_fact, members, tracing)


def _solve_members(
    compiled: CompiledProgram,
    truth: bytearray,
    is_fact: bytearray,
    members: List[int],
    tracing: bool,
) -> Tuple[Iterable[int], Iterable[int], str, int, int, int]:
    """Solve one component (given as member ids) against *truth*.

    Used by :class:`ComponentKernel`; the batch evaluator inlines the same
    logic (the singleton path especially) to keep its loop flat.  Returns
    ``(true_ids, false_ids, method, rules, stages, decrements)`` without
    writing the truth vector.
    """
    (
        heads,
        pos_off,
        pos_atoms,
        neg_off,
        neg_atoms,
        head_off,
        head_rules,
        _comp_off,
        _comp_atoms,
        comp_of,
    ) = compiled.hot()

    if len(members) == 1 and not compiled.self_dep[members[0]]:
        head = members[0]
        satisfied = is_fact[head]
        possible = False
        marker_seen = False
        rule_count = head_off[head + 1] - head_off[head]
        for slot in range(head_off[head], head_off[head + 1]):
            rule = head_rules[slot]
            killed = False
            marker = False
            for cursor in range(pos_off[rule], pos_off[rule + 1]):
                value = truth[pos_atoms[cursor]]
                if value == 1:
                    continue
                if value == 2:
                    killed = True
                    break
                marker = True
            if killed:
                continue
            for cursor in range(neg_off[rule], neg_off[rule + 1]):
                value = truth[neg_atoms[cursor]]
                if value == 2:
                    continue
                if value == 1:
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
            return (members, (), method, rule_count, stages, 0)
        if possible:
            return ((), (), method, rule_count, stages, 0)
        return ((), members, method, rule_count, stages, 0)

    comp_index = comp_of[members[0]]
    local_rules, has_negation, any_marker = _partial_evaluate(
        members,
        comp_index,
        comp_of,
        truth,
        heads,
        pos_off,
        pos_atoms,
        neg_off,
        neg_atoms,
        head_off,
        head_rules,
    )
    local_facts = [atom_id for atom_id in members if is_fact[atom_id]]
    if has_negation:
        comp_true, comp_false, stages, decrements = _alternating_ints(
            set(members), local_rules, local_facts, tracing
        )
        return (comp_true, comp_false, "alternating", len(local_rules), stages, decrements)
    definite, decrements = _closure_ints(local_rules, local_facts, False, tracing)
    if any_marker:
        envelope, spent = _closure_ints(local_rules, local_facts, True, tracing)
        decrements += spent
        method = "stratified"
        stages = 2
    else:
        envelope = definite
        method = "horn"
        stages = 1
    comp_false = [atom_id for atom_id in members if atom_id not in envelope]
    return (definite, comp_false, method, len(local_rules), stages, decrements)

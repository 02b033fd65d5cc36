"""High-level solving API.

:func:`solve` is the one-call entry point a deductive-database user needs:
give it a program (text or :class:`~repro.datalog.rules.Program`), pick a
semantics, and get back a :class:`Solution` that can be queried for atom
truth values and relation contents.  ``semantics="auto"`` picks the
cheapest semantics that agrees with the well-founded model for the
program's syntactic class (Horn → minimum model, stratified → perfect
model, otherwise the alternating fixpoint).

Evaluation choices travel in one validated
:class:`~repro.config.EngineConfig` (``config=``); the historical
``strategy=``/``engine=`` keywords keep working through a deprecation
shim.  :func:`solve` itself is a thin one-shot wrapper: it spins up a
throwaway :class:`repro.session.KnowledgeBase`-style evaluation
(:func:`solve_configured`) and returns its solution — long-lived callers
should hold a ``KnowledgeBase`` instead and let it maintain the model
incrementally across updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from ..analysis.classification import recommend_semantics
from ..config import (
    DEFAULT_ENGINE,
    DEFAULT_STRATEGY,
    EVALUATION_ENGINES,
    EVALUATION_STRATEGIES,
    SUPPORTED_SEMANTICS,
    EngineConfig,
    resolve_config,
)
from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.grounding import GroundingLimits
from ..datalog.parser import parse_program
from ..datalog.rules import Program
from ..datalog.terms import Constant
from ..exceptions import EvaluationError
from ..obs.recorder import Recorder, ensure_recorder
from ..resilience.budget import metered
from ..storage import DEFAULT_STORE, FactStore
from ..fixpoint.interpretations import PartialInterpretation, TruthValue
from ..core.alternating import alternating_fixpoint
from ..core.context import build_context
from ..core.stable import stable_consequences
from ..core.wellfounded import well_founded_model
from ..kernel.eval import solve_compiled
from ..kernel.ground import ground_compiled
from ..semantics.fitting import fitting_model
from ..semantics.horn import horn_minimum_model
from ..semantics.inflationary import inflationary_model
from ..semantics.stratified import stratified_model

__all__ = [
    "Solution",
    "solve",
    "solve_configured",
    "resolve_auto_semantics",
    "SUPPORTED_SEMANTICS",
    "EVALUATION_STRATEGIES",
    "EVALUATION_ENGINES",
    "DEFAULT_ENGINE",
    "EngineConfig",
]


#: The semantics the compiled kernel evaluates (the well-founded family).
_WELL_FOUNDED = ("alternating-fixpoint", "well-founded")


@dataclass(frozen=True)
class Solution:
    """The result of solving a program under one semantics.

    Relation views are predicate-indexed: the first call to
    :meth:`relation` / :meth:`undefined_relation` builds a per-predicate
    row index over the interpretation once, and every later call (query-
    heavy sessions hit these constantly) is a dictionary lookup instead of
    a scan over every true/base atom.
    """

    program: Program
    semantics: str
    interpretation: PartialInterpretation
    base: frozenset[Atom]
    strategy: str = DEFAULT_STRATEGY
    engine: str = DEFAULT_ENGINE
    config: Optional[EngineConfig] = None
    #: The ground evaluation context the model was computed over, when the
    #: producer kept it — lets consumers (e.g. the session explainer) reuse
    #: the grounding instead of re-running it.
    context: Optional[object] = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def value_of(self, atom: Atom) -> TruthValue:
        """Truth value of a ground atom; atoms outside the base that are not
        EDB facts are false by the closed-world reading."""
        value = self.interpretation.value_of_atom(atom)
        if value is TruthValue.UNDEFINED and atom not in self.base:
            return TruthValue.FALSE
        return value

    def is_true(self, predicate: str, *values: object) -> bool:
        return self.value_of(_ground_atom(predicate, values)) is TruthValue.TRUE

    def is_false(self, predicate: str, *values: object) -> bool:
        return self.value_of(_ground_atom(predicate, values)) is TruthValue.FALSE

    def is_undefined(self, predicate: str, *values: object) -> bool:
        return self.value_of(_ground_atom(predicate, values)) is TruthValue.UNDEFINED

    @cached_property
    def _true_rows(self) -> Mapping[str, frozenset[tuple[object, ...]]]:
        """True tuples indexed by predicate, with constants unwrapped."""
        rows: dict[str, set[tuple[object, ...]]] = {}
        for atom in self.interpretation.true_atoms:
            rows.setdefault(atom.predicate, set()).add(
                tuple(_unwrap(term) for term in atom.args)
            )
        return {predicate: frozenset(found) for predicate, found in rows.items()}

    @cached_property
    def _undefined_rows(self) -> Mapping[str, frozenset[tuple[object, ...]]]:
        """Undefined tuples of the base indexed by predicate."""
        rows: dict[str, set[tuple[object, ...]]] = {}
        for atom in self.base:
            if self.interpretation.value_of_atom(atom) is TruthValue.UNDEFINED:
                rows.setdefault(atom.predicate, set()).add(
                    tuple(_unwrap(term) for term in atom.args)
                )
        return {predicate: frozenset(found) for predicate, found in rows.items()}

    def relation(self, predicate: str) -> set[tuple[object, ...]]:
        """The tuples for which *predicate* is true, with constants unwrapped."""
        return set(self._true_rows.get(predicate, ()))

    def undefined_relation(self, predicate: str) -> set[tuple[object, ...]]:
        """Tuples of *predicate* left undefined by a partial semantics."""
        return set(self._undefined_rows.get(predicate, ()))

    def true_atoms(self) -> frozenset[Atom]:
        return self.interpretation.true_atoms

    def false_atoms(self) -> frozenset[Atom]:
        return self.interpretation.false_atoms

    @property
    def is_total(self) -> bool:
        return self.interpretation.is_total_over(self.base)


def _unwrap(term: object) -> object:
    return term.value if isinstance(term, Constant) else term


def _ground_atom(predicate: str, values: Iterable[object]) -> Atom:
    return Atom(predicate, tuple(Constant(v) for v in values))


def resolve_auto_semantics(program: Program) -> str:
    """The concrete semantics ``"auto"`` picks for *program*: the cheapest
    one agreeing with the well-founded model for its syntactic class."""
    return recommend_semantics(program)


def solve_configured(
    program: Union[str, Program],
    config: EngineConfig,
    database: Optional[Database] = None,
    store: Optional[FactStore] = None,
    recorder: Optional[Recorder] = None,
) -> Solution:
    """Solve *program* under an already-resolved :class:`EngineConfig`.

    This is the config-native core of :func:`solve`, also used by
    :class:`repro.session.KnowledgeBase` for the semantics its incremental
    engine does not cover.

    EDB facts can arrive three ways, probed in this order: an explicit
    *store* (any :class:`~repro.storage.FactStore`), a *database* (whose
    backing store is used directly — the grounder probes its live
    indexes), or the backend named by ``config.store`` (opened for this
    call and closed afterwards).  In every case the returned solution's
    ``program`` includes the facts as fact rules, exactly as the
    historical ``database.attach`` path produced.

    The well-founded family under the ``modular`` and ``kernel`` engines
    with the default ``relevant`` grounder runs the compiled path: the
    program is grounded straight into the kernel IR
    (:func:`~repro.kernel.ground.ground_compiled`), evaluated, and each
    atom built once at assemble; no ground rule objects exist and the
    solution carries no context.  Every other combination (``monolithic``,
    the ``relevant-scan``/``naive`` oracle grounders, other semantics)
    builds a :class:`~repro.core.context.GroundContext` first.

    *recorder* (see :mod:`repro.obs`) instruments the whole call as one
    ``solve`` span whose children are the pipeline phases (``classify``
    under ``auto``; ``ground``, ``compile``, ``evaluate``, ``assemble`` on
    the compiled path; ``ground`` and ``evaluate`` otherwise); the default
    :class:`~repro.obs.NullRecorder` records nothing at near-zero cost.
    """
    if isinstance(program, str):
        program = parse_program(program)
    if store is not None and database is not None:
        raise EvaluationError("pass either database= or store=, not both")
    owned: Optional[FactStore] = None
    if store is None and database is not None:
        store = database.store
    if store is None and config.store != DEFAULT_STORE:
        store = owned = config.create_store()
    recorder = ensure_recorder(recorder)
    # The owned-store close is the outermost finally: whatever escapes the
    # solve — including budget aborts — never leaks the backend connection.
    try:
        with metered(config.budget) as meter:
            try:
                return _solve_with_store(program, config, store, recorder)
            finally:
                if recorder.enabled and meter.active:
                    recorder.count("budget.steps", meter.steps)
                    recorder.count("budget.elapsed_ms", int(meter.elapsed() * 1000))
    finally:
        if owned is not None:
            owned.close()


def _solve_with_store(
    program: Program,
    config: EngineConfig,
    store: Optional[FactStore],
    recorder: Recorder,
) -> Solution:
    with recorder.span(
        "solve",
        semantics=config.semantics,
        engine=config.engine,
        strategy=config.strategy,
    ) as solve_span:
        semantics = config.semantics
        if semantics == "auto":
            # Classification is a function of the rules: facts are definite
            # and add no dependency arcs, so the store need not be attached.
            with recorder.span("classify") as classify_span:
                semantics = resolve_auto_semantics(program)
            if recorder.enabled:
                classify_span.annotate(semantics=semantics)

        limits = config.limits
        strategy = config.strategy
        engine = config.engine
        grounder = config.resolved_grounder
        if (
            semantics in _WELL_FOUNDED
            and engine != "monolithic"
            and grounder == "relevant"
        ):
            # The production path: ground straight into the kernel IR,
            # evaluate it, and build each atom once at assemble.  No ground
            # rule objects and no GroundContext exist on this path.
            compiled = ground_compiled(program, store=store, limits=limits, recorder=recorder)
            interpretation, _, _, _ = solve_compiled(compiled, recorder)
            if store is not None:
                # The solution's program records the EDB as fact rules.
                program = Program.union(store.as_program(), program)
            base = frozenset(compiled.table.atoms)
            solution = Solution(
                program=program,
                semantics=semantics,
                interpretation=interpretation,
                base=base,
                strategy=strategy,
                engine=engine,
                config=config,
            )
            if recorder.enabled:
                solve_span.annotate(
                    semantics=semantics, atoms=len(base), rules=compiled.n_rules
                )
            return solution

        if store is not None and (program.is_ground or grounder != "relevant"):
            # The naive/scan grounders and the ground-program passthrough need
            # the facts materialised as fact rules up front; the int grounder
            # interns the store's facts itself.
            program = Program.union(store.as_program(), program)
            store = None
        context = build_context(
            program,
            limits=limits,
            grounder=grounder,
            store=store,
            recorder=recorder,
        )
        if store is not None:
            # The grounded context records the store's facts as fact rules;
            # use it as the solution's program so downstream consumers (the
            # stratified evaluator below, stable-model re-solves, explainers)
            # see the full program.
            program = context.program

        if semantics in _WELL_FOUNDED:
            if semantics == "alternating-fixpoint":
                interpretation = alternating_fixpoint(
                    context, strategy=strategy, engine=engine, recorder=recorder
                ).model
            else:
                interpretation = well_founded_model(
                    context, strategy=strategy, engine=engine, recorder=recorder
                ).model
        elif semantics == "stratified":
            with recorder.span("evaluate", method="stratified"):
                interpretation = stratified_model(
                    program, limits=limits, strategy=strategy
                ).interpretation
        elif semantics == "horn":
            with recorder.span("evaluate", method="horn"):
                interpretation = horn_minimum_model(context, strategy=strategy).interpretation
        elif semantics == "fitting":
            with recorder.span("evaluate", method="fitting"):
                interpretation = fitting_model(context).model
        elif semantics == "inflationary":
            with recorder.span("evaluate", method="inflationary"):
                interpretation = inflationary_model(context).interpretation
        elif semantics == "stable":
            with recorder.span("evaluate", method="stable"):
                interpretation = stable_consequences(
                    context, limits=limits, strategy=strategy
                )
        else:  # pragma: no cover - guarded by EngineConfig validation
            raise EvaluationError(f"unhandled semantics {semantics!r}")

        solution = Solution(
            program=program,
            semantics=semantics,
            interpretation=interpretation,
            base=frozenset(context.base),
            strategy=strategy,
            engine=engine,
            config=config,
            context=context,
        )
    if recorder.enabled:
        solve_span.annotate(
            semantics=semantics, atoms=len(context.base), rules=len(context.rules)
        )
    return solution


def solve(
    program: Union[str, Program],
    semantics: Optional[str] = None,
    database: Optional[Database] = None,
    limits: GroundingLimits | None = None,
    *,
    store: Optional[FactStore] = None,
    config: Optional[EngineConfig] = None,
    recorder: Optional[Recorder] = None,
) -> Solution:
    """Solve *program* under the requested semantics, one-shot.

    Parameters
    ----------
    program:
        Program text (parsed with the standard syntax) or a ready
        :class:`Program`.
    semantics:
        One of :data:`SUPPORTED_SEMANTICS` (default ``"auto"``).
        ``"stable"`` computes the *intersection* semantics (true in every
        stable model / false in every stable model) and raises when there
        is no stable model.  May be combined with ``config=``, overriding
        the config's semantics.
    database:
        Optional EDB facts to attach to the rules before solving.  The
        database's backing :class:`~repro.storage.FactStore` is probed in
        place by the grounder, so repeated solves against the same
        database reuse its indexes.
    store:
        Optional :class:`~repro.storage.FactStore` supplying the EDB
        directly — everywhere a ``database`` is accepted, a store now is
        too.  Passing both is rejected.
    config:
        An :class:`EngineConfig` carrying every evaluation choice
        (semantics / strategy / engine / grounder / matcher / limits),
        validated at construction.

    For repeated queries and evolving fact bases, prefer a stateful
    :class:`repro.session.KnowledgeBase` — it keeps the solved model warm
    and maintains it incrementally instead of re-solving from scratch.
    """
    resolved = resolve_config(config, semantics=semantics, limits=limits)
    return solve_configured(
        program, resolved, database=database, store=store, recorder=recorder
    )

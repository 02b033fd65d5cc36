"""Incremental maintenance of a ground session's well-founded model.

The component-wise evaluator already exploits the *relevance* of the
well-founded semantics in space: an SCC of the atom dependency graph only
ever reads the verdicts of the components below it.  This module exploits
the same structure in *time*: when the EDB changes, only verdicts with a
dependency path to a changed fact can move, and only as far as they
actually do move.

:class:`IncrementalEngine` holds one solved state per session:

* the rules' :class:`~repro.kernel.CompiledProgram`, built once with
  :func:`~repro.kernel.ground.ground_compiled` — atoms interned to dense
  ids, rules as CSR segments, components condensed once (the rule set of
  a session is fixed; only facts move);
* one :class:`~repro.kernel.ComponentKernel`: a truth vector and a fact
  vector over those ids, which *is* the model.

The first :meth:`~IncrementalEngine.refresh` (and any refresh after a
failure) solves every component with the batch kernel evaluator.  Later
refreshes hand the changed fact ids to a
:class:`~repro.delta.DeltaMaintainer`, which updates the truth vector in
place at atom granularity: counting for one-pass components,
delete-and-rederive for recursive definite ones, and a kernel re-solve of
the component only where negation is recursive.  Facts whose atom occurs
in no rule at all ("floating" facts) bypass the kernel entirely: they are
unconditionally true, nothing depends on them, and retracting one removes
it from the base outright — exactly what a from-scratch solve of the
updated program would produce, which is what the differential property
suite asserts.

The model view is decoded from the truth vector once per epoch;
:attr:`~IncrementalEngine.context` builds the object-level ground rules
only when an explainer asks for them.

Only *ground* rule sets are maintained this way: for non-ground rules a
new fact can enlarge the relevant grounding itself, so the owning
:class:`~repro.session.knowledge_base.KnowledgeBase` falls back to a full
re-solve.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

from ..core.context import GroundContext, build_context
from ..datalog.atoms import Atom
from ..datalog.rules import Program
from ..delta import DeltaMaintainer
from ..fixpoint.interpretations import PartialInterpretation
from ..kernel import ComponentKernel
from ..kernel.eval import decode_model
from ..kernel.ground import ground_compiled
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import Budget, current_meter, metered

__all__ = ["UpdateStats", "IncrementalEngine"]


@dataclass(frozen=True)
class UpdateStats:
    """What one model refresh actually did.

    ``mode`` is ``"initial"`` for a full solve of every component,
    ``"delta"`` when atom-level maintenance absorbed the update, and
    ``"rebuild"`` when the owning knowledge base had to re-solve from
    scratch (non-ground rules, or a semantics outside the well-founded
    family).  ``components_total`` / ``components_recomputed`` /
    ``components_reused`` quantify the reuse — the acceptance benchmark
    asserts ``components_recomputed`` stays proportional to the affected
    region, not to the program.  ``methods`` counts components by solver
    method (``horn`` / ``stratified`` / ``alternating``) for a full solve
    and by *maintenance* method (``counting`` / ``dred`` / ``resolve``) in
    ``"delta"`` mode.

    When a tracing :class:`~repro.obs.Recorder` is attached to the engine,
    the same quantities are emitted as the attributes and counters of the
    ``refresh`` span (``refresh.cache_hits`` is ``components_reused``) —
    this dataclass is the derived, API-stable view of that record.
    """

    mode: str
    changed: int
    components_total: int
    components_recomputed: int
    components_reused: int
    floating_changed: int
    methods: Mapping[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of components whose frozen verdict was reused."""
        if not self.components_total:
            return 0.0
        return self.components_reused / self.components_total

    def describe(self) -> str:
        if self.mode == "delta":
            return (
                f"delta: {self.changed} changed atom(s), "
                f"{self.components_recomputed}/{self.components_total} "
                f"component state(s) maintained, {self.components_reused} "
                f"untouched ({self.reuse_fraction:.0%})"
            )
        if not self.components_total:
            return f"{self.mode}: full re-solve of the program"
        return f"{self.mode}: all {self.components_total} components solved"


class IncrementalEngine:
    """Keeps the well-founded model of a ground rule set warm across EDB
    updates.

    Pass a :class:`~repro.storage.FactStore` (or call :meth:`observe`) and
    the engine subscribes to its change events: every mutation of the
    store — from the owning session, a batch rollback's inverse replay, or
    unrelated code holding the store — accumulates into the pending change
    set that :meth:`refresh_pending` hands to maintenance.  Without a
    store, callers hand the changed-atom set to :meth:`refresh`
    themselves.
    """

    def __init__(
        self,
        rules: Program,
        store: "FactStore | None" = None,
        recorder: Recorder | None = None,
        budget: Budget | None = None,
    ):
        rules.require_ground()
        self._rules = rules
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        # Started afresh by every refresh: the budget is a per-operation
        # deadline, so a long-lived session never "uses up" its allowance.
        self._budget = budget
        # The rules' IR, built once: a ground program interns its atoms
        # directly and condenses once.  Construction may run under an
        # ambient budget meter (a session refresh constructing its
        # engine); grounding and condensation checkpoint it as they go,
        # and a last check follows the build.
        compiled = ground_compiled(rules, recorder=self._recorder)
        current_meter().check("refresh")
        self._kernel = ComponentKernel(compiled)
        self._ids = compiled.table.ids
        self._rule_atoms: frozenset[Atom] = frozenset(compiled.table.atoms)
        # The object-level rule context, built only if an explainer asks.
        self._rule_context: Optional[GroundContext] = None

        # Mutable solved state, populated by the first refresh.
        self._floating: set[Atom] = set()
        self._facts: frozenset[Atom] = frozenset()
        self._solved = False
        self._last: Optional[UpdateStats] = None
        # Solver-method tallies of the last full solve (statistics()).
        self._methods: dict[str, int] = {}
        self._stages = 0
        # Atom-level maintenance state, built lazily after the first full
        # solve and discarded whenever the model is rebuilt from scratch.
        self._delta: Optional[DeltaMaintainer] = None
        # The model view's per-epoch cache (the model only moves on a
        # successful refresh, which bumps the epoch).
        self._model_cache: Optional[tuple[int, PartialInterpretation]] = None
        # Monotone model-version counter: bumped once per *successful*
        # refresh, so two reads observing the same epoch are guaranteed to
        # observe the same model.  The query service stamps every response
        # with the epoch its snapshot was pinned at.
        self._epoch = 0

        # Store-event plumbing: the *last seen direction* per mutated atom
        # since the last successful refresh.  Keying by direction (rather
        # than a symmetric presence toggle) means duplicate same-direction
        # events — a listener replay, a rollback's inverse replay — cannot
        # cancel a genuinely pending change; an atom is pending iff its
        # last direction disagrees with the solved base.
        self._pending: dict[Atom, bool] = {}
        self._observed: "FactStore | None" = None
        if store is not None:
            self.observe(store)

    # ------------------------------------------------------------------ #
    # Store change events
    # ------------------------------------------------------------------ #
    def observe(self, store: "FactStore") -> None:
        """Subscribe to *store*'s change events (replacing any previous
        subscription); mutations accumulate for :meth:`refresh_pending`."""
        if self._observed is not None:
            self._observed.unsubscribe(self._record_change)
        self._observed = store
        store.subscribe(self._record_change)

    def detach(self) -> None:
        """Unsubscribe from the observed store, if any."""
        if self._observed is not None:
            self._observed.unsubscribe(self._record_change)
            self._observed = None

    def _record_change(self, atom: Atom, added: bool) -> None:
        self._pending[atom] = added

    @property
    def pending_changes(self) -> frozenset[Atom]:
        """Atoms whose fact status flipped since the last refresh (as seen
        through the observed store's events): the last recorded direction
        disagrees with the solved base, so assert+retract pairs cancel
        while repeated same-direction events stay pending."""
        return frozenset(
            atom
            for atom, added in self._pending.items()
            if added != (atom in self._facts)
        )

    def refresh_pending(self, facts: frozenset[Atom]) -> UpdateStats:
        """:meth:`refresh` driven by the observed store's change events.

        Before the first solve the refresh is full; afterwards only the
        pending changes are maintained.  The pending set is drained only
        on success — a failed refresh leaves it queued so the next call
        retries the same delta.
        """
        changed = set(self.pending_changes) if self._solved else None
        stats = self.refresh(facts, changed)
        self._pending.clear()
        return stats

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> PartialInterpretation:
        """The current well-founded partial model (decoded once per
        epoch — the truth vector only moves on a successful refresh)."""
        cache = self._model_cache
        if cache is not None and cache[0] == self._epoch:
            return cache[1]
        kernel = self._kernel
        model = decode_model(kernel.compiled, kernel.truth, self._floating)
        self._model_cache = (self._epoch, model)
        return model

    @property
    def base(self) -> frozenset[Atom]:
        """The current atom universe: rule atoms plus the current facts.

        A fact is either a rule atom or floating, so only the (usually
        few) floating facts need adding."""
        if not self._floating:
            return self._rule_atoms
        return self._rule_atoms | self._floating

    @property
    def context(self) -> GroundContext:
        """A :class:`GroundContext` for the current program state (used by
        the explainer).  The rules' object form is built on first use."""
        if self._rule_context is None:
            self._rule_context = build_context(self._rules)
        return dataclasses.replace(self._rule_context, facts=self._facts, base=self.base)

    @property
    def component_count(self) -> int:
        return self._kernel.compiled.n_components

    @property
    def last_update(self) -> Optional[UpdateStats]:
        return self._last

    @property
    def epoch(self) -> int:
        """Number of successful refreshes so far — the warm model's
        version.  0 means no model has been solved yet; a failed refresh
        leaves the epoch (like the model) unchanged."""
        return self._epoch

    def statistics(self) -> dict[str, object]:
        """Component and size counters of the solved state: ``components``,
        ``largest_component``, the solver ``methods`` and ``stages`` of the
        last full solve, and the ``ground_rules`` / ``facts`` / ``atoms``
        sizes of the current program."""
        compiled = self._kernel.compiled
        comp_off = compiled.comp_off
        largest = max(
            (comp_off[i + 1] - comp_off[i] for i in range(compiled.n_components)),
            default=0,
        )
        return {
            "components": compiled.n_components,
            "largest_component": largest,
            "methods": dict(self._methods),
            "stages": self._stages,
            "ground_rules": compiled.n_rules,
            "facts": len(self._facts),
            "atoms": len(self.base),
        }

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def refresh(
        self, facts: frozenset[Atom], changed: Optional[Iterable[Atom]] = None
    ) -> UpdateStats:
        """Bring the model up to date with *facts*.

        *changed* is the set of atoms whose fact status flipped since the
        last refresh; ``None`` forces a full (re)solve.  Returns the
        :class:`UpdateStats` describing the work done.
        """
        started = time.perf_counter()
        recorder = self._recorder
        with recorder.span("refresh") as refresh_span, metered(self._budget) as meter:
            try:
                if not self._solved or changed is None:
                    stats = self._solve_all(facts)
                else:
                    stats = self._solve_delta(facts, set(changed))
            except BaseException:
                # A failure mid-pass (including a budget abort) leaves the
                # truth vector and the maintainer's counters torn: drop to
                # unsolved so the next refresh rebuilds from scratch
                # instead of serving the torn state.
                self._solved = False
                raise
            finally:
                if recorder.enabled and meter.active:
                    recorder.count("budget.steps", meter.steps)
                    recorder.count("budget.elapsed_ms", int(meter.elapsed() * 1000))
            self._facts = facts
            self._solved = True
            self._epoch += 1
            self._last = dataclasses.replace(
                stats, elapsed=time.perf_counter() - started
            )
        if recorder.enabled:
            refresh_span.annotate(
                mode=self._last.mode,
                changed=self._last.changed,
                components_recomputed=self._last.components_recomputed,
                components_reused=self._last.components_reused,
            )
            recorder.count("refresh.cache_hits", self._last.components_reused)
            recorder.count("refresh.changed_atoms", self._last.changed)
        return self._last

    def _solve_all(self, facts: frozenset[Atom]) -> UpdateStats:
        # Any previous maintenance state described the old solved model;
        # a fresh maintainer is primed lazily from the new one.
        self._delta = None
        kernel = self._kernel
        ids = self._ids
        is_fact = kernel.is_fact
        is_fact[:] = bytes(len(is_fact))
        floating: set[Atom] = set()
        for atom in facts:
            atom_id = ids.get(atom)
            if atom_id is None:
                floating.add(atom)
            else:
                is_fact[atom_id] = 1
        self._floating = floating
        recorder = self._recorder
        with recorder.span("evaluate", method="kernel") as evaluate_span:
            methods, stages, decrements = kernel.solve_all(recorder.enabled)
        total = kernel.compiled.n_components
        if recorder.enabled:
            evaluate_span.annotate(components=total, stages=stages, **methods)
            recorder.count("kernel.decrements", decrements)
        self._methods = methods
        self._stages = stages
        return UpdateStats(
            mode="initial",
            changed=0,
            components_total=total,
            components_recomputed=total,
            components_reused=0,
            floating_changed=len(floating),
            methods=methods,
        )

    def _solve_delta(self, facts: frozenset[Atom], changed: set[Atom]) -> UpdateStats:
        ids = self._ids
        is_fact = self._kernel.is_fact
        changed_ids: list[int] = []
        floating_changed = 0
        for atom in changed:
            present = atom in facts
            atom_id = ids.get(atom)
            if atom_id is not None:
                is_fact[atom_id] = present
                changed_ids.append(atom_id)
                continue
            floating_changed += 1
            if present:
                self._floating.add(atom)
            else:
                self._floating.discard(atom)
        if self._delta is None:
            self._delta = DeltaMaintainer(self._kernel)
        meter = current_meter()
        outcome = self._delta.apply(changed_ids, step=lambda: meter.step("refresh"))
        recorder = self._recorder
        if recorder.enabled:
            recorder.count("delta.components", outcome.components)
            recorder.count("delta.changed_atoms", outcome.atoms_changed)
            recorder.count("delta.overdeleted", outcome.overdeleted)
            recorder.count("delta.rederived", outcome.rederived)
            recorder.count(
                "delta.resolve_fallbacks", outcome.methods.get("resolve", 0)
            )
        total = self._kernel.compiled.n_components
        return UpdateStats(
            mode="delta",
            changed=len(changed),
            components_total=total,
            components_recomputed=outcome.components,
            components_reused=total - outcome.components,
            floating_changed=floating_changed,
            methods=dict(outcome.methods),
        )

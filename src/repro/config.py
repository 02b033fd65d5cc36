"""One validated configuration object for the whole evaluation stack.

Historically the public surface grew one loosely-validated string keyword at
a time — ``semantics=`` on :func:`repro.engine.solver.solve`, ``strategy=``
threaded through :mod:`repro.core`, ``engine=`` through the well-founded
entry points, ``grounder=`` on :func:`repro.core.context.build_context` and
``matcher=`` on :func:`repro.datalog.grounding.relevant_ground` — each
validated (or not) at a different layer with a different error message.

:class:`EngineConfig` replaces that sprawl: one frozen dataclass holding
every evaluation choice, validated *once* at construction with error
messages that consistently list the accepted values.  It is accepted by
:class:`repro.session.KnowledgeBase`, :func:`repro.engine.solver.solve`,
and every ``core``/``semantics`` entry point; :func:`resolve_config`
merges the ``semantics=``/``limits=`` conveniences of the public entry
points into it.

This module is the canonical home of the option tuples.  The historical
locations (``repro.evaluation.engine``, ``repro.core.modular``,
``repro.engine.solver``) re-export them unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from .datalog.grounding import (
    DEFAULT_GROUNDING_MATCHER,
    GROUNDING_MATCHERS,
    GroundingLimits,
)
from .exceptions import EvaluationError, GroundingError
from .resilience.budget import Budget
from .storage import DEFAULT_STORE, SUPPORTED_STORES, open_store, parse_store_spec

__all__ = [
    "SUPPORTED_SEMANTICS",
    "DEFAULT_SEMANTICS",
    "EVALUATION_STRATEGIES",
    "DEFAULT_STRATEGY",
    "EVALUATION_ENGINES",
    "DEFAULT_ENGINE",
    "SUPPORTED_GROUNDERS",
    "DEFAULT_GROUNDER",
    "GROUNDING_MATCHERS",
    "DEFAULT_GROUNDING_MATCHER",
    "SUPPORTED_STORES",
    "DEFAULT_STORE",
    "REFRESH_MODES",
    "DEFAULT_REFRESH",
    "validate_semantics",
    "validate_strategy",
    "validate_engine",
    "validate_grounder",
    "validate_matcher",
    "validate_store",
    "validate_refresh",
    "EngineConfig",
    "resolve_config",
    "merge_entry_config",
]

#: Model-theoretic semantics the solver can compute.  ``"auto"`` picks the
#: cheapest one that agrees with the well-founded model for the program's
#: syntactic class.
SUPPORTED_SEMANTICS = (
    "auto",
    "alternating-fixpoint",
    "well-founded",
    "stratified",
    "horn",
    "fitting",
    "inflationary",
    "stable",
)
DEFAULT_SEMANTICS = "auto"

#: Fixpoint evaluation strategies: indexed delta-driven semi-naive
#: evaluation, and the literal re-scan-everything oracle.
EVALUATION_STRATEGIES = ("seminaive", "naive")
DEFAULT_STRATEGY = "seminaive"

#: Well-founded evaluation engines: component-wise over the SCC condensation
#: of the atom dependency graph, the monolithic alternating fixpoint it is
#: differentially tested against, and the compiled flat-array kernel
#: (:mod:`repro.kernel`) that interns atoms to dense ints and evaluates the
#: same component dispatch over ``array``/``bytearray`` state.
EVALUATION_ENGINES = ("modular", "monolithic", "kernel")
DEFAULT_ENGINE = "modular"

#: Grounders accepted by :func:`repro.core.context.build_context`.
#: ``"relevant-scan"`` is the legacy spelling of the relevant grounder with
#: the linear-scan matcher; prefer ``grounder="relevant", matcher="scan"``.
SUPPORTED_GROUNDERS = ("relevant", "relevant-scan", "naive")
DEFAULT_GROUNDER = "relevant"

#: Refresh scheduling under write traffic: ``"eager"`` refreshes the model
#: after every applied write; ``"coalesce"`` lets batching layers (the
#: query service's writer loop) drain a window of queued writes into one
#: maintenance pass before refreshing.
REFRESH_MODES = ("eager", "coalesce")
DEFAULT_REFRESH = "eager"


def _unknown(kind: str, value: object, accepted: Sequence[str]) -> str:
    """The one error-message shape every option validator uses."""
    return f"unknown {kind} {value!r}; expected one of {', '.join(accepted)}"


def validate_semantics(semantics: str) -> str:
    """Return *semantics* if it is known, raising otherwise."""
    if semantics not in SUPPORTED_SEMANTICS:
        raise EvaluationError(_unknown("semantics", semantics, SUPPORTED_SEMANTICS))
    return semantics


def validate_strategy(strategy: str) -> str:
    """Return *strategy* if it is known, raising otherwise."""
    if strategy not in EVALUATION_STRATEGIES:
        raise EvaluationError(
            _unknown("evaluation strategy", strategy, EVALUATION_STRATEGIES)
        )
    return strategy


def validate_engine(engine: str) -> str:
    """Return *engine* if it is known, raising otherwise."""
    if engine not in EVALUATION_ENGINES:
        raise EvaluationError(_unknown("evaluation engine", engine, EVALUATION_ENGINES))
    return engine


def validate_grounder(grounder: str) -> str:
    """Return *grounder* if it is known, raising otherwise."""
    if grounder not in SUPPORTED_GROUNDERS:
        raise GroundingError(_unknown("grounder", grounder, SUPPORTED_GROUNDERS))
    return grounder


def validate_matcher(matcher: str) -> str:
    """Return *matcher* if it is known, raising otherwise."""
    if matcher not in GROUNDING_MATCHERS:
        raise GroundingError(
            _unknown("grounding matcher", matcher, GROUNDING_MATCHERS)
        )
    return matcher


def validate_store(store: str) -> str:
    """Return the store spec if it is well-formed, raising otherwise.

    Accepted shapes: ``"memory"`` (default) or ``"sqlite:PATH"`` — see
    :func:`repro.storage.parse_store_spec`.
    """
    parse_store_spec(store)
    return store


def validate_refresh(refresh: str) -> str:
    """Return *refresh* if it is known, raising otherwise."""
    if refresh not in REFRESH_MODES:
        raise EvaluationError(_unknown("refresh mode", refresh, REFRESH_MODES))
    return refresh


@dataclass(frozen=True)
class EngineConfig:
    """Every evaluation choice, validated together at construction.

    Attributes
    ----------
    semantics:
        One of :data:`SUPPORTED_SEMANTICS`; ``"auto"`` (default) resolves
        to the cheapest semantics agreeing with the well-founded model.
    strategy:
        Fixpoint evaluation strategy, one of :data:`EVALUATION_STRATEGIES`.
    engine:
        Well-founded evaluation engine, one of :data:`EVALUATION_ENGINES`.
        Only consulted by the well-founded / alternating-fixpoint semantics.
    grounder:
        One of :data:`SUPPORTED_GROUNDERS`.
    matcher:
        Rule-matching implementation of the relevant grounder
        (:data:`GROUNDING_MATCHERS`), or ``None`` for the default.  Only
        meaningful with ``grounder="relevant"`` — any other combination is
        rejected here, in the one place field combinations are checked.
    store:
        Fact-storage backend spec: ``"memory"`` (default) or
        ``"sqlite:PATH"``.  A :class:`~repro.session.KnowledgeBase` built
        with this config keeps its EDB in the named backend, and one-shot
        :func:`~repro.engine.solver.solve` calls read their facts from it
        (:meth:`create_store` opens the backend).
    limits:
        Optional :class:`~repro.datalog.grounding.GroundingLimits`.
    budget:
        Optional :class:`~repro.resilience.Budget` — wall-clock deadline,
        fixpoint-step cap, and/or cooperative cancel token, enforced at
        checkpoints in every evaluation phase.  Each solve or refresh that
        honours the config starts the budget afresh (a per-operation
        deadline, not a lifetime allowance).
    refresh:
        Refresh scheduling under write traffic, one of
        :data:`REFRESH_MODES`.  ``"coalesce"`` lets the query service's
        writer drain a window of queued writes into one refresh.
    """

    semantics: str = DEFAULT_SEMANTICS
    strategy: str = DEFAULT_STRATEGY
    engine: str = DEFAULT_ENGINE
    grounder: str = DEFAULT_GROUNDER
    matcher: Optional[str] = None
    store: str = DEFAULT_STORE
    limits: Optional[GroundingLimits] = None
    budget: Optional[Budget] = None
    refresh: str = DEFAULT_REFRESH

    def __post_init__(self) -> None:
        validate_semantics(self.semantics)
        validate_strategy(self.strategy)
        validate_engine(self.engine)
        validate_grounder(self.grounder)
        validate_store(self.store)
        validate_refresh(self.refresh)
        if self.matcher is not None:
            validate_matcher(self.matcher)
            if self.grounder != "relevant":
                raise GroundingError(
                    f"matcher={self.matcher!r} applies only to the 'relevant' "
                    f"grounder, not grounder={self.grounder!r}"
                )
        if self.limits is not None and not isinstance(self.limits, GroundingLimits):
            raise EvaluationError(
                f"limits must be a GroundingLimits instance, got {self.limits!r}"
            )
        if self.budget is not None and not isinstance(self.budget, Budget):
            raise EvaluationError(
                f"budget must be a repro.resilience.Budget instance, got {self.budget!r}"
            )

    # ------------------------------------------------------------------ #
    @property
    def resolved_grounder(self) -> str:
        """The grounder name :func:`~repro.core.context.build_context`
        consumes, with the matcher folded in."""
        if self.grounder == "relevant" and self.matcher == "scan":
            return "relevant-scan"
        return self.grounder

    def replace(self, **changes: object) -> "EngineConfig":
        """A copy with some fields changed (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def create_store(self):
        """Open the :class:`~repro.storage.FactStore` the ``store`` spec
        names (a fresh backend per call; the caller owns closing it)."""
        return open_store(self.store)

    def describe(self) -> dict[str, object]:
        """The configuration as a plain dict (CLI/REPL ``config`` display)."""
        return {
            "semantics": self.semantics,
            "strategy": self.strategy,
            "engine": self.engine,
            "grounder": self.resolved_grounder,
            "store": self.store,
            "limits": self.limits,
            "budget": self.budget.describe() if self.budget is not None else None,
            "refresh": self.refresh,
        }


def merge_entry_config(
    config: Optional["EngineConfig"],
    *,
    strategy: Optional[str] = None,
    engine: Optional[str] = None,
    limits: Optional[GroundingLimits] = None,
    grounder: Optional[str] = None,
    default_engine: str = DEFAULT_ENGINE,
) -> tuple[str, str, Optional[GroundingLimits], Optional[str], Optional[Budget]]:
    """Resolve the ``(strategy, engine, limits, grounder, budget)`` tuple a
    ``core`` or ``semantics`` entry point runs with.

    With a *config*, the legacy ``strategy=``/``engine=`` keywords must not
    also be given (``limits=`` may still override the config's), and the
    returned grounder is the config's resolved one — entry points forward
    it to :func:`~repro.core.context.build_context` so a config's grounder
    choice is honoured everywhere, not only by ``solve``.  The budget is
    always the config's (there is no legacy keyword spelling); entry
    points activate it with :func:`repro.resilience.metered`, which also
    inherits an ambient meter when the budget is ``None`` — so nested
    calls made inside a governed solve stay governed.  Without a config,
    the keywords are validated individually, unset fields fall back to
    the defaults (*default_engine* lets entry points whose historical
    default is the monolithic engine keep it), and the grounder is
    ``None`` (i.e. ``build_context``'s own default).
    """
    if config is not None:
        conflicts = [
            name
            for name, value in (
                ("strategy", strategy),
                ("engine", engine),
                ("grounder", grounder),
            )
            if value is not None
        ]
        if conflicts:
            raise EvaluationError(
                f"got both config= and {'/'.join(conflicts)}=; "
                "pass the value inside the config"
            )
        return (
            config.strategy,
            config.engine,
            limits if limits is not None else config.limits,
            config.resolved_grounder,
            config.budget,
        )
    return (
        validate_strategy(strategy if strategy is not None else DEFAULT_STRATEGY),
        validate_engine(engine if engine is not None else default_engine),
        limits,
        validate_grounder(grounder) if grounder is not None else None,
        None,
    )


def resolve_config(
    config: Optional[EngineConfig] = None,
    *,
    semantics: Optional[str] = None,
    limits: Optional[GroundingLimits] = None,
) -> EngineConfig:
    """The :class:`EngineConfig` a public entry point runs under.

    ``semantics`` and ``limits`` are first-class conveniences on
    :func:`~repro.engine.solver.solve` and
    :class:`~repro.session.KnowledgeBase`: they override the corresponding
    fields of *config*, or of the default config when none is given.
    Every other choice travels inside the config.
    """
    if config is None:
        config = EngineConfig()
    if semantics is not None:
        config = config.replace(semantics=validate_semantics(semantics))
    if limits is not None:
        config = config.replace(limits=limits)
    return config

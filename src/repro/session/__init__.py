"""Stateful knowledge-base sessions with incremental model maintenance.

* :class:`KnowledgeBase` — rules plus a mutable EDB, a fluent query
  surface, and a solved model kept warm across updates;
* :class:`ResultSet` — lazy, predicate-indexed relation views;
* :class:`SessionSnapshot` — an immutable, thread-safe view of one model
  epoch (solution + pinned store window), the read unit of
  :mod:`repro.service`;
* :class:`IncrementalEngine` / :class:`UpdateStats` — the compiled solved
  state and atom-level maintenance behind incremental refreshes;
* :func:`run_repl` — the interactive loop behind ``python -m repro repl``;
* :class:`EngineConfig` — re-exported from :mod:`repro.config`, the one
  validated carrier of every evaluation choice.
"""

from ..config import EngineConfig
from .incremental import IncrementalEngine, UpdateStats
from .knowledge_base import KnowledgeBase, ResultSet, SessionSnapshot
from .repl import run_repl

__all__ = [
    "EngineConfig",
    "IncrementalEngine",
    "KnowledgeBase",
    "ResultSet",
    "SessionSnapshot",
    "UpdateStats",
    "run_repl",
]

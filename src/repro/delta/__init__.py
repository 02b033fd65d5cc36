"""Atom-level delta maintenance for incremental sessions.

Maintains a session's compiled truth vector under fact changes with
per-rule integer counters (counting for one-pass components,
delete-and-rederive for recursive definite ones, a kernel re-solve of the
component only where negation is recursive), so that sustained
assert/retract churn costs O(affected derivations).  See
:mod:`repro.delta.maintainer`.
"""

from .maintainer import DeltaMaintainer, DeltaOutcome, classify_component

__all__ = ["DeltaMaintainer", "DeltaOutcome", "classify_component"]

"""Spans around the program's layer boundaries, recorded from outside.

:class:`Tracer` wraps the public functions each layer is entered
through, without changing a line of the program: module-level functions
are replaced wherever a ``repro`` module holds a reference to them, and
methods on their class.  Every call records one span — name, start, end,
parent span, the operation it belongs to and whether that operation was
in its write/solve half or its read half — in memory;
:meth:`Tracer.remove` puts every original back and :meth:`Tracer.write`
writes the spans out when the run ends.  A few wrappers also
record a count read off the call's result (rules grounded, atoms a delta
pass changed, the refresh mode).

:func:`layer_metrics` turns the spans of the traced operations into the
per-layer metrics.  A span's *self time* is its duration minus that of
its wrapped children in the same thread.  Times spent computing are
rescaled like every other timing (see :mod:`steady`); the two waits —
the write queue and the socket — are reported as measured.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

#: (layer, "module" or "module:Class", attribute).
TARGETS = (
    ("parser", "repro.datalog.parser", "parse_program"),
    ("analysis", "repro.analysis.classification", "classify"),
    ("grounding", "repro.core.context", "build_context"),
    ("condense", "repro.analysis.dependency", "build_atom_dependency_graph"),
    ("condense", "repro.analysis.dependency:AtomDependencyGraph", "condensation_order"),
    ("components", "repro.core.modular", "solve_component"),
    ("kernel.compile", "repro.kernel.compile", "compile_context"),
    ("kernel.evaluate", "repro.kernel.eval", "evaluate_compiled"),
    ("row_index", "repro.engine.solver:Solution", "_true_rows"),
    ("row_index", "repro.engine.solver:Solution", "_undefined_rows"),
    ("query", "repro.engine.solver:Solution", "relation"),
    ("query", "repro.engine.solver:Solution", "undefined_relation"),
    ("query", "repro.engine.query", "ask"),
    ("query", "repro.session.knowledge_base:ResultSet", "_rows"),
    ("query", "repro.session.knowledge_base:SessionSnapshot", "rows"),
    ("refresh", "repro.session.knowledge_base:KnowledgeBase", "_refresh"),
    ("delta", "repro.delta.maintainer:DeltaMaintainer", "apply"),
    ("storage", "repro.storage.memory:MemoryStore", "add_atom"),
    ("storage", "repro.storage.memory:MemoryStore", "remove_atom"),
    ("storage", "repro.storage.sqlite:SqliteStore", "add_atom"),
    ("storage", "repro.storage.sqlite:SqliteStore", "remove_atom"),
    ("service.submit", "repro.service.core:QueryService", "submit"),
    ("service.apply", "repro.service.core:QueryService", "_apply"),
    ("http", "repro.service.http:ServiceRequestHandler", "_dispatch"),
)

# Span fields.  A finished span is a tuple of numbers and strings, which
# the collector stops tracking, so a long traced run does not slow every
# later collection down.
NAME, START, END, ID, PARENT, OP, PHASE, EXTRA = range(8)


def _counts(layer: str, args: tuple, result: object, before: object) -> object:
    """The count a wrapper reads off a finished call, if any."""
    if layer == "grounding":
        return len(result.rules)
    if layer == "delta":
        return (result.components, result.atoms_changed)
    if layer == "refresh":
        update = args[0].last_update
        return update.mode if update is not before else None
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.op: object = None
        self.phase = ""
        self._local = threading.local()
        self._undo: list[tuple] = []
        import repro.kernel  # noqa: F401 - loaded so its functions can be wrapped

    def _wrap(self, layer: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            op, phase = tracer.op, tracer.phase
            before = args[0].last_update if layer == "refresh" else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = _counts(layer, args, result, before)
            tracer.spans.append((layer, start, end, span_id, parent, op, phase, extra))
            return result

        return wrapper

    def install(self) -> None:
        for layer, owner, attribute in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if not class_name:
                original = getattr(module, attribute)
                wrapper = self._wrap(layer, original)
                for name, loaded in list(sys.modules.items()):
                    if not name.startswith("repro") or loaded is None:
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapper)
                            self._undo.append((loaded, key, original))
                continue
            cls = getattr(module, class_name)
            member = cls.__dict__[attribute]
            if isinstance(member, functools.cached_property):
                original = member.func
                member.func = self._wrap(layer, original)
                self._undo.append((member, "func", original))
            else:
                setattr(cls, attribute, self._wrap(layer, member))
                self._undo.append((cls, attribute, member))

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write every span out, one JSON array per line, in field order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def layer_metrics(tracer: Tracer, traced: list[dict], reads_per_round: int) -> dict:
    """Per-layer metrics over the traced operations.

    Each entry of *traced* describes one operation: its ``id``, its
    ``op`` and ``read`` :class:`~steady.Sample`, the client-observed
    ``requests`` latencies (serve only) and the read round's
    ``composition``.
    """
    by_op: dict[object, list[tuple]] = {}
    child_time: dict[int, float] = {}
    for span in tracer.spans:
        by_op.setdefault(span[OP], []).append(span)
        if span[PARENT]:
            child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + span[END] - span[START]

    total: dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        total[key] = total.get(key, 0.0) + amount

    covered = window = 0.0
    requests = handler_raw = 0.0
    refreshes = rebuilds = http_requests = 0
    signatures = set()
    for entry in traced:
        factor = {"op": entry["op"].factor, "read": entry["read"].factor}
        intervals = {"op": [], "read": []}
        apply_start = submit_start = None
        index_builds = 0
        for span in by_op.get(entry["id"], ()):
            layer, phase = span[NAME], span[PHASE]
            duration = span[END] - span[START]
            own = duration - child_time.get(span[ID], 0.0)
            intervals[phase].append((span[START], span[END]))
            add(f"{phase}.self.{layer}", own * 1e3 * factor[phase])
            add(f"{phase}.total.{layer}", duration * 1e3 * factor[phase])
            if layer == "http":
                handler_raw += duration * 1e3
                http_requests += 1
            if layer == "row_index" and phase == "read":
                index_builds += 1
            if phase != "op":
                continue
            if layer == "grounding":
                add("rules", span[EXTRA])
            elif layer == "delta":
                add("delta.components", span[EXTRA][0])
                add("delta.atoms", span[EXTRA][1])
            elif layer == "refresh" and span[EXTRA] is not None:
                refreshes += 1
                rebuilds += span[EXTRA] == "rebuild"
            elif layer == "service.submit" and submit_start is None:
                submit_start = span[START]
            elif layer == "service.apply" and apply_start is None:
                apply_start = span[START]
        if submit_start is not None and apply_start is not None:
            add("queue_wait", (apply_start - submit_start) * 1e3)
        for phase in ("op", "read"):
            sample = entry[phase]
            window += sample.wall_ms / 1e3
            covered += _union(
                [
                    (max(start, sample.start), min(end, sample.end))
                    for start, end in intervals[phase]
                    if end > sample.start and start < sample.end
                ]
            )
        requests += sum(entry["requests"])
        signatures.add((entry["composition"], index_builds))

    ops = max(1, len(traced))
    reads = max(1, len(traced) * reads_per_round)

    def per(key: str, denominator: float) -> float:
        return total.get(key, 0.0) / denominator

    return {
        "parser.ms_per_op": per("op.self.parser", ops),
        "analysis.ms_per_op": per("op.self.analysis", ops),
        "grounding.ms_per_op": per("op.self.grounding", ops),
        "grounding.rules_per_op": per("rules", ops),
        "modular.condense_ms_per_op": per("op.self.condense", ops),
        "modular.components_ms_per_op": per("op.total.components", ops),
        "kernel.compile_ms_per_op": per("op.total.kernel.compile", ops),
        "kernel.evaluate_ms_per_op": per("op.total.kernel.evaluate", ops),
        "solver.row_index_ms_per_read": per("read.self.row_index", reads),
        "query.ms_per_read": per("read.self.query", reads),
        "session.refresh_ms_per_write": per("op.total.refresh", ops),
        "session.rebuild_share": rebuilds / refreshes if refreshes else 0.0,
        "delta.maintain_ms_per_write": per("op.total.delta", ops),
        "delta.atoms_changed_per_write": per("delta.atoms", ops),
        "delta.components_per_write": per("delta.components", ops),
        "session.publish_ms_per_write": per("op.self.refresh", ops),
        "storage.ms_per_write": per("op.self.storage", ops),
        "service.queue_wait_ms_per_write": per("queue_wait", ops),
        "service.apply_ms_per_write": per("op.total.service.apply", ops),
        "http.handler_ms_per_request": (
            (per("op.total.http", 1) + per("read.total.http", 1)) / http_requests
            if http_requests
            else 0.0
        ),
        "http.wait_ms_per_request": (
            (requests - handler_raw) / http_requests if http_requests else 0.0
        ),
        "trace.coverage": covered / window if window else 0.0,
        "read.compositions": float(len(signatures)),
    }


"""Hash-indexed relations: the in-memory fact store's row layout.

:class:`Relation` holds the ground facts of one ``(predicate, arity)``
signature in insertion order with **lazy hash indexes keyed on
bound-argument positions**: a probe with ``k`` bound argument positions
builds (once, then maintains incrementally) a dict from the projected key
tuple to the matching row ids, so later probes cost O(1) plus the matches
instead of a scan.  Every row carries its insertion sequence number, so a
probe can be restricted to a ``[lo, hi)`` *delta window* of rows — the
probe shape of :meth:`repro.storage.FactStore.candidate_rows`.
:class:`RelationStore` keys relations on the full signature.

:class:`repro.storage.MemoryStore` keeps its facts here.  The grounder
itself joins over interned ints (:mod:`repro.kernel.ground`), reading a
store's relations once per run.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterator, Optional

from .atoms import Atom
from .terms import Term

__all__ = ["Relation", "RelationStore"]


class Relation:
    """The ground facts of one ``(predicate, arity)`` signature.

    Rows are argument tuples kept in insertion order; ``row_ids`` maps a
    row to its sequence number (doubling as the duplicate filter), and
    ``indexes`` holds one hash index per binding pattern that has actually
    been probed.  Indexes are built lazily from the current rows and then
    maintained incrementally on every :meth:`add`, so the cost of an index
    is only paid for patterns the workload's rules really use.

    Removal (used by the long-lived :class:`repro.storage.MemoryStore`)
    leaves a ``None`` tombstone in ``rows`` so
    the sequence numbers of surviving rows — which delta windows and index
    posting lists are keyed on — stay valid; probes skip tombstones, and
    :meth:`compact` rebuilds once the garbage dominates.
    """

    __slots__ = ("predicate", "arity", "rows", "row_ids", "indexes", "dead", "_index_lock")

    def __init__(self, predicate: str, arity: int):
        self.predicate = predicate
        self.arity = arity
        self.rows: list[Optional[tuple[Term, ...]]] = []
        self.row_ids: dict[tuple[Term, ...], int] = {}
        self.indexes: dict[tuple[int, ...], dict[tuple[Term, ...], list[int]]] = {}
        self.dead = 0
        # Serialises index *registration* against row insertion: a reader
        # thread lazily building an index while the single writer appends
        # could otherwise register a posting list missing the new row (the
        # writer's maintenance loop only sees already-registered indexes).
        # Probes take the lock-free fast path once the index exists.
        self._index_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.rows) - self.dead

    def __contains__(self, args: tuple[Term, ...]) -> bool:
        return args in self.row_ids

    @property
    def sequence_bound(self) -> int:
        """Exclusive upper bound on row sequence numbers (tombstones
        included, so the bound is monotone under removal)."""
        return len(self.rows)

    def add(self, args: tuple[Term, ...]) -> bool:
        """Append a row unless present; returns True when the row is new.

        New rows are appended to every index already built, keeping lazy
        indexes consistent without rebuilds.
        """
        if args in self.row_ids:
            return False
        with self._index_lock:
            sequence = len(self.rows)
            self.rows.append(args)
            self.row_ids[args] = sequence
            for positions, index in self.indexes.items():
                key = tuple(args[p] for p in positions)
                index.setdefault(key, []).append(sequence)
        return True

    def remove(self, args: tuple[Term, ...]) -> bool:
        """Tombstone a row if present; returns True when a row was removed."""
        sequence = self.row_ids.pop(args, None)
        if sequence is None:
            return False
        self.rows[sequence] = None
        self.dead += 1
        return True

    def compact(self) -> None:
        """Drop tombstones, renumbering the surviving rows.

        Invalidates every outstanding sequence number, so callers must only
        compact between grounding runs — never while delta windows over
        this relation are live.
        """
        if not self.dead:
            return
        with self._index_lock:
            survivors = [args for args in self.rows if args is not None]
            probed = tuple(self.indexes)
            self.rows = survivors
            self.row_ids = {args: sequence for sequence, args in enumerate(survivors)}
            self.dead = 0
            self.indexes = {
                positions: self._build_index(positions) for positions in probed
            }

    def _build_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple[Term, ...], list[int]]:
        index: dict[tuple[Term, ...], list[int]] = {}
        for sequence, args in enumerate(self.rows):
            if args is None:
                continue
            key = tuple(args[p] for p in positions)
            index.setdefault(key, []).append(sequence)
        return index

    def ensure_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple[Term, ...], list[int]]:
        """The hash index keyed on the given argument positions, built on
        first use from the current rows.

        The existing-index fast path is lock-free; building takes the
        relation's index lock so a concurrent writer cannot slip a row in
        between the scan and the registration.
        """
        index = self.indexes.get(positions)
        if index is None:
            with self._index_lock:
                index = self.indexes.get(positions)
                if index is None:
                    index = self._build_index(positions)
                    self.indexes[positions] = index
        return index

    def candidates(
        self,
        positions: tuple[int, ...],
        key: tuple[Term, ...],
        lo: int,
        hi: int,
    ) -> Iterator[int]:
        """Row ids in ``[lo, hi)`` whose projection onto *positions* is *key*.

        Three probe shapes: all positions bound is a plain membership test
        on ``row_ids``; no position bound walks the whole window; otherwise
        the lazy hash index is consulted and its (ascending) posting list
        cut to the window with a bisect.  Tombstoned rows never surface.
        """
        rows = self.rows
        if len(positions) == self.arity:
            sequence = self.row_ids.get(key)
            if sequence is not None and lo <= sequence < hi:
                yield sequence
            return
        if not positions:
            for sequence in range(lo, min(hi, len(rows))):
                if rows[sequence] is not None:
                    yield sequence
            return
        postings = self.ensure_index(positions).get(key)
        if not postings:
            return
        start = bisect_left(postings, lo) if lo else 0
        for position in range(start, len(postings)):
            sequence = postings[position]
            if sequence >= hi:
                break
            if rows[sequence] is not None:
                yield sequence

    def candidate_rows(
        self,
        positions: tuple[int, ...],
        key: tuple[Term, ...],
        lo: int,
        hi: int,
    ) -> Iterator[tuple[int, tuple[Term, ...]]]:
        """:meth:`candidates` paired with the rows themselves — the probe
        shape shared with :class:`repro.storage.FactStore` backends."""
        rows = self.rows
        for sequence in self.candidates(positions, key, lo, hi):
            yield sequence, rows[sequence]

    def statistics(self) -> dict[str, int]:
        return {
            "rows": len(self),
            "indexes": len(self.indexes),
            "index_entries": sum(len(ix) for ix in self.indexes.values()),
        }


class RelationStore:
    """A set of relations keyed on ``(predicate, arity)``.

    Keying on the full signature (rather than the predicate name alone)
    means a probe for ``p/2`` never wades through ``p/1`` facts.
    """

    __slots__ = ("relations",)

    def __init__(self) -> None:
        self.relations: dict[tuple[str, int], Relation] = {}

    def relation(self, predicate: str, arity: int) -> Optional[Relation]:
        return self.relations.get((predicate, arity))

    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom; returns True when it is new."""
        key = (atom.predicate, atom.arity)
        relation = self.relations.get(key)
        if relation is None:
            relation = self.relations[key] = Relation(atom.predicate, atom.arity)
        return relation.add(atom.args)

    def remove_atom(self, atom: Atom) -> bool:
        """Remove a ground atom (tombstoning its row); True when present."""
        relation = self.relations.get((atom.predicate, atom.arity))
        return relation is not None and relation.remove(atom.args)

    def __contains__(self, atom: Atom) -> bool:
        relation = self.relations.get((atom.predicate, atom.arity))
        return relation is not None and atom.args in relation

    def sizes(self) -> dict[tuple[str, int], int]:
        """Sequence bound per relation — a round boundary snapshot.  Equal
        to the row count while nothing has been removed."""
        return {key: relation.sequence_bound for key, relation in self.relations.items()}

    def statistics(self) -> dict[str, int]:
        return {
            "relations": len(self.relations),
            "rows": sum(len(r) for r in self.relations.values()),
            "indexes": sum(len(r.indexes) for r in self.relations.values()),
        }

"""Dense integer interning of ground atoms (the kernel's symbol table).

Every hot structure of the compiled kernel — rule bodies, watch lists,
truth vectors — is indexed by a dense integer atom id.  :class:`AtomTable`
owns the two-way mapping: ``atoms[i]`` is the :class:`~repro.datalog.atoms.Atom`
with id ``i`` and ``ids[atom]`` its id.

Tables come three ways:

* :meth:`AtomTable.from_atoms` — ids grouped by predicate (sorted within a
  predicate by textual form), so every predicate owns one contiguous
  ``[lo, hi)`` id range; :func:`repro.kernel.compile.compile_context`
  builds these from a ground context's base;
* :meth:`AtomTable.from_interned` — an id order some producer already
  fixed (the int grounder's derivation order for ground programs);
* :meth:`AtomTable.lazy` — the int grounder's table for non-ground
  programs, whose atoms are decoded from term ids only when first asked
  for, so a one-shot solve builds each ``Atom`` exactly once, at assemble.

The table is append-only: :meth:`intern` never re-numbers, so ids handed
out to a compiled program stay valid for the table's lifetime.  Predicate
ranges of the last two kinds follow :meth:`intern`'s rule (a range grows
only while the predicate's ids stay adjacent).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..datalog.atoms import Atom

__all__ = ["AtomTable"]


class AtomTable:
    """Two-way dense id↔atom map with per-predicate id ranges."""

    __slots__ = ("_atoms", "_ids", "_ranges", "_decode", "_size")

    def __init__(self) -> None:
        self._atoms: Optional[List[Atom]] = []
        self._ids: Optional[Dict[Atom, int]] = {}
        # predicate -> (lo, hi) over ids; exact for the grouped bulk load,
        # best-effort extended by later intern() calls.
        self._ranges: Optional[Dict[str, Tuple[int, int]]] = {}
        self._decode: Optional[Callable[[], List[Atom]]] = None
        self._size = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_atoms(cls, universe: Iterable[Atom]) -> "AtomTable":
        """Intern *universe* grouped by predicate, sorted within each group.

        The deterministic order makes compiled programs reproducible for a
        given ground context (ids are stable across runs), and the grouping
        yields the contiguous per-predicate ranges.
        """
        table = cls()
        atoms = table._atoms
        ids = table._ids
        for atom in sorted(universe, key=_atom_key):
            if atom in ids:
                continue
            ids[atom] = len(atoms)
            atoms.append(atom)
        table._ranges = None
        return table

    @classmethod
    def from_interned(cls, atoms: List[Atom], ids: Dict[Atom, int]) -> "AtomTable":
        """Wrap an id order fixed elsewhere: ``ids[atoms[i]] == i``."""
        table = cls()
        table._atoms = atoms
        table._ids = ids
        table._ranges = None
        return table

    @classmethod
    def lazy(cls, size: int, decode: Callable[[], List[Atom]]) -> "AtomTable":
        """A table of *size* atoms whose objects *decode* builds on first use."""
        table = cls()
        table._atoms = None
        table._ids = None
        table._ranges = None
        table._decode = decode
        table._size = size
        return table

    @property
    def atoms(self) -> List[Atom]:
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = self._decode()
            self._decode = None
        return atoms

    @property
    def ids(self) -> Dict[Atom, int]:
        ids = self._ids
        if ids is None:
            ids = self._ids = {atom: index for index, atom in enumerate(self.atoms)}
        return ids

    def _predicate_ranges(self) -> Dict[str, Tuple[int, int]]:
        ranges = self._ranges
        if ranges is None:
            ranges = self._ranges = {}
            for index, atom in enumerate(self.atoms):
                _extend_range(ranges, atom.predicate, index)
        return ranges

    def intern(self, atom: Atom) -> int:
        """Id of *atom*, assigning the next dense id on first sight."""
        ids = self.ids
        existing = ids.get(atom)
        if existing is not None:
            return existing
        atoms = self.atoms
        new_id = len(atoms)
        ids[atom] = new_id
        atoms.append(atom)
        # A late intern lands outside its predicate's contiguous block; the
        # range is widened only when the new id extends it directly.
        _extend_range(self._predicate_ranges(), atom.predicate, new_id)
        return new_id

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def id_of(self, atom: Atom) -> Optional[int]:
        """Id of *atom*, or ``None`` if it was never interned."""
        return self.ids.get(atom)

    def atom_of(self, atom_id: int) -> Atom:
        return self.atoms[atom_id]

    def predicate_range(self, predicate: str) -> Optional[Tuple[int, int]]:
        """The ``[lo, hi)`` id range of *predicate*, or ``None``."""
        return self._predicate_ranges().get(predicate)

    def predicate_ranges(self) -> Dict[str, Tuple[int, int]]:
        return dict(self._predicate_ranges())

    def decode(self, atom_ids: Iterable[int]) -> List[Atom]:
        atoms = self.atoms
        return [atoms[i] for i in atom_ids]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size if self._atoms is None else len(self._atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.ids

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def nbytes(self) -> int:
        """Approximate bookkeeping footprint of the table itself (the list
        and dict slots; the Atom objects are shared with the context, not
        owned here)."""
        import sys

        return sys.getsizeof(self.atoms) + sys.getsizeof(self.ids)


def _extend_range(ranges: Dict[str, Tuple[int, int]], predicate: str, index: int) -> None:
    span = ranges.get(predicate)
    if span is None:
        ranges[predicate] = (index, index + 1)
    elif span[1] == index:
        ranges[predicate] = (span[0], index + 1)


def _atom_key(atom: Atom) -> Tuple[str, int, Tuple[str, ...]]:
    return (atom.predicate, len(atom.args), tuple(str(arg) for arg in atom.args))

"""The flat int IR of a ground program, and lowering a context to it.

The compiled form replaces every object-level structure the well-founded
hot loop touches with a contiguous ``array('i')``:

* rule bodies become CSR segments (``pos_off``/``pos_atoms`` and
  ``neg_off``/``neg_atoms``, one *deduplicated* id list per rule, so the
  Dowling–Gallier counters seeded from segment lengths are exact);
* the head index becomes a CSR map ``head_off``/``head_rules`` from atom id
  to the rules deriving it;
* the SCC condensation of the atom dependency graph is computed directly
  over the int adjacency (iterative Tarjan, callees-first emission) and
  stored as ``comp_of`` plus the CSR partition ``comp_off``/``comp_atoms``.

Rule CSR lists come from :func:`compile_context` (a
:class:`~repro.core.context.GroundContext`'s objects, interned through a
predicate-grouped :class:`~repro.kernel.intern.AtomTable`) or straight from
the int grounder (:mod:`repro.kernel.ground`); :func:`link_program` derives
the head index, the self-loop flags and the condensation for both.

Compilation is cached on the (frozen) context via :func:`get_kernel` — the
same idiom as :func:`repro.evaluation.indexes.get_index` — so a session
that evaluates one grounding many times (the incremental engine, the query
service, repeated CLI runs over one context) pays the compile exactly once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter
from .intern import AtomTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.context import GroundContext

__all__ = ["CompiledProgram", "compile_context", "get_kernel", "link_program"]

_KERNEL_ATTRIBUTE = "_compiled_kernel"


@dataclass(frozen=True)
class CompiledProgram:
    """One ground program as dense integers and flat arrays.

    All offsets follow the CSR convention: segment ``i`` of a
    ``(xxx_off, xxx)`` pair is ``xxx[xxx_off[i]:xxx_off[i + 1]]``, and the
    offset array has one trailing entry, so lengths never need storing.
    Components are numbered callees-first: every body atom of a rule lives
    in the same or a lower-numbered component than its head.
    """

    table: AtomTable
    n_atoms: int
    n_rules: int
    # Rules
    heads: array
    pos_off: array
    pos_atoms: array
    neg_off: array
    neg_atoms: array
    # Atom -> rules deriving it
    head_off: array
    head_rules: array
    # EDB facts of the compiled context
    fact_ids: array
    # Condensation
    n_components: int
    comp_of: array
    comp_off: array
    comp_atoms: array
    # Atoms that occur in the body of one of their own rules (singleton
    # components with a genuine self-loop take the general solve path).
    self_dep: bytes = field(repr=False, default=b"")

    def hot(self) -> Tuple[List[int], ...]:
        """The IR's index arrays as plain lists, built once and cached.

        CPython boxes a fresh ``int`` on every ``array('i')`` access; the
        evaluator's inner loops index these structures millions of times,
        so each compiled program lazily materialises a list form (whose
        elements are shared, already-boxed ints) next to the canonical
        packed arrays.  Returns ``(heads, pos_off, pos_atoms, neg_off,
        neg_atoms, head_off, head_rules, comp_off, comp_atoms, comp_of)``.
        """
        cached = getattr(self, "_hot", None)
        if cached is None:
            cached = tuple(
                list(buf)
                for buf in (
                    self.heads,
                    self.pos_off,
                    self.pos_atoms,
                    self.neg_off,
                    self.neg_atoms,
                    self.head_off,
                    self.head_rules,
                    self.comp_off,
                    self.comp_atoms,
                    self.comp_of,
                )
            )
            object.__setattr__(self, "_hot", cached)
        return cached

    def nbytes(self) -> int:
        """Bytes held by the flat arrays (the IR proper, excluding the
        shared Atom objects behind the intern table and the lazily built
        :meth:`hot` decode cache)."""
        total = len(self.self_dep)
        for buf in (
            self.heads,
            self.pos_off,
            self.pos_atoms,
            self.neg_off,
            self.neg_atoms,
            self.head_off,
            self.head_rules,
            self.fact_ids,
            self.comp_of,
            self.comp_off,
            self.comp_atoms,
        ):
            total += buf.buffer_info()[1] * buf.itemsize
        return total

    def statistics(self) -> Dict[str, int]:
        return {
            "atoms": self.n_atoms,
            "rules": self.n_rules,
            "components": self.n_components,
            "body_entries": len(self.pos_atoms) + len(self.neg_atoms),
            "bytes": self.nbytes(),
        }


def compile_context(
    context: "GroundContext", recorder: Recorder = NULL_RECORDER
) -> CompiledProgram:
    """Compile *context* to a :class:`CompiledProgram` (uncached)."""
    meter = current_meter()
    table = AtomTable.from_atoms(context.base)
    ids = table.ids
    meter.check("compile")

    heads: List[int] = []
    pos_off: List[int] = [0]
    pos_atoms: List[int] = []
    neg_off: List[int] = [0]
    neg_atoms: List[int] = []
    for rule in context.rules:
        heads.append(ids[rule.head])
        if rule.positive_body:
            pos_atoms.extend(sorted({ids[atom] for atom in rule.positive_body}))
        pos_off.append(len(pos_atoms))
        if rule.negative_body:
            neg_atoms.extend(sorted({ids[atom] for atom in rule.negative_body}))
        neg_off.append(len(neg_atoms))
    meter.check("compile")
    return link_program(
        table,
        heads,
        pos_off,
        pos_atoms,
        neg_off,
        neg_atoms,
        sorted(ids[atom] for atom in context.facts),
        recorder=recorder,
    )


def link_program(
    table: AtomTable,
    heads: List[int],
    pos_off: List[int],
    pos_atoms: List[int],
    neg_off: List[int],
    neg_atoms: List[int],
    fact_ids: List[int],
    recorder: Recorder = NULL_RECORDER,
) -> CompiledProgram:
    """Finish a :class:`CompiledProgram` from its rule CSR lists.

    The one place the head index, the ``self_dep`` flags and the
    condensation are derived — shared by :func:`compile_context` and the
    int grounder (:func:`repro.kernel.ground.ground_compiled`).  Body
    segments must already be sorted and deduplicated.
    """
    meter = current_meter()
    n_atoms = len(table)
    n_rules = len(heads)
    # Head index as CSR via a counting pass.
    head_counts = [0] * (n_atoms + 1)
    for head_id in heads:
        head_counts[head_id + 1] += 1
    for i in range(1, n_atoms + 1):
        head_counts[i] += head_counts[i - 1]
    head_off = array("i", head_counts)
    head_rules_list = [0] * n_rules
    cursor = head_counts[:-1]
    for rule_id, head_id in enumerate(heads):
        head_rules_list[cursor[head_id]] = rule_id
        cursor[head_id] += 1
    meter.check("compile")

    comp_of, comp_off_list, comp_atoms_list, self_dep = _condense(
        n_atoms, head_counts, head_rules_list, pos_off, pos_atoms, neg_off, neg_atoms
    )
    meter.check("compile")

    compiled = CompiledProgram(
        table=table,
        n_atoms=n_atoms,
        n_rules=n_rules,
        heads=array("i", heads),
        pos_off=array("i", pos_off),
        pos_atoms=array("i", pos_atoms),
        neg_off=array("i", neg_off),
        neg_atoms=array("i", neg_atoms),
        head_off=head_off,
        head_rules=array("i", head_rules_list),
        fact_ids=array("i", fact_ids),
        n_components=len(comp_off_list) - 1,
        comp_of=array("i", comp_of),
        comp_off=array("i", comp_off_list),
        comp_atoms=array("i", comp_atoms_list),
        self_dep=self_dep,
    )
    if recorder.enabled:
        recorder.count("kernel.atoms", compiled.n_atoms)
        recorder.count("kernel.rules", compiled.n_rules)
        recorder.count("kernel.bytes", compiled.nbytes())
    return compiled


def get_kernel(
    context: "GroundContext", recorder: Recorder = NULL_RECORDER
) -> CompiledProgram:
    """The compiled kernel of *context*, built once and cached on it.

    Contexts are frozen and shared across operators, so the cache turns a
    long session over one grounding into compile-once / evaluate-many.
    """
    cached = getattr(context, _KERNEL_ATTRIBUTE, None)
    if cached is None:
        cached = compile_context(context, recorder=recorder)
        object.__setattr__(context, _KERNEL_ATTRIBUTE, cached)
    return cached


# --------------------------------------------------------------------- #
# Int-level condensation
# --------------------------------------------------------------------- #
def _condense(
    n_atoms: int,
    head_off: List[int],
    head_rules: List[int],
    pos_off: List[int],
    pos_atoms: List[int],
    neg_off: List[int],
    neg_atoms: List[int],
) -> Tuple[List[int], List[int], List[int], bytes]:
    """SCC-condense the atom dependency graph, callees first.

    Builds the head → body adjacency (both polarities, deduplicated) as a
    CSR over ints and runs an iterative Tarjan.  Tarjan emits a component
    only after every component reachable from it, so the emission order is
    already the callees-first topological order the evaluator consumes.
    Returns ``(comp_of, comp_off, comp_atoms, self_dep)``, where
    ``self_dep[a]`` flags an atom with a self-loop (it occurs in the body
    of one of its own rules).
    """
    # Budget checkpoints: one tick per atom in each pass keeps a deadline
    # responsive across large condensations.
    tick = current_meter().tick
    # Dependency adjacency: one sorted, deduplicated successor list per
    # atom (head depends on each body atom of each of its rules).
    adj_off = [0] * (n_atoms + 1)
    adj: List[int] = []
    self_dep = bytearray(n_atoms)
    for atom_id in range(n_atoms):
        tick("compile", 1024)
        first = head_off[atom_id]
        last = head_off[atom_id + 1]
        if first == last:
            adj_off[atom_id + 1] = len(adj)
            continue
        successors = set()
        for slot in range(first, last):
            rule = head_rules[slot]
            successors.update(pos_atoms[pos_off[rule] : pos_off[rule + 1]])
            successors.update(neg_atoms[neg_off[rule] : neg_off[rule + 1]])
        if atom_id in successors:
            self_dep[atom_id] = 1
        if len(successors) == 1:
            adj.extend(successors)
        else:
            adj.extend(sorted(successors))
        adj_off[atom_id + 1] = len(adj)

    comp_of = [-1] * n_atoms
    comp_atoms: List[int] = []
    comp_off = [0]
    index_of = [-1] * n_atoms
    lowlink = [0] * n_atoms
    on_stack = bytearray(n_atoms)
    cursor = adj_off[:-1]  # next successor position to explore, per atom
    scc_stack: List[int] = []
    path: List[int] = []  # the DFS call stack
    counter = 0

    for root in range(n_atoms):
        if index_of[root] != -1:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack[root] = 1
        path.append(root)
        while path:
            node = path[-1]
            position = cursor[node]
            end = adj_off[node + 1]
            descended = False
            while position < end:
                successor = adj[position]
                position += 1
                if index_of[successor] == -1:
                    cursor[node] = position
                    index_of[successor] = lowlink[successor] = counter
                    counter += 1
                    scc_stack.append(successor)
                    on_stack[successor] = 1
                    path.append(successor)
                    descended = True
                    break
                if on_stack[successor] and index_of[successor] < lowlink[node]:
                    lowlink[node] = index_of[successor]
            if descended:
                continue
            cursor[node] = end
            path.pop()
            tick("compile", 1024)
            low = lowlink[node]
            if path:
                parent = path[-1]
                if low < lowlink[parent]:
                    lowlink[parent] = low
            if low == index_of[node]:
                comp_index = len(comp_off) - 1
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = 0
                    comp_of[member] = comp_index
                    comp_atoms.append(member)
                    if member == node:
                        break
                comp_off.append(len(comp_atoms))
    return comp_of, comp_off, comp_atoms, bytes(self_dep)

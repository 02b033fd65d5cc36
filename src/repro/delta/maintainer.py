"""Atom-level delta maintenance: counting and DRed over the compiled IR.

An incremental session holds its solved model as the truth vector of a
:class:`~repro.kernel.ComponentKernel` (``1`` true, ``2`` false, ``0``
undefined, one byte per atom id of the session's
:class:`~repro.kernel.CompiledProgram`).  When facts change,
:class:`DeltaMaintainer` pushes *differences* through that vector instead
of re-solving the components downstream of the change — the standard
incremental-Datalog remedy (Gupta, Mumick & Subrahmanian 1993), which
needs only per-rule integer counters:

* **counting** — for non-recursive derivations, per-rule counters of
  violated and undefined external body literals.  A singleton component
  with no self-dependency is decided entirely by which of its rules
  definitely fire (no violated, no undefined literal) or possibly fire
  (no violated literal): exactly the kernel's one-pass singleton verdict,
  maintained in O(changed literals) per update.
* **DRed** (delete-and-rederive) — for recursive components without
  internal negation.  The component's two closures (the definite closure
  ``T`` and the possibly-true envelope ``E`` of the horn/stratified
  methods) are kept as per-atom membership bytes with per-rule internal
  deficits.  Deletions overdelete the affected cone inside the component
  and then rederive what still has alternative support; insertions
  propagate semi-naively.
* **resolve** — components with negation *through recursion* keep the
  sound fallback: the kernel re-solves the whole component
  (:meth:`~repro.kernel.ComponentKernel.solve_component`), and old and new
  verdicts are diffed so propagation upward still stops as soon as
  nothing moved.

This mirrors the cheapest-sound-method dispatch of the component
evaluator — counting where one pass suffices, closure maintenance where
the fixpoint is definite, full alternation only where negation is
recursive — which is what makes atom-level maintenance *sound* per the
splitting structure of the well-founded semantics: a component's verdict
is a function of its local facts, its local rules and the frozen verdicts
below it, all of which the maintained counters track exactly.

Propagation runs over the condensation order: dirty components are
processed ascending (callees first), each emits the atoms whose verdict
actually flipped, and only the rules and components *reading* those atoms
are touched — found through a reverse index of the body CSR segments.  A
no-op churn step, the common case under redundant support, therefore
costs O(1) instead of O(downstream cone).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterable, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel.compile import CompiledProgram
    from ..kernel.eval import ComponentKernel

__all__ = ["DeltaOutcome", "DeltaMaintainer", "classify_component"]

#: Truth codes — the kernel's truth-vector encoding.
_UNDEF, _TRUE, _FALSE = 0, 1, 2

#: Per-component maintenance methods, cheapest first (indexed by kind code).
MAINTENANCE_METHODS = ("counting", "dred", "resolve")
_COUNTING, _DRED, _RESOLVE = 0, 1, 2


@dataclass(frozen=True)
class DeltaOutcome:
    """What one atom-level maintenance pass actually did.

    ``components`` counts the components whose state was touched (the
    analogue of ``components_recomputed``); ``methods`` splits them by
    maintenance method; ``atoms_changed`` counts the verdict flips that
    propagated; ``overdeleted`` / ``rederived`` tally the DRed traffic
    (rederived atoms were overdeleted but kept alternative support).
    """

    components: int
    atoms_changed: int
    methods: Mapping[str, int]
    overdeleted: int
    rederived: int


def _kind(compiled: "CompiledProgram", comp_index: int) -> int:
    """The cheapest sound maintenance method of one component, as a code."""
    _, _, _, neg_off, neg_atoms, head_off, head_rules, comp_off, comp_atoms, comp_of = (
        compiled.hot()
    )
    start, end = comp_off[comp_index], comp_off[comp_index + 1]
    for position in range(start, end):
        head = comp_atoms[position]
        for slot in range(head_off[head], head_off[head + 1]):
            rule = head_rules[slot]
            for cursor in range(neg_off[rule], neg_off[rule + 1]):
                if comp_of[neg_atoms[cursor]] == comp_index:
                    return _RESOLVE
    if end - start == 1 and not compiled.self_dep[comp_atoms[start]]:
        return _COUNTING
    return _DRED


def classify_component(compiled: "CompiledProgram", comp_index: int) -> str:
    """The cheapest sound maintenance method for one component.

    ``"resolve"`` when some rule negates an atom of its own component
    (negation through recursion — only the alternating fixpoint is sound);
    ``"counting"`` for a singleton with no self-dependency (one-pass
    verdict); ``"dred"`` otherwise (recursive but definite inside).
    """
    return MAINTENANCE_METHODS[_kind(compiled, comp_index)]


def _readers(off: List[int], atoms: List[int], n_atoms: int) -> Tuple[List[int], List[int]]:
    """Reverse one body CSR: for each atom id, the rules whose segment
    holds it, as ``(reader_off, readers)``."""
    counts = [0] * (n_atoms + 1)
    for atom_id in atoms:
        counts[atom_id + 1] += 1
    for i in range(1, n_atoms + 1):
        counts[i] += counts[i - 1]
    readers = [0] * len(atoms)
    cursor = counts[:-1]
    for rule in range(len(off) - 1):
        for position in range(off[rule], off[rule + 1]):
            atom_id = atoms[position]
            readers[cursor[atom_id]] = rule
            cursor[atom_id] += 1
    return counts, readers


class DeltaMaintainer:
    """Maintains a solved :class:`~repro.kernel.ComponentKernel` at atom
    granularity.

    Constructed against the kernel's *solved* state: the counters and
    closures below are primed from its truth vector, and :meth:`apply`
    writes every verdict flip back into that same vector, so the kernel
    stays the one copy of the model.  After a failed pass the counters may
    be torn, and the owner must discard the maintainer and re-solve (the
    engine's drop-to-unsolved path).
    """

    def __init__(self, kernel: "ComponentKernel") -> None:
        compiled = kernel.compiled
        self._kernel = kernel
        self._truth = truth = kernel.truth
        self._is_fact = kernel.is_fact
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
        self._heads = heads
        self._head_off = head_off
        self._head_rules = head_rules
        self._comp_off = comp_off
        self._comp_atoms = comp_atoms
        self._comp_of = comp_of
        n_atoms, n_rules = compiled.n_atoms, compiled.n_rules

        self._kinds = kinds = bytes(
            _kind(compiled, index) for index in range(compiled.n_components)
        )
        # Who reads each atom: the watch lists of every counter below.
        self._pos_reader_off, self._pos_readers = _readers(pos_off, pos_atoms, n_atoms)
        self._neg_reader_off, self._neg_readers = _readers(neg_off, neg_atoms, n_atoms)

        # ---- mutable maintenance state, primed from the truth vector --- #
        # Per-rule counts of definitely-violated / undefined external
        # literals.  A rule *definitely* fires through its externals when
        # both are zero; *possibly* when only `unsat` is zero.
        self._ext_unsat = ext_unsat = array("i", [0]) * n_rules
        self._ext_undef = ext_undef = array("i", [0]) * n_rules
        # Counting components: per-head tallies of def/poss-firing rules.
        self._n_def = n_def = array("i", [0]) * n_atoms
        self._n_poss = n_poss = array("i", [0]) * n_atoms
        # DRed components: membership in the definite closure T and the
        # envelope E, and per-rule internal deficits |int_body \ T| and
        # |int_body \ E|.
        self._in_t = in_t = truth.translate(_IN_T)
        self._in_e = in_e = truth.translate(_IN_E)
        self._need_t = need_t = array("i", [0]) * n_rules
        self._need_e = need_e = array("i", [0]) * n_rules

        for index, kind in enumerate(kinds):
            if kind == _RESOLVE:
                continue
            for position in range(comp_off[index], comp_off[index + 1]):
                head = comp_atoms[position]
                for slot in range(head_off[head], head_off[head + 1]):
                    rule = head_rules[slot]
                    unsat = undef = missing_t = missing_e = 0
                    for cursor in range(pos_off[rule], pos_off[rule + 1]):
                        atom_id = pos_atoms[cursor]
                        if comp_of[atom_id] == index:
                            missing_t += not in_t[atom_id]
                            missing_e += not in_e[atom_id]
                            continue
                        code = truth[atom_id]
                        unsat += code == _FALSE
                        undef += code == _UNDEF
                    # Internal negation would have classified the
                    # component as "resolve" above.
                    for cursor in range(neg_off[rule], neg_off[rule + 1]):
                        code = truth[neg_atoms[cursor]]
                        unsat += code == _TRUE
                        undef += code == _UNDEF
                    ext_unsat[rule] = unsat
                    ext_undef[rule] = undef
                    if kind == _COUNTING:
                        if unsat == 0:
                            n_poss[head] += 1
                            if undef == 0:
                                n_def[head] += 1
                    else:
                        need_t[rule] = missing_t
                        need_e[rule] = missing_e

    # ------------------------------------------------------------------ #
    # Maintenance pass
    # ------------------------------------------------------------------ #
    def apply(
        self,
        changed: Iterable[int],
        *,
        step: Optional[Callable[[], None]] = None,
    ) -> DeltaOutcome:
        """One maintenance pass over a batch of fact flips.

        *changed* are the atom ids whose EDB status differs from the solved
        state; the kernel's fact vector must already hold the new EDB.
        *step* is called once per processed component (budget metering).
        Returns the pass's :class:`DeltaOutcome`.
        """
        heap: list[int] = []
        queued: set[int] = set()
        fact_dirty: dict[int, list[int]] = {}
        # DRed components touched through external literals this pass:
        # rule -> (def-enabled, poss-enabled) *before* the first change.
        pending: dict[int, dict[int, tuple[bool, bool]]] = {}
        methods = [0, 0, 0]
        atoms_changed = 0
        overdeleted = rederived = 0

        truth = self._truth
        heads = self._heads
        comp_of = self._comp_of
        kinds = self._kinds
        ext_unsat = self._ext_unsat
        ext_undef = self._ext_undef
        n_def = self._n_def
        n_poss = self._n_poss
        pos_reader_off, pos_readers = self._pos_reader_off, self._pos_readers
        neg_reader_off, neg_readers = self._neg_reader_off, self._neg_readers

        def mark(index: int) -> None:
            if index not in queued:
                queued.add(index)
                heappush(heap, index)

        for atom_id in changed:
            index = comp_of[atom_id]
            fact_dirty.setdefault(index, []).append(atom_id)
            mark(index)

        def bump(rule: int, d_unsat: int, d_undef: int) -> None:
            """Move one rule's external counters, re-queueing its component."""
            index = comp_of[heads[rule]]
            kind = kinds[index]
            if kind == _RESOLVE:
                mark(index)
                return
            unsat = ext_unsat[rule]
            undef = ext_undef[rule]
            if kind == _COUNTING:
                was_def = unsat == 0 and undef == 0
                was_poss = unsat == 0
                unsat += d_unsat
                undef += d_undef
                now_def = unsat == 0 and undef == 0
                now_poss = unsat == 0
                head = heads[rule]
                moved = False
                if now_def != was_def:
                    n_def[head] += 1 if now_def else -1
                    moved = True
                if now_poss != was_poss:
                    n_poss[head] += 1 if now_poss else -1
                    moved = True
                if moved:
                    mark(index)
            else:  # dred
                events = pending.setdefault(index, {})
                if rule not in events:
                    events[rule] = (unsat == 0 and undef == 0, unsat == 0)
                unsat += d_unsat
                undef += d_undef
                mark(index)
            ext_unsat[rule] = unsat
            ext_undef[rule] = undef

        def note(atom_id: int, old: int, new: int) -> None:
            """Push one verdict flip into every external reader's counters
            (readers inside the atom's own component are the DRed
            circuits' business).  A flip always moves at least one of the
            two counters, whatever the literal's polarity."""
            home = comp_of[atom_id]
            d_undef = (new == _UNDEF) - (old == _UNDEF)
            d_unsat = (new == _FALSE) - (old == _FALSE)
            for slot in range(pos_reader_off[atom_id], pos_reader_off[atom_id + 1]):
                rule = pos_readers[slot]
                if comp_of[heads[rule]] != home:
                    bump(rule, d_unsat, d_undef)
            d_unsat = (new == _TRUE) - (old == _TRUE)
            for slot in range(neg_reader_off[atom_id], neg_reader_off[atom_id + 1]):
                rule = neg_readers[slot]
                if comp_of[heads[rule]] != home:
                    bump(rule, d_unsat, d_undef)

        while heap:
            index = heappop(heap)
            queued.discard(index)
            kind = kinds[index]
            if step is not None:
                step()
            local_changed = fact_dirty.pop(index, ())
            if kind == _COUNTING:
                changes = self._apply_counting(index)
            elif kind == _DRED:
                changes, over, reder = self._apply_dred(
                    index, pending.pop(index, {}), local_changed
                )
                overdeleted += over
                rederived += reder
            else:
                changes = self._apply_resolve(index)
            methods[kind] += 1
            for atom_id, new in changes:
                old = truth[atom_id]
                truth[atom_id] = new
                atoms_changed += 1
                note(atom_id, old, new)

        return DeltaOutcome(
            components=sum(methods),
            atoms_changed=atoms_changed,
            methods={
                name: count for name, count in zip(MAINTENANCE_METHODS, methods) if count
            },
            overdeleted=overdeleted,
            rederived=rederived,
        )

    # ------------------------------------------------------------------ #
    # Per-kind component passes
    # ------------------------------------------------------------------ #
    def _apply_counting(self, index: int) -> Tuple[Tuple[int, int], ...]:
        head = self._comp_atoms[self._comp_off[index]]
        if self._is_fact[head] or self._n_def[head] > 0:
            new = _TRUE
        elif self._n_poss[head] > 0:
            new = _UNDEF
        else:
            new = _FALSE
        if self._truth[head] == new:
            return ()
        return ((head, new),)

    def _apply_dred(
        self,
        index: int,
        events: dict[int, tuple[bool, bool]],
        local_changed: Iterable[int],
    ) -> Tuple[List[Tuple[int, int]], int, int]:
        ext_unsat = self._ext_unsat
        ext_undef = self._ext_undef
        is_fact = self._is_fact
        added_facts = [atom_id for atom_id in local_changed if is_fact[atom_id]]
        removed_facts = [atom_id for atom_id in local_changed if not is_fact[atom_id]]
        t_events: list[tuple[int, bool, bool]] = []
        e_events: list[tuple[int, bool, bool]] = []
        for rule, (was_def, was_poss) in events.items():
            now_def = ext_unsat[rule] == 0 and ext_undef[rule] == 0
            now_poss = ext_unsat[rule] == 0
            if now_def != was_def:
                t_events.append((rule, was_def, now_def))
            if now_poss != was_poss:
                e_events.append((rule, was_poss, now_poss))

        in_t = self._in_t
        in_e = self._in_e
        t_added, t_removed, over_t, reder_t = self._dred_circuit(
            index, in_t, self._need_t, self._def_enabled, t_events,
            added_facts, removed_facts,
        )
        e_added, e_removed, over_e, reder_e = self._dred_circuit(
            index, in_e, self._need_e, self._poss_enabled, e_events,
            added_facts, removed_facts,
        )

        truth = self._truth
        changes: list[tuple[int, int]] = []
        for atom_id in t_added | t_removed | e_added | e_removed:
            if in_t[atom_id]:
                new = _TRUE
            elif in_e[atom_id]:
                new = _UNDEF
            else:
                new = _FALSE
            if truth[atom_id] != new:
                changes.append((atom_id, new))
        return changes, over_t + over_e, reder_t + reder_e

    def _def_enabled(self, rule: int) -> bool:
        return self._ext_unsat[rule] == 0 and self._ext_undef[rule] == 0

    def _poss_enabled(self, rule: int) -> bool:
        return self._ext_unsat[rule] == 0

    def _dred_circuit(
        self,
        index: int,
        member: bytearray,
        need: array,
        enabled: Callable[[int], bool],
        events: list[tuple[int, bool, bool]],
        added_facts: list[int],
        removed_facts: list[int],
    ) -> Tuple[set[int], set[int], int, int]:
        """Delete-and-rederive one circuit (T or E) of dred component *index*.

        *member* is the circuit's membership byte per atom id, mutated in
        place; *need* maps each rule to its internal deficit (the internal
        positive body atoms outside the circuit), kept exact through every
        membership change.  Returns the net ``(added, removed)`` id sets
        plus the overdelete / rederive tallies.
        """
        heads = self._heads
        comp_of = self._comp_of
        reader_off, readers = self._pos_reader_off, self._pos_readers
        head_off, head_rules = self._head_off, self._head_rules
        is_fact = self._is_fact

        # ---- overdelete: removed seeds and everything derived through
        # them, aggressively ----------------------------------------------
        overdeleted: set[int] = set()
        stack: list[int] = []

        def kill(atom_id: int) -> None:
            if member[atom_id] and atom_id not in overdeleted:
                overdeleted.add(atom_id)
                member[atom_id] = 0
                stack.append(atom_id)

        for atom_id in removed_facts:
            kill(atom_id)
        for rule, was, now in events:
            if was and not now and need[rule] == 0:
                kill(heads[rule])
        while stack:
            atom_id = stack.pop()
            for slot in range(reader_off[atom_id], reader_off[atom_id + 1]):
                rule = readers[slot]
                if comp_of[heads[rule]] != index:
                    continue
                firing = need[rule] == 0 and enabled(rule)
                need[rule] += 1
                if firing:
                    kill(heads[rule])

        # ---- rederive + insert: overdeleted atoms with surviving support,
        # new local facts, and newly enabled rules, semi-naively -----------
        frontier: list[int] = []
        newly: set[int] = set()
        revived: set[int] = set()

        def insert(atom_id: int) -> None:
            if member[atom_id]:
                return
            member[atom_id] = 1
            (revived if atom_id in overdeleted else newly).add(atom_id)
            frontier.append(atom_id)

        for atom_id in overdeleted:
            if is_fact[atom_id] or any(
                need[head_rules[slot]] == 0 and enabled(head_rules[slot])
                for slot in range(head_off[atom_id], head_off[atom_id + 1])
            ):
                insert(atom_id)
        for atom_id in added_facts:
            insert(atom_id)
        for rule, was, now in events:
            if now and not was and need[rule] == 0:
                insert(heads[rule])
        while frontier:
            atom_id = frontier.pop()
            for slot in range(reader_off[atom_id], reader_off[atom_id + 1]):
                rule = readers[slot]
                if comp_of[heads[rule]] != index:
                    continue
                need[rule] -= 1
                if need[rule] == 0 and enabled(rule):
                    insert(heads[rule])

        return newly, overdeleted - revived, len(overdeleted), len(revived)

    def _apply_resolve(self, index: int) -> List[Tuple[int, int]]:
        true_ids, false_ids, *_ = self._kernel.solve_component(index)
        comp_off = self._comp_off
        verdicts = dict.fromkeys(
            self._comp_atoms[comp_off[index] : comp_off[index + 1]], _UNDEF
        )
        for atom_id in true_ids:
            verdicts[atom_id] = _TRUE
        for atom_id in false_ids:
            verdicts[atom_id] = _FALSE
        truth = self._truth
        return [(atom_id, new) for atom_id, new in verdicts.items() if truth[atom_id] != new]


#: Truth vector -> membership byte of the definite closure T (true atoms)
#: and of the envelope E (atoms not false).
_IN_T = bytes.maketrans(b"\x02", b"\x00")
_IN_E = bytes.maketrans(b"\x00\x01\x02", b"\x01\x01\x00")

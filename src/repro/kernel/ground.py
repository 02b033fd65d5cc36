"""Relevant grounding straight into the kernel IR.

:func:`ground_compiled` is the production grounder.  It computes the same
relevant instantiation as :func:`repro.datalog.grounding.relevant_ground`
(rules instantiated only where their positive body is supported by the
minimum model of the positive envelope) but never builds a ground
:class:`~repro.datalog.rules.Rule`, :class:`~repro.datalog.atoms.Literal`
or :class:`~repro.datalog.atoms.Atom` on the way:

* **Interning.**  Ground terms are interned to dense ints once — the
  program's constants while its rules are compiled, and the EDB while its
  facts are read (program fact rules, then one window-scan probe per
  relation of the store, in ``store.facts()`` order).  This is the
  symbol-table design of Soufflé (Jordan et al., CAV 2016): every join,
  index and dedup below hashes small int tuples, never term objects.
* **Joins.**  Each rule is compiled once to variable slots; each join
  step (one per positive conjunct, in greedy most-bound-first order
  seeded on the delta conjunct) becomes a plan of key positions, slot
  binds and equality checks, cached per join order.  Rounds run the
  classic delta-window semi-naive rewriting: per rule and round, variant
  ``i`` pins conjunct ``i`` to the rows derived in the previous round,
  earlier conjuncts to strictly older rows and later ones to all rows, so
  each rule instance is enumerated exactly once.  Relations are int-tuple
  rows with one lazily built posting-list index per bound-position
  pattern.
* **Emission.**  Each instance goes straight into the ``heads`` /
  ``pos_*`` / ``neg_*`` CSR lists, deduplicated on its head and body ids.
  Atom ids are dense and assigned in derivation order (facts first), so
  they are deterministic for a given input.
* **Decoding.**  Atoms are built from ``(predicate, term ids)`` only when
  asked for (:meth:`IntGrounding.atoms`, once per id), and ground rules
  only for consumers that need objects (:meth:`IntGrounding.rules`,
  used by :func:`repro.core.context.build_context`).

Already-ground programs skip the joins: their atoms are interned directly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..datalog.atoms import Atom, Literal
from ..datalog.grounding import GroundingLimits, grounding_meter
from ..datalog.rules import Program, Rule
from ..datalog.terms import Compound, Term, Variable
from ..exceptions import GroundingError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter
from .compile import CompiledProgram, link_program
from .intern import AtomTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

__all__ = ["IntGrounding", "ground_compiled", "join_order"]

# Join-step modes: every argument position bound (a membership probe), none
# bound (a window scan), or some bound (a posting-list probe).
_FULL, _SCAN, _PROBE = 0, 1, 2


def ground_compiled(
    program: Program,
    store: "FactStore | None" = None,
    limits: GroundingLimits | None = None,
    recorder: Recorder | None = None,
) -> CompiledProgram:
    """Ground *program* (plus the EDB of *store*) into a :class:`CompiledProgram`.

    A tracing *recorder* sees a ``ground`` span around the joins (with the
    per-round ``ground.*`` counters and the ``ground.rules`` /
    ``ground.facts`` / ``ground.atoms`` totals) and a ``compile`` span
    around the head index and the condensation.
    """
    recorder = recorder if recorder is not None else NULL_RECORDER
    with recorder.span("ground", grounder="relevant") as ground_span:
        grounding = IntGrounding.build(program, store=store, limits=limits, recorder=recorder)
    if recorder.enabled:
        counts = {
            "rules": len(grounding.heads),
            "facts": len(grounding.fact_ids),
            "atoms": grounding.n_atoms,
        }
        ground_span.annotate(**counts)
        for name, value in counts.items():
            recorder.count(f"ground.{name}", value)
    with recorder.span("compile", method="kernel") as compile_span:
        compiled = grounding.compiled(recorder)
    if recorder.enabled:
        compile_span.annotate(**compiled.statistics())
    return compiled


class _Relation:
    """The envelope rows of one ``(predicate, arity)`` signature.

    ``rows[seq]`` is the term-id tuple of the row with sequence number
    ``seq`` and ``atom_ids[seq]`` its atom id; ``seq_of`` doubles as the
    full-key index.  ``indexes`` holds one posting-list index per probed
    bound-position pattern, built on first probe and maintained on every
    :meth:`add` (single-position keys are the bare term id, not a 1-tuple).
    """

    __slots__ = ("rows", "atom_ids", "seq_of", "indexes")

    def __init__(self) -> None:
        self.rows: List[Tuple[int, ...]] = []
        self.atom_ids: List[int] = []
        self.seq_of: Dict[Tuple[int, ...], int] = {}
        self.indexes: Dict[Tuple[int, ...], dict] = {}

    def add(self, args: Tuple[int, ...], atom_id: int) -> None:
        seq = len(self.rows)
        self.rows.append(args)
        self.atom_ids.append(atom_id)
        self.seq_of[args] = seq
        for positions, index in self.indexes.items():
            key = args[positions[0]] if len(positions) == 1 else tuple(args[p] for p in positions)
            postings = index.get(key)
            if postings is None:
                index[key] = [seq]
            else:
                postings.append(seq)

    def index(self, positions: Tuple[int, ...]) -> dict:
        index = self.indexes.get(positions)
        if index is None:
            index = {}
            single = positions[0] if len(positions) == 1 else None
            for seq, args in enumerate(self.rows):
                key = args[single] if single is not None else tuple(args[p] for p in positions)
                postings = index.get(key)
                if postings is None:
                    index[key] = [seq]
                else:
                    postings.append(seq)
            self.indexes[positions] = index
        return index


class _RulePlan:
    """One non-fact rule compiled to variable slots.

    Argument patterns are ints — a slot ``s >= 0`` or a ground term id
    encoded as ``~tid`` — or, for compound terms with variables, a tuple
    ``(functor, subpatterns)``.  A *simple* pattern tuple holds ints only.
    """

    __slots__ = (
        "head_sig",
        "head_args",
        "head_simple",
        "positive",
        "negative",
        "shape",
        "n_slots",
        "conjunct_vars",
        "steps",
    )

    def __init__(self, head_sig, head_args, positive, negative, shape, n_slots, conjunct_vars):
        self.head_sig = head_sig
        self.head_args = head_args
        self.head_simple = _simple(head_args)
        #: ((sig, arg patterns), ...) per positive conjunct, body order.
        self.positive = positive
        #: ((sig, arg patterns, simple), ...) per negative literal.
        self.negative = tuple((sig, args, _simple(args)) for sig, args in negative)
        #: The body's polarity sequence (interned), so rules that differ
        #: only in literal interleaving stay distinct, as Rule equality has it.
        self.shape = shape
        self.n_slots = n_slots
        #: Per positive conjunct, per position: the slots the pattern reads.
        self.conjunct_vars = conjunct_vars
        #: Join plans cached per join order.
        self.steps: Dict[Tuple[int, ...], tuple] = {}


def _simple(patterns: tuple) -> bool:
    return all(pattern.__class__ is int for pattern in patterns)


def join_order(
    conjunct_vars: Sequence[Sequence[frozenset]],
    windows: Sequence[Tuple[int, int]],
    seed: Optional[int] = None,
    bound: frozenset = frozenset(),
) -> Tuple[int, ...]:
    """Order the conjuncts for joining, most-bound-first.

    *conjunct_vars* gives, per conjunct and argument position, the set of
    variables (any hashable ids) the argument mentions.  Starting from the
    *seed* conjunct (the delta conjunct of a semi-naive variant), repeatedly
    pick the conjunct with the most positions fully determined by the
    variables bound so far, breaking ties toward the smaller row window and
    then the leftmost conjunct.  Returns the conjunct indexes in order.
    """
    remaining = list(range(len(conjunct_vars)))
    bound_vars = set(bound)
    order: List[int] = []

    def admit(index: int) -> None:
        order.append(index)
        remaining.remove(index)
        for variables in conjunct_vars[index]:
            bound_vars.update(variables)

    if seed is not None:
        admit(seed)

    def score(index: int) -> Tuple[int, int, int]:
        determined = sum(1 for variables in conjunct_vars[index] if variables <= bound_vars)
        lo, hi = windows[index]
        return (determined, lo - hi, -index)

    while remaining:
        admit(max(remaining, key=score))
    return tuple(order)


class IntGrounding:
    """The int-level relevant grounding of one program.

    Holds the term and atom symbol tables, the EDB fact ids and the
    emitted rules as flat lists (``heads`` plus sorted, deduplicated
    ``pos``/``neg`` CSR segments) together with the body-order key of
    every rule, from which :meth:`rules` decodes objects on demand.
    """

    def __init__(self) -> None:
        # Terms.
        self.terms: List[Term] = []
        self.term_ids: Dict[Term, int] = {}
        self.compounds: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self.structure: Dict[int, Tuple[str, Tuple[int, ...]]] = {}
        # Signatures and atoms.
        self.signatures: List[Tuple[str, int]] = []
        self.sig_ids: Dict[Tuple[str, int], int] = {}
        self.atom_sig: List[int] = []
        self.atom_args: List[Tuple[int, ...]] = []
        self._atom_index: List[Dict[Tuple[int, ...], int]] = []
        # Ground-program interning keeps the Atom objects themselves.
        self._atoms: Optional[List[Atom]] = None
        self._atom_table: Optional[AtomTable] = None
        # Output.
        self.fact_ids: List[int] = []
        self.heads: List[int] = []
        self.pos_off: List[int] = [0]
        self.pos_atoms: List[int] = []
        self.neg_off: List[int] = [0]
        self.neg_atoms: List[int] = []
        #: Per emitted rule: (head, positive ids, negative ids, shape) in
        #: body order — the dedup key, and all :meth:`rules` needs.
        self.keys: List[tuple] = []
        self.shapes: List[Tuple[bool, ...]] = []

    @classmethod
    def build(
        cls,
        program: Program,
        store: "FactStore | None" = None,
        limits: GroundingLimits | None = None,
        recorder: Recorder | None = None,
        join_ground: bool = False,
    ) -> "IntGrounding":
        """Ground *program* plus the EDB of *store*.

        Ground programs are interned as they stand unless *join_ground* is
        set, in which case they run the joins like any other program and
        keep only the rules whose positive body the envelope supports —
        the exact :func:`~repro.datalog.grounding.relevant_ground` contract.
        A tracing *recorder* gets the per-round ``ground.*`` counters.
        """
        grounding = cls()
        if program.is_ground and not join_ground:
            grounding._intern_ground(program, store)
        else:
            grounding._ground(
                program,
                store,
                limits or GroundingLimits(),
                recorder if recorder is not None else NULL_RECORDER,
            )
        return grounding

    @property
    def n_atoms(self) -> int:
        return len(self.atom_sig) if self._atoms is None else len(self._atoms)

    # ------------------------------------------------------------------ #
    # Symbol tables
    # ------------------------------------------------------------------ #
    def _term(self, term: Term) -> int:
        term_id = self.term_ids.get(term)
        if term_id is not None:
            return term_id
        if isinstance(term, Compound):
            key = (term.functor, tuple(self._term(arg) for arg in term.args))
            term_id = self.compounds.get(key)
            if term_id is not None:
                return term_id
            self.compounds[key] = len(self.terms)
            self.structure[len(self.terms)] = key
        term_id = len(self.terms)
        self.terms.append(term)
        self.term_ids[term] = term_id
        return term_id

    def _compound(self, functor: str, args: Tuple[int, ...]) -> int:
        """Term id of ``functor(args)``, interning it on first sight."""
        key = (functor, args)
        term_id = self.compounds.get(key)
        if term_id is None:
            terms = self.terms
            return self._term(Compound(functor, tuple(terms[a] for a in args)))
        return term_id

    def _sig(self, predicate: str, arity: int) -> int:
        key = (predicate, arity)
        sig = self.sig_ids.get(key)
        if sig is None:
            sig = self.sig_ids[key] = len(self.signatures)
            self.signatures.append(key)
            self._atom_index.append({})
        return sig

    def _atom(self, sig: int, args: Tuple[int, ...]) -> int:
        index = self._atom_index[sig]
        atom_id = index.get(args)
        if atom_id is None:
            atom_id = index[args] = len(self.atom_sig)
            self.atom_sig.append(sig)
            self.atom_args.append(args)
        return atom_id

    # ------------------------------------------------------------------ #
    # Ground programs: intern atoms directly
    # ------------------------------------------------------------------ #
    def _intern_ground(self, program: Program, store: "FactStore | None") -> None:
        """Intern a ground program's atoms in order of first occurrence
        (facts first) and emit every rule as it stands.  The rule objects
        already exist, so no decode keys are kept (:meth:`rules` is for
        joined groundings)."""
        atoms: List[Atom] = []
        ids: Dict[Atom, int] = {}
        lookup = ids.get

        facts = dict.fromkeys(rule.head for rule in program if not rule.body)
        if store is not None:
            for predicate, _, rows in _store_relations(store):
                facts.update(dict.fromkeys(Atom(predicate, row) for _, row in rows))
        for fact in facts:
            ids[fact] = len(atoms)
            atoms.append(fact)
        self.fact_ids.extend(range(len(atoms)))

        tick = current_meter().tick
        heads = self.heads
        pos_off, pos_atoms = self.pos_off, self.pos_atoms
        neg_off, neg_atoms = self.neg_off, self.neg_atoms
        for rule in program:
            body = rule.body
            if not body:
                continue
            tick("ground", 256)
            atom = rule.head
            atom_id = lookup(atom)
            if atom_id is None:
                atom_id = ids[atom] = len(atoms)
                atoms.append(atom)
            heads.append(atom_id)
            positive: List[int] = []
            negative: List[int] = []
            for literal in body:
                atom = literal.atom
                atom_id = lookup(atom)
                if atom_id is None:
                    atom_id = ids[atom] = len(atoms)
                    atoms.append(atom)
                (positive if literal.positive else negative).append(atom_id)
            _extend_segment(pos_atoms, positive)
            pos_off.append(len(pos_atoms))
            _extend_segment(neg_atoms, negative)
            neg_off.append(len(neg_atoms))
        self._atoms = atoms
        self._atom_table = AtomTable.from_interned(atoms, ids)

    # ------------------------------------------------------------------ #
    # Non-ground programs: semi-naive int joins
    # ------------------------------------------------------------------ #
    def _compile_rule(self, rule: Rule, shapes: Dict[Tuple[bool, ...], int]) -> _RulePlan:
        slot_of: Dict[Variable, int] = {}

        def pattern(term: Term):
            if isinstance(term, Variable):
                slot = slot_of.get(term)
                if slot is None:
                    slot = slot_of[term] = len(slot_of)
                return slot
            if isinstance(term, Compound) and not term.is_ground:
                return (term.functor, tuple(pattern(arg) for arg in term.args))
            return ~self._term(term)

        positive = []
        for literal in rule.body:
            if literal.positive:
                atom = literal.atom
                args = tuple(pattern(arg) for arg in atom.args)
                positive.append((self._sig(atom.predicate, atom.arity), args))
        negative = []
        for literal in rule.body:
            if literal.negative:
                atom = literal.atom
                args = tuple(pattern(arg) for arg in atom.args)
                negative.append((self._sig(atom.predicate, atom.arity), args))
        head = rule.head
        head_args = tuple(pattern(arg) for arg in head.args)
        shape = tuple(literal.positive for literal in rule.body)
        shape_id = shapes.get(shape)
        if shape_id is None:
            shape_id = shapes[shape] = len(self.shapes)
            self.shapes.append(shape)
        conjunct_vars = tuple(
            tuple(frozenset(_pattern_slots(arg)) for arg in args) for _, args in positive
        )
        return _RulePlan(
            self._sig(head.predicate, head.arity),
            head_args,
            tuple(positive),
            tuple(negative),
            shape_id,
            len(slot_of),
            conjunct_vars,
        )

    def _plan(self, rule: _RulePlan, order: Tuple[int, ...], relations: Dict[int, _Relation]) -> tuple:
        """The join steps of *rule* under *order*, cached per order."""
        steps = rule.steps.get(order)
        if steps is not None:
            return steps
        bound: set = set()
        built = []
        for conjunct in order:
            sig, args = rule.positive[conjunct]
            variables = rule.conjunct_vars[conjunct]
            positions = tuple(p for p, needed in enumerate(variables) if needed <= bound)
            key = tuple(args[p] for p in positions)
            binds: List[Tuple[int, int]] = []
            checks: List[Tuple[int, int]] = []
            matchers: List[Tuple[int, tuple]] = []
            for p, arg in enumerate(args):
                if p in positions or arg.__class__ is not int:
                    continue
                if arg in bound:
                    checks.append((p, arg))
                else:
                    binds.append((p, arg))
                    bound.add(arg)
            for p, arg in enumerate(args):
                if p not in positions and arg.__class__ is not int:
                    matchers.append((p, _matcher(arg, bound)))
            if len(positions) == len(args):
                mode = _FULL
            elif positions:
                mode = _PROBE
            else:
                mode = _SCAN
            relation = relations.get(sig)
            if relation is None:
                relation = relations[sig] = _Relation()
            built.append(
                (
                    conjunct,
                    relation,
                    mode,
                    positions,
                    key,
                    _simple(key),
                    tuple(binds),
                    tuple(checks),
                    tuple(matchers),
                )
            )
        steps = rule.steps[order] = tuple(built)
        return steps

    def _ground(
        self,
        program: Program,
        store: "FactStore | None",
        limits: GroundingLimits,
        recorder: Recorder,
    ) -> None:
        budget = grounding_meter(limits)
        program.check_safety()
        max_rules = limits.max_rules

        relations: Dict[int, _Relation] = {}
        atom_sig = self.atom_sig
        atom_args = self.atom_args
        atom_index = self._atom_index
        #: Atoms in the envelope or queued for the next round.
        derived: set = set()
        pending: List[int] = []

        # ---- EDB: program fact rules, then the store's facts ---------- #
        fact_ids = self.fact_ids
        term = self._term
        sig_of = self._sig
        atom_of = self._atom

        def add_fact(sig: int, row: Sequence[Term]) -> None:
            atom_id = atom_of(sig, tuple([term(arg) for arg in row]))
            if atom_id not in derived:
                derived.add(atom_id)
                pending.append(atom_id)
                fact_ids.append(atom_id)

        rules: List[_RulePlan] = []
        shapes: Dict[Tuple[bool, ...], int] = {}
        for rule in program:
            if rule.is_fact:
                head = rule.head
                add_fact(sig_of(head.predicate, head.arity), head.args)
        if store is not None:
            for predicate, arity, rows in _store_relations(store):
                sig = sig_of(predicate, arity)
                for _, row in rows:
                    add_fact(sig, row)
        for rule in program:
            if not rule.is_fact:
                rules.append(self._compile_rule(rule, shapes))
        emitted = len(fact_ids)

        heads = self.heads
        pos_off, pos_atoms = self.pos_off, self.pos_atoms
        neg_off, neg_atoms = self.neg_off, self.neg_atoms
        keys = self.keys
        seen: set = set()
        build = self._build
        structure = self.structure
        compounds = self.compounds
        tick = budget.tick

        def instance(sig: int, patterns: tuple, simple: bool) -> int:
            """Atom id of one rule atom under the current slots."""
            if simple:
                args = tuple([slots[p] if p >= 0 else ~p for p in patterns])
            else:
                args = tuple([build(p, slots) for p in patterns])
            index = atom_index[sig]
            atom_id = index.get(args)
            if atom_id is None:
                atom_id = index[args] = len(atom_sig)
                atom_sig.append(sig)
                atom_args.append(args)
            return atom_id

        # emit() and join() read the running variant's rule, steps, windows,
        # slots and matched ids from this scope.
        def emit() -> None:
            nonlocal emitted
            head = instance(rule.head_sig, rule.head_args, rule.head_simple)
            positive = tuple(matched)
            negative = tuple([instance(*literal) for literal in rule.negative])
            key = (head, positive, negative, rule.shape)
            if key not in seen:
                seen.add(key)
                emitted += 1
                if emitted > max_rules:
                    raise GroundingError(f"grounding exceeded the limit of {max_rules} rules")
                keys.append(key)
                heads.append(head)
                if len(positive) == 1:
                    pos_atoms.append(positive[0])
                else:
                    pos_atoms.extend(sorted(set(positive)))
                pos_off.append(len(pos_atoms))
                if negative:
                    neg_atoms.extend(sorted(set(negative)))
                neg_off.append(len(neg_atoms))
            if head not in derived:
                derived.add(head)
                pending.append(head)

        def join(depth: int) -> None:
            """Enumerate the bindings of join steps ``depth..`` within their
            windows, emitting one rule instance per complete binding."""
            conjunct, relation, mode, positions, key_parts, simple, binds, checks, matchers = steps[
                depth
            ]
            lo, hi = windows[conjunct]
            if hi <= lo:
                return
            if simple:
                key = [slots[part] if part >= 0 else ~part for part in key_parts]
            else:
                key = []
                for part in key_parts:
                    term_id = _lookup(part, slots, compounds)
                    if term_id is None:
                        return
                    key.append(term_id)
            atom_ids = relation.atom_ids
            last = depth + 1 == len(steps)
            if mode == _FULL:
                seq = relation.seq_of.get(tuple(key))
                if seq is not None and lo <= seq < hi:
                    matched[conjunct] = atom_ids[seq]
                    if last:
                        tick("ground")
                        emit()
                    else:
                        join(depth + 1)
                return
            if mode == _SCAN:
                candidates = range(lo, hi)
            else:
                postings = relation.index(positions).get(key[0] if len(key) == 1 else tuple(key))
                if not postings:
                    return
                start = bisect_left(postings, lo) if lo else 0
                end = bisect_left(postings, hi, start) if postings[-1] >= hi else len(postings)
                if start >= end:
                    return
                candidates = postings[start:end] if start or end < len(postings) else postings
            rows = relation.rows
            for seq in candidates:
                row = rows[seq]
                for position, slot in binds:
                    slots[slot] = row[position]
                if checks and any(slots[slot] != row[position] for position, slot in checks):
                    continue
                if matchers and not all(
                    _match(matcher, row[position], slots, structure)
                    for position, matcher in matchers
                ):
                    continue
                matched[conjunct] = atom_ids[seq]
                if last:
                    tick("ground")
                    emit()
                else:
                    join(depth + 1)

        if rules:
            budget.check("ground")
        # Rules without positive conjuncts are ground (safety) and fire once.
        slots: list = []
        matched: list = []
        for rule in rules:
            if not rule.positive:
                emit()

        # ------------------------------------------------------------------ #
        # Semi-naive rounds.  Variant i of a rule pins conjunct i to the
        # previous round's delta rows, conjuncts before i to strictly older
        # rows and conjuncts after i to all rows, so no binding is
        # enumerated twice; newly derived heads become the next delta.
        # ------------------------------------------------------------------ #
        old_sizes: Dict[int, int] = {}
        while pending:
            batch = pending
            pending = []
            for atom_id in batch:
                sig = atom_sig[atom_id]
                relation = relations.get(sig)
                if relation is None:
                    relation = relations[sig] = _Relation()
                relation.add(atom_args[atom_id], atom_id)
            new_sizes = {sig: len(relation.rows) for sig, relation in relations.items()}
            if recorder.enabled:
                recorder.count("ground.rounds")
                recorder.count("ground.delta_atoms", len(batch))

            for rule in rules:
                positive = rule.positive
                if not positive:
                    continue
                budget.check("ground")
                count = len(positive)
                for i in range(count):
                    delta_sig = positive[i][0]
                    delta_lo = old_sizes.get(delta_sig, 0)
                    delta_hi = new_sizes.get(delta_sig, 0)
                    if delta_hi <= delta_lo:
                        continue
                    windows = []
                    for j in range(count):
                        sig = positive[j][0]
                        if j < i:
                            windows.append((0, old_sizes.get(sig, 0)))
                        elif j == i:
                            windows.append((delta_lo, delta_hi))
                        else:
                            windows.append((0, new_sizes.get(sig, 0)))
                    order = join_order(rule.conjunct_vars, windows, seed=i)
                    steps = self._plan(rule, order, relations)
                    slots = [0] * rule.n_slots
                    matched = [0] * count
                    join(0)
            old_sizes = new_sizes
        if recorder.enabled:
            recorder.count("ground.rules_emitted", emitted)

    def _build(self, pattern, slots: list) -> int:
        """Term id of *pattern* under *slots* (every slot bound)."""
        if pattern.__class__ is int:
            return slots[pattern] if pattern >= 0 else ~pattern
        functor, parts = pattern
        return self._compound(functor, tuple([self._build(part, slots) for part in parts]))

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def table(self) -> AtomTable:
        """The atom table, decoding each atom lazily on first use."""
        if self._atom_table is None:
            self._atom_table = AtomTable.lazy(self.n_atoms, self.atoms)
        return self._atom_table

    def atoms(self) -> List[Atom]:
        """Every atom, indexed by id — each built exactly once."""
        if self._atoms is None:
            terms = self.terms
            signatures = self.signatures
            self._atoms = [
                Atom(signatures[sig][0], tuple([terms[t] for t in args]))
                for sig, args in zip(self.atom_sig, self.atom_args)
            ]
        return self._atoms

    def compiled(self, recorder: Recorder = NULL_RECORDER) -> CompiledProgram:
        """Link the CSR lists into a :class:`CompiledProgram`."""
        return link_program(
            self.table(),
            self.heads,
            self.pos_off,
            self.pos_atoms,
            self.neg_off,
            self.neg_atoms,
            sorted(self.fact_ids),
            recorder=recorder,
        )

    def rules(self) -> List[Rule]:
        """The ground program as objects: fact rules first (sorted by their
        text), then the rules in emission order.  Only for groundings that
        ran the joins (a ground program's rules are the program itself)."""
        atoms = self.atoms()
        facts = sorted((Rule(atoms[i]) for i in self.fact_ids), key=lambda rule: str(rule.head))
        literals: Dict[Tuple[int, bool], Literal] = {}

        def literal(atom_id: int, positive: bool) -> Literal:
            found = literals.get((atom_id, positive))
            if found is None:
                found = literals[(atom_id, positive)] = Literal(atoms[atom_id], positive)
            return found

        shapes = self.shapes
        ground: List[Rule] = facts
        for head, positive, negative, shape_id in self.keys:
            body = []
            next_pos = iter(positive)
            next_neg = iter(negative)
            for polarity in shapes[shape_id]:
                atom_id = next(next_pos) if polarity else next(next_neg)
                body.append(literal(atom_id, polarity))
            ground.append(Rule(atoms[head], tuple(body)))
        return ground


def _store_relations(store: "FactStore"):
    """Yield ``(predicate, arity, rows)`` per stored relation, in
    ``store.facts()`` order: the EDB is read once, one window-scan probe
    per relation, and interned."""
    for predicate, arity in sorted(store.signatures()):
        bound = store.sequence_bound(predicate, arity)
        yield predicate, arity, store.candidate_rows(predicate, arity, (), (), 0, bound)


def _extend_segment(target: List[int], ids: Sequence[int]) -> None:
    """Append one CSR segment: *ids* sorted and deduplicated."""
    if len(ids) == 1:
        target.append(ids[0])
    elif ids:
        target.extend(sorted(set(ids)))


def _pattern_slots(pattern) -> List[int]:
    if pattern.__class__ is int:
        return [pattern] if pattern >= 0 else []
    slots: List[int] = []
    for part in pattern[1]:
        slots.extend(_pattern_slots(part))
    return slots


def _matcher(pattern, bound: set) -> tuple:
    """Compile a compound pattern into a matcher tree, marking each slot
    leaf as a bind (first occurrence) or a check, in traversal order."""
    if pattern.__class__ is int:
        if pattern < 0:
            return ("c", ~pattern)
        if pattern in bound:
            return ("k", pattern)
        bound.add(pattern)
        return ("b", pattern)
    functor, parts = pattern
    return ("f", functor, tuple(_matcher(part, bound) for part in parts))


def _match(matcher: tuple, term_id: int, slots: list, structure: dict) -> bool:
    kind = matcher[0]
    if kind == "b":
        slots[matcher[1]] = term_id
        return True
    if kind == "k":
        return slots[matcher[1]] == term_id
    if kind == "c":
        return matcher[1] == term_id
    shape = structure.get(term_id)
    if shape is None or shape[0] != matcher[1] or len(shape[1]) != len(matcher[2]):
        return False
    for part, arg in zip(matcher[2], shape[1]):
        if not _match(part, arg, slots, structure):
            return False
    return True


def _lookup(pattern, slots: list, compounds: dict) -> Optional[int]:
    """Term id of a bound pattern without interning; ``None`` when the
    term was never seen (so no row can carry it)."""
    if pattern.__class__ is int:
        return slots[pattern] if pattern >= 0 else ~pattern
    functor, parts = pattern
    args = []
    for part in parts:
        term_id = _lookup(part, slots, compounds)
        if term_id is None:
            return None
        args.append(term_id)
    return compounds.get((functor, tuple(args)))

"""Unit tests for the hash-indexed relations behind the in-memory fact store."""

from repro.datalog.atoms import atom
from repro.datalog.joins import Relation, RelationStore
from repro.datalog.terms import Constant


def ground(predicate, *values):
    return atom(predicate, *(Constant(v) for v in values))


class TestRelation:
    def test_add_deduplicates(self):
        relation = Relation("e", 2)
        assert relation.add((Constant(1), Constant(2))) is True
        assert relation.add((Constant(1), Constant(2))) is False
        assert len(relation) == 1

    def test_lazy_index_built_once_and_maintained(self):
        relation = Relation("e", 2)
        relation.add((Constant(1), Constant(2)))
        index = relation.ensure_index((0,))
        assert index == {(Constant(1),): [0]}
        # Rows added after the index exists are appended incrementally.
        relation.add((Constant(1), Constant(3)))
        relation.add((Constant(2), Constant(3)))
        assert relation.indexes[(0,)][(Constant(1),)] == [0, 1]
        assert relation.indexes[(0,)][(Constant(2),)] == [2]

    def test_candidates_respect_windows(self):
        relation = Relation("e", 2)
        for pair in [(1, 2), (1, 3), (1, 4)]:
            relation.add((Constant(pair[0]), Constant(pair[1])))
        key = (Constant(1),)
        assert list(relation.candidates((0,), key, 0, 3)) == [0, 1, 2]
        assert list(relation.candidates((0,), key, 1, 3)) == [1, 2]
        assert list(relation.candidates((0,), key, 0, 1)) == [0]
        assert list(relation.candidates((0,), key, 2, 2)) == []

    def test_candidates_fully_bound_is_membership(self):
        relation = Relation("e", 2)
        relation.add((Constant(1), Constant(2)))
        row = (Constant(1), Constant(2))
        assert list(relation.candidates((0, 1), row, 0, 1)) == [0]
        assert list(relation.candidates((0, 1), row, 1, 1)) == []
        assert list(relation.candidates((0, 1), (Constant(9), Constant(9)), 0, 1)) == []
        # The membership fast path never builds an index.
        assert relation.indexes == {}

    def test_candidates_unbound_walks_window(self):
        relation = Relation("p", 1)
        relation.add((Constant("a"),))
        relation.add((Constant("b"),))
        assert list(relation.candidates((), (), 0, 2)) == [0, 1]
        assert list(relation.candidates((), (), 1, 2)) == [1]


class TestRelationStore:
    def test_keyed_on_predicate_and_arity(self):
        store = RelationStore()
        store.add_atom(ground("p", 1))
        store.add_atom(ground("p", 1, 2))
        assert len(store.relation("p", 1)) == 1
        assert len(store.relation("p", 2)) == 1
        assert store.relation("p", 3) is None
        assert ground("p", 1) in store
        assert ground("p", 3) not in store

    def test_sizes_snapshot(self):
        store = RelationStore()
        store.add_atom(ground("e", 1, 2))
        snapshot = store.sizes()
        store.add_atom(ground("e", 2, 3))
        assert snapshot == {("e", 2): 1}
        assert store.sizes() == {("e", 2): 2}

"""Crash consistency and corruption/contention hardening for SqliteStore.

The headline test kills a real subprocess with ``os._exit`` in the middle
of a ``kb.batch()`` — no atexit handlers, no context-manager unwinding, no
SQLite connection close — and asserts the surviving database file still
holds exactly the pre-batch state.  The remaining tests cover the two
softer failure families: corrupted database files detected at open, and
lock contention absorbed by the bounded-retry layer.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro import KnowledgeBase
from repro.datalog import parse_atom
from repro.exceptions import StorageError, StoreCorrupt
from repro.storage import SqliteStore

pytestmark = pytest.mark.faultinject

RULES = "reach(X, Y) :- edge(X, Y).  reach(X, Z) :- reach(X, Y), edge(Y, Z)."


CRASH_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
from repro import KnowledgeBase

kb = KnowledgeBase.open({path!r}, rules={rules!r})
with kb.batch():
    kb.assert_fact("edge", "c", "d")
    kb.assert_fact("edge", "d", "e")
    os._exit(9)  # simulated crash: batch never commits
"""


CREATE_CRASH_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
from repro.datalog import parse_atom
from repro.storage import SqliteStore

store = SqliteStore({path!r})
execute = SqliteStore._execute

def crash_before_create(self, sql, parameters=()):
    if sql.startswith("CREATE TABLE facts_"):
        os._exit(7)  # simulated crash between catalogue row and table
    return execute(self, sql, parameters)

SqliteStore._execute = crash_before_create
store.add_atom(parse_atom("edge(1, 2)"))
"""


class TestCrashMidRelationCreation:
    def test_crash_before_create_table_leaves_a_healthy_store(self, tmp_path):
        path = str(tmp_path / "create.db")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
        SqliteStore(path).close()
        script = CREATE_CRASH_SCRIPT.format(src=src, path=path)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 7, result.stderr

        # The catalogue row and its table commit together or not at all:
        # the store reopens without the half-created relation.
        store = SqliteStore(path)
        try:
            assert store.signatures() == set()
            assert store.add_atom(parse_atom("edge(1, 2)"))
            assert store.count("edge", 2) == 1
        finally:
            store.close()


class TestCrashMidBatch:
    def test_killed_process_leaves_pre_batch_state(self, tmp_path):
        path = str(tmp_path / "crash.db")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")

        # Seed the database in this process, then close cleanly.
        kb = KnowledgeBase.open(path, rules=RULES)
        kb.assert_fact("edge", "a", "b")
        kb.assert_fact("edge", "b", "c")
        kb.close()

        # A separate OS process dies mid-batch, after two uncommitted adds.
        script = CRASH_SCRIPT.format(src=os.path.abspath(src), path=path, rules=RULES)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 9, result.stderr

        # Reopening runs the integrity probe and replays any journal; the
        # aborted batch must have left no trace.
        recovered = KnowledgeBase.open(path, rules=RULES)
        try:
            edges = sorted(recovered.query("edge"))
            assert edges == [("a", "b"), ("b", "c")]
            assert sorted(recovered.query("reach")) == [
                ("a", "b"),
                ("a", "c"),
                ("b", "c"),
            ]
        finally:
            recovered.close()

    def test_clean_batch_in_subprocess_is_durable(self, tmp_path):
        # Control case for the crash test: the same batch, allowed to
        # finish, must be visible to a later process.
        path = str(tmp_path / "clean.db")
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        kb = KnowledgeBase.open(path, rules=RULES)
        kb.assert_fact("edge", "a", "b")
        kb.close()

        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro import KnowledgeBase\n"
            f"kb = KnowledgeBase.open({path!r}, rules={RULES!r})\n"
            "with kb.batch():\n"
            "    kb.assert_fact('edge', 'b', 'c')\n"
            "kb.close()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

        recovered = KnowledgeBase.open(path, rules=RULES)
        try:
            assert sorted(recovered.query("edge")) == [("a", "b"), ("b", "c")]
        finally:
            recovered.close()


class TestCorruptionDetection:
    def test_garbage_file_raises_store_corrupt(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is definitely not a sqlite database\n" * 64)
        with pytest.raises(StoreCorrupt):
            SqliteStore(str(path))

    def test_byte_flipped_database_raises_store_corrupt(self, tmp_path):
        path = tmp_path / "flipped.db"
        store = SqliteStore(str(path))
        for i in range(200):
            store.add_atom(parse_atom(f"p(v{i}, w{i})"))
        store.close()

        data = bytearray(path.read_bytes())
        # Smash a stretch of page content well past the 100-byte header so
        # sqlite still recognises the file but integrity_check (run at
        # open) finds the damage.
        middle = len(data) // 2
        for offset in range(middle, middle + 512):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

        with pytest.raises(StoreCorrupt):
            SqliteStore(str(path))

    def test_store_corrupt_is_storage_error(self):
        assert issubclass(StoreCorrupt, StorageError)

    def test_healthy_reopen_passes_checks(self, tmp_path):
        path = str(tmp_path / "healthy.db")
        store = SqliteStore(path)
        store.add_atom(parse_atom("q(x)"))
        store.close()
        reopened = SqliteStore(path)
        try:
            assert reopened.contains_atom(parse_atom("q(x)"))
        finally:
            reopened.close()


class TestLockContention:
    """The bounded-retry layer around every statement execution."""

    def _contended_store(self, tmp_path, name, **store_options):
        """A SqliteStore plus a second connection holding the write lock.

        The store is opened *before* the lock is taken so its open-time
        integrity probe is not what trips on contention — only the
        subsequent mutation is.
        """
        path = str(tmp_path / name)
        seed = SqliteStore(path)
        seed.add_atom(parse_atom("p(seed)"))
        seed.close()
        store = SqliteStore(path, **store_options)
        blocker = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        blocker.execute("BEGIN IMMEDIATE")
        return store, blocker

    def test_retries_exhaust_into_storage_error(self, tmp_path):
        store, blocker = self._contended_store(
            tmp_path, "locked.db", busy_timeout_ms=1, max_retries=2
        )
        try:
            with pytest.raises(StorageError) as excinfo:
                store.add_atom(parse_atom("p(blocked)"))
            assert "stayed locked" in str(excinfo.value)
            assert store.stats()["retries"] == 2
        finally:
            blocker.close()
            store.close()

    def test_retry_succeeds_after_lock_released(self, tmp_path):
        store, blocker = self._contended_store(
            tmp_path, "transient.db", busy_timeout_ms=1, max_retries=12
        )
        release = threading.Timer(0.05, blocker.close)
        release.start()
        try:
            assert store.add_atom(parse_atom("p(eventually)"))
            assert store.retries > 0
            assert store.contains_atom(parse_atom("p(eventually)"))
        finally:
            release.cancel()
            try:
                blocker.close()
            except sqlite3.Error:
                pass
            store.close()

    def test_busy_timeout_pragma_applied(self, tmp_path):
        store = SqliteStore(str(tmp_path / "pragma.db"), busy_timeout_ms=1234)
        try:
            cursor = store._connection.execute("PRAGMA busy_timeout")
            assert cursor.fetchone()[0] == 1234
        finally:
            store.close()

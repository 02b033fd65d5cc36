"""The four workloads: seeded inputs, the timed calls, and their checks.

Every workload is a closed loop driven from this process.  One
*operation* is a solve (solve-*) or a write (session-winmove,
serve-social); after every operation comes one *read round*, a fixed
seeded list of relation reads and point asks, so every round has the
same composition: the first read after an operation always pays for
indexing that operation's model.

``setup()`` is the cold start up to the first answerable state and
imports the program itself, so a setup probe in a fresh process times
the import too.  ``check()`` compares the last read round with
:mod:`oracle`; ``checkpoint()`` compares the whole model, and for the
stateful workloads a from-scratch ``solve()`` of the current facts.
Neither is timed.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from pathlib import Path
from urllib.parse import quote

import oracle

CHAIN_LENGTH = 200
LAYERS, LAYER_SIZE = 12, 200
WINMOVE_NODES, WINMOVE_EDGES, WINMOVE_SPARE = 40, 100, 50
SOCIAL_PEOPLE, SOCIAL_BACK_EDGES = 2000, 12

WINMOVE_RULES = (
    "wins(X) :- move(X, Y), not wins(Y).\n"
    "tc(X, Y) :- move(X, Y).\n"
    "tc(X, Z) :- move(X, Y), tc(Y, Z).\n"
)


def _verdicts(pairs) -> list[str]:
    return [f"{query}: got {got}, expected {want}" for query, got, want in pairs if got != want]


def _diff(label: str, got, want) -> list[str]:
    got, want = set(got), set(want)
    if got == want:
        return []
    return [
        f"{label}: {len(got - want)} unexpected, {len(want - got)} missing "
        f"(e.g. {sorted(got ^ want, key=repr)[:3]})"
    ]


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Client-observed latency of every HTTP request since last taken.
        self.requests: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def operate(self, index: int) -> None:
        raise NotImplementedError

    def read(self) -> None:
        raise NotImplementedError

    def composition(self) -> tuple:
        """What one read round asks for: identical on every round."""
        raise NotImplementedError

    @property
    def reads_per_round(self) -> int:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def checkpoint(self) -> list[str]:
        return self.check()

    def release(self) -> None:
        """Drop what the last round held once it is checked, so the next
        operation runs on the same heap every time."""
        self.got = {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# One-shot solves
# --------------------------------------------------------------------- #
class SolveWorkload(Workload):
    """``solve()`` of a fixed program text with the default config."""

    relations: tuple[str, ...] = ()
    #: Whether ``solve()`` gets the program as text or parsed once.
    from_text = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.program = self.program_text()
        self.expected = self.expected_model()
        self.asks = self.pick_asks(random.Random(seed))
        self.solution = None
        self.got: dict = {}

    def setup(self) -> None:
        if not self.from_text:
            from repro.datalog.parser import parse_program

            self.program = parse_program(self.program)
        self.operate(0)

    def operate(self, index: int) -> None:
        from repro import solve

        self.solution = solve(self.program)

    def read(self) -> None:
        from repro.engine import query

        solution = self.solution
        self.got = {
            "true": {name: solution.relation(name) for name in self.relations},
            "undefined": {name: solution.undefined_relation(name) for name in self.relations},
            "asks": [query.ask(solution, text).value for text, _ in self.asks],
        }

    def composition(self) -> tuple:
        return (self.relations, tuple(query for query, _ in self.asks))

    @property
    def reads_per_round(self) -> int:
        return 2 * len(self.relations) + len(self.asks)

    def check(self) -> list[str]:
        problems = []
        for truth in ("true", "undefined"):
            for name in self.relations:
                problems += _diff(
                    f"{truth} {name}", self.got[truth][name], self.expected[truth][name]
                )
        problems += _verdicts(
            (query, got, want) for (query, want), got in zip(self.asks, self.got["asks"])
        )
        return problems

    def release(self) -> None:
        super().release()
        self.solution = None


class SolveChain(SolveWorkload):
    """Non-ground win-move plus transitive closure over a 200-edge chain."""

    name = "solve-chain200"
    relations = ("wins", "tc")

    def program_text(self) -> str:
        facts = "".join(f"move(n{i}, n{i + 1}).\n" for i in range(CHAIN_LENGTH))
        return WINMOVE_RULES + facts

    def expected_model(self) -> dict:
        wins, tc = oracle.chain_expected(CHAIN_LENGTH)
        return {
            "true": {"wins": wins, "tc": tc},
            "undefined": {"wins": set(), "tc": set()},
        }

    def pick_asks(self, rng: random.Random) -> list[tuple[str, str]]:
        asks = []
        for _ in range(4):
            i = rng.randrange(CHAIN_LENGTH + 1)
            holds = (CHAIN_LENGTH - i) % 2 == 1
            asks.append((f"wins(n{i})", "true" if holds else "false"))
        for _ in range(4):
            i, j = rng.randrange(CHAIN_LENGTH + 1), rng.randrange(CHAIN_LENGTH + 1)
            asks.append((f"tc(n{i}, n{j})", "true" if i < j else "false"))
        return asks


class SolveLayered(SolveWorkload):
    """The program of ``layered_program(12, 200)``, parsed once: ground, so
    grounding is a pass-through and evaluation dominates."""

    name = "solve-layered"
    relations = ("base", "bridge", "chain", "undef", "frontier", "shadow")
    from_text = False

    def program_text(self) -> str:
        lines = []
        for layer in range(LAYERS):
            base = f"base({layer})"
            lines.append(f"{base}." if layer == 0 else f"{base} :- bridge({layer - 1}).")
            for i in range(LAYER_SIZE - 1):
                lines.append(f"chain({layer}, {i}) :- {base}, not chain({layer}, {i + 1}).")
            lines.append(f"bridge({layer}) :- chain({layer}, {LAYER_SIZE - 2}).")
            for k in range(3):
                lines.append(f"undef({layer}, {k}) :- {base}, not undef({layer}, {(k + 1) % 3}).")
            lines.append(f"frontier({layer}) :- undef({layer}, 0).")
            lines.append(f"shadow({layer}) :- {base}, not undef({layer}, 0).")
        return "\n".join(lines) + "\n"

    def expected_model(self) -> dict:
        return oracle.layered_expected(LAYERS, LAYER_SIZE)

    def pick_asks(self, rng: random.Random) -> list[tuple[str, str]]:
        true, undefined = self.expected["true"], self.expected["undefined"]

        def verdict(name: str, args: tuple) -> str:
            if args in true[name]:
                return "true"
            return "undefined" if args in undefined[name] else "false"

        asks = []
        for _ in range(2):
            layer, i = rng.randrange(LAYERS), rng.randrange(LAYER_SIZE)
            asks.append((f"chain({layer}, {i})", verdict("chain", (layer, i))))
        for name in ("undef", "frontier", "shadow", "bridge"):
            layer = rng.randrange(LAYERS)
            args = (layer, rng.randrange(3)) if name == "undef" else (layer,)
            asks.append((f"{name}({', '.join(map(str, args))})", verdict(name, args)))
        return asks


# --------------------------------------------------------------------- #
# Stateful workloads: a churn of EDB writes
# --------------------------------------------------------------------- #
class Churn:
    """Seeded writes over a pool of candidate facts, in pairs.

    Operation 2k flips a seeded pool fact (retracts it if present,
    asserts it if absent) and operation 2k+1 flips it back, so every
    operation is a real change and each pair starts from the initial
    facts: the state, and with it the cost of a write, does not drift
    over a run.
    """

    def __init__(self, pool: list, present: set, seed: int) -> None:
        self.pool = pool
        self.present = set(present)
        self.rng = random.Random(seed)
        self.fact = None

    def next(self, index: int) -> tuple[str, object]:
        if index % 2 == 0:
            self.fact = self.rng.choice(self.pool)
        fact = self.fact
        if fact in self.present:
            self.present.discard(fact)
            return "retract", fact
        self.present.add(fact)
        return "assert", fact


class SessionWinmove(Workload):
    """A ``KnowledgeBase`` (memory store) over non-ground win-move plus
    transitive closure; each write is a seeded ``move`` flip and refresh."""

    name = "session-winmove"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # One graph shape for every seed, so the cost of a rebuild does not
        # depend on the seed; the seed relabels its nodes and drives the
        # churn and the reads.
        shape = random.Random(0)
        edges: list[tuple[int, int]] = []
        while len(edges) < WINMOVE_EDGES + WINMOVE_SPARE:
            edge = tuple(shape.sample(range(WINMOVE_NODES), 2))
            if edge not in edges:
                edges.append(edge)
        rng = random.Random(seed)
        nodes = [f"v{i}" for i in range(WINMOVE_NODES)]
        rng.shuffle(nodes)
        edges = [(nodes[a], nodes[b]) for a, b in edges]
        self.churn = Churn(edges, set(edges[:WINMOVE_EDGES]), seed)
        self.asks = [f"wins({rng.choice(nodes)})" for _ in range(3)]
        self.asks += [f"tc({rng.choice(nodes)}, {rng.choice(nodes)})" for _ in range(2)]
        self.source = rng.choice(nodes)
        self.kb = None
        self.got: dict = {}

    @property
    def edges(self) -> set:
        return self.churn.present

    def program_text(self) -> str:
        facts = "".join(f"move({a}, {b}).\n" for a, b in sorted(self.edges))
        return WINMOVE_RULES + facts

    def setup(self) -> None:
        from repro import KnowledgeBase

        self.kb = KnowledgeBase(self.program_text())
        self.kb.solution

    def operate(self, index: int) -> None:
        kind, (a, b) = self.churn.next(index)
        changed = (self.kb.assert_fact if kind == "assert" else self.kb.retract_fact)(
            "move", a, b
        )
        if not changed:
            raise RuntimeError(f"{kind} move({a}, {b}) changed nothing")
        self.kb.solution

    def read(self) -> None:
        kb = self.kb
        self.got = {
            "wins": list(kb.query("wins")),
            "drawn": list(kb.query("wins").undefined),
            "tc_count": len(kb.query("tc")),
            "tc_from": list(kb.query("tc", self.source, None)),
            "asks": [kb.ask(query).value for query in self.asks],
        }

    def composition(self) -> tuple:
        return ("wins", "wins.undefined", "tc.count", ("tc", self.source), tuple(self.asks))

    @property
    def reads_per_round(self) -> int:
        return 4 + len(self.asks)

    def expected(self) -> dict:
        won, _, drawn = oracle.game_expected(self.edges)
        tc = oracle.closure(self.edges)
        verdicts = []
        for query in self.asks:
            name, args = query[:-1].split("(")
            args = tuple(arg.strip() for arg in args.split(","))
            if name == "wins":
                node = args[0]
                verdicts.append(
                    "true" if node in won else "undefined" if node in drawn else "false"
                )
            else:
                verdicts.append("true" if args in tc else "false")
        return {"won": won, "drawn": drawn, "tc": tc, "asks": verdicts}

    def check(self) -> list[str]:
        want = self.expected()
        got = self.got
        problems = _diff("wins", got["wins"], {(node,) for node in want["won"]})
        problems += _diff("wins undefined", got["drawn"], {(node,) for node in want["drawn"]})
        if got["tc_count"] != len(want["tc"]):
            problems.append(f"|tc|: got {got['tc_count']}, expected {len(want['tc'])}")
        problems += _diff(
            f"tc({self.source}, _)",
            got["tc_from"],
            {pair for pair in want["tc"] if pair[0] == self.source},
        )
        problems += _verdicts(zip(self.asks, got["asks"], want["asks"]))
        return problems

    def checkpoint(self) -> list[str]:
        from repro import solve

        problems = self.check()
        scratch = solve(self.program_text())
        model = self.kb.solution
        for name in ("wins", "tc"):
            problems += _diff(f"scratch {name}", model.relation(name), scratch.relation(name))
            problems += _diff(
                f"scratch {name} undefined",
                model.undefined_relation(name),
                scratch.undefined_relation(name),
            )
        return problems

    def close(self) -> None:
        if self.kb is not None:
            self.kb.close()


class ServeSocial(Workload):
    """``QueryService`` + ``ServiceHTTPServer`` over a ~2,000-person social
    graph on a sqlite store, driven by one keep-alive HTTP client."""

    name = "serve-social"
    PAGE = 100
    #: The server drops a connection idle for 5 s; reconnect before that.
    IDLE_S = 4.0
    #: Least client think time before a write.  After a receive gap longer
    #: than the retransmission timeout (200 ms minimum) Linux acknowledges
    #: the next segments at once, so no write waits on a delayed ACK, while
    #: the back-to-back reads of a round each do.  Fixing the gap keeps
    #: that split the same however long the untimed checks take.
    THINK_S = 0.3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        people = SOCIAL_PEOPLE
        self.edges: list[tuple[int, int]] = []
        seen = set()
        for person in range(people - 1):
            self.edges.append((person, person + 1))
            seen.add((person, person + 1))
        extra = []
        for _ in range(people // 3):
            source = rng.randrange(people - 1)
            extra.append((source, rng.randrange(source + 1, people)))
        for _ in range(SOCIAL_BACK_EDGES):
            source = rng.randrange(1, people)
            extra.append((source, max(0, source - rng.randint(1, 4))))
        for edge in extra:
            if edge[0] != edge[1] and edge not in seen:
                seen.add(edge)
                self.edges.append(edge)
        backbone = [("follows", p, p + 1) for p in range(people - 1)]
        self.follows = set(seen)
        self.muted: set[int] = set()
        self.churn = Churn(backbone + [("muted", p) for p in range(people)], backbone, seed)
        self.pages = [1 + rng.randrange(people // self.PAGE) for _ in range(2)]
        self.asks = [f"influencer({rng.randrange(people)})", f"isolated({rng.randrange(people)})"]
        self.db = workdir / f"social-{seed}.db"
        self.kb = self.service = self.server = self.thread = self.conn = None
        self.last_request = 0.0
        self.got: dict = {}

    def program_text(self) -> str:
        lines = ["seed(0)."]
        lines += [f"person({p})." for p in range(SOCIAL_PEOPLE)]
        lines += [f"follows({a}, {b})." for a, b in sorted(self.follows)]
        lines += [f"endorses({p}, {p + 1})." for p in range(SOCIAL_PEOPLE - 1)]
        lines += [f"muted({p})." for p in sorted(self.muted)]
        for p in range(SOCIAL_PEOPLE):
            lines.append(f"reach({p}) :- seed({p}).")
            lines.append(f"influencer({p}) :- reach({p}), not muted({p}).")
            lines.append(f"isolated({p}) :- person({p}), not reach({p}).")
        for a, b in self.edges:
            lines.append(f"reach({b}) :- reach({a}), follows({a}, {b}).")
            if b == a + 1:
                lines.append(f"reach({b}) :- reach({a}), endorses({a}, {b}).")
        return "\n".join(lines) + "\n"

    def setup(self) -> None:
        from repro import KnowledgeBase
        from repro.config import EngineConfig
        from repro.service import QueryService, ServiceHTTPServer

        for path in self.workdir.glob(f"{self.db.name}*"):
            path.unlink()
        # Under "auto" this program resolves to stratified semantics and
        # every write rebuilds the model; well-founded keeps it on the
        # delta-maintenance path this workload exists to measure.
        self.kb = KnowledgeBase(
            self.program_text(),
            store=f"sqlite:{self.db}",
            config=EngineConfig(semantics="well-founded"),
        )
        self.service = QueryService(self.kb).start()
        self.server = ServiceHTTPServer(("127.0.0.1", 0), self.service)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    # -- client ---------------------------------------------------------- #
    def connect(self) -> None:
        if self.conn is not None:
            self.conn.close()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.last_request = time.perf_counter()

    def request(self, method: str, path: str, body: dict | None = None) -> dict:
        if self.conn is None or time.perf_counter() - self.last_request > self.IDLE_S:
            self.connect()
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            # The connection was not idle long enough to be dropped, so
            # this is a real failure; the next request starts afresh.
            self.conn.close()
            self.conn = None
            raise
        self.last_request = time.perf_counter()
        self.requests.append((self.last_request - start) * 1e3)
        if response.status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {response.status} {data[:200]!r}")
        return json.loads(data)

    # -- the loop -------------------------------------------------------- #
    def operate(self, index: int) -> None:
        kind, fact = self.churn.next(index)
        text = f"{fact[0]}({', '.join(map(str, fact[1:]))})"
        reply = self.request("POST", f"/{kind}", {"fact": text})
        if not reply.get("changed"):
            raise RuntimeError(f"{kind} {text} changed nothing: {reply}")
        if fact[0] == "muted":
            (self.muted.add if kind == "assert" else self.muted.discard)(fact[1])
        else:
            (self.follows.add if kind == "assert" else self.follows.discard)(fact[1:])

    def read(self) -> None:
        pages = [
            self.request("GET", f"/query/influencer?page={page}&per_page={self.PAGE}")
            for page in self.pages
        ]
        asks = [self.request("GET", f"/ask?q={quote(query)}") for query in self.asks]
        self.got = {
            "pages": [[tuple(row) for row in page["rows"]] for page in pages],
            "totals": [page["pagination"]["total"] for page in pages],
            "asks": [reply["verdict"] for reply in asks],
        }

    def composition(self) -> tuple:
        return (tuple(self.pages), tuple(self.asks))

    def release(self) -> None:
        super().release()
        time.sleep(max(0.0, self.last_request + self.THINK_S - time.perf_counter()))

    @property
    def reads_per_round(self) -> int:
        return len(self.pages) + len(self.asks)

    def expected(self) -> dict:
        support = [
            (a, b)
            for a, b in self.edges
            if (a, b) in self.follows or b == a + 1  # endorses never churn
        ]
        reach = oracle.reachable(0, support)
        people = set(range(SOCIAL_PEOPLE))
        return {
            "reach": {(p,) for p in reach},
            "influencer": {(p,) for p in reach - self.muted},
            "isolated": {(p,) for p in people - reach},
        }

    def check(self) -> list[str]:
        want = self.expected()
        ordered = sorted(want["influencer"], key=repr)
        problems = []
        for page, rows, total in zip(self.pages, self.got["pages"], self.got["totals"]):
            start = (page - 1) * self.PAGE
            if rows != ordered[start : start + self.PAGE]:
                problems.append(f"influencer page {page} differs from the oracle")
            if total != len(ordered):
                problems.append(f"influencer total: got {total}, expected {len(ordered)}")
        for query, got in zip(self.asks, self.got["asks"]):
            name, arg = query[:-1].split("(")
            expected = "true" if (int(arg),) in want[name] else "false"
            if got != expected:
                problems.append(f"{query}: got {got}, expected {expected}")
        return problems

    def checkpoint(self) -> list[str]:
        from repro import solve

        problems = self.check()
        want = self.expected()
        snapshot = self.service.snapshot()
        scratch = solve(self.program_text(), semantics="well-founded")
        for name in ("reach", "influencer", "isolated"):
            problems += _diff(f"served {name}", snapshot.relation(name), want[name])
            problems += _diff(f"scratch {name}", scratch.relation(name), want[name])
        # The checkpoint left the connection idle; start the next
        # operation on a fresh one rather than risk the idle timeout.
        self.connect()
        return problems

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.shutdown()
            self.thread.join()
            self.server.server_close()
        if self.service is not None:
            self.service.stop()
        if self.kb is not None:
            self.kb.close()
        for path in self.workdir.glob(f"{self.db.name}*"):
            path.unlink()


WORKLOADS = {
    cls.name: cls for cls in (SolveChain, SolveLayered, SessionWinmove, ServeSocial)
}

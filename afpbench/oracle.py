"""Expected answers computed without the program under test.

Each workload's outputs are checked against closed forms or against a
direct graph algorithm here: game retrograde analysis for win-move,
breadth-first search for transitive closure and reachability.  None of it
imports ``repro``, so a defect in the solver cannot hide in its own oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

Edge = tuple[object, object]


def chain_expected(length: int) -> tuple[set[tuple[str]], set[tuple[str, str]]]:
    """Win-move and transitive closure over ``move(n0,n1) .. move(n{L-1},nL)``.

    The last node has no move, so it is lost; a node wins exactly when
    the number of moves left to the end of the chain is odd.
    """
    wins = {(f"n{i}",) for i in range(length + 1) if (length - i) % 2 == 1}
    tc = {(f"n{i}", f"n{j}") for i in range(length + 1) for j in range(i + 1, length + 1)}
    return wins, tc


def layered_expected(layers: int, size: int) -> dict[str, dict[str, set[tuple]]]:
    """The model of the layered negation program, relation by relation.

    Every layer is reached through its bridge, so ``base`` and ``bridge``
    hold everywhere.  A chain rung holds when an even number of rungs lie
    between it and the false top rung ``size - 1``; the triangle and both
    of its observers are undefined.
    """
    every = range(layers)
    return {
        "true": {
            "base": {(layer,) for layer in every},
            "bridge": {(layer,) for layer in every},
            "chain": {
                (layer, i)
                for layer in every
                for i in range(size - 1)
                if (size - 2 - i) % 2 == 0
            },
            "undef": set(),
            "frontier": set(),
            "shadow": set(),
        },
        "undefined": {
            "base": set(),
            "bridge": set(),
            "chain": set(),
            "undef": {(layer, k) for layer in every for k in range(3)},
            "frontier": {(layer,) for layer in every},
            "shadow": {(layer,) for layer in every},
        },
    }


def game_expected(moves: Iterable[Edge]) -> tuple[set, set, set]:
    """Won, lost and drawn positions of ``wins(X) :- move(X,Y), not wins(Y)``.

    Retrograde analysis: a position without moves is lost, a position
    with a move to a lost one is won, a position whose every move leads
    to a won one is lost; whatever is never labelled is drawn, which is
    the well-founded model's undefined.
    """
    succ: dict[object, set] = {}
    pred: dict[object, set] = {}
    for source, target in moves:
        succ.setdefault(source, set()).add(target)
        pred.setdefault(target, set()).add(source)
        succ.setdefault(target, set())
    left = {node: len(targets) for node, targets in succ.items()}
    won: set = set()
    lost = {node for node, count in left.items() if count == 0}
    queue = deque(lost)
    while queue:
        node = queue.popleft()
        for source in pred.get(node, ()):
            if source in won or source in lost:
                continue
            if node in lost:
                won.add(source)
                queue.append(source)
            else:
                left[source] -= 1
                if left[source] == 0:
                    lost.add(source)
                    queue.append(source)
    drawn = set(succ) - won - lost
    return won, lost, drawn


def closure(edges: Iterable[Edge]) -> set[Edge]:
    """Every ``(x, y)`` joined by a path of one or more edges."""
    succ: dict[object, set] = {}
    for source, target in edges:
        succ.setdefault(source, set()).add(target)
    pairs: set[Edge] = set()
    for start in succ:
        seen: set = set()
        queue = deque(succ[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(succ.get(node, ()))
        pairs.update((start, node) for node in seen)
    return pairs


def reachable(start: object, edges: Iterable[Edge]) -> set:
    """Nodes reachable from *start* (itself included)."""
    succ: dict[object, list] = {}
    for source, target in edges:
        succ.setdefault(source, []).append(target)
    seen = {start}
    queue = deque([start])
    while queue:
        for node in succ.get(queue.popleft(), ()):
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return seen

"""Host-speed normalisation for the benchmark's timings.

The hosts this benchmark runs on change speed by up to 1.6x within a
second, so a raw wall time says as much about the neighbours as about the
program.  Every timed sample is therefore taken between two runs of a
fixed *reference task* and rescaled to the speed at which that task takes
``REF_MS`` milliseconds:

    normalised = off_cpu + cpu * REF_MS / reference

``cpu`` is the process CPU time the sample consumed (all threads: the
service's handler and writer threads run in this process) and ``off_cpu``
the rest of its wall time.  Only CPU time is rescaled: time spent waiting
on a socket or a timer does not get faster on a faster CPU.

The reference task hashes, compares and looks up frozen dataclass
objects shaped like the program's atoms — the operations the solver
spends its time in — and shares no code with the program under test, so
a change to the program cannot move it.  It allocates nothing and runs
with the collector paused, after an untimed warm-up, so its speed does
not depend on the state the measured program left behind.
``python3 steady.py COUNT`` prints its median in a fresh interpreter
for the loaded-versus-fresh check the traced run makes.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

#: Duration, in ms, of one reference run at the speed every timing is
#: rescaled to (about its median on a 2-vCPU Xeon host).
REF_MS = 3.0

#: Terms in the reference table, and look-ups per reference run.  The
#: table stays in the caches: a table too large for them measures how
#: much of it the measured program evicted rather than the host's speed.
TABLE_SIZE, LOOKUPS = 2000, 6000

#: A reference reading older than this is stale; take a fresh one.
_REF_MAX_AGE_S = 0.05


@dataclass(frozen=True, slots=True)
class _Term:
    """Shaped like the program's atoms: a frozen slotted dataclass whose
    hash is computed in Python once and cached, compared field by field."""

    name: str
    args: tuple
    _hash: int = field(default=0, compare=False, repr=False)

    def __hash__(self) -> int:
        value = self._hash
        if not value:
            value = hash((self.name, self.args)) or 1
            object.__setattr__(self, "_hash", value)
        return value


class Reference:
    """The reference task.

    Construct it before the program is imported or set up: the table is
    built once and frozen out of the collector's sight (``gc.freeze``),
    so it neither slows the program's collections nor freezes any of the
    program's own objects.
    """

    def __init__(self) -> None:
        def term(i: int) -> _Term:
            return _Term("p", (i % 97, i // 97))

        self.table = {term(i): i for i in range(TABLE_SIZE)}
        order = list(range(TABLE_SIZE))
        random.Random(0).shuffle(order)
        # Equal to keys of the table but distinct objects, so every
        # look-up calls the Python-level __hash__ and __eq__.
        self.probes = [term(i) for i in order]
        gc.freeze()

    def task(self, lookups: int) -> int:
        """Fixed work that allocates nothing: look terms up in the table."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            total, table = 0, self.table
            for probe in itertools.islice(itertools.cycle(self.probes), lookups):
                total += table.get(probe, -1)
            return total
        finally:
            if enabled:
                gc.enable()

    def ms(self) -> float:
        """One reading: an untimed warm-up that brings the task back into
        the caches the measured program just filled, then three timed
        thirds of a run; the median third, times three, so that a burst
        on the host during one third does not skew the reading."""
        self.task(LOOKUPS // 6)
        thirds = []
        for _ in range(3):
            start = time.perf_counter()
            self.task(LOOKUPS // 3)
            thirds.append(time.perf_counter() - start)
        return statistics.median(thirds) * 3e3

    def timings(self, count: int) -> list[float]:
        return [self.ms() for _ in range(count)]


@dataclass(frozen=True)
class Sample:
    """One timed block: wall and CPU time, and the reference readings
    taken just before and just after it."""

    wall_ms: float
    cpu_ms: float
    ref_ms: float
    start: float
    end: float

    @property
    def factor(self) -> float:
        """How much faster the reference speed is than the host was."""
        return REF_MS / self.ref_ms

    @property
    def ms(self) -> float:
        cpu = min(self.cpu_ms, self.wall_ms)
        return (self.wall_ms - cpu) + cpu * self.factor


class Clock:
    """Times blocks between reference runs, sharing one reading between
    back-to-back blocks."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        # Keep only a warm first reading.
        self._ref = reference.timings(3)[-1]
        self._ref_at = time.perf_counter()

    def measure(self, block):
        """Run *block*; return its result and its :class:`Sample`."""
        if time.perf_counter() - self._ref_at > _REF_MAX_AGE_S:
            self._ref = self.reference.ms()
        before = self._ref
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = block()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        self._ref = self.reference.ms()
        self._ref_at = time.perf_counter()
        sample = Sample(
            wall_ms=(wall1 - wall0) * 1e3,
            cpu_ms=(cpu1 - cpu0) * 1e3,
            ref_ms=(before + self._ref) / 2,
            start=wall0,
            end=wall1,
        )
        return result, sample


if __name__ == "__main__":
    # Median of COUNT warm reference runs in a fresh interpreter.
    count = int(sys.argv[1])
    print(json.dumps(statistics.median(Reference().timings(2 * count)[count:])))

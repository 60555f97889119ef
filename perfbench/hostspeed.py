"""Host-speed sampling, so that times taken on a shared host compare across runs.

On a shared host the same Python code runs up to about 1.7x slower during
spells that last from seconds to many minutes; process CPU time slows just
as much as wall time, so no clock of the job's own can tell them apart. A
``Sampler`` therefore measures the host's speed while the job runs. It
times a fixed pure-Python chunk (dictionary updates keyed by symplectic
Pauli masks, the shape of fermicode's inner loops, but no fermicode code)
at every stage boundary and, from an interval timer unless it is turned
off, every ``PERIOD_S`` inside a stage. A stage's time is its wall time minus the time spent
sampling; its normalized time is that time scaled by
``REFERENCE_CHUNK_S`` / (harmonic mean of the chunk times from the stage's
first boundary to its last), i.e. the time the stage would take on a host
where the chunk takes ``REFERENCE_CHUNK_S``. Samples come at even steps of
wall time, so the mean of their speeds (1 / chunk time) is the stage's mean
speed, and a chunk that the host stalled weighs little. A program that does more work takes longer
relative to the chunk, so normalizing removes the host's spells but none of
the program's own cost.

Importing this module starts nothing; ``Sampler.start`` installs the
SIGALRM handler and the timer, ``Sampler.stop`` removes them.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
CHUNK_ITERATIONS = 1500
# Chunk time on an uncontended 2.1 GHz Xeon (Sapphire Rapids class) vCPU
# under CPython 3.11, so normalized times read as seconds on that host.
REFERENCE_CHUNK_S = 0.0015

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _product(x: int, z: int, a: int, b: int) -> tuple[int, int, int]:
    return x ^ a, z ^ b, (bin(x & b).count("1") - bin(z & a).count("1")) & 3


def chunk() -> float:
    """Run the fixed calibration chunk once; return its duration in seconds."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], complex] = {}
    for i in range(CHUNK_ITERATIONS):
        a, b = (i * 40503) & 0x3FF, (i * 9973) & 0x3FF
        x, z, k = _product(a, b, b, a)
        acc[x, z] = acc.get((x, z), 0.0) + _PHASES[k] * 0.5
    return time.perf_counter() - t0


class Sampler:
    """Chunk timings taken at stage boundaries and on a timer in between.

    A mark is ``(clock, seconds spent sampling so far, index of the mark's
    own chunk)``; ``stage`` turns two marks into raw and normalized seconds.
    ``chunks`` may be seeded with timings taken by another process just
    before it started this one; ``(that moment's clock, 0.0, 0)`` is then
    the mark for that moment.
    """

    def __init__(self, chunks: list[float] | None = None, timer: bool = True):
        self.chunks: list[float] = list(chunks or [])
        self.spent = 0.0
        self.timer = timer
        self._busy = False

    def start(self) -> "Sampler":
        if self.timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self):
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        self.chunks.append(chunk())
        self.spent += time.monotonic() - t0
        self._busy = False

    def _on_alarm(self, signum, frame):
        self._sample()

    def mark(self) -> tuple[float, float, int]:
        """Sample at a stage boundary (with the timer held off) and return the mark."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
            return (time.monotonic(), self.spent, len(self.chunks) - 1)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def stage(self, first, last) -> tuple[float, float]:
        """Raw and normalized seconds between two marks."""
        raw = last[0] - first[0] - (last[1] - first[1])
        typical = statistics.harmonic_mean(self.chunks[first[2] : last[2] + 1])
        return raw, raw * REFERENCE_CHUNK_S / typical

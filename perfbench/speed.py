"""Machine-speed probe and the clock the workloads time their calls with.

The speed of a small shared machine drifts by up to 2x over seconds to
minutes, while the work of a run stays the same.  ``SpeedProbe`` measures
that drift in the run itself: every ``EVERY_S`` seconds of wall time a
SIGALRM handler times ``probe_kernel``, a fixed piece of work that shares
no code with regpack, so probes land inside long calls as well as between
them.  ``factor`` scales the times of the run to the reference speed at
which one probe takes ``NOMINAL_S``.  ``now`` leaves out the time spent in
probes, so the calls are timed as if no probe had run.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.035   # probe_kernel time that defines the reference speed
EVERY_S = 0.5

_probed = 0.0       # wall time spent in probes so far in this process


def now() -> float:
    """``time.perf_counter`` without the time spent in probes."""
    while True:
        before = _probed
        t = time.perf_counter()
        if _probed == before:
            return t - before


def probe_kernel() -> int:
    """Fixed work with regpack's mix but none of its code: a Python loop over
    numpy scalars, as the pure-Python switch chain runs, then integer bit
    operations and dict updates."""
    import numpy as np

    gen = np.random.Generator(np.random.PCG64(12345))
    adj = gen.random((12, 12)) < 0.7
    sigma = np.arange(12)
    acc = 0
    for u1, u2, u3 in gen.integers(0, 12, size=(7000, 3)):
        if adj[u2, sigma[u1]] and adj[u3, sigma[u2]]:
            sigma[u1], sigma[u2] = sigma[u2], sigma[u1]
            acc += 1
    table: dict[int, int] = {}
    for i in range(20000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc += bin(m & (m >> 7)).count("1")
        table[i & 1023] = m
        acc ^= table.get((i >> 3) & 1023, 0)
    return acc


class SpeedProbe:
    """Times ``probe_kernel`` every ``EVERY_S`` seconds while entered."""

    def __init__(self):
        self.times: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        global _probed
        t0 = time.perf_counter()
        probe_kernel()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        _probed += dt

    def __enter__(self) -> "SpeedProbe":
        probe_kernel()  # the first run is slow everywhere; keep it out
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def factor(self) -> float:
        return NOMINAL_S / statistics.median(self.times)

"""Host-speed probe: a fixed kernel of the benchmark's own, timed between
segments of work, so that end-to-end times can be corrected for the host.

The reference machine is a 2-core virtual machine on a shared host whose
speed changes by up to 1.5x for seconds to tens of minutes at a time, and
not by the same factor for every kind of work.  A run of fixed work meets a
different mix of these states each time, so raw times of the same code
spread by up to a third between runs.  The probe mixes the kinds of work
the workloads are made of and slows down with the host.  Over two sets of
ten seeds, correcting by it cut the spread of wall time (interquartile
range over median) on sagnac_budget from 21% to 1.7%, and the rise of the
median between the sets from 28% to 1.6%.  It helps least on cli_chain
(12% to 8%), whose long, memory-heavy commands slow down by a different
factor than the probe.

A `SpeedMeter` books each segment at the speed measured by the probes just
before and just after it: corrected = raw * PROBE_REF_S / probe time.  The
probe calls no fiberphase code, so a change to the program does not move it.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

# About the probe's median time on the reference machine: corrected times
# read as seconds on that machine at that speed.
PROBE_REF_S = 0.0105
PROBE_REPEATS = 3  # a probe is the median of this many kernel runs

_X = np.random.default_rng(20071205).standard_normal(2**17)
# Every buffer the kernel writes is allocated once, here: a probe allocates
# nothing large, so its time does not depend on the state the program left
# the allocator in.
_DRAWS = np.empty(10_000)
_SPECTRUM = np.empty(2**15 + 1, dtype=complex)
_HALF = np.empty(2**16)
_Y = np.empty_like(_X)
_D = np.empty(_X.size - 64)
_Z = np.empty_like(_X)


def _kernel() -> None:
    # Generator draws and small array maths, an FFT pair, a pure-Python loop
    # and streaming array passes: the kinds of work the workloads are made of.
    g = np.random.Generator(np.random.Philox(key=11))
    for _ in range(4):
        g.standard_normal(out=_DRAWS)
        np.add(_DRAWS, 0.3, out=_DRAWS)
        np.cos(_DRAWS, out=_DRAWS).mean()
    np.fft.rfft(_X[: 2**16], out=_SPECTRUM)
    np.multiply(_SPECTRUM, 0.5, out=_SPECTRUM)
    np.fft.irfft(_SPECTRUM, n=2**16, out=_HALF)
    acc = 0
    for i in range(30_000):
        acc += i & 7
    for _ in range(2):
        np.cumsum(_X, out=_Y)
        np.subtract(_Y[64:], _Y[:-64], out=_D)
        np.square(_D, out=_D)
        _D.sum()
        np.arctan2(_X, _Y, out=_Z)


def probe() -> float:
    """Seconds the kernel takes on the host now (median of a few runs)."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class SpeedMeter:
    """Times segments of work and books each at the host speed around it.

    `start()` and `stop(op)` bracket a segment that belongs to op `op`;
    `checkpoint()` probes the host and books every segment stopped since the
    previous probe.  With `correct=False` nothing is probed and corrected
    times equal raw ones (the traced run, which compares lanes in lock-step).
    """

    def __init__(self, correct: bool = True):
        self.correct = correct
        self.raw_wall = self.raw_cpu = 0.0
        self.wall = self.cpu = 0.0
        self.op_raw: dict[int, float] = {}
        self.op_wall: dict[int, float] = {}
        self.probes: list[float] = []
        self._pending: list[tuple[int, float, float]] = []
        self._last = None
        if correct:
            probe()  # warm-up: first-call costs of the kernel
            self._last = self._probe()

    def _probe(self) -> float:
        r = probe()
        self.probes.append(r)
        return r

    def first_speed(self) -> float:
        """Correction factor of the first probe, for the set-up before it."""
        return PROBE_REF_S / self._last if self.correct else 1.0

    def start(self) -> None:
        self._t0 = time.perf_counter()
        self._c0 = _cpu()

    def stop(self, op: int) -> None:
        wall = time.perf_counter() - self._t0
        cpu = _cpu() - self._c0
        self.raw_wall += wall
        self.raw_cpu += cpu
        self.op_raw[op] = self.op_raw.get(op, 0.0) + wall
        self._pending.append((op, wall, cpu))

    def checkpoint(self) -> None:
        if not self._pending:
            return
        if self.correct:
            now = self._probe()
            speed = PROBE_REF_S / (0.5 * (self._last + now))
            self._last = now
        else:
            speed = 1.0
        for op, wall, cpu in self._pending:
            self.wall += wall * speed
            self.cpu += cpu * speed
            self.op_wall[op] = self.op_wall.get(op, 0.0) + wall * speed
        self._pending = []

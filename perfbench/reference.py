"""A fixed yardstick for the host's speed, timed next to every measurement.

The benchmark runs on a few cores of a shared host whose speed swings by
tens of percent within a minute and by up to a factor of two between
busy and quiet periods, and the slowdown is real CPU time, not time taken
by other guests.  A timing alone then measures the neighbours.  So every
timed ``estimate_dispersion`` call and every set-up probe is paired with
a pass of :func:`reference` in the same process, and the benchmark
reports times in *reference seconds*::

    t_ref = t_measured * REF_NOMINAL_S / t_reference

that is, the time the measurement would take on a host where one
reference pass costs :data:`REF_NOMINAL_S` seconds of CPU.  A faster
program lowers ``t_measured`` and leaves ``t_reference`` alone, so a
speed-up shows in full.

The work mixes what the program itself does: short NumPy calls over
small arrays in a Python loop (the lock-step drivers' narrow rounds),
NumPy calls over large arrays (wide rounds, stream refills) and plain
interpreter work (dispatch).  It imports nothing from :mod:`repro` and
does identical work on every call, whatever the benchmark's seed.
"""

from __future__ import annotations

from time import process_time

import numpy as np

#: CPU seconds one reference pass is taken to cost; the unit of the
#: benchmark's reference-second timings.
REF_NOMINAL_S = 0.05


def _narrow_rounds(rounds: int = 1500) -> int:
    rng = np.random.Generator(np.random.PCG64(12345))
    n, m = 128, 64
    pos = np.zeros(m, np.int64)
    occ = np.zeros(n, np.int64)
    for _ in range(rounds):
        pos = (pos + np.where(rng.random(m) < 0.5, 1, n - 1)) % n
        occ = np.bincount(pos, minlength=n)
    return int(occ @ np.arange(n))


def _wide_rounds(rounds: int = 20) -> int:
    rng = np.random.Generator(np.random.PCG64(54321))
    n, m = 1024, 1 << 16
    pos = np.zeros(m, np.int64)
    occ = np.zeros(n, np.int64)
    for _ in range(rounds):
        pos = (pos + np.where(rng.random(m) < 0.5, 1, n - 1)) % n
        occ = np.bincount(pos, minlength=n)
    return int(occ @ np.arange(n))


def _interpreter(k: int = 75_000) -> int:
    table: dict[int, int] = {}
    s = 0
    for i in range(k):
        table[i & 1023] = table.get(i & 1023, 0) + i
        s += i * 3 % 7
    return s + sum(table.values())


def reference() -> int:
    """One reference pass; returns a checksum that is the same every time."""
    return _narrow_rounds() ^ _wide_rounds() ^ _interpreter()


def timed_reference() -> tuple[float, int]:
    """CPU seconds of one reference pass, and its checksum."""
    t0 = process_time()
    checksum = reference()
    return process_time() - t0, checksum

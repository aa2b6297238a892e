"""Machine-speed probe: converts wall seconds to reference seconds.

The benchmark shares a small VM with other tenants, and its CPU speed
drifts by up to 1.6x over minutes: wall-time medians of whole runs moved
by 16-38% between runs a minute apart, though nothing changed.  The probe
is a fixed piece of work, timed right after every timed command.  Its mix
follows the program's profile: interpreter loops, NumPy calls on small
arrays (as in mesh lookup), small dense linear algebra (as in the SDR
solver) and CSV-row parsing (as in E-field loading).  A command's wall
time divided by the mean of the probe times around it, times
:data:`REFERENCE_S`, gives its time at the reference speed.

The probe never calls the program, so a change to ``src/`` cannot move it.
Do not change the probe or :data:`REFERENCE_S`: doing so rescales every
time the benchmark has reported.
"""

from __future__ import annotations

import time

import numpy as np

_CSV_ROW = "3,42.5,120.0,0.12345678901234,-0.9876543210987,0.0011223344556,-0.0022334455667"

# Median probe time, in seconds, on the machine the benchmark was written on
# (2-vCPU VM, Python 3.11, NumPy 2.4).
REFERENCE_S = 0.010


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._axis = np.linspace(0.0, 180.0, 961)
        self._matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        sym = rng.standard_normal((30, 4, 4))
        self._sym = sym + sym.transpose(0, 2, 1)
        self.last = self.measure()

    def measure(self) -> float:
        """Wall time of the fixed probe work."""
        start = time.perf_counter()
        total = 0.0
        for i in range(40000):
            total += i * i
        for i in range(1500):
            parts = _CSV_ROW.split(",")
            total += int(parts[0]) + sum(float(v) for v in parts[1:])
        for i in range(400):
            total += int(np.argmin(np.abs(self._axis - i % 180)))
        index = np.arange(16)
        for i in range(300):
            mask = index != i % 16
            total += (self._matrix[np.ix_(mask, mask)] @ self._matrix[mask, 0]).size
        for a in self._sym:
            np.linalg.eigh(a)
        return time.perf_counter() - start

    def scale(self, wall_s: float) -> float:
        """Reference seconds for a command that just took ``wall_s``.

        Uses the probe run before the command (the previous call's) and a
        fresh one after it.
        """
        before, self.last = self.last, self.measure()
        return wall_s * REFERENCE_S * 2.0 / (before + self.last)

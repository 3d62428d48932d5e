"""A fixed calibration kernel that measures how fast this CPU runs right now.

On a shared virtual machine the speed of a vCPU changes from one minute to
the next by up to 1.8x (other guests on the same physical cores), on the
CPU clock as well as on the wall clock.  sample.py therefore reports CPU
times in reference seconds: the CPU time a region took, multiplied by the
CPU's speed while it ran, where the speed is REF_UNIT_S over the time the
kernel below takes.  During a solve the kernel runs as a tick every TICK_S
of wall time (from a SIGALRM timer, so it samples the same vCPU, in the same
process, at the same moments as the solve); its time is left out of the
solve's time.  The timer counts wall time because arming a CPU-time timer
(ITIMER_PROF) coarsens the process CPU clock to the kernel's 4-ms tick.
Set-up is short, so it is calibrated by kernel runs just before and after
it.

The kernel is the benchmark's own code with fixed inputs.  It mixes the
kinds of work psaddle does: interpreted Python, small numpy contractions
and a sparse LU with its solves.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter, process_time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REF_UNIT_S = 0.002   # the kernel's CPU time at reference speed
TICK_S = 0.1         # seconds between ticks during a solve


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((16, 16, 3, 3))
        self.b = rng.standard_normal((16, 3))
        self.c = rng.standard_normal((3, 2))
        n = 16
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.K = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        self.f = rng.standard_normal(n * n)
        self.ticks: list[float] = []   # CPU time of each tick in the current solve
        self.tick_cpu = 0.0            # CPU time of all ticks so far
        self.tick_wall = 0.0

    def kernel(self) -> float:
        acc = 0.0
        for i in range(6000):                      # interpreted Python
            acc += (i % 7) * 0.5
        for _ in range(15):                        # small numpy contractions
            s = np.einsum("txqr,xr->txq", self.a, self.b)
            acc += float(np.einsum("txq,qb->b", s, self.c)[0])
        lu = spla.splu(self.K)                     # sparse LU and solves
        for _ in range(3):
            acc += float(lu.solve(self.f)[0])
        return acc

    def measure(self, reps: int) -> list[float]:
        """The CPU times of `reps` kernel runs."""
        times = []
        for _ in range(reps):
            t0 = process_time()
            self.kernel()
            times.append(process_time() - t0)
        return times

    def clock(self) -> float:
        """Process CPU time, less the time spent in ticks."""
        return process_time() - self.tick_cpu

    def wall(self) -> float:
        """Wall time, less the time spent in ticks."""
        return perf_counter() - self.tick_wall

    def _tick(self, signum, frame) -> None:
        w0, c0 = perf_counter(), process_time()
        self.kernel()
        dc = process_time() - c0
        self.ticks.append(dc)
        self.tick_cpu += dc
        self.tick_wall += perf_counter() - w0

    @contextmanager
    def ticking(self):
        """Run a tick every TICK_S inside the block."""
        self.ticks = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)


def speed(times: list[float]) -> float:
    """How many times faster than reference the CPU ran over kernel runs
    spread evenly in time: the mean of their speeds, so that it scales the
    CPU time of the work between them."""
    return statistics.fmean(REF_UNIT_S / t for t in times)

"""Host speed from fixed reference kernels, so that timings survive a drifting host.

On a shared host the CPU speed a process gets drifts by tens of percent over
seconds to minutes, and every timing drifts with it: two sets of runs of the
same code, minutes apart, then disagree by more than any useful bound.  The
benchmark therefore runs a fixed reference kernel right before, during and
right after each piece of work it times, and rescales the timing to a
reference host speed:

    scaled = raw * reference_unit_s / unit_s

where ``unit_s`` is the median time of one kernel unit in those samples.
During the work a timer signal runs a few units every ``period`` seconds, so
a long request is scaled by the host's speed over its whole length and not
only at its ends; the handler's time is taken out of the raw time.
A change to the program moves a scaled time as it moves the raw time; the
kernels never call the program.  Raw times are kept beside the scaled ones in
every result.

A slow spell does not slow all work alike: interference from other tenants
stretches interpreter-bound work and array-bound work by different factors.
So there are two kernels, and each workload names the one that matches its
hot path:

interpreter
    float formatting, a Python loop, a small GEMM and a short vector
    ``exp``: the CLI's CSV writing, the ODE right-hand side, per-point
    portrait loops.
array
    complex vector recurrences, a tall-skinny complex GEMM and a stream over
    a buffer larger than the L2 cache: the chunked 4D phase-space quadrature.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Every kernel array is allocated here, once: a kernel that allocated would
# time the allocator too, and the allocator's state depends on what the
# program did before the sample (glibc moves its mmap threshold after large
# frees), which would make the unit time depend on the preceding request.
_A = np.cos(np.arange(64 * 64, dtype=float)).reshape(64, 64)
_AA = np.empty_like(_A)
_X = np.linspace(-3.0, 3.0, 8192)
_XX = np.empty_like(_X)

_Z = np.cos(np.arange(4000 * 8, dtype=float)).reshape(4000, 8) * (1.0 + 0.5j)
_ZC = _Z.conj()
_Z1 = _Z[:, 0].copy()
_Z2 = 0.3 * _Z[:, 1]
_C = np.empty_like(_Z1)
_CR = np.empty(_Z1.shape)
_ZW = np.empty_like(_Z)
_M = np.empty((8, 8), dtype=complex)
_STREAM_CHUNK = 1 << 18
_STREAM = np.ones(4 * _STREAM_CHUNK)
_stream_pos = [0]


def interpreter_unit() -> float:
    """One unit of fixed interpreter-bound work."""
    rows = "\n".join(f"{i},{i * 0.1:.17g},{math.sin(i):.17g}" for i in range(100))
    total = 0.0
    for i in range(2800):
        total += i * 0.5
    np.matmul(_A, _A, out=_AA)
    np.multiply(_X, _X, out=_XX)
    np.negative(_XX, out=_XX)
    np.exp(_XX, out=_XX)
    return len(rows) + total + float(_AA[0, 0]) + float(_XX.sum())


def array_unit() -> float:
    """One unit of fixed array-bound work; the stream walks an 8 MB buffer chunk by chunk."""
    np.copyto(_C, _Z1)
    for _ in range(3):
        np.multiply(_Z1, _C, out=_C)
        np.subtract(_C, _Z2, out=_C)
    np.copyto(_CR, _C.real)
    np.multiply(_Z, _CR[:, None], out=_ZW)
    np.matmul(_ZW.T, _ZC, out=_M)
    start = (_stream_pos[0] % 4) * _STREAM_CHUNK
    _stream_pos[0] += 1
    chunk = _STREAM[start : start + _STREAM_CHUNK]
    np.multiply(chunk, 1.0, out=chunk)
    return float(_M[0, 0].real)


# kernel -> (unit, nominal seconds per unit).  A scaled time is the time the
# work takes on a host where one unit takes the nominal time (about one
# Intel Xeon vCPU's speed when it is not contended).
KERNELS = {
    "interpreter": (interpreter_unit, 4.3e-4),
    "array": (array_unit, 4.7e-4),
}


class HostSpeed:
    """Samples a kernel next to timed work and rescales the timings.

    A sample before or after a piece of work runs ``edge_units`` kernel
    units; during the work, ``ticking`` runs ``tick_units`` every ``period``
    seconds, so a long piece of work is sampled in proportion to its length.
    """

    def __init__(self, kernel: str, edge_units: int = 40, period: float = 0.25, tick_units: int = 10):
        self.kernel = kernel
        self.unit, self.reference_unit_s = KERNELS[kernel]
        self.edge_units = edge_units
        self.period = period
        self.tick_units = tick_units

    def sample(self, units: int | None = None) -> list:
        """Times of ``units`` kernel units (``edge_units`` by default), one by one."""
        unit = self.unit
        times = []
        # no collection inside a unit: its cost depends on the program's heap
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units or self.edge_units):
                start = time.perf_counter()
                unit()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return times

    @contextmanager
    def ticking(self):
        """Samples taken from a SIGALRM timer while the body runs.

        Yields a ``Ticks`` whose ``samples`` are the unit times and whose
        ``spent`` is the handlers' total time, to be taken out of the body's.
        Python runs the handler between bytecodes of the main thread, so a
        tick that falls inside one long C call waits for it to return.
        """
        ticks = Ticks()

        def handler(signum, frame):
            start = time.perf_counter()
            ticks.samples.extend(self.sample(self.tick_units))
            ticks.spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield ticks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, raw_s: float, *samples: list) -> float:
        """``raw_s`` at the reference speed, from the unit times around it."""
        return raw_s * self.reference_unit_s / statistics.median([t for s in samples for t in s])


class Ticks:
    """Unit times sampled by ``HostSpeed.ticking`` and the seconds the samples took."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

"""Machine-speed calibration for the benchmark's timings.

The reference machine is a few cores of a shared host whose speed changes
from one moment to the next: a fixed loop of pure Python runs at one of two
speeds about 1.7x apart and switches between them within a second, so the
CPU time of one op swings by a quarter and more from run to run.  The
benchmark therefore samples the machine's speed while it times: a small fixed
kernel, which is the benchmark's own code and calls nothing in the library,
runs a few times before and after each timed op and, through a CPU-time
interval timer (``SIGPROF``), once every ``PERIOD_S`` of CPU time during it.
The op's CPU time is scaled by ``REFERENCE_S / mean kernel time``: timings
are reported in seconds at the speed at which the kernel takes
``REFERENCE_S``.  A change to the library moves the op and not the kernel, so
it shows in full; a slow spell of the machine moves both and cancels.  The
kernel's own time is left out of the clock that times the op (``clock``).

The kernel mixes the two kinds of work the library does: a best-first
search over tuple states with dicts, sets and a heap (like the planner), and
small dense linear solves in numpy (like the model checker).

The sampler's state lives in this module because the ``SIGPROF`` handler and
the interval timer it relies on belong to the whole process: there can be
only one sampler per process.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.003    # the kernel's CPU time at the reference speed
PERIOD_S = 0.1         # CPU seconds between two kernel runs during an op
BRACKET = 4            # kernel runs before and after each op

_GRID = 16
_MATRIX = np.eye(30) * 4.0 + np.full((30, 30), 0.01)
_RHS = np.arange(30.0)

_kernel_s = 0.0        # CPU seconds spent in the kernel so far
_samples: list = []    # kernel times since ``start``


def kernel() -> int:
    """A fixed amount of work: search over a 16x16x3 grid, then 5 solves."""
    dist = {(0, 0, 0): 0}
    heap = [(0, (0, 0, 0))]
    done = set()
    while heap:
        d, s = heapq.heappop(heap)
        if s in done:
            continue
        done.add(s)
        x, y, k = s
        for nx, ny in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
            if 0 <= nx < _GRID and 0 <= ny < _GRID:
                t = (nx, ny, (k + nx * ny) % 3)
                nd = d + 1 + (nx ^ ny) % 3
                if nd < dist.get(t, 1 << 30):
                    dist[t] = nd
                    heapq.heappush(heap, (nd, t))
    b = _RHS
    for _ in range(5):
        b = np.linalg.solve(_MATRIX, b) + 1.0
    return len(done)


def _sample(*_signal_args) -> None:
    """Time one kernel run.  The garbage collector is off meanwhile: the
    kernel's allocations would otherwise set off a collection of the op's
    heap now and then (tens of ms inside a large A* search) and charge it
    to the kernel."""
    global _kernel_s
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        kernel()
        spent = time.thread_time() - t0
    finally:
        if collecting:
            gc.enable()
    _kernel_s += spent
    _samples.append(spent)


def clock() -> float:
    """CPU seconds of this thread, less the time spent in the kernel.  The
    benchmark is single-threaded, so this is the process's CPU time."""
    while True:
        before = _kernel_s
        now = time.thread_time()
        if _kernel_s == before:    # no kernel ran in between
            return now - before


def start(during: bool = True) -> None:
    """Sample the speed before an op and, if ``during``, while it runs."""
    _samples.clear()
    for _ in range(BRACKET):
        _sample()
    if during:
        signal.signal(signal.SIGPROF, _sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)


def stop() -> float:
    """Stop sampling; returns the factor that turns the CPU seconds measured
    since ``start`` into seconds at the reference speed."""
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    for _ in range(BRACKET):
        _sample()
    return REFERENCE_S / statistics.fmean(_samples)

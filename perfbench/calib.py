"""A fixed reference kernel that gauges how fast this host's CPUs run now.

CPU time (see :func:`common.tree_cpu_s`) leaves out the time a program
waits for a CPU, but not how fast the CPU runs while the program has it.
On a shared host that speed moves with the neighbours' load (a busy
sibling hyperthread, shared caches and memory bandwidth, the turbo
clock): on a 2-vCPU VM the program's CPU time per job doubled for tens
of minutes at a time.

The kernel does a fixed amount of the kinds of work the program does:
interpreter bookkeeping (dict and list traffic) and numpy integer
arithmetic over a freshly allocated array bigger than a core's L2 cache.
Its CPU time, measured beside the program, is this host's current cost
of a fixed amount of work.  One measurement is noisy; the median of a
window's measurements (:class:`Sampler`) is not, and the program's CPU
times over it, times :data:`REFERENCE_S`, are times at a fixed host
speed.  The kernel is the benchmark's code, not the program's, so a
change to the program cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

__all__ = ["REFERENCE_S", "SAMPLE_EVERY_S", "Sampler", "reference_s"]

#: The kernel's CPU time on a quiet 2-vCPU Xeon (Sapphire Rapids class)
#: VM.  Scaled times read as CPU seconds at that host's speed.
REFERENCE_S = 0.010

#: Wall seconds between measurements: about 80 in a 20 s window, for
#: about 7 % of its time.
SAMPLE_EVERY_S = 0.25

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _kernel() -> int:
    counts: dict[int, int] = {}
    rows = []
    for k in range(10000):
        key = (k * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        if not k & 63:
            rows.append(key)
    words = np.arange(1 << 20, dtype=np.uint64)  # 8 MiB
    for _ in range(3):
        words ^= words >> np.uint64(29)
        words *= _MIX
    return len(counts) + len(rows) + int(words[-1] & np.uint64(1))


def reference_s() -> float:
    """CPU seconds of one kernel run on the calling thread."""
    started = time.thread_time_ns()
    _kernel()
    return (time.thread_time_ns() - started) / 1e9


class Sampler:
    """Measures the kernel between the jobs of a timed window, at most
    once every :data:`SAMPLE_EVERY_S`; the measurements collect in
    ``samples``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def between_jobs(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(reference_s())
            self._last = time.perf_counter()

"""Machine-speed calibration.

On the shared 2-vCPU host the baselines were measured on, CPU speed
switched between a fast and a slow state every few seconds: a fixed loop
took 0.17 s in one minute and 0.26 s in the next.  Raw wall times of two
sets of runs of the same code would then differ by more than any useful
regression bound.  So each time the benchmark measures is scaled to a
machine on which ``kernel()`` takes REFERENCE_S seconds, using kernel times
measured in the same process right before and after it.  The workloads
slow down less than the kernel when the host does, by about the kernel's
slowdown to the power EXPONENT, so the factor is the kernel ratio to that
power (README.md has the study).  The kernel mixes the
kinds of work the package does: Python integer loops, numpy gathers with
``np.outer`` and ``%`` on large and on tiny arrays, set and dict
operations, and Python calls that build tuples.

The kernel uses no sparselab code, and it runs with the garbage collector
off, but it runs in the package's process.  A change to the package that
slows the whole process, not its own code (a large retained heap, the
allocator's state, numpy settings made at import), slows the kernel too,
and the scaling then hides it in part.  Running the kernel in a helper
process of its own avoided that but tracked the host's speed states much
worse (see README.md), so it is not done.
"""

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.012
EXPONENT = 0.75


def _complete(a, b, n=10007):
    if a == b:
        return None
    d = (b - a) % n
    return tuple((a + h * d) % n for h in range(3))


def kernel():
    """Seconds taken by one fixed piece of work (about 12 ms)."""
    gc_on = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if gc_on:
            gc.enable()


def _timed_work():
    t0 = time.perf_counter()
    acc = 0
    # Python integer loop
    for i in range(20000):
        acc += i * i % 7
    # numpy gathers over a 10^4-element ground set
    base = np.arange(1, 10007, dtype=np.int64)
    offs = np.arange(-1, 2, dtype=np.int64)
    for x in range(12):
        rows = (x + np.outer(base, offs)) % 10007
        acc += int(rows[:, 0].sum() & 1)
    # sets and dicts of tuples
    seen = set()
    for i in range(6000):
        seen.add((i, i * 3 % 101))
    acc += len({k: v for k, v in seen})
    # many tiny numpy calls, as on a 101-element ground set
    vals = np.linspace(0.0, 1.0, 101)
    small = np.arange(1, 101, dtype=np.int64)
    for x in range(150):
        rows = (x + np.outer(small, offs)) % 101
        acc += float((vals[rows[:, 0]] * vals[rows[:, 2]]).mean())
    # Python calls that build and test tuples
    members = set(range(0, 2000, 3))
    for a in range(40):
        for b in range(40):
            t = _complete(a, b)
            if t is not None and all(v in members for v in t):
                acc += 1
    return time.perf_counter() - t0


def scale(samples):
    """Factor that converts times measured next to these kernel samples
    to reference-machine times."""
    return (REFERENCE_S / statistics.median(samples)) ** EXPONENT

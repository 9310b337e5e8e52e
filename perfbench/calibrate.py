"""Machine-speed calibration, so that timings survive a noisy shared host.

On a host shared with other tenants the speed of pure-Python code drifts by
20-30 % over seconds, which swamps run-to-run differences in raw seconds.
The benchmark therefore times a fixed kernel between operations, spread over
the whole timed phase, and scales every operation time by `NOMINAL_S /
median kernel time`.  That gives *reference seconds* (unit `ref_s`): seconds
on a machine that runs the kernel in exactly NOMINAL_S.  The kernel is plain
Python that does the same kind of work as the solver (hashing tuples,
building dictionaries and sets, sorting strings).  It imports nothing from
the program under test, so no change to the program can move it.  Over
20-second windows of solver work on a noisy 2-vCPU VM, scaling by this
kernel cut the spread of operation times from 8 % to 2 % (coefficient of
variation); a bitmask-loop kernel only reached 6 % and was dropped.  Raw
seconds are printed next to every reference-second figure.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.002

# fixed inputs: tuple keys for a dictionary and strings to normalise and sort
_KEYS = [(i, i * 7919 % 10007, str(i)) for i in range(6000)]
_WORDS = ["w%d_%d" % (i % 97, i) for i in range(2000)]


def kernel() -> int:
    """Dictionary build and lookup over tuple keys, then string, set and sort
    work: the kind of interpreter work the solver does, on fixed inputs."""
    table = {}
    for key in _KEYS:
        table[key] = key[1]
    total = 0
    for key in reversed(_KEYS):
        total += table[key]
    return total + len(sorted({w.upper() for w in _WORDS}))


def kernel_seconds() -> float:
    """Time of one kernel run, with the garbage collector paused so that
    garbage left by the solver is not collected inside it."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()

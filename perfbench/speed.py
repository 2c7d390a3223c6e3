"""How fast the machine is right now, for scaling measured times.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more over minutes, which moves every measured time with it.
``reference()`` times a fixed pure-Python loop; a time measured next to it
is scaled to a machine of nominal speed by ``NOMINAL_S / reference()``.  A
slower program still reads slower, while a slower machine slows the loop
too and cancels out.
"""
import time

#: Iterations of the reference loop.
ITERS = 80_000

#: The loop's time on the nominal machine: a 2-vCPU VM, Python 3.11.
NOMINAL_S = 0.015


def reference():
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(ITERS):
        acc = (acc * 31 + i) % 1000003
        table[acc & 1023] = i
    return time.perf_counter() - t0

"""Fixed pure-Python loop that measures how fast the host runs right now.

The host's speed drifts by +-25% from run to run (measured: raw ops_per_s of
one seed spread 0.19 as IQR/median over five runs), which would swamp any
change worth measuring.  So ``run.py`` brackets every timed interval with
``calibrate()`` and reports the interval scaled by CAL_REF_S / (mean
calibration time): the time it would take on a host where the loop takes
CAL_REF_S (the same five runs, scaled: 0.02).  The loop does not touch
adelic, so a change to the library cannot move it.
"""

from time import perf_counter

CAL_REF_S = 0.0005


def calibrate() -> float:
    """Seconds taken by a fixed loop of integer, list, dict and big-int work."""
    t0 = perf_counter()
    acc = 0
    table = {}
    items = []
    for i in range(1000):
        acc = (acc * 1103515245 + 12345) % 2147483648
        table[acc & 1023] = i
        items.append(acc >> 7)
    items.sort()
    pow(acc | 1, 2**61 - 1, (1 << 127) - 1)
    return perf_counter() - t0

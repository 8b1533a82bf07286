"""Reference work that measures how fast the machine runs at the moment.

On a small shared machine the same code runs up to 40% faster or 45%
slower for stretches of seconds to minutes, so two runs of the same code
a few minutes apart can differ by more than any useful regression bound.
Each pass therefore runs a fixed amount of reference work after each of
its commands, and run.py reports the run's times in reference seconds:

    reported = measured * REF_UNIT_S / (median seconds per unit in the run)

The reference work uses numpy and the interpreter the way the package
does (scalar numpy calls from Python, small eigensolves, 180 x 180 matrix
products), but none of the package's code, so a change to the package
moves the reported times as much as the measured ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Seconds one unit takes at reference speed: about its median on a 2-core
# Intel Xeon VM at 2.1 GHz with OpenBLAS pinned to one thread.
REF_UNIT_S = 0.030

_RNG = np.random.default_rng(20080322)
_SYM = _RNG.standard_normal((24, 24))
_SYM = _SYM + _SYM.T
_GEN = _RNG.standard_normal((180, 180)) / 180.0


def _ratio(x, a):
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("x must be positive")
    return float((x * a - 1.0) / (4.0 * (x + a) ** 2))


def unit() -> float:
    """One unit of reference work; returns a checksum."""
    s = 0.0
    for i in range(1000):
        s += _ratio(1.0 + i * 1e-3, 0.3) + math.sqrt(i)
    for _ in range(40):
        s += float(np.linalg.eigvalsh(_SYM)[0])
    h = _GEN
    for _ in range(60):
        h = h @ _GEN
    return s + float(h[0, 0])


def measure(units: int) -> float:
    """Seconds taken by `units` units of reference work."""
    t0 = perf_counter()
    for _ in range(units):
        unit()
    return perf_counter() - t0

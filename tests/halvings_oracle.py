"""The oracle for fluidq's monotone inversion: 80 fixed vectorized halvings.

fluidq.distributions.bisect_increasing stops its halvings once one moves no
entry and searches from a guess where it is given one; every caller must
still return the floats of this loop, bit for bit.
"""

import numpy as np


def halvings(func, y, lo, hi=None):
    """The upper end of [lo, hi] after 80 halvings toward where func reaches y; without hi,
    the upper end doubles from 1 until func reaches every target or passes 1e300."""
    y = np.asarray(y, dtype=float)
    if hi is None:
        hi = 1.0
        while hi <= 1e300 and np.any(func(hi) < y):
            hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = func(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi

"""Oracles shared by the test modules, independent of the package's gauges.

gauge_bisect only asks the membership predicate, so tests can hold
gauge.gauge_and_normal and sets.gauge_value against it without comparing
either with itself.
"""

import math

import numpy as np

from dfc import sets


def gauge_bisect(
    S, x, hi: float = 8.0, steps: int = 200, tol: float = 1e-9, cap: float = 1e6
) -> float:
    """Gauge of x (S must contain the origin) by bisection on scaled
    membership at tolerance tol, for at most ``steps`` halvings.  hi is
    doubled until x / hi is a member; past cap the gauge is taken to be
    +inf."""
    x = np.asarray(x, dtype=float)
    while not sets.contains(S, x / hi, tol):
        hi *= 2.0
        if hi > cap:
            return math.inf
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is down to adjacent floats
        if sets.contains(S, x / mid, tol):
            hi = mid
        else:
            lo = mid
    return hi


def unit_disk_conic():
    """{x in R^2 : ||x|| <= 1} as a single second-order-cone block."""
    return sets.conic(
        A=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        B=None,
        c=[1.0, 0.0, 0.0],
        cones=[("soc", 3)],
    )

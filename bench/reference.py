"""Host-speed reference that calibrates the benchmark's times.

The sandboxes this benchmark runs in share their CPUs with other tenants:
the time of one fixed pure-Python pass moves by up to 2x within minutes.
So every timed job is bracketed by measurements of three short fixed loops
of stdlib work, none of it from prymlab: small-fraction and float
arithmetic with dict traffic, products of big-integer Fraction
polynomials kept as dicts, and float list traffic as in an RK4 step.
Their sum tracks the host's speed for the exact and the float workloads
alike.  A job's seconds are rescaled by REFERENCE_S over the sum measured
around the job, so a calibrated time is what the job would take on a host
where the loops take REFERENCE_S: a change to prymlab moves it, a busy
neighbour mostly does not.  Raw times are recorded beside it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# about the loops' median total on the 2-vCPU sandbox (Python 3.11) where the
# benchmark was written, so calibrated and raw seconds are of one size there
REFERENCE_S = 0.015
BURST_GAP_S = 1.0  # at most this long between two measurements of the loops


def _mixed_loop():
    acc = Fraction(0)
    poly = [0.5, -1.25, 2.0, 0.75]
    prod = [0.0] * 7
    table = {}
    for i in range(1, 500):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
        for j, a in enumerate(poly):
            for k, b in enumerate(poly):
                prod[j + k] += a * b
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + i
    return acc, prod, table


def _multipoly_loop():
    terms = {(i, j): Fraction(3 ** (i + 20) + j, 2 ** (j + 30) + i)
             for i in range(5) for j in range(5)}
    out = {}
    for e1, c1 in terms.items():
        for e2, c2 in terms.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _float_loop():
    x = [0.1 * i + 1.0 for i in range(20)]
    for _ in range(1000):
        k = [a * (b - c) for a, b, c in zip(x, x[1:] + x[:1], x[-1:] + x[:-1])]
        x = [xi + 1e-4 * ki for xi, ki in zip(x, k)]
        kept = [list(x) for _ in range(3)]
    return x, kept


def _median_seconds(loop) -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_seconds() -> float:
    """Sum over the three loops of the median of five timings."""
    return sum(_median_seconds(loop) for loop in (_mixed_loop, _multipoly_loop, _float_loop))

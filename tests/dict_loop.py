"""The per-step dict loop of numerics.integrate, kept as the float-for-float
oracle for the trajectory code in prymlab.numerics.

Here every monitor builds a dict of named integrals at every step, the
loop folds each entry into its column and its running drift, the
characteristic polynomial runs every b-pass of its minor recurrence (even
for b = 0), and the Mumford/Prym coordinate layout is rebuilt on every
call.  Only the shared tangent kernels (toda.hierarchy_commutator, and
mumford.mumford_tangent for Mumford and Prym runs alike, whose reading on
the Prym slots is the reduced field) and Poly come from the library.
The peak step of each drift is recorded when a new peak is set.
"""

import math

from prymlab.algebra import Poly
from prymlab.mumford import (EVEN_MUMFORD, EVEN_PRYM, ODD_MUMFORD, ODD_PRYM,
                             MumfordTriple, _coord_layout, mumford_tangent, point_values)
from prymlab.numerics import BLOWUP_GUARD, MAX_STEPS, Trajectory
from prymlab.toda import TodaPoint, hierarchy_commutator


def char_coeffs_unskipped(a, b, zero) -> list:
    """K(x)/2 from the minor recurrence, with every b-pass run."""
    n = len(a)
    one = zero + 1

    def minor(lo, hi):
        prev2, prev = [], [one]
        for k in range(lo, hi):
            cur = [zero] + prev
            bk = b[k]
            for j, c in enumerate(prev):
                cur[j] -= bk * c
            if prev2:
                ak = a[k - 1]
                for j, c in enumerate(prev2):
                    cur[j] -= ak * c
            prev2, prev = prev, cur
        return prev

    out = minor(0, n)
    if n > 1:
        an = a[n - 1]
        for j, c in enumerate(minor(1, n - 1)):
            out[j] -= an * c
    return out


def _poly_degree(flavor, g):
    return {ODD_MUMFORD: (g, g + 1), EVEN_MUMFORD: (g, g + 2),
            ODD_PRYM: (2 * g, 2 * g + 2), EVEN_PRYM: (2 * g + 1, 2 * g + 3)}[flavor]


def _coefficient_lists(flavor, g, values, zero, one):
    layout = _coord_layout(flavor, g)
    deg_u, deg_w = _poly_degree(flavor, g)
    u, v, w = [zero] * deg_u + [one], [zero] * deg_u, [zero] * deg_w + [one]
    start = 0
    for target, slots in zip((u, v, w), layout):
        target[slots.start:slots.stop:slots.step] = values[start:start + len(slots)]
        start += len(slots)
    return u, v, w


def _read_slots(flavor, g, du, dv, dw):
    out = []
    for p, slots in zip((du, dv, dw), _coord_layout(flavor, g)):
        picked = p[slots.start:slots.stop:slots.step]
        out += picked + [0] * (len(slots) - len(picked))
    return out


def _rk4_step(f, x, h):
    k1 = f(x)
    k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _km_rhs(a):
    n = len(a)
    return [a[i] * (a[(i - 1) % n] - a[(i + 1) % n]) for i in range(n)]


def _lattice_invariants(state, n, km=False):
    a = state[:n]
    b = [0.0] * n if km else state[n:]
    half_k = char_coeffs_unskipped(a, b, 0.0)
    out = {}
    for j in range(n):
        out[f"K{j}"] = 2.0 * half_k[j]
    prod = 1.0
    for x in a:
        prod *= x
    out["prod_a"] = prod
    if km and n % 2 == 0:
        p_odd = p_even = 1.0
        for x in a[0::2]:
            p_odd *= x
        for x in a[1::2]:
            p_even *= x
        out["P_odd"] = p_odd
        out["P_even"] = p_even
    return out


def _momentum_invariants(state, flavor, g):
    u, v, w = map(Poly, _coefficient_lists(flavor, g, state, 0.0, 1.0))
    return {f"H{j}": float(c) for j, c in enumerate((u * w + v * v).coeffs)}


def integrate(system, point, selector, t_end, step) -> Trajectory:
    """numerics.integrate for valid runs, one dict per step."""
    assert 0 < step < math.inf and 0 < t_end < math.inf and t_end / step <= MAX_STEPS
    if system == "km":
        n = point.n
        state = [float(x) for x in point.a]
        rhs = _km_rhs
        invariants = lambda s: _lattice_invariants(s, n, km=True)
    elif system == "toda":
        assert isinstance(point, TodaPoint)
        n, index = point.n, int(selector)
        state = [float(x) for x in point.a] + [float(x) for x in point.b]

        def rhs(s):
            C = hierarchy_commutator(s[:n], s[n:], index)
            return C[1] + C[0]
        invariants = lambda s: _lattice_invariants(s, n)
    else:
        assert isinstance(point, MumfordTriple)
        flavor = point.flavor
        g = point.index
        y = float(selector)
        state = [float(x) for x in point_values(point)]

        def rhs(s):
            u, v, w = _coefficient_lists(flavor, g, s, 0.0, 1.0)
            return _read_slots(flavor, g, *mumford_tangent(u, v, w, y))
        invariants = lambda s: _momentum_invariants(s, flavor, g)

    traj = Trajectory(system=system)
    base = invariants(state)
    names = list(base)
    traj.conserved = {k: [base[k]] for k in names}
    traj.drift = {k: 0.0 for k in names}
    traj.peak_step = {k: 0 for k in names}
    traj.times.append(0.0)
    traj.states.append(list(state))
    nsteps = traj.steps_requested = int(round(t_end / step))
    for i in range(1, nsteps + 1):
        state = _rk4_step(rhs, state, step)
        if any(not abs(x) <= BLOWUP_GUARD for x in state):
            traj.truncated = True
            reason = "became NaN" if any(map(math.isnan, state)) else "exceeded overflow guard"
            traj.note = f"state {reason} at step {i}"
            break
        traj.times.append(i * step)
        traj.states.append(list(state))
        vals = invariants(state)
        for k in names:
            traj.conserved[k].append(vals[k])
            d = abs(vals[k] - base[k])
            if d > traj.drift[k]:
                traj.drift[k] = d
                traj.peak_step[k] = i
    return traj


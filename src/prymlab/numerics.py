"""Floating-point integration of the implemented flows, with first
integrals monitored along every trajectory.

All exact data is converted to floats once, at trajectory start; the
conservation baselines are the float values at t = 0, so reported drift
isolates integrator error from representation error.  The integrator is
the classical fixed-step fourth-order one-step method; runs are short and
deterministic reproducibility of the drift numbers matters more than
adaptivity.  Trajectories that leave the overflow guard or turn NaN are
truncated and flagged (expected behaviour near the Painleve poles of the
lattice fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import Poly
from .errors import InvariantError
from .mumford import (MUMFORD_FLAVORS, MumfordTriple, _coefficient_lists,
                      _read_slots, mumford_tangent, point_values)
from .prym import prym_tangent
from .toda import KMPoint, TodaPoint, char_coeffs, hierarchy_commutator

BLOWUP_GUARD = 1e12
MAX_STEPS = 100_000  # every state is kept, so this also bounds the memory of a run


@dataclass
class Trajectory:
    system: str
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    conserved: dict = field(default_factory=dict)
    drift: dict = field(default_factory=dict)
    truncated: bool = False
    note: str = ""
    steps_requested: int = 0

    def endpoint(self) -> list:
        return self.states[-1]

    def csv(self) -> str:
        names = list(self.conserved)
        width = len(self.states[0]) if self.states else 0
        header = ["t"] + [f"x{i}" for i in range(width)] + names
        lines = [",".join(header)]
        for idx, t in enumerate(self.times):
            row = [repr(t)] + [repr(x) for x in self.states[idx]]
            row += [repr(self.conserved[n][idx]) for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def drift_summary(self) -> dict:
        return {"system": self.system, "steps": len(self.times) - 1,
                "steps_requested": self.steps_requested,
                "truncated": self.truncated, "note": self.note,
                "drift": {k: v for k, v in self.drift.items()}}


def _rk4_step(f, x, h):
    k1 = f(x)
    k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def km_rhs(a):
    n = len(a)
    return [a[i] * (a[(i - 1) % n] - a[(i + 1) % n]) for i in range(n)]


def _toda_rhs(state, n, index):
    """X_index at the float state a + b (see toda.hierarchy_commutator)."""
    C = hierarchy_commutator(state[:n], state[n:], index)
    return C[1] + C[0]


def _mumford_rhs(state, flavor, g, y):
    """X_y at the float state (see mumford.mumford_tangent)."""
    u, v, w = _coefficient_lists(flavor, g, state, 0.0, 1.0)
    return _read_slots(flavor, g, *mumford_tangent(u, v, w, y))


def _prym_rhs(state, flavor, n, y):
    """Reduced X_y at the float state (see prym.prym_tangent); the
    remainders, zero up to rounding, are not checked."""
    u, v, w = _coefficient_lists(flavor, n, state, 0.0, 1.0)
    return _read_slots(flavor, n, *prym_tangent(u, v, w, y)[0])


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def _lattice_invariants(state, n, km=False):
    a = state[:n]
    b = [0.0] * n if km else state[n:]
    half_k = char_coeffs(a, b, 0.0)
    out = {}
    for j in range(n):
        out[f"K{j}"] = 2.0 * half_k[j]
    prod = 1.0
    for x in a:
        prod *= x
    out["prod_a"] = prod
    if km and n == 5:
        out["K"] = sum(a)
        out["L"] = (a[0] * a[2] + a[1] * a[3] + a[2] * a[4]
                    + a[3] * a[0] + a[4] * a[1])
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


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def integrate(system: str, point, selector, t_end: float, step: float) -> Trajectory:
    """Integrate a named flow with the classical fourth-order method.

    system: "km" (basic Volterra field; selector ignored), "toda"
    (selector = hierarchy index), "mumford" or "prym" (selector = the Lax
    parameter y).  Conserved quantities are sampled at every step and the
    drift against t = 0 is reported per integral.  t_end and step must be
    positive and finite ("integration"), t_end / step at most MAX_STEPS
    ("step-count"), and a lattice needs n >= 1 ("size").
    """
    if not (0 < step < math.inf and 0 < t_end < math.inf):
        raise InvariantError("integration", "step and t_end must be positive and finite")
    if t_end / step > MAX_STEPS:
        raise InvariantError("step-count", f"t_end / step exceeds {MAX_STEPS} steps")
    if system == "km":
        if not isinstance(point, KMPoint):
            point = KMPoint(tuple(point))
        n = point.n
        state = [float(x) for x in point.a]
        rhs = km_rhs
        invariants = lambda s: _lattice_invariants(s, n, km=True)
    elif system == "toda":
        if not isinstance(point, TodaPoint):
            raise InvariantError("point-type", "toda integration needs a TodaPoint")
        n = point.n
        index = 0 if selector is None else int(selector)
        state = [float(x) for x in point.a] + [float(x) for x in point.b]
        rhs = lambda s: _toda_rhs(s, n, index)
        invariants = lambda s: _lattice_invariants(s, n)
    elif system in ("mumford", "prym"):
        if not isinstance(point, MumfordTriple):
            raise InvariantError("point-type", "flow needs a MumfordTriple")
        flavor = point.flavor
        g = point.g if flavor in MUMFORD_FLAVORS else point.prym_index
        y = float(selector)
        state = [float(x) for x in point_values(point)]
        if system == "prym":
            if flavor not in ("odd-prym", "even-prym"):
                raise InvariantError("flavor", "prym integration needs a prym point")
            rhs = lambda s: _prym_rhs(s, flavor, g, y)
        else:
            if flavor not in MUMFORD_FLAVORS:
                raise InvariantError(
                    "flavor", "the ambient flow is not tangent to the parity"
                    " locus; use system='prym' for prym points")
            rhs = lambda s: _mumford_rhs(s, flavor, g, y)
        invariants = lambda s: _momentum_invariants(s, flavor, g)
    else:
        raise InvariantError("system", f"unknown system {system!r}")
    if system in ("km", "toda") and n < 1:
        raise InvariantError("size", "a lattice needs n >= 1")
    if system == "toda" and not 1 <= index <= n - 1:
        raise InvariantError("hierarchy-index", f"need 1 <= index <= {n - 1}")

    traj = Trajectory(system=system)
    base = invariants(state)
    names = list(base)
    traj.conserved = {k: [base[k]] for k in names}
    traj.drift = {k: 0.0 for k in names}
    traj.times.append(0.0)
    traj.states.append(list(state))
    nsteps = traj.steps_requested = int(round(t_end / step))
    for i in range(1, nsteps + 1):
        state = _rk4_step(rhs, state, step)
        if any(not abs(x) <= BLOWUP_GUARD for x in state):  # also true for NaN
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
    return traj

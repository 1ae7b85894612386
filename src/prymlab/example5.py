"""The five-particle Volterra lattice worked out end to end.

For n = 5 the spectral curve of the lattice reads

    h + 1/h = x^5 - K x^3 + L x,
    K = a1+a2+a3+a4+a5,   L = a1a3 + a2a4 + a3a5 + a4a1 + a5a2,

so toda.char_poly is 2x^5 - 2K x^3 + 2L x, and the common level set
{K = k, L = l} compactifies to the Jacobian of the genus-two quotient
curve  y^2 = (u^3 - k u^2 + l u)^2 - 4u  minus five translates of its
theta divisor.  The nine functions

    z0 = 1
    z1 = a1 a2
    z2 = a1 a2 a4
    z3 = a1 a2 (a1 + a5)
    z4 = a1 a2 a4 (a3 + a4 + a5)
    z5 = a1 a2 a4 (a1 - a2)
    z6 = a1 a2 a4 ((a3 + a4) a1 - (a4 + a5) a2)
    z7 = a1^2 a2^2 a4 a5
    z8 = a1 a2^2 a4 ((a4 + a5)^2 + a3 a4)

embed the level set into P^8.  Substituting the five principal Laurent
balances and letting t -> 0 yields five parametrized curves G_1..G_5
(functions of two parameters (beta, delta) bound by the fiber constraint
(k - delta) delta + beta + 1/(beta delta) = l), whose points at the three
boundary charts

    (a) delta = 1/u, beta = 1/u^2 (1 + O(u))
    (b) delta = 1/u, beta = u^3 (1 + O(u))
    (c) beta = 1/u,  delta = -u^2 (1 + O(u))

close each curve up; the chart limits land on five special points
p_1..p_5, with G_i passing through p_{i-1}, p_i, p_{i+1}: a 5_3
configuration.  Everything here is computed in exact rational arithmetic,
the charts as exact truncated series solutions of the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentSeries, Poly, format_poly, format_rational
from .errors import InvariantError
from .painleve import Balance, _check_order, free_slots, laurent_balance, make_balance
from .prym import quotient_curves
from .toda import KMPoint

# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectivePoint9:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))
        if len(self.coords) != 9:
            raise InvariantError("projective-size", "nine homogeneous coordinates required")
        if all(c == 0 for c in self.coords):
            raise InvariantError("projective-zero", "all coordinates vanish")

    def proportional(self, other: "ProjectivePoint9") -> bool:
        """Equality in P^8: all 2x2 minors of the coordinate pair vanish.

        The 8 minors a_p b_j - a_j b_p against the first nonzero coordinate
        a_p decide it: they vanish iff b = (b_p / a_p) a, which makes every
        minor vanish, and b_p = 0 would force b = 0, which no point is."""
        a, b = self.coords, other.coords
        p = next(k for k, c in enumerate(a) if c)
        return all(a[p] * b[j] == a[j] * b[p] for j in range(9) if j != p)

    def __eq__(self, other) -> bool:
        if isinstance(other, ProjectivePoint9):
            return self.proportional(other)
        return NotImplemented

    def __hash__(self):
        # scale-normalized hash: divide by the first nonzero coordinate
        pivot = next(c for c in self.coords if c != 0)
        return hash(tuple(c / pivot for c in self.coords))

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coords]


# ---------------------------------------------------------------------------
# the P^8 embedding
# ---------------------------------------------------------------------------

def z_functions(a, one):
    """The nine embedding functions, generic over the coefficient ring."""
    a1, a2, a3, a4, a5 = a
    z0 = one
    z1 = a1 * a2
    z2 = z1 * a4
    z3 = z1 * (a1 + a5)
    z4 = z2 * (a3 + a4 + a5)
    z5 = z2 * (a1 - a2)
    z6 = z2 * ((a3 + a4) * a1 - (a4 + a5) * a2)
    z7 = z1 * z2 * a5
    z8 = z1 * a2 * a4 * ((a4 + a5) * (a4 + a5) + a3 * a4)
    return [z0, z1, z2, z3, z4, z5, z6, z7, z8]


def z_embedding(point: KMPoint) -> ProjectivePoint9:
    if point.n != 5:
        raise InvariantError("size", "this example needs n = 5")
    return ProjectivePoint9(tuple(z_functions(point.a, Fraction(1))))


# ---------------------------------------------------------------------------
# divisor curves, special points, boundary charts
# ---------------------------------------------------------------------------

def divisor_points(k: Fraction) -> list[ProjectivePoint9]:
    k = Fraction(k)
    rows = [
        (0, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 0, 1, 0, -k),
        (1, 0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1, -1),
    ]
    return [ProjectivePoint9(r) for r in rows]


def curve_coords(i: int, beta, delta, k, one):
    """Homogeneous coordinates of the i-th divisor curve (i = 1..5) at
    parameters (beta, delta); generic over the coefficient ring."""
    b, d = beta, delta
    zero = one - one
    if i == 1:
        return [zero, zero, zero, one, zero, 2 * d, 2 * d * d, b * d, -(d * d * d)]
    if i == 2:
        bd = b * d
        return [b * d * d, -(b * b * d * d), zero, -(b * b * d * d * d),
                bd, bd, b * d * d, zero, one - b * d * d * d]
    if i == 3:
        bd = b * d
        return [one, zero, bd, zero, bd * (k - d), b * d * d,
                -(bd * (b + d * d - k * d)), zero, b * bd * (k - d)]
    if i == 4:
        bd = b * d
        dk = d - k
        return [b * b * d, zero, bd, -bd, bd * (k - d), -(b * d * d),
                one + b * d * d * dk, -d, -(b * d * d) * (b - dk * dk)]
    if i == 5:
        bd = b * d
        return [b * d * d, -d, zero, d * (d - k), bd, -bd, -(b * d * d), -one, one]
    raise InvariantError("curve-index", "curve index must be 1..5")


def constraint_residual(beta, delta, k, l):
    """(k - delta) delta + beta + 1/(beta delta) - l, generic over the ring."""
    inv = (beta * delta)
    inv = inv.inverse() if isinstance(inv, LaurentSeries) else 1 / inv
    return (k - delta) * delta + beta + inv - l


def chart_series(chart: str, k: Fraction, l: Fraction,
                 order: int = 6) -> tuple[LaurentSeries, LaurentSeries]:
    """Exact series branch (beta(u), delta(u)) of the fiber constraint at
    one of the three boundary points; the constraint residual is asserted
    to vanish through the truncation window."""
    k, l = Fraction(k), Fraction(l)
    if chart in ("a", "b"):
        delta = LaurentSeries.monomial(-1, Fraction(1), hi=order)
        s = LaurentSeries(-2, [Fraction(1), -k, l], hi=order)
        if chart == "a":
            beta = s
            for _ in range(max(2, order)):
                beta = (s - LaurentSeries.monomial(1) * beta.inverse()).truncate(order)
        else:
            beta = LaurentSeries.monomial(3, Fraction(1), hi=order)
            for _ in range(max(2, order)):
                beta = (LaurentSeries.monomial(1) * (s - beta).inverse()).truncate(order)
    elif chart == "c":
        beta = LaurentSeries.monomial(-1, Fraction(1), hi=order)
        delta = LaurentSeries.monomial(2, Fraction(-1), hi=order)
        for _ in range(max(3, order)):
            denom = l - LaurentSeries.monomial(-1) - (k - delta) * delta
            delta = (LaurentSeries.monomial(1) * denom.inverse()).truncate(order)
    else:
        raise InvariantError("chart", "chart must be 'a', 'b' or 'c'")
    residual = constraint_residual(beta, delta, k, l)
    if not residual.is_zero_through(residual.known_through()):
        raise InvariantError("chart", f"chart {chart} series fails the constraint")
    return beta, delta


def series_limit(zs: list[LaurentSeries]) -> ProjectivePoint9:
    """Projective limit as the series parameter goes to 0: the coefficient
    vector at the lowest exponent carrying a nonzero entry."""
    leads = [z.leading_exponent() for z in zs if not z.known_zero()]
    if not leads:
        raise InvariantError("degenerate-limit", "all coordinates vanish;"
                             " truncation order too small")
    e = min(leads)
    coords = []
    for z in zs:
        if z.known_through() is not None and z.known_through() < e:
            raise InvariantError("degenerate-limit",
                                 f"coordinate window ends before t^{e}")
        coords.append(z.coefficient(e))
    return ProjectivePoint9(tuple(coords))


def incidence_data(k: Fraction, l: Fraction, order: int = 6):
    """For each curve, which of the five special points its three boundary
    charts reach; returns (points, matrix) with matrix[i][j] = True when
    p_{j+1} lies on G_{i+1}.  Each chart's series is solved once and read
    by all five curves."""
    points = divisor_points(k)
    series = {chart: chart_series(chart, k, l, order) for chart in ("a", "b", "c")}
    one = LaurentSeries.constant(Fraction(1))
    matrix = [[False] * 5 for _ in range(5)]
    for i in range(1, 6):
        for chart, (beta, delta) in series.items():
            limit = series_limit(curve_coords(i, beta, delta, Fraction(k), one))
            hits = [j for j, p in enumerate(points) if p == limit]
            if len(hits) != 1:
                raise InvariantError("incidence",
                                     f"chart {chart} limit of curve {i} is not one of the p_j")
            matrix[i - 1][hits[0]] = True
    return points, matrix


# ---------------------------------------------------------------------------
# principal balances and their divisor limits
# ---------------------------------------------------------------------------

# The highest order of a free slot of the base principal balance (a3.2, a5.2).
PARAM_ORDER = 2


def principal_balance_params(k: Fraction, beta: Fraction,
                             delta: Fraction) -> tuple[Balance, dict, Fraction]:
    """Free-parameter values of the base principal balance (poles at a1, a2)
    pinned to a fiber point.

    Given (k, beta, delta) with beta delta != 0, the remaining free
    coefficients follow from substituting the balance into the integrals
    and the product constraint:
        alpha = (k - delta)/2,  gamma = -1/(beta delta),
        l = (k - delta) delta + beta + 1/(beta delta).
    Returns (balance, slot values, l)."""
    k, beta, delta = Fraction(k), Fraction(beta), Fraction(delta)
    if beta * delta == 0:
        raise InvariantError("constraint", "beta delta must be nonzero")
    balance = make_balance(5, (1, 2))
    slots = free_slots(5, balance, PARAM_ORDER)
    if set(slots) != {"a2.1", "a4.1", "a3.2", "a5.2"}:
        raise InvariantError("free-parameters", f"unexpected slot layout {slots}")
    alpha = (k - delta) / 2
    gamma = Fraction(-1) / (beta * delta)
    l = (k - delta) * delta + beta + 1 / (beta * delta)
    params = {"a2.1": alpha, "a4.1": delta, "a3.2": gamma, "a5.2": beta}
    return balance, params, l


def balance_to_divisor(series: list[LaurentSeries]) -> ProjectivePoint9:
    """t -> 0 limit of the embedded Laurent solution."""
    if len(series) != 5:
        raise InvariantError("size", "five coordinate series required")
    one = LaurentSeries.constant(Fraction(1))
    return series_limit(z_functions(series, one))


def rotate_solution(series: list[LaurentSeries], shift: int) -> list[LaurentSeries]:
    """The cyclic symmetry on solutions: if a(t) solves the lattice, so does
    b_i(t) = a_{i-s}(t); the poles move from cells {1,2} to {1+s, 2+s}."""
    n = len(series)
    return [series[(i - shift) % n] for i in range(n)]


def _check_param_order(order: int) -> None:
    """The order refusals of the balance limits, before any series is built:
    below PARAM_ORDER, then laurent_balance's own check of the order."""
    if order < PARAM_ORDER:
        raise InvariantError("order", f"the balance limit needs order >= {PARAM_ORDER} to"
                             f" place its free parameters, got {order}")
    _check_order(order)


def balance_limit(k: Fraction, beta: Fraction, delta: Fraction, shift: int = 0,
                  order: int = 8) -> tuple[ProjectivePoint9, Fraction]:
    """Limit point of the shift-th principal balance; also returns l.  An
    order below PARAM_ORDER, which would leave free parameters unplaced, or
    past painleve.MAX_ORDER raises InvariantError("order") before any series
    is built."""
    _check_param_order(order)
    balance, params, l = principal_balance_params(k, beta, delta)
    series = laurent_balance(5, balance, params, order)
    return balance_to_divisor(rotate_solution(series, shift % 5)), l


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def example5_report(k: Fraction, l: Fraction, beta: Fraction = Fraction(1),
                    delta: Fraction = Fraction(2), order: int = 8) -> dict:
    """Machine-readable summary: curve equations, special points, incidence
    matrix, and balance-limit verdicts.

    The balance verdicts need a rational point of a fiber, which generic
    (k, l) do not supply; they are run on the fiber through the supplied
    (beta, delta) instead (its l value is reported alongside).  The report
    echoes k, l, beta and delta, so they are formatted first: one past the
    digit limit raises InvariantError("digit-limit") before any series is
    built, and so does an order balance_limit refuses."""
    k, l, beta, delta = map(Fraction, (k, l, beta, delta))
    k_text, l_text, beta_text, delta_text = map(format_rational, (k, l, beta, delta))
    _check_param_order(order)
    p = Poly([Fraction(0), l, Fraction(0), -k, Fraction(0), Fraction(1)])  # x^5 - k x^3 + l x
    curves = quotient_curves(p * p - Poly([Fraction(4)]))
    points, matrix = incidence_data(k, l)
    verdicts = []
    for s in range(5):
        limit, l_used = balance_limit(k, beta, delta, s, order)
        expected = ProjectivePoint9(tuple(curve_coords(1 + s, beta, delta, k, Fraction(1))))
        verdicts.append({"shift": s, "curve": 1 + s,
                         "l_used": format_rational(l_used),
                         "on_curve": bool(limit == expected)})
    return {
        "k": k_text,
        "l": l_text,
        "curve_sigma": format_poly(curves.sigma),
        "curve_tau": format_poly(curves.tau),
        "points": [p.to_json() for p in points],
        "incidence": [[int(x) for x in row] for row in matrix],
        "balance_checks": {"beta": beta_text, "delta": delta_text, "verdicts": verdicts},
    }

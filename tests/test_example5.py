"""The five-particle worked example: spectral data, curves, embedding,
divisor points, incidence and balance limits."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymlab.algebra import LaurentSeries, Poly, parse_poly
from prymlab.errors import InvariantError
from prymlab import example5
from prymlab.example5 import (ProjectivePoint9, balance_limit, chart_series,
                              constraint_residual, curve_coords, divisor_points,
                              example5_report, incidence_data,
                              principal_balance_params, rotate_solution,
                              series_limit, z_embedding, z_functions)
from prymlab.painleve import MAX_ORDER, laurent_balance
from prymlab.prym import genus_of_hyperelliptic, quotient_curves
from prymlab.sampling import km_point
from prymlab.toda import KMPoint, char_poly


# ---------------------------------------------------------------------------
# spectral data and quotient curves
# ---------------------------------------------------------------------------

def test_spectral_data_examples():
    # char_poly = 2 (x^5 - K x^3 + L x)
    assert char_poly(KMPoint((1, 1, 1, 1, 1)).embed()) == Poly([0, 10, 0, -10, 0, 2])
    point = KMPoint((F(2), F(1, 2), F(1), F(1), F(1)))
    assert char_poly(point.embed()) == Poly([0, 12, 0, -11, 0, 2])  # K = 11/2, L = 6


def test_spectral_data_matches_char_poly(rng):
    for _ in range(20):
        a = km_point(rng, 5).a
        k = sum(a)
        l = a[0] * a[2] + a[1] * a[3] + a[2] * a[4] + a[3] * a[0] + a[4] * a[1]
        assert char_poly(KMPoint(a).embed()) == Poly([0, 2 * l, 0, -2 * k, 0, 2])


def test_quotient_curve_equation():
    k, l = F(3), F(7)
    p = Poly([0, l, 0, -k, 0, 1])  # h + 1/h = x^5 - k x^3 + l x
    curves = quotient_curves(p * p - Poly([4]))
    cubic = Poly([0, l, -k, 1])
    assert curves.tau == cubic * cubic - Poly([0, F(4)])
    assert curves.sigma.degree == 5 and curves.tau.degree == 6
    assert genus_of_hyperelliptic(curves.sigma.degree) == 2
    assert genus_of_hyperelliptic(curves.tau.degree) == 2


def test_quotient_curve_trivial_and_errors():
    assert quotient_curves(parse_poly("0,0,1")).sigma == parse_poly("0,1")
    with pytest.raises(InvariantError):
        quotient_curves(parse_poly("0,1"))


# ---------------------------------------------------------------------------
# the embedding
# ---------------------------------------------------------------------------

def test_z_embedding_at_ones():
    assert z_embedding(KMPoint((1, 1, 1, 1, 1))) \
        == ProjectivePoint9((1, 1, 1, 2, 3, 0, 0, 1, 5))


def test_z5_vanishes_when_a1_equals_a2():
    point = KMPoint((F(2), F(2), F(1, 2), F(1, 2), F(1)))
    assert z_embedding(point).coords[5] == 0


def test_z_normalization_identity(rng):
    # z1 z2 a3 a5 a4 = z2, using prod a = 1
    for _ in range(10):
        point = km_point(rng, 5)
        z = z_functions(point.a, F(1))
        a = point.a
        assert z[1] * z[2] * a[2] * a[4] * a[3] == z[2]


def test_projective_point_semantics():
    p = ProjectivePoint9((0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert p == ProjectivePoint9((0, 0, 0, F(7, 3), 0, 0, 0, 0, 0))
    assert not p == ProjectivePoint9((0, 0, 0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(InvariantError):
        ProjectivePoint9((0,) * 9)


def test_projective_point_hash_is_scale_free(rng):
    for _ in range(10):
        coords = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(9)]
        coords[rng.randrange(9)] = F(rng.randint(1, 5))
        scale = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        p, q = ProjectivePoint9(coords), ProjectivePoint9([scale * c for c in coords])
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1


def _all_minors_vanish(a, b) -> bool:
    """Proportionality in P^8 by its definition: all 36 2x2 minors vanish."""
    return all(a[i] * b[j] == a[j] * b[i] for i in range(9) for j in range(i + 1, 9))


_coordinate = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9,
                                                     max_denominator=6))


@st.composite
def _point_pairs(draw):
    """A point a and a second point b: a scaled copy of a, that copy with
    one coordinate changed, a point with a's zero coordinates, or a point
    that is zero at a's pivot (its first nonzero coordinate)."""
    a = draw(st.lists(_coordinate, min_size=9, max_size=9).filter(any))
    kind = draw(st.sampled_from(["scaled", "changed", "shared-zeros", "zero-pivot"]))
    scale = draw(st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
    if kind == "shared-zeros":
        b = [draw(_coordinate) if c else F(0) for c in a]
    else:
        b = [scale * c for c in a]
    if kind == "changed":
        b[draw(st.integers(0, 8))] = draw(_coordinate)
    if kind == "zero-pivot":
        pivot = next(k for k, c in enumerate(a) if c)
        b[pivot] = F(0)
        b[draw(st.integers(0, 8).filter(lambda j: j != pivot))] = draw(_coordinate.filter(bool))
    return a, b


@given(_point_pairs())
@example(([0, 0, 1, 0, 0, 0, 0, 0, 2], [0, 0, 3, 0, 0, 0, 0, 0, 6]))
@example(([0, 0, 1, 0, 0, 0, 0, 0, 2], [0, 0, 0, 0, 0, 0, 0, 0, 6]))  # zero at the pivot
@example(([1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0]))
@settings(max_examples=300, deadline=None)
def test_proportional_is_the_vanishing_of_all_36_minors(pair):
    """The 8 minors against the pivot decide proportionality as all 36
    minors do, with either point first."""
    a, b = pair
    if any(b):
        assert ProjectivePoint9(a).proportional(ProjectivePoint9(b)) == _all_minors_vanish(a, b)
        assert ProjectivePoint9(b).proportional(ProjectivePoint9(a)) == _all_minors_vanish(a, b)


# ---------------------------------------------------------------------------
# divisor data
# ---------------------------------------------------------------------------

def test_divisor_points_display():
    k = F(3)
    points = divisor_points(k)
    assert points[0] == ProjectivePoint9((0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert points[1] == ProjectivePoint9((0, 0, 0, 0, 0, 0, 0, 0, 1))
    assert points[2] == ProjectivePoint9((1, 0, 0, 0, 0, 0, 1, 0, -k))
    assert points[3] == ProjectivePoint9((1, 0, 0, 0, 0, 0, -1, 0, 0))
    assert points[4] == ProjectivePoint9((0, 0, 0, 0, 0, 0, 0, 1, -1))
    for i in range(5):
        for j in range(i + 1, 5):
            assert not points[i] == points[j]


def test_curve_point_constraint():
    k = F(3)
    assert constraint_residual(F(1), F(1), k, k + 1) == 0
    point = ProjectivePoint9(curve_coords(1, F(1), F(1), k, F(1)))
    assert point == ProjectivePoint9((0, 0, 0, 1, 0, 2, 2, 1, -1))
    assert constraint_residual(F(1), F(1), k, k + 2) != 0


def test_chart_series_solve_the_constraint():
    k, l = F(3), F(7)
    for chart in ("a", "b", "c"):
        beta, delta = chart_series(chart, k, l, order=6)
        residual = constraint_residual(beta, delta, k, l)
        assert residual.is_zero_through(residual.known_through())
    beta_a, _ = chart_series("a", k, l)
    assert beta_a.leading_exponent() == -2
    beta_b, _ = chart_series("b", k, l)
    assert beta_b.leading_exponent() == 3
    _, delta_c = chart_series("c", k, l)
    assert delta_c.leading_exponent() == 2 and delta_c.coefficient(2) == -1


def test_incidence_is_5_3(rng):
    for k, l in ((F(3), F(7)), (F(-2), F(5, 3))):
        points, matrix = incidence_data(k, l)
        for i in range(5):
            assert {j for j in range(5) if matrix[i][j]} \
                == {(i - 1) % 5, i % 5, (i + 1) % 5}
        for j in range(5):
            assert sum(matrix[i][j] for i in range(5)) == 3


def test_chart_limits_examples():
    k, l = F(3), F(7)
    points = divisor_points(k)
    one = LaurentSeries.constant(F(1))

    def chart_limit(i, chart):
        beta, delta = chart_series(chart, k, l)
        return series_limit(curve_coords(i, beta, delta, k, one))

    assert chart_limit(1, "a") == points[4]
    assert chart_limit(1, "b") == points[1]
    assert chart_limit(1, "c") == points[0]
    assert chart_limit(3, "c") == points[2]


def test_incidence_solves_each_chart_once(monkeypatch):
    calls = []

    def counting(chart, k, l, order=6):
        calls.append(chart)
        return chart_series(chart, k, l, order)

    monkeypatch.setattr(example5, "chart_series", counting)
    incidence_data(F(3), F(7))
    assert sorted(calls) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# balance limits
# ---------------------------------------------------------------------------

def test_balance_limits_land_on_curves():
    k, beta, delta = F(3), F(2), F(1, 2)
    for shift in range(5):
        limit, _ = balance_limit(k, beta, delta, shift)
        expected = ProjectivePoint9(tuple(
            curve_coords(1 + shift, beta, delta, k, F(1))))
        assert limit == expected


@pytest.mark.parametrize("order", [-1, 0, 1])
def test_balance_limit_refuses_an_order_below_its_free_slots(monkeypatch, order):
    # the free parameters sit at orders 1 and 2; a shorter series would
    # leave them unused, so the order is refused before any series is built
    built = []
    init = LaurentSeries.__init__
    monkeypatch.setattr(LaurentSeries, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    with pytest.raises(InvariantError) as err:
        balance_limit(F(3), F(1), F(2), order=order)
    assert err.value.invariant == "order" and not built
    assert str(err.value) == ("the balance limit needs order >= 2 to place its free"
                              f" parameters, got {order}")


@pytest.mark.parametrize("order", [0, 1, MAX_ORDER + 1])
def test_report_refuses_a_short_order_before_solving_the_charts(monkeypatch, order):
    # the order refusals come before the chart series, not after them
    def refused(*args):
        pytest.fail("incidence_data ran for an order the balance limits refuse")

    monkeypatch.setattr(example5, "incidence_data", refused)
    with pytest.raises(InvariantError) as err:
        example5_report(F(3), F(7), order=order)
    assert err.value.invariant == "order"
    assert str(err.value) == (f"the Laurent order must lie in 0..{MAX_ORDER}, got {order}"
                              if order > MAX_ORDER else "the balance limit needs order >= 2 to"
                              f" place its free parameters, got {order}")


def test_balance_params_constraint():
    k, beta, delta = F(3), F(2), F(1, 2)
    balance, params, l = principal_balance_params(k, beta, delta)
    assert balance.A == (1, 2)
    alpha, gamma = params["a2.1"], params["a3.2"]
    assert 2 * alpha + delta == k
    assert 2 * alpha * delta + beta - gamma == l
    assert gamma * beta * delta == -1
    with pytest.raises(InvariantError):
        principal_balance_params(k, F(0), delta)


def test_rotated_solution_still_solves(rng):
    from prymlab.painleve import km_residual
    balance, params, _ = principal_balance_params(F(3), F(2), F(1, 2))
    series = laurent_balance(5, balance, params, 8)
    rotated = rotate_solution(series, 2)
    for r in km_residual(rotated):
        assert r.is_zero_through(r.known_through())


def test_series_limit_degenerate_guards():
    from prymlab.example5 import series_limit
    all_unknown = [LaurentSeries(0, [], hi=-1) for _ in range(9)]
    with pytest.raises(InvariantError, match="all coordinates vanish"):
        series_limit(all_unknown)
    # one window ends before the leading exponent of another coordinate
    short = LaurentSeries(0, [], hi=-5)
    deep = LaurentSeries.monomial(-3, F(1), hi=0)
    with pytest.raises(InvariantError, match="window ends"):
        series_limit([short, deep] + [LaurentSeries.constant(F(1))] * 7)


def test_report_shape():
    report = example5_report(F(3), F(7), order=6)
    assert report["k"] == "3" and report["l"] == "7"
    assert len(report["points"]) == 5
    assert all(v["on_curve"] for v in report["balance_checks"]["verdicts"])
    assert sum(sum(row) for row in report["incidence"]) == 15


def test_spectral_invariants_constant_along_balance():
    k, beta, delta = F(3), F(2), F(1, 2)
    balance, params, l = principal_balance_params(k, beta, delta)
    series = laurent_balance(5, balance, params, 10)
    k_series = sum(series[1:], series[0])
    l_series = (series[0] * series[2] + series[1] * series[3]
                + series[2] * series[4] + series[3] * series[0]
                + series[4] * series[1])
    prod = series[0]
    for s in series[1:]:
        prod = prod * s
    for value, expected in ((k_series, k), (l_series, l), (prod, F(1))):
        for e in range(value.leading_exponent(), value.known_through() + 1):
            assert value.coefficient(e) == (expected if e == 0 else 0)

"""Substrate tests: exact polynomials, divided differences, tridiagonal
minors, the monic-square splitting and truncated Laurent series."""

from fractions import Fraction as F
from math import prod

import pytest
from conftest import typed_series
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymlab.algebra import (LaurentSeries, Poly, TruncationError, at_two_power,
                             divided_difference, first_mismatch, format_poly,
                             format_rational, horner, lowest_power, of_sum, outer, parse_poly,
                             parse_rational, pr_split, pr_split_from,
                             tridiag_minor_det, tridiag_run)
from prymlab.errors import ParseError
from prymlab.prym import _exact_divide_x2_minus_xp2
from prymlab.symbolic import MultiPoly

small_coeffs = st.integers(min_value=-9, max_value=9)
small_polys = st.lists(small_coeffs, min_size=0, max_size=9).map(
    lambda cs: Poly([F(c) for c in cs]))


# ---------------------------------------------------------------------------
# rationals and text format
# ---------------------------------------------------------------------------

def test_rational_round_trip():
    assert parse_rational("-3/4") == F(-3, 4)
    assert format_rational(F(10, 5)) == "2"
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("value", [1, 0.5, None, True, ["1"], {"1": 2}])
def test_parsers_refuse_non_strings(value):
    for parse in (parse_rational, parse_poly):
        with pytest.raises(ParseError):
            parse(value)


def test_poly_text_format():
    p = parse_poly("-4,0,9,0,-6,0,1")
    assert p.degree == 6 and p.coeff(2) == 9
    assert format_poly(p) == "-4,0,9,0,-6,0,1"
    assert parse_poly("").is_zero()


# ---------------------------------------------------------------------------
# core polynomial arithmetic
# ---------------------------------------------------------------------------

def test_difference_of_squares():
    assert parse_poly("1,1") * parse_poly("-1,1") == parse_poly("-1,0,1")


def test_parity_split():
    p, even, odd = parse_poly("0,0,2,1"), parse_poly("0,0,2"), parse_poly("0,0,0,1")
    assert even.is_even() and odd.is_odd()
    assert not p.is_even() and not p.is_odd()
    assert p.reflect() == even - odd


def test_derivative_examples():
    assert parse_poly("-4,0,9,0,-6,0,1").derivative() == parse_poly("0,18,0,-24,0,6")
    assert parse_poly("7").derivative().is_zero() and Poly().derivative().is_zero()


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_divrem_worked_example():
    p = parse_poly("-4,0,9,0,-6,0,1")
    d = parse_poly("0,-3,0,1")
    q, r = p.divrem(d)
    assert q == d
    assert r == Poly([F(-4)])


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_divrem_reexpansion(p, d):
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            p.divrem(d)
        return
    q, r = p.divrem(d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_divrem_by_a_monic_divisor_over_any_ring():
    """A monic divisor divides without inverting a coefficient, so the
    coefficients may be MultiPolys or Polys in x' (the bivariate layout)."""
    x, y = MultiPoly.variables(2)
    p = Poly([x * y, y - x, F(1, 2) * x, y * y, x, MultiPoly.const(2, 3)])
    for d in (Poly([y, x * x, 1]), Poly([x, 0, y, MultiPoly.const(2, 1)])):
        q, r = p.divrem(d)
        assert q * d + r == p and r.degree < d.degree
    p = outer(parse_poly("1,-2,0,3,1"), parse_poly("2,1,1/2")) + X * XP
    # a Poly in x over Polys in x' is monic when its top row is the int 1
    for d in (Poly([Poly([0, 0, -1]), 0, 1]), Poly([Poly([0, -1]), 1]),
              Poly([Poly([-2]), Poly([0, 1]), 0, 1])):
        q, r = p.divrem(d)
        assert q * d + r == p and r.degree < d.degree


@given(small_polys, st.lists(small_coeffs, min_size=1, max_size=3), st.integers(1, 3),
       st.sampled_from([0, F(0)]), st.sampled_from([1, F(1), F(3), F(-1, 2)]))
@settings(max_examples=60, deadline=None)
def test_divrem_skips_exact_zero_divisor_coefficients(p, low, gap, zero, lead):
    d = Poly([F(c) for c in low] + [zero] * gap + [lead])
    q, r = p.divrem(d)
    assert q * d + r == p
    assert r.degree < d.degree


_h = float.fromhex


def _typed(c):
    """A coefficient as (type, value), a float by its bits."""
    if isinstance(c, Poly):
        return Poly, [_typed(x) for x in c.coeffs]
    return type(c), c.hex() if type(c) is float else c


@pytest.mark.parametrize("p, d, q, r", [
    ([5, 0, 3, 1], [-1, 1], [4, 4, 1], [9]),  # monic over int: no inverse
    ([1, 2, 3, 4], [1, 2], [F(3, 4), F(1, 2), F(2)], [F(1, 4)]),
    ([2, 6, 4], [2, 2], [F(1), F(2)], []),
    ([F(1, 2), F(-3), F(2, 3), F(5)], [F(1), F(3, 4)], [F(20, 3), F(-8), F(20, 3)],
     [F(-37, 6)]),
    ([1, -2, 0, 7], [F(1, 3), 0, F(-2, 5)], [0, F(-35, 2)], [1, F(23, 6)]),
    ([F(1, 2), F(3, 7), F(-5, 2)], [3, -6], [F(23, 168), F(5, 12)], [F(5, 56)]),
    ([1.5, -2.0, 0.1, 3.0, -0.7], [0.3, 0.0, 7.0],
     [_h("0x1.30463796ac9e0p-6"), _h("0x1.b6db6db6db6dbp-2"), _h("-0x1.9999999999999p-4")],
     [_h("0x1.7e92def07e641p+0"), _h("-0x1.1075075075075p+1")]),
    ([1, -2, 5, 3], [0.1, 3.0], [_h("-0x1.713579be02468p-1"), _h("0x1.a222222222222p+0"), 1.0],
     [_h("0x1.1275dfafe6838p+0")]),
    ([0.1, -2.5, 1.7], [1, 3], [_h("-0x1.05b05b05b05b0p+0"), _h("0x1.2222222222222p-1")],
     [_h("0x1.1f49f49f49f4ap+0")]),
    ([Poly([1, 2]), Poly([0, F(1, 2)]), Poly([3]), Poly([-1, 0, 1])],
     [Poly([0, 0, -1]), 0, Poly([1])], [Poly([3]), Poly([-1, 0, 1])],
     [Poly([1, 2, 3]), Poly([0, F(1, 2), -1, 0, 1])]),  # a nested Poly([1]) top is monic
])
def test_divrem_quotients_keep_their_values_and_types(p, d, q, r):
    """One inverse of the leading coefficient: exact over int and Fraction
    (an int lead divides into Fractions), bit for bit over float."""
    got_q, got_r = Poly(p).divrem(Poly(d))
    assert [_typed(c) for c in got_q.coeffs] == [_typed(c) for c in q]
    assert [_typed(c) for c in got_r.coeffs] == [_typed(c) for c in r]


def test_divrem_by_a_monic_multipoly_divisor_keeps_its_values():
    x, y = MultiPoly.variables(2)
    half = F(1, 2)
    p = Poly([x * y, y - x, half * x, y * y, x, MultiPoly.const(2, 3)])
    q, r = p.divrem(Poly([y, x * x, 1]))
    x2, x3, x4 = x * x, x * x * x, x * x * x * x
    assert q.coeffs == [-3 * x4 * x2 + x4 * x - x2 * y * y + 6 * x2 * y - x * y + half * x,
                        3 * x4 - x3 + y * y - 3 * y, -3 * x2 + x, MultiPoly.const(2, 3)]
    assert r.coeffs == [3 * x4 * x2 * y - x4 * x * y + x2 * y ** 3 - 6 * x2 * y * y
                        + x * y * y + half * x * y,
                        3 * x4 * x4 - x4 * x3 + x4 * y * y - 9 * x4 * y + 2 * x3 * y
                        - half * x3 - y ** 3 + 3 * y * y - x + y]
    assert all(type(c) is MultiPoly for c in q.coeffs + r.coeffs)


def test_divrem_takes_no_inverse_before_the_first_division():
    """A lead with no inverse (a MultiPoly, a Poly in x') divides nothing of
    lower degree: the quotient is 0 and the remainder the dividend."""
    x, y = MultiPoly.variables(2)
    for p, d in ((Poly([x, y]), Poly([1, 0, x])),
                 (Poly([Poly([1]), Poly([2, 3])]), Poly([0, 0, Poly([0, 1])]))):
        q, r = p.divrem(d)
        assert q.is_zero() and r == p
        with pytest.raises(TypeError):
            Poly([1, 2, 3]).divrem(d)


def _schoolbook(a, b):
    """Reference product: every coefficient pair multiplied as it stands."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    while out and out[-1] == 0:
        out.pop()
    return out


wide_ints = st.integers(min_value=-10**6, max_value=10**6)
big_fractions = st.builds(F, st.integers(min_value=-10**30, max_value=10**30),
                          st.integers(min_value=1, max_value=10**30))
rational_coeff_lists = st.one_of(
    st.lists(st.just(0), max_size=4),  # the zero polynomial
    st.lists(wide_ints, max_size=9),
    st.lists(st.one_of(wide_ints, st.fractions(max_denominator=60)), max_size=9),
    st.lists(big_fractions, max_size=9),
)


@given(rational_coeff_lists, rational_coeff_lists)
@example([1, F(0)], [2])  # a trimmed Fraction zero leaves an int factor
@settings(max_examples=200, deadline=None)
def test_multiply_matches_schoolbook(a, b):
    product = Poly(a) * Poly(b)
    assert product.coeffs == _schoolbook(a, b)
    assert all(type(c) in (int, F) for c in product.coeffs)


def test_multipoly_coefficient_product():
    x, y = MultiPoly.variables(2)
    a = [x, MultiPoly.const(2, F(1, 2)), y * y]
    b = [y - x, x * y]
    product = Poly(a) * Poly(b)
    assert product.coeffs == _schoolbook(a, b)
    assert all(isinstance(c, MultiPoly) for c in product.coeffs)
    # a MultiPoly factor against a rational one stays on the generic path
    mixed = Poly(a) * Poly([F(3), 2])
    assert mixed.coeffs == _schoolbook(a, [F(3), 2])


_x, _y = MultiPoly.variables(2)
_L = LaurentSeries
# factor pairs, and the coefficient types of a * b and of b * a: int x int
# stays int, any Fraction among ints and Fractions gives all Fractions, and
# every other ring goes through the generic loop, which leaves the int 0 it
# starts from where only a zero coefficient of a would have contributed
MUL_TYPE_TABLE = {
    "int": ([3, 0, -2], [1, 5], [int] * 4, [int] * 4),
    "fraction": ([F(1, 2), F(0), F(-3, 4)], [F(2, 3), F(1)], [F] * 4, [F] * 4),
    "int-fraction": ([3, 0, -2], [F(1, 2), F(5, 3)], [F] * 4, [F] * 4),
    "bool": ([True, False, True], [True, True], [int] * 4, [int] * 4),
    "bool-fraction": ([True, False, False, True], [F(1, 2)], [F, int, int, F], [F] * 4),
    "float": ([0.0, 1.5, -2.0], [0.5, 3.0], [int] + [float] * 3, [float] * 4),
    "float-fraction": ([1.5, 0.0, 2.0], [F(1, 3), F(2)], [float] * 4, [float] * 4),
    "multipoly": ([_x, MultiPoly.const(2, F(1, 2)), _y * _y], [_y - _x, _x * _y],
                  [MultiPoly] * 4, [MultiPoly] * 4),
    "laurent": ([_L(-1, [1, F(1, 2)]), _L(0, [3], 2)], [_L(1, [F(2, 3), -1]), _L.constant(F(5))],
                [_L] * 3, [_L] * 3),
}


@pytest.mark.parametrize("kind", MUL_TYPE_TABLE)
def test_poly_product_type_table(kind):
    a, b, types_ab, types_ba = MUL_TYPE_TABLE[kind]
    for left, right, types in ((a, b, types_ab), (b, a, types_ba)):
        product = Poly(left) * Poly(right)
        assert product.coeffs == _schoolbook(left, right)
        assert [type(c) for c in product.coeffs] == types


def test_poly_product_keeps_a_truncated_zero_factor():
    """A coefficient known to vanish only through its window is not an
    exact zero: the product keeps its window instead of an exact 0."""
    zero3, one = _L(0, [], 2), _L.constant(1)  # O(t^3) and 1
    for left, right in (([zero3, one], [one]), ([one], [zero3, one]),
                        ([one, zero3, one], [one, _L(1, [2])])):
        product = (Poly(left) * Poly(right)).coeffs
        assert product == _schoolbook(left, right)
        assert all(type(c) is _L for c in product)
    assert (Poly([zero3, one]) * Poly([one])).coeffs[0].hi == 2
    # an exact zero is still skipped
    assert (Poly([_L(0, []), one]) * Poly([one])).coeffs == [0, one]


def test_poly_keeps_a_trailing_truncated_zero():
    """Only exact zeros are trimmed: O(t^3) is not known to vanish."""
    one, zero3 = _L.constant(1), _L(0, [], 2)
    assert Poly([one, zero3]).degree == 1
    difference = Poly([one, one]) - Poly([one, _L(0, [1], 2)])  # 1 - (1 + O(t^3))
    assert not difference.is_zero() and difference != 0
    assert difference.degree == 1 and difference.coeffs[1].hi == 2
    assert Poly([one, _L(0, [])]).degree == 0  # an exact zero is still trimmed


def test_zero_poly_degree_sentinel():
    assert Poly().degree == -1
    assert Poly([F(0), F(0)]).is_zero()


def test_decimate_even():
    assert parse_poly("-4,0,9,0,-6,0,1").decimate_even() == parse_poly("-4,9,-6,1")
    with pytest.raises(ValueError):
        parse_poly("0,1").decimate_even()


def test_deflate():
    q, rem = horner(parse_poly("-6,11,-6,1").coeffs, F(1))  # roots 1, 2, 3
    assert rem == 0 and Poly(q) == parse_poly("6,-5,1")


# ---------------------------------------------------------------------------
# one evaluation at x = 2^k decides a bounded int identity
# ---------------------------------------------------------------------------

int_lists = st.lists(st.integers(-10**12, 10**12), max_size=8)


def _l1(coeffs):
    return sum(map(abs, coeffs))


# a b = [-1, -1, 1, 1]; each c below moves one slot of a b - c by +-1, at
# the lowest slot, at the highest, or at both
@given(int_lists, int_lists, int_lists)
@example([-1, 0, 1], [1, 1], [-1, -1, 1, 1])
@example([-1, 0, 1], [1, 1], [0, -1, 1, 1])
@example([-1, 0, 1], [1, 1], [-2, -1, 1, 1])
@example([-1, 0, 1], [1, 1], [-1, -1, 1, 0])
@example([-1, 0, 1], [1, 1], [-1, -1, 1, 2])
@example([-1, 0, 1], [1, 1], [0, -1, 1, 2])
@example([], [], [0, 0, -1])
@settings(max_examples=200, deadline=None)
def test_at_two_power_decides_a_product_identity(a, b, c):
    """a b - c is zero exactly when its value at 2^k is, for 2^k above the
    l1 bound, and the value's 2-adic valuation names its lowest slot."""
    q = Poly(a) * Poly(b) - Poly(c)
    k = (_l1(a) * _l1(b) + _l1(c)).bit_length()
    assert all(abs(x) < 1 << k for x in q.coeffs)
    value = at_two_power(a, k) * at_two_power(b, k) - at_two_power(c, k)
    assert value == at_two_power(q.coeffs, k)
    assert (value == 0) == q.is_zero()
    if value:
        assert lowest_power(value, k) == next(j for j, x in enumerate(q.coeffs) if x)
    # the decider takes its own bound and reads the same lowest slot
    expected = next((j for j, x in enumerate(q.coeffs) if x), None)
    assert first_mismatch([(1, a, b), (-1, c, [1])]) == expected


def test_first_mismatch_decides_the_determinant_lemma(rng):
    """None on D1 Dn - D D1n - prod(bands) = 0 for random int tridiagonal
    runs, and j once c x^j is added, for every j from 0 to the top."""
    for n in range(2, 9):
        for _ in range(5):
            shifts = [rng.randint(-10**6, 10**6) for _ in range(n)]
            bands = [rng.choice([-1, 1]) * rng.randint(1, 10**6) for _ in range(n - 1)]
            head, tail = tridiag_run(shifts, bands, 0), tridiag_run(shifts[1:], bands[1:], 0)
            terms = [(1, tail[n - 1], head[n - 1]), (-1, head[n], tail[n - 2])]
            constant = -prod(bands)
            assert first_mismatch(terms, constant) is None
            for j in range(2 * n - 1):  # D1 Dn has degree 2n - 2
                for c in (1, -3, 10**40):
                    planted = [(1, [0] * j + [c], [1])]
                    assert first_mismatch(terms + planted, constant) == j


def test_first_mismatch_edge_cases():
    # no terms: the identity is the constant; [] is the zero polynomial
    assert first_mismatch([]) is None
    assert first_mismatch([], 0) is None
    assert first_mismatch([], 5) == 0
    assert first_mismatch([], -(1 << 64)) == 0
    assert first_mismatch([(1, [], [1, 2])]) is None
    assert first_mismatch([(1, [], [])], 3) == 0
    assert first_mismatch([(1, [0, 0, 2], [0, 2]), (-1, [0, 0, 0, 4], [1])]) is None
    assert first_mismatch([(1, [0, 0, 2], [0, 2]), (-1, [0, 0, 0, 4], [1])], 1) == 0
    assert first_mismatch([(1, [2], [2])], -4) is None
    assert first_mismatch([(3, [1, 1], [1, 1]), (-1, [3, 6, 3], [1])]) is None
    # only the |s| of the bound covers a scaled term: 2^10 at x = 2^1 reads as x^10
    assert first_mismatch([(1 << 10, [1], [1])]) == 0


def test_at_two_power_needs_the_bound():
    # x - 2^k is not zero but vanishes at 2^k: its constant is not below
    # 2^k, so k must come from a bound on the coefficients
    for k in (1, 5, 64):
        q = [-(1 << k), 1]
        assert at_two_power(q, k) == 0
        bound_k = _l1(q).bit_length()
        assert bound_k > k
        value = at_two_power(q, bound_k)
        assert value != 0 and lowest_power(value, bound_k) == 0


# ---------------------------------------------------------------------------
# bivariate generating functions: a Poly in x over Polys in x'
# ---------------------------------------------------------------------------

X = Poly([0, Poly([1])])
XP = Poly([Poly([0, 1])])


def _at(F: Poly, x, xp):
    """F(x, x') at scalars: x is a constant of the x' ring."""
    rows = F.evaluate(Poly([x]))
    return rows.evaluate(xp) if isinstance(rows, Poly) else rows


def test_divided_difference_examples():
    one = Poly([F(1)])
    assert divided_difference(parse_poly("3,1"), one) == Poly([Poly([F(1)])])
    p = parse_poly("1,2,3")
    assert divided_difference(p, p).is_zero()
    dd = divided_difference(parse_poly("0,0,1"), one)
    assert dd == X + XP


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_divided_difference_identity(p, q):
    cross = outer(p, q) - outer(q, p)
    assert divided_difference(p, q) * (X - XP) == cross


@given(small_polys, st.fractions(max_denominator=9), st.fractions(max_denominator=9))
@settings(max_examples=60, deadline=None)
def test_of_sum_is_p_at_the_sum(p, x, xp):
    assert _at(of_sum(p), x, xp) == p.evaluate(x + xp)


def test_exact_divide_x2_minus_xp2():
    # (x^2 - x'^2) * (x + x') recovered exactly
    product = (X * X - XP * XP) * (X + XP)
    assert _exact_divide_x2_minus_xp2(product) == X + XP
    with pytest.raises(ValueError):
        _exact_divide_x2_minus_xp2(Poly([Poly([1])]))


def test_divrem_by_a_nested_one_top_row():
    """x^2 - x'^2 spelled X * X - XP * XP has the top row Poly([1]), which
    equals 1, so divrem takes the monic branch as for the int 1 top row."""
    F_ = outer(parse_poly("1,-2,0,3,1"), parse_poly("2,1,1/2")) + X * XP * XP
    products = X * X - XP * XP
    assert products.coeffs[-1] == Poly([1]) and products.is_monic()
    written = Poly([Poly([0, 0, -1]), 0, 1])
    q, r = F_.divrem(products)
    assert (q, r) == F_.divrem(written)
    assert q * written + r == F_ and r.degree < 2


def test_a_poly_equals_the_constant_scalar():
    assert Poly([F(3)]) == 3 and 3 == Poly([F(3)]) and Poly([Poly([1])]) == 1
    assert Poly([1, 1]) != 1 and Poly([2]) != 1 and Poly() == 0 and Poly([1]) != 0
    # equal objects hash alike
    for p, c in ((Poly([F(3)]), 3), (Poly([Poly([F(1, 2)])]), F(1, 2)), (Poly(), 0)):
        assert hash(p) == hash(c)
    assert hash(Poly([Poly([1]), 2])) == hash(Poly([1, Poly([2])])) == hash(Poly([1, 2]))


def test_zero_minus_a_nested_poly():
    """0 - p mirrors 0 + p: the int 0 that _product leaves in a row no
    product reaches takes a Poly on either side."""
    p = Poly([Poly([1]), XP.coeffs[0]])
    assert 0 - p == -p == Poly([Poly([-1]), Poly([0, -1])])
    assert 0 + p == p and 0 - Poly([1]) == Poly([-1])
    row = (X * X).coeffs[0]  # an int 0 left by the product loop
    assert row == 0 and type(row) is int and row - XP.coeffs[0] == -XP.coeffs[0]
    with pytest.raises(TypeError):
        1 - p


# ---------------------------------------------------------------------------
# tridiagonal minors
# ---------------------------------------------------------------------------

def _x_minus(b):
    return Poly([-F(b), F(1)])


def _products(sup, sub):
    """The band products c_i = sup_i sub_i that tridiag_run takes."""
    return [s * t for s, t in zip(sup, sub)]


def _dense_minor_det(b, sup, sub, removed):
    """Independent oracle: dense Laplace expansion over Poly entries of the
    full matrix with x - b_i on the diagonal, sup_i at (i, i+1) and sub_i at
    (i+1, i)."""
    keep = [i for i in range(1, len(b) + 1) if i not in set(removed)]
    size = len(keep)

    def entry(i, j):
        gi, gj = keep[i], keep[j]
        if gi == gj:
            return _x_minus(b[gi - 1])
        if gj == gi + 1:
            return Poly([sup[gi - 1]])
        if gj == gi - 1:
            return Poly([sub[gj - 1]])
        return Poly()

    def det(rows, cols):
        if not rows:
            return Poly([F(1)])
        total = Poly()
        row = rows[0]
        for idx, col in enumerate(cols):
            e = entry(row, col)
            if e.is_zero():
                continue
            minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = e * minor
            total = total + (term if idx % 2 == 0 else -term)
        return total

    return det(list(range(size)), list(range(size)))


def _random_band(rng, n, shift_den=5, sup_den=1):
    b = [F(rng.randint(-5, 5), rng.randint(1, shift_den)) for _ in range(n)]
    sup = [F(rng.randint(-5, 5), rng.randint(1, sup_den)) for _ in range(n - 1)]
    sub = [F(rng.randint(-5, 5)) for _ in range(n - 1)]
    return b, sup, sub


def test_tridiag_examples():
    b1, b2, a1 = F(2), F(3), F(5)
    b, c = [b1, b2], _products([-a1], [F(-1)])
    assert tridiag_minor_det(b, c) == _x_minus(b1) * _x_minus(b2) - Poly([a1])
    assert tridiag_minor_det(b, c, [1]) == _x_minus(b2)
    assert tridiag_minor_det(b, c, [1, 2]) == Poly([F(1)])
    lemma = (tridiag_minor_det(b, c, [1]) * tridiag_minor_det(b, c, [2])
             - tridiag_minor_det(b, c) * tridiag_minor_det(b, c, [1, 2]))
    assert lemma == Poly([a1])


def test_tridiag_km_example():
    b, c = [F(0)] * 3, _products([F(-1)] * 2, [F(-1)] * 2)
    assert tridiag_minor_det(b, c) == parse_poly("0,-2,0,1")
    assert tridiag_minor_det(b, c, [3]) == parse_poly("-1,0,1")


def test_tridiag_wrap_around_and_duplicates():
    b, sup, sub = [F(i) for i in range(4)], [F(-2), F(-3), F(-4)], [F(-1)] * 3
    # {4, 1} wraps to the interior block on 2..3
    inner = tridiag_minor_det(b, _products(sup, sub), [4, 1])
    assert inner == _dense_minor_det(b, sup, sub, [1, 4])
    with pytest.raises(ValueError):
        tridiag_minor_det(b, _products(sup, sub), [1, 5])  # 5 = 1 mod 4


def test_tridiag_vs_dense_oracle(rng):
    for _ in range(25):
        n = rng.randint(2, 8)
        b, sup, sub = _random_band(rng, n)
        removed = [i for i in range(1, n + 1) if rng.random() < 0.3]
        assert (tridiag_minor_det(b, _products(sup, sub), removed)
                == _dense_minor_det(b, sup, sub, removed))


def test_prefix_dets_vs_dense_oracle(rng):
    for _ in range(15):
        n = rng.randint(1, 7)
        b, sup, sub = _random_band(rng, n, sup_den=3)
        lo = rng.randint(1, n)
        hi = rng.randint(lo - 1, n)
        dets = tridiag_run(b[lo - 1:hi], _products(sup, sub)[lo - 1:], F(0))
        assert len(dets) == hi - lo + 2
        for k in range(lo - 1, hi + 1):  # k = lo - 1 is the empty block
            outside = [i for i in range(1, n + 1) if not lo <= i <= k]
            assert Poly(dets[k - lo + 1]) == _dense_minor_det(b, sup, sub, outside)


def test_tridiag_run_skips_only_an_exact_zero_shift():
    # a shift that vanishes only through its window still bounds the window
    # of the coefficient it meets; an exact zero shift is skipped
    windowed, exact = LaurentSeries(0, [], hi=3), LaurentSeries(0, [])
    (empty, (c0, one)) = tridiag_run([windowed], [], 0)
    assert empty == [1] and one == 1
    assert type(c0) is LaurentSeries and c0.known_zero() and c0.known_through() == 3
    assert tridiag_run([exact], [], 0)[1] == [0, 1]


def _tridiag_run_unstrided(b, c, zero):
    """tridiag_run without its parity stride: every c-pass runs over all of
    D_{k-2}.  The oracle for the stride."""
    prev2, prev = [], [zero + 1]
    dets = [prev]
    for k, bk in enumerate(b):
        cur = [zero] + prev
        if bk != 0 or type(bk) is LaurentSeries and bk.hi is not None:
            for j, p in enumerate(prev):
                cur[j] -= bk * p
        if prev2:
            for j, p in enumerate(prev2):
                cur[j] -= c[k - 1] * p
        prev2, prev = prev, cur
        dets.append(cur)
    return dets


def _float_run(rng, n):
    def draw():
        if rng.random() < 0.4:
            return rng.choice((1.0, -1.0, 2.0, 0.5, -0.5))
        return rng.choice((-1, 1)) * rng.uniform(0.1, 10) * 10.0 ** rng.randint(-3, 3)

    shifts = rng.choice(([0.0] * n, [-0.0] * n, [rng.choice((0.0, -0.0, draw())) for _ in range(n)]))
    return shifts, [draw() for _ in range(n)], 0.0


def _int_run(rng, n):
    shifts = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)]
    return shifts, [rng.randint(-6, 6) for _ in range(n)], 0


def _fraction_run(rng, n):
    frac = lambda: F(rng.randint(-6, 6), rng.randint(1, 4))
    shifts = [rng.choice((F(0), F(0), frac())) for _ in range(n)]
    return shifts, [frac() for _ in range(n)], F(0)


def _multipoly_run(rng, n):
    x, zero = MultiPoly.variables(n), MultiPoly(n)
    shifts = [rng.choice((zero, zero, x[i])) for i in range(n)]
    return shifts, [x[i] * x[(i + 1) % n] for i in range(n)], zero


def _laurent_run(rng, n):
    """Shifts are exact zeros, or also zeros known only through their window
    (which turn the stride off) and series; the band products are windowed,
    and so is the zero of some runs."""
    def series():
        lo = rng.randint(-2, 1)
        return LaurentSeries(lo, [rng.randint(-3, 3) for _ in range(3)], lo + rng.randint(2, 5))

    exact = LaurentSeries(0, [])
    shifts = rng.choice(([exact] * n, [rng.choice((exact, LaurentSeries(0, [], rng.randint(0, 4)),
                                                   series())) for _ in range(n)]))
    zero = rng.choice((exact, LaurentSeries(0, [], 6)))
    return shifts, [series() for _ in range(n)], zero


@pytest.mark.parametrize("draw, frozen", [
    (_float_run, float.hex), (_int_run, lambda c: (type(c), c)),
    (_fraction_run, lambda c: (type(c), c)), (_multipoly_run, lambda c: c),
    (_laurent_run, lambda c: (c.lo, c.coeffs, c.hi))])
def test_tridiag_run_stride_matches_the_unstrided_loop(rng, draw, frozen):
    """Every prefix determinant agrees with the loop that runs every c-pass
    over all of D_{k-2}: bit for bit over float, value and type over int
    and Fraction, term for term over MultiPoly and LaurentSeries."""
    for _ in range(40):
        b, c, zero = draw(rng, rng.randint(1, 9))
        got, want = tridiag_run(b, c, zero), _tridiag_run_unstrided(b, c, zero)
        assert [[frozen(x) for x in d] for d in got] == [[frozen(x) for x in d] for d in want]


def test_det_form_identity(rng):
    for _ in range(30):
        n = rng.randint(2, 8)
        sup = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 1)]
        sub = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 1)]
        b, c = [F(rng.randint(-5, 5)) for _ in range(n)], _products(sup, sub)
        lhs = (tridiag_minor_det(b, c, [1]) * tridiag_minor_det(b, c, [n])
               - tridiag_minor_det(b, c) * tridiag_minor_det(b, c, [1, n]))
        prod = F(1)
        for s, t in zip(sup, sub):
            prod *= s * t
        assert lhs == Poly([prod])


# ---------------------------------------------------------------------------
# monic-square splitting
# ---------------------------------------------------------------------------

def test_pr_split_worked_example():
    p, r = pr_split_from(parse_poly("-4,0,9,0,-6,0,1"), 3)
    assert p == parse_poly("0,-3,0,1")
    assert r == Poly([F(-4)])


def test_pr_split_perfect_square():
    p, r = pr_split(Poly([F(1)]), Poly(), parse_poly("0,0,1"), 1)
    assert p == parse_poly("0,1") and r.is_zero()


def test_pr_split_rejects_bad_input():
    with pytest.raises(ValueError):
        pr_split_from(parse_poly("1,0,2"), 1)  # not monic
    with pytest.raises(ValueError):
        pr_split_from(parse_poly("1,0,0,1"), 1)  # odd degree


@given(st.lists(small_coeffs, min_size=0, max_size=3),
       st.lists(small_coeffs, min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_pr_split_left_inverse(p_low, r_coeffs):
    n = 4
    p = Poly([F(c) for c in p_low] + [0] * (n - len(p_low)) + [F(1)])
    r = Poly([F(c) for c in r_coeffs])
    got_p, got_r = pr_split_from(p * p + r, n)
    assert got_p == p and got_r == r


# ---------------------------------------------------------------------------
# truncated Laurent series
# ---------------------------------------------------------------------------

def test_series_arithmetic_and_windows():
    s = LaurentSeries(-1, [F(-1), F(2), F(3)], hi=4)
    assert s.pole_order() == 1
    sq = s * s
    assert sq.coefficient(-2) == 1 and sq.coefficient(-1) == -4
    assert sq.known_through() == 3  # truncation shrinks by the pole order
    d = s.derivative()
    assert d.coefficient(-2) == 1 and d.known_through() == 3
    with pytest.raises(TruncationError):
        sq.coefficient(4)


def test_series_inverse():
    s = LaurentSeries(-1, [F(-1), F(2), F(3)], hi=4)
    one = s * s.inverse() - 1
    assert one.is_zero_through(one.known_through())
    mono = LaurentSeries.monomial(-2, F(3))
    assert mono.inverse() * mono == 1
    with pytest.raises(TruncationError):
        LaurentSeries(0, [F(1), F(1)]).inverse()  # exact multi-term


def test_series_shift_truncate_zero():
    s = LaurentSeries(0, [F(1), F(1)], hi=5)
    t = s.truncate(3)
    assert t.known_through() == 3
    zero = s - s  # zero only through its window, so not the exact zero
    assert zero.known_zero() and zero.is_zero_through(5) and zero != 0


SCALAR_EQUALITY = [
    (LaurentSeries(0, []), 0, True), (LaurentSeries(0, []), F(0), True),
    (LaurentSeries(0, [], hi=3), 0, False), (LaurentSeries(-2, [0, 0], hi=1), F(0), False),
    (LaurentSeries(0, [2], hi=0), 2, False), (LaurentSeries(0, [F(2)], hi=4), F(2), False),
    (LaurentSeries(0, [2]), 2, True), (LaurentSeries(0, [2]), F(2), True),
    (LaurentSeries(0, [F(2)]), 2, True), (LaurentSeries(1, [2]), 2, False),
    (LaurentSeries(0, [2, 1]), 2, False), (LaurentSeries(0, [2]), 0, False)]


@pytest.mark.parametrize("series, scalar, equal", SCALAR_EQUALITY)
def test_series_equals_a_scalar_only_as_an_exact_constant(series, scalar, equal):
    """A scalar c is the exact constant series c: a zero known only through
    its window is not 0, and 2 + O(t) is not 2."""
    assert (series == scalar) is equal and (scalar == series) is equal
    assert (series != scalar) is not equal


@pytest.mark.parametrize("series, scalar, equal", SCALAR_EQUALITY)
def test_series_hashes_as_the_scalar_it_equals(series, scalar, equal):
    """Equal values hash equal, so a set or dict key holds an exact constant
    series and its scalar once, as it does for Poly."""
    if equal:
        assert hash(series) == hash(scalar) and len({series, scalar}) == 1
    copy = LaurentSeries(series.lo, list(series.coeffs), series.hi)
    assert copy == series and hash(copy) == hash(series)


@pytest.mark.parametrize("coeffs", [[], [0, 0], [F(2)], [0, 0, F(1, 3), 0, -1, 0, 0],
                                    [0, 5, 0], [F(0), F(-7, 2), F(0)]])
@pytest.mark.parametrize("lo", [-3, 0, 2])
@pytest.mark.parametrize("slack", [None, 0, 2])
def test_series_is_zero_through_reads_each_coefficient(coeffs, lo, slack):
    hi = None if slack is None else lo + len(coeffs) - 1 + slack
    s = LaurentSeries(lo, coeffs, hi)
    assert not s.coeffs or (s.coeffs[0] != 0 and s.coeffs[-1] != 0)
    top = lo + len(coeffs) + 2 if hi is None else hi
    for e in range(lo - 3, top + 1):
        assert s.is_zero_through(e) == all(s.coefficient(k) == 0 for k in range(lo - 3, e + 1))


def test_series_trailing_zero_past_the_window_is_refused():
    with pytest.raises(ValueError, match="beyond the validity window"):
        LaurentSeries(0, [0, F(1), 0], hi=1)
    assert LaurentSeries(0, [0, F(1), 0], hi=2).coeffs == [F(1)]


@st.composite
def series(draw):
    """A Laurent series, exact or known through a window past its terms."""
    lo = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(st.one_of(st.just(0), wide_ints, st.fractions(max_denominator=60)),
                           max_size=7))
    hi = draw(st.one_of(st.none(), st.integers(0, 3).map(lambda k: lo + len(coeffs) - 1 + k)))
    return LaurentSeries(lo, coeffs, hi)


def _series_schoolbook(a, b):
    """Reference product: its window (unknown terms of one factor meet the
    other's leading exponent) and every coefficient in it, summed pairwise."""
    if (a.known_zero() and a.hi is None) or (b.known_zero() and b.hi is None):
        return None, {}
    bounds = [h + other.leading_exponent() for h, other in ((a.hi, b), (b.hi, a))
              if h is not None]
    hi = min(bounds) if bounds else None
    top = hi if hi is not None else a.lo + len(a.coeffs) + b.lo + len(b.coeffs) - 2
    return hi, {e: sum((a.coefficient(i) * b.coefficient(e - i)
                        for i in range(a.lo, a.lo + len(a.coeffs))), F(0))
                for e in range(a.lo + b.lo, top + 1)}


@given(series(), series())
@settings(max_examples=100, deadline=None)
def test_series_product_matches_schoolbook(a, b):
    product = a * b
    hi, expected = _series_schoolbook(a, b)
    assert product.known_through() == hi
    assert all(product.coefficient(e) == c for e, c in expected.items())
    assert all(product.coefficient(e) == 0
               for e in range(product.lo, product.lo + len(product.coeffs)) if e not in expected)
    kinds = {type(c) for c in a.coeffs + b.coeffs}
    if kinds:
        assert {type(c) for c in product.coeffs} <= (kinds if len(kinds) == 1 else {F, int})


def _check_series_sum(got, a, b, sign):
    """got = a + sign b, against coefficient-wise Fraction arithmetic; the
    window is the smaller of the two."""
    his = [h for h in (a.hi, b.hi) if h is not None]
    hi = min(his) if his else None
    top = hi if his else max(a.lo + len(a.coeffs), b.lo + len(b.coeffs)) - 1
    lo = min(a.lo, b.lo)
    expected = LaurentSeries(lo, [F(a.coefficient(e)) + sign * F(b.coefficient(e))
                                  for e in range(lo, top + 1)], hi)
    assert (got.lo, got.coeffs, got.hi) == (expected.lo, expected.coeffs, expected.hi)


@given(typed_series(), typed_series(), st.one_of(wide_ints, st.fractions(max_denominator=60)))
@settings(max_examples=200, deadline=None)
def test_series_sums_and_derivative_match_schoolbook(a, b, scalar):
    _check_series_sum(a + b, a, b, 1)
    _check_series_sum(a - b, a, b, -1)
    # a scalar is coerced to an exact Fraction constant
    c = LaurentSeries.constant(F(scalar))
    for got, x, y, sign in ((a + scalar, a, c, 1), (scalar + a, c, a, 1),
                            (a - scalar, a, c, -1), (scalar - a, c, a, -1)):
        _check_series_sum(got, x, y, sign)
    d = a.derivative()
    expected = LaurentSeries(a.lo - 1, [e * F(c) for e, c in enumerate(a.coeffs, a.lo)],
                             None if a.hi is None else a.hi - 1)
    assert (d.lo, d.coeffs, d.hi) == (expected.lo, expected.coeffs, expected.hi)


def test_divrem_of_int_polys_stays_exact():
    q, r = Poly([3, 0, 1]).divrem(Poly([2, 2]))
    assert (q, r) == (Poly([F(-1, 2), F(1, 2)]), Poly([4]))
    assert not any(isinstance(c, float) for c in q.coeffs + r.coeffs)
    q, r = Poly([3.0, 0.0, 1.0]).divrem(Poly([2.0, 2.0]))
    assert q.coeffs == [-0.5, 0.5] and r.coeffs == [4.0]


def _evaluated(point, s):
    """The rational series whose coefficients are those of s at `point`; the
    int 0 that the kernels leave in a slot no term reaches stays 0."""
    return LaurentSeries(s.lo, [0 if c == 0 else c.eval(point) for c in s.coeffs], s.hi)


def test_multipoly_series_match_their_rational_evaluation(rng):
    """Series over MultiPoly run on the same kernels as rational ones:
    evaluating every coefficient at a rational point commutes with +, -, *
    and the derivative, windows included.  At that point a coefficient
    c0 + c1 x + c2 y^2 with |c_i| <= 5 vanishes only if it is zero, so the
    evaluation keeps every leading exponent."""
    x, y = MultiPoly.variables(2)
    point = [F(1, 101), F(3, 103)]

    def draw():
        lo = rng.randint(-3, 2)
        coeffs = [rng.randint(-5, 5) + rng.randint(-5, 5) * x + rng.randint(-5, 5) * y * y
                  for _ in range(rng.randint(0, 5))]
        return LaurentSeries(lo, coeffs, rng.choice((None, lo + len(coeffs) + rng.randint(0, 2))))

    for _ in range(60):
        a, b = draw(), draw()
        ra, rb = _evaluated(point, a), _evaluated(point, b)
        for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                          (a.derivative(), ra.derivative())):
            got = _evaluated(point, got)
            assert (got.lo, got.coeffs, got.hi) == (want.lo, want.coeffs, want.hi)

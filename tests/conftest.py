import random
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from prymlab.algebra import LaurentSeries, Poly
from prymlab.toda import TodaPoint


@pytest.fixture
def rng():
    return random.Random(20240)


def fraction_rref(matrix):
    """Schoolbook Gauss-Jordan over Fraction: the oracle for the
    fraction-free kernels.  Returns (rref matrix, pivot columns)."""
    from fractions import Fraction

    rows = [[Fraction(c) for c in row] for row in matrix]
    pivots = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [c * inv for c in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


@st.composite
def typed_series(draw):
    """A series with int, Fraction or mixed coefficients, exact or known
    through a window past its terms; possibly a known zero of either kind."""
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    ints = st.integers(min_value=-10**6, max_value=10**6)
    fractions = st.one_of(st.just(F(0)), st.fractions(max_denominator=60))
    entry = {"int": st.one_of(st.just(0), ints), "fraction": fractions,
             "mixed": st.one_of(st.just(0), ints, fractions)}[kind]
    lo = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(entry, max_size=6))
    hi = draw(st.one_of(st.none(), st.integers(0, 3).map(lambda k: lo + len(coeffs) - 1 + k)))
    return LaurentSeries(lo, coeffs, hi)


def grid_polynomial(values):
    """Ascending Fraction coefficients of the polynomial of degree
    < len(values) that takes values[x] at x = 0, 1, ...: the grid oracle
    for a determinant known only by its values.  Newton's forward
    differences, then the Newton form expanded by Horner's rule."""
    diffs = [F(v) for v in values]
    for level in range(1, len(diffs)):
        for i in range(len(diffs) - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / level
    poly = Poly()
    for i in range(len(diffs) - 1, -1, -1):
        poly = poly * Poly([F(-i), F(1)]) + Poly([diffs[i]])
    return poly.coeffs


def wide_rational(rng, nonzero=False, top=10**30):
    """A rational whose numerator and denominator reach `top`; drawn like
    sampling.rational, which it can replace."""
    while True:
        value = F(rng.randint(-top, top), rng.randint(1, top))
        if value or not nonzero:
            return value


def wide_toda_point(rng, n):
    """A lattice point whose numerators and denominators reach 10^30."""
    a = [abs(wide_rational(rng, nonzero=True)) for _ in range(n - 1)]
    last = F(1)
    for x in a:
        last /= x
    return TodaPoint(tuple(a + [last]), tuple(wide_rational(rng) for _ in range(n)))

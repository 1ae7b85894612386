import random
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from prymlab.algebra import LaurentSeries


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

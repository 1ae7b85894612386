import random

import pytest


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

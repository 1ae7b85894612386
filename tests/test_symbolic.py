"""Multivariate polynomials, exact linear algebra and bracket tables."""

import hashlib
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from math import gcd

import pytest
from conftest import fraction_rref
from hypothesis import given, settings
from hypothesis import strategies as st

from prymlab import symbolic
from prymlab.algebra import Poly, integer_numerators, parse_poly
from prymlab.morphism import quad_mumford_table
from prymlab.mumford import (EVEN_MUMFORD, EVEN_PRYM, ODD_MUMFORD, ODD_PRYM,
                             mumford_bracket_table)
from prymlab.painleve import c_block
from prymlab.prym import reduce_mumford_table
from prymlab.sampling import toda_point
from prymlab.symbolic import (BracketTable, MultiPoly, charpoly_mismatch, integer_determinant,
                              matrix_rank, pivot_columns, solve_affine)
from prymlab.toda import _lax_at, char_coeffs


def test_multipoly_arithmetic():
    x, y, z = MultiPoly.variables(3)
    assert ((x + y) * (x - y) - x * x + y * y).is_zero()
    f = x * x * y + 3
    assert f.diff(0) == 2 * x * y
    assert f.diff(2).is_zero()
    assert f.eval([F(2), F(3), F(7)]) == 15
    assert f.subs([y, x, z]) == y * y * x + 3
    assert (2 * x - x - x).is_zero()


def test_multipoly_str():
    x, y = MultiPoly.variables(2)
    assert (x * x - y + 1).to_str(["u", "v"]) == "u^2 - v + 1"
    assert MultiPoly(2).to_str(["u", "v"]) == "0"


def test_multipoly_foreign_types_defer():
    x, _ = MultiPoly.variables(2)
    with pytest.raises(TypeError):
        x + "nope"


def _augmented(matrix, rhs):
    """Integer rows of [A | b]: each row times the lcm of its denominators."""
    return [integer_numerators(list(row) + [b])[0] for row, b in zip(matrix, rhs)]


def test_rref_and_rank():
    A = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert pivot_columns(A) == [0, 1]
    assert solve_affine(_augmented(A, [0, 0, 0])).free_columns == [2]
    assert matrix_rank(A) == 2


def test_solve_affine():
    A = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    sol = solve_affine(_augmented(A, [F(6), F(12), F(2)]))
    assert sol.consistent and len(sol.kernel_basis) == 1
    x = [F(c, sol.den) for c in sol.particular]
    assert [sum(row[j] * x[j] for j in range(3)) for row in A] == [6, 12, 2]
    (k,) = sol.kernel_basis
    assert [sum(row[j] * k[j] for j in range(3)) for row in A] == [0, 0, 0]
    bad = solve_affine(_augmented(A, [F(6), F(11), F(2)]))
    assert not bad.consistent and bad.particular is None


def test_bracket_table_canonical_pair():
    # {q, p} = 1: Jacobi holds; hamiltonian field of p^2/2 is (p, 0)
    one = MultiPoly.const(2, 1)
    zero = MultiPoly(2)
    table = BracketTable(["q", "p"], [[zero, one], [-one, zero]])
    assert not table.antisymmetry_defects()
    assert table.jacobi_holds()
    p = MultiPoly.var(2, 1)
    field = table.hamiltonian_field(p * p * F(1, 2), [F(3), F(5)])
    assert field == [F(5), F(0)]


def test_jacobi_holds_needs_antisymmetry():
    # {x, y} = {y, x} = x: no triple i < j < k exists, so only the
    # antisymmetry check can reject it
    x, y = MultiPoly.variables(2)
    zero = MultiPoly(2)
    table = BracketTable(["x", "y"], [[zero, x], [x, zero]])
    assert table.antisymmetry_defects() == [(0, 1)]
    assert not table.jacobi_holds()
    assert BracketTable(["x", "y"], [[zero, x], [-x, zero]]).jacobi_holds()


def test_bracket_table_detects_broken_jacobi():
    # {x,y} = z, {y,z} = x, {z,x} = x: jacobiator equals z, not zero
    x, y, z = MultiPoly.variables(3)
    zero = MultiPoly(3)
    bad = BracketTable(["x", "y", "z"],
                       [[zero, z, -x], [-z, zero, x], [x, -x, zero]])
    assert not bad.jacobi_holds()
    assert bad.jacobiator(0, 1, 2) == z
    # the so(3) structure constants do satisfy Jacobi
    good = BracketTable(["x", "y", "z"],
                        [[zero, z, -y], [-z, zero, x], [y, -x, zero]])
    assert good.jacobi_holds()


# ---------------------------------------------------------------------------
# fraction-free kernels against schoolbook Fraction oracles
# ---------------------------------------------------------------------------

small_ints = st.integers(-6, 6)
entries = st.one_of(st.just(0), small_ints, st.fractions(max_denominator=12),
                    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**9)))


@st.composite
def matrices(draw):
    """Empty, 0 x n, zero, dependent, int-only and mixed rows."""
    ncols = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["mixed", "int", "fraction"]))
    entry = {"mixed": entries, "int": small_ints,
             "fraction": st.fractions(max_denominator=30)}[kind]
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    extra = draw(st.sampled_from(["none", "zero", "dependent"]))
    if extra == "zero":
        rows.append([0] * ncols)
    elif extra == "dependent" and rows:
        c = draw(st.fractions(max_denominator=5))
        rows.append([c * x + y for x, y in zip(rows[0], rows[-1])])
    return draw(st.permutations(rows))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_solve_affine_matches_fraction_gauss_jordan(matrix):
    """Each matrix is read as an augmented system [A | b].  Every entry of
    its rref is read back from the solution: pivot columns hold Id, the
    last column is the particular solution, and the free columns are minus
    the pivot entries of the kernel basis."""
    expected, pivots = fraction_rref(matrix)
    assert pivot_columns(matrix) == pivots
    if not matrix or not matrix[0]:
        return
    n = len(matrix[0]) - 1
    sol = solve_affine([integer_numerators(row)[0] for row in matrix])
    assert sol.consistent == (n not in pivots)
    if not sol.consistent:
        assert sol.particular is None and sol.kernel_basis == [] and sol.free_columns == []
        return
    free = [j for j in range(n) if j not in pivots]
    assert sol.free_columns == free
    assert sol.den > 0
    assert all(type(c) is int for vec in [sol.particular, *sol.kernel_basis] for c in vec)
    particular = [F(0)] * n
    kernel = [[F(int(j == f)) for j in range(n)] for f in free]
    for row, col in zip(expected, pivots):
        assert row[col] == 1 and all(row[p] == 0 for p in pivots if p != col)
        particular[col] = row[n]
        for vec, f in zip(kernel, free):
            vec[col] = -row[f]
    assert [F(c, sol.den) for c in sol.particular] == particular
    assert [[F(c, sol.den) for c in vec] for vec in sol.kernel_basis] == kernel


def _leibniz(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_integer_determinant_matches_leibniz(matrix):
    expected = _leibniz(matrix)
    got = integer_determinant([list(row) for row in matrix])
    assert got == expected and type(got) is int


def _leibniz_charpoly(matrix):
    """det(x Id - M) as a Poly, by the Leibniz expansion over Poly entries
    (the empty matrix's one term is the int 1)."""
    entries = [[Poly([-c, int(i == j)]) for j, c in enumerate(row)]
               for i, row in enumerate(matrix)]
    return Poly([1]) * _leibniz(entries)


def test_charpoly_mismatch_matches_leibniz(rng):
    # None on the Leibniz characteristic polynomial, over either sign of
    # its denominator; a planted c x^j returns j; M is not overwritten
    for n in range(5):
        matrix = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        snapshot = [row[:] for row in matrix]
        q, q_den = integer_numerators(_leibniz_charpoly(matrix).coeffs)
        assert charpoly_mismatch(matrix, q, q_den) is None
        assert charpoly_mismatch(matrix, [-c for c in q], -q_den) is None
        for j in range(n + 1):
            for c in (1, -7, 10**20):
                planted = q[:]
                planted[j] += c
                assert charpoly_mismatch(matrix, planted, q_den) == j
        assert matrix == snapshot


def test_charpoly_mismatch_holds_on_run_blocks_and_lax_matrices(rng):
    # the run block C_l has eigenvalues +-1..+-l: det(x Id - C_l) is
    # prod (x^2 - i^2); K/2 = char_coeffs against det(x Id - L(h)) at each h
    for l in range(1, 6):
        q = Poly([1])
        for i in range(1, l + 1):
            q = q * Poly([-i * i, 0, 1])
        assert charpoly_mismatch(c_block(l), q.coeffs, 1) is None
        top = Poly([0] * (2 * l) + [1])
        assert charpoly_mismatch(c_block(l), (q + top).coeffs, 1) == 2 * l
    for n in range(1, 9):
        point = toda_point(rng, n)
        k_nums, k_den = integer_numerators(char_coeffs(point.a, point.b, F(0)))
        for h in (1, -1, 2):
            q = [h * c for c in k_nums]
            q[0] -= (h * h + 1) * k_den
            assert charpoly_mismatch(_lax_at(point, h), q, h * k_den) is None
            q[0] += 1
            assert charpoly_mismatch(_lax_at(point, h), q, h * k_den) == 0


def test_charpoly_mismatch_edge_cases():
    # det of the 0 x 0 matrix is 1; the zero polynomial is the empty list
    assert charpoly_mismatch([], [1], 1) is None
    assert charpoly_mismatch([], [-1], -1) is None
    assert charpoly_mismatch([], [2], 1) == 0
    assert charpoly_mismatch([[F(0)]], [0, 1], 1) is None
    assert charpoly_mismatch([[F(0)]], [], 1) == 1
    assert charpoly_mismatch([[F(3, 2)]], [-3, 2], 2) is None
    assert charpoly_mismatch([[F(3, 2)]], [3, -2], -2) is None


def test_integer_determinant_singular_and_shape():
    assert integer_determinant([[1, 2], [2, 4]]) == 0
    assert integer_determinant([]) == 1
    with pytest.raises(ValueError):
        integer_determinant([[1, 2]])


def _dict_product(p, q):
    """Reference product: Fraction products summed term by term."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, F(0)) + F(c1) * F(c2)
    return {e: c for e, c in out.items() if c != 0}


@st.composite
def multipolys(draw, nvars):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), entries, max_size=5))
    return MultiPoly(nvars, terms)


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(multipolys(n), multipolys(n))))
@settings(max_examples=100, deadline=None)
def test_multipoly_product_matches_fraction_dict_product(factors):
    p, q = factors
    for a, b in ((p, q), (p, p), (p, MultiPoly(p.nvars)), (p + q, p - q)):
        product = a * b
        assert product.terms == _dict_product(a.terms, b.terms)
        assert all(type(c) is F and c != 0 for c in product.terms.values())


def _dict_sum(p, q, sign=1):
    """Reference sum p + sign * q: Fraction coefficients added term by term."""
    out = {e: F(c) for e, c in p.items()}
    for e, c in q.items():
        out[e] = out.get(e, F(0)) + sign * F(c)
    return {e: c for e, c in out.items() if c != 0}


def _dict_diff(p, index):
    """Reference d/dx_index: every term with a positive exponent there."""
    out = {}
    for e, c in p.items():
        k = e[index]
        if k:
            key = e[:index] + (k - 1,) + e[index + 1:]
            out[key] = out.get(key, F(0)) + F(c) * k
    return {e: c for e, c in out.items() if c != 0}


def _assert_fraction_terms(poly):
    assert all(type(c) is F and c != 0 for c in poly.terms.values())


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(multipolys(n), multipolys(n))),
       st.one_of(small_ints, st.fractions(max_denominator=12)))
@settings(max_examples=100, deadline=None)
def test_multipoly_sum_and_difference_match_fraction_dicts(factors, scalar):
    p, q = factors
    before = dict(p.terms), dict(q.terms)
    empty = MultiPoly(p.nvars)
    # p - p and p + (-p) cancel to the empty polynomial
    for a, b in ((p, q), (p, p), (p, -p), (p, empty), (empty, q), (empty, empty)):
        total, difference = a + b, a - b
        assert total.terms == _dict_sum(a.terms, b.terms)
        assert difference.terms == _dict_sum(a.terms, b.terms, -1)
        _assert_fraction_terms(total)
        _assert_fraction_terms(difference)
    assert (p - p).is_zero() and (p + -p).is_zero()
    # int and Fraction scalars on either side, as constant terms
    const = {(0,) * p.nvars: scalar}
    assert (p + scalar).terms == (scalar + p).terms == _dict_sum(p.terms, const)
    assert (p - scalar).terms == _dict_sum(p.terms, const, -1)
    assert (scalar - p).terms == _dict_sum(const, p.terms, -1)
    _assert_fraction_terms(scalar - p)
    assert (p.terms, q.terms) == before  # the operands are left as they were


@given(st.integers(1, 3).flatmap(multipolys))
@settings(max_examples=100, deadline=None)
def test_multipoly_diff_matches_fraction_dicts(p):
    for index in range(p.nvars):
        derivative = p.diff(index)
        assert derivative.terms == _dict_diff(p.terms, index)
        assert derivative.nvars == p.nvars
        _assert_fraction_terms(derivative)
        assert MultiPoly(p.nvars).diff(index).is_zero()


def test_multipoly_product_cancels_terms():
    x, y = MultiPoly.variables(2)
    product = (x * F(1, 2) + y * F(1, 3)) * (x * F(1, 2) - y * F(1, 3))
    assert product.terms == {(2, 0): F(1, 4), (0, 2): F(-1, 9)}
    assert (MultiPoly.const(0, F(2, 3)) * 3).terms == {(): F(2)}


def _assert_lowest_terms(poly):
    """nums / den in lowest terms: den > 0, no zero numerator, no common
    factor, and den = 1 for the zero polynomial."""
    assert type(poly.den) is int and poly.den > 0
    assert all(type(c) is int and c != 0 for c in poly.nums.values())
    assert gcd(poly.den, *poly.nums.values()) == 1
    assert poly.nums or poly.den == 1


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(*[multipolys(n)] * 3)),
       st.one_of(small_ints, st.fractions(max_denominator=12)), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_multipoly_results_are_in_lowest_terms(polys, scalar, power):
    p, q, r = polys
    results = [p, p + q, p - q, p - p, p + (-p), q - scalar, scalar - q, (p + q) - q,
               p * q, (p - q) * (p + q), p * scalar, scalar * p, F(1, 2) * (2 * p),
               p ** power, q.subs([r] * q.nvars), q.subs([p * F(1, 3)] * q.nvars)]
    results += [p.diff(index) for index in range(p.nvars)]
    for poly in results:
        _assert_lowest_terms(poly)
    assert (p - p).nums == {} and (p - p).den == 1


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(
    multipolys(n), st.lists(multipolys(n), min_size=n, max_size=n),
    st.lists(entries, min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_multipoly_eval_and_subs_match_fraction_sums(case):
    p, reps, values = case
    expected = F(0)
    for expo, coeff in p.terms.items():
        for v, k in zip(values, expo):
            coeff *= F(v) ** k
        expected += coeff
    got = p.eval(values)
    assert got == expected and type(got) is F
    composed = p.subs(reps)
    _assert_lowest_terms(composed)
    assert composed.eval(values) == p.eval([r.eval(values) for r in reps])


@given(st.integers(0, 3).flatmap(multipolys),
       st.one_of(small_ints, st.fractions(max_denominator=12)))
@settings(max_examples=100, deadline=None)
def test_scalar_product_and_zero_sum_match_the_coerced_constant(p, scalar):
    const = MultiPoly.const(p.nvars, scalar)
    for product in (p * scalar, scalar * p):
        assert product == p * const
        assert (product.nums, product.den) == ((p * const).nums, (p * const).den)
    assert p + 0 == 0 + p == p + MultiPoly.const(p.nvars, 0) == p
    assert p - 0 == p and 0 - p == -p


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(multipolys(n), multipolys(n))),
       st.one_of(small_ints, st.fractions(max_denominator=12)))
@settings(max_examples=100, deadline=None)
def test_equal_multipolys_and_scalars_hash_alike(polys, scalar):
    p, q = polys
    nvars = p.nvars
    const = MultiPoly.const(nvars, scalar)
    assert const == scalar and hash(const) == hash(scalar)
    assert MultiPoly(nvars) == 0 and hash(MultiPoly(nvars)) == hash(0)
    assert hash(p - p) == hash(0) and len({p - p, 0}) == 1
    assert Poly([const]) == Poly([scalar]) and hash(Poly([const])) == hash(Poly([scalar]))
    # the same polynomial built two ways
    same = (p + q) - q
    assert same == p and hash(same) == hash(p)
    assert Poly([same, q]) == Poly([p, q]) and hash(Poly([same, q])) == hash(Poly([p, q]))
    if p == q:
        assert hash(p) == hash(q)


def test_multipoly_hash_contract_examples():
    c = MultiPoly.const(2, 3)
    assert c == 3 and hash(c) == hash(3) and len({c, 3}) == 1
    assert MultiPoly(2) == 0 and hash(MultiPoly(2)) == hash(0)
    half = MultiPoly.const(2, F(1, 2))
    assert half == F(1, 2) and hash(half) == hash(F(1, 2))
    assert Poly([c]) == Poly([3]) and hash(Poly([c])) == hash(Poly([3]))


@pytest.mark.parametrize("name, build, digest", [
    ("quad g=2 phi=1", lambda: quad_mumford_table(2, parse_poly("1")),
     "0990cbce09f1eea63a6344d495f472d87a60cb1756245b2983f8e906b26638c1"),
    ("quad g=2 phi=x", lambda: quad_mumford_table(2, parse_poly("0,1")),
     "922830a86dfade17a0567a8f7100f87a8695f18a5275cd67790a11ff527cc3f8"),
    ("quad g=2 phi=2+3x", lambda: quad_mumford_table(2, parse_poly("2,3")),
     "ac22d77d8542a3e494d32f8fbec1b5199974c05d63822604c5584b027f81266a"),
    ("odd-mumford g=1", lambda: mumford_bracket_table(ODD_MUMFORD, 1, parse_poly("1/2,-3")),
     "27e6db4f2e4636ae6da471da2d5827294fc19ff3489fe067eba0074588759c6f"),
    ("odd-mumford g=2", lambda: mumford_bracket_table(ODD_MUMFORD, 2, parse_poly("1/2,-3")),
     "c5005702b6211a2cdabaf6111d6e466187742b5e921e694de970b97a51691661"),
    ("even-mumford g=1", lambda: mumford_bracket_table(EVEN_MUMFORD, 1, parse_poly("1/2,-3")),
     "19c60f650201c176d7f1e0de9cbbd5b849ab790e34b748e7b5cf1b9cabaf5539"),
    ("even-mumford g=2", lambda: mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly("1/2,-3")),
     "b61a1d08d2b943b35712dbc2baace3e92cd48a33e99136e50550bfbe5d54c806"),
    ("odd-prym n=1", lambda: reduce_mumford_table(ODD_PRYM, 1, parse_poly("1,0,1")),
     "c158fd2e084925b449f41ae4e23b7a20eddf48d6df5ae373e026b25086e62c79"),
    ("odd-prym n=2", lambda: reduce_mumford_table(ODD_PRYM, 2, parse_poly("1,0,1")),
     "0e537522150a96f5ddbdca7201eb30d06aa4be75c6a23205a65b649fda94894e"),
    ("even-prym n=1", lambda: reduce_mumford_table(EVEN_PRYM, 1, parse_poly("0,1")),
     "48a633ba5165ede6b26fddafb2b9b110803351c74473174e38afb49df04c1091"),
    ("even-prym n=2", lambda: reduce_mumford_table(EVEN_PRYM, 2, parse_poly("0,1")),
     "9be9acc09857f0357cb5f58978416623215033d0d3625c1a8c8235b1779d790d"),
])
def test_bracket_table_strings_are_pinned(name, build, digest):
    """sha256 of repr(entry_strings()), pinned to the values of the
    Fraction-dict MultiPoly these tables were first built on."""
    table = build()
    assert hashlib.sha256(repr(table.entry_strings()).encode()).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# the packed integer Jacobi kernel against a Fraction-dict jacobiator
# ---------------------------------------------------------------------------

def _dict_jacobiator(table, i, j, k):
    """Reference jacobiator: sum over the cyclic triples and l of
    d{c_a, c_b}/dc_l * {c_l, c_c}, as Fraction dicts from MultiPoly.diff."""
    out = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for l in range(table.dim):
            for e, coeff in _dict_product(table.entry(a, b).diff(l).terms,
                                          table.entry(l, c).terms).items():
                out[e] = out.get(e, F(0)) + coeff
    return {e: c for e, c in out.items() if c != 0}


def _assert_kernel_matches_oracle(table):
    n = table.dim
    holds = all({e: -c for e, c in table.entry(j, i).terms.items()} == table.entry(i, j).terms
                for i in range(n) for j in range(n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                got = table.jacobiator(i, j, k)
                expected = _dict_jacobiator(table, i, j, k)
                assert got.terms == expected, (i, j, k)
                assert got.nvars == table.entry(0, 0).nvars
                assert all(type(c) is F and c != 0 for c in got.terms.values())
                if i < j < k:  # with antisymmetry, the triples that decide Jacobi
                    holds = holds and not expected
    assert table.jacobi_holds() == holds


def _random_table(rng, nvars, maxexp, nterms=3):
    """An nvars x nvars table of random polynomials: fractional, int and
    constant coefficients, exponents up to maxexp; in general not Poisson."""
    def poly():
        terms = {}
        for _ in range(rng.randrange(nterms + 1)):
            expo = tuple(rng.randrange(maxexp + 1) if rng.random() < 0.6 else 0
                         for _ in range(nvars))
            terms[expo] = rng.choice([F(rng.randint(-9, 9)),
                                      F(rng.randint(-9, 9), rng.randint(1, 12))])
        return MultiPoly(nvars, terms)
    entries = [[MultiPoly(nvars)] * nvars for _ in range(nvars)]
    for a in range(nvars):
        for b in range(a + 1, nvars):
            p = poly()
            entries[a][b], entries[b][a] = p, -p
        entries[a][a] = poly() if rng.random() < 0.2 else MultiPoly(nvars)
    return BracketTable([f"c{l}" for l in range(nvars)], entries)


@pytest.mark.parametrize("nvars, maxexp", [(1, 7), (2, 1), (2, 7), (3, 2), (3, 3),
                                           (3, 4), (4, 1), (4, 5)])
def test_jacobiator_matches_fraction_oracle_on_perturbed_tables(rng, nvars, maxexp):
    for _ in range(3):
        _assert_kernel_matches_oracle(_random_table(rng, nvars, maxexp))


def test_jacobiator_matches_fraction_oracle_on_poisson_tables():
    from prymlab.algebra import parse_poly
    from prymlab.morphism import quad_mumford_table
    from prymlab.mumford import EVEN_MUMFORD, mumford_bracket_table
    from prymlab.toda import toda_pencil_table
    for table in (quad_mumford_table(1, parse_poly("2,3")),
                  mumford_bracket_table(EVEN_MUMFORD, 1, parse_poly("1/2,-3")),
                  toda_pencil_table(parse_poly("-1/3,5/2"), 2)):
        _assert_kernel_matches_oracle(table)
        entries = [list(row) for row in table.entries]
        nvars = entries[0][0].nvars
        bump = MultiPoly(nvars, {(0,) * (nvars - 1) + (3,): F(1, 7)})
        entries[0][1] = entries[0][1] + bump
        entries[1][0] = entries[1][0] - bump
        _assert_kernel_matches_oracle(BracketTable(table.names, entries))


def test_jacobiator_constant_and_empty_tables():
    one, zero = MultiPoly.const(3, F(3, 5)), MultiPoly(3)
    table = BracketTable(["x", "y", "z"], [[zero, one, -one], [-one, zero, one], [one, -one, zero]])
    _assert_kernel_matches_oracle(table)
    assert table.jacobiator(0, 1, 2).terms == {}
    assert BracketTable([], []).jacobi_holds()


@st.composite
def bracket_tables(draw):
    nvars = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 4)] * nvars)
    coeff = st.one_of(st.integers(-4, 4), st.fractions(max_denominator=9))
    polys = st.builds(lambda t: MultiPoly(nvars, t),
                      st.dictionaries(expo, coeff, max_size=3))
    entries = [[draw(polys) for _ in range(nvars)] for _ in range(nvars)]
    return BracketTable([f"c{l}" for l in range(nvars)], entries)


@given(bracket_tables())
@settings(max_examples=60, deadline=None)
def test_jacobiator_matches_fraction_oracle_on_random_tables(table):
    _assert_kernel_matches_oracle(table)


def test_jacobi_holds_builds_each_gradient_once(monkeypatch):
    """One _PackedTable view per call keeps every gradient it builds."""
    builds = Counter()
    build = symbolic._PackedTable.gradient

    def counted(view, a, b):
        builds[a, b] += 1
        return build(view, a, b)

    monkeypatch.setattr(symbolic._PackedTable, "gradient", counted)
    table = quad_mumford_table(1, parse_poly("2,3"))
    assert table.jacobi_holds()
    assert builds and max(builds.values()) == 1
    assert all(0 <= a < table.dim and 0 <= b < table.dim for a, b in builds)

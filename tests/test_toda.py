"""Periodic lattice: Lax operator, invariants, brackets, hierarchy flows."""

import math
from fractions import Fraction as F

import pytest
from conftest import grid_polynomial, wide_toda_point
from dense_lax import (HLaurent, dense_traces, lax_matrix, mat_mul, mat_trace,
                       toda_tridiag)

from prymlab.algebra import Poly, integer_numerators, parse_poly, tridiag_minor_det
from prymlab.errors import InvariantError, ParseError
from prymlab.sampling import km_point, rng_from_seed, toda_point
from prymlab.symbolic import MultiPoly, integer_determinant
from prymlab import symbolic, toda
from prymlab.toda import (KMPoint, TodaPoint, char_poly, hierarchy_commutator,
                          km_even_split, km_even_split_symbolic, km_field,
                          km_field_symbolic, toda_bracket,
                          toda_bracket_table, toda_coordinate_names,
                          toda_flow, toda_integrals, toda_integrals_symbolic,
                          toda_pencil_table, toda_point_values)


# ---------------------------------------------------------------------------
# phase points and the Lax operator
# ---------------------------------------------------------------------------

def test_point_validation():
    with pytest.raises(InvariantError):
        TodaPoint((F(2), F(1)), (F(0), F(0)))  # product != 1
    with pytest.raises(InvariantError):
        KMPoint((F(0), F(1), F(1)))  # zero entry
    with pytest.raises(ParseError):
        KMPoint.from_json({"n": 3, "a": ["1", "1", "1"], "b": ["1", "0", "0"]})


def test_seeded_points_are_pinned():
    # the verify suites and the benchmark replay these draws from their seeds
    rng = rng_from_seed(7)
    assert toda_point(rng, 3) == TodaPoint((2, 7, F(1, 14)), (F(-7, 9), -1, 9))
    assert km_point(rng, 4) == KMPoint((F(9, 4), F(1, 2), 1, F(8, 9)))


def test_json_round_trip(rng):
    p = toda_point(rng, 4)
    assert TodaPoint.from_json(p.to_json()) == p
    q = km_point(rng, 5)
    assert KMPoint.from_json(q.to_json()) == q


def test_lax_shape_n3():
    L = lax_matrix(KMPoint((F(1), F(1), F(1))))
    assert L[0][1] == HLaurent.of(F(1)) and L[1][0] == HLaurent.of(F(1))
    assert L[0][2].parts == {-1: F(1)}
    assert L[2][0].parts == {1: F(1)}
    assert L[1][1].is_zero()


def test_lax_n5_display_shape(rng):
    p = km_point(rng, 5)
    L = lax_matrix(p)
    for i in range(4):
        assert L[i][i + 1] == HLaurent.of(p.a[i])
        assert L[i + 1][i] == HLaurent.of(F(1))
    assert L[4][0].parts == {1: p.a[4]}
    assert L[0][4].parts == {-1: F(1)}
    trace = mat_trace(L)
    assert trace.is_zero()  # b = 0


def test_trace_is_sum_of_b(rng):
    p = toda_point(rng, 4)
    assert mat_trace(lax_matrix(p)) == HLaurent.of(sum(p.b))


# ---------------------------------------------------------------------------
# spectral invariants
# ---------------------------------------------------------------------------

def test_integrals_h_free_and_first(rng):
    for n in range(3, 9):
        p = toda_point(rng, n)
        integrals = toda_integrals(p)  # raises on any h-dependence
        assert integrals[0] == sum(p.b)


@pytest.mark.parametrize("n", range(1, 9))
def test_integrals_match_dense_traces(rng, n):
    # n = 1, 2 make the band offsets wrap onto the diagonal
    for point in (toda_point(rng, n), km_point(rng, n).embed(), toda_point(rng, n)):
        traces = dense_traces(lax_matrix(point))
        expected = []
        for k, tr in enumerate(traces[:-1], start=1):
            assert set(tr.parts) <= {0}
            expected.append(F(tr.coefficient(0)) / k)
        assert traces[-1].coefficient(1) == traces[-1].coefficient(-1) == n
        expected.append(F(traces[-1].coefficient(0)) / n)
        got = toda_integrals(point)
        assert got == expected
        assert all(type(x) is F for x in got)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbolic_integrals_match_dense_traces(n):
    nv = 2 * n
    x = MultiPoly.variables(nv)
    dummy = TodaPoint((F(1),) * n, (F(0),) * n)
    traces = dense_traces(lax_matrix(dummy, values=(x[:n], x[n:])))
    got = toda_integrals_symbolic(n)
    for k, (tr, integral) in enumerate(zip(traces, got), start=1):
        expected = MultiPoly(nv) + tr.coefficient(0)
        assert integral.terms == (expected * F(1, k)).terms
        assert all(type(c) is F for c in integral.terms.values())


def test_km_even_integrals_vanish(rng):
    for n in range(3, 9):
        integrals = toda_integrals(km_point(rng, n).embed())
        for j in range(0, n, 2):
            assert integrals[j] == 0


def test_km5_integrals_are_K_and_L(rng):
    p = km_point(rng, 5)
    a = p.a
    K = sum(a)
    L = a[0] * a[2] + a[1] * a[3] + a[2] * a[4] + a[3] * a[0] + a[4] * a[1]
    integrals = toda_integrals(p.embed())
    assert integrals[1] == K
    assert integrals[3] == K * K / 2 - L


def test_char_poly_km3():
    K = char_poly(KMPoint((F(1), F(1), F(1))).embed())
    assert K == 2 * parse_poly("0,-3,0,1")


def test_char_poly_subleading(rng):
    for n in (3, 4, 5):
        p = toda_point(rng, n)
        assert F(char_poly(p).coeff(n - 1), 2) == -sum(p.b)


def test_char_poly_km5_spectral_curve(rng):
    p = km_point(rng, 5)
    K = sum(p.a)
    a = p.a
    L = a[0] * a[2] + a[1] * a[3] + a[2] * a[4] + a[3] * a[0] + a[4] * a[1]
    # h + 1/h = x^5 - K x^3 + L x, so K(x) = 2(x^5 - K x^3 + L x)
    assert char_poly(p.embed()) == Poly([0, 2 * L, 0, -2 * K, 0, 2])


def _x_minus_lax(point):
    """x Id - L(h) with HLaurent entries over Poly in x."""
    x = Poly([F(0), F(1)])
    lax = lax_matrix(point)
    return [[HLaurent({k: Poly([-v]) for k, v in entry.parts.items()})
             + (HLaurent.of(x) if i == j else HLaurent())
             for j, entry in enumerate(row)] for i, row in enumerate(lax)]


@pytest.mark.parametrize("point", [TodaPoint((F(1),), (F(3),)),
                                   TodaPoint((F(2), F(1, 2)), (F(1), F(-1, 3)))])
def test_char_poly_degree_bound_at_small_n(point):
    """At n = 1 both h corners share one entry; the grid check still needs
    h det(x Id - L(h)) of degree <= 2 in h and <= n in x."""
    M = _x_minus_lax(point)
    det = M[0][0] if point.n == 1 else M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert set(det.parts) <= {-1, 0, 1}
    assert all(v.degree <= point.n for v in det.parts.values())
    half_k = Poly([c / 2 for c in char_poly(point).coeffs])
    assert det == HLaurent({-1: Poly([F(-1)]), 1: Poly([F(-1)]), 0: half_k})


def test_char_poly_check_catches_a_wrong_k(monkeypatch, rng):
    point = toda_point(rng, 5)
    exact = toda.char_coeffs

    def wrong(a, b, zero):
        coeffs = exact(a, b, zero)
        coeffs[1] += F(1, 7)
        return coeffs

    monkeypatch.setattr(toda, "char_coeffs", wrong)
    with pytest.raises(InvariantError) as err:
        char_poly(point)
    assert err.value.invariant == "char-poly"


def test_char_poly_check_sees_the_h_profile(monkeypatch, rng):
    """Moving h^-1 to h in the corner changes nothing at h = 1; only the
    other grid values of h can see it."""
    point = toda_point(rng, 5)
    exact = toda._lax_at

    def moved(p, h):
        L = exact(p, h)
        L[0][p.n - 1] += h - F(1, h)
        return L

    monkeypatch.setattr(toda, "_lax_at", moved)
    with pytest.raises(InvariantError) as err:
        char_poly(point)
    assert err.value.invariant == "char-poly"


def _record_char_poly_checks(monkeypatch):
    """Route charpoly_mismatch's determinant and q evaluation through
    recorders; returns its log of (matrix, k), one entry per h checked."""
    log = []
    det, at = symbolic.integer_determinant, symbolic.at_two_power

    def recording_det(rows):
        log.append([[row[:] for row in rows]])
        return det(rows)

    def recording_at(coeffs, k):
        log[-1].append(k)
        return at(coeffs, k)

    monkeypatch.setattr(symbolic, "integer_determinant", recording_det)
    monkeypatch.setattr(symbolic, "at_two_power", recording_at)
    return log


def test_char_poly_check_k_bounds_both_sides(monkeypatch, rng):
    """Both sides of det(diag(d) (x Id - L(h))) k_den h
    = P (k_nums(x) h - (h^2 + 1) k_den), the determinant by today's grid of
    x = 0..n and interpolation, have every coefficient below 2^k for the k
    that symbolic.charpoly_mismatch picks for char_poly: on random points,
    n = 24, entries up to 10^30, and wrong K's: one 10^30 times too small,
    whose denominator scales only the determinant side, one 10^30 times
    too large, one moved by 10^-30, and K = 0."""
    points = [toda_point(rng, n) for n in range(1, 9)] + [km_point(rng, n).embed() for n in (3, 6)]
    points += [toda_point(rng, 24)] + [wide_toda_point(rng, n) for n in (2, 4, 6)]
    points.append(TodaPoint((F(1),), (F(0),)))  # L(1) = [2]: K = 0 needs the (h^2 + 1) term
    exact = toda.char_coeffs
    wrongs = [None, lambda c: [x * F(1, 10**30) for x in c], lambda c: [x * 10**30 for x in c],
              lambda c: [x + F(1, 10**30 + 7) for x in c], lambda c: [0 * x for x in c]]
    for wrong in wrongs:
        monkeypatch.setattr(toda, "char_coeffs",
                            exact if wrong is None else lambda a, b, z: wrong(exact(a, b, z)))
        for point in points:
            log = _record_char_poly_checks(monkeypatch)
            try:
                char_poly(point)
            except InvariantError as exc:
                assert wrong is not None and exc.invariant == "char-poly"
            assert len(log) == (3 if wrong is None else 1)
            k_nums, k_den = integer_numerators(toda.char_coeffs(point.a, point.b, F(0)))
            n = point.n
            for h, (matrix, k) in zip((1, -1, 2), log):
                rows, dens = zip(*(integer_numerators(row) for row in toda._lax_at(point, h)))
                assert matrix == [[c - (d << k) * (i == j) for j, c in enumerate(row)]
                                  for i, (d, row) in enumerate(zip(dens, rows))]
                dets = [integer_determinant([[d * x * (i == j) - c for j, c in enumerate(row)]
                                             for i, (d, row) in enumerate(zip(dens, rows))])
                        for x in range(n + 1)]
                lhs = Poly(grid_polynomial(dets)) * (k_den * h)
                rhs = (Poly(k_nums) * h - Poly([(h * h + 1) * k_den])) * math.prod(dens)
                assert all(abs(lhs.coeff(j)) + abs(rhs.coeff(j)) < 1 << k for j in range(n + 1))


def test_char_poly_check_names_the_lowest_failing_power(monkeypatch, rng):
    # K/2 + c x^j moves q by a multiple of x^j: first at x^j, seen at h = 1
    point = toda_point(rng, 5)
    exact = toda.char_coeffs
    for j in range(5):
        def wrong(a, b, zero):
            coeffs = exact(a, b, zero)
            coeffs[j] += F(2, 3)
            return coeffs

        monkeypatch.setattr(toda, "char_coeffs", wrong)
        with pytest.raises(InvariantError) as err:
            char_poly(point)
        assert err.value.invariant == "char-poly"
        assert str(err.value).endswith(f"at h = 1 (first at x^{j})")


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_bracket_values(rng):
    p = toda_point(rng, 4)
    assert toda_bracket("linear", 1, 1, "ab", p) == p.a[0]
    assert toda_bracket("linear", 1, 2, "ab", p) == -p.a[0]
    assert toda_bracket("linear", 1, 3, "aa", p) == 0
    assert toda_bracket("km", 1, 2, "aa", p) == -p.a[0] * p.a[1]
    assert toda_bracket("km", 2, 1, "aa", p) == p.a[0] * p.a[1]
    with pytest.raises(InvariantError):
        toda_bracket("km", 1, 1, "ab", p)
    for which in ("aa", "ab", "bb"):  # an unknown kind is not read as quadratic
        with pytest.raises(InvariantError) as err:
            toda_bracket("foo", 1, 2, which, p)
        assert err.value.invariant == "bracket-kind"


# the entry of a lattice table that toda_bracket(kind, i, j, which, .) reads
_BLOCKS = {"aa": (0, 0), "ab": (0, 1), "bb": (1, 1)}
_WHICH = {"linear": ("aa", "ab", "bb"), "quadratic": ("aa", "ab", "bb"), "km": ("aa",)}


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", ["linear", "quadratic", "km"])
def test_bracket_matches_every_table_entry(rng, kind, n):
    point = km_point(rng, n) if kind == "km" else toda_point(rng, n)
    values = list(point.a) if kind == "km" else list(point.a) + list(point.b)
    matrix = toda_bracket_table(kind, n).at(values)
    for which, (row_block, col_block) in _BLOCKS.items():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if which not in _WHICH[kind]:
                    with pytest.raises(InvariantError) as err:
                        toda_bracket(kind, i, j, which, point)
                    assert err.value.invariant == "bracket-kind"
                    continue
                entry = matrix[row_block * n + i - 1][col_block * n + j - 1]
                assert toda_bracket(kind, i, j, which, point) == entry, (kind, n, which, i, j)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bracket_tables_jacobi(n):
    for kind in ("linear", "quadratic", "km"):
        table = toda_bracket_table(kind, n)
        assert not table.antisymmetry_defects(), (kind, n)
        assert table.jacobi_holds(), (kind, n)


def test_pencil_compatibility():
    # any member of the pencil satisfies Jacobi
    for phi_text in ("1,1", "2,3", "-1,5"):
        assert toda_pencil_table(parse_poly(phi_text), 4).jacobi_holds()
    with pytest.raises(InvariantError):
        toda_pencil_table(parse_poly("0,0,1"), 3)


def test_I0_is_linear_casimir():
    n = 4
    table = toda_bracket_table("linear", n)
    I0 = toda_integrals_symbolic(n)[0]
    for c in range(2 * n):
        assert table.poisson_bracket(I0, MultiPoly.var(2 * n, c)).is_zero()


def test_detL_is_quadratic_casimir():
    # the h^0 part of det L(h) is (up to sign) K(0)/2 = Delta(0) - a_n D1n(0)
    n = 4
    nv = 2 * n
    a = [MultiPoly.var(nv, i) for i in range(n)]
    b = [MultiPoly.var(nv, n + i) for i in range(n)]
    bands = [-ai * MultiPoly.const(nv, -1) for ai in a[:-1]]  # sup_i sub_i
    k0 = (tridiag_minor_det(b, bands).coeff(0)
          - a[-1] * tridiag_minor_det(b, bands, [1, n]).coeff(0))
    table = toda_bracket_table("quadratic", n)
    for c in range(2 * n):
        assert table.poisson_bracket(k0, MultiPoly.var(nv, c)).is_zero()


def test_integrals_pairwise_involutive(rng):
    for n in (3, 4, 5):
        point = toda_point(rng, n)
        values = toda_point_values(point)
        integrals = toda_integrals_symbolic(n)
        for kind in ("linear", "quadratic"):
            table = toda_bracket_table(kind, n)
            matrix = table.at(values)
            grads = [[I.diff(k).eval(values) for k in range(2 * n)]
                     for I in integrals]
            for i in range(n):
                for j in range(i + 1, n):
                    val = sum(grads[i][k] * grads[j][l] * matrix[k][l]
                              for k in range(2 * n) for l in range(2 * n))
                    assert val == 0, (n, kind, i, j)


# ---------------------------------------------------------------------------
# hierarchy flows
# ---------------------------------------------------------------------------

def test_flow_equals_linear_hamiltonian_field(rng):
    for n in (3, 4):
        point = toda_point(rng, n)
        values = toda_point_values(point)
        table = toda_bracket_table("linear", n)
        integrals = toda_integrals_symbolic(n)
        for i in range(1, n):
            da, db = toda_flow(point, i)
            assert table.hamiltonian_field(integrals[i], values) == da + db


def test_km_slice_is_the_even_part_of_the_hierarchy(rng):
    # X_2 restricts to the basic Volterra field on b = 0; X_1 does not,
    # and in general only the even-index fields are tangent to the slice
    p = km_point(rng, 5).embed()
    da1, db1 = toda_flow(p, 1)
    assert all(x == 0 for x in da1) and any(x != 0 for x in db1)
    da2, db2 = toda_flow(p, 2)
    assert db2 == [F(0)] * 5
    assert da2 == km_field(p.a)
    p6 = km_point(rng, 6).embed()
    for i in range(1, 6):
        _, db = toda_flow(p6, i)
        assert (all(x == 0 for x in db)) == (i % 2 == 0)


def test_flow_preserves_constraint_and_spectrum(rng):
    n = 4
    point = toda_point(rng, n)
    values = toda_point_values(point)
    # symbolic K(x) coefficients for the gradient
    nv = 2 * n
    a = [MultiPoly.var(nv, i) for i in range(n)]
    b = [MultiPoly.var(nv, n + i) for i in range(n)]
    bands = [-ai * MultiPoly.const(nv, -1) for ai in a[:-1]]  # sup_i sub_i
    k_sym = tridiag_minor_det(b, bands) - Poly([a[-1]]) * tridiag_minor_det(b, bands, [1, n])
    for i in range(1, n):
        da, db = toda_flow(point, i)
        tangent = da + db
        assert sum(d / x0 for d, x0 in zip(da, point.a)) == 0
        for coeff_index in range(k_sym.degree + 1):
            coeff = k_sym.coeff(coeff_index)
            if isinstance(coeff, int):
                continue
            rate = sum(coeff.diff(k).eval(values) * tangent[k] for k in range(nv))
            assert rate == 0, (i, coeff_index)


def test_fixed_point_of_km_field():
    assert km_field([F(1)] * 5) == [F(0)] * 5


def test_flow_index_bounds(rng):
    with pytest.raises(InvariantError):
        toda_flow(toda_point(rng, 4), 4)


def test_shift_equivariance(rng):
    p = toda_point(rng, 5)
    assert toda_integrals(p.shift()) == toda_integrals(p)
    assert char_poly(p.shift()) == char_poly(p)
    for i in (1, 2):
        da, db = toda_flow(p, i)
        das, dbs = toda_flow(p.shift(), i)
        assert das == da[1:] + da[:1]
        assert dbs == db[1:] + db[:1]


def _dense_commutator(point, i):
    """[L, (L^i)_+] from dense HLaurent matrices; the plus part keeps the
    h^{>0} parts and the strictly upper h^0 part."""
    n = point.n
    L = lax_matrix(point)
    power = L
    for _ in range(i - 1):
        power = mat_mul(power, L)
    plus = [[HLaurent({k: v for k, v in power[r][c].parts.items()
                       if k > 0 or (k == 0 and c > r)})
             for c in range(n)] for r in range(n)]
    LP, PL = mat_mul(L, plus), mat_mul(plus, L)
    return [[LP[r][c] - PL[r][c] for c in range(n)] for r in range(n)]


@pytest.mark.parametrize("n", range(2, 9))
def test_band_commutator_matches_dense(rng, n):
    # n = 2, 3 make the band offsets wrap onto the same columns
    point = toda_point(rng, n)
    for i in range(1, n):
        dense = _dense_commutator(point, i)
        band = [[HLaurent() for _ in range(n)] for _ in range(n)]
        for d, diagonal in hierarchy_commutator(point.a, point.b, i).items():
            for r, v in enumerate(diagonal):
                c = (r + d) % n
                band[r][c] = band[r][c] + HLaurent({(r + d) // n: v})
        assert band == dense, (n, i)
        da, db = toda_flow(point, i)
        assert all(type(x) is F for x in da + db)
        assert db == [dense[r][r].coefficient(0) for r in range(n)]
        assert da == [dense[r][(r + 1) % n].coefficient(1 if r == n - 1 else 0)
                      for r in range(n)]


def _signed_point(rng, n, a_dens, b_dens):
    """A point with mixed signs whose a (b) entries have denominators only
    when a_dens (b_dens); an integral a with product 1 is +-1 throughout."""
    a = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9)) if a_dens
         else F(rng.choice([-1, 1])) for _ in range(n - 1)]
    prod = F(1)
    for x in a:
        prod *= x
    b = [F(rng.randint(-9, 9), rng.randint(2, 9) if b_dens else 1) for _ in range(n)]
    return TodaPoint(tuple(a + [1 / prod]), tuple(b))


def test_flow_matches_the_fraction_commutator(rng):
    # toda_flow runs on the weight-scaled ints d^2 a, d b; the route it
    # replaces evaluates the commutator on the Fraction point itself
    for n in range(2, 13):
        for a_dens, b_dens in ((True, False), (False, True), (True, True)):
            point = _signed_point(rng, n, a_dens, b_dens)
            assert any(x < 0 for x in point.a + point.b)
            for i in range(1, n):
                C = hierarchy_commutator(point.a, point.b, i)
                da, db = toda_flow(point, i)
                assert (da, db) == (C[1], C[0]), (n, i)
                assert all(type(x) is F for x in da + db)
                if n <= 6:  # offset k of the band has weight k + 1
                    scaled = hierarchy_commutator([9 * x for x in point.a],
                                                  [3 * x for x in point.b], i)
                    assert scaled == {k: [3 ** (k + i + 1) * x for x in v] for k, v in C.items()}


def test_flow_raises_on_a_leaking_commutator(rng, monkeypatch):
    exact = toda.hierarchy_commutator

    def leaky(a, b, i):
        C = exact(a, b, i)
        C[2][2] += 1
        return C

    monkeypatch.setattr(toda, "hierarchy_commutator", leaky)
    with pytest.raises(InvariantError) as caught:
        toda_flow(toda_point(rng, 4), 2)
    assert caught.value.invariant == "lax-shape"
    assert "entry (3,1) h^1" in str(caught.value)


# ---------------------------------------------------------------------------
# the even-n alternating products
# ---------------------------------------------------------------------------

def test_km_even_split_values():
    point = KMPoint((F(2), F(1, 2), F(1), F(1)))
    assert km_even_split(point) == (F(2), F(1, 2))
    ones = KMPoint((F(1),) * 4)
    assert km_even_split(ones) == (F(1), F(1))
    for odd_n in (lambda: km_even_split(KMPoint((F(1),) * 5)),
                  lambda: km_even_split_symbolic(5)):
        with pytest.raises(InvariantError):
            odd_n()


@pytest.mark.parametrize("n", [4, 6])
def test_km_even_split_conserved_symbolically(n):
    p_odd, p_even = km_even_split_symbolic(n)
    assert p_odd * p_even == _full_product(n)
    field = km_field_symbolic(n)
    for product in (p_odd, p_even):
        rate = MultiPoly(n)
        for i in range(n):
            rate = rate + product.diff(i) * field[i]
        assert rate.is_zero()


def _full_product(n):
    out = MultiPoly.const(n, 1)
    for v in MultiPoly.variables(n):
        out = out * v
    return out


def test_toda_tridiag_matches_names(rng):
    p = toda_point(rng, 3)
    b, c = toda_tridiag(p)
    assert tridiag_minor_det(b, c, [1, 2, 3]) == Poly([F(1)])
    assert toda_coordinate_names(2) == ["a1", "a2", "b1", "b2"]


@pytest.mark.parametrize("kind", ["linear", "quadratic", "km"])
@pytest.mark.parametrize("n", [0, -1])
def test_bracket_table_rejects_empty_lattice(kind, n):
    with pytest.raises(InvariantError) as err:
        toda_bracket_table(kind, n)
    assert err.value.invariant == "size"

"""Balance combinatorics, Kowalevski spectra and the Laurent solver."""

from fractions import Fraction as F

import dataclasses
import gc
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import fraction_rref, grid_polynomial, typed_series, wide_rational
from hypothesis import given, settings
from hypothesis import strategies as st

from prymlab import painleve, symbolic
from prymlab.algebra import LaurentSeries, Poly, integer_numerators
from prymlab.errors import InvariantError, ResonanceError
from prymlab.painleve import (MAX_N, MAX_ORDER, Balance, c_block, check_spectrum, cyclic_runs,
                              free_slots, indicial_solutions, km_residual, kowalevski,
                              kowalevski_matrix, laurent_balance, make_balance, sigma_bits,
                              sigma_enum, sigma_enum_brute, slot_name)
from prymlab.sampling import rational, rng_from_seed
from prymlab.symbolic import integer_determinant, pivot_columns, solve_affine
from prymlab.toda import km_field

PRINCIPAL_PARAMS = {"a2.1": F(1), "a4.1": F(1, 6), "a3.2": F(3), "a5.2": F(2)}
# non-integral leading coefficients; they do not solve the indicial equation
NON_INTEGRAL = (F(-1, 2), F(3, 2), F(0), F(0))
# a leading configuration that violates the indicial equation
BOGUS = (F(-2), F(0), F(2))


# ---------------------------------------------------------------------------
# Sigma_n
# ---------------------------------------------------------------------------

def test_sigma_small_counts():
    assert len(sigma_enum(5)) == 11
    s4 = sigma_enum(4)
    assert len(s4) == 6 and (1, 2, 3, 4) in s4
    for n in range(3, 10):
        assert (1, 2) in sigma_enum(n)


@pytest.mark.parametrize("n", list(range(2, 17)))
def test_sigma_matches_brute_force(n):
    assert sigma_enum(n) == sigma_enum_brute(n)


def test_sigma_enum_leaves_no_garbage_for_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        sigma_enum(12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_sigma_counts_are_lucas_numbers():
    # An independent count.  Tilings of an n-cycle by "0" cells and "11"
    # dominoes number tr [[1, 1], [1, 0]]^n = L_n.  A word of Sigma_n with an
    # empty cell has exactly one tiling (each even run splits into dominoes
    # from its start); the full circle, in Sigma_n for even n, has two.
    assert [_lucas(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    for n in range(2, 21):
        assert len(sigma_enum(n)) == _lucas(n) - (n % 2 == 0)
    for n in range(2, 17):
        assert len(sigma_enum_brute(n)) == _lucas(n) - (n % 2 == 0)
    assert len(sigma_enum(20)) == 15126  # the figure in MAX_N's comment


def test_sigma_bit_test_matches_cyclic_runs():
    # the definition: every maximal cyclic run has even length
    for n in range(1, 13):
        bits = sigma_bits(n)
        assert bits >> (1 << n) == 0
        for mask in range(1 << n):
            subset = tuple(i + 1 for i in range(n) if mask >> i & 1)
            even = all(len(run) % 2 == 0 for run in cyclic_runs(subset, n))
            assert (bits >> mask & 1) == even, (n, subset)


@pytest.mark.parametrize("call", [
    lambda n: sigma_enum(n), lambda n: indicial_solutions(n),
    lambda n: make_balance(n, (1, 2)), lambda n: kowalevski(n, (1, 2))])
def test_painleve_size_bound_is_checked_first(call):
    tracemalloc.start()
    try:
        with pytest.raises(InvariantError) as err:
            call(MAX_N + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.invariant == "size"
    assert peak < 100_000  # nothing of size |Sigma_n| or n^2 was built


def test_cyclic_runs():
    assert cyclic_runs((5, 1, 2), 5) == [[5, 1, 2]]
    assert cyclic_runs((1, 2, 4, 5), 6) == [[1, 2], [4, 5]]
    assert cyclic_runs(range(1, 5), 4) == [[1, 2, 3, 4]]
    assert cyclic_runs((1, 2), 5) == [[1, 2]] and cyclic_runs((1, 2, 3), 5) == [[1, 2, 3]]


# ---------------------------------------------------------------------------
# indicial solutions
# ---------------------------------------------------------------------------

def test_indicial_patterns():
    balances = {b.A: b for b in indicial_solutions(5)}
    assert len(balances) == 11
    assert balances[(1, 2)].alpha == (-1, 1, 0, 0, 0)
    assert balances[(1, 2)].r == (1, 1, -1, 0, -1)
    assert balances[(1, 2, 3, 4)].alpha == (-2, 1, -1, 2, 0)
    assert balances[()].alpha == (0,) * 5


def test_indicial_equation_holds_exactly():
    for balance in indicial_solutions(6):
        n = balance.n
        for i in range(n):
            a = balance.alpha
            assert -a[i] * 1 == a[i] * (a[(i - 1) % n] - a[(i + 1) % n]) or a[i] == 0
            assert balance.r[i] == a[(i + 1) % n] - a[(i - 1) % n]


def test_indicial_solutions_are_every_solution_in_a_box():
    """Oracle: every alpha in {-3..3}^n solving the indicial equation (the box
    holds every solution for n <= 6, as |alpha_i| <= n / 2) is the alpha of
    exactly one balance; Balance accepts it, keeps it as ints and reads A and r
    off it."""
    for n in range(3, 7):
        found = {alpha for alpha in itertools.product(range(-3, 4), repeat=n)
                 if km_field(alpha) == [-a for a in alpha]}
        balances = indicial_solutions(n)
        assert found == {b.alpha for b in balances} and len(found) == len(balances)
        for b in balances:
            again = Balance(tuple(map(F, b.alpha)))
            assert again == b and all(type(x) is int for x in again.alpha + again.r)
            assert again.A == tuple(i + 1 for i in range(n) if b.alpha[i])


def test_balance_refuses_alpha_off_the_indicial_equation():
    # every half-integer alpha at n <= 4, then the two hand-built fixtures
    refused = 0
    for n in (3, 4):
        for twice in itertools.product(range(-6, 7), repeat=n):
            if any(x % 2 for x in twice):
                with pytest.raises(InvariantError) as err:
                    Balance(tuple(F(x, 2) for x in twice))
                assert err.value.invariant == "indicial"
                refused += 1
    assert refused == 13 ** 3 - 7 ** 3 + 13 ** 4 - 7 ** 4
    for alpha, cell in ((NON_INTEGRAL, 1), (BOGUS, 1)):
        with pytest.raises(InvariantError) as err:
            Balance(alpha)
        assert (err.value.invariant, str(err.value)) \
            == ("indicial", f"alpha fails the indicial equation at {cell}")
    with pytest.raises(TypeError):
        Balance(3, (1, 2), (-1, 1, 0), (1, 1, -1))  # alpha alone, nothing read off it


def test_full_circle_excluded_only_from_indicial():
    assert tuple(range(1, 7)) in sigma_enum(6)
    assert all(len(b.A) < 6 for b in indicial_solutions(6))
    with pytest.raises(InvariantError):
        make_balance(6, range(1, 7))


def test_odd_runs_rejected():
    with pytest.raises(InvariantError):
        make_balance(5, (1, 2, 3))


# ---------------------------------------------------------------------------
# Kowalevski spectra
# ---------------------------------------------------------------------------

def test_kowalevski_principal_n5():
    report = kowalevski(5, (1, 2))
    assert report.spectrum == (-1, 1, 1, 2, 2)
    assert report.nonneg_count == 4
    payload = report.to_json()
    assert payload["nonneg_count"] == 4 and payload["A"] == [1, 2]


def test_c_block_spectra():
    # the run block of order l has spectrum {-l..-1, 1..l}, proven on the
    # lambda grid; moving one eigenvalue is caught, and so is trading
    # (-1, 2) for (-2, 1), which keeps the determinant (lambda = 0)
    for l in range(1, 6):
        spectrum = list(range(-l, 0)) + list(range(1, l + 1))
        check_spectrum(c_block(l), spectrum)
        wrong = [spectrum[:-1] + [l + 1]]
        if l > 1:
            wrong.append([{-1: -2, 2: 1}.get(e, e) for e in spectrum])
        for bad in wrong:
            with pytest.raises(InvariantError) as err:
                check_spectrum(c_block(l), bad)
            assert err.value.invariant == "kowalevski-spectrum"


def test_report_with_a_wrong_eigenvalue_raises():
    report = kowalevski(7, (1, 2, 4, 5))
    spectrum = list(report.spectrum)
    spectrum[0] += 1
    for wrong in (spectrum, spectrum[1:], spectrum + [0]):
        with pytest.raises(InvariantError) as err:
            dataclasses.replace(report, spectrum=tuple(wrong))
        assert err.value.invariant == "kowalevski-spectrum"
    # (0 - lam)(2 - lam) agrees with det([[0]] - lam Id) at lam = 0, 1:
    # only the length check rejects it
    with pytest.raises(InvariantError) as err:
        check_spectrum([[F(0)]], [0, 2])
    assert err.value.invariant == "kowalevski-spectrum"


def test_kowalevski_counts_sweep():
    for n in (3, 6, 9):
        for A in sigma_enum(n):
            if len(A) == n:
                continue
            report = kowalevski(n, A)
            assert report.nonneg_count == n - len(A) // 2
            matrix = np.array([[float(x) for x in row] for row in report.matrix])
            eig = np.sort_complex(np.linalg.eigvals(matrix))
            expected = np.sort_complex(np.array([complex(e) for e in report.spectrum]))
            assert np.max(np.abs(eig - expected)) < 1e-8


def test_kowalevski_rejects_bad_sets():
    all_poles = "the all-poles set supports no Laurent solution"
    cases = [(5, (1, 2, 3), "sigma", "(1, 2, 3) is not in Sigma_5"),
             (5, range(1, 6), "sigma", "(1, 2, 3, 4, 5) is not in Sigma_5"),
             (4, range(1, 5), "all-poles", all_poles),
             (6, range(1, 7), "all-poles", all_poles)]
    for build in (make_balance, kowalevski):
        for n, A, invariant, message in cases:
            with pytest.raises(InvariantError) as err:
                build(n, A)
            assert (err.value.invariant, str(err.value)) == (invariant, message)


def _spectrum_cases(rng):
    """(matrix, spectrum) pairs, right and wrong: balances at n <= 10 and
    n = 24, the run blocks up to l = 5, a non-integral matrix, zero
    matrices, and random matrices and rational spectra with entries up to
    10^30."""
    cases = []
    for n, count in ((3, 3), (7, 4), (10, 3), (24, 1)):
        for A in rng.sample([A for A in sigma_enum(n) if len(A) < n], count):
            report = kowalevski(n, A)
            cases.append((report.matrix, report.spectrum))
    for l in range(1, 6):
        spectrum = list(range(-l, 0)) + list(range(1, l + 1))
        cases += [(c_block(l), spectrum), (c_block(l), spectrum[:-1] + [l + 1])]
    cases.append(([[0, F(1, 2), 0, F(-1, 2)], [F(3, 2), 0, F(-3, 2), 0], [0, 0, 2, 0],
                   [0, 0, 0, 1]], [F(1, 2), 1, 2, -1]))
    # zero rows: only the shift's own term bounds the top coefficient
    cases += [([[F(0)] * n for _ in range(n)], [0] * n) for n in (1, 3)]
    for n in (1, 2, 4, 6):
        matrix = [[wide_rational(rng) for _ in range(n)] for _ in range(n)]
        cases.append((matrix, [rng.randint(-10**30, 10**30) for _ in range(n)]))
        cases.append((matrix, [wide_rational(rng) for _ in range(n)]))
    return cases


def test_spectrum_check_k_bounds_both_sides(monkeypatch, rng):
    """Both sides of E^n det(diag(d) (lam Id - M)) = P prod(E lam - f_i),
    the determinant by today's grid of lam = 0..n and interpolation, have
    every coefficient below 2^k for the k that symbolic.charpoly_mismatch
    picks for check_spectrum."""
    log = []
    det, at = symbolic.integer_determinant, symbolic.at_two_power

    def recording_det(rows):
        log.append([row[:] for row in rows])
        return det(rows)

    def recording_at(coeffs, k):
        log.append(k)
        return at(coeffs, k)

    monkeypatch.setattr(symbolic, "integer_determinant", recording_det)
    monkeypatch.setattr(symbolic, "at_two_power", recording_at)
    for matrix, spectrum in _spectrum_cases(rng):
        log.clear()
        try:
            check_spectrum(matrix, spectrum)
        except InvariantError as exc:
            assert exc.invariant == "kowalevski-spectrum"
        n = len(matrix)
        rows, dens = zip(*(integer_numerators(row) for row in matrix))
        f, E = integer_numerators(spectrum)
        shifted, k = log
        assert shifted == [[c - (d << k) * (i == j) for j, c in enumerate(row)]
                           for i, (d, row) in enumerate(zip(dens, rows))]
        dets = [integer_determinant([[d * lam * (i == j) - c for j, c in enumerate(row)]
                                     for i, (d, row) in enumerate(zip(dens, rows))])
                for lam in range(n + 1)]
        lhs = Poly(grid_polynomial(dets)) * E ** n
        rhs = Poly([math.prod(dens)])
        for c in f:
            rhs = rhs * Poly([-c, E])
        assert all(abs(lhs.coeff(j)) + abs(rhs.coeff(j)) < 1 << k for j in range(n + 1))


def test_spectrum_check_names_the_lowest_failing_power():
    # (-1 - lam)(2 - lam) against (-2 - lam)(1 - lam) differ by -2 lam, and
    # the rest of the run block's spectrum has no zero: first at lam^1
    trade = [{-1: -2, 2: 1}.get(e, e) for e in (-2, -1, 1, 2)]
    # moving the top eigenvalue changes det(M): first at lam^0
    moved = [-2, -1, 1, 3]
    # det(diag(0, 0, 5) - lam Id) = 5 lam^2 - lam^3 against -lam^3
    cases = [(c_block(2), trade, 1), (c_block(2), moved, 0),
             ([[F(0)] * 3, [F(0)] * 3, [F(0), F(0), F(5)]], [0, 0, 0], 2)]
    for matrix, spectrum, power in cases:
        with pytest.raises(InvariantError) as err:
            check_spectrum(matrix, spectrum)
        assert err.value.invariant == "kowalevski-spectrum"
        assert str(err.value).endswith(f"(first at lam^{power})")


# ---------------------------------------------------------------------------
# Laurent solutions
# ---------------------------------------------------------------------------

def test_principal_balance_closed_forms():
    balance = make_balance(5, (1, 2))
    al, de, ga, be = (PRINCIPAL_PARAMS["a2.1"], PRINCIPAL_PARAMS["a4.1"],
                      PRINCIPAL_PARAMS["a3.2"], PRINCIPAL_PARAMS["a5.2"])
    series = laurent_balance(5, balance, PRINCIPAL_PARAMS, 4)
    a1, a2, a3, a4, a5 = series
    assert a1.coefficient(-1) == -1 and a2.coefficient(-1) == 1
    assert a1.coefficient(0) == al and a2.coefficient(0) == al
    assert a1.coefficient(1) == -(al * al + 2 * be + ga) / 3
    assert a2.coefficient(1) == (al * al - be - 2 * ga) / 3
    assert a3.coefficient(1) == ga and a4.coefficient(0) == de
    assert a5.coefficient(1) == be


def test_residual_vanishes_through_window():
    balance = make_balance(5, (1, 2))
    series = laurent_balance(5, balance, PRINCIPAL_PARAMS, 12)
    for r in km_residual(series):
        assert r.known_through() >= 10
        assert r.is_zero_through(10)


def test_taylor_balance_is_initial_value_data():
    balance = make_balance(4, ())
    params = {slot_name(i, 1): F(i) for i in range(1, 5)}
    series = laurent_balance(4, balance, params, 6)
    for i, s in enumerate(series, start=1):
        assert s.coefficient(0) == i and s.pole_order() == 0
    for r in km_residual(series):
        assert r.is_zero_through(r.known_through())


def _generic_km_residual(series):
    """The residual by the series' generic arithmetic: the oracle."""
    n = len(series)
    return [series[i].derivative() - series[i] * (series[i - 1] - series[(i + 1) % n])
            for i in range(n)]


def _check_km_residual(series):
    """km_residual against the oracle: windows and values."""
    for got, want in zip(km_residual(series), _generic_km_residual(series)):
        assert (got.lo, got.coeffs, got.hi) == (want.lo, want.coeffs, want.hi)


@given(st.lists(typed_series(), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_km_residual_matches_the_generic_expression(series):
    _check_km_residual(series)


def test_km_residual_matches_the_generic_expression_on_balances(rng):
    # every balance for n = 3..8 at order 12, and the same series with one
    # coefficient a_j^(e) moved by c: residual j then gains c (e + r_j) at
    # t^(e-1), so it no longer vanishes
    order = 12
    for n in range(3, 9):
        for balance in indicial_solutions(n):
            params = {name: F(rng.randint(-9, 9), rng.randint(1, 9))
                      for name in free_slots(n, balance, order)}
            series = laurent_balance(n, balance, params, order)
            _check_km_residual(series)
            j = rng.randrange(n)
            e = rng.choice([e for e in range(1, order) if e != -balance.r[j]])
            series[j] = series[j] + LaurentSeries(e, [F(rng.randint(1, 5), rng.randint(1, 7))],
                                                  order - 1)
            _check_km_residual(series)
            assert not km_residual(series)[j].is_zero_through(order - 2)


def test_vanishing_km_residual_builds_no_fraction(monkeypatch):
    cases = [laurent_balance(6, balance, {name: F(1, 3) for name in free_slots(6, balance, 12)}, 12)
             for balance in indicial_solutions(6)]
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    residuals = [km_residual(series) for series in cases]
    fraction_free = len(built)
    _generic_km_residual(cases[0])  # the counter sees the generic route's Fractions
    monkeypatch.undo()
    assert fraction_free == 0 and len(built) > 0
    assert all(r.is_zero_through(10) for rs in residuals for r in rs)


def test_free_slot_count_equals_nonneg_eigenvalues():
    for n in (5, 6):
        for balance in indicial_solutions(n):
            assert len(free_slots(n, balance, 12)) \
                == kowalevski(n, balance.A).nonneg_count


def _solve_affine_free_slots(n, balance, through_order):
    """Free slots from the free columns of a full solve of (k Id - M) x = 0."""
    M = kowalevski_matrix(balance)
    names = []
    for k in range(1, through_order + 1):
        system = [[(k if i == j else 0) - c for j, c in enumerate(row)]
                  for i, row in enumerate(M)]
        rows = [integer_numerators(row + [0])[0] for row in system]
        names.extend(slot_name(c + 1, k) for c in solve_affine(rows).free_columns)
    return names


def test_free_slots_match_a_full_solve():
    for n in range(3, 9):
        for balance in indicial_solutions(n):
            assert free_slots(n, balance, 12) == _solve_affine_free_slots(n, balance, 12)


def test_free_slots_refuse_a_balance_of_another_size():
    """A balance on n cells names slots of no other lattice: larger n would
    get slots for cells that do not exist, smaller n would lose some."""
    balance = make_balance(4, (1, 2))
    for n in (3, 6):
        with pytest.raises(InvariantError) as err:
            free_slots(n, balance, 5)
        assert err.value.invariant == "size"
    assert free_slots(4, balance, 5) == ["a2.1", "a3.2", "a4.2"]


def test_free_slots_stop_at_the_gershgorin_bound():
    """With D the common denominator of M and B = max_i sum_j |D M_ij|, the
    rows of D (k Id - M) are strictly diagonally dominant for k D > B, so
    every column pivots there and free_slots need not look past B // D."""
    cases = [b for n in range(3, 11) for b in indicial_solutions(n)]
    for balance in cases:
        n, M = balance.n, kowalevski_matrix(balance)
        D = math.lcm(*[F(c).denominator for row in M for c in row])
        B = max(sum(abs(D * c) for c in row) for row in M)
        last = B // D
        for i, row in enumerate(M):  # the margin at last + 1, which only grows with k
            assert abs((last + 1) * D - D * row[i]) > sum(abs(D * c) for j, c in enumerate(row)
                                                          if j != i)
        for k in [*range(last + 1, 21), MAX_ORDER]:
            shifted = [[(k if i == j else 0) - c for j, c in enumerate(row)]
                       for i, row in enumerate(M)]
            assert len(pivot_columns(shifted)) == n
        assert free_slots(n, balance, MAX_ORDER) == free_slots(n, balance, last)


def test_laurent_balance_is_pinned():
    """sha256 over laurent_balance for every Sigma_n balance at n = 3..8 to
    order 20, its slots drawn in order by sampling.rational from seed 0:
    each series as (lo, hi, its coefficients as text)."""
    rng = rng_from_seed(0)
    digest = hashlib.sha256()
    count = 0
    for n in range(3, 9):
        for balance in indicial_solutions(n):
            params = {name: rational(rng) for name in free_slots(n, balance, 20)}
            for s in laurent_balance(n, balance, params, 20):
                digest.update(repr((s.lo, s.hi, [str(c) for c in s.coeffs])).encode() + b";")
            count += 1
    assert count == 110
    assert digest.hexdigest() == "54a4d64168b05fa214d3e381dd2279f98f801a23b78f0d98a8d7f8299d77e23a"


def test_general_n_first_consistency_ties_alphas():
    balance = make_balance(7, (1, 2))
    params = {name: F(1) for name in free_slots(7, balance, 4)}
    series = laurent_balance(7, balance, params, 4)
    assert series[0].coefficient(0) == series[1].coefficient(0)


def test_parameter_errors():
    balance = make_balance(5, (1, 2))
    with pytest.raises(InvariantError, match="free slot"):
        laurent_balance(5, balance, {}, 3)
    bad = dict(PRINCIPAL_PARAMS)
    bad["a1.7"] = F(1)
    with pytest.raises(InvariantError, match="unused"):
        laurent_balance(5, balance, bad, 3)


def _inconsistent_at(monkeypatch, order):
    """Make painleve's solver report the system of one order inconsistent."""
    calls = []

    def solve(rows):
        calls.append(rows)
        if len(calls) == order:
            return symbolic.AffineSolution(False, None, [], [], 1)
        return solve_affine(rows)

    monkeypatch.setattr(painleve, "solve_affine", solve)


def test_resonance_failure_detected(monkeypatch):
    # an order whose system has no solution is an unsolvable resonance in
    # the coefficient recursion
    _inconsistent_at(monkeypatch, 3)
    with pytest.raises(ResonanceError):
        laurent_balance(5, make_balance(5, (1, 2)), PRINCIPAL_PARAMS, 5)


def test_spectrum_conserved_along_series():
    # K(x) coefficients are t-independent when the series is substituted
    from prymlab.toda import char_coeffs
    balance = make_balance(5, (1, 2))
    series = laurent_balance(5, balance, PRINCIPAL_PARAMS, 10)
    half_k = char_coeffs(series, [F(0)] * 5, F(0))  # K/2 = Delta - a_5 Delta_{1,5}
    for coeff in half_k:
        if isinstance(coeff, (int, F)) or coeff.known_zero():
            continue
        for e in range(coeff.leading_exponent(), coeff.known_through() + 1):
            if e != 0:
                assert coeff.coefficient(e) == 0


def test_kowalevski_matrix_entries():
    balance = make_balance(5, (1, 2))
    M = kowalevski_matrix(balance)
    assert M[0][1] == 1 and M[0][4] == -1  # alpha_1 = -1 row
    assert M[2][2] == 2 and M[3][3] == 1 and M[4][4] == 2
    # a balance from make_balance is integral, so nothing has a denominator to clear
    assert all(type(c) is int for c in balance.alpha + tuple(c for row in M for c in row))


def _solve_balance(balance, params, order):
    """In-test Laurent recursion: schoolbook right-hand sides, each order
    solved by Fraction Gauss-Jordan, free columns set from params."""
    n = balance.n
    M = kowalevski_matrix(balance)
    coeffs = [list(balance.alpha)]
    for k in range(1, order + 1):
        rhs = [sum((coeffs[j][i] * (coeffs[k - j][(i - 1) % n] - coeffs[k - j][(i + 1) % n])
                    for j in range(1, k)), F(0)) for i in range(n)]
        system = [[F(k if i == j else 0) - M[i][j] for j in range(n)] + [rhs[i]]
                  for i in range(n)]
        reduced, pivots = fraction_rref(system)
        assert n not in pivots
        vec = [params[slot_name(j + 1, k)] if j not in pivots else None for j in range(n)]
        for row, col in zip(reduced, pivots):
            vec[col] = row[n] - sum(row[j] * vec[j] for j in range(n) if j not in pivots)
        coeffs.append(vec)
    return coeffs


def test_laurent_balance_matches_in_test_solve_for_n_3_to_8(monkeypatch, rng):
    order = 12
    cases = [b for n in range(3, 9) for b in indicial_solutions(n)]
    for balance in cases:
        n = balance.n
        slots = free_slots(n, balance, order)
        params = {name: F(rng.randint(-9, 9), rng.randint(1, 9)) for name in slots}
        series = laurent_balance(n, balance, params, order)
        expected = _solve_balance(balance, params, order)
        for i, s in enumerate(series):
            assert s.known_through() == order - 1
            assert [s.coefficient(k - 1) for k in range(order + 1)] \
                == [expected[k][i] for k in range(order + 1)]
            assert all(type(c) is F for c in s.coeffs)
        for r in km_residual(series):
            assert r.known_through() == order - 2 and r.is_zero_through(order - 2)
            assert all(type(c) is F for c in r.coeffs)
        # the first missing slot is named, with the full list
        missing = rng.choice(slots)
        with pytest.raises(InvariantError) as err:
            laurent_balance(n, balance, {k: v for k, v in params.items() if k != missing}, order)
        assert err.value.invariant == "free-parameters"
        assert str(err.value) == f"missing value for free slot {missing}; expected slots {slots}"
    for extra in (slot_name(1, order + 1), slot_name(1, 1)):  # past the order; a pivot slot
        with pytest.raises(InvariantError) as err:
            laurent_balance(5, make_balance(5, (1, 2)), {**PRINCIPAL_PARAMS, extra: F(1)}, order)
        assert err.value.invariant == "free-parameters"
        assert str(err.value) == f"unused parameters {[extra]}"
    _inconsistent_at(monkeypatch, 2)
    with pytest.raises(ResonanceError) as err:
        laurent_balance(5, make_balance(5, (1, 2)), PRINCIPAL_PARAMS, order)
    assert err.value.invariant == "laurent-resonance"
    assert str(err.value) == "inconsistent resonance at order k=2"


def test_laurent_order_is_bounded():
    balance = make_balance(5, (1, 2))
    series = laurent_balance(5, balance, PRINCIPAL_PARAMS, MAX_ORDER)
    assert [s.known_through() for s in series] == [MAX_ORDER - 1] * 5
    # refused before any work: the missing free parameters are never asked for
    for order in (MAX_ORDER + 1, -1):
        with pytest.raises(InvariantError) as err:
            laurent_balance(5, balance, {}, order)
        assert err.value.invariant == "order"
        assert str(err.value) == f"the Laurent order must lie in 0..{MAX_ORDER}, got {order}"

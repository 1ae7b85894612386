"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per check.  The checks live in prymlab.verify and are shared with the
`prymlab verify` subcommand; run with `pytest -s` to see the lines inline.

Tolerances are pinned here once and for all: exact (zero tolerance) for
every algebraic identity, Kowalevski spectra included, 1e-8 for the
conservation drift, [12, 20] for the step-halving ratio, and the stated
runtime ceilings for the heavyweight suites.
"""

import math

import pytest
from conftest import wide_rational

from prymlab import algebra, morphism, mumford, numerics, sampling, verify
from prymlab.algebra import Poly, integer_numerators, tridiag_minor_det, tridiag_run
from prymlab.morphism import PhiImage, _descale


def _run(suite_name, budget=None):
    results = verify.run_suite(suite_name)
    for result in results:
        print(result.line())
    assert all(r.passed for r in results), \
        "; ".join(r.detail for r in results if not r.passed)
    if budget is not None:
        elapsed = sum(r.elapsed for r in results)
        assert elapsed < budget, f"suite {suite_name} took {elapsed:.1f}s"


def test_criterion_01_fiber_identity():
    # 200 random rational lattice points, n in 3..8, every m; exact; < 30 s
    _run("fiber", budget=30.0)


def test_criterion_02_round_trip():
    # 100 random points, n <= 6; exact; < 30 s
    _run("roundtrip", budget=30.0)


def test_criterion_03_determinant_lemma():
    # 500 random tridiagonal matrices up to 8x8; exact
    _run("detlemma")


def test_criterion_04_jacobi_suites():
    # (i) Mumford g <= 2, phi in {1, x, x^2}; (ii) reduced prym n = 1;
    # (iii) lattice brackets n <= 4; (iv) quadratic family g = 2; all exact
    _run("jacobi")


def test_criterion_05_reduction_agreement():
    # generic Dirac reduction = closed forms, n <= 2, both flavors; exact
    _run("reduction")


def test_criterion_06_kowalevski_counts():
    # every admissible A for n <= 10; structural counts exact, spectra
    # proven by exact determinants; < 60 s
    _run("kowalevski", budget=60.0)


def test_criterion_07_sigma_enumeration():
    # matches the 2^n brute force for n <= 16; #Sigma_5 = 11
    _run("sigma")


def test_criterion_08_principal_balance():
    # 20 random parameter draws match the closed forms through t^1;
    # order-12 residual exactly zero through t^10
    _run("balance5")


def test_criterion_09_divisor_data():
    # the five special points, chart incidence, balance limits; exact
    _run("divisor5")


def test_criterion_10_numerical_conservation():
    # reference run drift <= 1e-8; step-halving ratio within [12, 20]
    _run("drift")


def test_criterion_11_parity():
    # 100 KM points (n = 3, 4, 5): image parity exact; X_(-y) = j_* X_y
    # and the prym field as its projection, symbolic for n <= 2
    _run("parity")


def test_criterion_12_even_splitting():
    # alternating products conserved symbolically for n = 4, 6
    _run("evensplit")


# ---------------------------------------------------------------------------
# the det-lemma suite on weight-scaled integers
# ---------------------------------------------------------------------------

def _record_runs(monkeypatch):
    """Route verify's prefix runs through a recorder; returns its log of
    (shifts, band products, dets), two entries per trial (the run on 1..n,
    then 2..n)."""
    log = []

    def recording(b, c, zero):
        dets = tridiag_run(b, c, zero)
        log.append((b, c, dets))
        return dets

    monkeypatch.setattr(verify, "tridiag_run", recording)
    return log


def test_detlemma_runs_are_scaled_minors_of_the_drawn_matrices(monkeypatch):
    log = _record_runs(monkeypatch)
    assert all(r.passed for r in verify.suite_detlemma(0))
    assert len(log) == 1000
    # the draws in their fixed order: n, the diagonal constants, sup, sub
    rng = sampling.rng_from_seed(2)
    sizes = []
    for trial in range(50):
        n = rng.randint(2, 8)
        r = [sampling.rational(rng) for _ in range(n)]
        sup = [sampling.rational(rng, nonzero=True) for _ in range(n - 1)]
        sub = [sampling.rational(rng, nonzero=True) for _ in range(n - 1)]
        # the rational matrix has diagonal x + r_i: shifts -r_i
        shifts, bands = [-c for c in r], [s * t for s, t in zip(sup, sub)]
        (scaled_b, scaled_c, head), (tail_b, tail_c, tail) = log[2 * trial:2 * trial + 2]
        assert (tail_b, tail_c) == (scaled_b[1:], scaled_c[1:])
        _, d = integer_numerators(r + sup + sub)
        assert scaled_b == [c * d for c in shifts]
        assert scaled_c == [c * d * d for c in bands]
        assert all(type(c) is int for c in scaled_b + scaled_c)
        assert all(type(c) is int for q in head + tail for c in q)
        pairs = ((head[n], []), (head[n - 1], [n]), (tail[n - 1], [1]), (tail[n - 2], [1, n]))
        for run, removed in pairs:
            size = n - len(removed)
            assert _descale(run, d, size) == tridiag_minor_det(shifts, bands, removed), \
                (trial, removed)
        sizes.append(n)
    # every size, n = 2 (where D1n is the empty determinant) included
    assert set(sizes) == set(range(2, 9))


@pytest.mark.parametrize("breaker", ["constant", "band-sign"])
def test_detlemma_suite_fails_on_a_broken_lemma(monkeypatch, breaker):
    calls = []

    def broken(b, c, zero):
        calls.append(b)
        if breaker == "band-sign":
            c = [-x for x in c]
        dets = tridiag_run(b, c, zero)
        if breaker == "constant" and len(calls) % 2 == 0:  # D1 (the run on 2..n) off by one
            last = dets[-1]
            dets[-1] = [last[0] + 1] + last[1:]
        return dets

    monkeypatch.setattr(verify, "tridiag_run", broken)
    (result,) = verify.suite_detlemma(0)
    assert not result.passed
    assert "determinant lemma failed, trial " in result.detail
    if breaker == "constant":
        assert result.detail.endswith("trial 0")


class _Enough(Exception):
    pass


@pytest.mark.parametrize("draw, trials", [("suite", 500), ("wide", 100)])
def test_detlemma_k_bounds_both_sides(monkeypatch, draw, trials):
    """Both sides of D1 Dn = D D1n + prod(bands), by Poly products of the
    recorded runs, have every coefficient below 2^k for the k that
    algebra.first_mismatch picks in each trial: on the suite's 500 draws, and on the first 100 trials with
    entries up to 10^30."""
    if draw == "wide":
        monkeypatch.setattr(sampling, "rational", wide_rational)
    log = _record_runs(monkeypatch)
    recording_run = verify.tridiag_run

    def bounded_run(b, c, zero):
        if len(log) == 2 * trials:
            raise _Enough
        return recording_run(b, c, zero)

    monkeypatch.setattr(verify, "tridiag_run", bounded_run)
    ks = []
    exact = algebra.at_two_power

    def recording(coeffs, k):
        ks.append(k)
        return exact(coeffs, k)

    monkeypatch.setattr(algebra, "at_two_power", recording)
    (result,) = verify.suite_detlemma(0)
    assert result.passed == (trials == 500)
    assert len(log) == 2 * trials and len(ks) == 4 * trials
    for trial in range(trials):
        (_, bands, head), (_, _, tail) = log[2 * trial:2 * trial + 2]
        n = len(head) - 1
        k = ks[4 * trial]
        assert ks[4 * trial:4 * trial + 4] == [k] * 4
        lhs = Poly(tail[n - 1]) * Poly(head[n - 1])
        rhs = Poly(head[n]) * Poly(tail[n - 2]) + Poly([math.prod(bands)])
        width = max(len(lhs.coeffs), len(rhs.coeffs))
        assert all(abs(lhs.coeff(j)) + abs(rhs.coeff(j)) < 1 << k for j in range(width))


@pytest.mark.parametrize("j", [0, 1])
def test_detlemma_names_the_lowest_failing_power(monkeypatch, j):
    # D1 + y^j moves D1 Dn - D D1n - prod(bands) by y^j Dn: first at the
    # power j + (the lowest power of Dn) of trial 0
    runs = []

    def moved(b, c, zero):
        dets = tridiag_run(b, c, zero)
        runs.append(dets)
        if len(runs) % 2 == 0:  # the run on 2..n: its last entry is D1
            dets[-1][j] += 1
        return dets

    monkeypatch.setattr(verify, "tridiag_run", moved)
    (result,) = verify.suite_detlemma(0)
    head = runs[0]
    dn = head[len(head) - 2]
    low = next(i for i, c in enumerate(dn) if c)
    assert result.detail == ("AssertionError: (first at x^%d) determinant lemma failed, trial 0"
                             % (j + low))


def test_parity_suite_fails_on_an_even_mumford_image(monkeypatch):
    # an image whose constructor skipped the parity check must not pass
    exact = morphism.phi_all

    def unchecked(point):
        return [PhiImage(image.triple.ambient(), image.m, image.p) for image in exact(point)]

    monkeypatch.setattr(morphism, "phi_all", unchecked)
    images, tangents = verify.suite_parity(0)
    assert not images.passed and tangents.passed
    assert "parity broke at n=3, m=1: even-mumford" in images.detail


def test_parity_reflection_check_fails_off_the_prym_locus(monkeypatch):
    # on even-Mumford g = 2 coordinates alpha(t) = t + w3 - u1, and the
    # Mumford field is no longer carried to X_(-y) by j
    exact = mumford.phase_coordinates
    monkeypatch.setattr(mumford, "phase_coordinates",
                        lambda flavor, n: exact(mumford.EVEN_MUMFORD, 2))
    images, reflection = verify.suite_parity(0)
    assert images.passed and not reflection.passed
    assert reflection.detail == "AssertionError: X_(-y) != j_* X_y on even-mumford, index 2, y = 3/2"


def test_drift_convergence_fails_on_a_run_that_blows_up(monkeypatch):
    # only the run with step 1e-2 gets a field that leaves the overflow
    # guard; the check must name that run instead of reading its state
    flow = numerics._flow

    def one_run_blows_up(system, point, selector, t_end, step):
        state, rhs, *rest = flow(system, point, selector, t_end, step)
        if step == 1e-2:
            rhs = lambda s: [math.inf] * len(s)
        return (state, rhs, *rest)

    monkeypatch.setattr(numerics, "_flow", one_run_blows_up)
    drift, convergence = verify.suite_drift(0)
    assert drift.passed and not convergence.passed
    assert convergence.detail == ("BlowUpError: state exceeded overflow guard at step 1"
                                  " of the run with step size 0.01")

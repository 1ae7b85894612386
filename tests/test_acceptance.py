"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per check.  The checks live in prymlab.verify and are shared with the
`prymlab verify` subcommand; run with `pytest -s` to see the lines inline.

Tolerances are pinned here once and for all: exact (zero tolerance) for
every algebraic identity, Kowalevski spectra included, 1e-8 for the
conservation drift, [12, 20] for the step-halving ratio, and the stated
runtime ceilings for the heavyweight suites.
"""

from fractions import Fraction as F

import pytest

from prymlab import sampling, verify
from prymlab.algebra import (Poly, TridiagSpec, integer_numerators, tridiag_minor_det,
                             tridiag_prefix_dets)
from prymlab.morphism import _descale


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
    # 100 KM points (n = 3, 4, 5): image parity exact; prym tangents
    # symbolic for n <= 2
    _run("parity")


def test_criterion_12_even_splitting():
    # alternating products conserved symbolically for n = 4, 6
    _run("evensplit")


# ---------------------------------------------------------------------------
# the det-lemma suite on weight-scaled integers
# ---------------------------------------------------------------------------

def _record_runs(monkeypatch):
    """Route verify's prefix runs through a recorder; returns its log of
    (spec, lo, hi, dets), two entries per trial (the run on 1..n, then 2..n)."""
    log = []

    def recording(spec, lo, hi):
        dets = tridiag_prefix_dets(spec, lo, hi)
        log.append((spec, lo, hi, dets))
        return dets

    monkeypatch.setattr(verify, "tridiag_prefix_dets", recording)
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
        spec = TridiagSpec.build([Poly([c, F(1)]) for c in r], sup, sub)
        (scaled, lo_h, hi_h, head), (scaled_t, lo_t, hi_t, tail) = log[2 * trial:2 * trial + 2]
        assert scaled is scaled_t and (lo_h, hi_h, lo_t, hi_t) == (1, n, 2, n)
        _, d = integer_numerators(r + sup + sub)
        assert scaled.diag == tuple(Poly([c * d, 1]) for c in r)
        assert scaled.sup == tuple(c * d for c in sup)
        assert scaled.sub == tuple(c * d for c in sub)
        assert all(type(c) is int for q in head + tail for c in q.coeffs)
        pairs = ((head[n], []), (head[n - 1], [n]), (tail[n - 1], [1]), (tail[n - 2], [1, n]))
        for run, removed in pairs:
            size = n - len(removed)
            assert _descale(run, d, size) == tridiag_minor_det(spec, removed), (trial, removed)
        sizes.append(n)
    # every size, n = 2 (where D1n is the empty determinant) included
    assert set(sizes) == set(range(2, 9))


@pytest.mark.parametrize("breaker", ["constant", "band-sign"])
def test_detlemma_suite_fails_on_a_broken_lemma(monkeypatch, breaker):
    def broken(spec, lo, hi):
        if breaker == "band-sign":
            spec = TridiagSpec.build(spec.diag, spec.sup, [-c for c in spec.sub])
        dets = tridiag_prefix_dets(spec, lo, hi)
        if breaker == "constant" and lo == 2:  # D1 off by one
            last = dets[-1].coeffs
            dets[-1] = Poly([last[0] + 1] + last[1:])
        return dets

    monkeypatch.setattr(verify, "tridiag_prefix_dets", broken)
    (result,) = verify.suite_detlemma(0)
    assert not result.passed
    assert "determinant lemma failed, trial " in result.detail
    if breaker == "constant":
        assert result.detail.endswith("trial 0")

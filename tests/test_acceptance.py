"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per check.  The checks live in prymlab.verify and are shared with the
`prymlab verify` subcommand; run with `pytest -s` to see the lines inline.

Tolerances are pinned here once and for all: exact (zero tolerance) for
every algebraic identity, Kowalevski spectra included, 1e-8 for the
conservation drift, [12, 20] for the step-halving ratio, and the stated
runtime ceilings for the heavyweight suites.
"""

from prymlab import verify


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

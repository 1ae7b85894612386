"""Named verification suites: every acceptance criterion as a runnable
check, shared by the test suite and the `verify` CLI subcommand.

Each suite returns a list of CheckResult; a suite passes when every
result does.  All sampling is driven by a single seeded generator, so
runs are reproducible."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul

from . import example5, morphism, mumford, numerics, painleve, prym, sampling, toda
from .algebra import Poly, first_mismatch, integer_numerators, parse_poly, tridiag_run
from .errors import InvariantError
from .symbolic import MultiPoly


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{tag}] {self.name}{extra} [{self.elapsed:.2f}s]"


def _check(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn() or ""
        return CheckResult(name, True, str(detail), time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - report any failure verbatim
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}",
                           time.perf_counter() - start)


# ---------------------------------------------------------------------------
# criterion 1: fiber identity
# ---------------------------------------------------------------------------

def suite_fiber(seed: int = 0) -> list[CheckResult]:
    rng = sampling.rng_from_seed(seed)

    def run():
        count = 0
        per_n = {3: 34, 4: 34, 5: 33, 6: 33, 7: 33, 8: 33}
        for n, quota in per_n.items():
            for _ in range(quota):
                point = sampling.toda_point(rng, n)
                # PhiImage checks u w + v^2 = p^2 - 4 exactly at every m; a
                # failure raises InvariantError, which fails this check
                morphism.phi_all(point)
                count += 1
        return f"{count} points, all m each, exact"

    return [_check("fiber-identity: u w + v^2 = p^2 - 4 on 200 random points", run)]


# ---------------------------------------------------------------------------
# criterion 2: round trip
# ---------------------------------------------------------------------------

def suite_roundtrip(seed: int = 0) -> list[CheckResult]:
    rng = sampling.rng_from_seed(seed + 1)

    def run():
        count = 0
        for n in (3, 4, 5, 6):
            for _ in range(25):
                point = sampling.toda_point(rng, n)
                back = morphism.phi_inverse(morphism.phi(point, n).triple, n)
                if back.a != point.a or back.b != point.b:
                    raise AssertionError(f"round trip failed at n={n}")
                count += 1
        return f"{count} exact round trips"

    return [_check("round-trip: phi_inverse o phi = id on 100 random points", run)]


# ---------------------------------------------------------------------------
# criterion 3: determinant lemma
# ---------------------------------------------------------------------------

def suite_detlemma(seed: int = 0) -> list[CheckResult]:
    """D1 Dn - D D1n = prod sup_i sub_i on 500 random rational tridiagonal
    matrices of size 2..8 with diagonal x + r_i, checked on integers.

    With d the lcm of the denominators of all r_i, sup_i and sub_i, the
    matrix is rebuilt in y = d x: diagonal y + d r_i, so shifts -d r_i, and
    band products d^2 sup_i sub_i.  A block of size k then comes out as d^k
    times its determinant at x = y / d (the `morphism` docstring,
    "Integer evaluation"), and every minor is a prefix of one of two runs
    (algebra.tridiag_run): D = det(1..n) and Dn = det(1..n-1) from the run
    on 1..n, D1 = det(2..n) and D1n = det(2..n-1) from the run on 2..n
    (empty at n = 2).  Both sides of the scaled identity carry d^(2n-2),
    and y -> y / d is invertible, so it holds over the integers exactly
    when the rational lemma holds.

    The int identity D1 Dn - D D1n - prod(bands) = 0 is decided by
    algebra.first_mismatch.  A failure names the lowest power at which
    the lemma fails: coefficient j of the integer difference is
    d^(2n-2-j) times that of the rational one, so the lowest power of y is
    the lowest power of x."""
    rng = sampling.rng_from_seed(seed + 2)

    def run():
        for trial in range(500):
            n = rng.randint(2, 8)
            r = [sampling.rational(rng) for _ in range(n)]
            sup = [sampling.rational(rng, nonzero=True) for _ in range(n - 1)]
            sub = [sampling.rational(rng, nonzero=True) for _ in range(n - 1)]
            nums, _ = integer_numerators(r + sup + sub)
            shifts = [-c for c in nums[:n]]
            bands = list(map(mul, nums[n:2 * n - 1], nums[2 * n - 1:]))
            head = tridiag_run(shifts, bands, 0)
            tail = tridiag_run(shifts[1:], bands[1:], 0)
            # D1 Dn - D D1n - prod(bands)
            power = first_mismatch([(1, tail[n - 1], head[n - 1]), (-1, head[n], tail[n - 2])],
                                   -prod(bands))
            if power is not None:
                raise AssertionError(f"(first at x^{power}) determinant lemma failed, trial {trial}")
        return "500 trials, sizes 2..8, exact"

    return [_check("det-lemma: D1 Dn - D D1n = prod of band products", run)]


# ---------------------------------------------------------------------------
# criterion 4: Jacobi suites
# ---------------------------------------------------------------------------

def suite_jacobi(seed: int = 0) -> list[CheckResult]:
    results = []

    def mumford_jacobi():
        for flavor in mumford.MUMFORD_FLAVORS:
            for g in (1, 2):
                for phi_text in ("1", "0,1", "0,0,1"):
                    phi = parse_poly(phi_text)
                    if phi.degree > g:
                        continue
                    if not mumford.mumford_bracket_table(flavor, g, phi).jacobi_holds():
                        raise AssertionError(f"{flavor} g={g} phi={phi_text}")
        return "g <= 2, phi in {1, x, x^2}, both flavors"

    def prym_jacobi():
        cases = {("odd-prym", 1): ("1", "0,0,1"), ("even-prym", 1): ("0,1", "0,0,0,1")}
        for (flavor, n), phis in cases.items():
            for phi_text in phis:
                table = prym.prym_bracket_table(flavor, n, parse_poly(phi_text))
                if not table.jacobi_holds():
                    raise AssertionError(f"{flavor} n={n} phi={phi_text}")
        return "reduced tables, n=1 both flavors"

    def toda_jacobi():
        for n in (2, 3, 4):
            for kind in ("linear", "quadratic", "km"):
                if not toda.toda_bracket_table(kind, n).jacobi_holds():
                    raise AssertionError(f"{kind} n={n}")
            if not toda.toda_pencil_table(parse_poly("2,3"), n).jacobi_holds():
                raise AssertionError(f"pencil n={n}")
        return "linear, quadratic, km and a pencil member, n <= 4"

    def quad_jacobi():
        for phi_text in ("1", "0,1", "2,3"):
            if not morphism.quad_mumford_table(2, parse_poly(phi_text)).jacobi_holds():
                raise AssertionError(f"phi={phi_text}")
        return "quadratic family on the g=2 space, deg phi <= 1"

    results.append(_check("jacobi: Mumford bracket family", mumford_jacobi))
    results.append(_check("jacobi: reduced prym brackets", prym_jacobi))
    results.append(_check("jacobi: lattice brackets", toda_jacobi))
    results.append(_check("jacobi: quadratic Mumford family", quad_jacobi))
    return results


# ---------------------------------------------------------------------------
# criterion 5: Dirac reduction vs closed forms
# ---------------------------------------------------------------------------

def suite_reduction(seed: int = 0) -> list[CheckResult]:
    def run():
        cases = [("odd-prym", 1, ("1", "0,0,1")),
                 ("odd-prym", 2, ("1", "0,0,1", "0,0,0,0,1")),
                 ("even-prym", 1, ("0,1", "0,0,0,1")),
                 ("even-prym", 2, ("0,1", "0,0,0,1", "0,0,0,0,0,1"))]
        for flavor, n, phis in cases:
            for phi_text in phis:
                phi = parse_poly(phi_text)
                generic = prym.reduce_mumford_table(flavor, n, phi)
                closed = prym.prym_bracket_table(flavor, n, phi)
                if not prym.tables_equal(generic, closed):
                    raise AssertionError(f"{flavor} n={n} phi={phi_text}")
        return "n <= 2, both flavors, several phi"

    return [_check("reduction: generic Dirac output = closed-form tables", run)]


# ---------------------------------------------------------------------------
# criterion 6: Kowalevski counts
# ---------------------------------------------------------------------------

def suite_kowalevski(seed: int = 0) -> list[CheckResult]:
    def run():
        total = 0
        for n in range(3, 11):
            for A in painleve.sigma_enum(n):
                if len(A) == n:
                    continue
                # the report's constructor proves its spectrum exactly
                report = painleve.kowalevski(n, A)
                if report.nonneg_count != n - len(A) // 2:
                    raise AssertionError(f"count off at n={n}, A={A}")
                total += 1
        return f"{total} balances, n <= 10, spectra proven by exact determinants"

    return [_check("kowalevski: nonneg count = n - ord A, spectra proven exactly", run)]


# ---------------------------------------------------------------------------
# criterion 7: Sigma_n enumeration
# ---------------------------------------------------------------------------

def suite_sigma(seed: int = 0) -> list[CheckResult]:
    def run():
        for n in range(2, 17):
            if painleve.sigma_enum(n) != painleve.sigma_enum_brute(n):
                raise AssertionError(f"enumeration disagrees at n={n}")
        if len(painleve.sigma_enum(5)) != 11:
            raise AssertionError("#Sigma_5 != 11")
        return "matches 2^n brute force for n <= 16; #Sigma_5 = 11"

    return [_check("sigma: constructive enumeration vs brute force", run)]


# ---------------------------------------------------------------------------
# criterion 8: the n = 5 principal balance
# ---------------------------------------------------------------------------

def suite_balance5(seed: int = 0) -> list[CheckResult]:
    rng = sampling.rng_from_seed(seed + 8)

    def closed_forms():
        balance = painleve.make_balance(5, (1, 2))
        for _ in range(20):
            al = sampling.rational(rng)
            be = sampling.rational(rng, nonzero=True)
            ga = sampling.rational(rng, nonzero=True)
            de = sampling.rational(rng, nonzero=True)
            params = {"a2.1": al, "a4.1": de, "a3.2": ga, "a5.2": be}
            s = painleve.laurent_balance(5, balance, params, 3)
            expected = [
                {-1: -1, 0: al, 1: -(al * al + 2 * be + ga) / 3},
                {-1: 1, 0: al, 1: (al * al - be - 2 * ga) / 3},
                {-1: 0, 0: 0, 1: ga},
                {-1: 0, 0: de, 1: 0},
                {-1: 0, 0: 0, 1: be},
            ]
            for i, want in enumerate(expected):
                for e, val in want.items():
                    if s[i].coefficient(e) != val:
                        raise AssertionError(f"coefficient ({i + 1}, t^{e}) off")
        return "20 random parameter sets, coefficients through t^1"

    def residual():
        balance = painleve.make_balance(5, (1, 2))
        params = {"a2.1": Fraction(1), "a4.1": Fraction(1, 6),
                  "a3.2": Fraction(3), "a5.2": Fraction(2)}
        series = painleve.laurent_balance(5, balance, params, 12)
        for r in painleve.km_residual(series):
            if not r.is_zero_through(10):
                raise AssertionError("residual did not vanish through t^10")
        return "order-12 series, residual exactly 0 through t^10"

    return [_check("balance5: principal balance matches its closed forms", closed_forms),
            _check("balance5: equations of motion residual vanishes", residual)]


# ---------------------------------------------------------------------------
# criterion 9: the n = 5 divisor data
# ---------------------------------------------------------------------------

def suite_divisor5(seed: int = 0) -> list[CheckResult]:
    def points():
        k = Fraction(3)
        p = example5.divisor_points(k)
        want = [(0, 0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1),
                (1, 0, 0, 0, 0, 0, 1, 0, -k), (1, 0, 0, 0, 0, 0, -1, 0, 0),
                (0, 0, 0, 0, 0, 0, 0, 1, -1)]
        for got, expect in zip(p, want):
            if not got == example5.ProjectivePoint9(expect):
                raise AssertionError("special point mismatch")
        return "five points as displayed"

    def incidence():
        for k, l in ((Fraction(3), Fraction(7)), (Fraction(-2), Fraction(5, 3))):
            _, matrix = example5.incidence_data(k, l)
            for i in range(5):
                hit = {j for j in range(5) if matrix[i][j]}
                if hit != {(i - 1) % 5, i % 5, (i + 1) % 5}:
                    raise AssertionError(f"incidence of curve {i + 1} wrong")
        return "G_i passes through p_{i-1}, p_i, p_{i+1} via all three charts"

    def balance_limits():
        for k, beta, delta in ((Fraction(3), Fraction(2), Fraction(1, 2)),
                               (Fraction(-1), Fraction(1, 3), Fraction(2))):
            for s in range(5):
                limit, _ = example5.balance_limit(k, beta, delta, s)
                expected = example5.ProjectivePoint9(tuple(
                    example5.curve_coords(1 + s, beta, delta, k, Fraction(1))))
                if not limit == expected:
                    raise AssertionError(f"shift {s} limit off the curve")
        return "all five shifted balances land on their curves"

    return [_check("divisor5: the five special points", points),
            _check("divisor5: 5_3 incidence through boundary charts", incidence),
            _check("divisor5: balance limits hit the right curves", balance_limits)]


# ---------------------------------------------------------------------------
# criterion 10: numerical conservation
# ---------------------------------------------------------------------------

def suite_drift(seed: int = 0) -> list[CheckResult]:
    reference = toda.KMPoint((Fraction(2), Fraction(1, 2), Fraction(1),
                              Fraction(1), Fraction(1)))

    def drift():
        traj = numerics.integrate("km", reference, None, 10.0, 1e-3)
        if traj.truncated:
            raise AssertionError("reference trajectory blew up")
        d = max(traj.drift["K1"], traj.drift["K3"])
        if d > 1e-8:
            raise AssertionError(f"drift {d:.3e} exceeds 1e-8")
        return f"K1, K3 drift {d:.3e} over t in [0, 10], step 1e-3"

    def convergence():
        # a run that leaves the overflow guard raises, naming its step size
        ends = [numerics.endpoint("km", reference, None, 10.0, h) for h in (2e-2, 1e-2, 5e-3)]
        err1 = max(abs(a - b) for a, b in zip(ends[0], ends[1]))
        err2 = max(abs(a - b) for a, b in zip(ends[1], ends[2]))
        ratio = err1 / err2
        if not 12 <= ratio <= 20:
            raise AssertionError(f"convergence ratio {ratio:.2f} outside [12, 20]")
        return f"step-halving error ratio {ratio:.2f}"

    return [_check("drift: reference run conserves K1 and K3 to 1e-8", drift),
            _check("drift: step halving shows fourth-order convergence", convergence)]


# ---------------------------------------------------------------------------
# criterion 11: parity
# ---------------------------------------------------------------------------

def suite_parity(seed: int = 0) -> list[CheckResult]:
    rng = sampling.rng_from_seed(seed + 11)

    def images():
        count = 0
        for n, quota in ((3, 34), (4, 33), (5, 33)):
            for _ in range(quota):
                point = sampling.km_point(rng, n)
                for image in morphism.phi_all(point.embed()):
                    # a Prym flavor means MumfordTriple checked the parities
                    flavor = image.triple.flavor
                    if flavor != mumford.prym_flavor(n - 1):
                        raise AssertionError(f"parity broke at n={n}, m={image.m}: {flavor}")
                count += 1
        return f"{count} KM points, n in 3..5, every m"

    def reflection():
        # X_{-y} = j_* X_y makes the Prym-slot reading of X_y its projection
        # 1/2 (X_y + eps X_{-y}) to the locus, eps = +1 for j and -1 for -j
        for flavor in mumford.PRYM_FLAVORS:
            eps = mumford.prym_sign(flavor)
            for n in (1, 2):
                coords = mumford.phase_coordinates(flavor, n)
                u, v, w = coords.u.coeffs, coords.v.coeffs, coords.w.coeffs
                for y in (Fraction(3, 2), Fraction(-2)):
                    du, dv, dw = (Poly(p) for p in mumford.mumford_tangent(u, v, w, y))
                    back = [Poly(p) for p in mumford.mumford_tangent(u, v, w, -y)]
                    if back != [du.reflect(), -dv.reflect(), dw.reflect()]:
                        raise AssertionError(f"X_(-y) != j_* X_y on {coords.flavor},"
                                             f" index {coords.g}, y = {y}")
                    half = [(p + eps * q) * Fraction(1, 2) for p, q in zip((du, dv, dw), back)]
                    if prym.prym_flow_symbolic(flavor, n, y) != mumford.flow_values(flavor, n, *half):
                        raise AssertionError(f"{flavor} field is not the projection at n={n}, y={y}")
        return "X_(-y) = j_* X_y and the prym field is 1/2 (X_y +- X_(-y)), n <= 2"

    return [_check("parity: Phi images satisfy the parity constraints", images),
            _check("parity: j_* X_y = X_(-y) on the prym locus", reflection)]


# ---------------------------------------------------------------------------
# criterion 12: even-n alternating products
# ---------------------------------------------------------------------------

def suite_evensplit(seed: int = 0) -> list[CheckResult]:
    def run():
        for n in (4, 6):
            p_odd, p_even = toda.km_even_split_symbolic(n)
            field = toda.km_field_symbolic(n)
            for product in (p_odd, p_even):
                derivative = MultiPoly(n)
                for i in range(n):
                    derivative = derivative + product.diff(i) * field[i]
                if not derivative.is_zero():
                    raise AssertionError(f"product not conserved for n={n}")
        return "d/dt of both alternating products is exactly 0, n = 4, 6"

    return [_check("evensplit: alternating products are first integrals", run)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "fiber": suite_fiber,
    "roundtrip": suite_roundtrip,
    "detlemma": suite_detlemma,
    "jacobi": suite_jacobi,
    "reduction": suite_reduction,
    "kowalevski": suite_kowalevski,
    "sigma": suite_sigma,
    "balance5": suite_balance5,
    "divisor5": suite_divisor5,
    "drift": suite_drift,
    "parity": suite_parity,
    "evensplit": suite_evensplit,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(seed))
        return out
    if name not in SUITES:
        raise InvariantError("suite", f"unknown suite {name!r}; "
                             f"choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)

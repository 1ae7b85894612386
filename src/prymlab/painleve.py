"""Painleve analysis of the periodic Volterra field
da_i/dt = a_i (a_{i-1} - a_{i+1}), indices in Z/n.

Pole ansatz: a_i(t) = t^{-1} sum_{j>=0} a_i^(j) t^j (poles are at most
simple).  The leading coefficients alpha_i = a_i^(0) obey the indicial
equation -alpha_i = alpha_i (alpha_{i-1} - alpha_{i+1}); its solutions are
indexed by the set

    Sigma_n = { A subset Z/n : every maximal cyclic run of A has even length },

the cell sets of the matchings of the n-cycle (a run splits into dominoes
{i, i+1} from its start; the full circle at even n has two matchings), so
#Sigma_n = L_n - [n even] with L_n the Lucas numbers 2, 1, 3, 4, 7, 11, ...
The n principal balances are the single dominoes.  On a run of length 2l
the leading coefficients are the unique pattern (-l, 1, 1-l, 2, ..., -1, l),
zero off A.  The full circle A = Z/n (even n) belongs to Sigma_n but
supports no Laurent solution (the all-poles linear system is
inconsistent), so indicial_solutions excludes it while sigma_enum keeps
it.  Pole orders are r_i = alpha_{i+1} - alpha_{i-1}.  The test oracle
sigma_enum_brute checks the definition on all 2^n subsets at once:
sigma_bits tests every subset's bit mask in parallel, as the bits of
2^n-bit ints, in O(n^2) big-int operations.

Higher coefficients solve (M - k I) a^(k) = (lower-order data), where M is
the Kowalevski matrix  M_ij = dF_i/da_j(alpha) + delta_ij:

    M_ij = (1 - r_i) delta_ij                  if alpha_i = 0,
    M_ij = alpha_i (delta_{j,i-1} - delta_{j,i+1})   otherwise.

After rotating a run to the front, M is block upper triangular with
tridiagonal blocks C_i of size 2 l_i on the runs (eigenvalues
+-1..+-l_i) and diagonal blocks on the gaps with entries 1 - r_j; hence
the spectrum is integral and the count of non-negative eigenvalues is
n - #A/2, the number of free parameters of the Laurent family.  Every
report proves its spectrum exactly (check_spectrum, through the
characteristic-polynomial decider symbolic.charpoly_mismatch).
Free parameters enter the recursion exactly at the non-pivot columns of
M - k I, addressed by slot names "a<i>.<k>"; only the k with k <= max_i
sum_j |M_ij| can have one (Gershgorin).  Each order is solved on the
integer rows [k Id - M | rhs] (symbolic.solve_affine).  The check
km_residual weighs a as 2: with D the lcm of the series' denominators,
D^2 times the residual is B_i' - A_i (A_{i-1} - A_{i+1}) on the int
series A_i = D a_i and B_i = D^2 a_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable

from .algebra import LaurentSeries, format_rational, integer_numerators
from .errors import InvariantError, ResonanceError
from .symbolic import _eliminate, charpoly_mismatch, solve_affine
from .toda import MAX_N, km_field

# The largest Laurent order laurent_balance accepts.  On a 2-vCPU Intel Xeon
# (Python 3.11) the balance on cells {1, 2} at n = MAX_N, free parameters in
# 1..3, takes 3-4 ms at order 20 (the most any suite uses), 0.3-0.4 s at 200, 3-4 s at 400.
MAX_ORDER = 200


def _check_size(n: int, least: int, what: str) -> None:
    if not least <= n <= MAX_N:
        raise InvariantError("size", f"{what} needs {least} <= n <= {MAX_N}, got n = {n}")


# ---------------------------------------------------------------------------
# Sigma_n combinatorics
# ---------------------------------------------------------------------------

def cyclic_runs(A: Iterable[int], n: int) -> list[list[int]]:
    """Maximal runs of consecutive elements of A in Z/n (1-based cells).

    The full circle comes back as a single run [1..n]."""
    cells = sorted({(i - 1) % n + 1 for i in A})
    if not cells:
        return []
    if len(cells) == n:
        return [list(range(1, n + 1))]
    present = set(cells)
    runs = []
    for c in cells:
        if (c - 2) % n + 1 in present:
            continue  # not a run start
        run = [c]
        while (run[-1] % n) + 1 in present:
            run.append((run[-1] % n) + 1)
        runs.append(run)
    return runs


def sigma_bits(n: int) -> int:
    """The 2^n-bit int whose bit m is set iff the subset {i + 1 : bit i of m
    set} is in Sigma_n, with every mask tested at once.

    Bit m of X_i is bit i of m: blocks of 2^i zeros and 2^i ones, one pair
    doubled until it fills 2^n bits.  An AND of X's and their complements
    tests one pattern of cells on every mask.  A mask other than the full
    one fails iff some empty cell i is followed cyclically by d - 1 set
    cells and an empty cell i + d with d even (d = n: i is the only empty
    cell); the full mask, one run of length n, is in Sigma_n iff n is
    even.  That is O(n^2) operations on 2^n-bit ints."""
    size = 1 << n
    every = (1 << size) - 1
    X = []
    for i in range(n):
        x, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < size:
            x, width = x | x << width, 2 * width
        X.append(x)
    empty = [every ^ x for x in X]
    failing = 0
    for i in range(n):
        run = empty[i]
        for d in range(1, n + 1):  # run: cell i empty, cells i + 1 .. i + d - 1 set
            if d % 2 == 0:
                failing |= run & empty[(i + d) % n]
            run &= X[(i + d) % n]
    return every ^ failing ^ (n % 2 << (size - 1))


def sigma_enum_brute(n: int) -> list[tuple[int, ...]]:
    """Read Sigma_n off sigma_bits: the test oracle route, a test of every
    subset independent of the constructive enumeration.  The set bits are
    found in one pass over the binary text, lowest mask first."""
    text = bin(sigma_bits(n))[:1:-1]
    out = [tuple(i + 1 for i in range(n) if mask >> i & 1)
           for mask, bit in enumerate(text) if bit == "1"]
    return sorted(out, key=lambda s: (len(s), s))


def sigma_enum(n: int) -> list[tuple[int, ...]]:
    """All of Sigma_n, as the cell sets of the matchings of the n-cycle.

    A matching of the path 1..k leaves k out (a matching of 1..k-1) or
    pairs it with k - 1 (a matching of 1..k-2 plus that pair), so the path
    matchings are built bottom-up in k.  A matching of the cycle omits the
    edge {n, 1} (a matching of the path 1..n) or uses it (a matching of
    2..n-1, the path 1..n-2 shifted by one).  Only the full circle at even
    n (and n = 2) arises twice.
    """
    _check_size(n, 2, "Sigma_n")
    paths = [[()], [()]]  # paths[k]: the matchings of the path 1..k
    for k in range(2, n + 1):
        paths.append(paths[k - 1] + [m + (k - 1, k) for m in paths[k - 2]])
    cycle = paths[n] + [(1, *map((1).__add__, m), n) for m in paths[n - 2]]
    return sorted(set(cycle), key=lambda s: (len(s), s))


# ---------------------------------------------------------------------------
# indicial solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Balance:
    """One solution of the indicial equation: pole set A, leading
    coefficients alpha (ints from make_balance) and pole orders r
    (r_i > 0 pole, < 0 zero)."""

    n: int
    A: tuple
    alpha: tuple
    r: tuple

    def to_json(self) -> dict:
        return {"n": self.n, "A": list(self.A),
                "alpha": [format_rational(x) for x in self.alpha],
                "r": list(self.r)}


def _alpha_for(A: tuple, n: int) -> list[int]:
    alpha = [0] * (n + 1)  # 1-based
    for run in cyclic_runs(A, n):
        if len(run) % 2:
            raise InvariantError("sigma", f"{A} is not in Sigma_{n}")
        l = len(run) // 2
        for pos, cell in enumerate(run, start=1):
            alpha[cell] = (pos - 1) // 2 - l if pos % 2 else pos // 2
    return alpha[1:]


def make_balance(n: int, A: Iterable[int]) -> Balance:
    """Balance for an admissible pole set; validates the indicial equation."""
    _check_size(n, 2, "a balance")
    A = tuple(sorted({(i - 1) % n + 1 for i in A}))
    alpha = _alpha_for(A, n)
    if len(A) == n:
        raise InvariantError("all-poles",
                             "the all-poles set supports no Laurent solution")
    for i, (a, f) in enumerate(zip(alpha, km_field(alpha))):
        if f != -a:
            raise InvariantError("indicial", f"alpha fails the indicial equation at {i + 1}")
    r = tuple(alpha[i % n] - alpha[(i - 2) % n] for i in range(1, n + 1))
    return Balance(n, A, tuple(alpha), r)


def indicial_solutions(n: int) -> list[Balance]:
    """One balance per admissible A in Sigma_n (the full circle excluded)."""
    _check_size(n, 3, "indicial analysis")
    return [make_balance(n, A) for A in sigma_enum(n) if len(A) < n]


# ---------------------------------------------------------------------------
# Kowalevski matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KowalevskiReport:
    balance: Balance
    matrix: tuple           # exact entries, natural indexing
    run_cells: tuple        # the C_i blocks, as cell lists
    gap_entries: tuple      # diagonal entries 1 - r_j on the gap cells
    spectrum: tuple         # sorted integer eigenvalues with multiplicity
    nonneg_count: int

    def __post_init__(self):
        check_spectrum(self.matrix, self.spectrum)

    def to_json(self) -> dict:
        return {**self.balance.to_json(),
                "spectrum": list(self.spectrum),
                "nonneg_count": self.nonneg_count,
                "runs": [list(r) for r in self.run_cells],
                "gap_entries": list(self.gap_entries)}


def kowalevski_matrix(balance: Balance) -> list[list[int | Fraction]]:
    """M of the module docstring; int entries except where alpha holds a Fraction."""
    n = balance.n
    alpha = balance.alpha
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        if alpha[i] == 0:
            M[i][i] = 1 - balance.r[i]
        else:
            M[i][(i - 1) % n] = alpha[i]
            M[i][(i + 1) % n] = -alpha[i]
    return M


def check_spectrum(matrix, spectrum) -> None:
    """Prove that the n x n rational `matrix` has the eigenvalues `spectrum`
    (with multiplicity), or raise InvariantError("kowalevski-spectrum").

    With e_i = f_i / E (E = 1 for an int spectrum), symbolic.charpoly_mismatch
    decides det(lam Id - M) = prod(E lam - f_i) / E^n, which is (-1)^n times
    det(M - lam Id) = prod(e_i - lam): a failure names its lowest power."""
    n = len(matrix)
    if len(spectrum) != n:
        raise InvariantError("kowalevski-spectrum",
                             f"{len(spectrum)} eigenvalues for a {n} x {n} matrix")
    f, E = integer_numerators(spectrum)
    q = [1]
    for c in f:  # q <- (E x - c) q
        q = [E * a - c * b for a, b in zip([0] + q, q + [0])]
    power = charpoly_mismatch(matrix, q, E ** n)
    if power is not None:
        raise InvariantError("kowalevski-spectrum", "det(M - lam Id) is not prod(e_i - lam) "
                             f"(first at lam^{power})")


def kowalevski(n: int, A: Iterable[int]) -> KowalevskiReport:
    """Exact structural spectrum of the Kowalevski matrix of a balance.

    The spectrum is read off the block decomposition: each run of order l
    contributes {-l..-1, 1..l}, each gap cell j contributes 1 - r_j; the
    non-negative count is therefore n - ord A.  The report's constructor
    proves the spectrum against the matrix (check_spectrum).
    """
    balance = make_balance(n, A)
    M = kowalevski_matrix(balance)
    runs = cyclic_runs(balance.A, n)
    spectrum: list[int] = []
    for run in runs:
        l = len(run) // 2
        spectrum.extend(range(-l, 0))
        spectrum.extend(range(1, l + 1))
    gap_entries = [1 - r for j, r in enumerate(balance.r, start=1) if j not in balance.A]
    spectrum.extend(gap_entries)
    spectrum.sort()
    nonneg = sum(1 for e in spectrum if e >= 0)
    return KowalevskiReport(balance, tuple(tuple(row) for row in M),
                            tuple(tuple(r) for r in runs), tuple(gap_entries),
                            tuple(spectrum), nonneg)


def c_block(l: int) -> list[list[int]]:
    """The 2l x 2l run block in its own indices (alpha pattern on one run)."""
    balance = make_balance(2 * l + 1, range(1, 2 * l + 1))
    M = kowalevski_matrix(balance)
    return [row[:2 * l] for row in M[:2 * l]]


# ---------------------------------------------------------------------------
# Laurent solutions
# ---------------------------------------------------------------------------

def slot_name(i: int, k: int) -> str:
    return f"a{i}.{k}"


def _negated_matrix(balance: Balance) -> tuple[list[list[int]], int]:
    """(-D M as int rows, D), with D the common denominator of M (1 for a
    balance from make_balance)."""
    n = balance.n
    M, D = integer_numerators([c for row in kowalevski_matrix(balance) for c in row])
    return [[-c for c in M[i:i + n]] for i in range(0, n * n, n)], D


def free_slots(n: int, balance: Balance, through_order: int) -> list[str]:
    """Names of the free coefficients the recursion leaves open, in order:
    the non-pivot columns of each k Id - M, by forward elimination of its int
    rows.  Only the orders with k D <= B = max_i sum_j |D M_ij| are
    eliminated: above B the rows are strictly diagonally dominant
    (Gershgorin), so k Id - M is invertible and every column pivots."""
    neg, D = _negated_matrix(balance)
    names = []
    for k in range(1, min(through_order, max(sum(map(abs, row)) for row in neg) // D) + 1):
        pivots = _eliminate([[*row[:i], row[i] + k * D, *row[i + 1:]]
                             for i, row in enumerate(neg)])[0]
        names.extend(slot_name(c + 1, k) for c in range(n) if c not in pivots)
    return names


def laurent_balance(n: int, balance: Balance, free_params: dict,
                    order: int) -> list[LaurentSeries]:
    """Laurent solution attached to a balance, coefficients through t^(order-1).

    The order must lie in 0..MAX_ORDER (InvariantError("order"), before
    any work).  free_params maps slot names "a<i>.<k>" to exact rationals,
    one per non-pivot column of M - k I; supplying the wrong set of slots
    raises, as does an inconsistent resonance.  The returned series satisfy
    the Volterra equations exactly through their validity window.

    Each order a^(k) is kept as integer numerators over one denominator in
    lowest terms; one Fraction per output coefficient is built at the end.
    """
    if balance.n != n:
        raise InvariantError("size", "balance does not match n")
    if not 0 <= order <= MAX_ORDER:
        raise InvariantError("order", f"the Laurent order must lie in 0..{MAX_ORDER}, got {order}")
    params = {k: Fraction(v) for k, v in free_params.items()}
    neg, D = _negated_matrix(balance)
    # row i, orders 1..k-1: numerators of a_i^(j) and a_{i-1}^(j) - a_{i+1}^(j); their denominators
    nums, diffs, dens = [[] for _ in range(n)], [[] for _ in range(n)], []
    for k in range(1, order + 1):
        # rhs_i = sum_{j=1}^{k-1} a_i^(j) diff_i^(k-j), over L = lcm_j dens_j dens_{k-j}
        products = [dens[j] * dens[k - 2 - j] for j in range(k - 1)]
        L = lcm(*products)
        weights = [D * L // p for p in products]
        sol = solve_affine([[*row[:i], row[i] + k * D, *row[i + 1:],
                             sum(map(mul, map(mul, weights, a), reversed(d)))]
                            for i, (row, a, d) in enumerate(zip(neg, nums, diffs))])
        if not sol.consistent:
            raise ResonanceError(f"inconsistent resonance at order k={k}")
        values = []
        for col in sol.free_columns:
            name = slot_name(col + 1, k)
            if name not in params:
                expected = free_slots(n, balance, order)
                raise InvariantError(
                    "free-parameters",
                    f"missing value for free slot {name}; expected slots {expected}")
            values.append(params.pop(name))
        # a^(k) = particular / (den L) + sum_f value_f kernel_f / den, over den L Q
        Q = lcm(*[v.denominator for v in values])
        vec = [x * Q for x in sol.particular]
        for value, basis_vec in zip(values, sol.kernel_basis):
            w = L * value.numerator * (Q // value.denominator)
            vec = [x + w * y for x, y in zip(vec, basis_vec)]
        g = gcd(sol.den * L * Q, *vec)
        for i in range(n):
            nums[i].append(vec[i] // g)
            diffs[i].append((vec[i - 1] - vec[(i + 1) % n]) // g)
        dens.append(sol.den * L * Q // g)
    if params:
        raise InvariantError("free-parameters",
                             f"unused parameters {sorted(params)}")
    return [LaurentSeries(-1, [Fraction(a)] + [Fraction(x, den) for x, den in zip(col, dens)],
                          hi=order - 1)
            for a, col in zip(balance.alpha, nums)]


def km_residual(series: list[LaurentSeries]) -> list[LaurentSeries]:
    """da_i/dt - a_i (a_{i-1} - a_{i+1}) for a candidate solution.  With a of
    weight 2 it is found scaled by D^2 on int series (module docstring) and
    divided once; a residual is int when a_{i-1}, a_i, a_{i+1} are, otherwise
    every coefficient is a Fraction."""
    n, D = len(series), lcm(*[c.denominator for s in series for c in s.coeffs])
    A = [LaurentSeries(s.lo, [c.numerator * (D // c.denominator) for c in s.coeffs], s.hi)
         for s in series]
    out = []
    for i, (a, f) in enumerate(zip(A, km_field(A))):
        r = LaurentSeries(a.lo, [D * c for c in a.coeffs], a.hi).derivative() - f
        ints = all(type(c) is int for j in (i - 1, i, (i + 1) % n) for c in series[j].coeffs)
        out.append(LaurentSeries(r.lo, [c // (D * D) if ints else Fraction(c, D * D)
                                        for c in r.coeffs], r.hi))
    return out

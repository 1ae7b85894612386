"""Periodic sl(n) Toda lattice and its Volterra (Kac-van Moerbeke) slice.

Phase points are pairs of cyclic sequences (a_1..a_n, b_1..b_n) with
prod a_i = 1, packaged as the Lax operator

    L(h) = band(b on the diagonal, a on the super, 1 on the sub)
           + h^{-1} E_{1,n} + h a_n E_{n,1}.

The n spectral invariants are
    I_i     = tr L(h)^{i+1} / (i+1)          i = 0..n-2,
    I_{n-1} = tr L(h)^n / n - h - 1/h,
all independent of h (asserted exactly, per h-exponent).  The momentum map
K is read off the characteristic polynomial,

    det(x Id - L(h)) = -h - 1/h + K(x)/2,    K = 2 (Delta - a_n Delta_{1,n}),

where Delta_{...} are minors of the h-stripped tridiagonal part of
x Id - L(h).  Two compatible Poisson structures make the hierarchy
multi-Hamiltonian: the linear bracket

    {a_i, b_j}^1 = a_i (d_{ij} - d_{i+1,j}),       (I_0 Casimir)

and the quadratic bracket

    {a_i, a_j}^x = a_i a_j (d_{i,j+1} - d_{i+1,j}),
    {a_i, b_j}^x = a_i b_j (d_{ij} - d_{i+1,j}),
    {b_i, b_j}^x = a_j d_{i,j+1} - a_i d_{i+1,j},  (det L Casimir)

(indices cyclic; the b-b entry is the antisymmetric completion forced by
{., I_0}^x = {., I_1}^1).  The hierarchy fields admit the Lax form

    X_i L(h) = [L(h), (L(h)^i)_+],   (sum A_j h^j)_+ = sum_{j>0} A_j h^j + su(A_0),

with su() the strictly upper triangular part, and X_i = {., I_i}^1.
toda_flow weighs a as 2 and b as 1: with d the lcm of the point's
denominators it runs on the ints d^2 a and d b, offset k of L has weight
k + 1, and offset k of the commutator is d^(k + i + 1) times its value.

The KM phase space is the b = 0 slice; it is the fixed locus of
(a, b) -> (a, -b), which is a Poisson involution for the quadratic bracket
only, and the induced bracket is {a_i, a_j} = a_i a_j (d_{i,j+1} - d_{i+1,j}).
The basic KM field is da_i/dt = a_i (a_{i-1} - a_{i+1}); within the Lax
hierarchy above it is the restriction of X_2 (the Toda fields X_i with i
even are tangent to the slice, those with odd i are not).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .algebra import Poly, format_rational, integer_numerators, parse_rational, tridiag_run
from .errors import InvariantError, ParseError
from .symbolic import BracketTable, MultiPoly, charpoly_mismatch

# The largest lattice the Painleve analysis and the bracket tables accept.
# |Sigma_n| grows like the golden ratio to the n (15 126 sets at n = 20,
# about 1.3e6 at n = 30, 1.7e8 at n = 40), and a balance builds an n x n
# Kowalevski matrix.
MAX_N = 24

# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------

def _lattice_a(a) -> tuple:
    """a as Fractions; TodaPoint and KMPoint need every a_i nonzero, prod 1."""
    a = tuple(Fraction(x) for x in a)
    if any(x == 0 for x in a):
        raise InvariantError("a-nonzero", "all a_i must be nonzero")
    if prod(a) != 1:
        raise InvariantError("a-product", "prod a_i must equal 1")
    return a


@dataclass(frozen=True)
class TodaPoint:
    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        if len(self.a) != len(self.b):
            raise InvariantError("size", "a and b must have the same length")
        object.__setattr__(self, "a", _lattice_a(self.a))

    @property
    def n(self) -> int:
        return len(self.a)

    def shift(self, s: int = 1) -> "TodaPoint":
        """Cyclic automorphism (a_i, b_i) -> (a_{i+s}, b_{i+s})."""
        n = self.n
        return TodaPoint(tuple(self.a[(i + s) % n] for i in range(n)),
                         tuple(self.b[(i + s) % n] for i in range(n)))

    def to_json(self) -> dict:
        return {"n": self.n, "a": [format_rational(x) for x in self.a],
                "b": [format_rational(x) for x in self.b]}

    @classmethod
    def from_json(cls, payload: dict) -> "TodaPoint":
        try:
            n, a = payload["n"], payload["a"]
            b = payload.get("b", ["0"] * len(a)) if type(a) is list else None
            if type(b) is not list:  # a JSON string would be read one character at a time
                raise TypeError("a and b must be arrays")
            a = [parse_rational(str(x)) for x in a]
            b = [parse_rational(str(x)) for x in b]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed lattice point: {exc}") from exc
        if type(n) is not int:  # a JSON integer; not a bool, a float or a string
            raise ParseError(f"malformed lattice point: n must be an integer, got {n!r}")
        if len(a) != n or len(b) != n:
            raise ParseError("sequence lengths disagree with n")
        return cls(tuple(a), tuple(b))


@dataclass(frozen=True)
class KMPoint:
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", _lattice_a(self.a))

    @property
    def n(self) -> int:
        return len(self.a)

    def embed(self) -> TodaPoint:
        return TodaPoint(self.a, (Fraction(0),) * self.n)

    def to_json(self) -> dict:
        return {"n": self.n, "a": [format_rational(x) for x in self.a]}

    @classmethod
    def from_json(cls, payload: dict) -> "KMPoint":
        pt = TodaPoint.from_json(payload)
        if any(x != 0 for x in pt.b):
            raise ParseError("a KM point must have b = 0")
        return cls(pt.a)


# ---------------------------------------------------------------------------
# spectral invariants
# ---------------------------------------------------------------------------

def _lax_traces(a, b, zero) -> list[dict]:
    """tr L(h)^k for k = 1..n, each as {h-exponent: value}, from powers of
    the cyclic band L = {-1: ones, 0: b, 1: a} (see hierarchy_commutator).

    A diagonal entry of a band power sits at an offset d = 0 mod n and
    carries h^(d/n); for k <= n that is d = 0, and d = +-n at k = n."""
    n = len(a)
    L = {-1: [1] * n, 0: list(b), 1: list(a)}
    power, out = L, []
    for k in range(1, n + 1):
        if k > 1:
            power = _band_mul(power, L)
        trace = {d // n: sum(v, zero) for d, v in power.items() if d % n == 0}
        out.append({e: v for e, v in trace.items() if v != 0})
    return out


def toda_integrals(point: TodaPoint) -> list[Fraction]:
    """I_0..I_{n-1}; raises if any h-dependence survives (which would
    signal an implementation bug, not bad input)."""
    n = point.n
    traces = _lax_traces(point.a, point.b, Fraction(0))
    out = []
    for k, tr in enumerate(traces[:-1], start=1):
        if set(tr) - {0}:
            raise InvariantError("h-free", f"tr L^{k} kept h-terms {sorted(tr)}")
        out.append(tr.get(0, Fraction(0)) / k)
    top = {e: v / n for e, v in traces[-1].items()}
    if not (top.get(1, 0) == 1 and top.get(-1, 0) == 1 and set(top) <= {-1, 0, 1}):
        raise InvariantError("h-free", f"tr L^n / n has h-profile {sorted(top)}")
    out.append(top.get(0, Fraction(0)))
    return out


def toda_coordinate_names(n: int) -> list[str]:
    return [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]


def toda_point_values(point: TodaPoint) -> list[Fraction]:
    return list(point.a) + list(point.b)


def toda_integrals_symbolic(n: int) -> list[MultiPoly]:
    """The I_i as polynomials in (a_1..a_n, b_1..b_n).

    For I_{n-1} the h^{+-1} coefficients (equal to prod a off the
    constraint) are dropped; this fixes one extension of I_{n-1} off the
    phase space, which is harmless because prod a is a Casimir of the
    whole bracket pencil."""
    nv = 2 * n
    x, zero = MultiPoly.variables(nv), MultiPoly(nv)
    traces = _lax_traces(x[:n], x[n:], zero)
    return [tr.get(0, zero) * Fraction(1, k) for k, tr in enumerate(traces, start=1)]


def char_coeffs(a, b, zero) -> list:
    """Ascending coefficients of K(x)/2 = Delta - a_n Delta_{1,n}, with
    Delta_{...} the minors of x Id - L(h) with its h corners stripped:
    Delta is the last determinant of the run on 1..n and Delta_{1,n} that
    of the run on 2..n-1 (tridiag_run: diagonal shifts b, band products
    a); over any scalar ring with the given zero (Fraction, int,
    MultiPoly, float, LaurentSeries).  At n = 1 both h corners share the
    one entry and the a_n term, which has no permutation, is dropped."""
    n = len(a)
    half_k = tridiag_run(b, a, zero)[n]
    if n > 1:
        an = a[n - 1]
        for j, c in enumerate(tridiag_run(b[1:n - 1], a[1:], zero)[-1]):
            half_k[j] -= an * c
    return half_k


def _lax_at(point: TodaPoint, h) -> list[list[Fraction]]:
    """L(h) at a numeric h as a dense n x n matrix."""
    n = point.n
    L = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        L[i][i] = point.b[i]
        if i + 1 < n:
            L[i][i + 1] = point.a[i]
            L[i + 1][i] = Fraction(1)
    L[0][n - 1] += Fraction(1, h)
    L[n - 1][0] += h * point.a[n - 1]
    return L


def char_poly(point: TodaPoint) -> Poly:
    """K(x) with det(x Id - L(h)) = -h - 1/h + K(x)/2, asserted exactly.

    K is read off the minor recurrence (char_coeffs).  The check is
    independent of it: h det(x Id - L(h)) is a polynomial of degree <= 2
    in h (h^-1 and h sit in one entry each), so agreeing with
    -h^2 - 1 + h K(x)/2 as polynomials in x at h = 1, -1, 2 proves the
    identity.  With K/2 = k_nums(x) / k_den, each h is the identity
    det(x Id - L(h)) = (h k_nums(x) - (h^2 + 1) k_den) / (h k_den),
    decided by symbolic.charpoly_mismatch; a failure names the lowest
    power of x at which the two sides differ."""
    half_k = char_coeffs(point.a, point.b, Fraction(0))
    k_nums, k_den = integer_numerators(half_k)  # K/2 = k_nums(x) / k_den
    for h in (1, -1, 2):
        q = [h * c for c in k_nums]
        q[0] -= (h * h + 1) * k_den
        power = charpoly_mismatch(_lax_at(point, h), q, h * k_den)
        if power is not None:
            raise InvariantError("char-poly", f"det(x Id - L(h)) is off at h = {h} "
                                 f"(first at x^{power})")
    return Poly([2 * c for c in half_k])


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def _d(i: int, j: int, n: int) -> bool:
    return (i - j) % n == 0


# the coordinate pairs on which each lattice bracket is defined
_BRACKET_PAIRS = {"linear": ("aa", "ab", "bb"), "quadratic": ("aa", "ab", "bb"), "km": ("aa",)}


def _bracket_pairs(kind: str) -> tuple:
    if kind not in _BRACKET_PAIRS:
        raise InvariantError("bracket-kind", f"unknown bracket kind {kind!r}")
    return _BRACKET_PAIRS[kind]


def _bracket_entry(kind: str, which: str, i: int, j: int, a, b, zero):
    """{x_i, y_j} of a lattice bracket, x/y named by `which` (aa|ab|bb), over
    any scalar ring: a and b hold values or MultiPoly variables (indices
    cyclic, 1-based), and a term is added only where its delta is 1."""
    n = len(a)
    plus, minus = _d(i, j, n) if which == "ab" else _d(i, j + 1, n), _d(i + 1, j, n)
    if (kind == "linear" and which != "ab") or not (plus or minus):
        return zero
    ai, aj = a[(i - 1) % n], a[(j - 1) % n]
    if which == "bb":  # a_j d_{i,j+1} - a_i d_{i+1,j}
        up, down = aj, ai
    else:  # a_i a_j (d_{i,j+1} - d_{i+1,j}), a_i (b_j) (d_{ij} - d_{i+1,j})
        up = down = ai * aj if which == "aa" else ai if kind == "linear" else ai * b[(j - 1) % n]
    out = zero
    if plus:
        out = out + up
    if minus:
        out = out - down
    return out


def toda_bracket(kind: str, i: int, j: int, which: str, point: TodaPoint | KMPoint) -> Fraction:
    """Exact value of {x_i, y_j} at a point, x/y named by `which` (aa|ab|bb)."""
    if which not in _bracket_pairs(kind):
        raise InvariantError("bracket-kind", f"the {kind} bracket has no {which!r} entries")
    if isinstance(point, KMPoint):
        point = point.embed()
    return _bracket_entry(kind, which, i, j, point.a, point.b, Fraction(0))


def toda_bracket_table(kind: str, n: int) -> BracketTable:
    """Symbolic coordinate table of a lattice bracket, for 1 <= n <= MAX_N;
    the km table is the a-a block over the n variables a_i."""
    if not 1 <= n <= MAX_N:
        raise InvariantError("size",
                             f"a lattice bracket table needs 1 <= n <= {MAX_N}, got n = {n}")
    pairs = _bracket_pairs(kind)
    nv = n if kind == "km" else 2 * n
    x, zero = MultiPoly.variables(nv), MultiPoly(nv)
    a, b = x[:n], x[n:]
    entries = [[zero for _ in range(nv)] for _ in range(nv)]
    for which in pairs:
        row, col = {"aa": (0, 0), "ab": (0, n), "bb": (n, n)}[which]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                val = _bracket_entry(kind, which, i, j, a, b, zero)
                entries[row + i - 1][col + j - 1] = val
                if which == "ab":
                    entries[n + j - 1][i - 1] = -val
    return BracketTable(toda_coordinate_names(n)[:nv], entries)


def toda_pencil_table(phi: Poly, n: int) -> BracketTable:
    """{.,.}^phi = phi_1 {.,.}^x + phi_0 {.,.}^1 for deg phi <= 1."""
    if phi.degree > 1:
        raise InvariantError("phi-degree", "the lattice pencil needs deg phi <= 1")
    lin = toda_bracket_table("linear", n).scale(Fraction(phi.coeff(0)))
    quad = toda_bracket_table("quadratic", n).scale(Fraction(phi.coeff(1)))
    return lin.add(quad)


# ---------------------------------------------------------------------------
# Lax flows
# ---------------------------------------------------------------------------

def _band_mul(A, B) -> dict:
    """Product of two cyclic-band matrices (stored as in hierarchy_commutator)."""
    out = {}
    for e, x in A.items():
        for f, y in B.items():
            k = e % len(y)
            y = y[k:] + y[:k]  # entry r of B's diagonal f taken at row r + e
            acc = out.get(e + f)
            out[e + f] = ([p * q for p, q in zip(x, y)] if acc is None
                          else [s + p * q for s, p, q in zip(acc, x, y)])
    return out


def hierarchy_commutator(a, b, i: int) -> dict:
    """C = [L(h), (L(h)^i)_+] on the cyclic band, over any scalar ring.

    A band matrix is a dict from offset d to its d-th cyclic diagonal: entry
    r of the list stands at column (r + d) mod n of row r, times
    h^floor((r + d) / n), which is one-to-one even where offsets wrap
    (n = 2, 3).  L is {-1: [1] * n, 0: b, 1: a}, and ( )_+ keeps exactly the
    offsets d > 0 (the h^{>0} parts and the strictly upper h^0 part).  C
    has offsets 0..i+1; the field X_i reads db = C[0] and da = C[1] (whose
    last entry is the h a_n corner), and every other offset vanishes.
    Cost O(n i^2)."""
    n = len(a)
    L = {-1: [1] * n, 0: list(b), 1: list(a)}
    power = L
    for k in range(1, i):
        # offsets d <= k - i of L^k cannot reach the plus part of L^i
        power = _band_mul({d: v for d, v in power.items() if d > k - i}, L)
    plus = {d: v for d, v in power.items() if d > 0}
    LP, PL = _band_mul(L, plus), _band_mul(plus, L)
    return {d: [p - q for p, q in zip(LP[d], PL[d])] for d in LP}


def toda_flow(point: TodaPoint, i: int) -> tuple[list[Fraction], list[Fraction]]:
    """Tangent (da, db) of the hierarchy field X_i L = [L, (L^i)_+].

    X_i is the {., I_i}^1 Hamiltonian field; the fields with even i are
    the ones tangent to the KM slice b = 0 (X_2 restricts to the basic
    KM equation there).  C runs on the weight-scaled ints d^2 a and d b (a
    of weight 2, b of weight 1; module docstring), so da = C[1] / d^(i + 2)
    and db = C[0] / d^(i + 1)."""
    n = point.n
    if not 1 <= i <= n - 1:
        raise InvariantError("hierarchy-index", f"need 1 <= i <= {n - 1}")
    nums, d = integer_numerators(point.a + point.b)
    C = hierarchy_commutator([c * d for c in nums[:n]], nums[n:], i)
    # offsets 2..i+1 must cancel for the Lax shape to be preserved
    for k, diagonal in C.items():
        for r, v in enumerate(diagonal):
            if k > 1 and v != 0:
                raise InvariantError("lax-shape", f"commutator leaks into entry "
                                     f"({r + 1},{(r + k) % n + 1}) h^{(r + k) // n}")
    scale = d ** (i + 1)
    return [Fraction(x, scale * d) for x in C[1]], [Fraction(x, scale) for x in C[0]]


def km_field(a) -> list:
    """The basic Volterra field da_i/dt = a_i (a_{i-1} - a_{i+1}), over the
    scalar ring of its input (Fraction, float, MultiPoly or LaurentSeries)."""
    n = len(a)
    return [a[i] * (a[(i - 1) % n] - a[(i + 1) % n]) for i in range(n)]


def km_field_symbolic(n: int) -> list[MultiPoly]:
    return km_field(MultiPoly.variables(n))


def _alternating_products(a, one) -> tuple:
    """(a_1 a_3 ... a_{n-1}, a_2 a_4 ... a_n) over the ring of `one`, for
    even n only."""
    if len(a) % 2:
        raise InvariantError("even-n", "the alternating products need even n")
    return prod(a[0::2], start=one), prod(a[1::2], start=one)


def km_even_split(point: KMPoint) -> tuple[Fraction, Fraction]:
    """(a_1 a_3 ... a_{n-1}, a_2 a_4 ... a_n) for even n; both factors are
    first integrals of the KM field and multiply to 1."""
    return _alternating_products(point.a, Fraction(1))


def km_even_split_symbolic(n: int) -> tuple[MultiPoly, MultiPoly]:
    return _alternating_products(MultiPoly.variables(n), MultiPoly.const(n, 1))

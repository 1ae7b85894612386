"""Exact univariate polynomial arithmetic over the rationals.

Everything in this package ultimately reduces to computations in Q[x],
Q[x,x'] and truncated Laurent series rings with exact rational coefficients.
This module provides those substrates:

    Poly           dense univariate polynomials, coefficients ascending
    LaurentSeries  truncated Laurent series with an explicit validity window

plus the structural operations the rest of the package consumes: the
one long division (Poly.divrem), divided differences, the tridiagonal
minor recurrence, the monic-square splitting f = p^2 + r, and the one
evaluation at x = 2^k (at_two_power) behind first_mismatch, which
decides a sum of products of int polynomials.

Coefficient slots are duck typed: the same Poly code is reused with
MultiPoly (symbolic.py) or LaurentSeries coefficients whenever an identity
has to hold symbolically or along a formal solution.  The generic additive
zero is the plain int 0, which coerces correctly against every coefficient
type used here.  No kernel but _multiply tests a coefficient's type:
c == 0 means an exact zero in every ring (LaurentSeries.__eq__).

A bivariate polynomial F(x, x') is a Poly in x whose coefficients are Polys
in x' (Q[x, x'] = (Q[x'])[x]): bicoeff(F, i, j) reads x^i x'^j, outer,
of_sum and divided_difference build the generating functions, and
Poly.divrem divides them by a polynomial monic in x, such as x^2 - x'^2.
A factor that depends on x' alone must be lifted to Poly([q]) before it
multiplies such an F: a bare Poly q is read as a polynomial in x.

Text format for rational polynomials: comma-separated coefficients in
ascending degree, each an integer or `p/q`, e.g. `-4,0,9,0,-6,0,1` is
x^6 - 6x^4 + 9x^2 - 4.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, lcm, log10
from typing import Iterable, Sequence

from .errors import InvariantError, ParseError

class TruncationError(ArithmeticError):
    """A Laurent-series coefficient beyond the validity window was requested."""


# ---------------------------------------------------------------------------
# rational parsing / formatting
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse `p/q` or an integer literal into a Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"malformed rational {text!r}: not a string")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """`p/q`, or `p` for an integer.  A numerator or denominator with more
    digits than the interpreter converts to text raises
    InvariantError("digit-limit"), sized from its bit length."""
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        raise InvariantError("digit-limit", f"a rational of {bits} bits (about"
                             f" {int(bits * log10(2)) + 1} digits) is beyond the"
                             f" {sys.get_int_max_str_digits()}-digit limit of int to"
                             " text conversion") from None


def parse_poly(text: str) -> "Poly":
    """Parse the comma-separated ascending-coefficient text format."""
    if not isinstance(text, str):
        raise ParseError(f"malformed polynomial {text!r}: not a string")
    text = text.strip()
    if not text:
        return Poly()
    return Poly([parse_rational(part) for part in text.split(",")])


def format_poly(p: "Poly") -> str:
    return ",".join(format_rational(c) for c in p.coeffs) if p.coeffs else "0"


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial; coeffs[k] multiplies x^k.

    The zero polynomial has an empty coefficient list and degree -1.
    Coefficients may live in any commutative ring that supports +, -, *
    and comparison with 0 (Fraction, MultiPoly, LaurentSeries, ...); a
    trailing coefficient that == 0, an exact zero, is trimmed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to the sentinel -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal coefficient lists; a scalar c is the constant polynomial c,
        so a nested Poly([1]) == 1 (is_monic and divrem read it so)."""
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):  # a constant polynomial hashes as the scalar it equals
        cs = self.coeffs
        return hash(cs[0]) if len(cs) == 1 else hash(tuple(cs)) if cs else hash(0)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if isinstance(other, int) and other == 0:
                return self
            return NotImplemented
        return Poly(_sum(self.coeffs, other.coeffs))

    def __radd__(self, other) -> "Poly":
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def __rsub__(self, other) -> "Poly":
        if isinstance(other, int) and other == 0:
            return -self
        return NotImplemented

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            return Poly(_multiply(self.coeffs, other.coeffs))
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return Poly([other * c for c in self.coeffs])

    # -- structural operations ---------------------------------------------

    def evaluate(self, x):
        """Horner evaluation; x may live in any compatible ring."""
        return horner(self.coeffs, x)[1]

    def reflect(self) -> "Poly":
        """Substitute x -> -x."""
        return Poly([-c if k & 1 else c for k, c in enumerate(self.coeffs)])

    def is_even(self) -> bool:
        return all(c == 0 for k, c in enumerate(self.coeffs) if k % 2 == 1)

    def is_odd(self) -> bool:
        return all(c == 0 for k, c in enumerate(self.coeffs) if k % 2 == 0)

    def decimate_even(self) -> "Poly":
        """For even p return g with p(x) = g(x^2)."""
        if not self.is_even():
            raise ValueError("polynomial is not even")
        return Poly(self.coeffs[0::2])

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def divrem(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """(q, r) with self = q divisor + r and deg r < deg divisor.

        A monic divisor needs no division, so any coefficient ring serves
        (MultiPoly, Polys in x').  Otherwise each quotient term is scaled by
        Fraction(1) / lead, taken at the first step that divides (exact over
        int and Fraction, 1.0 / lead over float).  Divisor coefficients that
        == 0 are skipped, and so is the leading slot, never read again."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.coeffs[-1]
        monic, inverse = lead == 1, None
        # negated, so that an int 0 slot of rem takes a Poly by +
        body = [(j, -b) for j, b in enumerate(divisor.coeffs[:dd]) if b != 0]
        quot = [0] * max(0, len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            q = rem[k]
            if q == 0:
                continue
            if not monic:
                if inverse is None:
                    inverse = Fraction(1) / lead
                q = q * inverse
            quot[k - dd] = q
            for j, b in body:
                rem[k - dd + j] = rem[k - dd + j] + b * q
        return Poly(quot), Poly(rem[:dd])

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        try:
            return format_poly(self)
        except TypeError:
            return ",".join(str(c) for c in self.coeffs)


_INT, _RATIONAL, _OTHER = 0, 1, 2


def _product(a: list, b: list, rows: Iterable[int] | None = None,
             cols: Iterable[int] | None = None) -> list:
    """Coefficients of the product of two coefficient lists over any ring,
    by the schoolbook loop of Poly.__mul__: only the rows a_i with i in
    `rows` run (by default every row that is not == 0), each
    against the columns b_j with j in `cols` (by default every column), and
    each slot starts from the int 0 and adds a_i b_j in the order of i,
    then j (a slot that no term reaches stays the int 0).  A caller that
    knows which rows and columns vanish from the shape of its lists passes
    them, so that no coefficient is compared with anything.  The result is
    not trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    if rows is None:
        rows = [i for i, x in enumerate(a) if x != 0]
    if cols is None:
        cols = range(len(b))
    for i in rows:
        x = a[i]
        for j in cols:
            out[i + j] = out[i + j] + x * b[j]
    return out


def _scalar_kind(coeffs: list) -> int:
    """_INT if every coefficient is an int, _RATIONAL if each is an int or a
    Fraction, _OTHER otherwise.  One pass, which stops at the first
    coefficient of another type (a float list costs one step)."""
    kind = _INT
    for c in coeffs:
        t = type(c)
        if t is Fraction:
            kind = _RATIONAL
        elif t is not int:
            return _OTHER
    return kind


def integer_numerators(values) -> tuple[list[int], int]:
    """(numerators, d) with d the lcm of the denominators of the Fraction/int
    values and numerators[i] = values[i] * d."""
    d = lcm(*[c.denominator for c in values])
    return [c.numerator * (d // c.denominator) for c in values], d


def at_two_power(coeffs: Sequence[int], k: int) -> int:
    """q(2^k) for the ascending int coefficient list q, by shifts
    (Kronecker substitution).

    Lemma: if |q_j| < 2^k for every j, then q(2^k) = 0 exactly when q = 0,
    and otherwise lowest_power(q(2^k), k) is the lowest j with q_j != 0.
    Proof: with j0 that lowest slot, q(2^k) = 2^(k j0) (q_j0 + 2^k R) for
    an int R; as 0 < |q_j0| < 2^k, 2^k does not divide q_j0, so
    q_j0 + 2^k R is nonzero and has 2-adic valuation v_2(q_j0) < k.

    The deciders first_mismatch and symbolic.charpoly_mismatch take
    k = B.bit_length() for a bound B >= |q_j| that each proves."""
    value = 0
    for c in reversed(coeffs):
        value = (value << k) + c
    return value


def lowest_power(value: int, k: int) -> int:
    """The lowest nonzero slot of q, read off value = q(2^k) != 0 under the
    bound of at_two_power: the 2-adic valuation of value, divided by k."""
    return ((value & -value).bit_length() - 1) // k


def first_mismatch(terms: Sequence[tuple[int, Sequence[int], Sequence[int]]],
                   constant: int = 0) -> int | None:
    """Decide the int polynomial identity sum(s p q for (s, p, q) in terms)
    + constant = 0, p and q ascending int coefficient lists: None when it
    holds, otherwise the lowest power of x at which it fails.

    A coefficient of a product is at most the product of the factors' l1
    norms, so every coefficient of the left side obeys

        |c_j| <= B = sum |s| |p|_1 |q|_1 + |constant|,

    and the identity is decided by its one value at x = 2^k, 2^k > B
    (at_two_power).  A square, a term whose p and q are one list, costs
    one norm and one evaluation."""
    bound = abs(constant)
    for s, p, q in terms:
        norm_p = sum(map(abs, p))
        bound += abs(s) * norm_p * (norm_p if q is p else sum(map(abs, q)))
    k = bound.bit_length()
    value = constant
    for s, p, q in terms:
        at_p = at_two_power(p, k)
        value += s * at_p * (at_p if q is p else at_two_power(q, k))
    return lowest_power(value, k) if value else None


def _multiply(a: list, b: list, width: int | None = None) -> list:
    """The first `width` coefficients (by default all) of the product of two
    coefficient lists: the one product of Poly and LaurentSeries.  Int lists
    convolve as they are; int/Fraction lists convolve their integer
    numerators over each factor's common denominator, into one Fraction per
    output; any other ring runs the schoolbook loop of _product."""
    width = len(a) + len(b) - 1 if width is None else width
    a, b = a[:width], b[:width]
    kind = _scalar_kind(a)
    if kind != _OTHER:
        kind = max(kind, _scalar_kind(b))
    if kind == _OTHER:
        return _product(a, b)[:width]
    if kind == _INT:
        na, nb = a, b
    else:
        na, da = integer_numerators(a)
        nb, db = integer_numerators(b)
    out = [0] * width
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb[:width - i], i):
                out[j] += x * y
    if kind == _INT:
        return out
    den = da * db
    return [Fraction(c, den) for c in out]


def _sum(a: list, b: list) -> list:
    """Coefficients of the sum of two coefficient lists, slot by slot: the
    longer list is copied and the shorter one added into it.  The one sum
    of Poly and LaurentSeries."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return out


def horner(coeffs: list, y) -> tuple[list, object]:
    """One Horner pass over an ascending coefficient list in any scalar ring.

    Returns (q, p(y)) with p(x) = (x - y) q(x) + p(y), so q is the divided
    difference (p(x) - p(y)) / (x - y); the empty list gives ([], 0)."""
    if not coeffs:
        return [], 0
    q = [0] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        q[k] = acc
        acc = coeffs[k] + acc * y
    return q, acc


# ---------------------------------------------------------------------------
# bivariate generating functions: a Poly in x over Polys in x'
# ---------------------------------------------------------------------------

def bicoeff(F: Poly, i: int, j: int):
    """Coefficient of x^i x'^j in F, a Poly in x whose coefficients are Polys
    in x'.  The generic product loop leaves an int 0 in a row it never
    reaches; such a row reads as empty."""
    row = F.coeff(i)
    return 0 if row == 0 else row.coeff(j)


def outer(p: Poly, q: Poly) -> Poly:
    """p(x) q(x')."""
    return Poly([Poly([a * b for b in q.coeffs]) for a in p.coeffs])


def of_sum(p: Poly) -> Poly:
    """p(x + x') expanded through the binomial theorem."""
    d = p.degree
    return Poly([Poly([p.coeffs[i + j] * comb(i + j, i) for j in range(d + 1 - i)])
                 for i in range(d + 1)])


def divided_difference(p: Poly, phi: Poly) -> Poly:
    """(p(x) phi(x') - p(x') phi(x)) / (x - x'), always a polynomial.

    Expanded monomial by monomial:
      (x^i x'^j - x^j x'^i)/(x - x') = sum_{s=0}^{i-j-1} x^{j+s} x'^{i-1-s}
    for i > j, with the antisymmetric counterpart for i < j.
    """
    d = max(p.degree, phi.degree)
    if d < 1:
        return Poly()
    grid = [[0] * d for _ in range(d)]
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(phi.coeffs):
            if b == 0:
                continue
            c = a * b
            if i > j:
                for s in range(i - j):
                    grid[j + s][i - 1 - s] = grid[j + s][i - 1 - s] + c
            elif i < j:
                for s in range(j - i):
                    grid[i + s][j - 1 - s] = grid[i + s][j - 1 - s] - c
    return Poly([Poly(row) for row in grid])


# ---------------------------------------------------------------------------
# tridiagonal minors
# ---------------------------------------------------------------------------

def tridiag_run(b: Sequence, c: Sequence, zero) -> list[list]:
    """Every prefix determinant of a tridiagonal run, as ascending
    coefficient lists over the ring of `zero`: entry k is D_k, the
    determinant of the leading k x k block, and D_0 = [1].

    The block has x - b_k on the diagonal, and c_k = sup_k sub_k is the
    product of the two band entries that couple positions k and k + 1
    (0-based); nothing else in the recurrence
    D_k = (x - b_k) D_{k-1} - c_{k-1} D_{k-2} depends on sup and sub
    separately.  It runs in place on coefficient lists.

    The b_k D_{k-1} pass is skipped when b_k == 0 (the KM slice), which
    a series that vanishes only through its window does not: it still
    bounds the window of what it meets.  The skip is exact over
    Fraction, and bit-identical over float while the coefficients are
    finite: no coefficient is ever -0.0 (the lists start from +0.0 and 1,
    and x - y is -0.0 only for x = -0.0), and subtracting a zero product
    from anything but -0.0 leaves it as it is.

    Parity stride: while `zero` and every shift so far == 0,
    D_k(-x) = (-1)^k D_k(x), so D_k vanishes in every slot of the other
    parity, and the c-pass of D_k touches only the slots of D_{k-2} of
    parity k, every second one.  A skipped slot keeps the `zero` it was
    shifted in with, the value the pass would leave there: +0.0 - c (+0.0)
    is +0.0 over float for finite c; c 0 is 0 over int, Fraction and
    MultiPoly; and a LaurentSeries c times an exact zero is the exact zero
    series (which the pass would store in place of an int or Fraction
    `zero`, an equal value of another type).  The first shift that is not
    == 0, a windowed zero series included, turns the stride off for the
    rest of the run."""
    prev2, prev = [], [zero + 1]
    dets = [prev]
    stride = zero == 0
    for k, bk in enumerate(b):
        cur = [zero] + prev
        if bk != 0:
            stride = False
            for j, p in enumerate(prev):
                cur[j] -= bk * p
        if prev2:
            ck = c[k - 1]
            if stride:
                # cur is D_{k+1} and prev2 is D_{k-1}: its slots of parity k - 1
                for j in range(1 - k % 2, k, 2):
                    cur[j] -= ck * prev2[j]
            else:
                for j, p in enumerate(prev2):
                    cur[j] -= ck * p
        prev2, prev = prev, cur
        dets.append(cur)
    return dets


def tridiag_minor_det(b: Sequence, c: Sequence, removed: Iterable[int] = ()) -> Poly:
    """Determinant of the minor of the n x n band (diagonal x - b_i, band
    products c_i, as in tridiag_run) obtained by deleting rows and columns
    `removed` (1-based, reduced mod n).  The empty 0x0 minor is 1.

    It is one tridiag_run over the kept indices, with band product 0 between
    kept neighbours that were not adjacent: a zero coupling splits the
    continuant into the product of its blocks."""
    n, gone = len(b), set()
    for idx in removed:
        if (idx - 1) % n in gone:
            raise ValueError(f"duplicate removal index {idx}")
        gone.add((idx - 1) % n)
    keep = [i for i in range(n) if i not in gone]
    bands = [c[i] if j == i + 1 else 0 for i, j in zip(keep, keep[1:])]
    return Poly(tridiag_run([b[i] for i in keep], bands, 0)[-1])


# ---------------------------------------------------------------------------
# monic-square splitting  f = p^2 + r
# ---------------------------------------------------------------------------

def pr_split_from(f: Poly, n: int) -> tuple[Poly, Poly]:
    """Unique (p, r) with p monic of degree n, deg r < n and f = p^2 + r.

    Solved top-down by coefficient matching; exact over any ring containing
    1/2.  Raises ValueError unless f is monic of degree 2n.
    """
    if f.degree != 2 * n or not (f.coeff(2 * n) == 1):
        raise ValueError("input is not monic of degree 2n")
    half = Fraction(1, 2)
    p = [0] * (n + 1)
    p[n] = Fraction(1)
    for d in range(2 * n - 1, n - 1, -1):
        k = d - n
        acc = f.coeff(d)
        for i in range(k + 1, n):
            acc = acc - p[i] * p[d - i]
        p[k] = acc * half
    p_poly = Poly(p)
    r = f - p_poly * p_poly
    if r.degree >= n:
        raise ValueError("splitting failed: remainder degree too large")
    return p_poly, r


def pr_split(u: Poly, v: Poly, w: Poly, n: int) -> tuple[Poly, Poly]:
    """Split u w + v^2 = p^2 + r with p monic of degree n and deg r < n."""
    return pr_split_from(u * w + v * v, n)


# ---------------------------------------------------------------------------
# truncated Laurent series
# ---------------------------------------------------------------------------

class LaurentSeries:
    """Laurent series known exactly on a finite exponent window.

    coeffs[i] multiplies t^(lo+i); every coefficient above `hi` is unknown
    (truncated) and every one below lo is zero.  hi=None marks an exact
    series (a Laurent polynomial) whose higher coefficients are all zero.
    The constructor strips zeros from both ends of coeffs, so a series with
    any coefficient has nonzero first and last ones.  The series keeps only
    its window; sums and products run on Poly's kernels (_sum, _multiply),
    so the coefficients may lie in any ring those take (int, Fraction,
    MultiPoly, ...); only inverse needs a field.  Arithmetic tracks how far
    results remain valid, so "equals zero through the truncation order" is
    a meaningful exact statement: known_zero and is_zero_through ask it of
    the window.  A scalar c stands for the exact constant series c, so a
    series == 0 only when it is exactly zero (hi None).
    """

    __slots__ = ("lo", "coeffs", "hi")

    def __init__(self, lo: int, coeffs: Iterable = (), hi: int | None = None):
        cs = list(coeffs)
        first = 0
        while first < len(cs) and cs[first] == 0:
            first += 1
        if first:
            del cs[:first]
            lo += first
        if hi is not None and cs and lo + len(cs) - 1 > hi:
            raise ValueError("coefficients extend beyond the validity window")
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            lo = 0 if hi is None else hi + 1
        self.lo = lo
        self.coeffs = cs
        self.hi = hi

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "LaurentSeries":
        return cls(0, [c])

    @classmethod
    def monomial(cls, e: int, c=1, hi: int | None = None) -> "LaurentSeries":
        return cls(e, [c], hi)

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, LaurentSeries):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.constant(value)
        return None

    # -- queries ---------------------------------------------------------------

    def known_zero(self) -> bool:
        return not self.coeffs

    def leading_exponent(self) -> int:
        """First exponent that can carry a nonzero coefficient."""
        if self.coeffs:
            return self.lo
        if self.hi is None:
            raise ValueError("exact zero series has no leading exponent")
        return self.hi + 1

    def pole_order(self) -> int:
        if self.known_zero():
            return 0
        return max(0, -self.lo)

    def coefficient(self, e: int):
        if self.hi is not None and e > self.hi:
            raise TruncationError(f"coefficient t^{e} lies beyond validity window {self.hi}")
        if self.lo <= e < self.lo + len(self.coeffs):
            return self.coeffs[e - self.lo]
        return 0

    def known_through(self) -> int | None:
        return self.hi

    def is_zero_through(self, e: int) -> bool:
        if self.hi is not None and e > self.hi:
            raise TruncationError(f"window ends at t^{self.hi}, asked through t^{e}")
        return not self.coeffs or e < self.lo  # coeffs[0], at t^lo, is nonzero

    # -- arithmetic --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentSeries):
            return (self.lo, self.coeffs, self.hi) == (other.lo, other.coeffs, other.hi)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # the exact constant series `other`, trimmed as the constructor trims it
        return self.hi is None and self.lo == 0 and self.coeffs == ([other] if other else [])

    def __hash__(self):  # an exact constant hashes as the scalar it equals
        if self.hi is None and self.lo == 0 and len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.lo, tuple(self.coeffs), self.hi))

    def __add__(self, other):
        other = LaurentSeries._coerce(other)
        if other is None:
            return NotImplemented
        if self == 0:
            return other
        if other == 0:
            return self
        hi = other.hi if self.hi is None else self.hi if other.hi is None else min(self.hi, other.hi)
        top = hi if hi is not None else max(self.lo + len(self.coeffs), other.lo + len(other.coeffs)) - 1
        lo = min(self.lo if self.coeffs else top, other.lo if other.coeffs else top)
        # each operand's slots t^lo .. t^top, zero-padded below its own lo
        a, b = (([0] * (s.lo - lo) + s.coeffs)[:top + 1 - lo] for s in (self, other))
        return LaurentSeries(lo, _sum(a, b), hi)

    __radd__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.lo, [-c for c in self.coeffs], self.hi)

    def __sub__(self, other):
        other = LaurentSeries._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = LaurentSeries._coerce(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        other = LaurentSeries._coerce(other)
        if other is None:
            return NotImplemented
        if self == 0 or other == 0:
            return LaurentSeries(0, [], None)
        # validity: unknown terms of one factor start at hi+1 and meet the
        # other factor's leading exponent
        bounds = []
        if self.hi is not None:
            bounds.append(self.hi + other.leading_exponent())
        if other.hi is not None:
            bounds.append(other.hi + self.leading_exponent())
        hi = min(bounds) if bounds else None
        if self.known_zero() or other.known_zero():
            return LaurentSeries(0, [], hi)
        lo = self.lo + other.lo  # with both factors nonzero, hi >= lo
        top = hi if hi is not None else lo + len(self.coeffs) + len(other.coeffs) - 2
        return LaurentSeries(lo, _multiply(self.coeffs, other.coeffs, top - lo + 1), hi)

    __rmul__ = __mul__

    def derivative(self) -> "LaurentSeries":
        hi = None if self.hi is None else self.hi - 1
        return LaurentSeries(self.lo - 1, [e * c for e, c in enumerate(self.coeffs, self.lo)], hi)

    def truncate(self, hi: int) -> "LaurentSeries":
        if self.hi is not None and hi > self.hi:
            raise TruncationError("cannot extend validity by truncation")
        return LaurentSeries(self.lo, self.coeffs[:max(0, hi + 1 - self.lo)], hi)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse; leading coefficient must be nonzero.

        An exact input must be a single monomial (otherwise the inverse is an
        infinite series and the caller has to truncate first).
        """
        if self.known_zero():
            raise ZeroDivisionError("inverting a series with no known nonzero term")
        a0 = self.coeffs[0]
        m = self.lo
        if self.hi is None:
            if len(self.coeffs) != 1:
                raise TruncationError("inverse of an exact multi-term series is infinite; truncate first")
            return LaurentSeries(-m, [Fraction(1) / a0])
        # unknown input terms at hi+1 perturb the inverse from hi+1-2m on;
        # relative coefficient j of the inverse needs input through m+j.
        hi = self.hi - 2 * m
        length = self.hi - m + 1
        inv0 = Fraction(1) / a0
        out = [inv0]
        for j in range(1, length):
            acc = 0
            for i in range(1, j + 1):
                ai = self.coeffs[i] if i < len(self.coeffs) else 0
                if ai == 0:
                    continue
                acc = acc + ai * out[j - i]
            out.append(-inv0 * acc)
        return LaurentSeries(-m, out, hi)

    def __repr__(self) -> str:
        terms = ", ".join(f"t^{self.lo + i}: {c}" for i, c in enumerate(self.coeffs))
        tail = "exact" if self.hi is None else f"O(t^{self.hi + 1})"
        return f"LaurentSeries({terms or '0'}; {tail})"

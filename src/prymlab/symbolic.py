"""Sparse multivariate polynomials over Q and exact linear algebra.

Poisson brackets in this package are materialized as coordinate tables:
for a phase space with coordinates c_0..c_{N-1}, the table entry (i, j)
is the bracket {c_i, c_j} written as an exact polynomial in the
coordinates.  That makes antisymmetry, Jacobi identities, Casimirs and
Poisson-map checks plain polynomial identities, decidable with zero
tolerance.

MultiPoly is the workhorse: a dict `nums` from exponent tuples, one
exponent slot per coordinate, to nonzero int numerators over one
positive int `den`, always in lowest terms (gcd(den, *nums) = 1, and
den = 1 for the zero polynomial), so equal polynomials have equal
(nums, den).  It is deliberately minimal; degrees and variable counts
stay small everywhere in this package.

The exact kernels keep Fraction out of their inner loops: MultiPoly sums
add numerators over the lcm of the two denominators, products convolve
them over the product of the denominators, scalar products and
derivatives scale them, and each result is reduced by one gcd; the
linear algebra eliminates on integer rows kept primitive by their
content gcd (_eliminate: ranks, determinants such as the one at x = 2^k
of charpoly_mismatch, and `solve_affine`, which returns integer
numerators over one common denominator), and the Jacobi check works on
integer numerators with packed exponents (_PackedTable).
Fractions are built only where a caller needs them, such as the
`MultiPoly.terms` view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Sequence

from .algebra import at_two_power, integer_numerators, lowest_power


class MultiPoly:
    """Sparse polynomial in nvars variables with rational coefficients.

    nums maps exponent tuples to nonzero int numerators over the one
    positive int den, kept in lowest terms: gcd(den, *nums.values()) = 1,
    and the zero polynomial has no terms and den = 1.  So equal
    polynomials have equal (nums, den).  `terms` is the Fraction view."""

    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.nums, self.den = {}, 1
        if terms:
            coeffs = {}
            for expo, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    coeffs[tuple(expo)] = coeff
            # over the lcm of the denominators the numerators are in lowest terms
            nums, self.den = integer_numerators(coeffs.values())
            self.nums = dict(zip(coeffs, nums))

    @classmethod
    def _reduced(cls, nvars: int, nums: dict, den: int) -> "MultiPoly":
        """The polynomial nums / den from nonzero int numerators over den > 0,
        brought to lowest terms by one gcd (none when den = 1)."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        out = object.__new__(cls)
        out.nvars, out.nums, out.den = nvars, nums, den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, nvars: int, value) -> "MultiPoly":
        value = value if type(value) is int else Fraction(value)
        return cls._reduced(nvars, {(0,) * nvars: value.numerator} if value else {},
                            value.denominator)

    @classmethod
    def var(cls, nvars: int, index: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[index] = 1
        return cls._reduced(nvars, {tuple(expo): 1}, 1)

    @classmethod
    def variables(cls, nvars: int) -> list["MultiPoly"]:
        return [cls.var(nvars, i) for i in range(nvars)]

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction coefficient}, built on each read."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    def _operand(self, other):
        """(nums, den) of a MultiPoly/int/Fraction operand, None for anything
        else so the dunder can return NotImplemented and defer to it."""
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other.nums, other.den
        if isinstance(other, (int, Fraction)):
            return ({(0,) * self.nvars: other.numerator} if other else {}), other.denominator
        return None

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.nums
            return (self.den == other.denominator and len(self.nums) == 1
                    and self.nums.get((0,) * self.nvars) == other.numerator)
        return NotImplemented

    def __hash__(self):
        """A constant hashes as the scalar it equals (the zero polynomial as 0)."""
        nums, zero = self.nums, (0,) * self.nvars
        if not nums or nums.keys() == {zero}:
            return hash(Fraction(nums.get(zero, 0), self.den))
        return hash((self.nvars, self.den, frozenset(nums.items())))

    # -- arithmetic -----------------------------------------------------------

    def _sum(self, other, sign: int):
        """self + sign * other, added over the lcm of the two dens; a sum
        with the int 0 is self."""
        if type(other) is int and not other:
            return self
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        nums2, den2 = operand
        den = self.den
        if den == den2:
            nums = dict(self.nums)
            scale = sign
        else:
            common = lcm(den, den2)
            s = common // den
            nums = {e: c * s for e, c in self.nums.items()}
            scale = sign * (common // den2)
            den = common
        get = nums.get
        for expo, c in nums2.items():
            acc = get(expo, 0) + c * scale
            if acc:
                nums[expo] = acc
            else:
                del nums[expo]
        return MultiPoly._reduced(self.nvars, nums, den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._reduced(self.nvars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def _scaled(self, p: int, q: int) -> "MultiPoly":
        """self * p / q for ints p and q > 0: no convolution."""
        if not p or not self.nums:
            return MultiPoly(self.nvars)
        if p == 1 and q == 1:
            return self
        return MultiPoly._reduced(self.nvars, {e: c * p for e, c in self.nums.items()},
                                  self.den * q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable counts differ")
        if not self.nums or not other.nums:
            return MultiPoly(self.nvars)
        acc: dict = {}
        get = acc.get
        terms2 = other.nums.items()
        for e1, c1 in self.nums.items():
            for e2, c2 in terms2:
                expo = tuple(map(add, e1, e2))
                acc[expo] = get(expo, 0) + c1 * c2
        return MultiPoly._reduced(self.nvars, {e: c for e, c in acc.items() if c},
                                  self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(self.nvars, 1) if result is None else result

    # -- calculus / substitution ------------------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        """d/dx_index; lowering exponent index is one to one on the terms
        that have it, so each numerator is scaled once and none cancel."""
        nums = {}
        for expo, c in self.nums.items():
            k = expo[index]
            if k:
                nums[expo[:index] + (k - 1,) + expo[index + 1:]] = c * k
        return MultiPoly._reduced(self.nvars, nums, self.den)

    def eval(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for v, k in zip(values, expo):
                if k:
                    term *= Fraction(v) ** k
            total += term
        return total

    def subs(self, replacements: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute replacement polynomials for every variable: the int
        numerators times the products of powers, divided once by den."""
        if len(replacements) != self.nvars:
            raise ValueError("wrong number of replacements")
        nvars = replacements[0].nvars if replacements else 0
        acc = MultiPoly(nvars)
        for expo, c in self.nums.items():
            term = None
            for rep, k in zip(replacements, expo):
                if k:
                    power = rep ** k
                    term = power if term is None else term * power
            acc = acc + (MultiPoly.const(nvars, c) if term is None else term * c)
        return acc._scaled(1, self.den)

    def to_str(self, names: Sequence[str]) -> str:
        if not self.nums:
            return "0"
        parts = []
        for expo, coeff in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            factors = []
            for name, k in zip(names, expo):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly(nvars={self.nvars}, {len(self.nums)} terms)"


# ---------------------------------------------------------------------------
# exact linear algebra on integer rows
# ---------------------------------------------------------------------------

def _eliminate(rows: list[list[int]], reduce_above: bool) -> tuple[list[int], int, int]:
    """Fraction-free elimination of integer rows, in place.

    For each pivot p in row r, every other row with an entry f in the pivot
    column becomes (p row - f row_r) / g, g the content gcd of the new row;
    rows below the pivot are cleared, and with reduce_above the rows above
    it too (Gauss-Jordan).  Returns the pivot columns and the ints num, den
    with det(input) = num * prod(pivot entries) / den when the input is
    square of full rank."""
    pivots: list[int] = []
    num = den = 1
    m = len(rows)
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        for pivot_row in range(r, m):
            if rows[pivot_row][col]:
                break
        else:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            num = -num
        prow = rows[r]
        p = prow[col]
        for i in range(0 if reduce_above else r + 1, m):
            row = rows[i]
            f = row[col]
            if f and i != r:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                if g > 1:
                    new = [a // g for a in new]
                    num *= g
                den *= p
                rows[i] = new
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots, num, den


def integer_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square int matrix; the rows are overwritten."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, num, den = _eliminate(rows, reduce_above=False)
    if len(pivots) < len(rows):
        return 0
    return num * prod(row[col] for row, col in zip(rows, pivots)) // den


def charpoly_mismatch(matrix: Sequence[Sequence[Fraction]], q: Sequence[int],
                      q_den: int) -> int | None:
    """Decide det(x Id - M) = q(x) / q_den for a square Fraction/int matrix
    M, an ascending int coefficient list q and an int q_den != 0: None
    when it holds, otherwise the lowest power of x at which the two sides
    differ.

    With d_i the lcm of the denominators of row i of M, N_i = d_i M_i its
    int row and P = prod d_i, the identity reads

        r(x) = q_den det(x diag(d) - N) - P q(x) = 0.

    Expanding the determinant over permutations, each entry is a
    polynomial of l1 norm |N_ij| + d_i [i = j], the l1 norm of a product
    is at most the product of the norms, and the permanent of a
    nonnegative matrix is at most the product of its row sums, so

        |r_j| <= B = |q_den| prod_i (d_i + |N_i|_1) + P |q|_1,

    and r = 0 is decided by one integer determinant at x = 2^k, 2^k > B
    (algebra.at_two_power).  Scaling each row by its own denominator
    gives B, and so the evaluation, up to about n times fewer bits than
    one common denominator of all n rows would."""
    rows, dens = [], []
    for nums, d in map(integer_numerators, matrix):
        rows.append(nums)
        dens.append(d)
    P = prod(dens)
    k = (abs(q_den) * prod(d + sum(map(abs, row)) for d, row in zip(dens, rows))
         + P * sum(map(abs, q))).bit_length()
    for i, d in enumerate(dens):
        rows[i][i] -= d << k
    # det(N - 2^k diag(d)) = (-1)^n det(2^k diag(d) - N)
    value = (-1) ** len(rows) * q_den * integer_determinant(rows) - P * at_two_power(q, k)
    return lowest_power(value, k) if value else None


def pivot_columns(matrix: Sequence[Sequence[Fraction]]) -> list[int]:
    """The pivot columns of the rref of a Fraction/int matrix, read off a
    forward integer elimination (no back substitution, no Fraction)."""
    return _eliminate([integer_numerators(row)[0] for row in matrix], reduce_above=False)[0]


def matrix_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(pivot_columns(matrix))


@dataclass
class AffineSolution:
    """Solution set of A x = b: x = (particular + span(kernel_basis)) / den,
    every vector of integer numerators over the one positive den."""

    consistent: bool
    particular: list[int] | None
    kernel_basis: list[list[int]]
    free_columns: list[int]
    den: int


def solve_affine(rows: list[list[int]]) -> AffineSolution:
    """Exact solution of A x = b over Q from the augmented integer rows
    [A | b], which are overwritten.

    One fraction-free Gauss-Jordan elimination leaves pivot p_r in row r
    and zeros in the other pivot columns, so with den the lcm of the
    pivots each pivot coordinate is read off row r times den / p_r."""
    n = len(rows[0]) - 1 if rows else 0
    pivots, _, _ = _eliminate(rows, reduce_above=True)
    if n in pivots:
        return AffineSolution(False, None, [], [], 1)
    free_cols = [j for j in range(n) if j not in pivots]
    den = lcm(*[row[col] for row, col in zip(rows, pivots)])
    particular = [0] * n
    kernel = [[den if j == free else 0 for j in range(n)] for free in free_cols]
    for row, col in zip(rows, pivots):
        s = den // row[col]
        particular[col] = row[n] * s
        for vec, free in zip(kernel, free_cols):
            vec[col] = -row[free] * s
    return AffineSolution(True, particular, kernel, free_cols, den)


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------

class BracketTable:
    """Antisymmetric table of coordinate brackets {c_i, c_j} as MultiPoly.

    The table determines the Poisson structure completely: for polynomial
    F, G the biderivation rule gives
        {F, G} = sum_{k,l} dF/dc_k dG/dc_l {c_k, c_l}.
    """

    def __init__(self, names: Sequence[str], entries: Sequence[Sequence[MultiPoly]]):
        self.names = list(names)
        self.entries = [list(row) for row in entries]
        n = len(self.names)
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError("table shape does not match coordinate count")

    @property
    def dim(self) -> int:
        return len(self.names)

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def at(self, values: Sequence[Fraction]) -> list[list[Fraction]]:
        """Numeric bracket matrix at a phase point."""
        return [[entry.eval(values) for entry in row] for row in self.entries]

    def antisymmetry_defects(self) -> list[tuple[int, int]]:
        bad = []
        for i in range(self.dim):
            for j in range(i, self.dim):
                if not (self.entries[i][j] + self.entries[j][i]).is_zero():
                    bad.append((i, j))
        return bad

    def jacobiator(self, i: int, j: int, k: int) -> MultiPoly:
        """{{c_i,c_j},c_k} + {{c_j,c_k},c_i} + {{c_k,c_i},c_j} as MultiPoly."""
        view = _PackedTable(self.entries)
        return view.unpack(*view.jacobiator(i, j, k))

    def jacobi_holds(self) -> bool:
        """True iff the table is antisymmetric and every jacobiator with
        i < j < k vanishes; for an antisymmetric table the jacobiator is
        alternating, so those triples decide the Jacobi identity."""
        if self.antisymmetry_defects():
            return False
        view = _PackedTable(self.entries)
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if any(view.jacobiator(i, j, k)[0].values()):
                        return False
        return True

    def poisson_bracket(self, F: MultiPoly, G: MultiPoly) -> MultiPoly:
        acc = MultiPoly(F.nvars)
        dF = [F.diff(k) for k in range(self.dim)]
        dG = [G.diff(l) for l in range(self.dim)]
        for k, fk in enumerate(dF):
            if fk.is_zero():
                continue
            for l, gl in enumerate(dG):
                if gl.is_zero() or self.entries[k][l].is_zero():
                    continue
                acc = acc + fk * gl * self.entries[k][l]
        return acc

    def hamiltonian_field(self, H: MultiPoly, values: Sequence[Fraction]) -> list[Fraction]:
        """Numeric vector {c_k, H} evaluated at a phase point."""
        grad = [H.diff(l).eval(values) for l in range(self.dim)]
        matrix = self.at(values)
        return [sum((matrix[k][l] * grad[l] for l in range(self.dim)), Fraction(0))
                for k in range(self.dim)]

    def add(self, other: "BracketTable") -> "BracketTable":
        if self.names != other.names:
            raise ValueError("coordinate systems differ")
        return BracketTable(self.names,
                            [[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, factor) -> "BracketTable":
        return BracketTable(self.names,
                            [[entry * factor for entry in row] for row in self.entries])

    def entry_strings(self) -> list[list[str]]:
        return [[entry.to_str(self.names) for entry in row] for row in self.entries]

    def __repr__(self) -> str:
        return f"BracketTable({self.names})"


class _PackedTable:
    """Integer view of a bracket table for the Jacobi kernel.

    Entry (a, b) becomes parallel lists of packed exponent keys and integer
    numerators over one denominator.  A key holds exponent e_l in the bit
    field bits*l .. bits*(l+1) - 1, wide enough for 2 maxdeg, so adding the
    keys of a gradient and an entry adds their exponents without carrying
    into the next field.  Built per call and never stored on the table,
    whose entries may change, so the gradient of each entry can be kept
    for the life of the view and built once."""

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        self.dim = len(entries)
        self.nvars = entries[0][0].nvars if entries else 0
        maxdeg = max((max(expo, default=0) for row in entries for entry in row
                      for expo in entry.nums), default=0)
        self.bits = (2 * maxdeg + 1).bit_length()
        self.shifts = [self.bits * l for l in range(self.nvars)]
        self.rows = [[self._pack(entry) for entry in row] for row in entries]
        self.gradients: dict = {}

    def _pack(self, entry: MultiPoly) -> tuple:
        keys = [sum(e << s for e, s in zip(expo, self.shifts)) for expo in entry.nums]
        return list(entry.nums), keys, list(entry.nums.values()), entry.den

    def unpack(self, acc: dict, den: int) -> MultiPoly:
        mask = (1 << self.bits) - 1
        nums = {tuple((key >> s) & mask for s in self.shifts): c for key, c in acc.items() if c}
        return MultiPoly._reduced(self.nvars, nums, den)

    def gradient(self, a: int, b: int) -> dict:
        """{l: (keys, numerators)} for every nonzero d/dc_l of entry (a, b),
        l < dim, over the entry's denominator: d/dc_l takes one from field l
        of each key with e_l > 0 and multiplies its numerator by e_l."""
        expos, keys, nums, _ = self.rows[a][b]
        grad: dict = {}
        for expo, key, num in zip(expos, keys, nums):
            for l, e in enumerate(expo[:self.dim]):
                if e:
                    dkeys, dnums = grad.setdefault(l, ([], []))
                    dkeys.append(key - (1 << self.shifts[l]))
                    dnums.append(num * e)
        return grad

    def jacobiator(self, i: int, j: int, k: int) -> tuple[dict, int]:
        """The jacobiator of (i, j, k) as {packed key: numerator} over one
        denominator, the lcm of the denominators of its d*e products."""
        products = []
        gradients = self.gradients
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            dg = self.rows[a][b][3]
            grad = gradients.get((a, b))
            if grad is None:
                grad = gradients[a, b] = self.gradient(a, b)
            for l, (dkeys, dnums) in grad.items():
                _, ekeys, enums, de = self.rows[l][c]
                if ekeys:
                    products.append((dkeys, dnums, ekeys, enums, dg * de))
        den = lcm(*[p[4] for p in products])
        acc: dict = {}
        get = acc.get
        for dkeys, dnums, ekeys, enums, d in products:
            scale = den // d
            for k1, n1 in zip(dkeys, dnums):
                n1 *= scale
                for k2, n2 in zip(ekeys, enums):
                    key = k1 + k2
                    acc[key] = get(key, 0) + n1 * n2
        return acc, den

"""Sparse multivariate polynomials over Q and exact linear algebra.

Poisson brackets in this package are materialized as coordinate tables:
for a phase space with coordinates c_0..c_{N-1}, the table entry (i, j)
is the bracket {c_i, c_j} written as an exact polynomial in the
coordinates.  That makes antisymmetry, Jacobi identities, Casimirs and
Poisson-map checks plain polynomial identities, decidable with zero
tolerance.

MultiPoly is the workhorse: a dict from exponent tuples to Fraction,
one exponent slot per coordinate.  It is deliberately minimal; degrees
and variable counts stay small everywhere in this package.

The exact kernels keep Fraction out of their inner loops: a MultiPoly
product convolves integer numerators over one common denominator per
factor, the linear algebra eliminates on integer rows kept primitive by
their content gcd (_eliminate: ranks, determinants, and `solve_affine`,
which returns integer numerators over one common denominator), and the
Jacobi check works on integer numerators with packed exponents
(_PackedTable).  Fractions are built only where a caller needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Sequence

from .algebra import integer_numerators


class MultiPoly:
    """Sparse polynomial in nvars variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[tuple(expo)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def var(cls, nvars: int, index: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    @classmethod
    def variables(cls, nvars: int) -> list["MultiPoly"]:
        return [cls.var(nvars, i) for i in range(nvars)]

    def _coerce(self, other):
        """MultiPoly/int/Fraction -> MultiPoly; anything else -> None so the
        dunder can return NotImplemented and defer to the other operand."""
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        return None

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(self.nvars, other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = terms.get(expo, Fraction(0)) + coeff
            if acc:
                terms[expo] = acc
            else:
                terms.pop(expo, None)
        out = MultiPoly(self.nvars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = MultiPoly(self.nvars)
        if not self.terms or not other.terms:
            return out
        n1, d1 = integer_numerators(self.terms.values())
        n2, d2 = integer_numerators(other.terms.values())
        acc: dict = {}
        get = acc.get
        for e1, c1 in zip(self.terms, n1):
            for e2, c2 in zip(other.terms, n2):
                expo = tuple(map(add, e1, e2))
                acc[expo] = get(expo, 0) + c1 * c2
        den = d1 * d2
        out.terms = {e: Fraction(c, den) for e, c in acc.items() if c}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus / substitution ------------------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        terms: dict = {}
        for expo, coeff in self.terms.items():
            k = expo[index]
            if k == 0:
                continue
            new = list(expo)
            new[index] = k - 1
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + coeff * k
        out = MultiPoly(self.nvars)
        out.terms = {e: c for e, c in terms.items() if c}
        return out

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
        """Substitute replacement polynomials for every variable."""
        if len(replacements) != self.nvars:
            raise ValueError("wrong number of replacements")
        nvars = replacements[0].nvars if replacements else 0
        acc = MultiPoly(nvars)
        for expo, coeff in self.terms.items():
            term = MultiPoly.const(nvars, coeff)
            for rep, k in zip(replacements, expo):
                if k:
                    term = term * rep ** k
            acc = acc + term
        return acc

    def to_str(self, names: Sequence[str]) -> str:
        if not self.terms:
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
        return f"MultiPoly(nvars={self.nvars}, {len(self.terms)} terms)"


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


def integer_rows(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int]:
    """(rows, dens, B) for a square Fraction/int matrix M: dens[i] is the
    lcm of the denominators of row i, rows[i] = dens[i] M_i as ints, and
    B = prod_i (dens[i] + |rows[i]|_1).

    det(rows + lam diag(dens)) = prod(dens) det(M + lam Id), and B bounds
    every coefficient of it as a polynomial in lam: expanding over
    permutations, each entry is a polynomial of l1 norm
    |rows_ij| + dens[i] [i = j], the l1 norm of a product is at most the
    product of the norms, and the permanent of a nonnegative matrix is at
    most the product of its row sums.  Scaling each row by its own
    denominator gives B, and so an evaluation above it, up to about n
    times fewer bits than one common denominator of all n rows would."""
    rows, dens = [], []
    for row in matrix:
        nums, d = integer_numerators(row)
        rows.append(nums)
        dens.append(d)
    return rows, dens, prod(d + sum(map(abs, row)) for d, row in zip(dens, rows))


def shifted_determinant(rows: Sequence[Sequence[int]], shifts: Sequence[int]) -> int:
    """det(rows + diag(shifts)) for a square int matrix, by exact integer
    elimination of a copy."""
    return integer_determinant([[c + shifts[i] if i == j else c for j, c in enumerate(row)]
                                for i, row in enumerate(rows)])


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
    whose entries may change."""

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        self.dim = len(entries)
        self.nvars = entries[0][0].nvars if entries else 0
        maxdeg = max((max(expo, default=0) for row in entries for entry in row
                      for expo in entry.terms), default=0)
        self.bits = (2 * maxdeg + 1).bit_length()
        self.shifts = [self.bits * l for l in range(self.nvars)]
        self.rows = [[self._pack(entry) for entry in row] for row in entries]

    def _pack(self, entry: MultiPoly) -> tuple:
        nums, den = integer_numerators(entry.terms.values())
        keys = [sum(e << s for e, s in zip(expo, self.shifts)) for expo in entry.terms]
        return list(entry.terms), keys, nums, den

    def unpack(self, acc: dict, den: int) -> MultiPoly:
        mask = (1 << self.bits) - 1
        out = MultiPoly(self.nvars)
        out.terms = {tuple((key >> s) & mask for s in self.shifts): Fraction(c, den)
                     for key, c in acc.items() if c}
        return out

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
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            dg = self.rows[a][b][3]
            for l, (dkeys, dnums) in self.gradient(a, b).items():
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

"""Dense h-Laurent Lax matrices: the independent oracle for the cyclic-band
code in prymlab.toda (traces, the hierarchy commutator, char_poly), and
the Fraction band of x Id - L(h) behind the minor oracle for
prymlab.morphism.phi.

L(h) = band(b on the diagonal, a on the super, 1 on the sub)
       + h^{-1} E_{1,n} + h a_n E_{n,1},
stored as an n x n list of HLaurent entries and multiplied entry by entry.
"""

from fractions import Fraction

from prymlab.toda import KMPoint


class HLaurent:
    """Finite Laurent polynomial in the spectral parameter h.

    Values attached to each h-exponent may be Fractions, MultiPolys or
    Polys in x; arithmetic is duck typed."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {}
        if parts:
            for k, v in parts.items():
                if not (v == 0):
                    self.parts[k] = v

    @classmethod
    def of(cls, value) -> "HLaurent":
        return cls({0: value})

    def coefficient(self, k: int):
        return self.parts.get(k, 0)

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "HLaurent") -> "HLaurent":
        parts = dict(self.parts)
        for k, v in other.parts.items():
            acc = parts.get(k, 0) + v
            if acc == 0:
                parts.pop(k, None)
            else:
                parts[k] = acc
        out = HLaurent()
        out.parts = parts
        return out

    def __neg__(self) -> "HLaurent":
        out = HLaurent()
        out.parts = {k: -v for k, v in self.parts.items()}
        return out

    def __sub__(self, other: "HLaurent") -> "HLaurent":
        return self + (-other)

    def __mul__(self, other: "HLaurent") -> "HLaurent":
        parts: dict = {}
        for k1, v1 in self.parts.items():
            for k2, v2 in other.parts.items():
                k = k1 + k2
                acc = parts.get(k, 0) + v1 * v2
                if acc == 0:
                    parts.pop(k, None)
                else:
                    parts[k] = acc
        out = HLaurent()
        out.parts = parts
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, HLaurent):
            return self.parts == other.parts
        if other == 0:
            return not self.parts
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.parts.items()))

    def __repr__(self) -> str:
        return f"HLaurent({self.parts!r})"


def lax_matrix(point, values=None):
    """The n x n Lax operator as a matrix of HLaurent scalars.

    `values` may override the (a, b) entries (e.g. with MultiPoly
    variables) while keeping the shape of the given point."""
    if isinstance(point, KMPoint):
        point = point.embed()
    n = point.n
    a, b = (values if values is not None else (point.a, point.b))
    zero = HLaurent()
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        mat[i][i] = HLaurent.of(b[i])
        if i + 1 < n:
            mat[i][i + 1] = HLaurent.of(a[i])
            mat[i + 1][i] = HLaurent.of(Fraction(1))
    mat[0][n - 1] = mat[0][n - 1] + HLaurent({-1: Fraction(1)})
    mat[n - 1][0] = mat[n - 1][0] + HLaurent({1: a[n - 1]})
    return mat


def mat_mul(A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = HLaurent()
            for k in range(n):
                if A[i][k].is_zero() or B[k][j].is_zero():
                    continue
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_trace(A) -> HLaurent:
    acc = HLaurent()
    for i in range(len(A)):
        acc = acc + A[i][i]
    return acc


def dense_traces(L) -> list[HLaurent]:
    """tr L^k for k = 1..n by dense products."""
    power, out = L, [mat_trace(L)]
    for _ in range(len(L) - 1):
        power = mat_mul(power, L)
        out.append(mat_trace(power))
    return out


def toda_tridiag(point) -> tuple[list, list]:
    """x Id - L(h) with the two h corners removed, over Fraction, as the
    diagonal shifts b_i and the band products sup_i sub_i that
    prymlab.algebra.tridiag_minor_det takes."""
    sup = [-ai for ai in point.a[:-1]]
    sub = [Fraction(-1)] * (point.n - 1)
    return list(point.b), [s * t for s, t in zip(sup, sub)]

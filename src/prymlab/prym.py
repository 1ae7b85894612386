"""Parity involutions of even Mumford spaces and the reduced structures
on their fixed loci (the hyperelliptic Prym systems).

The involution on an even Mumford space M'_g acts on Lax matrices by
    j: (u, v, w)(x)  |->  (u(-x), -v(-x), w(-x)),
and -j is its composition with the sign flip of the whole matrix.  Which
of the two an even Mumford space carries is decided by deg u = g: j keeps
u monic for g even and -j for g odd (involution_j).  The fixed points are
the Prym triples of mumford.prym_flavor(g): odd-prym for g even,
even-prym for g odd, whose coordinates are the slots of mumford's layout
(involution_signs).  When phi is even
(resp. odd) the involution is an automorphism of the bracket {.,.}^phi,
and the fixed locus inherits a unique Poisson structure characterized by
restriction of brackets of invariant extensions (Dirac reduction).

Both routes to the reduced brackets are implemented and compared:

  * dirac_reduce: generic reduction of any coordinate table through a
    linear involution given by coordinate signs (the parity projector
    realizes the invariant-extension choice);
  * prym_bracket_table: the closed-form generating functions

        {u(x), v(x')} = x' (u(x)phi(x') - u(x')phi(x)) / (x^2 - x'^2)
        {u(x), w(x')} = -2 (x v(x)phi(x') - x' v(x')phi(x)) / (x^2 - x'^2)
        {v(x), w(x')} = x (w(x)phi(x') - w(x')phi(x)) / (x^2 - x'^2)
                        - x u(x) phi(x')
        {w(x), w(x')} = 2 (x v(x)phi(x') - x' v(x')phi(x))

    which are formally the same for both flavors (phi even on odd-prym,
    phi odd on even-prym).

On the fixed locus the Mumford fields of the ambient space satisfy
X_{-y} = j_* X_y, with j_*(du, dv, dw)(x) = (du(-x), -dv(-x), dw(-x)).
Their projection to the locus, 1/2 (X_y + X_{-y}) on odd-prym and
1/2 (X_y - X_{-y}) on even-prym, is therefore X_y read on the Prym
coordinate slots, and by 1/(x^2 - y^2) = (1/2y)(1/(x-y) - 1/(x+y)) it is
the reduced Lax field

    X_y L(x) = [L(x), M(x,y)] / (x^2 - y^2),
    M(x,y) = [[y v(y), x w(y) + x (x^2-y^2) u(y)], [x u(y), -y v(y)]].

prym_flow and prym_flow_symbolic compute it as that reading of
mumford.mumford_tangent; the Prym systems keep no field kernel of their own.

The fibers live on spectral curves C: y^2 = f(x) with f even: f = p^2 - 4,
p = char_poly / 2, on an n-particle lattice (deg f = 2n), and
f = u w + v^2 (momentum) on a Prym triple.  The involutions
(x, y) -> (-x, +-y) make C a double cover of the two quotient curves that
quotient_curves writes down, and dim Prym = g(C) - g(C') for the quotient
C' of larger genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, outer
from .errors import InvariantError
from .mumford import (EVEN_MUMFORD, EVEN_PRYM, ODD_PRYM, MAX_GENUS, PRYM_FLAVORS,
                      MumfordTriple, _coord_layout, _lift_phi, _slot_codec, check_table_genus,
                      degrees, mumford_bracket_table, mumford_tangent, phase_coordinates,
                      prym_flavor, prym_sign, table_from_generators)
from .symbolic import BracketTable, MultiPoly

# ---------------------------------------------------------------------------
# the involution
# ---------------------------------------------------------------------------

def involution_j(triple: MumfordTriple) -> MumfordTriple:
    """Apply the involution of the triple's even Mumford space: j on even
    deg u and -j on odd deg u, the one of the two that keeps u monic."""
    if triple.flavor not in (EVEN_MUMFORD, ODD_PRYM, EVEN_PRYM):
        raise InvariantError("flavor", "the involution lives on even Mumford spaces")
    u, v, w = triple.u.reflect(), -triple.v.reflect(), triple.w.reflect()
    s = u.leading()  # (-1)^deg u: 1 applies j, -1 applies -j
    return MumfordTriple(s * u, s * v, s * w, EVEN_MUMFORD)


def involution_signs(g: int) -> list[int]:
    """Pullback signs of the even Mumford coordinates at genus g under
    involution_j: +1 on the slots of the fixed Prym space, -1 elsewhere."""
    fixed = _coord_layout(prym_flavor(g), g // 2)
    return [1 if k in kept else -1
            for kept, slots in zip(fixed, _coord_layout(EVEN_MUMFORD, g)) for k in slots]


# ---------------------------------------------------------------------------
# generic Dirac reduction through a linear involution
# ---------------------------------------------------------------------------

def is_poisson_involution(table: BracketTable, signs: list[int]) -> bool:
    """Check e_i e_j {c_i, c_j}(c) == {c_i, c_j}(e c) for all pairs."""
    n = table.dim
    if len(signs) != n:
        raise ValueError("one sign per coordinate required")
    nvars = n
    reps = [MultiPoly.var(nvars, k) * signs[k] for k in range(nvars)]
    for i in range(n):
        for j in range(i + 1, n):
            entry = table.entry(i, j)
            if entry.is_zero():
                continue
            if not (signs[i] * signs[j] * entry == entry.subs(reps)):
                return False
    return True


def dirac_reduce(table: BracketTable, signs: list[int]) -> BracketTable:
    """Poisson structure induced on the fixed locus of a linear involution.

    The invariant coordinates are their own invariant extensions, so the
    reduced bracket of two of them is the original entry restricted to the
    fixed locus (anti-invariant coordinates set to zero).  Refuses to
    reduce when the involution is not a Poisson map for the given table.
    """
    if not is_poisson_involution(table, signs):
        raise InvariantError("poisson-involution",
                             "the involution is not a Poisson map for this bracket")
    fixed = [k for k, s in enumerate(signs) if s == 1]
    names = [table.names[k] for k in fixed]
    m = len(fixed)
    position = {k: i for i, k in enumerate(fixed)}
    reps = [MultiPoly.var(m, position[k]) if s == 1 else MultiPoly(m)
            for k, s in enumerate(signs)]
    entries = [[table.entry(a, b).subs(reps) for b in fixed] for a in fixed]
    return BracketTable(names, entries)


def reduce_mumford_table(flavor: str, n: int, phi: Poly) -> BracketTable:
    """Generic route: reduce the ambient even Mumford table through
    involution_j (j or -j by the parity of the ambient genus)."""
    if flavor not in PRYM_FLAVORS:
        raise InvariantError("flavor", "expected a prym flavor")
    g = degrees(flavor, n)[0]
    ambient = mumford_bracket_table(EVEN_MUMFORD, g, phi)
    return dirac_reduce(ambient, involution_signs(g))


# ---------------------------------------------------------------------------
# closed-form reduced brackets
# ---------------------------------------------------------------------------

# x, x' and x^2 - x'^2 (monic: its top row is the int 1) as Polys in x over Polys in x'
_X = Poly([0, Poly([1])])
_XP = Poly([Poly([0, 1])])
_X2_MINUS_XP2 = Poly([Poly([0, 0, -1]), 0, 1])


def _exact_divide_x2_minus_xp2(F: Poly) -> Poly:
    """Divide F(x, x') by x^2 - x'^2, insisting on exactness."""
    quot, rem = F.divrem(_X2_MINUS_XP2)
    if not rem.is_zero():
        raise ValueError("bivariate polynomial is not divisible by x^2 - x'^2")
    return quot


def prym_bracket_generators(flavor: str, n: int, phi: Poly) -> dict:
    """Closed-form generating functions of the reduced bracket.

    The same four expressions serve both flavors; only the parity demanded
    of phi differs (even on odd-prym, odd on even-prym).
    """
    coords = phase_coordinates(flavor, n)
    ambient_g = degrees(flavor, n)[0]
    if phi.is_zero():
        raise InvariantError("phi", "phi must be nonzero")
    if phi.degree > ambient_g:
        raise InvariantError("phi-degree", f"deg phi must be <= {ambient_g}")
    parity = "even" if prym_sign(flavor) == 1 else "odd"  # the parity of deg u
    if not (phi.is_even() if parity == "even" else phi.is_odd()):
        raise InvariantError("phi-parity", f"{flavor} reduction needs phi {parity}")
    phim = _lift_phi(phi, coords.nvars)
    u, v, w = coords.u, coords.v, coords.w

    def cross(p: Poly, q: Poly) -> Poly:
        return outer(p, q) - outer(q, p)

    x_cross_v = _X * outer(v, phim) - _XP * outer(phim, v)
    return {
        ("u", "v"): _XP * _exact_divide_x2_minus_xp2(cross(u, phim)),
        ("u", "w"): -2 * _exact_divide_x2_minus_xp2(x_cross_v),
        ("v", "w"): _X * (_exact_divide_x2_minus_xp2(cross(w, phim)) - outer(u, phim)),
        ("w", "w"): 2 * x_cross_v,
    }


# The largest prym index a prym bracket table accepts: the ambient Mumford
# space of either flavor (genus 2n or 2n + 1) stays within MAX_GENUS.
MAX_PRYM_INDEX = (MAX_GENUS - 1) // 2


def prym_bracket_table(flavor: str, n: int, phi: Poly) -> BracketTable:
    """Closed-form reduced bracket table on a prym phase space."""
    check_table_genus(n, MAX_PRYM_INDEX, "the prym index of a prym bracket table")
    coords = phase_coordinates(flavor, n)
    return table_from_generators(coords, prym_bracket_generators(flavor, n, phi))


def tables_equal(a: BracketTable, b: BracketTable) -> bool:
    """Entry by entry, as MultiPoly is canonical."""
    return a.names == b.names and a.entries == b.entries


# ---------------------------------------------------------------------------
# reduced Lax flows
# ---------------------------------------------------------------------------

def prym_flow(triple: MumfordTriple, y: Fraction) -> tuple[Poly, Poly, Poly]:
    """Tangent of the reduced field X_y at a prym point: the Mumford field
    (mumford.mumford_tangent) read on the Prym slots, every other slot 0."""
    if triple.flavor not in PRYM_FLAVORS:
        raise InvariantError("flavor", "prym_flow needs a prym point")
    lists, read = _slot_codec(triple.flavor, triple.index)
    tangent = mumford_tangent(triple.u.coeffs, triple.v.coeffs, triple.w.coeffs, Fraction(y))
    return tuple(Poly(p) for p in lists(read(*tangent), 0, 0))


def prym_flow_symbolic(flavor: str, n: int, y: Fraction) -> list[MultiPoly]:
    """Components of the reduced X_y as polynomials in the prym coordinates:
    the symbolic Mumford field read on the Prym slots."""
    coords = phase_coordinates(flavor, n)
    tangent = mumford_tangent(coords.u.coeffs, coords.v.coeffs, coords.w.coeffs, Fraction(y))
    return _slot_codec(flavor, n)[1](*tangent)


# ---------------------------------------------------------------------------
# spectral curves
# ---------------------------------------------------------------------------

def genus_of_hyperelliptic(d: int) -> int:
    """Genus of y^2 = f(u) with deg f = d >= 1 (squarefree)."""
    if d < 1:
        raise InvariantError("curve-degree", f"y^2 = f needs deg f >= 1, got {d}")
    return (d - 1) // 2


@dataclass(frozen=True)
class QuotientCurves:
    """Defining polynomials of the two quotient curves: v^2 = sigma(u) and
    v^2 = tau(u), where f(x) = g(x^2)."""

    sigma: Poly
    tau: Poly


def quotient_curves(f: Poly) -> QuotientCurves:
    """Write f(x) = g(x^2) with deg g = n; for odd n the quotients are
    v^2 = g(u) and v^2 = u g(u), for even n the two equations trade places."""
    if f.degree < 1:
        raise InvariantError("curve-degree", "f must be nonconstant")
    if not f.is_even():
        raise InvariantError("even-f", "f must be an even polynomial")
    g = f.decimate_even()
    ug = Poly([Fraction(0)] + [Fraction(c) for c in g.coeffs])
    if g.degree % 2:
        return QuotientCurves(sigma=g, tau=ug)
    return QuotientCurves(sigma=ug, tau=g)

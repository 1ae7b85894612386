"""Odd and even Mumford systems.

Phase points are triples of polynomials (u, v, w), thought of as the Lax
matrix L(x) = [[v, w], [u, -v]].  The degree table:

    flavor          dim     u                v          w
    odd-mumford    3g+1    monic, deg g     deg < g    monic, deg g+1
    even-mumford   3g+2    monic, deg g     deg < g    monic, deg g+2

and the parity-constrained subspaces sitting inside even spaces:

    odd-prym(n)    3n+1    even monic 2n    odd <2n    even monic 2n+2
    even-prym(n)   3n+2    odd monic 2n+1   even<2n+1  odd monic 2n+3

The whole polynomial family of compatible Poisson brackets is generated by

    {u(x), u(x')} = {v(x), v(x')} = 0
    {u(x), v(x')} = (u(x)phi(x') - u(x')phi(x)) / (x - x')
    {u(x), w(x')} = -2 (v(x)phi(x') - v(x')phi(x)) / (x - x')
    {v(x), w(x')} = (w(x)phi(x') - w(x')phi(x)) / (x - x')
                    - alpha(x+x') u(x) phi(x')
    {w(x), w(x')} = 2 alpha(x+x') (v(x)phi(x') - v(x')phi(x))

for any phi of degree <= g, with alpha = 1 on odd spaces and
alpha(t) = t + w_{g+1} - u_{g-1} on even spaces.  The momentum map is
H(x) = u(x)w(x) + v(x)^2 = -det L(x); its coefficients are in involution
for every member of the family, and the multi-Hamiltonian vector fields
admit the Lax form

    X_y L(x) = [L(x), L(y) + (x-y) B(x,y)] / (x - y),
    B(x,y)   = [[0, alpha(x+y) u(y)], [0, 0]].

Bracket tables are materialized as exact polynomials in the phase-space
coordinates (see symbolic.BracketTable) so that Jacobi identities and
involutivity are verified symbolically, with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (Poly, bicoeff, divided_difference, format_poly, horner, of_sum, outer,
                      parse_poly)
from .errors import InvariantError, ParseError
from .symbolic import BracketTable, MultiPoly

ODD_MUMFORD = "odd-mumford"
EVEN_MUMFORD = "even-mumford"
ODD_PRYM = "odd-prym"
EVEN_PRYM = "even-prym"

MUMFORD_FLAVORS = (ODD_MUMFORD, EVEN_MUMFORD)
PRYM_FLAVORS = (ODD_PRYM, EVEN_PRYM)
FLAVORS = MUMFORD_FLAVORS + PRYM_FLAVORS

# deg u and deg w of each flavor at index k (the genus g of a Mumford
# flavor, the n of a Prym flavor) are step * k + u0 and step * k + w0
_DEGREES = {ODD_MUMFORD: (1, 0, 1), EVEN_MUMFORD: (1, 0, 2),
            ODD_PRYM: (2, 0, 2), EVEN_PRYM: (2, 1, 3)}

# The largest genus a Mumford bracket table accepts; a table has up to
# (3g + 2)^2 polynomial entries.
MAX_GENUS = 24


def check_table_genus(g: int, bound: int, what: str) -> None:
    """InvariantError("genus") unless 0 <= g <= bound; bracket tables call
    it before they build anything."""
    if not 0 <= g <= bound:
        raise InvariantError("genus", f"{what} must lie in 0..{bound}, got {g}")


def _require(cond: bool, invariant: str, message: str) -> None:
    if not cond:
        raise InvariantError(invariant, message)


def degrees(flavor: str, k: int) -> tuple[int, int]:
    """(deg u, deg w) on the phase space of a flavor at index k."""
    if flavor not in _DEGREES:
        raise InvariantError("flavor", f"unknown flavor {flavor!r}")
    step, u0, w0 = _DEGREES[flavor]
    return step * k + u0, step * k + w0


def prym_flavor(deg_u: int) -> str:
    """The Prym flavor whose u has degree deg_u: odd-prym for even deg u,
    even-prym for odd.  It is the fixed locus of j on even deg u and of -j
    on odd deg u (prym.involution_j)."""
    return EVEN_PRYM if deg_u % 2 else ODD_PRYM


def prym_sign(flavor: str) -> int:
    """(-1)^deg u on a Prym flavor, read off its layout: the e for which
    e j fixes it (1, so j, on odd-prym; -1, so -j, on even-prym)."""
    if flavor not in PRYM_FLAVORS:
        raise InvariantError("flavor", f"{flavor!r} is not a Prym flavor")
    return 1 - 2 * _coord_layout(flavor, 0)[0].start


@dataclass(frozen=True)
class MumfordTriple:
    """A point of one of the four phase spaces, validated on construction."""

    u: Poly
    v: Poly
    w: Poly
    flavor: str

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise InvariantError("flavor", f"unknown flavor {self.flavor!r}")
        u, v, w = self.u, self.v, self.w
        _require(u.is_monic(), "u-monic", "u must be monic")
        _require(w.is_monic(), "w-monic", "w must be monic")
        deg_u, deg_w = degrees(self.flavor, self.index)
        _require(u.degree == deg_u, "u-degree", f"deg u must be {deg_u}")
        _require(v.degree < deg_u, "v-degree", f"deg v must be < {deg_u}")
        _require(w.degree == deg_w, "w-degree", f"deg w must be {deg_w}")
        if self.flavor in PRYM_FLAVORS:  # no coefficient off the Prym layout
            lists, read = _slot_codec(self.flavor, self.index)
            kept = lists(read(u.coeffs, v.coeffs, w.coeffs), 0, 1)
            if kept != (u.coeffs, _padded(v.coeffs, deg_u), w.coeffs):
                p = _coord_layout(self.flavor, self.index)[0].start  # the parity of u's slots
                raise InvariantError("parity", f"{self.flavor} triples need u, w "
                                     f"{('even', 'odd')[p]} and v {('odd', 'even')[p]}")

    @property
    def g(self) -> int:
        """Genus parameter of the (ambient) Mumford space, deg u."""
        return self.u.degree

    @property
    def index(self) -> int:
        """The index of the phase space: g = deg u on Mumford flavors, n =
        deg u // 2 on Prym flavors."""
        return self.u.degree // _DEGREES[self.flavor][0]

    def ambient(self) -> "MumfordTriple":
        """Forget parity constraints: the same point in the even Mumford space."""
        if self.flavor in MUMFORD_FLAVORS:
            return self
        return MumfordTriple(self.u, self.v, self.w, EVEN_MUMFORD)

    def to_json(self) -> dict:
        return {"flavor": self.flavor, "u": format_poly(self.u),
                "v": format_poly(self.v), "w": format_poly(self.w)}

    @classmethod
    def from_json(cls, payload: dict) -> "MumfordTriple":
        try:
            flavor = payload["flavor"]
            u = parse_poly(payload["u"])
            v = parse_poly(payload["v"])
            w = parse_poly(payload["w"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed triple payload: {exc}") from exc
        return cls(u, v, w, flavor)


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordSystem:
    """Named coordinates of a phase space plus symbolic u(x), v(x), w(x)
    whose coefficients are MultiPoly variables (monic slots are constants)."""

    flavor: str
    g: int
    names: tuple
    u: Poly
    v: Poly
    w: Poly
    alpha: Poly  # one-variable polynomial alpha(t) with MultiPoly coefficients

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@lru_cache(maxsize=128)
def _coord_layout(flavor: str, g: int) -> tuple[range, range, range]:
    """Coefficient exponents that are free coordinates, per family; on Prym
    spaces u and w keep the parity of deg u, and v takes the other."""
    deg_u, deg_w = degrees(flavor, g)
    if flavor in MUMFORD_FLAVORS:
        return range(deg_u), range(deg_u), range(deg_w)
    p = deg_u % 2
    return range(p, deg_u, 2), range(1 - p, deg_u, 2), range(p, deg_w, 2)


@lru_cache(maxsize=128)
def _slot_codec(flavor: str, g: int):
    """(lists, read) for one phase space, with its layout resolved once.

    lists(values, zero, one) gives the ascending coefficient lists (u, v, w)
    of the point whose coordinates, in coordinate order, are `values`;
    every other slot holds `zero`, and the leading coefficients of u and w
    hold `one`.  read(du, dv, dw) gives the entries of coefficient lists at
    the coordinate slots, in coordinate order; a slot past the end of its
    list reads as 0."""
    if g < 0:
        raise InvariantError("genus", f"the genus (or prym index) must be >= 0, got {g}")
    layout = _coord_layout(flavor, g)
    deg_u, deg_w = degrees(flavor, g)
    sizes = [len(slots) for slots in layout]
    count = sum(sizes)
    su, sv, sw = (slice(s.start, s.stop, s.step) for s in layout)
    iu, iv, iw = (slice(0, sizes[0]), slice(sizes[0], count - sizes[2]),
                  slice(count - sizes[2], count))

    def lists(values, zero, one):
        if len(values) != count:
            raise InvariantError("coordinates", f"expected {count} coordinates, got {len(values)}")
        u, v, w = [zero] * deg_u + [one], [zero] * deg_u, [zero] * deg_w + [one]
        u[su], v[sv], w[sw] = values[iu], values[iv], values[iw]
        return u, v, w

    def read(du, dv, dw):
        out = []
        for p, s, size in zip((du, dv, dw), (su, sv, sw), sizes):
            picked = p[s]
            out += picked + [0] * (size - len(picked))
        return out

    return lists, read


def _alpha(u: list, w: list) -> list:
    """Coefficients of alpha(t): 1 on odd Mumford spaces (deg w = deg u + 1),
    t + w_{deg u+1} - u_{deg u-1} otherwise, a missing u_{-1} read as 0.
    On prym points both coefficients vanish by parity, so alpha(t) = t."""
    d = len(u) - 1
    if len(w) == d + 2:
        return [u[d]]
    return [w[d + 1] - (u[d - 1] if d >= 1 else 0), u[d]]


def phase_coordinates(flavor: str, g: int) -> CoordSystem:
    """Coordinate system of a phase space; g is the genus for Mumford
    flavors and the index n for prym flavors."""
    layout = _coord_layout(flavor, g)
    names = tuple(f"{fam}{k}" for fam, slots in zip("uvw", layout) for k in slots)
    nvars = len(names)
    u, v, w = _slot_codec(flavor, g)[0](MultiPoly.variables(nvars),
                                        MultiPoly.const(nvars, 0), MultiPoly.const(nvars, 1))
    return CoordSystem(flavor, g, names, Poly(u), Poly(v), Poly(w), Poly(_alpha(u, w)))


def point_values(triple: MumfordTriple) -> list[Fraction]:
    """Coordinate values of a triple, aligned with phase_coordinates."""
    read = _slot_codec(triple.flavor, triple.index)[1]
    return [Fraction(c) for c in read(triple.u.coeffs, triple.v.coeffs, triple.w.coeffs)]


def triple_from_values(flavor: str, g: int, values) -> MumfordTriple:
    """Inverse of point_values."""
    u, v, w = _slot_codec(flavor, g)[0](list(values), Fraction(0), Fraction(1))
    return MumfordTriple(Poly(u), Poly(v), Poly(w), flavor)


# ---------------------------------------------------------------------------
# bracket family
# ---------------------------------------------------------------------------

def _lift_phi(phi: Poly, nvars: int) -> Poly:
    return Poly([MultiPoly.const(nvars, c) for c in phi.coeffs])


def bracket_generators(flavor: str, g: int, phi: Poly) -> dict:
    """The five generating bivariate polynomials, coefficients symbolic.

    Keys ("u","v"), ("u","w"), ("v","w"), ("w","w"); the ("u","u") and
    ("v","v") generators vanish identically and are omitted.
    """
    if flavor not in MUMFORD_FLAVORS:
        raise InvariantError("flavor", "bracket generators live on Mumford spaces")
    if phi.is_zero():
        raise InvariantError("phi", "phi must be nonzero")
    if phi.degree > g:
        raise InvariantError("phi-degree", f"deg phi must be <= {g}")
    coords = phase_coordinates(flavor, g)
    return linear_generators(coords, _lift_phi(phi, coords.nvars))


def linear_generators(coords: CoordSystem, phim: Poly) -> dict:
    """The four generators of the linear family (module docstring) at a
    polynomial phim with MultiPoly coefficients, which may be phase-dependent."""
    alpha_sum = of_sum(coords.alpha)
    return {
        ("u", "v"): divided_difference(coords.u, phim),
        ("u", "w"): -2 * divided_difference(coords.v, phim),
        ("v", "w"): divided_difference(coords.w, phim) - alpha_sum * outer(coords.u, phim),
        ("w", "w"): 2 * alpha_sum * (outer(coords.v, phim) - outer(phim, coords.v)),
    }


def table_from_generators(coords: CoordSystem, generators: dict) -> BracketTable:
    """Read coordinate brackets out of generating functions.

    The generating function for families (A, B) is sum {A_i, B_j} x^i x'^j,
    a Poly in x over Polys in x', so each table entry is a coefficient
    lookup.
    """
    nvars = coords.nvars
    zero = MultiPoly(nvars)
    entries = [[zero for _ in range(nvars)] for _ in range(nvars)]
    slot_lists = dict(zip("uvw", _coord_layout(coords.flavor, coords.g)))

    def place(fam_a: str, fam_b: str, gen: Poly, upper: bool = False) -> None:
        # entries at fixed (monic) or forbidden-parity exponents must have
        # cancelled identically, else the generating functions are wrong;
        # `upper` places only j > i, each unordered pair of an
        # antisymmetric generator once
        width = max((len(row.coeffs) for row in gen.coeffs if row != 0), default=0)
        for i in range(len(gen.coeffs)):
            for j in range(width):
                val = bicoeff(gen, i, j)
                if val == 0:
                    continue
                if i not in slot_lists[fam_a] or j not in slot_lists[fam_b]:
                    raise InvariantError(
                        "generator-slots",
                        f"{{{fam_a}(x), {fam_b}(x')}} has residue at x^{i} x'^{j}")
                if upper and j <= i:
                    continue
                ia, jb = coords.index(f"{fam_a}{i}"), coords.index(f"{fam_b}{j}")
                entries[ia][jb] = entries[ia][jb] + val
                if ia != jb:
                    entries[jb][ia] = entries[jb][ia] - val

    place("u", "v", generators[("u", "v")])
    place("u", "w", generators[("u", "w")])
    place("v", "w", generators[("v", "w")])
    place("w", "w", generators[("w", "w")], upper=True)
    return BracketTable(coords.names, entries)


def mumford_bracket_table(flavor: str, g: int, phi: Poly) -> BracketTable:
    """Exact coordinate table of the bracket {.,.}^phi on a Mumford space."""
    check_table_genus(g, MAX_GENUS, "the genus of a Mumford bracket table")
    coords = phase_coordinates(flavor, g)
    return table_from_generators(coords, bracket_generators(flavor, g, phi))


# ---------------------------------------------------------------------------
# momentum map and flows
# ---------------------------------------------------------------------------

def momentum(triple: MumfordTriple | CoordSystem) -> Poly:
    """H(x) = u w + v^2 = -det L(x), at a point or in the coordinates of a
    CoordSystem.  Even in x on prym flavors."""
    return triple.u * triple.w + triple.v * triple.v


def _padded(p: list, n: int) -> list:
    return p + [0] * (n - len(p))


def mumford_tangent(u: list, v: list, w: list, y) -> tuple[list, list, list]:
    """Tangent (du, dv, dw) of the multi-Hamiltonian field X_y at (u, v, w),
    as ascending coefficient lists over any scalar ring (Fraction, MultiPoly
    or float).

    From the Lax form, with D_p = (p(x) - p(y)) / (x - y) from one Horner
    pass each (so no division can leave a remainder):
        du = 2 (v(y) D_u - u(y) D_v)
        dv = u(y) D_w - w(y) D_u - alpha(x+y) u(y) u
        dw = 2 (w(y) D_v - v(y) D_w) + 2 alpha(x+y) u(y) v
    Every term has degree < deg w, so dv and dw are read below x^{deg w};
    x u reaches x^{deg w} only on odd spaces, where alpha has no t term.
    """
    Du, uy = horner(u, y)
    Dv, vy = horner(v, y)
    Dw, wy = horner(w, y)
    n = len(Dw)
    a0, a1 = (_alpha(u, w) + [0])[:2]  # alpha(x + y) = (a0 + a1 y) + a1 x
    c = a0 + a1 * y
    du = [2 * (vy * a - uy * b) for a, b in zip(Du, _padded(Dv, len(Du)))]
    Du, Dv, u, v = _padded(Du, n), _padded(Dv, n), _padded(u, n), _padded(v, n)
    dv = [uy * (d - c * p - a1 * q) - wy * a for d, a, p, q in zip(Dw, Du, u, [0] + u)]
    dw = [2 * (wy * b - vy * d + uy * (c * p + a1 * q)) for b, d, p, q in zip(Dv, Dw, v, [0] + v)]
    return du, dv, dw


def mumford_flow(triple: MumfordTriple, y: Fraction) -> tuple[Poly, Poly, Poly]:
    """Tangent (du, dv, dw) of the multi-Hamiltonian field X_y (see
    mumford_tangent)."""
    tangent = mumford_tangent(triple.u.coeffs, triple.v.coeffs, triple.w.coeffs, Fraction(y))
    return tuple(Poly(p) for p in tangent)


def flow_values(flavor: str, g: int, du: Poly, dv: Poly, dw: Poly) -> list:
    """Tangent vector in coordinate order; insists the fixed (monic) and
    forbidden-parity slots carry zero velocity."""
    for fam, dp, slots in zip("uvw", (du, dv, dw), _coord_layout(flavor, g)):
        for k, c in enumerate(dp.coeffs):
            if not (c == 0) and k not in slots:
                raise InvariantError("tangent-shape",
                                     f"flow moves the fixed coefficient {fam}{k}")
    return _slot_codec(flavor, g)[1](du.coeffs, dv.coeffs, dw.coeffs)


def mumford_flow_symbolic(flavor: str, g: int, y: Fraction) -> list[MultiPoly]:
    """Components of X_y as exact polynomials in the coordinates."""
    coords = phase_coordinates(flavor, g)
    tangent = mumford_tangent(coords.u.coeffs, coords.v.coeffs, coords.w.coeffs, Fraction(y))
    return flow_values(flavor, g, *(Poly(p) for p in tangent))

"""The minor-determinant embedding of the periodic Toda lattice into an
even Mumford space, its inverse reconstruction, and the quadratic bracket
family that makes it a Poisson map.

With Delta_{i_1..i_k} the minors of the h-stripped part of x Id - L(h),
the map into M'_{n-1} indexed by m in Z/n is

    u = Delta_m
    v = a_{m-1} Delta_{m-1,m} - a_m Delta_{m,m+1}
    w = (x-b_m)^2 Delta_m
        - 2 (x-b_m) (a_{m-1} Delta_{m-1,m} + a_m Delta_{m,m+1})
        + 4 a_m a_{m-1} Delta_{m-1,m,m+1}

and it satisfies u w + v^2 = p^2 - 4 exactly, where p = K/2 is the half
characteristic polynomial.  Note the MINUS sign on the middle term of w:
with minors taken of x Id - L(h), the tridiagonal determinant identity
Delta_1 Delta_k - Delta Delta_{1,k} = prod(alpha_i gamma_i) applied to the
minor with row/column m removed forces that sign; the identity fails with
a plus sign there.

Integer evaluation.  The formulas are weighted-homogeneous: x and b_i
have weight 1 and a_i has weight 2.  With D the lcm of the denominators
of all a_i and b_i, `phi` runs the minor recursion on integers in y = D x:
diagonal y - D b_i and band products D^2 a_i (super-diagonal -D^2 a_i
times sub-diagonal -1), which are also the a-list.  A minor of size k
then comes out as D^k times itself at x = y / D, so the recursion returns
U = D^{n-1} u(y/D), V = D^n v(y/D), W = D^{n+1} w(y/D) and
P = D^n p(y/D), and coefficient j of u is U_j / D^{n-1-j} (likewise for
v, w, p with their weights): one Fraction per output coefficient.
Each image then decides its fiber identity on integer numerators
(PhiImage, through algebra.first_mismatch).

All n cuts share one pass (`_phi_polys`).  With B(s, L) the determinant
of the cyclic L-block that starts at s, the minors of cut m are
Delta_m = B(m+1, n-1), Delta_{m-1,m} = B(m+1, n-2),
Delta_{m,m+1} = B(m+2, n-2) and Delta_{m-1,m,m+1} = B(m+2, n-3), so one
recursion of length n-1 from start s serves cuts s-1 and s-2: `phi_all`
runs n of them and `phi` two.  Expanding the last row of the block at m
gives p = (x - b_m) Delta_m - S with S = a_{m-1} Delta_{m-1,m}
+ a_m Delta_{m,m+1}, hence w = (x - b_m)(p - S)
+ 4 a_m a_{m-1} Delta_{m-1,m,m+1}; p is formed once per point.
`phi_symbolic` feeds MultiPolys to the same pass.

On the Mumford side, splitting u w + v^2 = p^2 + r (p monic of degree n)
defines for each phi of degree <= 1 a quadratic bracket family

    {u(x), v(x')}_q = {u(x), v(x')}^{p phi} + A(x+x') u(x) u(x')
    {u(x), w(x')}_q = {u(x), w(x')}^{p phi} - 2 A(x+x') u(x) v(x')
    {v(x), w(x')}_q = {v(x), w(x')}^{p phi} + A(x+x') u(x) w(x')
    {w(x), w(x')}_q = {w(x), w(x')}^{p phi} + 2 A(x+x') (w(x)v(x') - w(x')v(x))

with A(t) = phi(alpha(2t)/2) and {.,.}^{p phi} the linear family evaluated
at the phase-dependent polynomial p(x) phi(x).  The coefficients of r are
Casimirs and the derived bracket {u(x), p(y)}_q equals
phi(y) (u(x)v(y) - u(y)v(x)) / (x - y).

Sign convention note: with the lattice pencil {.,.}^phi = phi_1 {.,.}^x
+ phi_0 {.,.}^1 and the family above, the map intertwines the brackets up
to one global sign,

    {F o Phi, G o Phi}^phi  =  ({F, G}_q^{-phi}) o Phi,

exactly (tested symbolically and at random points).  Both one-sided
conventions are pinned by their own Lax hierarchies (X_i = {., I_i}^1 on
the lattice, X_y = {., 2p(y)}_q^1 on the Mumford side), so the sign
cannot be removed without breaking one of those identities; this library
keeps both and states the intertwining with the sign explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .algebra import (Poly, first_mismatch, format_poly, integer_numerators, of_sum, outer,
                      pr_split_from, tridiag_run)
from .errors import InvariantError, NotInImageError
from .mumford import (EVEN_MUMFORD, MumfordTriple, _lift_phi, _slot_codec, check_table_genus,
                      linear_generators, momentum, phase_coordinates, prym_flavor,
                      table_from_generators)
from .symbolic import BracketTable, MultiPoly
from .toda import TodaPoint

# ---------------------------------------------------------------------------
# the forward map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiImage:
    """Image point plus the source index m and the half spectral polynomial;
    carries the exact fiber identity u w + v^2 = p^2 - 4.

    The identity is checked fraction-free: with d the common denominator
    of all coefficients of u, v, w and p, and N_u = d u and so on their
    integer numerator polynomials, it reads
    N_u N_w + N_v^2 - N_p^2 + 4 d^2 = 0 over the integers
    (algebra.first_mismatch); a failure names the lowest power of x at
    which it fails.  One common d keeps the decider's bound small: the
    denominators of a `phi` image are powers of one D, so d is the largest
    of them, where four separate denominators would scale each term by a
    product of four."""

    triple: MumfordTriple
    m: int
    p: Poly

    def __post_init__(self):
        t = self.triple
        parts = (t.u.coeffs, t.v.coeffs, t.w.coeffs, self.p.coeffs)
        nums, d = integer_numerators([c for q in parts for c in q])
        rest = iter(nums)
        nu, nv, nw, np_ = (list(islice(rest, len(q))) for q in parts)
        power = first_mismatch([(1, nu, nw), (1, nv, nv), (-1, np_, np_)], 4 * d * d)
        if power is not None:
            raise InvariantError("fiber-identity", f"u w + v^2 != p^2 - 4 (first at x^{power})")

    def to_json(self) -> dict:
        payload = self.triple.to_json()
        payload.update({"m": self.m, "p": format_poly(self.p)})
        return payload


def _x_minus(c, q: list, zero) -> list:
    """Coefficients of (x - c) q, q an ascending coefficient list."""
    out = [zero] + q
    for j, e in enumerate(q):
        out[j] -= c * e
    return out


def _phi_polys(a, b, zero, ms) -> tuple[list, list]:
    """p and the (u, v, w) of every cut m in `ms` (read mod n, 0-based
    position (m - 1) % n), as ascending coefficient lists over the scalar
    ring of a, b and zero (module docstring, "Integer evaluation").

    One tridiag_run of length n - 1 from start s gives B(s, L) for
    L <= n - 1 and serves two cuts: cut s - 1 reads Delta_m and
    Delta_{m-1,m} off it, cut s - 2 Delta_{m,m+1} and Delta_{m-1,m,m+1}.
    With S = a_{m-1} Delta_{m-1,m} + a_m Delta_{m,m+1}, the last row of
    the block at m gives p = (x - b_m) Delta_m - S, formed at the first
    cut and shared by all; then v = a_{m-1} Delta_{m-1,m} - a_m
    Delta_{m,m+1} and w = (x - b_m)(p - S) + 4 a_m a_{m-1}
    Delta_{m-1,m,m+1}.  Every cut needs n >= 3 (InvariantError("size")).
    """
    n = len(a)
    if n < 3:
        raise InvariantError("size", "the morphism needs n >= 3")
    cuts = [(m - 1) % n for m in ms]
    runs = {}
    for start in {(c + k) % n for c in cuts for k in (1, 2)}:
        block = [(start + i) % n for i in range(n - 1)]
        # B(start, n-3), B(start, n-2), B(start, n-1)
        runs[start] = tridiag_run([b[i] for i in block], [a[i] for i in block[:-1]], zero)[n - 3:]
    p, images = None, []
    for c in cuts:
        (_, d_prev, d_m), (d_both, d_next, _) = runs[(c + 1) % n], runs[(c + 2) % n]
        am1, am, bm = a[c - 1], a[c], b[c]
        prev_term, next_term = [am1 * e for e in d_prev], [am * e for e in d_next]
        s = [x + y for x, y in zip(prev_term, next_term)]
        if p is None:
            p = _x_minus(bm, d_m, zero)
            for j, e in enumerate(s):
                p[j] -= e
        w = p[:]
        for j, e in enumerate(s):
            w[j] -= e
        w = _x_minus(bm, w, zero)
        both = 4 * (am * am1)
        for j, e in enumerate(d_both):
            w[j] += both * e
        images.append((d_m, [x - y for x, y in zip(prev_term, next_term)], w))
    return p, images


def _descale(q: list, d: int, weight: int) -> Poly:
    """Read q(x) off Q(y) = d^weight q(y / d): q_j = Q_j / d^(weight - j)."""
    return Poly([Fraction(c, d ** (weight - j)) for j, c in enumerate(q)])


def _phi_images(point: TodaPoint, ms) -> list[PhiImage]:
    """The images of `point` at the cuts m in `ms` (read mod n); the
    integer data, the flavor and p are formed once (module docstring,
    "Integer evaluation")."""
    n = point.n
    nums, d = integer_numerators(point.a + point.b)
    a, b = [c * d for c in nums[:n]], nums[n:]
    p, images = _phi_polys(a, b, 0, ms)
    p = _descale(p, d, n)
    flavor = EVEN_MUMFORD if any(b) else prym_flavor(n - 1)
    return [PhiImage(MumfordTriple(_descale(u, d, n - 1), _descale(v, d, n),
                                   _descale(w, d, n + 1), flavor), (m - 1) % n + 1, p)
            for m, (u, v, w) in zip(ms, images)]


def phi(point: TodaPoint, m: int) -> PhiImage:
    """Map a Toda point into M'_{n-1} (prym flavors on the b = 0 slice).

    The index-m map is the index-n map after the cyclic relabeling that
    puts m in the last position: the minors in the defining formulas are
    taken of the band matrix with the h corners stripped AT m, not of the
    fixed matrix (taking them literally breaks the fiber identity for
    interior m, because deleting an interior row decouples the band and
    the determinant-lemma cross term degenerates to zero).
    """
    return _phi_images(point, [m])[0]


def phi_all(point: TodaPoint) -> list[PhiImage]:
    """[phi(point, m) for m = 1..n], from one pass: n minor recursions
    where n calls of `phi` run 2n, and p formed once."""
    return _phi_images(point, range(1, point.n + 1))


def phi_symbolic(n: int, m: int) -> list[MultiPoly]:
    """Image coordinates (even Mumford layout, g = n-1) as exact polynomials
    in (a_1..a_n, b_1..b_n)."""
    nv = 2 * n
    x = MultiPoly.variables(nv)
    _p, [(u, v, w)] = _phi_polys(x[:n], x[n:], MultiPoly(nv), [m])
    return _slot_codec(EVEN_MUMFORD, n - 1)[1](u, v, w)


# ---------------------------------------------------------------------------
# inverse reconstruction
# ---------------------------------------------------------------------------

def _monic_separation(product: Poly, expected_degree: int, label: str):
    """Split c * S with S monic of expected_degree into (c, S)."""
    if product.degree != expected_degree:
        raise NotInImageError(f"{label}: expected degree {expected_degree}, "
                              f"got {product.degree}")
    c = Fraction(product.leading())
    return c, Poly([Fraction(x) / c for x in product.coeffs])


def phi_inverse(triple: MumfordTriple, n: int) -> TodaPoint:
    """Invert the m = n map: reconstruct the unique Toda preimage.

    Euclid's algorithm on the trailing minors S_j = Delta_{j..n}, monic of
    degree j-1 with S_n = u: p divided by u leaves x - b_n and -s, and, by
    S_{j+1} = (x - b_j) S_j - a_{j-1} S_{j-1}, S_{j+1} divided by S_j
    leaves x - b_j and -a_{j-1} S_{j-1}; S_2 = x - b_1.  s and v are the
    sum and difference of a_{n-1} Delta_{n-1,n} and a_n Delta_{1,n}.
    Raises NotInImageError when a scalar times a minor has the wrong degree.
    """
    if n < 3:
        raise InvariantError("size", "the morphism needs n >= 3")
    u, v, w = triple.u, triple.v, triple.w
    if u.degree != n - 1:
        raise NotInImageError(f"deg u = {u.degree}, expected {n - 1}")
    try:
        p, r = pr_split_from(u * w + v * v, n)
    except ValueError as exc:
        raise NotInImageError(str(exc)) from exc
    if r != Poly([Fraction(-4)]):
        raise NotInImageError("u w + v^2 + 4 is not a perfect square")

    b = [Fraction(0)] * (n + 1)  # 1-based
    a = [Fraction(0)] * (n + 1)
    q, rem = p.divrem(u)
    b[n], s = -q.coeff(0), -rem
    # split a_{n-1} Delta_{n-1,n} and a_n Delta_{1,n} out of s and v
    a[n - 1], s_prev = _monic_separation(Fraction(1, 2) * (s + v), n - 2, "a_{n-1} Delta_{n-1,n}")
    a[n], _ = _monic_separation(Fraction(1, 2) * (s - v), n - 2, "a_n Delta_{1,n}")

    s_cur = u  # S_n
    # downward induction: j = n-1 .. 2 yields b_j, a_{j-1} and S_{j-1}
    for j in range(n - 1, 1, -1):
        q, rem = s_cur.divrem(s_prev)
        b[j] = -q.coeff(0)
        a[j - 1], s_next = _monic_separation(-rem, j - 2, f"a_{j - 1} Delta_{j - 1}..n")
        s_cur, s_prev = s_prev, s_next
    b[1] = -s_cur.coeff(0)  # S_2 = x - b_1

    try:
        return TodaPoint(tuple(a[1:]), tuple(b[1:]))
    except InvariantError as exc:
        raise NotInImageError(f"reconstructed point invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# quadratic bracket family on the even Mumford space
# ---------------------------------------------------------------------------

def quad_bracket_generators(g: int, phi: Poly) -> dict:
    """Generating functions of the quadratic family on M'_g, deg phi <= 1."""
    if phi.is_zero():
        raise InvariantError("phi", "phi must be nonzero")
    if phi.degree > 1:
        raise InvariantError("phi-degree", "the quadratic family needs deg phi <= 1")
    coords = phase_coordinates(EVEN_MUMFORD, g)
    nv = coords.nvars
    u, v, w = coords.u, coords.v, coords.w
    p, _r = pr_split_from(momentum(coords), g + 1)
    gens = linear_generators(coords, p * _lift_phi(phi, nv))
    # A(t) = phi(alpha(2t)/2) = phi_1 t + (phi_1 (w_{g+1}-u_{g-1})/2 + phi_0)
    c = coords.alpha.coeff(0)
    a_phi = Poly([Fraction(phi.coeff(1)) * c * Fraction(1, 2)
                  + MultiPoly.const(nv, phi.coeff(0)),
                  MultiPoly.const(nv, phi.coeff(1))])
    afs = of_sum(a_phi)
    # the linear family at p phi, plus the A(x+x') terms
    gens[("u", "v")] = gens[("u", "v")] + afs * outer(u, u)
    gens[("u", "w")] = gens[("u", "w")] - 2 * afs * outer(u, v)
    gens[("v", "w")] = gens[("v", "w")] + afs * outer(u, w)
    gens[("w", "w")] = gens[("w", "w")] + 2 * afs * (outer(w, v) - outer(v, w))
    return gens


# The largest genus of a quadratic-family table.  Its entries are quadratic
# in the coordinates, so its cost grows much faster with g than that of the
# linear tables (mumford.MAX_GENUS).
MAX_QUAD_GENUS = 4


def quad_mumford_table(g: int, phi: Poly) -> BracketTable:
    check_table_genus(g, MAX_QUAD_GENUS, "the genus of a quadratic-family table")
    coords = phase_coordinates(EVEN_MUMFORD, g)
    return table_from_generators(coords, quad_bracket_generators(g, phi))

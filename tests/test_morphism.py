"""The lattice-to-Mumford morphism, its inverse, and the quadratic family."""

import hashlib
from fractions import Fraction as F
from math import lcm

import pytest
from conftest import wide_toda_point
from dense_lax import toda_tridiag

from prymlab import algebra, morphism
from prymlab.algebra import (Poly, bicoeff, divided_difference, parse_poly, pr_split,
                             tridiag_minor_det)
from prymlab.errors import InvariantError, NotInImageError
from prymlab.morphism import (PhiImage, phi, phi_all, phi_inverse, phi_symbolic,
                              quad_mumford_table)
from prymlab.mumford import (EVEN_MUMFORD, EVEN_PRYM, ODD_PRYM, MumfordTriple,
                             _lift_phi, flow_values, mumford_flow,
                             phase_coordinates, point_values)
from prymlab.sampling import km_point, toda_point
from prymlab.symbolic import MultiPoly
from prymlab.toda import KMPoint, char_poly, toda_pencil_table, toda_point_values


def _as_mp(value, nvars):
    return value if isinstance(value, MultiPoly) else MultiPoly.const(nvars, value)


def _pr_symbolic(g):
    """(p, r) of u w + v^2 = p^2 + r in the coordinates of M'_g."""
    coords = phase_coordinates(EVEN_MUMFORD, g)
    return pr_split(coords.u, coords.v, coords.w, g + 1)


# ---------------------------------------------------------------------------
# the forward map
# ---------------------------------------------------------------------------

def test_phi_worked_example_n3():
    image = phi(KMPoint((F(1), F(1), F(1))).embed(), 3)
    assert image.triple.u == parse_poly("-1,0,1")
    assert image.triple.v.is_zero()
    assert image.triple.w == parse_poly("4,0,-5,0,1")
    assert image.p == parse_poly("0,-3,0,1")
    assert image.triple.flavor == ODD_PRYM
    assert (image.triple.u * image.triple.w
            == image.p * image.p - Poly([F(4)]))


def test_fiber_identity_all_m(rng):
    for n in (3, 5, 7):
        point = toda_point(rng, n)
        for m in range(1, n + 1):
            phi(point, m)  # PhiImage validates u w + v^2 = p^2 - 4


def _phi_by_minors(point, m):
    """(u, v, w, p) of the index-m image from the minor formulas of the
    morphism module docstring, one tridiag_minor_det call per minor, on the
    point relabeled so that m sits in the last slot."""
    n = point.n
    shifted = point.shift(m % n)
    b, c = toda_tridiag(shifted)
    minor = lambda *removed: tridiag_minor_det(b, c, removed)
    am, am1 = Poly([shifted.a[n - 1]]), Poly([shifted.a[n - 2]])
    x_minus_bm = Poly([-shifted.b[n - 1], F(1)])
    d_m, d_prev = minor(n), minor(n - 1, n)
    d_next, d_both = minor(n, n + 1), minor(n - 1, n, n + 1)
    u = d_m
    v = am1 * d_prev - am * d_next
    w = (x_minus_bm * x_minus_bm * d_m
         - Poly([F(2)]) * x_minus_bm * (am1 * d_prev + am * d_next)
         + Poly([F(4)]) * am * am1 * d_both)
    p = minor() - am * minor(1, n)
    return u, v, w, p


def test_phi_matches_minor_formulas(rng):
    # n = 3 covers the empty run 2..n-2 behind Delta_{n-1,n,n+1} = 1.  phi
    # works on integers scaled by the lcm D of the denominators; a KM point
    # takes D from a alone, and a_n = 1 / prod(a_i) makes D a large power
    # at n = 12.  Every coefficient must come back a Fraction, which == on
    # Polys cannot tell from an int.
    for n in range(3, 13):
        for point in (toda_point(rng, n), toda_point(rng, n), km_point(rng, n).embed()):
            half_k = F(1, 2) * char_poly(point)
            for m in range(1, n + 1):
                image = phi(point, m)
                got = (image.triple.u, image.triple.v, image.triple.w, image.p)
                for poly, expected in zip(got, _phi_by_minors(point, m)):
                    assert poly == expected
                    assert all(type(c) is F for c in poly.coeffs)
                assert image.p == half_k


def test_phi_all_is_phi_at_every_cut(rng):
    # one pass for all cuts: the same images as n calls of phi, every
    # coefficient a Fraction, and one p, K/2, shared by all of them
    for n in range(3, 13):
        for point in (toda_point(rng, n), km_point(rng, n).embed()):
            images = phi_all(point)
            assert images == [phi(point, m) for m in range(1, n + 1)]
            for image in images:
                t = image.triple
                assert all(type(c) is F for q in (t.u, t.v, t.w, image.p) for c in q.coeffs)
                assert image.p is images[0].p
            assert images[0].p == F(1, 2) * char_poly(point)


def _phi_symbolic_at(point):
    return phi_symbolic(point.n, 1)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("forward", [phi_all, lambda point: phi(point, 1), _phi_symbolic_at])
def test_phi_refuses_small_lattices(n, forward):
    point = KMPoint((F(1),) * n).embed()
    with pytest.raises(InvariantError) as err:
        forward(point)
    assert err.value.invariant == "size"
    assert str(err.value) == "the morphism needs n >= 3"


@pytest.mark.parametrize("n", range(3, 9))
def test_phi_runs_one_minor_recursion_per_start(monkeypatch, rng, n):
    # B(m+1, .) and B(m+2, .) serve cut m: n runs for all cuts, 2 for one
    calls = []
    exact = morphism.tridiag_run

    def counting(b, c, zero):
        calls.append(len(b))
        return exact(b, c, zero)

    monkeypatch.setattr(morphism, "tridiag_run", counting)
    point = toda_point(rng, n)
    phi_all(point)
    assert calls == [n - 1] * n
    for m in range(1, n + 1):
        calls.clear()
        phi(point, m)
        assert calls == [n - 1] * 2


def test_phi_symbolic_is_pinned():
    # sha256 of every coordinate of phi_symbolic(n, m), n = 3..6 and every
    # m, as (exponent, coefficient) terms in sorted order
    digest = hashlib.sha256()
    for n in range(3, 7):
        for m in range(1, n + 1):
            for value in phi_symbolic(n, m):
                terms = sorted((e, str(c)) for e, c in value.terms.items())
                digest.update(repr(terms).encode() + b";")
    assert digest.hexdigest() == "2c54e547ea8de0807b8c9b09ddd99f67878fddae06e60f5289427ed7e83a329f"


def test_phi_symbolic_fills_every_slot_with_a_multipoly():
    for n in range(3, 8):
        for m in range(1, n + 1):
            assert all(type(c) is MultiPoly for c in phi_symbolic(n, m))


def test_phi_image_validation():
    with pytest.raises(InvariantError):
        PhiImage(MumfordTriple(parse_poly("0,0,1"), Poly(),
                               parse_poly("0,0,0,0,1"), EVEN_MUMFORD),
                 3, parse_poly("0,0,0,1"))


def _perturbed(poly, k, delta):
    coeffs = list(poly.coeffs) + [F(0)] * (k + 1 - len(poly.coeffs))
    coeffs[k] += delta
    return Poly(coeffs)


@pytest.mark.parametrize("slot", ["u", "v", "w", "p"])
def test_fiber_check_rejects_a_perturbed_coefficient(rng, slot):
    # the constant coefficient keeps u and w monic and every degree in place
    for n in (3, 4, 6):
        image = phi(toda_point(rng, n), 2)
        parts = {"u": image.triple.u, "v": image.triple.v,
                 "w": image.triple.w, "p": image.p}
        parts[slot] = _perturbed(parts[slot], 0, F(1, 7))
        triple = MumfordTriple(parts["u"], parts["v"], parts["w"], image.triple.flavor)
        with pytest.raises(InvariantError) as err:
            PhiImage(triple, image.m, parts["p"])
        assert err.value.invariant == "fiber-identity"


def test_fiber_check_agrees_with_poly_identity(rng):
    for n in (3, 4, 5, 8):
        for point in (toda_point(rng, n), km_point(rng, n).embed()):
            for m in range(1, n + 1):
                image = phi(point, m)
                t = image.triple
                assert t.u * t.w + t.v * t.v == image.p * image.p - Poly([F(4)])
                # a direct construction runs the same check and passes
                assert PhiImage(t, image.m, image.p) == image
    # int coefficients are cleared over denominator 1; this image passes
    PhiImage(MumfordTriple(Poly([-1, 0, 1]), Poly(), Poly([4, 0, -5, 0, 1]), ODD_PRYM),
             3, Poly([0, -3, 0, 1]))


def test_fiber_check_builds_no_fraction(rng, monkeypatch):
    image = phi(toda_point(rng, 5), 3)
    bad = MumfordTriple(image.triple.u, image.triple.v,
                        _perturbed(image.triple.w, 1, F(1, 7)), image.triple.flavor)
    calls = []
    original = F.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    PhiImage(image.triple, image.m, image.p)
    with pytest.raises(InvariantError):
        PhiImage(bad, image.m, image.p)
    monkeypatch.undo()
    assert not calls


def test_fiber_check_k_bounds_both_sides(monkeypatch, rng):
    """Every coefficient of both fraction-free sides, found by Poly
    products, is below 2^k for the k that algebra.first_mismatch picks for
    PhiImage (one evaluation of each of N_u, N_v, N_w and N_p): on random
    points, on n = 24, on entries up to 10^30, and on images that fail the
    check."""
    ks = []
    exact = algebra.at_two_power

    def recording(coeffs, k):
        ks.append(k)
        return exact(coeffs, k)

    monkeypatch.setattr(algebra, "at_two_power", recording)
    images = [phi(toda_point(rng, n), m) for n in (3, 5, 8) for m in (1, 2, n)]
    images += [phi(km_point(rng, n).embed(), m) for n in (3, 4, 7) for m in (1, n)]
    images += [phi(wide_toda_point(rng, n), m) for n in (3, 6) for m in (1, 2, n)]
    images += [phi(toda_point(rng, 24), m) for m in (1, 24)] + [phi(wide_toda_point(rng, 24), 1)]
    # u = x^2, v = 0, w = x^4 against p = x^3: every norm is 1, so only the
    # 4 d^2 term of the bound covers the constant -4 of p^2 - 4
    monomials = MumfordTriple(Poly([0, 0, 1]), Poly(), Poly([0, 0, 0, 0, 1]), ODD_PRYM)
    cases = [(monomials, Poly([0, 0, 0, 1]))]
    for image in images:
        t = image.triple
        # p, v or w far off the fiber: only its own norm covers its term
        cases += [(t, image.p), (t, image.p + Poly([10**30]))]
        if t.flavor == EVEN_MUMFORD:
            cases += [(MumfordTriple(t.u, t.v + Poly([10**30]), t.w, t.flavor), image.p),
                      (MumfordTriple(t.u, t.v, t.w + Poly([10**30]), t.flavor), image.p)]
        for j in (t.w.degree - 2, t.w.degree - 4):  # slots of the parity of w's top
            w = _perturbed(t.w, j, F(1, 10**30 + 7))
            cases.append((MumfordTriple(t.u, t.v, w, t.flavor), image.p))
    for t, p in cases:
        ks.clear()
        try:
            PhiImage(t, 1, p)
        except InvariantError:
            pass
        assert len(ks) == 4 and len(set(ks)) == 1
        d = lcm(*(F(c).denominator for q in (t.u, t.v, t.w, p) for c in q.coeffs))
        nu, nv, nw, np_ = (Poly([int(c * d) for c in q.coeffs]) for q in (t.u, t.v, t.w, p))
        lhs = nu * nw + nv * nv
        rhs = np_ * np_ - Poly([4 * d * d])
        width = max(len(lhs.coeffs), len(rhs.coeffs))
        assert all(abs(lhs.coeff(j)) + abs(rhs.coeff(j)) < 1 << ks[0] for j in range(width))


def test_fiber_check_names_the_lowest_failing_power(rng):
    # w + c x^j moves u w + v^2 - p^2 + 4 by c x^j u, first nonzero at
    # x^(j + the lowest power of u)
    for n in (3, 5, 8):
        image = phi(toda_point(rng, n), 2)
        t = image.triple
        low_u = next(i for i, c in enumerate(t.u.coeffs) if c)
        for j in range(t.w.degree):
            w = _perturbed(t.w, j, F(-1, 3))
            with pytest.raises(InvariantError) as err:
                PhiImage(MumfordTriple(t.u, t.v, w, t.flavor), image.m, image.p)
            assert err.value.invariant == "fiber-identity"
            assert str(err.value).endswith(f"(first at x^{j + low_u})")


def test_km_images_have_prym_flavors(rng):
    for n, flavor in ((3, ODD_PRYM), (4, EVEN_PRYM), (5, ODD_PRYM), (6, EVEN_PRYM)):
        image = phi(km_point(rng, n).embed(), 1)
        assert image.triple.flavor == flavor


def test_equivariance(rng):
    point = toda_point(rng, 5)
    for m in range(1, 6):
        lhs = phi(point.shift(1), m).triple
        rhs = phi(point, m + 1).triple
        assert (lhs.u, lhs.v, lhs.w) == (rhs.u, rhs.v, rhs.w)


def test_commuting_diagram(rng):
    point = toda_point(rng, 4)
    half_k = Poly([F(c, 2) for c in char_poly(point).coeffs])
    image = phi(point, 2)
    h = image.triple.u * image.triple.w + image.triple.v * image.triple.v
    assert h == half_k * half_k - Poly([F(4)])
    assert image.p == half_k


def test_injectivity_sampling(rng):
    for n in (3, 6):
        points = [toda_point(rng, n) for _ in range(12)]
        images = [phi(p, n).triple for p in points]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if points[i] != points[j]:
                    assert (images[i].u, images[i].v, images[i].w) \
                        != (images[j].u, images[j].v, images[j].w)


# ---------------------------------------------------------------------------
# inverse reconstruction
# ---------------------------------------------------------------------------

def test_round_trip(rng):
    for n in (3, 4, 5, 6):
        point = toda_point(rng, n)
        back = phi_inverse(phi(point, n).triple, n)
        assert back == point


def test_inverse_worked_example():
    triple = MumfordTriple(parse_poly("-1,0,1"), Poly(), parse_poly("4,0,-5,0,1"),
                           ODD_PRYM)
    point = phi_inverse(triple, 3)
    assert point.a == (1, 1, 1) and point.b == (0, 0, 0)


def test_inverse_bn_extraction(rng):
    # b_n is the difference of the coefficient sums read off p and u
    point = toda_point(rng, 4)
    image = phi(point, 4)
    sum_all = -image.p.coeff(3)
    sum_head = -image.triple.u.coeff(2)
    assert sum_all - sum_head == point.b[3]


@pytest.mark.parametrize("n", range(3, 9))
def test_round_trip_at_every_size(rng, n):
    # generic points, and a point of the KM slice (b = 0, a prym flavor)
    for point in (toda_point(rng, n), toda_point(rng, n), km_point(rng, n).embed()):
        assert phi_inverse(phi(point, n).triple, n) == point


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_inverse_refuses_small_lattices(n):
    triple = MumfordTriple(Poly([F(1)]), Poly(), parse_poly("-4,0,1"), EVEN_MUMFORD)
    with pytest.raises(InvariantError) as err:
        phi_inverse(triple, n)
    assert err.value.invariant == "size"
    assert str(err.value) == "the morphism needs n >= 3"


def _triple_from_split(u, X, Y, b_n):
    """The even Mumford triple with p = (x - b_n) u - (X + Y) and v = X - Y,
    where X and Y stand for a_{n-1} Delta_{n-1,n} and a_n Delta_{1,n}; it
    lies on the fiber u w + v^2 = p^2 - 4 because X Y = 1 mod u."""
    p = Poly([-b_n, F(1)]) * u - (X + Y)
    v = X - Y
    w, rem = (p * p - Poly([F(4)]) - v * v).divrem(u)
    assert rem.is_zero()
    return MumfordTriple(u, v, w, EVEN_MUMFORD)


@pytest.mark.parametrize("u, X, Y, message", [
    ("0,0,1", "-1", "-1", "a_{n-1} Delta_{n-1,n}: expected degree 1, got 0"),
    ("-1,0,0,1", "0,0,1", "0,1", "a_n Delta_{1,n}: expected degree 2, got 1"),
    ("-2,-2,-2,-2,1", "-1,1,1,1", "-109/187,-3/187,2/187,4/187",
     "a_3 Delta_3..n: expected degree 2, got 1"),
])
def test_inverse_names_the_step_that_fails(u, X, Y, message):
    u, X, Y = map(parse_poly, (u, X, Y))
    with pytest.raises(NotInImageError) as err:
        phi_inverse(_triple_from_split(u, X, Y, F(1, 3)), u.degree + 1)
    assert str(err.value) == message


def test_not_in_image_errors():
    with pytest.raises(NotInImageError):
        phi_inverse(MumfordTriple(parse_poly("0,0,1"), Poly(),
                                  parse_poly("1,0,0,0,1"), EVEN_MUMFORD), 3)
    # right fiber shape but monic separation fails (v too big a mess):
    with pytest.raises(NotInImageError):
        phi_inverse(MumfordTriple(parse_poly("0,0,1"), parse_poly("5,7"),
                                  parse_poly("4,0,0,0,1"), EVEN_MUMFORD), 3)


# ---------------------------------------------------------------------------
# quadratic bracket family
# ---------------------------------------------------------------------------

def test_quad_table_antisymmetry_and_jacobi():
    for phi_text in ("1", "0,1"):
        table = quad_mumford_table(2, parse_poly(phi_text))
        assert not table.antisymmetry_defects()
        assert table.jacobi_holds()
    with pytest.raises(InvariantError):
        quad_mumford_table(2, parse_poly("0,0,1"))


@pytest.mark.parametrize("phi_text", ["1", "0,1", "2,3"])
def test_quad_table_jacobi_at_genus_three(phi_text):
    assert quad_mumford_table(3, parse_poly(phi_text)).jacobi_holds()


def test_quad_bracket_with_p_displayed_formula():
    g = 2
    coords = phase_coordinates(EVEN_MUMFORD, g)
    nv = coords.nvars
    p_sym, _ = _pr_symbolic(g)
    phi_poly = parse_poly("1,2")
    table = quad_mumford_table(g, phi_poly)
    dd_uv = divided_difference(coords.u, coords.v)
    rhs = dd_uv * Poly([_lift_phi(phi_poly, nv)])  # phi(x') lifted to a Poly in x
    for i in range(g):
        ui = coords.index(f"u{i}")
        for j in range(p_sym.degree + 1):
            pj = _as_mp(p_sym.coeff(j), nv)
            lhs = MultiPoly(nv)
            for l in range(nv):
                d = pj.diff(l)
                if not d.is_zero():
                    lhs = lhs + table.entry(ui, l) * d
            assert (lhs - _as_mp(bicoeff(rhs, i, j), nv)).is_zero(), (i, j)


def test_r_coefficients_are_casimirs():
    g = 2
    coords = phase_coordinates(EVEN_MUMFORD, g)
    nv = coords.nvars
    _, r_sym = _pr_symbolic(g)
    table = quad_mumford_table(g, parse_poly("1,2"))
    for j in range(r_sym.degree + 1):
        rj = _as_mp(r_sym.coeff(j), nv)
        for c in range(nv):
            assert table.poisson_bracket(rj, MultiPoly.var(nv, c)).is_zero()


def test_lax_field_is_quad_hamiltonian(rng):
    # X_y = {., 2 p(y)}_q^1 on the even Mumford space
    from prymlab.sampling import mumford_triple
    g = 2
    point = mumford_triple(rng, EVEN_MUMFORD, g)
    values = point_values(point)
    coords = phase_coordinates(EVEN_MUMFORD, g)
    p_sym, _ = _pr_symbolic(g)
    y = F(3, 2)
    two_p_y = 2 * p_sym.evaluate(y)
    table = quad_mumford_table(g, Poly([F(1)]))
    field = table.hamiltonian_field(_as_mp(two_p_y, coords.nvars), values)
    du, dv, dw = mumford_flow(point, y)
    assert field == [F(c) for c in flow_values(EVEN_MUMFORD, g, du, dv, dw)]


def test_phi_intertwines_the_pencils_up_to_sign(rng):
    # {F o Phi, G o Phi}^phi = ({F, G}_q^{-phi}) o Phi, exactly.  Both
    # one-sided conventions are pinned by their Lax hierarchies, so the
    # sign is intrinsic; see the module docstring.
    n = 3
    g = n - 1
    image_coords = phi_symbolic(n, n)
    for phi_text in ("1", "0,1", "1,2"):
        phi_poly = parse_poly(phi_text)
        q_table = quad_mumford_table(g, phi_poly)
        t_table = toda_pencil_table(phi_poly, n)
        for _ in range(2):
            point = toda_point(rng, n)
            values_t = toda_point_values(point)
            values_m = point_values(phi(point, n).triple)
            lattice = t_table.at(values_t)
            grads = [[c.diff(k).eval(values_t) for k in range(2 * n)]
                     for c in image_coords]
            dim = len(image_coords)
            for a in range(dim):
                for b in range(a + 1, dim):
                    lhs = sum(grads[a][k] * grads[b][l] * lattice[k][l]
                              for k in range(2 * n) for l in range(2 * n))
                    rhs = q_table.entry(a, b).eval(values_m)
                    assert lhs == -rhs, (phi_text, a, b)


def test_phi_maps_flows_up_to_sign(rng):
    # push the lattice Hamiltonian field of 2p(y) o Phi through dPhi: it is
    # the negative of the Mumford Lax field X_y at the image
    n = 3
    image_coords = phi_symbolic(n, n)
    point = toda_point(rng, n)
    values_t = toda_point_values(point)
    image = phi(point, n)
    y = F(2)
    # 2 p(y) as a function on the lattice, via the symbolic image coordinates
    coords = phase_coordinates(EVEN_MUMFORD, n - 1)
    p_sym, _ = _pr_symbolic(n - 1)
    two_p_y = 2 * p_sym.evaluate(y)
    hamiltonian = _as_mp(two_p_y, coords.nvars).subs(image_coords)
    t_table = toda_pencil_table(Poly([F(1)]), n)
    lattice_field = t_table.hamiltonian_field(hamiltonian, values_t)
    pushed = [sum(c.diff(k).eval(values_t) * lattice_field[k]
                  for k in range(2 * n)) for c in image_coords]
    du, dv, dw = mumford_flow(image.triple.ambient(), y)
    target = [F(c) for c in flow_values(EVEN_MUMFORD, n - 1, du, dv, dw)]
    assert pushed == [-x for x in target]


def test_quad_family_compatible_with_linear_pencil():
    # the quadratic family and the linear family with deg psi <= 1 are
    # compatible: any sum of the two tables still satisfies Jacobi
    from prymlab.mumford import mumford_bracket_table
    quad = quad_mumford_table(2, parse_poly("1,1"))
    for psi_text in ("1", "0,1"):
        linear = mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly(psi_text))
        assert quad.add(linear).jacobi_holds(), psi_text

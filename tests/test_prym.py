"""The parity involution, Dirac reduction and the reduced Prym systems."""

from fractions import Fraction as F

import pytest

from prymlab.algebra import Poly, bicoeff, outer, parse_poly
from prymlab.errors import InvariantError
from prymlab.mumford import (EVEN_MUMFORD, EVEN_PRYM, ODD_MUMFORD, ODD_PRYM, MumfordTriple,
                             flow_values, momentum,
                             mumford_bracket_table, phase_coordinates,
                             point_values, prym_flavor, table_from_generators)
from prymlab.prym import (dirac_reduce, genus_of_hyperelliptic, involution_j,
                          involution_signs, is_poisson_involution,
                          prym_bracket_generators, prym_bracket_table, prym_flow,
                          quotient_curves, reduce_mumford_table, tables_equal)
from prymlab.sampling import km_point, mumford_triple
from prymlab.symbolic import BracketTable, MultiPoly
from prymlab.toda import char_poly


def test_involution_examples(rng):
    fixed = MumfordTriple(parse_poly("-1,0,1"), Poly(), parse_poly("4,0,-5,0,1"),
                          ODD_PRYM)
    assert involution_j(fixed.ambient()) == fixed.ambient()
    for _ in range(4):
        p = mumford_triple(rng, EVEN_MUMFORD, 2)
        q = involution_j(involution_j(p))
        assert (q.u, q.v, q.w) == (p.u, p.v, p.w)
        p3 = mumford_triple(rng, EVEN_MUMFORD, 3)
        q3 = involution_j(involution_j(p3))
        assert (q3.u, q3.v, q3.w) == (p3.u, p3.v, p3.w)


def test_involution_degree_parity_guard(rng):
    # deg u picks the map: j (u(-x), -v(-x), w(-x)) on even g, its negative on odd g
    for g in range(6):
        p = mumford_triple(rng, EVEN_MUMFORD, g)
        j = (p.u.reflect(), -p.v.reflect(), p.w.reflect())
        want = j if g % 2 == 0 else tuple(-q for q in j)
        image = involution_j(p)
        assert (image.u, image.v, image.w, image.flavor) == (*want, EVEN_MUMFORD)


def test_fixed_point_characterization(rng):
    # fixed by j exactly when the forbidden-parity coefficients vanish
    for _ in range(4):
        prym_point = mumford_triple(rng, ODD_PRYM, 1).ambient()
        assert involution_j(prym_point) == prym_point
        generic = mumford_triple(rng, EVEN_MUMFORD, 2)
        forbidden = ([generic.u.coeff(k) for k in (1,)]
                     + [generic.v.coeff(k) for k in (0,)]
                     + [generic.w.coeff(k) for k in (1, 3)])
        assert (involution_j(generic) == generic) == all(c == 0 for c in forbidden)
        eprym = mumford_triple(rng, EVEN_PRYM, 1).ambient()
        assert involution_j(eprym) == eprym


def test_involution_is_poisson_for_matching_parity(rng):
    even_phi = mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly("1,0,1"))
    odd_phi = mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly("0,1"))
    signs = involution_signs(2)
    assert is_poisson_involution(even_phi, signs)
    assert not is_poisson_involution(odd_phi, signs)
    # numeric spot check of {F o j, G o j} = {F, G} o j for coordinates
    point = mumford_triple(rng, EVEN_MUMFORD, 2)
    image = involution_j(point)
    vals, ivals = point_values(point), point_values(image)
    m_here = even_phi.at(vals)
    m_there = even_phi.at(ivals)
    n = len(signs)
    for i in range(n):
        for j in range(n):
            assert signs[i] * signs[j] * m_here[i][j] == m_there[i][j]


@pytest.mark.parametrize("g", range(9))
def test_involution_signs_fix_the_prym_layout(g):
    ambient = phase_coordinates(EVEN_MUMFORD, g).names
    kept = set(phase_coordinates(prym_flavor(g), g // 2).names)
    assert involution_signs(g) == [1 if name in kept else -1 for name in ambient]


def test_involution_rejects_odd_mumford_points(rng):
    with pytest.raises(InvariantError) as exc:
        involution_j(mumford_triple(rng, ODD_MUMFORD, 2))
    assert exc.value.invariant == "flavor"


def test_dirac_reduce_refuses_non_poisson_involution():
    table = mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly("0,1"))
    with pytest.raises(InvariantError):
        dirac_reduce(table, involution_signs(2))


@pytest.mark.parametrize("flavor,n,phi_text", [
    (ODD_PRYM, 1, "1"), (ODD_PRYM, 1, "0,0,1"),
    (ODD_PRYM, 2, "0,0,1"), (ODD_PRYM, 2, "0,0,0,0,1"),
    (EVEN_PRYM, 1, "0,1"), (EVEN_PRYM, 1, "0,0,0,1"),
    (EVEN_PRYM, 2, "0,1"), (EVEN_PRYM, 2, "0,0,0,0,0,1"),
])
def test_generic_reduction_equals_closed_forms(flavor, n, phi_text):
    phi = parse_poly(phi_text)
    assert tables_equal(reduce_mumford_table(flavor, n, phi),
                        prym_bracket_table(flavor, n, phi))


def test_tables_equal_sees_one_entry_and_the_names():
    table = prym_bracket_table(ODD_PRYM, 2, parse_poly("1"))
    assert tables_equal(table, BracketTable(table.names, table.entries))
    for i, j in ((0, 1), (table.dim - 1, table.dim - 1)):
        entries = [row[:] for row in table.entries]
        entries[i][j] = entries[i][j] + 1
        assert not tables_equal(table, BracketTable(table.names, entries))
        assert not tables_equal(BracketTable(table.names, entries), table)
    renamed = [*table.names[:-1], "z"]
    assert not tables_equal(table, BracketTable(renamed, table.entries))


def test_closed_form_uv_example():
    # u = x^2 + u0, phi = 1: x'(u(x) - u(x')) / (x^2 - x'^2) = x'
    generators = prym_bracket_generators(ODD_PRYM, 1, Poly([F(1)]))
    guv = generators[("u", "v")]
    assert bicoeff(guv, 0, 1) == 1
    assert all(bicoeff(guv, i, j) == 0 or (i, j) == (0, 1)
               for i in range(3) for j in range(3))


def test_generator_residue_at_a_forbidden_slot_is_refused():
    # u1 is not a coordinate on odd-prym (u = x^2 + u0), so an x^1 x'^0
    # term in {u(x), v(x')} must be reported, not dropped
    coords = phase_coordinates(ODD_PRYM, 1)
    generators = prym_bracket_generators(ODD_PRYM, 1, Poly([F(1)]))
    one = MultiPoly.const(coords.nvars, 1)
    generators[("u", "v")] = generators[("u", "v")] + outer(Poly([0, one]), Poly([one]))
    with pytest.raises(InvariantError, match="residue at x\\^1 x'\\^0") as err:
        table_from_generators(coords, generators)
    assert err.value.invariant == "generator-slots"


def test_reduced_uu_entry_is_zero():
    table = prym_bracket_table(ODD_PRYM, 2, parse_poly("0,0,1"))
    for a in ("u0", "u2"):
        for b in ("u0", "u2"):
            assert table.entry(table.index(a), table.index(b)).is_zero()


def test_reduced_jacobi_n1_both_flavors():
    assert prym_bracket_table(ODD_PRYM, 1, Poly([F(1)])).jacobi_holds()
    assert prym_bracket_table(EVEN_PRYM, 1, parse_poly("0,1")).jacobi_holds()


def test_phi_parity_enforced():
    with pytest.raises(InvariantError):
        prym_bracket_table(ODD_PRYM, 1, parse_poly("0,1"))
    with pytest.raises(InvariantError):
        prym_bracket_table(EVEN_PRYM, 1, Poly([F(1)]))


def test_prym_flow_conserves_and_keeps_parity(rng):
    for flavor, n in ((ODD_PRYM, 1), (ODD_PRYM, 2), (EVEN_PRYM, 1)):
        point = mumford_triple(rng, flavor, n)
        du, dv, dw = prym_flow(point, F(5, 3))
        assert (du * point.w + point.u * dw + 2 * point.v * dv).is_zero()
        if flavor == ODD_PRYM:
            assert du.is_even() and dv.is_odd() and dw.is_even()
        else:
            assert du.is_odd() and dv.is_even() and dw.is_odd()


def test_prym_flow_is_reduced_hamiltonian_field(rng):
    for flavor, n in ((ODD_PRYM, 2), (EVEN_PRYM, 1)):
        point = mumford_triple(rng, flavor, n)
        values = point_values(point)
        coords = phase_coordinates(flavor, n)
        H = momentum(coords)
        y = F(5, 3)
        phi = Poly([F(1)]) if flavor == ODD_PRYM else parse_poly("0,1")
        table = prym_bracket_table(flavor, n, phi)
        scale = F(1) / phi.evaluate(y)
        field = [scale * x for x in table.hamiltonian_field(H.evaluate(y), values)]
        du, dv, dw = prym_flow(point, y)
        assert field == [F(c) for c in flow_values(flavor, n, du, dv, dw)]


def test_even_prym_reducibility_signal(rng):
    # H(0) = v(0)^2 on the even-prym space, since u(0) = w(0) = 0
    for _ in range(4):
        point = mumford_triple(rng, EVEN_PRYM, 2)
        assert momentum(point).coeff(0) == point.v.coeff(0) ** 2


def _lax_field(point, y):
    """(du, dv, dw) read off [L(x), M(x, y)] / (x^2 - y^2), L = [[v, w], [u, -v]]
    and M as in the prym docstring, from 2x2 Poly products and Poly.divrem;
    every remainder must vanish."""
    u, v, w = point.u, point.v, point.w
    uy, vy, wy = (Poly([p.evaluate(y)]) for p in (u, v, w))
    x, d = Poly([0, 1]), Poly([-y * y, 0, 1])
    L = [[v, w], [u, -v]]
    M = [[y * vy, x * wy + x * d * uy], [x * uy, -y * vy]]

    def product(A, B):
        return [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)] for i in range(2)]

    LM, ML = product(L, M), product(M, L)
    out = []
    for i, j in ((1, 0), (0, 0), (0, 1)):  # the entries holding u, v, w
        quotient, remainder = (LM[i][j] - ML[i][j]).divrem(d)
        assert remainder.is_zero()
        out.append(quotient)
    return tuple(out)


@pytest.mark.parametrize("flavor", [ODD_PRYM, EVEN_PRYM])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_prym_flow_is_the_reduced_lax_field(rng, flavor, n):
    for y in (F(5, 3), F(-2, 7), F(4)):
        point = mumford_triple(rng, flavor, n)
        assert prym_flow(point, y) == _lax_field(point, y)


# ---------------------------------------------------------------------------
# spectral curves
# ---------------------------------------------------------------------------

def _prym_dimension(f: Poly) -> int:
    """g(C) - g(C') for C: y^2 = f(x) and C' its quotient of larger genus."""
    curves = quotient_curves(f)
    return genus_of_hyperelliptic(f.degree) - max(
        genus_of_hyperelliptic(curves.sigma.degree), genus_of_hyperelliptic(curves.tau.degree))


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_quotient_curves_at_every_n(rng, n):
    p = char_poly(km_point(rng, n).embed()) * F(1, 2)  # h + 1/h = p(x)
    f = p * p - Poly([4])
    g = f.decimate_even()
    curves = quotient_curves(f)
    odd_n, even_n = (g, Poly([0, 1]) * g), (Poly([0, 1]) * g, g)
    assert (curves.sigma, curves.tau) == (odd_n if n % 2 else even_n)
    assert curves.sigma.degree % 2 == 1  # one branch point at infinity
    assert _prym_dimension(f) == (n - 1) // 2  # the KM fiber dimension


@pytest.mark.parametrize("flavor", [ODD_PRYM, EVEN_PRYM])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_prym_momentum_curve_has_prym_dimension_n(rng, flavor, n):
    assert _prym_dimension(momentum(mumford_triple(rng, flavor, n))) == n


@pytest.mark.parametrize("f", [Poly(), Poly([F(5)])], ids=["zero", "constant"])
def test_quotient_curves_refuse_a_degenerate_f(f):
    with pytest.raises(InvariantError) as caught:
        quotient_curves(f)
    assert caught.value.invariant == "curve-degree"


def test_quotient_curves_at_degree_two():
    # f = x^2 - 3 = g(x^2) with g = u - 3 of odd degree 1: sigma = g, tau = u g
    curves = quotient_curves(Poly([F(-3), 0, F(1)]))
    assert (curves.sigma, curves.tau) == (Poly([F(-3), F(1)]), Poly([0, F(-3), F(1)]))
    assert [genus_of_hyperelliptic(q.degree) for q in (curves.sigma, curves.tau)] == [0, 0]


def test_genus_refuses_a_degree_below_one():
    assert genus_of_hyperelliptic(1) == 0
    for d in (0, -1):
        with pytest.raises(InvariantError) as caught:
            genus_of_hyperelliptic(d)
        assert caught.value.invariant == "curve-degree"

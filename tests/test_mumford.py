"""Mumford phase spaces, the bracket family, momentum map and Lax flows."""

from fractions import Fraction as F

import pytest

from prymlab.algebra import Poly, parse_poly
from prymlab.errors import InvariantError
from prymlab.mumford import (EVEN_MUMFORD, EVEN_PRYM, MUMFORD_FLAVORS,
                             ODD_MUMFORD, ODD_PRYM, PRYM_FLAVORS, MumfordTriple,
                             bracket_generators, degrees, flow_values, momentum,
                             mumford_bracket_table, mumford_flow,
                             mumford_flow_symbolic, phase_coordinates,
                             point_values, prym_flavor, prym_sign, triple_from_values)
from prymlab.sampling import mumford_triple
from prymlab.symbolic import MultiPoly, matrix_rank

ONE = Poly([F(1)])
X = parse_poly("0,1")


# ---------------------------------------------------------------------------
# phase space validation
# ---------------------------------------------------------------------------

def test_triple_validation():
    u, v, w = parse_poly("1,2,1"), parse_poly("3"), parse_poly("0,0,0,1")
    MumfordTriple(u, v, w, ODD_MUMFORD)
    with pytest.raises(InvariantError):
        MumfordTriple(2 * u, v, w, ODD_MUMFORD)  # u not monic
    with pytest.raises(InvariantError):
        MumfordTriple(u, parse_poly("0,0,1"), w, ODD_MUMFORD)  # deg v too big
    with pytest.raises(InvariantError):
        MumfordTriple(u, v, w, EVEN_MUMFORD)  # w degree off
    with pytest.raises(InvariantError):
        MumfordTriple(parse_poly("0,1,1"), Poly(), parse_poly("0,0,0,0,1"),
                      ODD_PRYM)  # u not even


# one valid triple per flavor: (u, v, w) as ascending coefficient text
_VALID_TRIPLES = {
    ODD_MUMFORD: ("1,2,1", "3", "0,0,0,1"),
    EVEN_MUMFORD: ("1,2,1", "3,1", "0,0,0,0,1"),
    ODD_PRYM: ("-1,0,1", "0,1", "4,0,-5,0,1"),
    EVEN_PRYM: ("0,2,0,1", "1,0,3", "0,1,0,0,0,1"),
}

# (flavor, replaced components, the invariant the triple breaks first, or
# None for a valid triple); the last five break two invariants each and pin
# the order of the checks
_TRIPLE_CASES = [(flavor, {}, None) for flavor in _VALID_TRIPLES] + [
    ("no-such-flavor", {}, "flavor"),
    (ODD_MUMFORD, {"u": "1,2,2"}, "u-monic"),
    (ODD_MUMFORD, {"w": "0,0,0,2"}, "w-monic"),
    (ODD_MUMFORD, {"v": "3,0,1"}, "v-degree"),
    (ODD_MUMFORD, {"w": "0,0,0,0,1"}, "w-degree"),
    (EVEN_MUMFORD, {"u": "1,2,-1"}, "u-monic"),
    (EVEN_MUMFORD, {"w": "0,0,0,0,3"}, "w-monic"),
    (EVEN_MUMFORD, {"v": "3,1,1"}, "v-degree"),
    (EVEN_MUMFORD, {"w": "0,0,0,1"}, "w-degree"),
    (ODD_PRYM, {"u": "-1,0,2"}, "u-monic"),
    (ODD_PRYM, {"w": "4,0,-5,0,2"}, "w-monic"),
    (ODD_PRYM, {"u": "0,1,0,1"}, "u-degree"),
    (ODD_PRYM, {"v": "0,1,0,1"}, "v-degree"),
    (ODD_PRYM, {"w": "1,0,0,0,0,0,1"}, "w-degree"),
    (ODD_PRYM, {"u": "-1,1,1"}, "parity"),
    (ODD_PRYM, {"v": "1,1"}, "parity"),
    (ODD_PRYM, {"w": "4,1,-5,0,1"}, "parity"),
    (EVEN_PRYM, {"u": "0,2,0,5"}, "u-monic"),
    (EVEN_PRYM, {"w": "0,1,0,0,0,-1"}, "w-monic"),
    (EVEN_PRYM, {"u": "1,0,1"}, "u-degree"),
    (EVEN_PRYM, {"v": "1,0,3,0,1"}, "v-degree"),
    (EVEN_PRYM, {"w": "0,1,0,1"}, "w-degree"),
    (EVEN_PRYM, {"u": "1,2,0,1"}, "parity"),
    (EVEN_PRYM, {"v": "1,1,3"}, "parity"),
    (EVEN_PRYM, {"w": "0,1,1,0,0,1"}, "parity"),
    (ODD_MUMFORD, {"u": "2", "w": "0,2"}, "u-monic"),
    (ODD_MUMFORD, {"v": "3,0,1", "w": "0,0,0,0,2"}, "w-monic"),
    (ODD_MUMFORD, {"v": "3,0,1", "w": "0,0,0,0,1"}, "v-degree"),
    (ODD_PRYM, {"u": "0,1,0,1", "v": "0,1,0,1"}, "u-degree"),
    (ODD_PRYM, {"u": "-1,1,1", "w": "1,0,0,0,0,0,1"}, "w-degree"),
]


@pytest.mark.parametrize("flavor, replaced, invariant", _TRIPLE_CASES)
def test_triple_validation_names_the_broken_invariant(flavor, replaced, invariant):
    text = dict(zip("uvw", _VALID_TRIPLES.get(flavor, _VALID_TRIPLES[ODD_MUMFORD])))
    text.update(replaced)
    u, v, w = (parse_poly(text[k]) for k in "uvw")
    if invariant is None:
        triple = MumfordTriple(u, v, w, flavor)
        assert (triple.u, triple.v, triple.w) == (u, v, w)
        return
    with pytest.raises(InvariantError) as err:
        MumfordTriple(u, v, w, flavor)
    assert err.value.invariant == invariant


_PARITY_WORDS = {ODD_PRYM: "u, w even and v odd", EVEN_PRYM: "u, w odd and v even"}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("flavor", PRYM_FLAVORS)
def test_every_off_layout_slot_breaks_parity(rng, flavor, n):
    names = phase_coordinates(flavor, n).names
    base = mumford_triple(rng, flavor, n)
    deg_u, deg_w = degrees(flavor, n)
    off = [(fam, k) for fam, top in zip("uvw", (deg_u, deg_u, deg_w))
           for k in range(top) if f"{fam}{k}" not in names]
    assert len(off) == deg_u + deg_u + deg_w - len(names) > 0
    for fam, k in off:
        coeffs = {f: list(getattr(base, f).coeffs) for f in "uvw"}
        coeffs[fam] += [F(0)] * (k + 1 - len(coeffs[fam]))
        coeffs[fam][k] = F(rng.choice([-3, -1, 1, 2]))
        with pytest.raises(InvariantError) as err:
            MumfordTriple(*(Poly(coeffs[f]) for f in "uvw"), flavor)
        assert err.value.invariant == "parity"
        assert str(err.value) == f"{flavor} triples need {_PARITY_WORDS[flavor]}"


@pytest.mark.parametrize("flavor", PRYM_FLAVORS)
def test_prym_flavor_agrees_with_the_degree_table(flavor):
    for n in range(8):
        deg_u = degrees(flavor, n)[0]
        assert prym_flavor(deg_u) == flavor
        assert degrees(prym_flavor(deg_u), deg_u // 2)[0] == deg_u


@pytest.mark.parametrize("flavor", PRYM_FLAVORS)
def test_prym_sign_is_the_parity_of_u(rng, flavor):
    """prym_sign is (-1)^deg u at every index, and u(-x) = prym_sign u(x)
    on the points of the space, so sign * j fixes them."""
    for n in range(1, 6):
        assert prym_sign(flavor) == (-1) ** degrees(flavor, n)[0]
        t = mumford_triple(rng, flavor, n)
        assert t.u.reflect() == prym_sign(flavor) * t.u
    for other in MUMFORD_FLAVORS:
        with pytest.raises(InvariantError) as err:
            prym_sign(other)
        assert err.value.invariant == "flavor"


def test_prym_flavors_and_json():
    t = MumfordTriple(parse_poly("-1,0,1"), Poly(), parse_poly("4,0,-5,0,1"),
                      ODD_PRYM)
    assert t.index == 1 and t.g == 2
    assert t.ambient().flavor == EVEN_MUMFORD
    assert MumfordTriple.from_json(t.to_json()) == t


def test_point_values_round_trip(rng):
    for flavor, g in ((ODD_MUMFORD, 2), (EVEN_MUMFORD, 2), (ODD_PRYM, 2),
                      (EVEN_PRYM, 1)):
        t = mumford_triple(rng, flavor, g)
        assert triple_from_values(flavor, g, point_values(t)) == t


# ---------------------------------------------------------------------------
# the bracket family
# ---------------------------------------------------------------------------

def test_bracket_example_odd_g1():
    table = mumford_bracket_table(ODD_MUMFORD, 1, ONE)
    assert table.entry(table.index("u0"), table.index("v0")) == 1


def test_uu_and_vv_vanish():
    table = mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly("1,1,1"))
    for i in range(2):
        for j in range(2):
            assert table.entry(table.index(f"u{i}"), table.index(f"u{j}")).is_zero()
            assert table.entry(table.index(f"v{i}"), table.index(f"v{j}")).is_zero()


def test_antisymmetry_at_random_points(rng):
    table = mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly("0,1"))
    assert not table.antisymmetry_defects()
    for _ in range(3):
        values = point_values(mumford_triple(rng, EVEN_MUMFORD, 2))
        matrix = table.at(values)
        n = len(matrix)
        assert all(matrix[i][j] + matrix[j][i] == 0
                   for i in range(n) for j in range(n))


def test_phi_preconditions():
    with pytest.raises(InvariantError):
        mumford_bracket_table(ODD_MUMFORD, 1, parse_poly("0,0,1"))  # deg > g
    with pytest.raises(InvariantError):
        mumford_bracket_table(ODD_MUMFORD, 1, Poly())  # zero


def test_phi_linearity():
    t1 = mumford_bracket_table(EVEN_MUMFORD, 2, ONE)
    tx = mumford_bracket_table(EVEN_MUMFORD, 2, X)
    t1x = mumford_bracket_table(EVEN_MUMFORD, 2, parse_poly("1,1"))
    summed = t1.add(tx)
    assert all((summed.entry(i, j) - t1x.entry(i, j)).is_zero()
               for i in range(summed.dim) for j in range(summed.dim))


def test_table_reassembles_generating_functions(rng):
    flavor, g = EVEN_MUMFORD, 2
    phi = parse_poly("1,0,1")
    table = mumford_bracket_table(flavor, g, phi)
    generators = bracket_generators(flavor, g, phi)
    point = mumford_triple(rng, flavor, g)
    values = point_values(point)
    coords = phase_coordinates(flavor, g)

    def assemble(fam_a, fam_b):
        grid = [[F(0)] * (point.g + 3) for _ in range(point.g + 3)]
        for i in range(point.g + 3):
            for j in range(point.g + 3):
                name_a, name_b = f"{fam_a}{i}", f"{fam_b}{j}"
                if name_a in coords.names and name_b in coords.names:
                    grid[i][j] = table.entry(coords.index(name_a),
                                             coords.index(name_b)).eval(values)
        return Poly([Poly(row) for row in grid])

    for (fam_a, fam_b), gen in generators.items():
        # gen is a Poly in x over Polys in x'; an int 0 row or entry stays 0
        numeric = Poly([Poly([c if isinstance(c, int) else c.eval(values) for c in row.coeffs])
                        if isinstance(row, Poly) else row for row in gen.coeffs])
        assert assemble(fam_a, fam_b) == numeric, (fam_a, fam_b)


def test_jacobi_quick():
    assert mumford_bracket_table(ODD_MUMFORD, 1, ONE).jacobi_holds()
    assert mumford_bracket_table(EVEN_MUMFORD, 1, X).jacobi_holds()


# ---------------------------------------------------------------------------
# momentum map
# ---------------------------------------------------------------------------

def test_momentum_examples(rng):
    t = MumfordTriple(parse_poly("-1,0,1"), Poly(), parse_poly("4,0,-5,0,1"),
                      ODD_PRYM)
    assert momentum(t) == parse_poly("-4,0,9,0,-6,0,1")
    s = mumford_triple(rng, ODD_MUMFORD, 2)
    s0 = MumfordTriple(s.u, Poly(), s.w, ODD_MUMFORD)
    assert momentum(s0) == s0.u * s0.w


def test_momentum_even_on_prym_flavors(rng):
    for flavor in (ODD_PRYM, EVEN_PRYM):
        t = mumford_triple(rng, flavor, 2)
        assert momentum(t).is_even()


def test_momentum_involution_symbolic():
    for flavor in MUMFORD_FLAVORS:
        for g, phis in ((1, ("1", "0,1")), (2, ("0,0,1",))):
            coords = phase_coordinates(flavor, g)
            H = momentum(coords)
            for phi_text in phis:
                table = mumford_bracket_table(flavor, g, parse_poly(phi_text))
                for a in range(H.degree + 1):
                    for b in range(a + 1, H.degree + 1):
                        assert table.poisson_bracket(H.coeff(a), H.coeff(b)).is_zero()


# ---------------------------------------------------------------------------
# Lax flows
# ---------------------------------------------------------------------------

def test_flow_conserves_momentum(rng):
    for flavor, g in ((ODD_MUMFORD, 1), (ODD_MUMFORD, 2), (EVEN_MUMFORD, 2)):
        point = mumford_triple(rng, flavor, g)
        for y in (F(2), F(-5, 3)):
            du, dv, dw = mumford_flow(point, y)
            assert (du * point.w + point.u * dw + 2 * point.v * dv).is_zero()
            assert du.degree < g


def test_flow_is_hamiltonian_for_the_family(rng):
    flavor, g = EVEN_MUMFORD, 2
    point = mumford_triple(rng, flavor, g)
    values = point_values(point)
    coords = phase_coordinates(flavor, g)
    H = momentum(coords)
    y = F(3, 2)
    du, dv, dw = mumford_flow(point, y)
    lax = [F(c) for c in flow_values(flavor, g, du, dv, dw)]
    for phi_text in ("1", "0,1"):
        phi = parse_poly(phi_text)
        table = mumford_bracket_table(flavor, g, phi)
        scale = F(1) / phi.evaluate(y)
        field = table.hamiltonian_field(H.evaluate(y), values)
        assert [scale * x for x in field] == lax, phi_text


def flow_commutator_symbolic(flavor, g, y1, y2):
    """[X_{y1}, X_{y2}] componentwise, as polynomials in the coordinates."""
    X = mumford_flow_symbolic(flavor, g, y1)
    Y = mumford_flow_symbolic(flavor, g, y2)
    out = []
    for k in range(len(X)):
        acc = MultiPoly(X[0].nvars)
        for l in range(len(X)):
            acc = acc + Y[k].diff(l) * X[l] - X[k].diff(l) * Y[l]
        out.append(acc)
    return out


def test_flow_fields_commute_symbolically():
    for flavor, g in ((ODD_MUMFORD, 1), (ODD_MUMFORD, 2), (EVEN_MUMFORD, 1),
                      (EVEN_MUMFORD, 2)):
        comm = flow_commutator_symbolic(flavor, g, F(2), F(5, 3))
        assert all(c.is_zero() for c in comm), (flavor, g)


def test_symbolic_flow_matches_numeric(rng):
    flavor, g = EVEN_MUMFORD, 2
    point = mumford_triple(rng, flavor, g)
    values = point_values(point)
    y = F(-7, 4)
    symbolic = mumford_flow_symbolic(flavor, g, y)
    du, dv, dw = mumford_flow(point, y)
    numeric = [F(c) for c in flow_values(flavor, g, du, dv, dw)]
    assert [c.eval(values) for c in symbolic] == numeric


def test_rank_is_2g(rng):
    for flavor, g in ((ODD_MUMFORD, 1), (ODD_MUMFORD, 2), (EVEN_MUMFORD, 2)):
        table = mumford_bracket_table(flavor, g, ONE)
        values = point_values(mumford_triple(rng, flavor, g))
        assert matrix_rank(table.at(values)) == 2 * g

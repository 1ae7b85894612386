"""Float integration lane: field agreement with the exact route,
conservation drift, convergence order, blow-up handling."""

import math
from fractions import Fraction as F

import pytest

from prymlab import numerics
from prymlab.algebra import Poly
from prymlab.errors import InvariantError
from prymlab.mumford import (EVEN_MUMFORD, EVEN_PRYM, ODD_MUMFORD, ODD_PRYM, flow_values,
                             momentum_symbolic, mumford_bracket_table, mumford_flow,
                             phase_coordinates, point_values, triple_from_values)
from prymlab.numerics import (_lattice_invariants, _mumford_rhs, _prym_rhs, _toda_rhs,
                              integrate, km_rhs)
from prymlab.prym import prym_bracket_table, prym_flow
from prymlab.sampling import km_point, mumford_triple, toda_point
from prymlab.toda import KMPoint, TodaPoint, char_coeffs, char_poly, km_field, toda_flow

REFERENCE = KMPoint((F(2), F(1, 2), F(1), F(1), F(1)))


def test_fixed_point_trajectory():
    traj = integrate("km", KMPoint((1, 1, 1, 1, 1)), None, 1.0, 0.01)
    assert all(abs(x - 1.0) < 1e-13 for x in traj.endpoint())
    assert not traj.truncated


def test_km_field_matches_exact(rng):
    point = km_point(rng, 6)
    exact = [float(x) for x in km_field(point.a)]
    numeric = km_rhs([float(x) for x in point.a])
    assert max(abs(a - b) for a, b in zip(exact, numeric)) < 1e-13


def test_toda_field_matches_exact(rng):
    point = toda_point(rng, 4)
    state = [float(x) for x in point.a] + [float(x) for x in point.b]
    for index in (1, 2, 3):
        da, db = toda_flow(point, index)
        exact = [float(x) for x in list(da) + list(db)]
        numeric = _toda_rhs(state, 4, index)
        assert max(abs(a - b) for a, b in zip(exact, numeric)) < 1e-9


def test_mumford_field_matches_exact(rng):
    point = mumford_triple(rng, EVEN_MUMFORD, 2)
    y = F(7, 10)
    du, dv, dw = mumford_flow(point, y)
    exact = [float(x) for x in flow_values(EVEN_MUMFORD, 2, du, dv, dw)]
    numeric = _mumford_rhs([float(x) for x in point_values(point)],
                           EVEN_MUMFORD, 2, float(y))
    assert max(abs(a - b) for a, b in zip(exact, numeric)) < 1e-8


def test_prym_field_matches_exact(rng):
    point = mumford_triple(rng, ODD_PRYM, 2)
    y = F(7, 10)
    du, dv, dw = prym_flow(point, y)
    exact = [float(x) for x in flow_values(ODD_PRYM, 2, du, dv, dw)]
    numeric = _prym_rhs([float(x) for x in point_values(point)],
                        ODD_PRYM, 2, float(y))
    assert max(abs(a - b) for a, b in zip(exact, numeric)) < 1e-8


def test_reference_run_drift():
    traj = integrate("km", REFERENCE, None, 10.0, 1e-3)
    assert not traj.truncated
    assert traj.drift["K"] <= 1e-8
    assert traj.drift["L"] <= 1e-8
    assert traj.drift["prod_a"] <= 1e-8


def test_even_n_products_drift():
    point = KMPoint((F(2), F(1, 2), F(3), F(1, 3)))
    traj = integrate("km", point, None, 5.0, 1e-3)
    assert traj.drift["P_odd"] <= 1e-8
    assert traj.drift["P_even"] <= 1e-8


def test_step_halving_is_fourth_order():
    ends = [integrate("km", REFERENCE, None, 10.0, h).endpoint()
            for h in (2e-2, 1e-2, 5e-3)]
    err1 = max(abs(a - b) for a, b in zip(ends[0], ends[1]))
    err2 = max(abs(a - b) for a, b in zip(ends[1], ends[2]))
    assert 12 <= err1 / err2 <= 20


def test_mumford_momentum_drift():
    point = __tame_mumford()
    traj = integrate("mumford", point, 0.3, 1.0, 1e-3)
    assert not traj.truncated
    assert max(traj.drift.values()) <= 1e-8


def __tame_mumford():
    from prymlab.mumford import triple_from_values
    values = [F(1, 3), F(-1, 4), F(1, 5), F(1, 6), F(-1, 3), F(1, 4),
              F(1, 8), F(-1, 5)]
    return triple_from_values(EVEN_MUMFORD, 2, values)


def test_flow_commutativity():
    point = __tame_mumford()
    y1, y2 = 0.5, -0.3

    def run(first, second):
        traj = integrate("mumford", point, first, 0.1, 1e-3)
        mid = triple_from_values(EVEN_MUMFORD, 2,
                                 [F(x).limit_denominator(10 ** 12)
                                  for x in traj.endpoint()])
        return integrate("mumford", mid, second, 0.1, 1e-3).endpoint()

    forward = run(y1, y2)
    backward = run(y2, y1)
    assert max(abs(a - b) for a, b in zip(forward, backward)) <= 1e-6


def test_blow_up_truncates():
    point = KMPoint((F(-2), F(-1, 2), F(1), F(1), F(1)))
    traj = integrate("km", point, None, 8.0, 1e-2)
    assert traj.truncated
    assert "overflow guard" in traj.note
    assert len(traj.times) < 801


def test_toda_drift_and_csv(rng, tmp_path):
    point = TodaPoint((F(2), F(1, 2), F(1), F(1)),
                      (F(1, 3), F(-1, 4), F(0), F(1, 5)))
    traj = integrate("toda", point, 1, 2.0, 1e-3)
    assert max(traj.drift.values()) <= 1e-8
    text = traj.csv()
    header = text.splitlines()[0].split(",")
    assert header[0] == "t" and "K0" in header and "prod_a" in header
    assert len(text.splitlines()) == len(traj.times) + 1
    summary = traj.drift_summary()
    assert summary["system"] == "toda" and not summary["truncated"]


def test_integrate_guards():
    with pytest.raises(InvariantError):
        integrate("km", REFERENCE, None, -1.0, 0.1)
    with pytest.raises(InvariantError):
        integrate("nonsense", REFERENCE, None, 1.0, 0.1)
    with pytest.raises(InvariantError):
        integrate("mumford", __prym_point(), 0.5, 1.0, 0.1)


def __prym_point():
    from prymlab.mumford import triple_from_values, _coord_layout
    u_s, v_s, w_s = _coord_layout(ODD_PRYM, 1)
    return triple_from_values(ODD_PRYM, 1,
                              [F(1, 2)] * (len(u_s) + len(v_s) + len(w_s)))


def test_toda_field_matches_exact_at_benchmark_size(rng):
    point = toda_point(rng, 10)
    da, db = toda_flow(point, 2)
    exact = [float(x) for x in da + db]
    numeric = _toda_rhs([float(x) for x in point.a] + [float(x) for x in point.b], 10, 2)
    scale = max(1.0, max(abs(x) for x in exact))
    assert max(abs(a - b) for a, b in zip(exact, numeric)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 10, 20])
def test_char_coeffs_float_match_exact_char_poly(rng, n):
    for point in (toda_point(rng, n), km_point(rng, n).embed()):
        exact = [float(c) for c in char_poly(point).coeffs]
        state = [float(x) for x in point.a] + [float(x) for x in point.b]
        numeric = [2.0 * c for c in char_coeffs(state[:n], state[n:], 0.0)]
        assert len(numeric) == len(exact) == n + 1
        assert all(type(c) is float for c in numeric)
        scale = max(abs(c) for c in exact)
        assert max(abs(a - b) for a, b in zip(exact, numeric)) <= 1e-12 * scale
        invariants = _lattice_invariants(state, n)
        assert [invariants[f"K{j}"] for j in range(n)] == numeric[:n]


@pytest.mark.parametrize("index", [0, 3, None])
def test_toda_index_outside_hierarchy(index):
    point = TodaPoint((F(2), F(1, 2), F(1)), (F(0), F(1), F(0)))
    with pytest.raises(InvariantError) as caught:
        integrate("toda", point, index, 1.0, 0.1)
    assert caught.value.invariant == "hierarchy-index"


@pytest.mark.parametrize("t_end, step", [(math.nan, 0.1), (math.inf, 0.1),
                                         (1.0, math.nan), (1.0, math.inf)])
def test_non_finite_times_rejected(t_end, step):
    with pytest.raises(InvariantError) as caught:
        integrate("km", REFERENCE, None, t_end, step)
    assert caught.value.invariant == "integration"


def test_step_count_capped(monkeypatch):
    with pytest.raises(InvariantError) as caught:
        integrate("km", REFERENCE, None, 1e9, 1e-9)
    assert caught.value.invariant == "step-count"
    monkeypatch.setattr(numerics, "MAX_STEPS", 50)
    assert len(integrate("km", REFERENCE, None, 1.0, 0.02).times) == 51
    with pytest.raises(InvariantError):
        integrate("km", REFERENCE, None, 1.0, 0.019)


def test_nan_state_truncates(monkeypatch):
    monkeypatch.setattr(numerics, "km_rhs", lambda a: [math.nan] * len(a))
    traj = integrate("km", REFERENCE, None, 1.0, 0.1)
    assert traj.truncated and traj.note == "state became NaN at step 1"
    assert len(traj.times) == 1


def test_drift_summary_says_why_a_run_stopped():
    blown = integrate("km", KMPoint((F(-2), F(-1, 2), F(1), F(1), F(1))), None, 8.0, 1e-2)
    summary = blown.drift_summary()
    assert summary["truncated"] and "overflow guard" in summary["note"]
    assert summary["steps_requested"] == 800 > summary["steps"]
    summary = integrate("km", REFERENCE, None, 1.0, 1e-2).drift_summary()
    assert summary["note"] == "" and summary["steps"] == summary["steps_requested"] == 100


def _hamiltonian_oracle(table, flavor, n, point, phi, y):
    """X_y from the bracket table: the Hamiltonian field of H(y), over phi(y)."""
    H = momentum_symbolic(phase_coordinates(flavor, n))
    field = table.hamiltonian_field(H.evaluate(y), point_values(point))
    return [float(x / phi.evaluate(y)) for x in field]


def _assert_close(numeric, oracle):
    assert len(numeric) == len(oracle)
    scale = max(1.0, max(abs(x) for x in oracle))
    assert max(abs(a - b) for a, b in zip(numeric, oracle)) <= 1e-12 * scale


@pytest.mark.parametrize("flavor, g", [(ODD_MUMFORD, 1), (ODD_MUMFORD, 2), (EVEN_MUMFORD, 2)])
def test_float_mumford_field_is_the_hamiltonian_field(rng, flavor, g):
    phi = Poly([F(1)])
    table = mumford_bracket_table(flavor, g, phi)
    for y in (F(7, 10), F(-3, 2)):
        point = mumford_triple(rng, flavor, g)
        numeric = _mumford_rhs([float(x) for x in point_values(point)], flavor, g, float(y))
        _assert_close(numeric, _hamiltonian_oracle(table, flavor, g, point, phi, y))


@pytest.mark.parametrize("flavor, n", [(ODD_PRYM, 1), (ODD_PRYM, 2), (EVEN_PRYM, 1)])
def test_float_prym_field_is_the_reduced_hamiltonian_field(rng, flavor, n):
    phi = Poly([F(1)]) if flavor == ODD_PRYM else Poly([F(0), F(1)])
    table = prym_bracket_table(flavor, n, phi)
    for y in (F(7, 10), F(-3, 2)):
        point = mumford_triple(rng, flavor, n)
        numeric = _prym_rhs([float(x) for x in point_values(point)], flavor, n, float(y))
        _assert_close(numeric, _hamiltonian_oracle(table, flavor, n, point, phi, y))

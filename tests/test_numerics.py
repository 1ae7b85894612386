"""Float integration lane: field agreement with the exact route,
conservation drift, convergence order, blow-up handling."""

import ast
import math
import re
from fractions import Fraction as F

import pytest
from dict_loop import char_coeffs_unskipped
from dict_loop import integrate as dict_loop_integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymlab import morphism, numerics
from prymlab.algebra import Poly
from prymlab.errors import BlowUpError, InvariantError
from prymlab.mumford import (EVEN_MUMFORD, EVEN_PRYM, ODD_MUMFORD, ODD_PRYM, MumfordTriple,
                             _slot_codec, degrees, flow_values, momentum, mumford_bracket_table,
                             mumford_flow, phase_coordinates, point_values, triple_from_values)
from prymlab.numerics import (_lattice_invariants, _momentum_invariants, _mumford_rhs,
                              _toda_rhs, endpoint, integrate)
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
    numeric = km_field([float(x) for x in point.a])
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
    numeric = _mumford_rhs(EVEN_MUMFORD, 2, float(y))([float(x) for x in point_values(point)])
    assert max(abs(a - b) for a, b in zip(exact, numeric)) < 1e-8


def test_prym_field_matches_exact(rng):
    point = mumford_triple(rng, ODD_PRYM, 2)
    y = F(7, 10)
    du, dv, dw = prym_flow(point, y)
    exact = [float(x) for x in flow_values(ODD_PRYM, 2, du, dv, dw)]
    numeric = _mumford_rhs(ODD_PRYM, 2, float(y))([float(x) for x in point_values(point)])
    assert max(abs(a - b) for a, b in zip(exact, numeric)) < 1e-8


def test_reference_run_drift():
    traj = integrate("km", REFERENCE, None, 10.0, 1e-3)
    assert not traj.truncated
    assert traj.drift["K1"] <= 1e-8  # 2L at n = 5
    assert traj.drift["K3"] <= 1e-8  # -2K at n = 5
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


@pytest.mark.parametrize("run", [integrate, endpoint])
@pytest.mark.parametrize("point", [REFERENCE.embed(), REFERENCE.a])
def test_km_runs_need_a_km_point(run, point):
    with pytest.raises(InvariantError) as err:
        run("km", point, None, 0.1, 0.01)
    assert err.value.invariant == "point-type"


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
        invariants = _lattice_invariants(n)(state)  # K0..K{n-1}, then prod_a
        assert invariants[:n] == numeric[:n]


BIG = F(10) ** 400
ODD_MUMFORD_POINT = {"flavor": ODD_MUMFORD, "u": "2,1", "v": "3", "w": "1,0,1"}
ODD_PRYM_POINT = {"flavor": ODD_PRYM, "u": "1,0,1", "v": "0,1", "w": "1,0,2,0,1"}


@pytest.mark.parametrize("system, point, selector, value", [
    ("km", KMPoint((BIG, 1 / BIG, F(1))), None, "1e+400"),
    ("toda", TodaPoint((F(1), F(1)), (-BIG, F(0))), 1, "-1e+400"),
    ("mumford", {**ODD_MUMFORD_POINT, "u": "-1e400,1"}, 1, "-1e+400"),
    ("prym", {**ODD_PRYM_POINT, "u": "1e400,0,1"}, 1, "1e+400"),
    ("mumford", ODD_MUMFORD_POINT, BIG, "1e+400"),
    ("prym", ODD_PRYM_POINT, -BIG, "-1e+400")])
def test_values_beyond_the_float_range_are_named(system, point, selector, value):
    # the start state of each system, then the Lax parameter y
    if isinstance(point, dict):
        point = MumfordTriple.from_json(point)
    with pytest.raises(InvariantError) as err:
        integrate(system, point, selector, 1.0, 0.1)
    assert err.value.invariant == "float-range"
    assert str(err.value) == f"{value} is beyond the float range"


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
    monkeypatch.setattr(numerics, "km_field", lambda a: [math.nan] * len(a))
    traj = integrate("km", REFERENCE, None, 1.0, 0.1)
    assert traj.truncated and traj.note == "state became NaN at step 1"
    assert len(traj.times) == 1


def test_drift_summary_says_why_a_run_stopped():
    blown = integrate("km", KMPoint((F(-2), F(-1, 2), F(1), F(1), F(1))), None, 8.0, 1e-2)
    summary = blown.drift_summary()
    assert summary["truncated"] and "overflow guard" in summary["note"]
    assert summary["steps_requested"] == 800 > summary["steps"]
    _assert_peaks(blown)
    run = integrate("km", REFERENCE, None, 1.0, 1e-2)
    summary = run.drift_summary()
    assert summary["note"] == "" and summary["steps"] == summary["steps_requested"] == 100
    _assert_peaks(run)


def _assert_peaks(traj):
    """Each integral's peak is the first step at which |value - value at
    t = 0| reaches its drift, with that step's time and the drift over
    max(1, |value at t = 0|)."""
    summary = traj.drift_summary()
    assert list(summary["peak"]) == list(summary["drift"]) == list(traj.conserved)
    assert any(peak["step"] > 0 for peak in summary["peak"].values())
    for name, peak in summary["peak"].items():
        column, d = traj.conserved[name], traj.drift[name]
        distances = [abs(x - column[0]) for x in column]
        step = peak["step"]
        assert max(distances) == d and all(x < d for x in distances[:step])
        assert distances[step] == d
        assert peak["t"] == traj.times[step]
        assert peak["relative_drift"] == d / max(1.0, abs(column[0]))


def _running_peak(column):
    """The peak as the step loop of the dict loop finds it: a running
    maximum of |value - value at t = 0| from 0.0, set only by a larger
    distance (a NaN one never), so ties keep the first step."""
    peak, step = 0.0, 0
    for i, x in enumerate(column[1:], start=1):
        d = abs(x - column[0])
        if d > peak:
            peak, step = d, i
    return peak, step


@pytest.mark.parametrize("column", [[1.0, math.nan, 3.0, 3.0, -1.0], [1.0, math.nan],
                                    [math.inf, math.inf, 1.0], [2.0, 2.0], [0.0, -0.0, 1e-300],
                                    [1.0, 3.0, math.inf, math.nan, math.inf]])
def test_peak_is_the_running_maximum_from_zero(column):
    """A NaN distance never sets a peak, and ties keep the first step."""
    assert numerics._peak(column) == _running_peak(column)


_peak_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@given(st.lists(_peak_entries, min_size=1, max_size=40))
@example([math.nan, 1.0, -2.0])
@example([math.inf, math.inf, -math.inf, 1.0])
@example([-math.inf, 3.0, -math.inf, math.inf])
@example([-0.0, 0.0, 5e-324, -5e-324])
@example([5e-324, math.nan, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
@settings(max_examples=400, deadline=None)
def test_peak_reads_the_running_maximum_off_the_extremes(column):
    """The drift read off max and min of the column is the running
    maximum's, bit for bit, and its step is the first that reaches it,
    whatever NaN, infinity, signed zero or subnormal the column holds,
    first entry included."""
    peak, step = numerics._peak(column)
    want, want_step = _running_peak(column)
    assert (peak.hex(), step) == (want.hex(), want_step)


def _hamiltonian_oracle(table, flavor, n, point, phi, y):
    """X_y from the bracket table: the Hamiltonian field of H(y), over phi(y)."""
    H = momentum(phase_coordinates(flavor, n))
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
        numeric = _mumford_rhs(flavor, g, float(y))([float(x) for x in point_values(point)])
        _assert_close(numeric, _hamiltonian_oracle(table, flavor, g, point, phi, y))


@pytest.mark.parametrize("flavor, n", [(ODD_PRYM, 1), (ODD_PRYM, 2), (EVEN_PRYM, 1)])
def test_float_prym_field_is_the_reduced_hamiltonian_field(rng, flavor, n):
    phi = Poly([F(1)]) if flavor == ODD_PRYM else Poly([F(0), F(1)])
    table = prym_bracket_table(flavor, n, phi)
    for y in (F(7, 10), F(-3, 2)):
        point = mumford_triple(rng, flavor, n)
        numeric = _mumford_rhs(flavor, n, float(y))([float(x) for x in point_values(point)])
        _assert_close(numeric, _hamiltonian_oracle(table, flavor, n, point, phi, y))


def _frozen(traj):
    """Every field of a trajectory, floats as float.hex, keys in order."""
    def hexes(xs):
        return [x.hex() for x in xs]
    return (traj.system, hexes(traj.times), [hexes(s) for s in traj.states],
            [(k, hexes(v)) for k, v in traj.conserved.items()],
            [(k, v.hex()) for k, v in traj.drift.items()], list(traj.peak_step.items()),
            traj.truncated, traj.note, traj.steps_requested)


ORACLE_RUNS = {
    "km-4": lambda rng: ("km", km_point(rng, 4), None, 3.0, 1e-2),
    "km-5": lambda rng: ("km", REFERENCE, None, 2.0, 1e-3),
    "km-6": lambda rng: ("km", km_point(rng, 6), None, 3.0, 1e-2),
    "km-20": lambda rng: ("km", km_point(rng, 20), None, 1.0, 5e-3),
    "km-truncating": lambda rng: ("km", KMPoint((F(-2), F(-1, 2), F(1), F(1), F(1))),
                                  None, 8.0, 1e-2),
    "toda-index-2": lambda rng: ("toda", toda_point(rng, 5), 2, 0.5, 1e-3),
    "odd-mumford": lambda rng: ("mumford", mumford_triple(rng, ODD_MUMFORD, 2), 0.3, 0.3, 1e-3),
    "even-mumford": lambda rng: ("mumford", mumford_triple(rng, EVEN_MUMFORD, 2), 0.3, 0.3, 1e-3),
    "even-mumford-phi": lambda rng: ("mumford", morphism.phi(toda_point(rng, 3), 3).triple,
                                     0.7, 1.0, 1e-3),
    "odd-prym": lambda rng: ("prym", mumford_triple(rng, ODD_PRYM, 2), 0.3, 0.3, 1e-3),
    "even-prym": lambda rng: ("prym", mumford_triple(rng, EVEN_PRYM, 1), -0.4, 0.3, 1e-3),
}


@pytest.mark.parametrize("run", ORACLE_RUNS)
def test_trajectory_matches_the_dict_loop_bit_for_bit(rng, run):
    """times, states, integrals (names and order), drifts, peak steps,
    truncation and note agree with the per-step dict loop under float.hex."""
    args = ORACLE_RUNS[run](rng)
    traj = integrate(*args)
    assert _frozen(traj) == _frozen(dict_loop_integrate(*args))
    assert traj.truncated == (run == "km-truncating")
    assert len(traj.times) == len(traj.states) == len(next(iter(traj.conserved.values())))


@pytest.mark.parametrize("run", [run for run in ORACLE_RUNS if run != "km-truncating"])
def test_endpoint_is_the_last_state_of_integrate_bit_for_bit(rng, run):
    args = ORACLE_RUNS[run](rng)
    want = integrate(*args).endpoint()
    assert [x.hex() for x in endpoint(*args)] == [x.hex() for x in want]


def test_endpoint_samples_no_integral(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("an integral was sampled")

    monkeypatch.setattr(numerics, "char_coeffs", refuse)
    monkeypatch.setattr(numerics, "_product", refuse)  # the momentum monitor's products
    for run in ("km-5", "toda-index-2", "even-mumford", "odd-prym"):
        endpoint(*ORACLE_RUNS[run](rng))


@pytest.mark.parametrize("field, note", [
    (None, "state exceeded overflow guard at step "),
    (lambda a: [math.nan] * len(a), "state became NaN at step 1")])
def test_endpoint_raises_where_integrate_truncates(monkeypatch, field, note):
    if field is not None:
        monkeypatch.setattr(numerics, "km_field", field)
    args = ("km", KMPoint((F(-2), F(-1, 2), F(1), F(1), F(1))), None, 8.0, 1e-2)
    traj = integrate(*args)
    assert traj.truncated and traj.note.startswith(note)
    with pytest.raises(BlowUpError) as err:
        endpoint(*args)
    assert err.value.invariant == "blow-up" and err.value.note == traj.note
    assert str(err.value) == f"{traj.note} of the run with step size 0.01"


@pytest.mark.parametrize("args", [
    ("km", REFERENCE, None, math.nan, 0.1), ("km", REFERENCE, None, 1e9, 1e-9),
    ("nonsense", REFERENCE, None, 1.0, 0.1), ("km", KMPoint(()), None, 1.0, 0.1),
    ("toda", TodaPoint((F(2), F(1, 2), F(1)), (F(0), F(1), F(0))), 3, 1.0, 0.1),
    ("prym", MumfordTriple.from_json(ODD_PRYM_POINT), -BIG, 1.0, 0.1)])
def test_endpoint_checks_its_arguments_as_integrate_does(args):
    with pytest.raises(InvariantError) as want:
        integrate(*args)
    with pytest.raises(InvariantError) as got:
        endpoint(*args)
    assert (got.value.invariant, str(got.value)) == (want.value.invariant, str(want.value))


@pytest.mark.parametrize("n", range(1, 13))
def test_char_coeffs_zero_b_skip_is_bit_identical(rng, n):
    """Skipping the b-pass at b_k == 0 changes no bit, signs of zero
    included, also where exact cancellations leave zero coefficients."""
    def draw():
        if rng.random() < 0.5:
            return rng.choice((1.0, -1.0, 2.0, 0.5, -0.5))
        return rng.choice((-1, 1)) * rng.uniform(0.1, 10) * 10.0 ** rng.randint(-3, 3)

    for _ in range(30):
        a = [draw() for _ in range(n)]
        for b in ([0.0] * n, [-0.0] * n,
                  [rng.choice((0.0, -0.0, draw())) for _ in range(n)]):
            got = [c.hex() for c in char_coeffs(a, b, 0.0)]
            assert got == [c.hex() for c in char_coeffs_unskipped(a, b, 0.0)]


FLAVORS = (ODD_MUMFORD, EVEN_MUMFORD, ODD_PRYM, EVEN_PRYM)
# integrate passes the monitor any finite state: the start state is any
# finite float vector, and every later state lies inside BLOWUP_GUARD
_specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300]
_finite = st.one_of(st.sampled_from(_specials), st.floats(allow_nan=False, allow_infinity=False))


def _width(flavor, g):
    return len(phase_coordinates(flavor, g).names)


@st.composite
def _codec_states(draw):
    flavor, g = draw(st.sampled_from(FLAVORS)), draw(st.integers(0, 4))
    width = _width(flavor, g)
    return flavor, g, draw(st.lists(_finite, min_size=width, max_size=width))


def _poly_momentum(flavor, g, state):
    """Poly(u) * Poly(w) + Poly(v) * Poly(v) on the lists of a state, as floats."""
    u, v, w = map(Poly, _slot_codec(flavor, g)[0](state, 0.0, 1.0))
    return [float(c) for c in (u * w + v * v).coeffs]


def _hexes(values):
    assert all(type(c) is float for c in values)
    return [c.hex() for c in values]


@given(_codec_states())
@example((ODD_MUMFORD, 1, [1.0, 1.0, -1.0, 0.0]))  # u0 w0 + v0^2 cancels exactly
@example((EVEN_MUMFORD, 1, [1e300, -0.0, 1e300, -1e300, 0.0]))  # inf beside a -0.0 top of v
@example((ODD_MUMFORD, 2, [0.0, -0.0, 1e300, -0.0, 5e-324, 1.0, -1e300]))
@example((ODD_PRYM, 1, [-0.0, -0.0, 5e-324, 1e300]))
@settings(max_examples=300, deadline=None)
def test_momentum_invariants_are_the_poly_expression_bit_for_bit(case):
    """The shape monitor gives the floats of Poly(u) * Poly(w) + Poly(v) *
    Poly(v), which trims and skips zeros by value, signs of zero included,
    run as it is and traced, and leaves the state as it was."""
    flavor, g, state = case
    monitor = _momentum_invariants(flavor, g, len(state))
    before = state[:]
    want = _hexes(_poly_momentum(flavor, g, state))
    assert _hexes(monitor(state)) == want
    assert _hexes(numerics._traced(monitor, len(state))(state)) == want
    assert state == before


@pytest.mark.parametrize("g", range(5))
@pytest.mark.parametrize("flavor", FLAVORS)
def test_shape_monitor_is_the_poly_expression_on_every_phase_space(rng, flavor, g):
    """One value per name H0..H{deg u + deg w}, bit for bit the Poly
    expression, untraced and traced, on states with signed zeros (at the
    top of v too), subnormals, overflowing products and, from draws of
    +-1 and +-2, exact cancellations."""
    width = _width(flavor, g)
    monitor = _momentum_invariants(flavor, g, width)
    traced = numerics._traced(monitor, width)
    deg_u, deg_w = degrees(flavor, g)
    states = [[-0.0] * width, [5e-324] * width, [-1e300] * width]
    lists, read = _slot_codec(flavor, g)
    u, v, w = lists([1.0] * width, 0.0, 1.0)
    if v:
        states.append(read(u, v[:-1] + [-0.0], w))  # a -0.0 top of v
    draws = _specials + [2.0, -2.0]
    states += [[rng.choice(draws) if rng.random() < 0.7 else rng.uniform(-3, 3)
                for _ in range(width)] for _ in range(60)]
    for state in states:
        want = _hexes(_poly_momentum(flavor, g, state))
        assert len(want) == deg_u + deg_w + 1
        assert _hexes(monitor(state)) == _hexes(traced(state)) == want


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("flavor", [ODD_PRYM, EVEN_PRYM])
def test_prym_monitors_run_no_operation_on_a_constant_zero(rng, flavor, n):
    """The traced Prym monitor skips the columns of w and v that are
    constant zeros by shape: no operation reads a 0.0 constant, and the
    odd slots, where u w + v^2 vanishes on the Prym space, return the
    constant 0.0 itself (the int 0 that starts each sum stays: it turns
    a -0.0 first term into 0.0).  Its runs match the dict loop bit for
    bit."""
    width = _width(flavor, n)
    source, constants = numerics._emit(_momentum_invariants(flavor, n, width), width)
    zeros = {name for name, c in constants.items() if type(c) is float and c == 0}
    tree = ast.parse(source)
    operands = {child.id for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.UnaryOp))
                for child in ast.iter_child_nodes(node) if isinstance(child, ast.Name)}
    assert zeros and not operands & zeros
    returned = tree.body[0].body[-1].value.elts
    assert [k for k, x in enumerate(returned) if isinstance(x, ast.Name) and x.id in zeros] \
        == list(range(1, len(returned), 2))
    args = ("prym", mumford_triple(rng, flavor, n), 0.3, 0.05, 1e-3)
    assert _frozen(integrate(*args)) == _frozen(dict_loop_integrate(*args))


@pytest.mark.parametrize("system, flavor, g", [("mumford", EVEN_MUMFORD, 2), ("prym", ODD_PRYM, 2)])
def test_momentum_runs_build_no_poly(rng, monkeypatch, system, flavor, g):
    """The step loop of a Mumford or Prym run builds no Poly: the fields and
    the momentum monitor work on coefficient lists."""
    point = mumford_triple(rng, flavor, g)
    built = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    traj = integrate(system, point, 0.3, 0.05, 1e-3)
    assert len(traj.times) == 51 and not built


# ---------------------------------------------------------------------------
# the traced lane: the step and the monitor as compiled straight-line code
# ---------------------------------------------------------------------------

def _watch_traces(monkeypatch) -> list:
    """What each numerics._traced call of the runs that follow returns, in
    call order (integrate traces its monitor, then the step); None where
    the trace gave up and the run stays on the kernel."""
    got, traced = [], numerics._traced
    monkeypatch.setattr(numerics, "_traced", lambda fn, width: got.append(traced(fn, width))
                        or got[-1])
    return got


def test_a_field_that_branches_on_a_value_falls_back(rng, monkeypatch):
    def branching(a):  # the KM field, through a branch on each value (NaN takes the else)
        return [d if abs(d) >= 0 else d for d in km_field(a)]

    monkeypatch.setattr(numerics, "km_field", branching)
    args = ORACLE_RUNS["km-6"](rng)
    traces = _watch_traces(monkeypatch)
    traj = integrate(*args)
    assert traces[0] is not None and traces[1] is None  # the monitor traced, the step did not
    assert _frozen(traj) == _frozen(dict_loop_integrate(*args))
    assert [x.hex() for x in endpoint(*args)] == [x.hex() for x in traj.endpoint()]


@pytest.mark.parametrize("y", [-0.0, 5e-324, 1e300])
@pytest.mark.parametrize("system, flavor, g", [
    ("mumford", ODD_MUMFORD, 2), ("mumford", EVEN_MUMFORD, 2),
    ("prym", ODD_PRYM, 2), ("prym", EVEN_PRYM, 1)])
def test_traced_momentum_runs_match_the_dict_loop_at_extreme_y(rng, monkeypatch,
                                                               system, flavor, g, y):
    """y reaches the compiled step as an object, so its sign and its
    subnormal or huge magnitude survive; at y = 1e300 both runs leave the
    guard at the same step."""
    args = (system, mumford_triple(rng, flavor, g), y, 0.05, 1e-3)
    traces = _watch_traces(monkeypatch)
    traj = integrate(*args)
    assert traces[0] is not None and traces[1] is not None  # the monitor and the step trace
    assert _frozen(traj) == _frozen(dict_loop_integrate(*args))
    assert traj.truncated == (y == 1e300)


TRACED_RUNS = ([("km", None, n) for n in (1, 5, 20)]
               + [("prym" if flavor in (ODD_PRYM, EVEN_PRYM) else "mumford", flavor, g)
                  for flavor in FLAVORS for g in range(5)])


@pytest.mark.parametrize("system, flavor, size", TRACED_RUNS)
def test_steps_and_monitors_trace(rng, monkeypatch, system, flavor, size):
    """The KM runs and every Mumford and Prym run compile both their
    monitor and their step: a value comparison that sends either back to
    the kernel fails here, not only as a slower benchmark."""
    if system == "km":
        args = ("km", km_point(rng, size), None, 2e-3, 1e-3)
    else:
        args = (system, mumford_triple(rng, flavor, size), 0.3, 2e-3, 1e-3)
    traces = _watch_traces(monkeypatch)
    integrate(*args)
    assert len(traces) == 2 and None not in traces


@pytest.mark.parametrize("system, monitor", [("km", "_lattice_invariants"),
                                             ("prym", "_momentum_invariants")])
@pytest.mark.parametrize("change", [-1, 1])
def test_a_monitor_gives_one_value_per_name(rng, monkeypatch, system, monitor, change):
    """integrate checks once, at t = 0, that the monitor gives exactly one
    value per integral name, so no column is dropped or left unnamed."""
    point = REFERENCE if system == "km" else mumford_triple(rng, ODD_PRYM, 2)
    args = (system, point, 0.3, 0.01, 1e-3)
    names = len(integrate(*args).conserved)
    build = getattr(numerics, monitor)

    def resized(*spec, **options):
        invariants = build(*spec, **options)
        return lambda s: (invariants(s) + [s[0]])[:names + change]

    monkeypatch.setattr(numerics, monitor, resized)
    with pytest.raises(InvariantError) as err:
        integrate(*args)
    assert err.value.invariant == "monitor"
    assert str(err.value) == f"the monitor gave {names + change} values for {names} integrals"
    endpoint(*args)  # samples no integral


def test_a_nan_field_runs_traced(monkeypatch):
    """The NaN field of test_endpoint_raises_where_integrate_truncates runs
    as compiled code: its constant outputs reach the step as objects."""
    monkeypatch.setattr(numerics, "km_field", lambda a: [math.nan] * len(a))
    traces = _watch_traces(monkeypatch)
    with pytest.raises(BlowUpError) as err:
        endpoint("km", REFERENCE, None, 1.0, 0.1)
    assert traces[0] is not None and err.value.note == "state became NaN at step 1"


def test_a_trace_past_the_cap_falls_back(rng, monkeypatch):
    point = toda_point(rng, 12)
    rhs = lambda s: numerics._toda_rhs(s, 12, 11)
    with pytest.raises(numerics._Refused, match=f"passes {numerics.MAX_TRACE_OPS} operations"):
        numerics._emit(lambda x: numerics._rk4_step(rhs, x, 1e-3), 24)
    args = ("toda", point, 11, 0.005, 1e-3)
    traces = _watch_traces(monkeypatch)
    traj = integrate(*args)
    assert traces == [None, None]  # the Toda monitor compares b with 0
    assert _frozen(traj) == _frozen(dict_loop_integrate(*args))


@pytest.mark.parametrize("read", [
    lambda x: x == 1.0, lambda x: 1.0 != x, lambda x: x < 1.0, lambda x: 0 >= x,
    bool, abs, float, hash], ids=["==", "!=", "<", ">=", "bool", "abs", "float", "hash"])
def test_the_recorder_refuses_to_read_a_value(read):
    x = numerics._Tape().value()
    with pytest.raises(numerics._Refused):
        read(x)


def test_recorded_operations_keep_their_operands_and_order():
    """Reflected operations keep the constant on the left, an operation on
    two constants runs while tracing, a value read once is written in
    parentheses into its reader, and the compiled code gives the bits of
    the function run on floats, signed zeros, infinities and NaN included;
    a constant of another type is not recorded."""
    def fn(s):
        x, y = s
        return [1.0 - x, x / 2, -y, 0.0 * x, (0.5 * 3.0) * y, x + y * x, 2.0]

    source, constants = numerics._emit(fn, 2)
    assert source.splitlines()[1:] == [
        "    [r0, r1] = s",
        "    return [(c0 - r0), (r0 / c1), (-r1), (c2 * r0), (c3 * r1), (r0 + (r1 * r0)), c4]"]
    assert list(map(repr, constants.values())) == ["1.0", "2", "0.0", "1.5", "2.0"]
    compiled = numerics._traced(fn, 2)
    for s in ([-0.0, 0.0], [math.inf, -math.inf], [math.nan, 5e-324], [1e308, -3.0]):
        assert [v.hex() for v in compiled(s)] == [v.hex() for v in fn(s)]
    with pytest.raises(TypeError):
        numerics._Tape().value() + F(1)


def test_a_product_with_the_constant_one_records_nothing():
    """x * 1 and 1 * x, with 1 a float or an int, are x itself and leave the
    tape empty, which keeps every bit; True is not a constant, and 1.5 or
    -1.0 is recorded."""
    tape = numerics._Tape()
    x = tape.value()
    assert all(y is x for y in (x * 1, 1 * x, x * 1.0, 1.0 * x)) and tape.ops == []
    with pytest.raises(TypeError):
        x * True
    assert x * 1.5 is not x and -1.0 * x is not x
    assert [op for _, op, _ in tape.ops] == ["*", "*"]
    fn = lambda s: [s[0] * 1, 1.0 * s[1], (s[0] + s[1]) * 1.0]
    source, constants = numerics._emit(fn, 2)
    assert source.splitlines()[1:] == ["    [r0, r1] = s", "    return [r0, r1, (r0 + r1)]"]
    assert constants == {}
    compiled = numerics._traced(fn, 2)
    for s in ([-0.0, 0.0], [math.inf, -math.inf], [math.nan, 5e-324], [1e308, -3.0]):
        assert [v.hex() for v in compiled(s)] == [v.hex() for v in fn(s)]


@pytest.mark.parametrize("fn, width, ops", [
    (_lattice_invariants(20, km=True), 20, 419),
    (lambda x: numerics._rk4_step(_mumford_rhs(ODD_PRYM, 2, 0.3), x, 1e-3),
     _width(ODD_PRYM, 2), 503),
    (lambda x: numerics._rk4_step(_mumford_rhs(EVEN_MUMFORD, 2, 0.3), x, 1e-3),
     _width(EVEN_MUMFORD, 2), 400)],
    ids=["km-20-monitor", "odd-prym-2-step", "even-mumford-2-step"])
def test_traced_runs_multiply_by_no_constant_one(fn, width, ops):
    """The KM n = 20 monitor, an odd Prym n = 2 step and an even Mumford
    g = 2 step recorded 40, 28 and 32 products with the constant 1 (of
    459, 531 and 432 operations) before such products were skipped."""
    tape = numerics._Tape()
    fn([tape.value() for _ in range(width)])
    ones = {name for name, c in tape.constants.items() if type(c) in (float, int) and c == 1}
    assert len(tape.ops) == ops
    assert not any(op == "*" and {left, right} & ones for left, op, right in tape.ops)


def test_a_local_is_taken_again_once_its_value_is_read_for_the_last_time():
    """A chain of 50 squarings, each value read twice, runs in one local,
    and each kept state value in its own; a value read once by the return
    is written into it."""
    def chain(s):
        x = s[0]
        for _ in range(50):
            x = x * x
        return [x]

    source, _ = numerics._emit(chain, 1)
    assert set(re.findall(r"r[0-9]+", source)) == {"r0"}
    assert source.count("    r0 = r0 * r0\n") == 49 and source.endswith("return [(r0 * r0)]\n")
    source, _ = numerics._emit(lambda s: [s[0] * s[1], s[1], s[0]], 2)
    assert source.splitlines()[1:] == ["    [r0, r1] = s", "    return [(r0 * r1), r1, r0]"]


def test_a_local_read_inside_an_inlined_expression_lives_until_that_statement():
    """Liveness is counted where the reading expression is written: the
    input x, read by the inlined x + 1.0, keeps its local until the return
    that writes it, so the squares recorded in between do not take it."""
    def fn(s):
        x, y = s
        t = x + 1.0  # read once, by the last product: inlined there
        z = y * y
        z = z * z
        return [t * z, z]

    source, _ = numerics._emit(fn, 2)
    assert source.splitlines()[1:] == ["    [r0, r1] = s", "    r1 = r1 * r1",
                                       "    r1 = r1 * r1", "    return [((r0 + c0) * r1), r1]"]
    for s in ([1.5, -2.0], [-0.0, math.nan]):
        assert [v.hex() for v in numerics._traced(fn, 2)(s)] == [v.hex() for v in fn(s)]


def _paren_depth(source) -> int:
    depth = deepest = 0
    for ch in source:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


def test_a_chain_one_short_of_the_cap_compiles_and_matches():
    """MAX_TRACE_OPS - 1 single-use additions trace, nest at most
    MAX_NESTING parentheses deep, compile and give fn's bits."""
    def chain(s):
        x = s[0]
        for k in range(numerics.MAX_TRACE_OPS - 1):
            x = x + (1.0 if k % 2 else 5e-324)
        return [x]

    source, _ = numerics._emit(chain, 1)
    assert source.count(" + c") == numerics.MAX_TRACE_OPS - 1
    assert _paren_depth(source) == numerics.MAX_NESTING
    compiled = numerics._traced(chain, 1)
    for s in ([0.25], [-0.0], [math.inf], [math.nan], [-1e308]):
        assert [v.hex() for v in compiled(s)] == [v.hex() for v in chain(s)]


_ARITHMETIC = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y,
               "/": lambda x, y: x / y, "neg": lambda x, y: -y}
_tape_specials = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1.5, -3.0]
_tape_constants = st.one_of(st.sampled_from(_tape_specials + [0, 2]), st.floats())
# an operand: ("v", k) reads value k mod the number of values so far, ("c", x) a constant
_tape_operands = st.one_of(st.tuples(st.just("v"), st.integers(0, 999)),
                           st.tuples(st.just("c"), _tape_constants))


@st.composite
def _tapes(draw):
    width = draw(st.integers(2, 4))
    state = draw(st.lists(st.one_of(st.sampled_from(_tape_specials), st.floats()),
                          min_size=width, max_size=width))
    program = draw(st.lists(st.tuples(st.sampled_from(sorted(_ARITHMETIC)), _tape_operands,
                                      _tape_operands), max_size=40))
    outputs = draw(st.lists(_tape_operands, min_size=1, max_size=6))
    return width, state, program, outputs


def _tape_function(program, outputs):
    """The function that runs `program` on any scalar type."""
    def fn(s):
        values = list(s)
        read = lambda ref: values[ref[1] % len(values)] if ref[0] == "v" else ref[1]
        for op, left, right in program:
            values.append(_ARITHMETIC[op](read(left), read(right)))
        return [read(ref) for ref in outputs]
    return fn


def _bits_or_error(fn, state):
    try:
        return [(type(x), x.hex() if type(x) is float else x) for x in fn(state)]
    except ZeroDivisionError as exc:
        return repr(exc)


@given(_tapes())
@example((2, [1.0, 0.0], [("/", ("v", 0), ("v", 1))], [("v", 2)]))  # a division by a zero input
@example((3, [-0.0, math.nan, math.inf], [("*", ("v", 0), ("v", 1)), ("neg", ("v", 0), ("v", 3)),
                                          ("/", ("c", 5e-324), ("v", 0))],
          [("v", 4), ("v", 5), ("c", -0.0)]))
@settings(max_examples=300, deadline=None)
def test_random_tapes_compile_to_the_bits_of_fn(case):
    """Any straight-line float function compiles to its own bits, or to its
    own ZeroDivisionError; a division by a zero constant raised while
    tracing gives up the trace, and fn raises it on floats too."""
    width, state, program, outputs = case
    fn = _tape_function(program, outputs)
    want = _bits_or_error(fn, state)
    compiled = numerics._traced(fn, width)
    if compiled is None:
        assert type(want) is str  # fn raises its ZeroDivisionError on floats too
    else:
        assert _bits_or_error(compiled, state) == want

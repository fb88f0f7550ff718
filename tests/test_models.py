import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from pulsefield import (Curvature, ModelError, Monotonicity, classify_monotonicity,
                        homoclinic_model, lif_model, tabulated_model)
from pulsefield.models import hermite, load_field_table, pchip

TWO_PI = 2.0 * math.pi
S, GAMMA = 2.1, 2.0
QUAD_TOL = 1e-12

# closed form for the standard LIF regime: omega = 2*pi*gamma/log(S/(S-gamma))
OMEGA_LIF = 4.127534242695819


def test_natural_frequency_constant_field():
    # constant integrand: omega = 2*pi*c exactly
    for c in (0.5, 1.0, 3.7):
        om = tabulated_model(lambda x, c=c: c, x_lo=0.0, x_hi=1.0).omega
        assert abs(om - TWO_PI * c) < 1e-10


def test_natural_frequency_lif_closed_form(lif):
    assert abs(lif.omega - OMEGA_LIF) < 1e-12
    # quadrature route must agree with the logarithm formula
    om_quad = tabulated_model(lambda x: S - GAMMA * x, x_lo=0.0, x_hi=1.0).omega
    assert abs(om_quad - OMEGA_LIF) < 1e-10


def test_natural_frequency_general_affine_vs_quadrature():
    for s, g, lo, hi in ((3.0, 1.0, 0.0, 2.0), (1.2, -0.5, 0.0, 1.0)):
        closed = TWO_PI * g / math.log((s - g * lo) / (s - g * hi))
        assert abs(lif_model(s, g, lo, hi).omega - closed) < 1e-10
        om = tabulated_model(lambda x: s - g * x, x_lo=lo, x_hi=hi).omega
        assert abs(om - closed) < 1e-10


def test_nonpositive_field_rejected():
    with pytest.raises(ModelError):
        tabulated_model(lambda x: 1.0 - x, x_lo=0.0, x_hi=1.0)   # hits zero at x=1
    with pytest.raises(ModelError):
        lif_model(2.0, 2.0)                              # S - gamma*x_hi = 0
    with pytest.raises(ModelError):
        tabulated_model(np.array([0.0, 0.5, 1.0]), np.array([1.0, -0.1, 1.0]))


def test_phase_of_state_endpoints(lif, lif_tab):
    for m in (lif, lif_tab):
        assert m.phase_of_state(m.x_lo) == 0.0
        assert abs(m.phase_of_state(m.x_hi) - TWO_PI) < 1e-10


def test_phase_of_state_midpoint_against_quadrature(lif):
    # oracle: adaptive quadrature of omega * integral dx/F from 0 to 0.5
    oracle = lif.omega * quad(lambda s: 1.0 / (S - GAMMA * s), 0.0, 0.5,
                              epsabs=1e-14, epsrel=1e-13)[0]
    assert abs(oracle - 1.3344878827427353) < 1e-12   # frozen from the oracle
    assert abs(lif.phase_of_state(0.5) - oracle) < 1e-10


def test_phase_of_state_domain_error(lif):
    with pytest.raises(ModelError):
        lif.phase_of_state(-0.1)
    with pytest.raises(ModelError):
        lif.phase_of_state(1.2)


def test_state_of_phase_endpoints(lif, lif_tab):
    for m in (lif, lif_tab):
        assert m.state_of_phase(0.0) == m.x_lo
        assert m.state_of_phase(TWO_PI) == m.x_hi


def test_state_of_phase_bisection_residual(lif):
    x = lif.state_of_phase(math.pi)
    assert abs(lif.phase_of_state(x) - math.pi) < 1e-10


@pytest.mark.parametrize("model_name", ["lif", "lif_tab"])
def test_phase_state_round_trip(model_name, request):
    m = request.getfixturevalue(model_name)
    theta = np.linspace(0.0, TWO_PI, 1000)
    back = m.phase_of_state(m.state_of_phase(theta))
    assert np.max(np.abs(back - theta)) < 1e-9


def _bisect_state(m, theta):
    # reference inverse: 64-step bisection on the monotone phase map
    lo = np.full_like(theta, m.x_lo)
    hi = np.full_like(theta, m.x_hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        too_low = m.phase_of_state(mid) < theta
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


def test_tabulated_state_of_phase_matches_bisection(lif_tab):
    rising = tabulated_model(lambda x: 1.0 + x, x_lo=0.0, x_hi=1.0)
    theta = np.linspace(0.0, TWO_PI, 777)[1:-1]
    for m in (lif_tab, rising):
        assert np.max(np.abs(m.state_of_phase(theta) - _bisect_state(m, theta))) < 1e-12


def test_prc_constant_field_is_two_pi():
    m = tabulated_model(lambda x: 1.7, x_lo=0.0, x_hi=1.0)
    theta = np.linspace(0.0, TWO_PI, 101)
    assert np.max(np.abs(m.prc(theta) - TWO_PI)) < 1e-9


def test_prc_lif_values(lif):
    assert abs(lif.prc(0.0) - OMEGA_LIF / S) < 1e-12
    assert abs(lif.prc(0.0) - 1.9654924965218183) < 1e-12
    # exponential form versus the omega/F(x(theta)) composition
    theta = np.linspace(0.0, TWO_PI, 257)
    composed = lif.omega / (S - GAMMA * np.asarray(lif.state_of_phase(theta)))
    assert np.max(np.abs(lif.prc(theta) / composed - 1.0)) < 1e-8


def test_prc_field_identity(lif, lif_tab):
    # Z(theta) * F(x(theta)) = omega on a dense grid
    theta = np.linspace(0.0, TWO_PI, 513)
    for m in (lif, lif_tab):
        x = np.asarray(m.state_of_phase(theta))
        resid = m.prc(theta) * m.F(x) / m.omega - 1.0
        assert np.max(np.abs(resid)) < 1e-8


def test_tabulated_matches_closed_form_prc(lif, lif_tab):
    theta = np.linspace(0.0, TWO_PI, 1001)
    rel = np.abs(lif_tab.prc(theta) / lif.prc(theta) - 1.0)
    assert np.max(rel) < 1e-8
    assert abs(lif_tab.omega - lif.omega) < 1e-10


def test_prc_derivative_sign_opposite_to_field_slope(lif):
    # decreasing F => increasing Z
    theta = np.linspace(0.01, TWO_PI - 0.01, 301)
    assert np.all(lif.prc_deriv(theta) > 0.0)
    # increasing F => decreasing Z
    m = tabulated_model(lambda x: 1.0 + x, x_lo=0.0, x_hi=1.0)
    assert np.all(m.prc_deriv(theta) < 0.0)
    assert m.monotonicity is Monotonicity.DECREASING


def test_homoclinic_closed_form_values():
    C, lam_u, omega = 1.0, 1.0, TWO_PI
    m = homoclinic_model(C, lam_u, omega)
    assert abs(m.prc(0.0) - C * omega * math.exp(TWO_PI * lam_u / omega)) < 1e-12
    ratio = m.prc(TWO_PI) / m.prc(0.0)
    assert abs(ratio - math.exp(-TWO_PI * lam_u / omega)) < 1e-12
    # frozen: 2*pi * e * e^{-1/2}
    assert abs(m.prc(math.pi) - 10.359221263697503) < 1e-10


def test_homoclinic_curvature_by_finite_differences():
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    th = np.linspace(0.0, TWO_PI, 2001)
    z = m.prc(th)
    h = th[1] - th[0]
    z2 = (z[2:] - 2 * z[1:-1] + z[:-2]) / h**2
    assert np.all(z2 > 0.0)
    assert m.monotonicity is Monotonicity.DECREASING
    assert m.curvature is Curvature.NONNEGATIVE


def test_homoclinic_rejects_bad_parameters():
    for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ModelError):
            homoclinic_model(*bad)


def test_homoclinic_has_no_phase_map():
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    with pytest.raises(ModelError):
        m.phase_of_state(0.5)
    with pytest.raises(ModelError):
        m.state_of_phase(1.0)


def test_classification_lif(lif, lif_tab):
    for m in (lif, lif_tab):
        assert m.monotonicity is Monotonicity.INCREASING
        assert m.curvature is Curvature.NONNEGATIVE


def test_classification_constant_prc():
    m = tabulated_model(lambda x: 2.0, x_lo=0.0, x_hi=1.0)
    cls = classify_monotonicity(m)
    assert cls.monotonicity is Monotonicity.NEUTRAL
    # flat curvature satisfies both sign classes
    assert cls.curvature_nonneg and cls.curvature_nonpos


def test_kz_prime_extrema(lif):
    lo, hi = lif.kz_prime_extrema(-0.1)
    # Z' = (gamma/omega) Z, extremes at the endpoints
    z0 = (GAMMA / lif.omega) * lif.prc(0.0)
    z1 = (GAMMA / lif.omega) * lif.prc(TWO_PI)
    assert abs(lo - (-0.1) * z1) < 1e-10
    assert abs(hi - (-0.1) * z0) < 1e-10
    assert lif.kz_prime_extrema(0.0) == (0.0, 0.0)


def test_field_table_loader(tmp_path):
    p = tmp_path / "field.csv"
    xs = np.linspace(0.0, 1.0, 64)
    p.write_text("x,F\n" + "\n".join(f"{x},{S - GAMMA * x}" for x in xs))
    x, f = load_field_table(p)
    m = tabulated_model(x, f)
    assert abs(m.omega - OMEGA_LIF) < 1e-6
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0,1\n1,2\n")
    with pytest.raises(ModelError):
        load_field_table(bad)
    bad.write_text("x,F\n0,1\n1,fast\n")
    with pytest.raises(ModelError):
        load_field_table(bad)
    with pytest.raises(ModelError):
        load_field_table(tmp_path / "missing.csv")


def _jittered_knots(n, jitter, seed):
    # seed-jittered interior knots, as in the benchmark's field table
    rng = np.random.default_rng(seed)
    h = 1.0 / (n - 1)
    xs = np.arange(n) * h
    xs[1:-1] += rng.uniform(-jitter, jitter, n - 2) * h
    return xs


def _jittered_lif_table(n, jitter, seed):
    xs = _jittered_knots(n, jitter, seed)
    return tabulated_model(xs, S - GAMMA * xs)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(50, 2000), jitter=st.floats(0.0, 0.25),
       seed=st.integers(0, 2**32 - 1))
def test_jittered_lif_table_matches_closed_form(lif, n, jitter, seed):
    m = _jittered_lif_table(n, jitter, seed)
    assert abs(m.omega / lif.omega - 1.0) < 1e-13
    x = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(m._phase_fn(x) - lif._phase_fn(x))) < 1e-10
    theta = np.linspace(0.0, TWO_PI, 2001)
    assert np.max(np.abs(m.prc(theta) / lif.prc(theta) - 1.0)) < 1e-10
    assert np.max(np.abs(m.prc_deriv(theta) / lif.prc_deriv(theta) - 1.0)) < 1e-8


def test_nonlinear_phase_table_matches_quadrature():
    # wavy field of test_certify from 50 samples: the table at its sample
    # knots and halfway between them against QUADPACK on the interpolant
    xs = np.linspace(0.0, 1.0, 50)
    m = tabulated_model(xs, 1.0 + 0.3 * np.sin(6.0 * xs))
    inv = lambda s: 1.0 / float(m.F(s))

    def integral(b):
        inner = xs[(xs > 0.0) & (xs < b)]
        # full_output mutes QUADPACK's warning that rounding stops it short
        # of 1e-14; the result is still far inside the 1e-12 bound
        return quad(inv, 0.0, b, epsabs=1e-14, epsrel=0.0, limit=500,
                    points=inner if inner.size else None, full_output=1)[0]

    period = integral(1.0)
    assert abs(m.omega - TWO_PI / period) < QUAD_TOL * m.omega
    probe = np.sort(np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1])]))
    ref = np.array([TWO_PI * integral(b) / period if b > 0.0 else 0.0 for b in probe])
    assert np.max(np.abs(m.phase_of_state(probe) - ref)) < QUAD_TOL * m.omega


def _float_path_probes(knots, lo, hi, seed):
    # random points, every knot and its neighbours one ulp away, and points
    # past both ends, where the end pieces are continued
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.uniform(lo, hi, 20000), knots,
                          np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                          [lo - 1.0, lo - 1e-9, hi + 1e-9, hi + 1.0]])
    return [float(v) for v in pts]


@pytest.mark.parametrize("table", ["jittered", "sine"])
def test_tabulated_float_paths_bit_identical(table):
    # one Python float through the float path gives the spline's bits
    if table == "jittered":
        xs = _jittered_knots(1201, 0.25, 7)
        m = tabulated_model(xs, S - GAMMA * xs)
    else:
        xs = np.linspace(0.0, 1.0, 50)
        m = tabulated_model(xs, 1.0 + 0.3 * np.sin(6.0 * xs))
    z_knots = m._prc_deriv_fn.x    # Z' is the Z spline's derivative, same breakpoints
    for fn, knots, lo, hi in ((m._prc_fn, z_knots, 0.0, TWO_PI), (m.F, xs, 0.0, 1.0)):
        pts = _float_path_probes(knots, lo, hi, 3)
        scalar = [fn(v) for v in pts]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(np.array(scalar), np.asarray(fn(np.array(pts))))


def test_lif_field_float_path_bit_identical(lif):
    pts = _float_path_probes(np.array([0.0, 1.0]), 0.0, 1.0, 4)
    scalar = [lif.F(v) for v in pts]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(np.array(scalar), lif.F(np.array(pts)))


def _oracle_tables():
    # (x, y) sample tables for the numpy PCHIP and Hermite builders
    rng = np.random.default_rng(11)
    jittered = _jittered_knots(1201, 0.25, 7)
    wavy = np.linspace(0.0, 1.0, 50)
    parabola = np.linspace(-1.0, 2.0, 40)
    scattered = np.sort(rng.uniform(0.0, 5.0, 300))
    return {
        "jittered_lif": (jittered, S - GAMMA * jittered),
        "wavy": (wavy, 1.0 + 0.3 * np.sin(6.0 * wavy)),
        "parabola": (parabola, 1.0 + parabola ** 2),
        "lognormal": (scattered, rng.lognormal(size=300)),
        "two_points": (np.array([0.0, 1.0]), np.array([1.0, 3.0])),
        "flat_piece": (np.arange(5.0), np.array([1.0, 2.0, 2.0, 3.0, 5.0])),
        "step": (np.arange(6.0), np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])),
        # Moler's end slope leaves the sign of the end secant: set to zero
        "end_slope_zeroed": (np.array([0.0, 1.0, 1.1, 2.0]), np.array([0.0, 1.0, 5.0, 6.0])),
        # the secants change sign and the estimate exceeds 3*m0: capped there
        "end_slope_capped": (np.array([0.0, 1.0, 1.2, 2.0]), np.array([0.0, 0.1, 0.0, 1.0])),
        # a -0.0 constant whose piece has negative c0, c1, c2 under the Hermite
        # slopes below: at the knot every term is -0.0, and PPoly's sum,
        # which starts from 0.0, gives +0.0
        "signed_zero": (np.arange(4.0), np.array([-0.0, -1.0, -3.0, -6.0])),
    }


def _oracle_slopes(table, x, y):
    if table == "signed_zero":
        return np.array([-0.1, -2.5, -2.5, -3.0])
    return np.cos(3.0 * x) * (y[-1] - y[0] + 1.0)


def _oracle_probes(x, seed):
    # random points past both ends, every knot and its float neighbours,
    # far extrapolation and NaN
    rng = np.random.default_rng(seed)
    span = x[-1] - x[0]
    return np.concatenate([rng.uniform(x[0] - span, x[-1] + span, 4000), x,
                           np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                           [x[0] - 100.0 * span, x[-1] + 100.0 * span, np.nan]])


def _assert_same_spline(ours, ref, v):
    # bit for bit: a signed zero or a NaN's sign and payload must match too
    same = lambda a, b: (np.shape(a) == np.shape(b) and np.array_equal(
        np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64)))
    assert same(ours.x, ref.x) and same(ours.c, ref.c)
    assert same(ours(v), ref(v))
    assert same(ours.slope(v), ref(v, 1))
    assert same(ours(v[:4000].reshape(40, 100)), ref(v[:4000].reshape(40, 100)))
    assert same(ours(np.float64(v[0])), ref(np.float64(v[0])))
    # one Python float at a time takes the float path
    assert same(np.array([ours(float(t)) for t in v]), ref(v))
    d_ours, d_ref = ours.derivative(), ref.derivative()
    assert same(d_ours.c, d_ref.c)
    assert same(d_ours(v), d_ref(v))
    assert same(d_ours(v[:4000].reshape(40, 100)), d_ref(v[:4000].reshape(40, 100)))


@pytest.mark.parametrize("table", sorted(_oracle_tables()))
def test_piecewise_cubics_match_scipy_bit_for_bit(table):
    # scipy.interpolate as an independent oracle: the same coefficients and
    # the same bits for values, slopes and derivative tables, on both sides
    # of the knots, at them, at 2-D and 0-d inputs and at NaN
    x, y = _oracle_tables()[table]
    v = _oracle_probes(x, 5)
    _assert_same_spline(pchip(x, y), PchipInterpolator(x, y), v)
    slopes = _oracle_slopes(table, x, y)
    _assert_same_spline(hermite(x, y, slopes), CubicHermiteSpline(x, y, slopes), v)


def test_oracle_tables_reach_signed_zero_and_both_end_slope_cases():
    tables = _oracle_tables()
    x, y = tables["signed_zero"]
    ref = CubicHermiteSpline(x, y, _oracle_slopes("signed_zero", x, y))
    assert (ref.c[:, 0] < 0.0).sum() == 3 and np.signbit(ref.c[3, 0])
    assert ref(0.0) == 0.0 and not np.signbit(ref(0.0))
    x, y = tables["end_slope_zeroed"]
    assert PchipInterpolator(x, y).c[2, 0] == 0.0 and y[1] != y[0]
    x, y = tables["end_slope_capped"]
    assert PchipInterpolator(x, y).c[2, 0] == 3.0 * ((y[1] - y[0]) / (x[1] - x[0]))

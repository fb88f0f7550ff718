import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pulsefield import (CouplingSpec, Curvature, ModelError, Monotonicity,
                        classify_monotonicity, homoclinic_model, lif_model,
                        natural_frequency, tabulated_model)
from pulsefield.models import QUAD_TOL, load_field_table

TWO_PI = 2.0 * math.pi
S, GAMMA = 2.1, 2.0

# closed form for the standard LIF regime: omega = 2*pi*gamma/log(S/(S-gamma))
OMEGA_LIF = 4.127534242695819


def test_natural_frequency_constant_field():
    # constant integrand: omega = 2*pi*c exactly
    for c in (0.5, 1.0, 3.7):
        om = natural_frequency(lambda x, c=c: c, 0.0, 1.0)
        assert abs(om - TWO_PI * c) < 1e-10


def test_natural_frequency_lif_closed_form(lif):
    assert abs(lif.omega - OMEGA_LIF) < 1e-12
    # quadrature route must agree with the logarithm formula
    om_quad = natural_frequency(lambda x: S - GAMMA * x, 0.0, 1.0)
    assert abs(om_quad - OMEGA_LIF) < 1e-10


def test_natural_frequency_general_affine_vs_quadrature():
    for s, g, lo, hi in ((3.0, 1.0, 0.0, 2.0), (1.2, -0.5, 0.0, 1.0)):
        closed = TWO_PI * g / math.log((s - g * lo) / (s - g * hi)) if g else None
        om = natural_frequency(lambda x: s - g * x, lo, hi)
        assert abs(om - closed) < 1e-10


def test_nonpositive_field_rejected():
    with pytest.raises(ModelError):
        natural_frequency(lambda x: 1.0 - x, 0.0, 1.0)   # hits zero at x=1
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


def test_module_level_op_functions(lif):
    from pulsefield import phase_of_state, prc_eval, state_of_phase
    assert phase_of_state(lif, 0.5) == lif.phase_of_state(0.5)
    assert prc_eval(lif, 1.0) == lif.prc(1.0)
    assert state_of_phase(lif, 2.0) == lif.state_of_phase(2.0)


def test_coupling_spec_validation():
    assert CouplingSpec(0.0).K == 0.0
    assert CouplingSpec(-0.1).K == -0.1
    with pytest.raises(ModelError):
        CouplingSpec(math.inf)


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

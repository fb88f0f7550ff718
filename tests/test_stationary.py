import decimal
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from pulsefield import (NoStationaryStateError, UnresolvedFluxError, coupling_bounds,
                        existence_condition, homoclinic_model, lif_model,
                        normalization_functional, solve_stationary_flux, tabulated_model)
from pulsefield import stationary
from pulsefield.continuum import _advance_boundary

TWO_PI = 2.0 * math.pi
S, GAMMA = 2.1, 2.0

# root of (J/gamma)*log((S+K*J)/(S-gamma+K*J)) = 1 at K=-0.1, frozen from
# an independent x-space bracketing solve (scipy.optimize.brentq)
J_STAR_INHIB = 0.5299567271521374


def secant_root(f, x0: float, x1: float, *, ftol: float = 1e-12, max_iter: int = 100,
                lo: float = -math.inf, hi: float = math.inf) -> float:
    """Safeguarded secant iteration clamped to (lo, hi), an oracle independent
    of the solver's bisection; a step leaving the clamp interval falls back
    to the midpoint of the current pair."""
    f0, f1 = f(x0), f(x1)
    for _ in range(max_iter):
        if abs(f1) < ftol:
            return x1
        denom = f1 - f0
        if denom == 0.0:
            break
        x2 = x1 - f1 * (x1 - x0) / denom
        if not (lo < x2 < hi):
            x2 = 0.5 * (max(lo, min(x0, x1)) + min(hi, max(x0, x1)))
        x0, f0 = x1, f1
        x1, f1 = x2, f(x2)
    return x1


def W_quad(model, K, J):
    """Independent quadrature of the normalization functional (scipy)."""
    om = model.omega
    return quad(lambda th: J / (om + K * model.prc(th) * J), 0.0, TWO_PI,
                epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def W_homoclinic(model, K, J) -> Decimal:
    """A homoclinic model's W(J) in closed form, in 50 digits from the exact
    doubles: (J/(b*omega))*[ln(omega*e^(2*pi*b) + c) - ln(omega + c)] with
    b = lambda_u/omega, c = K*Z(0)*J and 2*pi the double the solver takes."""
    with localcontext() as ctx:
        ctx.prec = 50
        om, b = Decimal(model.omega), Decimal(model.params["lambda_u"]) / Decimal(model.omega)
        c = Decimal(K) * Decimal(float(model.prc(0.0))) * Decimal(J)
        return (Decimal(J) / (b * om)) * ((om * (b * Decimal(TWO_PI)).exp() + c).ln()
                                          - (om + c).ln())


def homoclinic_ulp_step(model, K) -> Decimal:
    """How far W moves, in closed form, across the two adjacent doubles
    round J* of an inhibitory homoclinic model, found by bisecting over the
    doubles below the pole omega/r."""
    amp = float(model.prc(0.0))
    lo, hi = 0.0, model.omega / (-K * amp)
    while Fraction(model.omega) + Fraction(K) * Fraction(amp) * Fraction(hi) <= 0:
        hi = math.nextafter(hi, 0.0)   # the double edge may round onto or past the pole
    while (m := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (m, hi) if W_homoclinic(model, K, m) < 1 else (lo, m)
    return W_homoclinic(model, K, hi) - W_homoclinic(model, K, lo)


def test_w_trivial_no_coupling(lif):
    # constant integrand: W(J) = 2*pi*J/omega
    for J in (0.1, 0.5, 2.0):
        assert abs(normalization_functional(lif, 0.0, J) - TWO_PI * J / lif.omega) < 1e-12


def test_w_vanishes_at_zero_flux(lif):
    assert normalization_functional(lif, -0.1, 1e-12) < 1e-10


def test_w_matches_paper_scale_at_reported_flux(lif):
    # the inhibitory regime settles near J ~ 0.53 where W crosses one
    assert abs(normalization_functional(lif, -0.1, 0.53) - 1.0) < 0.02


def test_w_strictly_increasing(lif):
    rng = np.random.default_rng(7)
    hi = 0.1 / 0.1  # admissible upper edge F_min/|K| for K=-0.1
    for _ in range(100):
        a, b = np.sort(rng.uniform(1e-6, hi * 0.999, 2))
        if a == b:
            continue
        assert normalization_functional(lif, -0.1, a) < normalization_functional(lif, -0.1, b)


def test_w_domain_error(lif):
    with pytest.raises(ValueError):
        normalization_functional(lif, -0.1, 1.5)   # above omega/r = F_min/|K| = 1
    with pytest.raises(ValueError):
        normalization_functional(lif, -0.1, -0.2)


def test_existence_no_coupling(lif):
    res = existence_condition(lif, 0.0)
    assert res.exists and res.r == 0.0


def test_existence_excitatory_threshold(lif):
    # threshold-gap rule on [0, 1]: exists iff K < 1
    assert not existence_condition(lif, 1.5).exists
    assert existence_condition(lif, 0.5).exists
    flags = [existence_condition(lif, K).exists for K in (0.9, 0.99, 1.01, 1.1)]
    assert flags == [True, True, False, False]


def test_existence_strict_at_gap(lif):
    # K exactly at the threshold gap x_hi - x_lo = 1: the limit is exactly 1,
    # no state.  The final value must clear the same margin as the
    # three-in-a-row rule: the wavy table's quadrature gives 1 + 1.3e-11
    for m in (lif, _wavy_table()):
        assert not existence_condition(m, 1.0).exists
        assert existence_condition(m, 0.99).exists


def test_solve_evaluates_each_grid_of_z_once(monkeypatch):
    # existence and the W bisection share one K*Z scan and one sample of Z
    # on the starting mesh, and rho_star comes from Z on the output grid
    m = lif_model(S, GAMMA)
    sizes = []
    prc_fn = m._prc_fn

    def counted(x):
        sizes.append(np.size(x))
        return prc_fn(x)

    monkeypatch.setattr(m, "_prc_fn", counted)
    solve_stationary_flux(m, -0.1, n_theta=2048)
    assert len(sizes) == 3 and len(set(sizes)) == 3


def test_existence_inhibitory(lif):
    # the lower coupling bound is unbounded for this field; the limit
    # sequence certifies existence throughout the numerically solvable range
    assert existence_condition(lif, -0.5).exists
    assert existence_condition(lif, -1.0).exists


def test_coupling_bounds_upper_is_gap(lif):
    b = coupling_bounds(lif)
    assert b.upper == 1.0


def test_coupling_bounds_constant_field_unbounded():
    m = tabulated_model(lambda x: 1.0, x_lo=0.0, x_hi=1.0)
    b = coupling_bounds(m)
    assert b.lower_unbounded and b.lower == -math.inf


def test_coupling_bounds_interior_minimum_unbounded():
    # the wavy table's minimum lies inside a grid cell, 3.8e-9 (relative)
    # below the 4097-point grid value: the limit sequence must stay under it
    xs = np.linspace(0.0, 1.0, 50)
    b = coupling_bounds(tabulated_model(xs, 1.0 + 0.3 * np.sin(6.0 * xs)))
    assert b.lower_unbounded and b.lower == -math.inf


@pytest.mark.parametrize("K", [-0.1, -0.4])
def test_kz_scan_refines_interior_minimum(K):
    # the wavy table's K*Z has its minimum inside a grid cell: r is refined
    # there, so no s_k = r + 10^-k and no bracket candidate
    # (1 - 10^-k)*omega/r of the solve reaches the pole of 1/(K*Z + s)
    m = _wavy_table()
    top = float(np.max(-K * m.prc(np.linspace(0.0, TWO_PI, 2 ** 20 + 1))))
    r, _ = stationary._kz_scan(m, K)
    assert all(r + 10.0 ** (-k) > top for k in stationary.LIMIT_KS)
    assert all((1.0 - 10.0 ** (-k)) * top < r for k in range(1, 15))
    res = existence_condition(m, K)
    assert res.r == r and res.exists
    assert all(math.isfinite(v) for v in res.integrals)


def test_coupling_bounds_lif_unbounded_consistent(lif):
    # limit-sequence quadrature drifts without converging (log divergence),
    # so the bound is reported unbounded; the direct condition must agree
    # on both sides of the window
    b = coupling_bounds(lif)
    assert b.lower_unbounded
    assert existence_condition(lif, b.upper - 0.01).exists
    assert not existence_condition(lif, b.upper + 0.01).exists
    assert existence_condition(lif, -1.0).exists


def _steep_table():
    # L = max|F'| = 1e4 against min F = 1e-3: the coupling bound's integral
    # drops by only (s/L)*ln 10 = 2.3e-7 per decade of min F - s
    xs = np.linspace(0.0, 1.0, 41)
    return tabulated_model(xs, 1e-3 + 1e4 * xs)


def test_coupling_bounds_steep_table_unbounded():
    # a limit probe read this slow divergence as converged, to -4.37e-6
    b = coupling_bounds(_steep_table())
    assert b.lower == -math.inf and b.lower_unbounded and b.upper == 1.0
    assert b.to_json() == {"K_lower": None, "K_upper": 1.0, "lower_unbounded": True}


@pytest.mark.parametrize("model", ["lif", "steep"])
def test_coupling_bound_integral_diverges_logarithmically(model):
    # the closed form's premise: for a Lipschitz F the integral of
    # s/(s - F) falls by (s/L)*ln 10 per decade of min F - s, L = max|F'|
    m = lif_model(S, GAMMA) if model == "lif" else _steep_table()
    xs = np.linspace(m.x_lo, m.x_hi, 2 ** 16 + 1)
    L = float(np.max(np.abs(np.diff(m.F(xs)) / np.diff(xs))))
    s_vals, F, _ = _bound_sequence(m)
    vals = [stationary._quad(lambda fx: s / (s - fx), F, tol=1e-9) for s in s_vals]
    for k in range(len(vals) - 3, len(vals)):
        drop = (vals[k - 1] - vals[k]) / (s_vals[k] / L * math.log(10.0))
        assert drop == pytest.approx(1.0, rel=0.1), (k, drop)


@pytest.mark.parametrize("model", ["lif", "steep"])
def test_coupling_bounds_evaluates_no_field(model, monkeypatch):
    m = lif_model(S, GAMMA) if model == "lif" else _steep_table()
    F, calls = m.F, []
    monkeypatch.setattr(m, "F", lambda x: calls.append(x) or F(x))
    assert coupling_bounds(m).lower_unbounded
    assert calls == []


def test_coupling_bounds_needs_field():
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    with pytest.raises(Exception):
        coupling_bounds(m)


def test_solve_no_coupling_closed_form(lif):
    stat = solve_stationary_flux(lif, 0.0)
    assert abs(stat.J_star - lif.omega / TWO_PI) < 1e-12
    assert np.max(np.abs(stat.rho_star.rho - 1.0 / TWO_PI)) < 1e-15


def test_solve_inhibitory_against_oracles(lif):
    stat = solve_stationary_flux(lif, -0.1)
    # residual of the normalization equation, by independent quadrature
    assert abs(W_quad(lif, -0.1, stat.J_star) - 1.0) < 1e-8
    # closed-form x-space root (frozen)
    assert abs(stat.J_star - J_STAR_INHIB) < 1e-8
    # reported figure value
    assert abs(stat.J_star - 0.53) < 0.02


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(gamma=st.floats(0.5, 3.0), margin=st.floats(0.5, 3.0), K=st.floats(-0.5, 0.9))
@example(gamma=1.0, margin=1.0, K=-1.2021012630260173e-247)
@example(gamma=0.5, margin=3.0, K=-2.2250738585072014e-308)
@example(gamma=0.5, margin=1.0, K=-1.1125369292536007e-308)
def test_stationary_residual_lif(gamma, margin, K):
    # W(J*) = 1 by independent quadrature over LIF fields S - gamma*x with
    # S - gamma >= 0.5 and K inside the existence window (K < x_hi - x_lo);
    # the box keeps rho* resolved by the default grid (max/min rho* ~ 10 at
    # most), where the trapezoid sum, the mass quantile_transform normalizes
    # by, is 1 to the rule's O(h^2) error.  At a tiny |K| the bracket spans
    # hundreds of orders of magnitude (omega/r ~ 1e248 in the example), more
    # than a fixed number of halvings narrows; at |K| = 2.2e-308 W's sums at
    # the first upper bracket pass the largest double (at 1.1e-308 both
    # Kronrod and Gauss sums, whose difference is then inf - inf), which
    # reads W > 1 without a warning
    model = lif_model(gamma + margin, gamma)
    stat = solve_stationary_flux(model, K)
    assert abs(W_quad(model, K, stat.J_star) - 1.0) < 1e-8
    field = stat.rho_star
    assert field.rho.min() > 0.0
    assert abs(np.trapezoid(field.rho, field.theta) - 1.0) < 1e-5


def test_solve_excitatory_and_secant_agreement(lif):
    tol = stationary.J_TOL
    stat = solve_stationary_flux(lif, 0.1)
    assert abs(W_quad(lif, 0.1, stat.J_star) - 1.0) < 1e-8
    f = lambda J: normalization_functional(lif, 0.1, J) - 1.0
    j_sec = secant_root(f, 0.5, 1.0, ftol=tol, lo=1e-12, hi=50.0)
    assert abs(j_sec - stat.J_star) < 10 * tol / 2.65   # dW/dJ ~ O(1) near the root


def test_solve_rejects_nonexistent(lif):
    with pytest.raises(NoStationaryStateError) as err:
        solve_stationary_flux(lif, 1.5)
    assert err.value.result.limit_value <= 1.0


def test_stationary_density_properties(lif):
    stat = solve_stationary_flux(lif, -0.1)
    rho = stat.rho_star.rho
    assert rho.min() > 0.0 and np.isfinite(rho.max())
    # continuum normalization of the closed-form density
    mass = quad(lambda th: stat.density_at(th), 0.0, TWO_PI,
                epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    assert abs(mass - 1.0) < 1e-8
    # pointwise defining relation
    z = lif.prc(stat.rho_star.theta)
    expect = stat.J_star / (lif.omega + (-0.1) * z * stat.J_star)
    assert np.max(np.abs(rho - expect)) < 1e-10
    # positivity of the stationary velocity
    assert np.all(lif.omega + (-0.1) * z * stat.J_star > 0.0)


def test_boundary_flux_consistency(lif, stat_inhib):
    # the kernel's boundary relation returns J* from the stationary rho(2*pi)
    rho = stat_inhib.rho_star.rho.copy()
    j0 = _advance_boundary(rho, 0.0, lif.omega, -0.1 * lif.prc(0.0),
                           -0.1 * lif.prc(TWO_PI), math.inf)
    assert abs(j0 - stat_inhib.J_star) < 1e-8


def test_j_interval_reported(lif):
    stat = solve_stationary_flux(lif, -0.1)
    lo, hi = stat.J_interval
    assert lo == 0.0
    # omega/r = F_min/|K| = 1 for this regime
    assert abs(hi - 1.0) < 1e-10
    assert lo < stat.J_star < hi


def test_homoclinic_stationary_state():
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    stat = solve_stationary_flux(m, 0.05)
    assert abs(W_quad(m, 0.05, stat.J_star) - 1.0) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(C=st.floats(0.1, 2.0), lambda_u=st.floats(0.1, 2.0), omega=st.floats(1.0, 4.0 * math.pi),
       K=st.floats(-1.0, 1.0))
@example(C=1.0, lambda_u=1.0, omega=6.283185307179586, K=0.05)   # bundled homoclinic.cfg
def test_stationary_residual_homoclinic(C, lambda_u, omega, K):
    # W(J*) = 1 by independent quadrature over the homoclinic family; a draw
    # with no stationary state (strong excitatory coupling) is discarded.  A
    # J* the solver refuses as unresolved lies where one ulp of J moves the
    # closed-form W by more than J_TOL, next to the edge omega/r
    model = homoclinic_model(C, lambda_u, omega)
    try:
        stat = solve_stationary_flux(model, K)
    except NoStationaryStateError:
        assume(False)
    except UnresolvedFluxError:
        assert homoclinic_ulp_step(model, K) > stationary.J_TOL
        return
    assert abs(W_quad(model, K, stat.J_star) - 1.0) < 1e-8


# a near-edge draw: J* sits 7.7e-12 (relative) below omega/r, where one ulp
# of J moves W by about 5e-7, so no double meets J_TOL
NEAR_EDGE = dict(C=1.0613480047238488, lambda_u=1.6494697726521217,
                 omega=3.510679464494422, K=-0.8497346102544328)
# r = 2.09e5: r + 10^-k rounds to r from k = 11 on
LARGE_R = dict(C=1.9682502112304499, lambda_u=1.9272386964469381,
               omega=1.0344231023960757, K=-0.8444096904718315)


def test_unresolved_flux_near_edge_raises():
    # the bisection closes on two adjacent doubles with |W - 1| ~ 5e-7, far
    # above J_TOL: an error, not a J* returned as if resolved
    model = homoclinic_model(NEAR_EDGE["C"], NEAR_EDGE["lambda_u"], NEAR_EDGE["omega"])
    with pytest.raises(UnresolvedFluxError, match="bracket closed"):
        solve_stationary_flux(model, NEAR_EDGE["K"])
    assert homoclinic_ulp_step(model, NEAR_EDGE["K"]) > 1000 * stationary.J_TOL


def test_bisect_root_refuses_a_bracket_short_of_ftol():
    # a jump at 1.0: the bracket closes on adjacent doubles with |f| = 1
    step = lambda x: -1.0 if x < 1.0 else 1.0
    with pytest.raises(UnresolvedFluxError):
        stationary.bisect_root(step, 0.0, 3.0, ftol=1e-10)
    # ... while a continuous f has its root returned to ftol
    assert abs(stationary.bisect_root(lambda x: x - 1.0, 0.0, 3.0, ftol=1e-10) - 1.0) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_existence_probes_stop_where_they_stop_moving():
    # r + 10^-k == r from k = 11: the probes end at k = 10 (s = r would
    # divide by zero at the singular phase and read an infinite limit)
    model = homoclinic_model(LARGE_R["C"], LARGE_R["lambda_u"], LARGE_R["omega"])
    res = existence_condition(model, LARGE_R["K"])
    assert res.r + 1e-10 != res.r and res.r + 1e-11 == res.r
    assert len(res.integrals) == 10 and np.isfinite(res.integrals).all()
    assert res.limit_value == res.integrals[-1]


def test_existence_refuses_r_no_probe_moves_off():
    # Z(0) = 2e27: r + 0.1 rounds to r, so no probe of the limit exists
    model = homoclinic_model(1.0, 10.0, 1.0)
    with pytest.raises(UnresolvedFluxError, match="too large"):
        existence_condition(model, -0.1)


def _wavy_table():
    # the 1 + 0.3 sin 6x field of test_models, from 50 samples
    xs = np.linspace(0.0, 1.0, 50)
    return tabulated_model(xs, 1.0 + 0.3 * np.sin(6.0 * xs))


PINNED_MODELS = {"lif": lambda: lif_model(S, GAMMA),
                 "homoclinic": lambda: homoclinic_model(1.0, 1.0, TWO_PI),
                 "wavy_table": _wavy_table}


@pytest.mark.parametrize("model,K,quantity,pinned", [
    # the LIF J* cases keep their original "K-J*" ids
    pytest.param("lif", -0.1, "J_star", 0.5299567271144521, id="-0.1-0.5299567271144521"),
    pytest.param("lif", 0.1, "J_star", 0.8022543020971771, id="0.1-0.8022543020971771"),
    pytest.param("lif", -0.3, "J_star", 0.32035017792107384, id="-0.3-0.32035017792107384"),
    pytest.param("homoclinic", 0.05, "J_star", 1.093271529302454, id="homoclinic-J_star"),
    pytest.param("wavy_table", -0.1, "J_star", 0.8627127857440726, id="wavy_table-J_star"),
    pytest.param("lif", -0.1, "integrals",
                 (3.2908304210896633, 4.49966008763508, 5.659339932347612),
                 id="lif-existence_integrals"),
    pytest.param("wavy_table", -0.1, "integrals",
                 (28.778584800252247, 105.35487563847417, 405.047337091606),
                 id="wavy_table-existence_integrals"),
])
def test_lif_flux_bits_pinned(model, K, quantity, pinned):
    # the bisection's arithmetic is fixed: the same W integrand, breakpoint
    # and quadrature give J* to the last bit, and the existence integrand
    # gives its limit sequence to the last bit
    m = PINNED_MODELS[model]()
    if quantity == "J_star":
        assert solve_stationary_flux(m, K).J_star == pinned
    else:
        assert existence_condition(m, K).integrals == pinned


# -- the quadrature against exact values and an independent one -----------------
#
# Each integral must lie within the tolerance its call asks for (W_TOL for W,
# 1e-9 otherwise) plus the rounding floor of its integrand: a relative error
# of eps in each term of the denominator v = a + b moves the integral of
# 1/v by up to eps * integral (|a| + |b|)/v^2.  Near a pole that floor
# exceeds 1e-9 (for the existence integral of LIF at K = -0.1 from
# s = r + 1e-8 on), and no quadrature of the float integrand does better:
# scipy's quad and _quad then differ from the exact value by about the same.

ORACLE_KS = (-0.4, -0.1, 0.05, 0.1)
EPS = float(np.finfo(float).eps)


def _assert_close(got, exact, tol, floor):
    assert abs(got - exact) <= tol * max(1.0, abs(exact)) + floor, (got, exact, tol, floor)


def _exp_prc_integrals(c, lam, Kp, s):
    """(I, B) for Z = c*exp(lam*theta) on [0, TWO_PI]: I the integral of
    1/(Kp*Z + s) and B that of (|Kp*Z| + s)/(Kp*Z + s)^2, in closed form in
    50-digit decimal arithmetic on the float inputs (lam a Decimal)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        A, s = Decimal(Kp) * Decimal(c), Decimal(s)
        ends = (Decimal(0), lam * Decimal(TWO_PI))
        v = [A * u.exp() + s for u in ends]
        P = [(u - vu.ln()) / s for u, vu in zip(ends, v)]   # antiderivative of 1/v
        I = (P[1] - P[0]) / lam
        # for A < 0 the floor integrand is 2s/v^2 - 1/v, with antiderivative 2/v + P
        B = I + (2 / v[1] - 2 / v[0]) / lam if A < 0 else I
        return float(I), float(B)


# Z = c*exp(lam*theta): c is Z(0) as the model rounds it, lam exact
EXP_PRC = {"lif": lambda m: (float(m.prc(0.0)), Decimal(GAMMA) / Decimal(m.omega)),
           "homoclinic": lambda m: (float(m.prc(0.0)), -1 / Decimal(m.omega))}


@pytest.mark.parametrize("name", sorted(EXP_PRC))
@pytest.mark.parametrize("K", ORACLE_KS)
def test_quad_matches_closed_form_w_and_existence(name, K):
    m = PINNED_MODELS[name]()
    c, lam = EXP_PRC[name](m)
    omega = m.omega
    r, pt = stationary._kz_scan(m, K)
    prc = stationary._sample(m._prc_fn, 0.0, TWO_PI, [pt])
    hi = omega / r if r > 0.0 else 10.0 * omega
    for J in (0.1 * hi, 0.5 * hi, 0.9 * hi, (1.0 - 1e-6) * hi):
        exact, floor = _exp_prc_integrals(c, lam, K * J, omega)
        _assert_close(normalization_functional(m, K, J), J * exact, stationary.W_TOL,
                      EPS * J * floor)
    for k in stationary.LIMIT_KS:
        s = r + 10.0 ** (-k)
        exact, floor = _exp_prc_integrals(c, lam, K, s)
        _assert_close(stationary._quad(lambda z: 1.0 / (K * z + s), prc, tol=1e-9),
                      exact, 1e-9, EPS * floor)


def _scipy_ref_and_floor(f, floor_f, pts):
    # scipy's quad at 1e-14, given the table's sample phases as breakpoints:
    # PCHIP's second derivative jumps there (without them quad is itself off
    # by up to 1.1e-9); both quadratures carry the rounding floor
    ref = quad(f, pts[0], pts[-1], epsabs=1e-14, epsrel=1e-14, limit=20000,
               points=pts[1:-1], full_output=1)[0]
    floor = quad(floor_f, pts[0], pts[-1], epsabs=0.0, epsrel=1e-6, limit=20000,
                 points=pts[1:-1], full_output=1)[0]
    return ref, 2.0 * EPS * floor


# s = r + 10^-k at K < 0 for k = 1 ... 12: integrals of 1/(K*Z + s) over the
# wavy table's Z spline, summed over its 4 096 cubic pieces in 50-digit
# arithmetic (partial fractions over each piece's roots; at the grid r used
# before, the same sums reproduce the 30-digit piecewise quadrature values
# frozen then for K = -0.1, k = 1 and 8, to all 20 digits).  r is the
# refined interior minimum of -K*Z, so every s lies above it and each
# integral exists.
WAVY_SPLINE_SUMS = {
    -0.4: (15.970073865742284273, 57.550338305374062434, 259.63489678809244837,
           1244.2720718257344605, 4712.9442438017448113, 15735.362053906367398,
           50560.886226600523453, 160648.73038980391564, 508736.00934503934331,
           1609444.247400083315, 5090170.6337129960357, 16097147.379140998198),
    -0.1: (28.778584800463645107, 105.35487563910231567, 405.04733709475983,
           1979.0176788358526653, 8669.9916804526156932, 30705.661691802794963,
           100389.90086885700708, 320603.19922415825661, 1016815.7886672748264,
           3218269.0612108755685, 10179722.475974421112, 32194318.794223309517),
}


@pytest.mark.parametrize("K", ORACLE_KS)
def test_quad_matches_oracles_on_wavy_table(K):
    m = _wavy_table()
    zf, omega = m._prc_fn, m.omega
    r, pt = stationary._kz_scan(m, K)
    prc = stationary._sample(zf, 0.0, TWO_PI, [pt])
    knots = m.phase_of_state(np.linspace(0.0, 1.0, 50))[1:-1].tolist()
    pts = [0.0, *sorted({pt, *knots}), TWO_PI]
    hi = omega / r if r > 0.0 else 10.0 * omega
    for J in (0.1 * hi, 0.5 * hi, 0.9 * hi, (1.0 - 1e-6) * hi):
        ref, floor = _scipy_ref_and_floor(
            lambda th: J / (omega + K * zf(th) * J),
            lambda th: J * (omega + abs(K * zf(th) * J)) / (omega + K * zf(th) * J) ** 2, pts)
        _assert_close(normalization_functional(m, K, J), ref, stationary.W_TOL, floor)
    exact = WAVY_SPLINE_SUMS.get(K)
    for k in stationary.LIMIT_KS:
        s = r + 10.0 ** (-k)
        ref, floor = _scipy_ref_and_floor(
            lambda th: 1.0 / (K * zf(th) + s),
            lambda th: (abs(K * zf(th)) + s) / (K * zf(th) + s) ** 2, pts)
        got = stationary._quad(lambda z: 1.0 / (K * z + s), prc, tol=1e-9)
        _assert_close(got, ref, 1e-9, floor)
        if exact is not None:
            _assert_close(got, exact[k - 1], 1e-9, 0.5 * floor)


def _bound_sequence(m):
    """(s_k, sampled F, breakpoint) of the coupling window's limit sequence
    s_k = min F*(1 - 10^-k), with min F refined inside its grid cells."""
    F, span = m.F, m.x_hi - m.x_lo
    xs = np.linspace(m.x_lo, m.x_hi, 4097)
    fx = F(xs)
    i = int(np.argmin(fx))
    f_min, x_min = float(fx[i]), float(xs[i])
    x_ref, f_ref = stationary._golden_min(F, float(xs[max(i - 1, 0)]),
                                          float(xs[min(i + 1, xs.size - 1)]),
                                          xatol=1e-12 * span)
    if f_ref < f_min:
        f_min, x_min = f_ref, x_ref
    x_min = float(np.clip(x_min, m.x_lo + 1e-9 * span, m.x_hi - 1e-9 * span))
    return ([f_min * (1.0 - 10.0 ** (-k)) for k in stationary.LIMIT_KS],
            stationary._sample(F, m.x_lo, m.x_hi, [x_min]), x_min)


def test_quad_matches_closed_form_on_lif_coupling_bound_integrand(lif):
    # integral_0^1 s/(s - F) dx for F = S - gamma*x, with v = F - s > 0:
    # -(s/gamma) log(v(0)/v(1)), and the floor integrand s(s + F)/v^2 =
    # 2s^2/v^2 + s/v integrates to (2s^2(1/v(1) - 1/v(0)) + s log(v(0)/v(1)))/gamma
    s_vals, F, _ = _bound_sequence(lif)
    for s in s_vals:
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            sd, g = Decimal(s), Decimal(GAMMA)
            v0, v1 = Decimal(S) - sd, Decimal(S) - g - sd
            log = (v0 / v1).ln()
            exact = float(-sd * log / g)
            floor = float((2 * sd * sd * (1 / v1 - 1 / v0) + sd * log) / g)
        _assert_close(stationary._quad(lambda fx: s / (s - fx), F, tol=1e-9),
                      exact, 1e-9, EPS * floor)


def test_quad_matches_scipy_on_wavy_coupling_bound_integrand():
    m = _wavy_table()
    s_vals, F, x_min = _bound_sequence(m)
    pts = [0.0, *sorted({x_min, *np.linspace(0.0, 1.0, 50)[1:-1].tolist()}), 1.0]
    for s in s_vals:
        ref, floor = _scipy_ref_and_floor(lambda x: s / (s - m.F(x)),
                                         lambda x: s * (s + m.F(x)) / (s - m.F(x)) ** 2, pts)
        _assert_close(stationary._quad(lambda fx: s / (s - fx), F, tol=1e-9), ref, 1e-9, floor)


def test_coupling_bounds_returns_where_golden_section_stalls():
    # on [8192, 8193] the float spacing (1.8e-12) exceeds xatol = 1e-12*span:
    # the bracket round the minimum of F in its first grid cell cannot narrow
    # to xatol, and the search must stop all the same (F's calls are
    # counted, so a search that does not stop fails here instead of
    # hanging); only the step cap stops it
    xs = np.linspace(8192.0, 8193.0, 20)
    m = tabulated_model(xs, 1.0 + (xs - 8192.0))
    calls = []

    def counted(x):
        calls.append(x)
        assert len(calls) < 1000, "golden section does not stop"
        return m.F(x)

    cell = np.linspace(m.x_lo, m.x_hi, 4097)[:2].tolist()
    x, fx = stationary._golden_min(counted, *cell, xatol=1e-12 * (m.x_hi - m.x_lo))
    assert len(calls) == stationary.GOLDEN_MAX_STEPS + 2
    assert cell[0] <= x <= cell[1] and fx == m.F(x)
    b = coupling_bounds(m)
    assert b.upper == 1.0 and b.lower_unbounded


@pytest.mark.parametrize("K", ORACLE_KS)
@pytest.mark.parametrize("model", sorted(PINNED_MODELS))
def test_sample_edges_match_np_unique(model, K, monkeypatch):
    # _sample dedupes its mesh by a sort and a mask on equal neighbours, as
    # np.unique does without importing numpy.ma: every mesh a solve and the
    # coupling window build keeps np.unique's edges to the bit
    m = PINNED_MODELS[model]()
    real, meshes = stationary._sample, []

    def recorded(fn, a, b, points=None):
        meshes.append((a, b, points))
        return real(fn, a, b, points)

    monkeypatch.setattr(stationary, "_sample", recorded)
    try:
        solve_stationary_flux(m, K)
    except NoStationaryStateError:
        pass
    if m.F is not None:
        coupling_bounds(m)
    assert meshes
    for a, b, points in meshes:
        k = np.array((float(a), *sorted(map(float, points or ())), float(b)))
        want = np.unique(np.append(
            (k[:-1, None] + np.diff(k)[:, None] * stationary.MESH_FRACTIONS).ravel(), k))
        got = real(np.zeros_like, a, b, points)
        edges = np.append(got.lo, got.hi[-1])
        assert edges.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_solve_does_not_import_numpy_ma():
    # numpy.ma costs about 19 ms and 1.6 MB to import; no solve needs it
    code = ("import sys\n"
            "from pulsefield import coupling_bounds, lif_model, solve_stationary_flux\n"
            "m = lif_model(2.1, 2.0)\n"
            "solve_stationary_flux(m, -0.1)\n"
            "coupling_bounds(m)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(stationary.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("K", [-2.2250738585072014e-308, -1e-200])
def test_tiny_coupling_solve_splits_wide_brackets_geometrically(K, monkeypatch):
    # at a tiny |K| the bracket spans [2e-11, ~omega/r]: halving it crossed
    # one bit per W evaluation (1 057 calls at K = -2.2e-308, 698 at -1e-200);
    # splitting at the geometric mean while it spans more than GEOMETRIC_SPAN
    # halves its logarithm instead
    m = lif_model(3.5, 0.5)
    calls = []
    w_integral = stationary._w_integral

    def counted(*args):
        calls.append(args)
        return w_integral(*args)

    monkeypatch.setattr(stationary, "_w_integral", counted)
    stat = solve_stationary_flux(m, K)
    assert len(calls) <= 100
    assert abs(W_quad(m, K, stat.J_star) - 1.0) < 1e-8

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pulsefield import (NoStationaryStateError, boundary_flux, coupling_bounds,
                        existence_condition, homoclinic_model, lif_model,
                        normalization_functional, solve_stationary_flux,
                        tabulated_model)
from pulsefield.numerics import secant_root

TWO_PI = 2.0 * math.pi
S, GAMMA = 2.1, 2.0

# root of (J/gamma)*log((S+K*J)/(S-gamma+K*J)) = 1 at K=-0.1, frozen from
# an independent x-space bracketing solve (scipy.optimize.brentq)
J_STAR_INHIB = 0.5299567271521374


def W_quad(model, K, J):
    """Independent quadrature of the normalization functional (scipy)."""
    om = model.omega
    return quad(lambda th: J / (om + K * model.prc(th) * J), 0.0, TWO_PI,
                epsabs=1e-13, epsrel=1e-13, limit=200)[0]


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
    # K exactly at the threshold gap: strict inequality, no state
    assert not existence_condition(lif, 1.0).exists


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


def test_coupling_bounds_lif_unbounded_consistent(lif):
    # limit-sequence quadrature drifts without converging (log divergence),
    # so the bound is reported unbounded; the direct condition must agree
    # on both sides of the window
    b = coupling_bounds(lif)
    assert b.lower_unbounded
    assert existence_condition(lif, b.upper - 0.01).exists
    assert not existence_condition(lif, b.upper + 0.01).exists
    assert existence_condition(lif, -1.0).exists


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


def test_solve_excitatory_and_secant_agreement(lif):
    tol = 1e-10
    stat = solve_stationary_flux(lif, 0.1, tol=tol)
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
    j0 = boundary_flux(float(stat_inhib.rho_star.rho[0]), lif, -0.1)
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
    pytest.param("wavy_table", -0.1, "J_star", 0.8627127857641228, id="wavy_table-J_star"),
    pytest.param("lif", -0.1, "integrals",
                 (3.2908304210896584, 4.499660087635089, 5.65933993234709),
                 id="lif-existence_integrals"),
    pytest.param("wavy_table", -0.1, "integrals",
                 (28.77858528204103, 105.35489090571579, 405.0480540344032),
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

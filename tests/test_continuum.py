import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pulsefield import (AdmissibilityVerdict, BlowupError, CFLError, DensityField,
                        characteristic_trace, check_admissibility, homoclinic_model,
                        initial_density, integrate, lif_model, step, tabulated_model)
from pulsefield.continuum import (EPS_SING, BlowupEvent, TrajectoryLog, _advance_boundary,
                                  _upwind_step, default_flux_cap)

TWO_PI = 2.0 * math.pi

# raw von Mises profile of initial_density("vonmises", 512, ..., kappa=2.0)
VONMISES_512 = np.exp(2.0 * (np.cos(np.linspace(0.0, TWO_PI, 513) - math.pi) - 1.0))


def positive_profiles():
    """Random positive node profiles on a few grid sizes."""
    return st.sampled_from([16, 64, 256]).flatmap(
        lambda n: arrays(float, n + 1, elements=st.floats(0.05, 1.0)))


@pytest.fixture(scope="module")
def unit_speed():
    # constant field c=1 on [0,1]: omega = 2*pi, Z identically 2*pi
    return tabulated_model(lambda x: 1.0, x_lo=0.0, x_hi=1.0)


def _outflow_flux(model, K, rho_end):
    """J0 from rho(2*pi) by the kernel's boundary relation, and rho(0)."""
    rho = np.array([0.0, rho_end])
    j0 = _advance_boundary(rho, 0.0, model.omega, K * model.prc(0.0),
                           K * model.prc(TWO_PI), EPS_SING, math.inf)
    return j0, rho[0]


def test_boundary_flux_no_coupling(lif, unit_speed):
    j0, rho0 = _outflow_flux(lif, 0.0, 0.2)
    assert abs(j0 - lif.omega * 0.2) < 1e-12
    assert rho0 == 0.2
    # omega = 2*pi and rho(2*pi) = 1/(2*pi) give unit flux
    assert abs(_outflow_flux(unit_speed, 0.0, 1.0 / TWO_PI)[0] - 1.0) < 1e-9


def test_boundary_flux_stationary_consistency(lif, stat_inhib):
    j0, rho0 = _outflow_flux(lif, -0.1, float(stat_inhib.rho_star.rho[-1]))
    assert abs(j0 - stat_inhib.J_star) < 1e-8
    assert abs(rho0 - stat_inhib.rho_star.rho[0]) < 1e-8


def test_boundary_flux_singularity(lif):
    # rho(2*pi) at the critical value 1/(K Z(2*pi)) triggers the flux event
    rho_c = 1.0 / (0.5 * lif.prc(TWO_PI))
    with pytest.raises(BlowupError) as err:
        _outflow_flux(lif, 0.5, rho_c)
    assert err.value.event.kind == "flux"


def test_from_profile_boundary_relation(lif):
    th = np.linspace(0.0, TWO_PI, 513)
    field = DensityField.from_profile(lif, -0.1, np.exp(np.cos(th)))
    z = lif.prc(th)
    lhs = field.rho[0] / (1.0 - (-0.1) * z[0] * field.rho[0])
    rhs = field.rho[-1] / (1.0 - (-0.1) * z[-1] * field.rho[-1])
    assert abs(lhs - rhs) < 1e-10
    assert abs(field.J0 - lif.omega * field.rho[0] / (1.0 - (-0.1) * z[0] * field.rho[0])) < 1e-10
    assert abs(field.mass - 1.0) < 1e-12


def test_step_uniform_no_coupling_fixed_point(lif):
    field = initial_density("uniform", 256, lif, 0.0)
    out = step(field, lif, 0.0, 1e-3)
    assert np.max(np.abs(out.rho - field.rho)) < 1e-15


def test_step_cfl_guard(lif):
    field = initial_density("uniform", 128, lif, 0.0)
    with pytest.raises(CFLError):
        step(field, lif, 0.0, 10.0 * field.dtheta / lif.omega)


def test_step_positivity_under_cfl(lif):
    # spiky profile, CFL 0.9: first-order upwind must stay nonnegative
    th = np.linspace(0.0, TWO_PI, 257)
    prof = 0.01 + np.exp(40.0 * (np.cos(th - 2.0) - 1.0))
    field = DensityField.from_profile(lif, -0.1, prof)
    dt = 0.9 * field.dtheta / float((lif.omega - 0.1 * lif.prc(th) * field.J0).max())
    for _ in range(400):
        field = step(field, lif, -0.1, dt)
        assert field.rho.min() >= 0.0


def test_step_stationary_is_discrete_fixed_point(lif):
    # sampled stationary density makes every node flux equal J*, so the
    # flux-form update vanishes identically: the residual sits at rounding
    # level and does not grow
    from pulsefield import solve_stationary_flux
    stat = solve_stationary_flux(lif, -0.1, n_theta=1024)
    field = DensityField(stat.rho_star.theta, stat.rho_star.rho.copy(),
                         stat.J_star, 0.0)
    dt = 0.5 * field.dtheta / float((lif.omega - 0.1 * lif.prc(field.theta)
                                     * field.J0).max())
    for _ in range(10_000):
        field = step(field, lif, -0.1, dt)
    assert np.abs(field.rho - stat.rho_star.rho).max() < 1e-13


def test_terminal_flux_offset_first_order_in_grid(lif):
    # evolved solutions converge to a discrete steady flux within O(dtheta)
    # of J*: halving the spacing roughly halves the offset
    from pulsefield import solve_stationary_flux
    offsets = []
    for n in (512, 1024):
        stat = solve_stationary_flux(lif, -0.1, n_theta=n)
        ic = initial_density("perturbed", n, lif, -0.1, epsilon=0.2, reference=stat)
        traj = integrate(lif, -0.1, ic, t_max=25.0)
        offsets.append(abs(traj.J0[-1] - stat.J_star))
    assert 1.4 < offsets[0] / offsets[1] < 2.8


def test_mass_telescopes_over_many_steps(lif):
    field = initial_density("vonmises", 256, lif, -0.1, kappa=1.0)
    dtheta = field.dtheta
    masses = [field.mass]
    for _ in range(100_000):
        dt = 0.5 * dtheta / float((lif.omega - 0.1 * lif.prc(field.theta)
                                   * field.J0).max())
        field = step(field, lif, -0.1, dt)
    masses.append(field.mass)
    assert abs(masses[1] - masses[0]) < 1e-6  # observed: ~1e-15


@settings(max_examples=25, deadline=None)
@given(prof=positive_profiles())
@example(prof=VONMISES_512)
def test_aligned_rotation(lif, prof):
    # K = 0 at Courant number 1: one upwind step rotates nodes 1..N
    field = DensityField.from_profile(lif, 0.0, prof)
    dt = field.dtheta / lif.omega
    before = field.rho.copy()
    out = step(field, lif, 0.0, dt)
    assert np.max(np.abs(out.rho[1:] - np.roll(before[1:], 1))) < 1e-15


@settings(max_examples=25, deadline=None)
@given(prof=positive_profiles(), K=st.floats(-0.4, 0.0), cfl=st.floats(0.05, 1.0))
def test_kernel_mass_and_positivity(lif, prof, K, cfl):
    # K <= 0 contracts for an increasing response curve; log every step so
    # rho_min and mass are seen after each of the 2000 CFL-chosen steps
    field = DensityField.from_profile(lif, K, prof)
    traj = integrate(lif, K, field, t_max=1e6, cfl=cfl, log_stride=1, max_steps=2000)
    assert traj.stop_reason == "max_steps"
    assert traj.rho_min.min() >= 0.0
    assert np.abs(traj.mass - traj.mass[0]).max() <= 1e-12


STEP_MODELS = {"lif": lif_model(2.1, 2.0), "homoclinic": homoclinic_model(1.0, 1.0, TWO_PI)}


def reference_step(rho, J0, t, dt, dtheta, omega, K, z, eps_sing, flux_cap, cfl):
    """The upwind step written out plainly: full velocity array, its min and
    max by scan, a copied density, then the boundary relation."""
    v = omega + K * z * J0
    vmin = float(v.min())
    if vmin <= eps_sing * omega:
        kind = "density" if K * z[0] < 0.0 or K * z[-1] < 0.0 else "flux"
        raise BlowupError(BlowupEvent(t, kind, {
            "min_velocity": vmin, "stall_threshold": eps_sing * omega, "flux": J0}))
    vmax = float(v.max())
    if cfl is not None:
        dt = min(cfl * dtheta / vmax, dt)
    if dt * vmax > dtheta * (1.0 + 1e-12):
        raise CFLError(f"dt={dt:.3e} exceeds dtheta/max(v)={dtheta / vmax:.3e}")
    flux = v * rho
    flux[0] = J0
    flux[-1] = J0
    rho_new = rho.copy()
    rho_new[1:] -= (dt / dtheta) * (flux[1:] - flux[:-1])
    t_new, z0, z_end = t + dt, z[0], z[-1]
    den = 1.0 - K * z_end * rho_new[-1]
    if den <= eps_sing:
        raise BlowupError(BlowupEvent(t_new, "flux", {
            "rho_end": rho_new[-1], "rho_critical": 1.0 / (K * z_end),
            "denominator": den, "eps_sing": eps_sing}))
    J0_new = omega * rho_new[-1] / den
    if J0_new > flux_cap:
        raise BlowupError(BlowupEvent(t_new, "flux", {"flux": J0_new, "flux_cap": flux_cap}))
    v0 = omega + K * z0 * J0_new
    if v0 <= eps_sing * omega:
        raise BlowupError(BlowupEvent(t_new, "density", {
            "velocity_at_zero": v0, "flux": J0_new,
            "flux_critical": omega / abs(K * z0) if K * z0 < 0 else math.inf}))
    rho_new[0] = J0_new / v0
    return rho_new, J0_new, dt


def _outcome(fn):
    try:
        return fn()
    except (BlowupError, CFLError) as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(STEP_MODELS)), prof=positive_profiles(),
       K=st.floats(-0.4, 0.4), J0=st.floats(-20.0, 60.0), dt_frac=st.floats(0.01, 1.5),
       cfl=st.none() | st.floats(0.05, 1.0))
@example(name="lif", prof=VONMISES_512, K=-0.4, J0=60.0, dt_frac=0.5, cfl=None)
def test_upwind_step_matches_reference(name, prof, K, J0, dt_frac, cfl):
    # same rho, J0 and dt bits as the plain formula, or the same exception
    model = STEP_MODELS[name]
    theta = np.linspace(0.0, TWO_PI, prof.size)
    dtheta = float(theta[1] - theta[0])
    z = model.prc(theta)
    kz = K * z
    dt = dt_frac * dtheta / model.omega
    cap = default_flux_cap(model.omega)
    rho = prof.copy()
    got = _outcome(lambda: _upwind_step(
        rho, np.empty_like(rho), np.empty_like(rho), J0, 0.5, dt, dtheta, model.omega,
        kz, float(kz.min()), float(kz.max()), EPS_SING, cap, cfl=cfl))
    want = _outcome(lambda: reference_step(prof.copy(), J0, 0.5, dt, dtheta, model.omega,
                                           K, z, EPS_SING, cap, cfl))
    event(want.event.kind if isinstance(want, BlowupError) else type(want).__name__)
    assert rho.tobytes() == prof.tobytes()
    assert type(got) is type(want)
    if isinstance(want, BlowupError):
        assert got.event == want.event
    elif isinstance(want, CFLError):
        assert str(got) == str(want)
    else:
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1] and got[2] == want[2]


def test_integrate_converges_to_stationary_flux(lif):
    from pulsefield import solve_stationary_flux
    stat = solve_stationary_flux(lif, -0.1, n_theta=512)
    ic = initial_density("perturbed", 512, lif, -0.1, epsilon=0.2, reference=stat)
    traj = integrate(lif, -0.1, ic, t_max=10.0, reference=stat)
    assert abs(traj.J0[-1] - stat.J_star) < 0.02
    assert traj.blowup is None
    assert traj.stop_reason == "t_max"
    assert traj.v_eval_failures == 0
    assert np.abs(traj.mass - 1.0).max() < 1e-9
    # flux stays inside the first-crossing window
    jmin, jmax = traj.J_window
    assert np.all(traj.dense_J0 >= jmin - 0.01 * (jmax - jmin) - 1e-9)
    assert np.all(traj.dense_J0 <= jmax + 0.01 * (jmax - jmin) + 1e-9)


def test_integrate_excitatory_blowup(lif):
    ic = initial_density("vonmises", 512, lif, 0.1, kappa=1.0)
    traj = integrate(lif, 0.1, ic, t_max=100.0)
    assert traj.blowup is not None
    assert traj.blowup.kind == "flux"
    assert traj.blowup.t_fin < 100.0
    assert traj.event[-1] == "flux_blowup"
    assert traj.stop_reason == "blowup"


def test_integrate_max_steps_reported(lif, stat_inhib):
    # the fig1 run cut after 100 steps stops far short of t_max and says so
    ic = initial_density("perturbed", 2048, lif, -0.1, epsilon=0.2,
                         reference=stat_inhib)
    traj = integrate(lif, -0.1, ic, t_max=12.0, max_steps=100)
    assert traj.t[-1] < 1.0
    summary = traj.summary()
    assert summary["stop_reason"] == "max_steps"
    assert summary["n_steps"] == 100
    assert summary["blowup"] is None


def test_v_eval_failures_counted(lif, stat_inhib, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("degenerate quantile profile")

    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin", broken)
    ic = initial_density("perturbed", 256, lif, -0.1, epsilon=0.1,
                         reference=stat_inhib)
    traj = integrate(lif, -0.1, ic, t_max=0.5, reference=stat_inhib)
    assert np.isnan(traj.V).all()
    assert traj.summary()["v_eval_failures"] == traj.t.size > 1


def test_v_bug_propagates(lif, stat_inhib, monkeypatch):
    # only an undefined V (a ValueError) is a counted failure; any other
    # exception from V is a bug and must not turn into NaN rows
    def broken(*args, **kwargs):
        raise TypeError("V called with the wrong object")

    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin", broken)
    ic = initial_density("perturbed", 256, lif, -0.1, epsilon=0.1,
                         reference=stat_inhib)
    with pytest.raises(TypeError):
        integrate(lif, -0.1, ic, t_max=0.5, reference=stat_inhib)


def test_integrate_density_blowup_inhibitory_expanding():
    # decreasing response curve with K < 0: K*Z' > 0 and K*Z(0) < 0, so the
    # velocity stalls at the firing phase and the density piles up there
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    th = np.linspace(0.0, TWO_PI, 513)
    ic = DensityField.from_profile(m, -0.05, np.exp(1.5 * np.cos(th - 2.0)))
    traj = integrate(m, -0.05, ic, t_max=200.0)
    assert traj.blowup is not None
    assert traj.blowup.kind == "density"


def test_neutral_run_periodic(lif):
    ic = initial_density("vonmises", 512, lif, 0.0, kappa=2.0)
    period = TWO_PI / lif.omega
    traj = integrate(lif, 0.0, ic, t_max=period, dt=ic.dtheta / lif.omega,
                     log_stride=8)
    assert abs(traj.J0[-1] - traj.J0[0]) < 1e-12 * max(1.0, traj.J0[0])
    assert abs(traj.t[-1] - period) < 1e-9


def test_characteristic_trace_no_coupling(lif):
    ic = initial_density("vonmises", 512, lif, 0.0, kappa=1.0)
    traj = integrate(lif, 0.0, ic, t_max=2.0)
    tr = characteristic_trace(traj, lif, 0.0, theta_start=1.0)
    assert not tr.truncated
    # pure rotation: crossing after (2*pi - theta_start)/omega, density constant
    assert abs(tr.crossing_time - (TWO_PI - 1.0) / lif.omega) < 1e-6
    assert abs(tr.rho[-1] - tr.rho[0]) < 1e-12


def test_characteristic_trace_constant_prc(unit_speed):
    # Z' = 0: density constant along every characteristic even with coupling
    ic = initial_density("vonmises", 512, unit_speed, 0.2, kappa=1.0)
    traj = integrate(unit_speed, 0.2, ic, t_max=1.0)
    tr = characteristic_trace(traj, unit_speed, 0.2, theta_start=2.0)
    assert abs(tr.rho[-1] - tr.rho[0]) < 1e-12


def test_characteristic_trace_matches_grid(lif, stat_inhib):
    ic = initial_density("perturbed", 1024, lif, -0.1, epsilon=0.2,
                         reference=stat_inhib)
    traj = integrate(lif, -0.1, ic, t_max=4.0, reference=stat_inhib)
    tr = characteristic_trace(traj, lif, -0.1, theta_start=math.pi)
    assert not tr.truncated
    j_cross = float(np.interp(tr.crossing_time, traj.dense_t, traj.dense_J0))
    rho_grid = j_cross / (lif.omega + (-0.1) * lif.prc(TWO_PI) * j_cross)
    assert abs(tr.rho_at_crossing - rho_grid) / rho_grid < 0.02


def test_admissibility_sign_rule(lif, stat_inhib):
    # K*Z <= 0 everywhere (inhibitory increasing PRC): any positive profile
    th = np.linspace(0.0, TWO_PI, 257)
    rep = check_admissibility(np.exp(np.cos(th)), lif, -0.1)
    assert rep.verdict is AdmissibilityVerdict.ALWAYS_BY_SIGN
    assert rep.admissible


def test_admissibility_sufficient_bound():
    # contracting with positive boundary response: K*Z' < 0, K*Z(2*pi) > 0
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    th = np.linspace(0.0, TWO_PI, 257)
    prof = np.full(257, 1.0 / TWO_PI)
    rep = check_admissibility(prof, m, 0.05)
    assert rep.verdict is AdmissibilityVerdict.SUFFICIENT_BOUND


def test_admissibility_numerical_blowup(lif):
    # boundary density already past critical: flux singular on first crossing
    K = 0.1
    th = np.linspace(0.0, TWO_PI, 257)
    crit = 1.0 / (K * lif.prc(TWO_PI))
    prof = np.full(257, 0.05)
    prof[-32:] = np.linspace(0.05, 2.0 * crit, 32)
    rep = check_admissibility(prof, lif, K)
    assert rep.verdict is AdmissibilityVerdict.NUMERICAL_BLOWUP
    assert not rep.admissible


def test_admissibility_numerical_ok(lif):
    # expanding dynamics from a gentle profile survives the first crossing
    th = np.linspace(0.0, TWO_PI, 257)
    rep = check_admissibility(np.full(257, 1.0 / TWO_PI), lif, 0.1)
    assert rep.verdict is AdmissibilityVerdict.NUMERICAL_OK


@pytest.mark.parametrize("prof", [np.zeros(9), np.eye(1, 9).ravel()],
                         ids=["zeros", "mass_only_at_node_0"])
def test_zero_mass_profile_rejected(lif, prof):
    # no positive mass to normalize: an error, not an all-NaN field that
    # integrate would march to max_steps
    with pytest.raises(ValueError, match="mass"):
        DensityField.from_profile(lif, 0.1, prof)
    with pytest.raises(ValueError, match="mass"):
        check_admissibility(prof, lif, 0.1)


def test_trajectory_csv_round_trip(tmp_path, lif, stat_inhib):
    ic = initial_density("perturbed", 256, lif, -0.1, epsilon=0.1,
                         reference=stat_inhib)
    traj = integrate(lif, -0.1, ic, t_max=1.0, reference=stat_inhib)
    p = tmp_path / "trajectory.csv"
    traj.to_csv(p)
    back = TrajectoryLog.from_csv(p)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.J0, traj.J0)
    assert np.array_equal(back.V, traj.V)
    assert back.blowup is None

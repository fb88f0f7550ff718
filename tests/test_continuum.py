import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pulsefield import (AdmissibilityVerdict, BlowupError, CFLError, DensityField,
                        StationaryState, check_admissibility, homoclinic_model,
                        initial_density, integrate, lif_model, tabulated_model)
from pulsefield.continuum import (EPS_SING, RING_FLOATS, BlowupEvent, TrajectoryLog,
                                  _advance_boundary, flux_cap)
from pulsefield import continuum
from pulsefield.quantile import lyapunov_tv_with_qmin, quantile_transform
from oracles import characteristic_trace, step

TWO_PI = 2.0 * math.pi

# raw von Mises profile of initial_density("vonmises", 512, ..., kappa=2.0)
VONMISES_512 = np.exp(2.0 * (np.cos(np.linspace(0.0, TWO_PI, 513) - math.pi) - 1.0))


# n 256 profiles for the Courant-number-1 examples: seeded U(0.05, 1) node
# values, and a bump that is exactly zero on [0, pi/2] and [pi, 3*pi/2]
_TH_256 = np.linspace(0.0, TWO_PI, 257)
RANDOM_256 = np.random.default_rng(0).uniform(0.05, 1.0, 257)
PLATEAU_256 = np.where((_TH_256 % math.pi) < 0.5 * math.pi, 0.0, 1.0 + np.sin(4.0 * _TH_256) ** 2)


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
                           K * model.prc(TWO_PI), math.inf)
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
    # the jump at theta = 0+: rho(0) over the normalized profile's node 0
    prof = np.exp(np.cos(th))
    assert field.boundary_jump == field.rho[0] / (prof[0] / (np.sum(prof[1:]) * (th[1] - th[0])))
    # a profile that is 0 at node 0 carries no finite ratio
    assert DensityField.from_profile(lif, -0.1, th.copy()).boundary_jump is None


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
    # level and does not grow over 10 000 fixed-dt steps in one run (the
    # same bits as 10 000 step() calls)
    from pulsefield import solve_stationary_flux
    stat = solve_stationary_flux(lif, -0.1, n_theta=1024)
    field = DensityField(stat.rho_star.theta, stat.rho_star.rho.copy(),
                         stat.J_star, 0.0)
    dt = 0.5 * field.dtheta / float((lif.omega - 0.1 * lif.prc(field.theta)
                                     * field.J0).max())
    traj = integrate(lif, -0.1, field, t_max=math.inf, dt=dt, max_steps=10_000)
    assert traj.n_steps == 10_000
    assert np.abs(traj.final.rho - stat.rho_star.rho).max() < 1e-13


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
    # 100 000 CFL steps in one run (the same bits as 100 000 step() calls),
    # the mass checked on every logged row
    field = initial_density("vonmises", 256, lif, -0.1, kappa=1.0)
    traj = integrate(lif, -0.1, field, t_max=math.inf, cfl=0.5, max_steps=100_000)
    assert traj.n_steps == 100_000 and traj.t.size == 5001
    assert np.max(np.abs(traj.mass - field.mass)) < 1e-6  # observed: ~5e-15


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
@example(prof=RANDOM_256, K=-0.4, cfl=1.0)
@example(prof=RANDOM_256, K=0.0, cfl=1.0)
@example(prof=PLATEAU_256, K=-0.4, cfl=1.0)
@example(prof=PLATEAU_256, K=0.0, cfl=1.0)
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
    # a blow-up after the update is dated at the step's start, as a stall is
    z0, z_end = z[0], z[-1]
    den = 1.0 - K * z_end * rho_new[-1]
    if den <= eps_sing:
        raise BlowupError(BlowupEvent(t, "flux", {
            "rho_end": rho_new[-1], "rho_critical": 1.0 / (K * z_end),
            "denominator": den, "eps_sing": eps_sing}))
    J0_new = omega * rho_new[-1] / den
    if J0_new > flux_cap:
        raise BlowupError(BlowupEvent(t, "flux", {"flux": J0_new, "flux_cap": flux_cap}))
    v0 = omega + K * z0 * J0_new
    if v0 <= eps_sing * omega:
        raise BlowupError(BlowupEvent(t, "density", {
            "velocity_at_zero": v0, "flux": J0_new,
            "flux_critical": omega / abs(K * z0) if K * z0 < 0 else math.inf}))
    rho_new[0] = J0_new / v0
    return rho_new, J0_new, dt


def _outcome(fn):
    try:
        return fn()
    except (BlowupError, CFLError) as exc:
        return exc


def kernel_pass(model, K, field, dt, cfl):
    """One pass of integrate's loop from ``field`` at t = 0: ``step`` with a
    fixed dt, or integrate to t_max = dt with the CFL step (capped at
    t_max - t, which is dt itself)."""
    if cfl is None:
        return step(field, model, K, dt)
    traj = integrate(model, K, field, t_max=dt, cfl=cfl, max_steps=1)
    if traj.blowup is not None:
        raise BlowupError(traj.blowup)
    return traj.final


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(STEP_MODELS)), prof=positive_profiles(),
       K=st.floats(-0.4, 0.4), J0=st.floats(-20.0, 60.0), dt_frac=st.floats(0.01, 1.5),
       cfl=st.none() | st.floats(0.05, 1.0))
@example(name="lif", prof=VONMISES_512, K=-0.4, J0=60.0, dt_frac=0.5, cfl=None)
@example(name="lif", prof=RANDOM_256, K=-0.4, J0=0.2, dt_frac=1.5, cfl=1.0)
def test_upwind_step_matches_reference(name, prof, K, J0, dt_frac, cfl):
    # the loop's kernel gives the same rho, J0 and dt bits as the plain
    # formula, or the same exception; it starts at t = 0, so the new field's
    # t is the step size
    model = STEP_MODELS[name]
    theta = np.linspace(0.0, TWO_PI, prof.size)
    dtheta = float(theta[1] - theta[0])
    z = model.prc(theta)
    dt = dt_frac * dtheta / model.omega
    cap = flux_cap(model.omega)
    rho = prof.copy()
    got = _outcome(lambda: kernel_pass(model, K, DensityField(theta, rho, J0, 0.0), dt, cfl))
    want = _outcome(lambda: reference_step(prof.copy(), J0, 0.0, dt, dtheta, model.omega,
                                           K, z, EPS_SING, cap, cfl))
    event(want.event.kind if isinstance(want, BlowupError) else type(want).__name__)
    assert rho.tobytes() == prof.tobytes()
    if isinstance(want, BlowupError):
        assert type(got) is BlowupError and got.event == want.event
    elif isinstance(want, CFLError):
        assert type(got) is CFLError and str(got) == str(want)
    else:
        assert type(got) is DensityField
        assert got.rho.tobytes() == want[0].tobytes()
        assert got.J0 == want[1] and got.t == want[2]


def reference_run(model, K, field, t_max, cfl=0.5, dt=None, log_stride=20,
                  snapshot_times=()):
    """integrate's stepping as a plain loop of reference steps: the final
    density, the dense time and flux histories, the steps taken, the blow-up
    event (or None), the first crossing (time and flux window, or None and
    None), the step indices of the logged rows and the snapshots as (step
    index, density).  A fixed ``dt`` stops at the nearest multiple of it."""
    theta = field.theta
    z = model.prc(theta)
    omega, prc = model.omega, model._prc_fn
    cap = flux_cap(omega)
    rho, J0, t = field.rho.copy(), field.J0, field.t
    dense_t, dense_j, steps = [t], [J0], []
    blow, lam, t_cross = None, 0.0, None
    logged, snaps, pending = [0], [], sorted(snapshot_times)
    while (t < t_max) if dt is None else (t_max - t >= 0.5 * dt):
        try:
            # the CFL step capped at the time left, or the fixed dt
            rho, J0_new, h = reference_step(rho, J0, t, t_max - t if dt is None else dt,
                                            field.dtheta, omega, K, z, EPS_SING, cap,
                                            cfl if dt is None else None)
        except BlowupError as exc:
            blow = exc.event
            logged.append(len(steps))
            break
        # the first-crossing characteristic as integrate once traced it
        # inside its loop: one RK2 step alongside each kernel step
        if t_cross is None:
            v1 = omega + K * float(prc(min(lam, TWO_PI))) * J0
            lam_mid = lam + 0.5 * h * v1
            v2 = omega + K * float(prc(min(lam_mid, TWO_PI))) * (0.5 * (J0 + J0_new))
            lam_new = lam + h * v2
            if lam_new >= TWO_PI:
                frac = (TWO_PI - lam) / (lam_new - lam)
                t_cross = t + frac * h
            lam = lam_new
        J0 = J0_new
        t += h
        dense_t.append(t)
        dense_j.append(J0)
        steps.append(h)
        n = len(steps)
        while pending and t >= pending[0] - 1e-12:
            snaps.append((n, rho.copy()))
            pending.pop(0)
        if n % log_stride == 0:
            logged.append(n)
    if blow is None and logged[-1] != len(steps):
        logged.append(len(steps))
    dense_t, dense_j = np.asarray(dense_t), np.asarray(dense_j)
    window = None
    if t_cross is not None:
        m = dense_t <= t_cross + 1e-15
        window = (float(dense_j[m].min()), float(dense_j[m].max()))
    return rho, dense_t, dense_j, steps, blow, (t_cross, window), logged, snaps


def _least_float(f, target, x):
    """The least float near ``x`` where the rising f(x) >= ``target``."""
    while f(x) >= target:
        x = math.nextafter(x, -math.inf)
    while f(x) < target:
        x = math.nextafter(x, math.inf)
    return x


def _loop_case(lif, case):
    """(K, initial field, t_max, integrate keywords) of a reference-loop case;
    snapshot times are placed against the plain loop's own step times."""
    from pulsefield import solve_stationary_flux
    if case == "excitatory_blowup":
        return 0.1, initial_density("vonmises", 256, lif, 0.1, kappa=1.0), 100.0, {}
    K = -0.1
    ic = initial_density("perturbed", 256, lif, K, epsilon=0.2,
                         reference=solve_stationary_flux(lif, K, n_theta=256))
    if case == "fig1_n256":
        return K, ic, 12.0, {}
    if case == "fig1_n256_before_crossing":
        return K, ic, 1.0, {}
    if case == "aligned_fixed_dt":
        # the aligned step dtheta/omega, which K < 0 keeps under the CFL
        # limit; t_max is the least float half a step past step 500, so
        # stepping just goes on there
        dt = ic.dtheta / lif.omega
        t_500 = float(reference_run(lif, K, ic, 3.3, dt=dt)[1][500])
        t_max = _least_float(lambda x: x - t_500, 0.5 * dt, t_500 + 0.5 * dt)
        return K, ic, t_max, {"dt": dt, "log_stride": 7, "snapshot_times": (1.0, t_max)}
    if case == "dyadic_fixed_dt":
        # dt = 2**-8 sums exactly: t_max - t is half a step after step 500
        # with no rounding, a tie that goes on stepping
        dt = 2.0**-8
        return K, ic, 500.5 * dt, {"dt": dt, "log_stride": 20}
    t_max = 2.0
    ts = reference_run(lif, K, ic, t_max)[1].tolist()
    snapshot_times = (
        ts[40], 0.5 * (ts[10] + ts[11]),     # on a step; between steps
        ts[10], ts[10],                      # duplicated, on a step
        ts[25] + 5e-13,                      # within the 1e-12 slack
        _least_float(lambda x: x - 1e-12, ts[30], ts[30] + 1e-12),   # at its edge
        t_max + 1.0, -1.0, 0.0)              # past t_max; before the start
    stride = {"log_stride_1": 1, "log_stride_7": 7, "log_stride_20": 20}[case]
    return K, ic, t_max, {"log_stride": stride, "snapshot_times": snapshot_times}


@pytest.mark.parametrize("case", ["fig1_n256", "fig1_n256_before_crossing",
                                  "excitatory_blowup", "log_stride_1", "log_stride_7",
                                  "log_stride_20", "aligned_fixed_dt", "dyadic_fixed_dt"])
def test_integrate_matches_reference_loop(lif, case):
    # many passes of the inline kernel, bit for bit: fig1 (K = -0.1,
    # perturbed stationary start) to t = 12 and to t = 1, before the first
    # crossing, fig2's excitatory run to its flux blow-up, fig1 with log
    # strides 1, 7 and 20 and snapshot times in every place, and two fixed
    # steps that stop right at the half-step rule's edge;
    # the crossing traced after the loop from the recorded steps matches the
    # one traced alongside them, and rows and snapshots come from the same
    # steps as the plain loop's
    K, ic, t_max, kwargs = _loop_case(lif, case)
    traj = integrate(lif, K, ic, t_max=t_max, **kwargs)
    (rho, dense_t, dense_j, steps, blow, (t_cross, j_window), logged,
     snaps) = reference_run(lif, K, ic, t_max, **kwargs)
    assert (blow is None) == (case != "excitatory_blowup")
    assert (t_cross is None) == case.endswith("before_crossing")
    assert traj.blowup == blow
    assert traj.final.rho.tobytes() == rho.tobytes()
    assert traj.dense_t.tobytes() == dense_t.tobytes()
    assert traj.dense_J0.tobytes() == dense_j.tobytes()
    assert traj.first_crossing_time == t_cross
    assert traj.J_window == j_window
    assert traj.t.tobytes() == dense_t[logged].tobytes()
    assert traj.J0.tobytes() == dense_j[logged].tobytes()
    assert [t for t, _ in traj.snapshots] == [dense_t[n] for n, _ in snaps]
    assert [a.tobytes() for _, a in traj.snapshots] == [a.tobytes() for _, a in snaps]
    if "snapshot_times" in kwargs and "dt" not in kwargs:
        # two duplicates on one step, one past t_max never taken
        assert len(snaps) == len(kwargs["snapshot_times"]) - 1
    if "dt" in kwargs:
        assert len(steps) == 501
    # the reported step range is that of the steps taken
    summary = traj.summary()
    assert (summary["dt_min"], summary["dt_max"]) == (min(steps), max(steps))


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


def test_v_evaluated_once_per_logged_row(lif, stat_inhib, monkeypatch):
    # one V per logged row, called through the module name that
    # bench/spans.py traces as quantile.v
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lyapunov_tv_with_qmin(*args, **kwargs)

    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin", counted)
    ic = initial_density("perturbed", 256, lif, -0.1, epsilon=0.1,
                         reference=stat_inhib)
    traj = integrate(lif, -0.1, ic, t_max=0.5, reference=stat_inhib)
    assert len(calls) == traj.t.size > 2
    assert np.isfinite(traj.V).all()


# fig1's model at n_theta 512 to t = 12 logs 395 rows; past the ring's first
# RING_FLOATS // 512 rows, with more than a ring of rows still to come, a
# forked helper evaluates V when two CPUs are usable
HELPER_N = 512
HELPER_COLUMNS = ("t", "J0", "mass", "rho_min", "rho_max", "V", "q_min")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _helper_run(lif, stat, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    ic = initial_density("perturbed", HELPER_N, lif, -0.1, epsilon=0.2, reference=stat)
    try:
        return integrate(lif, -0.1, ic, t_max=12.0, reference=stat)
    finally:
        _assert_no_child()


def _assert_same_log(a, b):
    for name in HELPER_COLUMNS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.event == b.event
    assert a.v_eval_failures == b.v_eval_failures


def _v_failing_below(threshold, exc, flag=None):
    """V that raises ``exc`` on every row whose V is at most ``threshold``,
    touching ``flag`` first when it raises in another process."""
    parent = os.getpid()

    def v(state, ref):
        result = lyapunov_tv_with_qmin(state, ref)
        if result[0] <= threshold:
            if flag is not None and os.getpid() != parent:
                flag.touch()
            raise exc("V failed on purpose")
        return result
    return v


def test_v_helper_matches_one_cpu_bit_for_bit(lif, stat_inhib, monkeypatch):
    serial = _helper_run(lif, stat_inhib, monkeypatch, 1)
    helped = _helper_run(lif, stat_inhib, monkeypatch, 2)
    ring = RING_FLOATS // HELPER_N
    assert serial.t.size > ring + 50
    assert serial.v_helper_rows == 0
    assert 0 < helped.v_helper_rows <= serial.t.size - ring
    assert helped.summary()["v_helper_rows"] == helped.v_helper_rows
    _assert_same_log(helped, serial)
    assert np.isfinite(helped.V).all()


@pytest.mark.parametrize("rings", [1, 3])
def test_v_helper_starts_with_a_ring_of_rows_to_come(lif, stat_inhib, monkeypatch, rings):
    # fixed-dt runs logging every step: at one ring and one row the helper
    # would get the last row alone, so nothing forks; at three rings it
    # starts, and the log keeps the bits of a run that may not fork
    ring = RING_FLOATS // HELPER_N
    ic = initial_density("perturbed", HELPER_N, lif, -0.1, epsilon=0.2,
                         reference=stat_inhib)
    dt = ic.dtheta / lif.omega

    def run():
        try:
            return integrate(lif, -0.1, ic, t_max=rings * ring * dt, dt=dt, log_stride=1,
                             reference=stat_inhib)
        finally:
            _assert_no_child()

    monkeypatch.setattr(continuum, "fork_cpus", set)
    serial = run()
    assert serial.t.size == rings * ring + 1
    monkeypatch.setattr(continuum, "fork_cpus", lambda: {0, 1})
    if rings == 1:
        def no_fork():
            raise AssertionError("forked a V helper")
        monkeypatch.setattr(os, "fork", no_fork)
    helped = run()
    assert (helped.v_helper_rows > 0) == (rings == 3)
    _assert_same_log(helped, serial)


@pytest.mark.parametrize("reference", [False, True], ids=["no_reference", "reference"])
def test_step_history_memory_per_step(lif, stat_inhib, monkeypatch, reference):
    # the per-step flux and step size and the logged columns are float64
    # buffers: 20 000 steps at n_theta 64 peak near 25 traced bytes a step
    # (two buffers, their growth slack and dense_t) and 60-70 a logged row
    # (seven columns and the event), where lists of floats took about 100
    # and 270.  With a reference every fifth step logs a row: the first ring
    # of rows takes V in process, the helper the rest
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ic = initial_density("vonmises", 64, lif, -0.1)
    kw = {"reference": stat_inhib, "log_stride": 5} if reference else {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = integrate(lif, -0.1, ic, t_max=math.inf, cfl=1.0, max_steps=20_000, **kw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        _assert_no_child()
    assert traj.n_steps == 20_000
    if reference:
        assert 0 < traj.v_helper_rows <= traj.t.size - RING_FLOATS // 64
        assert np.isfinite(traj.V).all()
    # a row's share is 96 bytes: the rows in flight to a lagging helper and
    # the GridReference add to the seven columns
    assert peak <= 32 * traj.n_steps + (96 * traj.t.size if reference else 0), \
        (peak, traj.t.size)


def test_v_bug_in_helper_propagates(lif, stat_inhib, monkeypatch, tmp_path):
    # a TypeError from V in the helper ends it; the parent evaluates that row
    # again and raises, as an in-process run does
    serial = _helper_run(lif, stat_inhib, monkeypatch, 1)
    threshold = serial.V[150]
    assert (serial.V[:RING_FLOATS // HELPER_N + 1] > threshold).all()
    flag = tmp_path / "raised_in_helper"
    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin",
                        _v_failing_below(threshold, TypeError, flag))
    with pytest.raises(TypeError, match="on purpose"):
        _helper_run(lif, stat_inhib, monkeypatch, 2)
    assert flag.exists()


def test_v_failure_in_helper_counted_as_in_process(lif, stat_inhib, monkeypatch, tmp_path):
    serial = _helper_run(lif, stat_inhib, monkeypatch, 1)
    threshold = serial.V[150]
    flag = tmp_path / "raised_in_helper"
    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin",
                        _v_failing_below(threshold, ValueError, flag))
    serial = _helper_run(lif, stat_inhib, monkeypatch, 1)
    helped = _helper_run(lif, stat_inhib, monkeypatch, 2)
    assert flag.exists()
    assert helped.v_helper_rows > 0
    assert helped.v_eval_failures == np.isnan(helped.V).sum() > 0
    _assert_same_log(helped, serial)


def test_v_helper_dying_loses_no_row(lif, stat_inhib, monkeypatch):
    serial = _helper_run(lif, stat_inhib, monkeypatch, 1)
    parent, calls = os.getpid(), []

    def dying(state, ref):
        # the helper's own copy of `calls` counts its rows
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == 5:
                os._exit(1)
        return lyapunov_tv_with_qmin(state, ref)

    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin", dying)
    helped = _helper_run(lif, stat_inhib, monkeypatch, 2)
    assert calls == []
    assert helped.v_helper_rows == 4
    _assert_same_log(helped, serial)
    assert np.isfinite(helped.V).all()


def _slow_in_helper(seconds):
    parent = os.getpid()

    def v(state, ref):
        if os.getpid() != parent:
            time.sleep(seconds)
        return lyapunov_tv_with_qmin(state, ref)
    return v


@pytest.mark.parametrize("ring_rows,seconds", [(1, 0.002), (8, 0.01)])
def test_lagging_helper_never_holds_the_run_back(lif, stat_inhib, monkeypatch, ring_rows,
                                                 seconds):
    # with every slot of a small ring taken the parent evaluates the row
    # itself, and a slot is reused only once the helper has finished it
    serial = _helper_run(lif, stat_inhib, monkeypatch, 1)
    monkeypatch.setattr(continuum, "RING_FLOATS", ring_rows * HELPER_N)
    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin",
                        _slow_in_helper(seconds))
    helped = _helper_run(lif, stat_inhib, monkeypatch, 2)
    assert 0 < helped.v_helper_rows < serial.t.size // 2
    _assert_same_log(helped, serial)


def test_raising_mid_run_reaps_a_busy_helper(lif, stat_inhib, monkeypatch):
    # an exception in the stepping loop while rows are in flight
    real, steps = continuum._advance_boundary, []

    def failing(*args):
        steps.append(1)
        if len(steps) == 3500:
            raise RuntimeError("stepping failed on purpose")
        return real(*args)

    monkeypatch.setattr(continuum, "_advance_boundary", failing)
    monkeypatch.setattr("pulsefield.continuum.lyapunov_tv_with_qmin",
                        _slow_in_helper(10.0))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="on purpose"):
        _helper_run(lif, stat_inhib, monkeypatch, 2)
    assert time.perf_counter() - t0 < 5.0


@st.composite
def v_run_cases(draw):
    """A start profile, sometimes with a zero plateau, and how to make the
    reference: an independent profile, the start density itself, or the
    start density with some values moved by an ulp (knots at or next to
    the reference's)."""
    n = draw(st.sampled_from([16, 64, 256]))
    prof = draw(arrays(float, n + 1, elements=st.floats(0.05, 1.0)))
    if draw(st.booleans()):
        start = draw(st.integers(1, n - 2))
        prof[start:start + draw(st.integers(2, max(2, n // 4)))] = 0.0
    kind = draw(st.sampled_from(["independent", "identical", "jittered"]))
    other = draw(arrays(float, n + 1, elements=st.floats(0.05, 1.0)))
    nudge = draw(arrays(np.int8, n + 1, elements=st.integers(-1, 1)))
    return prof, kind, other, nudge


@settings(max_examples=60, deadline=None)
@given(case=v_run_cases())
def test_in_run_v_matches_public_formula(lif, case):
    # the grid-bound V of every logged row has the bits of the public
    # functions on that row's density, and raises on the same rows
    prof, kind, other, nudge = case
    ic = DensityField.from_profile(lif, -0.1, prof)
    ref_rho = {"independent": other, "identical": ic.rho.copy(),
               "jittered": np.maximum(np.nextafter(ic.rho, ic.rho + nudge), 0.0)}[kind]
    # a stationary state carrying the drawn reference density
    state = StationaryState(math.nan, DensityField(ic.theta, ref_rho, math.nan),
                            (0.0, math.inf), 0.0, -0.1, lif)
    with np.errstate(over="ignore"):   # q = dtheta/dphi past DBL_MAX is inf
        ref = quantile_transform(ic.theta, ref_rho)
        traj = integrate(lif, -0.1, ic, t_max=math.inf, log_stride=1, snapshot_stride=1,
                         max_steps=4, reference=state)
        failures = 0
        for k, rho in enumerate([ic.rho] + [arr for _, arr in traj.snapshots]):
            try:
                want = lyapunov_tv_with_qmin(quantile_transform(ic.theta, rho), ref)
            except ValueError:
                failures += 1
                assert math.isnan(traj.V[k]) and math.isnan(traj.q_min[k])
                continue
            assert (traj.V[k], traj.q_min[k]) == want
    event(f"{kind}, {'some rows raise' if failures else 'no row raises'}")
    assert k == traj.t.size - 1 == 4
    assert traj.v_eval_failures == failures


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
    # every step is the aligned one, and the summary says so exactly
    summary = traj.summary()
    assert summary["dt_min"] == summary["dt_max"] == ic.dtheta / lif.omega


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


@pytest.mark.parametrize("K, n_theta, t_max", [(-0.1, 256, 2.5), (-0.1, 2048, 2.5),
                                              (0.05, 512, 2.0), (-0.4, 512, 5.0)])
def test_characteristic_trace_from_zero_is_first_crossing(lif, K, n_theta, t_max):
    # the trace walks the run's own steps by first_crossing's RK2: launched
    # from theta = 0 it crosses at the run's first-crossing time, bit for bit
    ic = initial_density("vonmises", n_theta, lif, K, kappa=1.0)
    traj = integrate(lif, K, ic, t_max=t_max)
    tr = characteristic_trace(traj, lif, K, theta_start=0.0)
    assert traj.first_crossing_time is not None and not tr.truncated
    assert tr.crossing_time == traj.first_crossing_time
    assert tr.theta[-1] == TWO_PI and np.all(np.diff(tr.theta) > 0.0)


def test_characteristic_trace_truncated_before_crossing(lif):
    ic = initial_density("vonmises", 256, lif, -0.1, kappa=1.0)
    traj = integrate(lif, -0.1, ic, t_max=1.0)
    tr = characteristic_trace(traj, lif, -0.1, theta_start=0.0)
    assert traj.first_crossing_time is None
    assert tr.truncated and tr.crossing_time is None and tr.rho_at_crossing is None
    assert tr.t.tobytes() == traj.dense_t.tobytes() and tr.theta[-1] < TWO_PI


def test_characteristic_trace_refuses_csv_log(lif, tmp_path):
    ic = initial_density("vonmises", 256, lif, -0.1, kappa=1.0)
    integrate(lif, -0.1, ic, t_max=1.0).to_csv(tmp_path / "trajectory.csv")
    traj = TrajectoryLog.from_csv(tmp_path / "trajectory.csv")
    assert traj.dense_dt is None
    with pytest.raises(ValueError, match="CSV"):
        characteristic_trace(traj, lif, -0.1, theta_start=0.0)


def test_admissibility_sign_rule(lif, stat_inhib):
    # K*Z <= 0 everywhere (inhibitory increasing PRC): any positive profile;
    # K = 0 admits every profile.  The closed forms ignore the run.
    th = np.linspace(0.0, TWO_PI, 257)
    blowup = BlowupEvent(0.5, "flux", {})
    for K in (-0.1, 0.0):
        rep = check_admissibility(DensityField(th, np.exp(np.cos(th)), 0.0), lif, K,
                                  blowup=blowup, first_crossing_time=None)
        assert rep.verdict is AdmissibilityVerdict.ALWAYS_BY_SIGN


def test_admissibility_sufficient_bound():
    # contracting with positive boundary response: K*Z' < 0, K*Z(2*pi) > 0
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    th = np.linspace(0.0, TWO_PI, 257)
    field = DensityField(th, np.full(257, 1.0 / TWO_PI), 0.0)
    rep = check_admissibility(field, m, 0.05, blowup=None, first_crossing_time=None)
    assert rep.verdict is AdmissibilityVerdict.SUFFICIENT_BOUND


def _admissibility_of_run(model, K, prof, t_max):
    field = DensityField.from_profile(model, K, prof)
    traj = integrate(model, K, field, t_max=t_max, log_stride=10**6)
    rep = check_admissibility(field, model, K, blowup=traj.blowup,
                              first_crossing_time=traj.first_crossing_time)
    return rep, traj


def test_admissibility_numerical_blowup(lif):
    # expanding dynamics, mass bunched just below the firing phase: the flux
    # blows up before the characteristic from theta = 0 crosses
    th = np.linspace(0.0, TWO_PI, 257)
    rep, traj = _admissibility_of_run(lif, 0.1, np.exp(10.0 * (np.cos(th - 5.5) - 1.0)),
                                      t_max=60.0 * TWO_PI / lif.omega)
    assert traj.blowup is not None and traj.first_crossing_time is None
    assert rep.verdict is AdmissibilityVerdict.NUMERICAL_BLOWUP
    assert rep.detail == {"blowup": traj.blowup.to_json()}


def test_admissibility_numerical_ok(lif):
    # expanding dynamics from a gentle profile survives the first crossing
    rep, traj = _admissibility_of_run(lif, 0.1, np.full(257, 1.0 / TWO_PI),
                                      t_max=60.0 * TWO_PI / lif.omega)
    assert traj.first_crossing_time < traj.blowup.t_fin
    assert rep.verdict is AdmissibilityVerdict.NUMERICAL_OK
    assert rep.detail == {"first_crossing_time": traj.first_crossing_time}


def test_admissibility_undecided_when_run_ends_first(lif):
    rep, traj = _admissibility_of_run(lif, 0.1, np.full(257, 1.0 / TWO_PI), t_max=0.2)
    assert traj.blowup is None and traj.first_crossing_time is None
    assert rep.verdict is AdmissibilityVerdict.UNDECIDED


def test_admissibility_reads_the_run_without_integrating(lif, monkeypatch):
    # the verdict comes from the blow-up and crossing passed in; a blow-up
    # at the crossing time counts as first
    def no_integration(*args, **kwargs):
        raise AssertionError("check_admissibility integrated")

    monkeypatch.setattr("pulsefield.continuum.integrate", no_integration)
    field = DensityField(np.linspace(0.0, TWO_PI, 257), np.full(257, 1.0 / TWO_PI), 0.0)
    blow = BlowupEvent(1.5, "flux", {"flux": 1e7})
    cases = [(blow, None, AdmissibilityVerdict.NUMERICAL_BLOWUP),
             (blow, 1.5, AdmissibilityVerdict.NUMERICAL_BLOWUP),
             (blow, 1.2, AdmissibilityVerdict.NUMERICAL_OK),
             (None, 1.2, AdmissibilityVerdict.NUMERICAL_OK),
             (None, None, AdmissibilityVerdict.UNDECIDED)]
    for blowup, t_cross, want in cases:
        rep = check_admissibility(field, lif, 0.1, blowup=blowup,
                                  first_crossing_time=t_cross)
        assert rep.verdict is want


@pytest.mark.parametrize("prof", [np.zeros(9), np.eye(1, 9).ravel()],
                         ids=["zeros", "mass_only_at_node_0"])
def test_zero_mass_profile_rejected(lif, prof):
    # no positive mass to normalize: an error, not an all-NaN field that
    # integrate would march to max_steps
    with pytest.raises(ValueError, match="mass"):
        DensityField.from_profile(lif, 0.1, prof)


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


def _random_log(n: int) -> TrajectoryLog:
    """A log of n rows of random floats, every event empty."""
    from dataclasses import replace
    model = lif_model(2.1, 2.0)
    traj = integrate(model, -0.1, initial_density("uniform", 16, model, -0.1), t_max=0.01)
    cols = np.random.default_rng(n).uniform(0.0, 2.0, (7, n))
    return replace(traj, t=np.cumsum(cols[0]), J0=cols[1], mass=cols[2], rho_min=cols[3],
                   rho_max=cols[4], V=cols[5], q_min=cols[6], event=[""] * n)


def _traced_peak(fn, *args):
    """(fn's result, the traced peak it reached above what was traced before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_trajectory_csv_memory(tmp_path):
    # to_csv writes ROW_BLOCK rows per write: its traced peak is one block's
    # floats and text at 20 000 rows as at 40 000, where one joined string
    # took about 550 bytes a row.  from_csv parses rows into float64 buffers
    # as it reads them: about 68 bytes a row kept, where keeping every row's
    # strings peaked near 756
    p = tmp_path / "trajectory.csv"
    for n in (20_000, 40_000):
        traj = _random_log(n)
        _, peak = _traced_peak(traj.to_csv, p)
        assert peak < 2**19, (n, peak)
        back, peak = _traced_peak(TrajectoryLog.from_csv, p)
        assert peak < 80 * n + 2**16, (n, peak)
        for name in TrajectoryLog.COLUMNS[:7]:
            assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()
        assert back.event == traj.event and back.blowup is None

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Heavy trajectories are shared through module fixtures."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from pulsefield import (certify_theorem_bounds, characteristic_trace,
                        discrete_lyapunov, existence_condition, fit_decay_rate,
                        initial_density, integrate, lif_model, negative_controls,
                        solve_stationary_flux, splay_reference)

TWO_PI = 2.0 * math.pi
S, GAMMA, K_IN, K_EX = 2.1, 2.0, -0.1, 0.1


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def model():
    return lif_model(S, GAMMA, 0.0, 1.0)


@pytest.fixture(scope="module")
def fig1(model):
    """Reference inhibitory run at the production resolution."""
    stat = solve_stationary_flux(model, K_IN, n_theta=2048)
    ic = initial_density("perturbed", 2048, model, K_IN, epsilon=0.2,
                         reference=stat)
    t0 = time.perf_counter()
    traj = integrate(model, K_IN, ic, t_max=12.0, cfl=0.5, log_stride=20,
                     reference=stat)
    elapsed = time.perf_counter() - t0
    return {"stat": stat, "traj": traj, "elapsed": elapsed}


@pytest.fixture(scope="module")
def fig1_coarse(model):
    stat = solve_stationary_flux(model, K_IN, n_theta=1024)
    ic = initial_density("perturbed", 1024, model, K_IN, epsilon=0.2,
                         reference=stat)
    traj = integrate(model, K_IN, ic, t_max=12.0, cfl=0.5, log_stride=20,
                     reference=stat)
    return {"stat": stat, "traj": traj}


@pytest.fixture(scope="module")
def blowup_runs(model):
    stat = solve_stationary_flux(model, K_EX, n_theta=1024)
    runs = []
    for kind, kwargs in (("vonmises", {"kappa": 1.0, "mu": math.pi}),
                         ("vonmises", {"kappa": 2.0, "mu": 2.0}),
                         ("perturbed", {"epsilon": 0.3})):
        ic = initial_density(kind, 1024, model, K_EX, reference=stat, **kwargs)
        runs.append(integrate(model, K_EX, ic, t_max=100.0, log_stride=20,
                              reference=stat))
    return runs


def test_criterion_01_inhibitory_flux_settles(model, fig1):
    traj, elapsed = fig1["traj"], fig1["elapsed"]
    assert traj.blowup is None
    assert abs(traj.J0[-1] - 0.53) <= 0.02
    assert elapsed < 60.0
    report(1, f"terminal J0 = {traj.J0[-1]:.4f} within 0.53 +/- 0.02 "
              f"(N_theta=2048, {elapsed:.1f}s)")


def test_criterion_02_stationary_solver(model, fig1):
    stat = fig1["stat"]
    # residual of the normalization equation by independent quadrature
    w = quad(lambda th: stat.J_star / (model.omega + K_IN * model.prc(th)
                                       * stat.J_star),
             0.0, TWO_PI, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    assert abs(w - 1.0) < 1e-8
    # fixed-point oracle: J = 1 / integral dtheta/(omega + K Z J)
    j = model.omega / TWO_PI
    for _ in range(200):
        denom = quad(lambda th: 1.0 / (model.omega + K_IN * model.prc(th) * j),
                     0.0, TWO_PI, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
        j_next = 1.0 / denom
        if abs(j_next - j) < 1e-13:
            j = j_next
            break
        j = j_next
    assert abs(stat.J_star - j) < 1e-8
    # uncoupled closed form is exact
    stat0 = solve_stationary_flux(model, 0.0)
    assert abs(stat0.J_star - model.omega / TWO_PI) < 1e-12
    report(2, f"W(J*) - 1 = {w - 1.0:.2e}; |J* - J_fixed_point| = "
              f"{abs(stat.J_star - j):.2e}; K=0 exact")


def test_criterion_03_coupling_existence_boundary(model):
    flags = [existence_condition(model, k).exists for k in (0.9, 0.99, 1.01, 1.1)]
    assert flags == [True, True, False, False]
    report(3, "existence flags across the threshold gap: "
              "K=0.9 T, 0.99 T, 1.01 F, 1.1 F")


def test_criterion_04_lyapunov_bounds_certified(model, fig1, fig1_coarse):
    rep_hi = certify_theorem_bounds(fig1["traj"], model, K_IN)
    rep_lo = certify_theorem_bounds(fig1_coarse["traj"], model, K_IN)
    assert rep_hi.hypothesis_met
    assert rep_hi.fraction_ok >= 0.99
    assert rep_hi.n_violations <= rep_lo.n_violations
    report(4, f"dV/dt inside [J0 min(KZ')V, J0 max(KZ')V] on "
              f"{100 * rep_hi.fraction_ok:.2f}% of intervals "
              f"({rep_hi.n_violations} violations at 2048 vs "
              f"{rep_lo.n_violations} at 1024)")


def test_criterion_05_decay_rate_bracket(model, fig1):
    fit = fit_decay_rate(fig1["traj"], model, K_IN)
    assert fit.in_bracket
    report(5, f"fitted rate {fit.rate:.4f} inside widened bracket "
              f"[{fit.bracket[0]:.4f}, {fit.bracket[1]:.4f}] from the "
              f"first-crossing flux window")


def test_criterion_06_excitatory_blowup_dichotomy(blowup_runs):
    t_fins = []
    for traj in blowup_runs:
        assert traj.blowup is not None
        assert math.isfinite(traj.blowup.t_fin)
        t_fins.append(traj.blowup.t_fin)
        # strict growth of the distance at every logged interval
        assert np.all(np.diff(traj.V) > 0.0)
        assert traj.V[-1] > traj.V[0]
        # minimum quantile density against its shrinking ceiling
        slack = 4.0 * math.pi - 2.0 * traj.q_min - traj.V
        assert slack.min() >= -1e-6
        assert traj.q_min[-1] == traj.q_min.min()
        assert traj.q_min[-1] < traj.q_min[0]
    report(6, f"three positive initial densities all blow up "
              f"(t_fin = {', '.join(f'{t:.2f}' for t in t_fins)}); V strictly "
              f"increasing; Lemma slack >= -1e-6 throughout")


def test_criterion_07_neutral_rotation(model):
    stat0 = solve_stationary_flux(model, 0.0, n_theta=1024)
    ic = initial_density("vonmises", 1024, model, 0.0, kappa=2.0)
    period = TWO_PI / model.omega
    traj = integrate(model, 0.0, ic, t_max=period, dt=ic.dtheta / model.omega,
                     log_stride=16, reference=stat0)
    v_drift = float(np.max(np.abs(traj.V - traj.V[0])))
    j_err = abs(traj.J0[-1] - traj.J0[0]) / traj.J0[0]
    assert v_drift < 1e-6
    assert j_err < 0.01
    report(7, f"aligned rotation over one period: V drift {v_drift:.1e} < 1e-6, "
              f"J0 period error {j_err:.1e} < 1%")


def test_criterion_08_finite_infinite_parallel(model, simulate_kept):
    # contraction to the splay configuration
    N = 100
    _, _, snaps = simulate_kept(model, K_IN, N, n_firings=550, seed=12)
    ref = splay_reference(N, model, K_IN)
    vn = np.array([discrete_lyapunov(s, ref) for s in snaps])
    frac = float((np.diff(vn) <= 1e-12).mean())
    comp_err = float(np.max(np.abs(snaps[-1] - ref)))
    assert frac >= 0.95
    assert comp_err <= TWO_PI / N
    # excitatory absorption into a single cluster
    run_x, _, _ = simulate_kept(model, K_EX, 50, n_firings=200, seed=7)
    sync = run_x.full_sync_event()
    assert sync is not None and sync < 200
    report(8, f"V_N non-increasing on {100 * frac:.1f}% of sections, final "
              f"snapshot within {comp_err:.4f} < 2*pi/N of the splay state; "
              f"N=50 excitatory fully synchronized at event {sync}")


def test_criterion_09_characteristic_cross_oracle(model, fig1):
    traj = fig1["traj"]
    tr = characteristic_trace(traj, model, K_IN, theta_start=math.pi)
    assert not tr.truncated
    j_cross = float(np.interp(tr.crossing_time, traj.dense_t, traj.dense_J0))
    rho_grid = j_cross / (model.omega + K_IN * model.prc(TWO_PI) * j_cross)
    rel = abs(tr.rho_at_crossing - rho_grid) / rho_grid
    assert rel < 0.02
    report(9, f"density along the characteristic matches the grid boundary "
              f"density within {100 * rel:.2f}% < 2%")


def test_criterion_10_negative_controls(model):
    stat = solve_stationary_flux(model, K_IN, n_theta=1024)
    ic = initial_density("perturbed", 1024, model, K_IN, epsilon=0.2,
                         reference=stat)
    traj = integrate(model, K_IN, ic, t_max=6.0, log_stride=5,
                     reference=stat, snapshot_stride=5)
    rep = negative_controls(traj, model, K_IN, stat)
    assert rep.stall_found
    tol = abs(rep.stall_delta_vbis) + 1e-15
    assert rep.stall_delta_v > 10.0 * tol
    assert (rep.l2_hit is not None) or rep.l2_inconclusive
    l2_note = ("L2 quantile distance increased in seeded search "
               f"(trial {rep.l2_hit['trial']})" if rep.l2_hit is not None
               else "L2 search inconclusive (logged, non-fatal)")
    report(10, f"density-L1 stalls (|dVbis| = {abs(rep.stall_delta_vbis):.2e} "
               f"while V fell {rep.stall_delta_v:.2e}); {l2_note}")

import math

import numpy as np
import pytest

from pulsefield import (certify_theorem_bounds, fit_decay_rate, initial_density,
                        integrate, tabulated_model)
from oracles import negative_controls

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def inhib_traj(lif, stat_inhib):
    ic = initial_density("perturbed", 1024, lif, -0.1, epsilon=0.2,
                         reference=stat_inhib)
    return integrate(lif, -0.1, ic, t_max=10.0, reference=stat_inhib,
                     log_stride=10, snapshot_stride=5)


def test_bounds_hold_on_contracting_run(lif, inhib_traj):
    rep = certify_theorem_bounds(inhib_traj, lif, -0.1)
    assert rep.hypothesis_met
    assert rep.n_checked > 100
    assert rep.fraction_ok == 1.0
    assert rep.lemma_ok
    assert rep.verdict()


def test_bounds_no_coupling_v_constant(lif, stat_inhib):
    # K = 0: both bounds vanish, V must sit still within the slack
    from pulsefield import solve_stationary_flux
    stat0 = solve_stationary_flux(lif, 0.0, n_theta=512)
    ic = initial_density("vonmises", 512, lif, 0.0, kappa=1.0)
    traj = integrate(lif, 0.0, ic, t_max=3.0, reference=stat0,
                     dt=ic.dtheta / lif.omega)
    rep = certify_theorem_bounds(traj, lif, 0.0)
    assert rep.kz_prime_range == (0.0, 0.0)
    assert rep.fraction_ok == 1.0
    assert np.max(np.abs(traj.V - traj.V[0])) < 1e-9


def test_expanding_run_v_increases(lif, stat_excit):
    ic = initial_density("vonmises", 512, lif, 0.1, kappa=1.0)
    traj = integrate(lif, 0.1, ic, t_max=50.0, reference=stat_excit)
    assert traj.blowup is not None
    rep = certify_theorem_bounds(traj, lif, 0.1)
    assert rep.fraction_ok == 1.0
    # positive lower bound forces growth at every logged interval
    assert np.all(np.diff(traj.V) > 0.0)


def test_hypothesis_refused_for_mixed_curvature():
    # wavy field gives a response curve with both curvature signs
    wob = tabulated_model(lambda x: 1.0 + 0.3 * math.sin(6.0 * x),
                          x_lo=0.0, x_hi=1.0)
    from pulsefield import solve_stationary_flux
    stat = solve_stationary_flux(wob, -0.05, n_theta=512)
    ic = initial_density("vonmises", 512, wob, -0.05, kappa=0.5)
    traj = integrate(wob, -0.05, ic, t_max=1.0, reference=stat)
    rep = certify_theorem_bounds(traj, wob, -0.05)
    assert not rep.hypothesis_met
    assert rep.n_checked == 0
    assert rep.fraction_ok is None
    assert rep.unchecked_reason == "curvature hypothesis not met"
    assert not rep.verdict()


def _csv_log(tmp_path, rows):
    # a hand-built trajectory.csv read back as a log: rows of
    # (t, J0, rho_min, V), with mass 1, rho_max 0.4 and q_min 1
    from pulsefield.continuum import TrajectoryLog
    lines = ["t,J0,mass,rho_min,rho_max,V,q_min,event"]
    lines += [f"{t!r},{j!r},1.0,{r!r},0.4,{v!r},1.0," for t, j, r, v in rows]
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n")
    return TrajectoryLog.from_csv(path)


@pytest.mark.parametrize("case,reason,lemma_ok", [
    ("two_rows", "fewer than three logged rows", True),
    ("v_undefined", "V is undefined on every interval", None),
    ("below_floor", "density below rho_floor on every interval where V is defined", True),
])
def test_unchecked_reason_names_why_nothing_was_checked(tmp_path, lif, case, reason,
                                                        lemma_ok):
    n = 2 if case == "two_rows" else 12
    v = math.nan if case == "v_undefined" else 1.0
    rho_min = 1e-9 if case == "below_floor" else 0.2
    traj = _csv_log(tmp_path, [(0.5 * i, 0.5, rho_min, v * math.exp(-0.05 * i))
                               for i in range(n)])
    rep = certify_theorem_bounds(traj, lif, -0.1)
    assert rep.n_checked == 0 and not rep.verdict()
    assert rep.unchecked_reason == reason
    assert rep.fraction_ok is None
    assert rep.lemma_ok is lemma_ok
    cert = rep.to_json()
    assert (cert["unchecked_reason"], cert["fraction_ok"], cert["lemma_ok"]) == \
        (reason, None, lemma_ok)


@pytest.mark.parametrize("K", [0.1, 0.05])
def test_expanding_decay_fit_takes_the_mirror_bracket(lif, K):
    # V grows, so the rate is negative: an expanding run's bracket is
    # [-1.1 * J_max * max K*Z', -0.9 * J_min * min K*Z']
    from pulsefield import solve_stationary_flux
    stat = solve_stationary_flux(lif, K)
    ic = initial_density("vonmises", 512, lif, K, kappa=1.0)
    traj = integrate(lif, K, ic, t_max=50.0, reference=stat)
    assert traj.blowup is not None
    fit = fit_decay_rate(traj, lif, K)
    kz_lo, kz_hi = lif.kz_prime_extrema(K)
    assert kz_lo > 0.0
    assert fit.bracket == (-1.1 * fit.J_window[1] * kz_hi, -0.9 * fit.J_window[0] * kz_lo)
    assert fit.bracket[0] <= fit.rate <= fit.bracket[1] < 0.0
    assert fit.in_bracket


def test_decay_fit_on_two_points_matches_least_squares(tmp_path, lif):
    # four rows leave two in the tail half: the fitted line joins them
    traj = _csv_log(tmp_path, [(0.0, 0.5, 0.2, 1.0), (1.0, 0.5, 0.2, 0.7),
                               (2.0, 0.5, 0.2, 0.45), (3.0, 0.5, 0.2, 0.3)])
    fit = fit_decay_rate(traj, lif, -0.1)
    assert fit.n_points == 2
    oracle = -np.polyfit([2.0, 3.0], np.log([0.45, 0.3]), 1)[0]
    assert abs(fit.rate - oracle) <= 1e-15 * abs(oracle)


def test_decay_rate_bracket(lif, inhib_traj):
    fit = fit_decay_rate(inhib_traj, lif, -0.1)
    assert fit.J_window is not None
    assert fit.rate > 0.0
    assert fit.bracket[0] <= fit.rate <= fit.bracket[1]
    assert fit.in_bracket


def test_decay_rate_from_csv_log(tmp_path, lif):
    # a fig1-style run read back from trajectory.csv has no steps: the
    # crossing is traced over sub-steps of the logged rows, and the window
    # it gives moves by the log's interpolation error only (2.3e-4 here)
    from pulsefield import solve_stationary_flux
    from pulsefield.continuum import TrajectoryLog
    stat = solve_stationary_flux(lif, -0.1, n_theta=256)
    ic = initial_density("perturbed", 256, lif, -0.1, epsilon=0.2, reference=stat)
    traj = integrate(lif, -0.1, ic, t_max=12.0, reference=stat)
    traj.to_csv(tmp_path / "trajectory.csv")
    back = TrajectoryLog.from_csv(tmp_path / "trajectory.csv")
    assert back.n_steps is None and back.J_window is None
    fit, fit_back = fit_decay_rate(traj, lif, -0.1), fit_decay_rate(back, lif, -0.1)
    assert fit.J_window == traj.J_window
    assert fit_back.in_bracket == fit.in_bracket
    assert np.allclose(fit_back.J_window, traj.J_window, rtol=0.0, atol=1e-3)


def test_decay_rate_neutral(lif):
    from pulsefield import solve_stationary_flux
    stat0 = solve_stationary_flux(lif, 0.0, n_theta=512)
    ic = initial_density("vonmises", 512, lif, 0.0, kappa=1.0)
    traj = integrate(lif, 0.0, ic, t_max=3.0, reference=stat0,
                     dt=ic.dtheta / lif.omega)
    fit = fit_decay_rate(traj, lif, 0.0)
    assert abs(fit.rate) < 1e-3
    assert fit.in_bracket


def test_decay_rate_homoclinic_weak_excitatory():
    # decreasing response curve with small K > 0: contracting dynamics
    from pulsefield import homoclinic_model, solve_stationary_flux
    m = homoclinic_model(1.0, 1.0, TWO_PI)
    stat = solve_stationary_flux(m, 0.05, n_theta=1024)
    ic = initial_density("vonmises", 1024, m, 0.05, kappa=1.5, mu=2.0)
    traj = integrate(m, 0.05, ic, t_max=20.0, reference=stat)
    fit = fit_decay_rate(traj, m, 0.05)
    assert fit.rate > 0.0
    assert fit.in_bracket


def test_negative_controls_report(lif, stat_inhib, inhib_traj):
    rep = negative_controls(inhib_traj, lif, -0.1, stat_inhib)
    # density-space L1 distance stalls at the boundary crossing while the
    # quantile distance keeps contracting
    assert rep.stall_found
    assert rep.stall_delta_v > 10.0 * abs(rep.stall_delta_vbis)
    # state built to match the stationary boundary density: flat L1 rate
    assert abs(rep.constructed_vbis_rate) < 0.02 * abs(rep.constructed_v_rate)
    # L2 quantile distance grows somewhere under contracting dynamics (or
    # the seeded search reports inconclusive, which the criterion tolerates)
    assert (rep.l2_hit is not None) or rep.l2_inconclusive
    assert rep.l2_hit is not None and rep.l2_hit["dl2_dt"] > 0.0


def test_negative_controls_trivial_zero(stat_inhib):
    from pulsefield.quantile import quantile_transform
    from oracles import density_l1, quantile_l2
    ref = stat_inhib.rho_star
    assert density_l1(ref.theta, ref.rho, ref.rho) == 0.0
    p = quantile_transform(ref.theta, ref.rho)
    assert quantile_l2(p, p) == 0.0


# the acceptance oracles, which no command runs: they live in tests/oracles.py
ORACLE_EXPORTS = ("step", "CharacteristicTrace", "characteristic_trace", "quantile_l2",
                  "density_l1", "NegativeControlReport", "negative_controls")
ORACLE_PRIVATE = ("_one_step_rates", "CONTROL_SEED", "L2_TRIALS", "STALL_RATIO")


def test_acceptance_oracles_live_with_the_tests():
    import ast
    import importlib
    from pathlib import Path
    import oracles
    import pulsefield
    leaked = [n for n in ORACLE_EXPORTS if hasattr(pulsefield, n)]
    for mod in ("continuum", "quantile", "certify"):
        m = importlib.import_module(f"pulsefield.{mod}")
        leaked += [f"{mod}.{n}" for n in ORACLE_EXPORTS + ORACLE_PRIVATE if hasattr(m, n)]
    assert leaked == []
    assert all(hasattr(oracles, n) for n in ORACLE_EXPORTS + ORACLE_PRIVATE)
    # the oracles reach the package only through its installed name
    tree = ast.parse(Path(oracles.__file__).read_text())
    sources = {node.module.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert sources == {"__future__", "dataclasses", "pulsefield"}

"""Acceptance-only oracles: code the test suite runs and no command does.

The quantile total-variation distance V is the paper's Lyapunov function;
criterion 10 shows why the two natural alternatives fail.  The plain L1
density distance (``density_l1``) stalls whenever the boundary density
agrees with the stationary one, and the L2 quantile distance
(``quantile_l2``) can grow transiently even under contracting dynamics.
``negative_controls`` exhibits both on an integrated run, stepping once at
a time with ``step``, one pass of ``continuum.integrate``'s loop.
Criterion 9 carries the density along a characteristic with
``characteristic_trace``, which walks the run's own steps through
``continuum._walk``, the walk behind ``first_crossing``.

This module is not collected by pytest (its name does not match
``test_*.py``); the test modules import it from their own directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from pulsefield.continuum import (TWO_PI, BlowupError, DensityField, TrajectoryLog, _walk,
                                  integrate)
from pulsefield.models import OscillatorModel
from pulsefield.quantile import (QuantileProfile, _merged_segments, lyapunov_tv,
                                 quantile_transform)
from pulsefield.stationary import StationaryState

# the negative controls' L2 search: its seed and number of trials, and the
# dV/dVbis ratio a boundary crossing must reach to count as a stall
CONTROL_SEED = 0
L2_TRIALS = 200
STALL_RATIO = 10.0


# -- the one upwind step and characteristics ----------------------------------


def step(state: DensityField, model, K: float, dt: float) -> DensityField:
    """One explicit upwind step of size ``dt``; returns a new field.

    This is one pass of ``integrate``'s loop, which holds the only copy of
    the kernel: a blow-up raises ``BlowupError`` and a ``dt`` past the CFL
    limit raises ``CFLError``.
    """
    traj = integrate(model, K, state, t_max=math.inf, dt=dt, max_steps=1)
    if traj.blowup is not None:
        raise BlowupError(traj.blowup)
    return traj.final


@dataclass(frozen=True)
class CharacteristicTrace:
    """A characteristic curve and the density transported along it."""

    t: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    truncated: bool

    @property
    def crossing_time(self) -> float | None:
        return None if self.truncated else float(self.t[-1])

    @property
    def rho_at_crossing(self) -> float | None:
        return None if self.truncated else float(self.rho[-1])


def characteristic_trace(traj: TrajectoryLog, model, K: float,
                         theta_start: float) -> CharacteristicTrace:
    """The characteristic launched from ``theta_start`` at the run's start and
    the density carried along it, until the curve reaches 2*pi or the run's
    steps end (then ``truncated`` is set).

    The curve is ``_walk`` over the steps the run took, the walk that
    ``first_crossing`` takes from theta = 0, so a trace from 0 crosses at the
    run's ``first_crossing_time`` exactly.  The density starts from the run's
    initial field (linear in theta) and follows d(log rho)/dt =
    -J0*K*Z'(theta) by the midpoint rule: Z' at the walk's midpoint phases,
    each step's mean flux.  A log without its initial field and steps (one
    read from CSV) raises ``ValueError``.
    """
    if traj.initial is None or traj.dense_dt is None:
        raise ValueError("characteristic_trace needs an integrated run; a log read "
                         "from CSV has no initial density and no steps")
    starts, mids, t_cross = _walk(traj.dense_t, traj.dense_dt.tolist(),
                                  traj.dense_J0.tolist(), model, K, float(theta_start))
    n = len(mids)
    t = traj.dense_t[:n + 1].copy()
    h = traj.dense_dt[:n].copy()
    theta = np.asarray(starts)
    if t_cross is not None:
        # the crossing step ends at the crossing
        t[-1] = t_cross
        h[-1] = t_cross - t[-2]
        theta = np.append(theta, TWO_PI)
    j = traj.dense_J0[:n + 1]
    rate = -K * (0.5 * (j[:-1] + j[1:])) * model.prc_deriv(np.minimum(mids, TWO_PI))
    rho_start = float(np.interp(theta_start, traj.initial.theta, traj.initial.rho))
    rho = rho_start * np.exp(np.concatenate(([0.0], np.cumsum(h * rate))))
    return CharacteristicTrace(t, theta, rho, t_cross is None)


# -- rejected distances -------------------------------------------------------


def quantile_l2(state: QuantileProfile, reference: QuantileProfile) -> float:
    """L2 distance between quantile densities (the rejected candidate norm)."""
    qa, qb, width = _merged_segments(state, reference)
    return float(np.sqrt(np.sum((qa - qb) ** 2 * width)))


def density_l1(theta, rho, rho_ref) -> float:
    """Plain L1 distance between densities in phase space (control quantity)."""
    return float(np.trapezoid(np.abs(np.asarray(rho) - np.asarray(rho_ref)), theta))


# -- negative controls ----------------------------------------------------------


@dataclass
class NegativeControlReport:
    """Numerical demonstrations that the two rejected distances fail.

    ``stall``: an interval around a boundary-density crossing where the L1
    density distance barely moves while V keeps decreasing.  ``l2_hit``: a
    state (found by seeded random search) whose L2 quantile distance grows
    one step later despite contracting dynamics; ``inconclusive`` is set
    when the search finds none.
    """

    stall_found: bool
    stall_interval: tuple | None
    stall_delta_vbis: float | None
    stall_delta_v: float | None
    constructed_vbis_rate: float | None
    constructed_v_rate: float | None
    l2_hit: dict | None
    l2_trials: int
    l2_inconclusive: bool
    notes: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "stall_found": self.stall_found,
            "stall_interval": list(self.stall_interval) if self.stall_interval else None,
            "stall_delta_vbis": self.stall_delta_vbis,
            "stall_delta_v": self.stall_delta_v,
            "constructed_vbis_rate": self.constructed_vbis_rate,
            "constructed_v_rate": self.constructed_v_rate,
            "l2_hit": self.l2_hit,
            "l2_trials": self.l2_trials,
            "l2_inconclusive": self.l2_inconclusive,
            "notes": self.notes,
        }


def _one_step_rates(model, K, field: DensityField, reference: StationaryState):
    """(dVbis/dt, dV/dt, dVter/dt, dt) across one upwind step at CFL number
    0.5 from a field on the reference's grid."""
    rho_ref, prof_ref = reference.rho_star.rho, reference.profile()
    theta = field.theta
    v = model.omega + K * model.prc(theta) * field.J0
    dt = 0.5 * field.dtheta / float(v.max())
    after = step(field, model, K, dt)
    vbis0 = density_l1(theta, field.rho, rho_ref)
    vbis1 = density_l1(theta, after.rho, rho_ref)
    v0 = lyapunov_tv(quantile_transform(theta, field.rho), prof_ref)
    v1 = lyapunov_tv(quantile_transform(theta, after.rho), prof_ref)
    l20 = quantile_l2(quantile_transform(theta, field.rho), prof_ref)
    l21 = quantile_l2(quantile_transform(theta, after.rho), prof_ref)
    return (vbis1 - vbis0) / dt, (v1 - v0) / dt, (l21 - l20) / dt, dt


def negative_controls(traj: TrajectoryLog, model: OscillatorModel, K: float,
                      reference: StationaryState) -> NegativeControlReport:
    """Run both negative demonstrations on a converging trajectory.

    Needs an integrated run recorded with ``snapshot_stride`` so densities
    are available between logs.  The stall demo locates a sign change of
    J0 - J* (equivalently of the boundary density error), where the L1
    density distance has zero derivative; the search demo perturbs the
    stationary state with small localized bumps and steps once.  The
    search draws L2_TRIALS states from seed CONTROL_SEED.
    """
    notes = []
    j_star = reference.J_star
    theta = traj.initial.theta
    rho_ref = reference.density_at(theta)
    # the reference sampled on the run's grid, for the one-step rates
    on_grid = replace(reference, rho_star=DensityField(theta, rho_ref, j_star, 0.0))

    # --- stall of the density-space L1 distance at a boundary crossing ---
    stall_found = False
    stall_interval = stall_dvb = stall_dv = None
    if traj.snapshots:
        times = np.asarray([s[0] for s in traj.snapshots])
        j_at = np.interp(times, traj.dense_t, traj.dense_J0)
        sign = np.sign(j_at - j_star)
        flips = np.where(np.diff(sign) != 0)[0]
        if flips.size:
            prof_ref = reference.profile()
            best = None
            for i in flips:
                rho_a, rho_b = traj.snapshots[i][1], traj.snapshots[i + 1][1]
                dvb = abs(density_l1(theta, rho_b, rho_ref)
                          - density_l1(theta, rho_a, rho_ref))
                dv = (lyapunov_tv(quantile_transform(theta, rho_a), prof_ref)
                      - lyapunov_tv(quantile_transform(theta, rho_b), prof_ref))
                if dv > 0 and (best is None or dvb / dv < best[0]):
                    best = (dvb / dv, i, dvb, dv)
            if best is not None and best[0] < 1.0 / STALL_RATIO:
                stall_found = True
                _, i, stall_dvb, stall_dv = best
                stall_interval = (float(times[i]), float(times[i + 1]))
            elif best is not None:
                notes.append(f"best crossing interval ratio {best[0]:.3g} "
                             f"did not reach 1/{STALL_RATIO}")
        else:
            notes.append("flux never crossed the stationary value; stall not exhibited")
    else:
        notes.append("no snapshots; stall demo skipped")

    # --- constructed state with matching boundary density: dVbis/dt ~ 0 ---
    taper = np.sin(theta / 2.0) ** 2      # vanishes at both boundaries
    g = np.sin(theta) * taper
    h = np.sin(2.0 * theta) * taper
    wg = float(np.sum((rho_ref * g)[1:]))
    wh = float(np.sum((rho_ref * h)[1:]))
    pert = g - (wg / wh) * h if wh != 0.0 else g
    amp = 0.25 / max(1e-12, float(np.max(np.abs(pert))))
    field = DensityField(theta, rho_ref * (1.0 + amp * pert), j_star, 0.0)
    constructed_vbis, constructed_v, _, _ = _one_step_rates(model, K, field, on_grid)

    # --- seeded search for a growing L2 quantile distance ---
    rng = np.random.default_rng(CONTROL_SEED)
    l2_hit = None
    trials_done = 0
    for trial in range(L2_TRIALS):
        trials_done += 1
        kap = rng.uniform(20.0, 80.0)
        mu = rng.uniform(0.0, TWO_PI)
        amp = float(rng.choice([-1.0, 1.0])) * rng.uniform(5e-4, 5e-3)
        prof = rho_ref * (1.0 + amp * np.exp(kap * (np.cos(theta - mu) - 1.0)))
        try:
            field = DensityField.from_profile(model, K, prof)
            _, _, dl2, dt = _one_step_rates(model, K, field, on_grid)
        except Exception:
            continue
        if dl2 > 1e-10:
            l2_hit = {"trial": trial, "kappa": kap, "mu": mu, "amplitude": amp,
                      "dl2_dt": dl2}
            break
    inconclusive = l2_hit is None
    if inconclusive:
        notes.append(f"no L2 increase found in {trials_done} trials (inconclusive)")

    return NegativeControlReport(stall_found, stall_interval, stall_dvb, stall_dv,
                                 constructed_vbis, constructed_v,
                                 l2_hit, trials_done, inconclusive, notes)

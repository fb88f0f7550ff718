"""Certification of the Lyapunov dichotomy along logged trajectories.

Along any strictly positive solution with a constant-curvature-sign response
curve, the quantile total-variation distance V to the stationary state obeys

    J0(t) * min(K*Z') * V  <=  dV/dt  <=  J0(t) * max(K*Z') * V,

so contracting dynamics (K*Z' < 0) force exponential decay at a rate
bracketed by the flux window of the first crossing, and expanding dynamics
(K*Z' > 0) force growth until finite-time blow-up.  The certifier replays a
trajectory log, estimates dV/dt by centered differences, and checks every
interval against those bounds with the fixed slack TOL_ABS + TOL_REL * V
(1e-4 + 0.1 * V); a run passes when MIN_FRACTION (99 %) of the claimed
intervals hold.  It refuses to claim anything when the curvature hypothesis
fails or the density has dropped below a floor (the transform degenerates
near synchrony).

Two deliberately rejected alternatives are exercised by
``negative_controls``: the plain L1 density distance stalls whenever the
boundary density agrees with the stationary one, and the L2 quantile
distance can grow transiently even under contracting dynamics.  No command
runs them: ``negative_controls`` and the ``continuum.step`` it steps with
are the documented acceptance-only surface, checked by criterion 10 of the
acceptance suite.  The commands call ``certify_theorem_bounds`` and
``fit_decay_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .models import Curvature, OscillatorModel
from .continuum import DensityField, TrajectoryLog, first_crossing, step
from .quantile import quantile_transform, lyapunov_tv, quantile_l2, density_l1
from .stationary import StationaryState

TWO_PI = 2.0 * math.pi
# RK2 sub-steps per logged interval when tracing a log read from CSV
SUBSTEPS = 4
# logged rows whose density minimum is below this are not claimed
RHO_FLOOR = 1e-6
# each interval's slack is TOL_ABS + TOL_REL * V: first-order scheme noise
# plus the centered difference dominate the error budget
TOL_ABS = 1e-4
TOL_REL = 0.1
# the share of claimed intervals that must hold for a run to pass
MIN_FRACTION = 0.99
# V at or below this has reached the numerical floor: the decay fit drops it
V_FLOOR = 1e-12
# the negative controls' L2 search: its seed and number of trials, and the
# dV/dVbis ratio a boundary crossing must reach to count as a stall
CONTROL_SEED = 0
L2_TRIALS = 200
STALL_RATIO = 10.0


@dataclass
class CertificationReport:
    """Per-interval bound checks plus aggregate verdicts."""

    t: np.ndarray
    V: np.ndarray
    dVdt: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slack: np.ndarray
    ok: np.ndarray
    claimed: np.ndarray
    lemma_slack: np.ndarray
    hypothesis_met: bool
    kz_prime_range: tuple

    @property
    def n_checked(self) -> int:
        return int(self.claimed.sum())

    @property
    def n_violations(self) -> int:
        return int(np.sum(self.claimed & ~self.ok))

    @property
    def fraction_ok(self) -> float:
        n = self.n_checked
        return 1.0 if n == 0 else float(np.sum(self.claimed & self.ok)) / n

    @property
    def worst_violation(self) -> float:
        bad = self.claimed & ~self.ok
        if not bad.any():
            return 0.0
        over = np.maximum(self.lower[bad] - self.slack[bad] - self.dVdt[bad],
                          self.dVdt[bad] - self.upper[bad] - self.slack[bad])
        return float(over.max())

    @property
    def lemma_ok(self) -> bool:
        vals = self.lemma_slack[np.isfinite(self.lemma_slack)]
        return bool(vals.size == 0 or vals.min() >= -1e-6)

    @property
    def lemma_worst(self) -> float:
        vals = self.lemma_slack[np.isfinite(self.lemma_slack)]
        return float(vals.min()) if vals.size else math.nan

    def verdict(self) -> bool:
        """Pass only if some interval was checked: checking nothing proves nothing."""
        return (self.hypothesis_met and self.lemma_ok and self.n_checked > 0
                and self.fraction_ok >= MIN_FRACTION)

    def to_json(self) -> dict:
        return {
            "hypothesis_met": self.hypothesis_met,
            "kz_prime_min": self.kz_prime_range[0],
            "kz_prime_max": self.kz_prime_range[1],
            "intervals_checked": self.n_checked,
            "violations": self.n_violations,
            "fraction_ok": self.fraction_ok,
            "worst_violation": self.worst_violation,
            "lemma_ok": self.lemma_ok,
            "lemma_worst_slack": None if math.isnan(self.lemma_worst) else self.lemma_worst,
            "tol_abs": TOL_ABS,
            "tol_rel": TOL_REL,
            "rho_floor": RHO_FLOOR,
        }


def certify_theorem_bounds(traj: TrajectoryLog, model: OscillatorModel,
                           K: float) -> CertificationReport:
    """Check every logged interval against the two-sided dV/dt bounds.

    dV/dt is the centered difference of the logged V, compared against
    J0 * min(K*Z') * V and J0 * max(K*Z') * V with slack TOL_ABS + TOL_REL * V.
    Intervals where the density minimum is below RHO_FLOOR or V is undefined
    are excluded from the claim and only counted in the report.
    """
    hypothesis = model.curvature in (Curvature.NONNEGATIVE, Curvature.NONPOSITIVE)
    kz_lo, kz_hi = model.kz_prime_extrema(K)

    t, V, J0 = traj.t, traj.V, traj.J0
    n = t.size
    lemma = 4.0 * math.pi - 2.0 * traj.q_min - V
    if n < 3:
        empty = np.zeros(0)
        return CertificationReport(empty, empty, empty, empty, empty, empty,
                                   empty.astype(bool), empty.astype(bool), lemma,
                                   hypothesis, (kz_lo, kz_hi))

    ti, Vi, Ji = t[1:-1], V[1:-1], J0[1:-1]
    dVdt = (V[2:] - V[:-2]) / (t[2:] - t[:-2])
    lower = Ji * kz_lo * Vi
    upper = Ji * kz_hi * Vi
    slack = TOL_ABS + TOL_REL * Vi
    ok = (dVdt >= lower - slack) & (dVdt <= upper + slack)
    claimed = hypothesis & np.isfinite(Vi) & np.isfinite(dVdt) & \
        (traj.rho_min[1:-1] >= RHO_FLOOR)
    return CertificationReport(ti, Vi, dVdt, lower, upper, slack, ok, claimed,
                               lemma, hypothesis, (kz_lo, kz_hi))


# -- decay rate ---------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Exponential rate of V over a fit window against the predicted bracket."""

    rate: float
    bracket: tuple
    in_bracket: bool
    window: tuple
    n_points: int
    J_window: tuple | None

    def to_json(self):
        return {"rate": self.rate if math.isfinite(self.rate) else None,
                "bracket": list(self.bracket),
                "in_bracket": self.in_bracket, "window": list(self.window),
                "n_points": self.n_points,
                "J_window": list(self.J_window) if self.J_window else None}


def fit_decay_rate(traj: TrajectoryLog, model: OscillatorModel, K: float) -> DecayFit:
    """Least-squares slope of log V over the tail half of the run.

    The rate is -slope; the verdict asks it to lie in the bracket
    [J_min * min|K*Z'|, J_max * max|K*Z'|] widened by 10%, with the flux
    window taken over the first crossing.  An integrated run's own window is
    final, None included: ``integrate`` traced it from the steps it took.  A
    log read from CSV has no steps, so ``continuum.first_crossing`` traces it
    over SUBSTEPS equal steps per logged interval, with J0 interpolated
    linearly.  Samples at or below V_FLOOR are dropped (V has reached the
    numerical floor).  With K = 0 the bracket degenerates and the verdict
    becomes |rate| <= 1e-3.
    """
    t, V = traj.t, traj.V
    jw = traj.J_window
    if traj.n_steps is None:
        sub = np.arange(SUBSTEPS) / SUBSTEPS
        ts = np.append((t[:-1, None] + np.diff(t)[:, None] * sub).ravel(), t[-1])
        jw = first_crossing(ts, np.diff(ts).tolist(), np.interp(ts, t, traj.J0).tolist(),
                            model, K)[1]
    window = (float(t[0] + 0.5 * (t[-1] - t[0])), float(t[-1]))
    mask = (t >= window[0]) & (t <= window[1]) & np.isfinite(V) & (V > V_FLOOR)
    n_pts = int(mask.sum())

    kz_lo, kz_hi = model.kz_prime_extrema(K)
    amin = min(abs(kz_lo), abs(kz_hi))
    amax = max(abs(kz_lo), abs(kz_hi))
    if jw is not None and amax > 0.0:
        bracket = (0.9 * jw[0] * amin, 1.1 * jw[1] * amax)
    else:
        bracket = (0.0, 0.0)

    if n_pts < 2:
        return DecayFit(math.nan, bracket, False, window, n_pts, jw)
    slope = float(np.polyfit(t[mask], np.log(V[mask]), 1)[0])
    rate = -slope
    if bracket == (0.0, 0.0):
        ok = abs(rate) <= 1e-3
    else:
        ok = bracket[0] <= rate <= bracket[1]
    return DecayFit(rate, bracket, bool(ok), window, n_pts, jw)


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

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

The commands call ``certify_theorem_bounds`` and ``fit_decay_rate``.  The
two alternatives to V that the paper rejects (the density L1 distance,
which stalls, and the quantile L2 distance, which can grow under
contracting dynamics) are shown to fail by acceptance criterion 10, whose
negative controls live with the test suite (``tests/oracles.py``), since
no command runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Curvature, OscillatorModel
from .continuum import TrajectoryLog, first_crossing

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
    def fraction_ok(self) -> float | None:
        """Share of checked intervals that hold; None when none was checked."""
        n = self.n_checked
        return float(np.sum(self.claimed & self.ok)) / n if n else None

    @property
    def worst_violation(self) -> float:
        bad = self.claimed & ~self.ok
        if not bad.any():
            return 0.0
        over = np.maximum(self.lower[bad] - self.slack[bad] - self.dVdt[bad],
                          self.dVdt[bad] - self.upper[bad] - self.slack[bad])
        return float(over.max())

    @property
    def lemma_ok(self) -> bool | None:
        """Whether 4*pi - 2*q_min - V >= 0 on every row where it is finite;
        None when it is finite on none."""
        vals = self.lemma_slack[np.isfinite(self.lemma_slack)]
        return bool(vals.min() >= -1e-6) if vals.size else None

    @property
    def lemma_worst(self) -> float:
        vals = self.lemma_slack[np.isfinite(self.lemma_slack)]
        return float(vals.min()) if vals.size else math.nan

    @property
    def unchecked_reason(self) -> str | None:
        """Why no interval was checked; None when some interval was."""
        if self.n_checked:
            return None
        if self.t.size == 0:
            return "fewer than three logged rows"
        if not self.hypothesis_met:
            return "curvature hypothesis not met"
        if not (np.isfinite(self.V) & np.isfinite(self.dVdt)).any():
            return "V is undefined on every interval"
        return "density below rho_floor on every interval where V is defined"

    def verdict(self) -> bool:
        """Pass only if some interval was checked: checking nothing proves
        nothing.  A lemma with no finite slack does not fail it."""
        return (self.hypothesis_met and self.lemma_ok is not False
                and self.n_checked > 0 and self.fraction_ok >= MIN_FRACTION)

    def to_json(self) -> dict:
        return {
            "hypothesis_met": self.hypothesis_met,
            "kz_prime_min": self.kz_prime_range[0],
            "kz_prime_max": self.kz_prime_range[1],
            "intervals_checked": self.n_checked,
            "unchecked_reason": self.unchecked_reason,
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
    window taken over the first crossing.  An expanding run (min K*Z' > 0)
    grows, so its rate is negative and its bracket the mirror image.  An
    integrated run's own window is final, None included: ``integrate``
    traced it from the steps it took.  A log read from CSV has no steps, so
    ``continuum.first_crossing`` traces it over SUBSTEPS equal steps per
    logged interval, with J0 interpolated linearly.  Samples at or below
    V_FLOOR are dropped (V has reached the numerical floor).  With K = 0 the
    bracket degenerates and the verdict becomes |rate| <= 1e-3.
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
        if kz_lo > 0.0:
            bracket = (-bracket[1], -bracket[0])
    else:
        bracket = (0.0, 0.0)

    if n_pts < 2:
        return DecayFit(math.nan, bracket, False, window, n_pts, jw)
    # the least-squares line on centred times: four sums, no LAPACK call
    x = t[mask]
    x = x - x.mean()
    y = np.log(V[mask])
    rate = -float(np.sum(x * (y - y.mean())) / np.sum(x * x))
    if bracket == (0.0, 0.0):
        ok = abs(rate) <= 1e-3
    else:
        ok = bracket[0] <= rate <= bracket[1]
    return DecayFit(rate, bracket, bool(ok), window, n_pts, jw)

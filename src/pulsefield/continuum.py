"""Transport solver for the phase density of a pulse-coupled continuum.

The density rho(theta, t) obeys the conservation law

    d(rho)/dt = -d(v * rho)/dtheta,      v(theta, t) = omega + K*Z(theta)*J0(t),

where the boundary flux J0 (the population firing rate) is determined
self-consistently by the density at the firing phase,

    J0 = omega * rho(0) / (1 - K*Z(0)*rho(0)),

and the flux is periodic while the density itself is not: rho(0) and
rho(2*pi) are distinct unknowns tied by

    rho(0)/(1 - K*Z(0)*rho(0)) = rho(2*pi)/(1 - K*Z(2*pi)*rho(2*pi)) = J0/omega.

The one stepping kernel is conservative first-order upwind in flux form:
node fluxes F_i = v_i * rho_i, inflow at theta=0 set to the outflow at
2*pi, so the discrete mass (right-endpoint Riemann sum over nodes 1..N)
telescopes to machine precision every step.  With K = 0 and the aligned
step dt = dtheta/omega (Courant number 1) the update is a sample rotation
to rounding.

Synchronization shows up as a finite-time singularity and is detected by
thresholds: the boundary relation's denominator falling under ``eps_sing``
or the flux exceeding ``flux_cap`` (flux blow-up, excitatory side), and the
velocity stalling at min v <= eps_sing*omega (density blow-up, inhibitory
side).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .quantile import quantile_transform, lyapunov_tv_with_qmin, _as_profile

TWO_PI = 2.0 * math.pi
EPS_SING = 1e-8


class CFLError(RuntimeError):
    """Time step too large for the explicit upwind update."""


@dataclass(frozen=True)
class BlowupEvent:
    """Finite-time synchronization detected by a threshold crossing."""

    t_fin: float
    kind: str            # 'flux' or 'density'
    witness: dict

    def to_json(self):
        return {"t_fin": self.t_fin, "kind": self.kind,
                "witness": {k: float(v) for k, v in self.witness.items()}}


class BlowupError(RuntimeError):
    """Internal signal carrying a BlowupEvent out of the stepping kernel."""

    def __init__(self, event: BlowupEvent):
        super().__init__(f"{event.kind} blow-up at t={event.t_fin:.6g}")
        self.event = event


def default_flux_cap(omega: float) -> float:
    return 1e6 * omega / TWO_PI


@dataclass
class DensityField:
    """Grid-sampled density with its self-consistent boundary flux.

    ``theta`` holds N+1 uniform nodes on [0, 2*pi]; node 0 and node N carry
    the two distinct boundary densities.  ``mass`` is the right-endpoint
    Riemann sum over nodes 1..N, the functional the upwind scheme conserves
    exactly.
    """

    theta: np.ndarray
    rho: np.ndarray
    J0: float
    t: float = 0.0

    @property
    def dtheta(self) -> float:
        return float(self.theta[1] - self.theta[0])

    @property
    def mass(self) -> float:
        return float(np.sum(self.rho[1:]) * self.dtheta)

    def copy(self) -> "DensityField":
        return DensityField(self.theta, self.rho.copy(), self.J0, self.t)

    @classmethod
    def from_profile(cls, model, K, rho_values, t: float = 0.0, *,
                     eps_sing: float = EPS_SING) -> "DensityField":
        """Build a consistent field from a raw nonnegative profile.

        The profile is normalized to unit discrete mass, then the boundary
        flux is computed from rho(2*pi) and rho(0) is overwritten with the
        value the flux relation dictates (an arbitrary profile will not
        satisfy it).  A profile already past the critical boundary density
        raises ``BlowupError`` at construction; one without positive finite
        mass raises ``ValueError``.
        """
        rho = np.asarray(rho_values, dtype=float).copy()
        n = rho.size - 1
        theta = np.linspace(0.0, TWO_PI, n + 1)
        if np.any(rho < 0.0) or not np.all(np.isfinite(rho)):
            raise ValueError("initial density must be nonnegative and finite")
        mass = np.sum(rho[1:]) * (theta[1] - theta[0])
        if not (0.0 < mass < math.inf):
            raise ValueError(f"initial density needs positive finite mass, got {mass!r}")
        rho /= mass
        J0 = _advance_boundary(rho, t, model.omega, K * float(model.prc(0.0)),
                               K * float(model.prc(TWO_PI)), eps_sing, math.inf)
        return cls(theta, rho, J0, t)


# -- stepping kernels ----------------------------------------------------------


def _advance_boundary(rho_new, t_new, omega, kz0, kz_end, eps_sing, flux_cap):
    """Outflow flux from rho(2*pi), then rho(0) from the flux relation."""
    den = 1.0 - kz_end * rho_new[-1]
    if den <= eps_sing:
        raise BlowupError(BlowupEvent(t_new, "flux", {
            "rho_end": rho_new[-1], "rho_critical": 1.0 / kz_end,
            "denominator": den, "eps_sing": eps_sing}))
    J0 = omega * rho_new[-1] / den
    if J0 > flux_cap:
        raise BlowupError(BlowupEvent(t_new, "flux", {"flux": J0, "flux_cap": flux_cap}))
    v0 = omega + kz0 * J0
    if v0 <= eps_sing * omega:
        raise BlowupError(BlowupEvent(t_new, "density", {
            "velocity_at_zero": v0, "flux": J0,
            "flux_critical": omega / abs(kz0) if kz0 < 0 else math.inf}))
    rho_new[0] = J0 / v0
    return J0


def _upwind_step(rho, out, flux, J0, t, dt, dtheta, omega, kz, kz_lo, kz_hi,
                 eps_sing, flux_cap, cfl=None):
    """One upwind step from ``rho`` into ``out``; returns (out, J0_new, dt).

    ``kz`` is K*Z on the grid and ``kz_lo``/``kz_hi`` its extremes, so the
    extremes of the velocity omega + kz*J0 are two scalars (exact: rounding
    is monotone).  ``flux`` is scratch space of the grid's size; ``rho`` is
    left untouched.  With ``cfl`` given, the step is cfl*dtheta/max(v),
    capped at ``dt``; otherwise ``dt`` is used as is.
    """
    vmin = omega + kz_lo * J0
    vmax = omega + kz_hi * J0
    if J0 < 0.0:
        vmin, vmax = vmax, vmin
    if vmin <= eps_sing * omega:
        kind = "density" if kz[0] < 0.0 or kz[-1] < 0.0 else "flux"
        raise BlowupError(BlowupEvent(t, kind, {
            "min_velocity": vmin, "stall_threshold": eps_sing * omega, "flux": J0}))
    if cfl is not None:
        dt = min(cfl * dtheta / vmax, dt)
    if dt * vmax > dtheta * (1.0 + 1e-12):
        raise CFLError(f"dt={dt:.3e} exceeds dtheta/max(v)={dtheta / vmax:.3e}")
    np.multiply(kz, J0, out=flux)
    flux += omega
    flux *= rho
    flux[0] = J0    # inflow equals outflow: both ends carry the boundary flux
    flux[-1] = J0
    update = out[1:]
    np.subtract(flux[1:], flux[:-1], out=update)
    update *= dt / dtheta
    np.subtract(rho[1:], update, out=update)
    J0_new = _advance_boundary(out, t + dt, omega, kz[0], kz[-1], eps_sing, flux_cap)
    return out, J0_new, dt


def step(state: DensityField, model, K: float, dt: float, *,
         eps_sing: float = EPS_SING, flux_cap: float | None = None) -> DensityField:
    """One explicit upwind step of the transport equation; returns a new field."""
    if flux_cap is None:
        flux_cap = default_flux_cap(model.omega)
    kz = K * model.prc(state.theta)
    rho_new, J0_new, dt = _upwind_step(state.rho, np.empty_like(state.rho),
                                       np.empty_like(state.rho), state.J0, state.t, dt,
                                       state.dtheta, model.omega, kz, float(kz.min()),
                                       float(kz.max()), eps_sing, flux_cap)
    return DensityField(state.theta, rho_new, J0_new, state.t + dt)


# -- initial conditions --------------------------------------------------------


def initial_density(kind: str, n_theta: int, model, K: float, *,
                    kappa: float = 2.0, mu: float = math.pi, epsilon: float = 0.2,
                    reference=None) -> DensityField:
    """Standard initial-condition families, normalized and boundary-consistent.

    ``uniform``    flat profile;
    ``vonmises``   exp(kappa*cos(theta - mu)), renormalized;
    ``perturbed``  rho_star(theta) * (1 + epsilon*cos(theta)), renormalized
                   (requires a stationary reference).
    """
    theta = np.linspace(0.0, TWO_PI, n_theta + 1)
    if kind == "uniform":
        prof = np.full(n_theta + 1, 1.0 / TWO_PI)
    elif kind == "vonmises":
        prof = np.exp(kappa * (np.cos(theta - mu) - 1.0))
    elif kind == "perturbed":
        if reference is None:
            raise ValueError("perturbed initial condition needs a stationary reference")
        rho_ref = getattr(reference, "rho_star", reference)
        rr = np.asarray(rho_ref.rho if hasattr(rho_ref, "rho") else rho_ref, dtype=float)
        if rr.size != n_theta + 1:
            src = np.linspace(0.0, TWO_PI, rr.size)
            rr = np.interp(theta, src, rr)
        prof = rr * (1.0 + epsilon * np.cos(theta))
        if np.any(prof <= 0.0):
            raise ValueError("perturbation amplitude drives the density negative")
    else:
        raise ValueError(f"unknown initial condition {kind!r}")
    return DensityField.from_profile(model, K, prof)


# -- trajectory integration ------------------------------------------------------


@dataclass
class TrajectoryLog:
    """Strided time series of a run plus the dense flux history.

    Columns mirror ``trajectory.csv``: t, J0, mass, rho_min, rho_max, V,
    q_min, event.  V and q_min are NaN when no stationary reference exists.
    The dense (per-step) flux history supports characteristic tracing and
    the first-crossing flux window.  ``stop_reason`` ('t_max', 'blowup' or
    'max_steps'), ``n_steps`` and ``v_eval_failures`` (log rows whose V
    raised) are known for integrated runs and None for one read from CSV.
    """

    t: np.ndarray
    J0: np.ndarray
    mass: np.ndarray
    rho_min: np.ndarray
    rho_max: np.ndarray
    V: np.ndarray
    q_min: np.ndarray
    event: list
    blowup: BlowupEvent | None
    dense_t: np.ndarray
    dense_J0: np.ndarray
    first_crossing_time: float | None
    J_window: tuple | None
    initial: DensityField | None
    final: DensityField | None
    snapshots: list = dc_field(default_factory=list)
    reference: object | None = None
    stop_reason: str | None = None
    n_steps: int | None = None
    v_eval_failures: int | None = None

    COLUMNS = ("t", "J0", "mass", "rho_min", "rho_max", "V", "q_min", "event")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.COLUMNS)
            for i in range(self.t.size):
                w.writerow([repr(float(self.t[i])), repr(float(self.J0[i])),
                            repr(float(self.mass[i])), repr(float(self.rho_min[i])),
                            repr(float(self.rho_max[i])), repr(float(self.V[i])),
                            repr(float(self.q_min[i])), self.event[i]])

    @classmethod
    def from_csv(cls, path):
        rows = []
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, [])
            if tuple(header) != cls.COLUMNS:
                raise ValueError(f"{path}: unexpected trajectory columns {header}")
            for row in r:
                if len(row) != len(cls.COLUMNS):
                    raise ValueError(f"{path}: line {r.line_num} has {len(row)} fields, "
                                     f"expected {len(cls.COLUMNS)}")
                rows.append(row)
        if not rows:
            raise ValueError(f"{path}: no trajectory rows")
        cols = list(zip(*rows))
        num = [np.asarray([float(v) for v in c]) for c in cols[:7]]
        events = list(cols[7])
        blow = None
        for i, ev in enumerate(events):
            if ev:
                blow = BlowupEvent(float(num[0][i]), ev.replace("_blowup", ""), {})
        return cls(num[0], num[1], num[2], num[3], num[4], num[5], num[6], events,
                   blow, num[0], num[1], None, None, None, None)

    def summary(self) -> dict:
        def num(x):
            x = float(x)
            return x if math.isfinite(x) else None

        out = {
            "t_final": num(self.t[-1]) if self.t.size else None,
            "J0_final": num(self.J0[-1]) if self.t.size else None,
            "mass_drift": num(np.max(np.abs(self.mass - self.mass[0]))) if self.t.size else None,
            "V_first": num(self.V[0]) if self.t.size else None,
            "V_final": num(self.V[-1]) if self.t.size else None,
            "blowup": self.blowup.to_json() if self.blowup else None,
            "first_crossing_time": self.first_crossing_time,
            "J_window": list(self.J_window) if self.J_window else None,
            "stop_reason": self.stop_reason,
            "n_steps": self.n_steps,
            "v_eval_failures": self.v_eval_failures,
        }
        return out


def integrate(model, K: float, initial: DensityField, *, t_max: float,
              cfl: float = 0.5, dt: float | None = None,
              log_stride: int = 20, reference=None, snapshot_times=(),
              snapshot_stride: int | None = None, eps_sing: float = EPS_SING,
              flux_cap: float | None = None, max_steps: int = 20_000_000) -> TrajectoryLog:
    """March the density to ``t_max``, a blow-up or ``max_steps`` steps,
    logging every ``log_stride`` steps.

    The step size follows the CFL condition dt = cfl * dtheta / max(v)
    (recomputed every step since the velocity depends on the flux), unless a
    fixed ``dt`` is given -- the aligned runs use dt = dtheta/omega to make
    transport at K = 0 a rotation.  When a stationary reference is supplied,
    the quantile Lyapunov distance V and the minimum quantile density are
    logged alongside the flux.
    """
    if dt is not None and not dt > 0.0:
        raise ValueError(f"fixed dt must be positive, got {dt!r}")
    omega = model.omega
    if flux_cap is None:
        flux_cap = default_flux_cap(omega)
    theta = initial.theta
    dtheta = initial.dtheta
    kz = K * model.prc(theta)
    kz_lo, kz_hi = float(kz.min()), float(kz.max())

    ref_profile = _as_profile(reference) if reference is not None else None

    # the step writes into `spare` and the two buffers swap roles
    rho = initial.rho.copy()
    spare = np.empty_like(rho)
    flux = np.empty_like(rho)
    J0 = initial.J0
    t = initial.t

    rows_t, rows_j, rows_m, rows_lo, rows_hi, rows_v, rows_q = [], [], [], [], [], [], []
    events: list = []
    dense_t, dense_j = [t], [J0]
    snaps: list = []
    snap_queue = sorted(float(s) for s in snapshot_times)

    # characteristic launched from theta=0 at t=0: its arrival at 2*pi closes
    # the first-crossing window that bounds the flux from then on; Z on one
    # float goes straight to the model's function, past the array wrapper
    prc = model._prc_fn
    lam = 0.0
    t_cross = None
    v_failures = 0

    def log_row(ev=""):
        nonlocal v_failures
        rows_t.append(t)
        rows_j.append(J0)
        rho_min = float(rho.min())
        rows_m.append(float(rho[1:].sum() * dtheta))
        rows_lo.append(rho_min)
        rows_hi.append(float(rho.max()))
        if ref_profile is not None and rho_min >= 0.0:
            try:
                v_val, q_val = lyapunov_tv_with_qmin(quantile_transform(theta, rho), ref_profile)
            except ValueError:   # QuantileDegenerateError: V undefined on this row
                v_failures += 1
                v_val, q_val = math.nan, math.nan
        else:
            v_val, q_val = math.nan, math.nan
        rows_v.append(v_val)
        rows_q.append(q_val)
        events.append(ev)

    blow = None
    nstep = 0
    log_row()
    while True:
        # fixed stepping (aligned runs) stops at the nearest multiple of dt
        if (t >= t_max) if dt is None else (t_max - t < 0.5 * dt):
            stop_reason = "t_max"
            break
        if nstep >= max_steps:
            stop_reason = "max_steps"
            break
        try:
            rho_new, J0_new, step_dt = _upwind_step(
                rho, spare, flux, J0, t, t_max - t if dt is None else dt, dtheta, omega,
                kz, kz_lo, kz_hi, eps_sing, flux_cap, cfl=cfl if dt is None else None)
        except BlowupError as exc:
            blow = exc.event
            stop_reason = "blowup"
            log_row(ev=f"{blow.kind}_blowup")
            break
        # first-crossing characteristic, RK2 with the same step
        if t_cross is None:
            v1 = omega + K * float(prc(min(lam, TWO_PI))) * J0
            lam_mid = lam + 0.5 * step_dt * v1
            v2 = omega + K * float(prc(min(lam_mid, TWO_PI))) * (0.5 * (J0 + J0_new))
            lam_new = lam + step_dt * v2
            if lam_new >= TWO_PI:
                frac = (TWO_PI - lam) / (lam_new - lam)
                t_cross = t + frac * step_dt
            lam = lam_new
        rho, spare = rho_new, rho
        J0 = J0_new
        t += step_dt
        nstep += 1
        dense_t.append(t)
        dense_j.append(J0)
        while snap_queue and t >= snap_queue[0] - 1e-12:
            snaps.append((t, rho.copy()))
            snap_queue.pop(0)
        if snapshot_stride and nstep % snapshot_stride == 0:
            snaps.append((t, rho.copy()))
        if nstep % log_stride == 0:
            log_row()
    if blow is None and (not rows_t or rows_t[-1] < t):
        log_row()

    dense_t = np.asarray(dense_t)
    dense_j = np.asarray(dense_j)
    j_window = None
    if t_cross is not None:
        m = dense_t <= t_cross + 1e-15
        if m.any():
            j_window = (float(dense_j[m].min()), float(dense_j[m].max()))

    final = DensityField(theta, rho.copy(), J0, t)
    return TrajectoryLog(np.asarray(rows_t), np.asarray(rows_j), np.asarray(rows_m),
                         np.asarray(rows_lo), np.asarray(rows_hi), np.asarray(rows_v),
                         np.asarray(rows_q), events, blow, dense_t, dense_j,
                         t_cross, j_window, initial.copy(), final, snaps,
                         reference, stop_reason, nstep, v_failures)


# -- characteristics -------------------------------------------------------------


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


def characteristic_trace(traj: TrajectoryLog, model, K: float, theta_start: float,
                         t_start: float = 0.0, *, rho_start: float | None = None,
                         h: float | None = None) -> CharacteristicTrace:
    """Integrate d(theta)/dt = v and d(rho)/dt = -rho*J0*K*Z'(theta) by RK2.

    The flux history is linearly interpolated from the dense log.  The trace
    runs until the curve reaches 2*pi or the stored history ends (returned
    with ``truncated`` set).  The starting density defaults to the run's
    initial condition (t_start = 0) or a stored snapshot at t_start.
    """
    omega = model.omega
    td, jd = traj.dense_t, traj.dense_J0

    def j_at(tau):
        return float(np.interp(tau, td, jd))

    if rho_start is None:
        source = None
        if t_start == 0.0 and traj.initial is not None:
            source = traj.initial
        else:
            for ts, arr in traj.snapshots:
                if abs(ts - t_start) < 1e-9:
                    source = DensityField(traj.initial.theta, arr, j_at(ts), ts)
                    break
        if source is None:
            raise ValueError("no stored density at t_start; pass rho_start explicitly")
        rho_start = float(np.interp(theta_start, source.theta, source.rho))

    if h is None:
        h = float(np.median(np.diff(td))) if td.size > 1 else 1e-3

    lam, rc, t = float(theta_start), float(rho_start), float(t_start)
    ts, lams, rhos = [t], [lam], [rc]
    truncated = False
    while lam < TWO_PI:
        if t > td[-1] - 1e-15:
            truncated = True
            break
        j1 = j_at(t)
        v1 = omega + K * float(model.prc(min(lam, TWO_PI))) * j1
        g1 = -rc * j1 * K * float(model.prc_deriv(min(lam, TWO_PI)))
        lm = min(lam + 0.5 * h * v1, TWO_PI)
        jm = j_at(t + 0.5 * h)
        v2 = omega + K * float(model.prc(lm)) * jm
        g2 = -(rc + 0.5 * h * g1) * jm * K * float(model.prc_deriv(lm))
        lam_new = lam + h * v2
        rc_new = rc + h * g2
        if lam_new >= TWO_PI:
            frac = (TWO_PI - lam) / (lam_new - lam)
            t = t + frac * h
            lam = TWO_PI
            rc = rc + frac * (rc_new - rc)
        else:
            lam, rc, t = lam_new, rc_new, t + h
        ts.append(t)
        lams.append(lam)
        rhos.append(rc)
    return CharacteristicTrace(np.asarray(ts), np.asarray(lams), np.asarray(rhos),
                               truncated)


# -- admissibility ----------------------------------------------------------------


class AdmissibilityVerdict(enum.Enum):
    ALWAYS_BY_SIGN = "admissible_boundary_sign"     # K*Z(2*pi) <= 0, any positive profile
    SUFFICIENT_BOUND = "admissible_below_bound"     # rho0 < 1/(K*Z) everywhere
    NUMERICAL_OK = "admissible_numerically"
    NUMERICAL_BLOWUP = "inadmissible_numerically"


@dataclass(frozen=True)
class AdmissibilityReport:
    verdict: AdmissibilityVerdict
    detail: dict

    @property
    def admissible(self) -> bool:
        return self.verdict is not AdmissibilityVerdict.NUMERICAL_BLOWUP


def check_admissibility(rho0, model, K: float, *, eps_sing: float = EPS_SING,
                        flux_cap: float | None = None) -> AdmissibilityReport:
    """Decide whether an initial profile keeps the flux finite and positive
    until every oscillator has crossed the firing phase once.

    Closed-form verdicts apply to contracting dynamics (K*Z' < 0): a
    non-positive boundary value of K*Z admits every positive profile, and
    rho0 < 1/(K*Z) pointwise is sufficient otherwise.  Any other case is
    settled by running the solver over the first-crossing window of the
    characteristic launched at theta = 0.
    """
    from .models import Monotonicity

    prof = np.asarray(rho0.rho if hasattr(rho0, "rho") else rho0, dtype=float)
    n = prof.size - 1
    theta = np.linspace(0.0, TWO_PI, n + 1)
    z = model.prc(theta)
    kz_end = K * float(z[-1])

    kz_mono = model.monotonicity
    contracting = (K < 0 and kz_mono is Monotonicity.INCREASING) or \
                  (K > 0 and kz_mono is Monotonicity.DECREASING)
    strictly_positive = bool(np.all(prof > 0.0))

    if contracting and strictly_positive and kz_end <= 0.0:
        return AdmissibilityReport(AdmissibilityVerdict.ALWAYS_BY_SIGN,
                                   {"kz_end": kz_end})
    if contracting and strictly_positive and kz_end > 0.0:
        bound = 1.0 / (K * z)
        if np.all(prof < bound):
            margin = float(np.min(bound - prof))
            return AdmissibilityReport(AdmissibilityVerdict.SUFFICIENT_BOUND,
                                       {"kz_end": kz_end, "margin": margin})

    # numerical route: simulate until the theta=0 characteristic crosses
    if flux_cap is None:
        flux_cap = default_flux_cap(model.omega)
    try:
        field = DensityField.from_profile(model, K, prof, eps_sing=eps_sing)
    except BlowupError as exc:
        return AdmissibilityReport(AdmissibilityVerdict.NUMERICAL_BLOWUP,
                                   {"blowup": exc.event.to_json()})
    t_guard = 60.0 * TWO_PI / model.omega
    traj = integrate(model, K, field, t_max=t_guard, log_stride=1_000_000,
                     eps_sing=eps_sing, flux_cap=flux_cap)
    if traj.blowup is not None and (traj.first_crossing_time is None or
                                    traj.blowup.t_fin <= traj.first_crossing_time):
        return AdmissibilityReport(AdmissibilityVerdict.NUMERICAL_BLOWUP,
                                   {"blowup": traj.blowup.to_json()})
    if traj.first_crossing_time is None:
        return AdmissibilityReport(AdmissibilityVerdict.NUMERICAL_BLOWUP,
                                   {"reason": "no first crossing before guard time",
                                    "t_guard": t_guard})
    return AdmissibilityReport(AdmissibilityVerdict.NUMERICAL_OK,
                               {"first_crossing_time": traj.first_crossing_time,
                                "J_window": list(traj.J_window) if traj.J_window else None})

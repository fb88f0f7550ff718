"""Existence and computation of the asynchronous stationary state.

A stationary solution carries a constant flux J* > 0 with density

    rho_star(theta) = J* / (omega + K*Z(theta)*J*),

positive and normalized.  Positivity confines J* to the open interval
(0, omega/r) with r = |min K*Z| (r = 0 when K*Z >= 0 everywhere), and the
normalization functional

    W(J) = integral_0^{2*pi} J / (omega + K*Z(theta)*J) dtheta

is strictly increasing there with W(0+) = 0, so the state exists iff the
supremum of W exceeds one:

    lim_{s -> r+} integral_0^{2*pi} dtheta / (K*Z(theta) + s) > 1,

and is then the unique root of W(J) = 1.  For integrate-and-fire dynamics
the admissible coupling window has the closed-form upper edge
K < x_hi - x_lo; the lower edge is the limit of integral s/(s - F(x)) dx as
s approaches min F from below, which diverges to -infinity for smooth
fields (reported as unbounded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .continuum import DensityField
from .numerics import bisect_root
from .models import OscillatorModel, ModelError

TWO_PI = 2.0 * math.pi

# limit sequences s_k = r + 10^-k (and mirrored for the coupling lower bound)
LIMIT_KS = range(1, 13)
LIMIT_MARGIN = 1e-6
DIVERGENCE_CAP = 1e6
W_TOL = 1e-12


class NoStationaryStateError(RuntimeError):
    """The existence condition fails for this model and coupling."""

    def __init__(self, result):
        super().__init__(f"no stationary flux: limit value {result.limit_value:.6g} <= 1")
        self.result = result


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    r: float
    limit_value: float
    s_values: tuple
    integrals: tuple

    def to_json(self):
        return {"exists": self.exists, "r": self.r,
                "limit_value": None if math.isinf(self.limit_value) else self.limit_value}


@dataclass(frozen=True)
class CouplingBounds:
    lower: float
    upper: float
    lower_unbounded: bool

    def to_json(self):
        return {"K_lower": None if self.lower_unbounded else self.lower,
                "K_upper": self.upper, "lower_unbounded": self.lower_unbounded}


@dataclass
class StationaryState:
    """Asynchronous fixed point: flux, sampled density and its certificate."""

    J_star: float
    rho_star: DensityField
    exists: bool
    J_interval: tuple
    r: float
    K: float
    model: OscillatorModel

    def density_at(self, theta):
        z = self.model.prc(theta)
        return self.J_star / (self.model.omega + self.K * z * self.J_star)


def _quad(f, a: float, b: float, *, tol: float = 1e-11, points=None) -> float:
    """Globally adaptive quadrature (QUADPACK); robust on the near-singular
    integrands of the limit sequences, where tolerance-halving schemes
    degenerate.  full_output mutes the convergence warnings (thread-safe,
    unlike a warnings filter)."""
    out = quad(f, a, b, epsabs=tol, epsrel=tol, limit=500, points=points,
               full_output=1)
    return out[0]


def _r_value(model: OscillatorModel, K: float, n: int = 4097) -> float:
    grid = np.linspace(0.0, TWO_PI, n)
    kz = K * model.prc(grid)
    m = float(kz.min())
    return 0.0 if m >= 0.0 else abs(m)


def _kz_argmin(model: OscillatorModel, K: float, n: int = 4097) -> float:
    grid = np.linspace(0.0, TWO_PI, n)
    kz = K * model.prc(grid)
    # interior breakpoint for the quadrature near the singular phase
    return float(np.clip(grid[int(np.argmin(kz))], 1e-6, TWO_PI - 1e-6))


def j_interval(model: OscillatorModel, K: float) -> tuple:
    r = _r_value(model, K)
    return (0.0, math.inf if r == 0.0 else model.omega / r)


def normalization_functional(model: OscillatorModel, K: float, J: float,
                             tol: float = W_TOL) -> float:
    """W(J) = integral J/(omega + K*Z*J) dtheta; strictly increasing in J."""
    lo, hi = j_interval(model, K)
    if not (lo < J < hi):
        raise ValueError(f"J={J} outside the admissible interval (0, {hi:.6g})")
    pts = [_kz_argmin(model, K)] if K != 0.0 else None
    return _w_integral(model, K, J, pts, tol)


def _w_integral(model: OscillatorModel, K: float, J: float, pts, tol: float) -> float:
    """W(J) for an admissible J, with the quadrature breakpoints given."""
    omega = model.omega
    prc = model._prc_fn   # QUADPACK passes one float: no array wrapper
    return _quad(lambda th: J / (omega + K * float(prc(th)) * J),
                 0.0, TWO_PI, tol=tol, points=pts)


def existence_condition(model: OscillatorModel, K: float) -> ExistenceResult:
    """Evaluate the monotone limit lim_{s->r+} integral dtheta/(K*Z+s).

    The integrand increases monotonically as s decreases to r, so the limit
    is probed along s_k = r + 10^-k: the condition is declared satisfied
    once three consecutive values exceed 1 + 1e-6 (or any value passes the
    divergence cap, reported as an infinite limit); otherwise the final
    value decides.
    """
    r = _r_value(model, K)
    pts = [_kz_argmin(model, K)] if K != 0.0 else None
    prc = model._prc_fn   # QUADPACK passes one float: no array wrapper
    s_vals, ints = [], []
    consecutive = 0
    exists = None
    limit = None
    for k in LIMIT_KS:
        s = r + 10.0 ** (-k)
        val = _quad(lambda th: 1.0 / (K * float(prc(th)) + s),
                    0.0, TWO_PI, tol=1e-9, points=pts)
        s_vals.append(s)
        ints.append(val)
        if val > DIVERGENCE_CAP:
            exists, limit = True, math.inf
            break
        consecutive = consecutive + 1 if val > 1.0 + LIMIT_MARGIN else 0
        if consecutive >= 3:
            exists = True
            break
    if exists is None:
        exists = ints[-1] > 1.0
    if limit is None:
        limit = ints[-1]
    return ExistenceResult(exists, r, limit, tuple(s_vals), tuple(ints))


def coupling_bounds(model: OscillatorModel) -> CouplingBounds:
    """Admissible coupling window for integrate-and-fire dynamics.

    Upper edge is exactly the threshold gap x_hi - x_lo.  The lower edge is
    probed along s_k = F_min*(1 - 10^-k); a sequence that keeps drifting (or
    passes the divergence cap, or meets the pole s = F(x)) is reported
    unbounded below.  F_min is the grid minimum, or the minimum refined
    inside the grid cells beside it when that is smaller: a minimum inside
    a cell lies below the grid value, and s_k would otherwise cross it.
    """
    if model.F is None:
        raise ModelError(f"{model.kind} model has no vector field; coupling bounds undefined")
    upper = model.x_hi - model.x_lo
    xs = np.linspace(model.x_lo, model.x_hi, 4097)
    fx = np.asarray(model.F(xs), dtype=float)
    i = int(np.argmin(fx))
    f_min = float(fx[i])
    span = model.x_hi - model.x_lo
    x_min = float(xs[i])
    cell = (float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)]))
    refined = minimize_scalar(model.F, bounds=cell, method="bounded",
                              options={"xatol": 1e-12 * span})
    if refined.fun < f_min:
        f_min, x_min = float(refined.fun), float(refined.x)
    x_min = float(np.clip(x_min, model.x_lo + 1e-9 * span, model.x_hi - 1e-9 * span))
    F = model.F   # QUADPACK passes one float: F's float path
    vals = []
    unbounded = False
    for k in LIMIT_KS:
        s = f_min * (1.0 - 10.0 ** (-k))
        try:
            val = _quad(lambda x: s / (s - F(x)),
                        model.x_lo, model.x_hi, tol=1e-9, points=[x_min])
        except ZeroDivisionError:   # s met the field: the integral diverged
            unbounded = True
            break
        vals.append(val)
        if val < -DIVERGENCE_CAP:
            unbounded = True
            break
    if not unbounded and len(vals) >= 2:
        # logarithmic divergence never hits the cap; detect by non-convergence
        unbounded = abs(vals[-1] - vals[-2]) > 1e-6 * max(1.0, abs(vals[-1]))
    lower = -math.inf if unbounded else vals[-1]
    return CouplingBounds(lower, upper, unbounded)


def solve_stationary_flux(model: OscillatorModel, K: float, tol: float = 1e-10,
                          n_theta: int = 2048) -> StationaryState:
    """Unique root of W(J) = 1 by bracketed bisection on the admissible interval.

    K = 0 is returned in closed form (J* = omega/(2*pi), uniform density).
    For r > 0 the upper bracket is walked in as (1 - 10^-k) * omega/r until
    W exceeds one, since W may diverge only at the endpoint itself.
    """
    omega = model.omega
    theta = np.linspace(0.0, TWO_PI, n_theta + 1)
    z = model.prc(theta)

    if K == 0.0 or float(np.max(np.abs(z))) == 0.0:
        j_star = omega / TWO_PI
        rho = np.full(n_theta + 1, 1.0 / TWO_PI)
        field = DensityField(theta, rho, j_star, 0.0)
        return StationaryState(j_star, field, True, (0.0, math.inf), 0.0, K, model)

    result = existence_condition(model, K)
    if not result.exists:
        raise NoStationaryStateError(result)

    r = result.r
    hi_edge = math.inf if r == 0.0 else omega / r
    # J stays inside (0, hi_edge) below, so W skips the interval check and
    # the breakpoint scan that normalization_functional repeats per call
    pts = [_kz_argmin(model, K)]
    w = lambda J: _w_integral(model, K, J, pts, W_TOL) - 1.0

    lo = min(1e-12 * omega, (hi_edge if math.isfinite(hi_edge) else 1.0) * 1e-12)
    hi = None
    if math.isfinite(hi_edge):
        for k in range(1, 15):
            cand = (1.0 - 10.0 ** (-k)) * hi_edge
            if w(cand) > 0.0:
                hi = cand
                break
        if hi is None:
            raise RuntimeError(
                "stationary flux is closer to the admissible-interval endpoint than "
                "double precision resolves; coupling too strong to solve numerically")
    else:
        cand = omega / TWO_PI
        for _ in range(80):
            if w(cand) > 0.0:
                hi = cand
                break
            cand *= 2.0
        if hi is None:
            raise RuntimeError("normalization functional never exceeded one")

    j_star = bisect_root(w, lo, hi, xtol=0.0, ftol=tol, max_iter=200)
    rho = J_density(model, K, j_star, theta)
    field = DensityField(theta, rho, j_star, 0.0)
    return StationaryState(j_star, field, True, (0.0, hi_edge), r, K, model)


def J_density(model: OscillatorModel, K: float, J: float, theta) -> np.ndarray:
    """Density profile rho = J/(omega + K*Z*J) for a given flux value."""
    z = model.prc(np.asarray(theta, dtype=float))
    return J / (model.omega + K * z * J)

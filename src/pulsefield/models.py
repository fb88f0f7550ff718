"""Integrate-and-fire oscillator models and their phase-space description.

An integrate-and-fire oscillator carries a scalar state x that grows from a
lower threshold x_lo to an upper threshold x_hi under dx/dt = F(x) > 0 and
resets to x_lo on reaching x_hi (a "firing").  Rescaling the state so the
uncoupled oscillator moves at a constant phase velocity omega gives the
phase coordinate

    theta(x) = omega * integral_{x_lo}^{x} ds / F(s),   theta in [0, 2*pi],

with omega = 2*pi / integral dx/F.  The sensitivity of the phase to a small
state kick is the phase response curve

    Z(theta) = omega / F(x(theta)),

so monotone vector fields produce monotone response curves of the opposite
derivative sign.  Three constructors are provided:

* ``lif_model``        -- leaky integrate-and-fire, F(x) = S - gamma*x, with
                          closed-form phase map and Z(theta) = Z(0)*exp(gamma*theta/omega);
* ``tabulated_model``  -- any positive field given as (x, F) samples, handled
                          through monotone piecewise-cubic interpolation, with
                          theta(x), x(theta) and Z(theta) tabulated once as
                          cubic Hermite splines whose node slopes come from
                          the field (omega/F, F/omega, -F'/F);
* ``homoclinic_model`` -- the near-homoclinic limit-cycle response curve
                          Z(theta) = C*omega*exp(2*pi*lam_u/omega)*exp(-lam_u*theta/omega),
                          which has no underlying scalar field.
"""

from __future__ import annotations

import csv
import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Sampling used for classification, extrema scans and tabulated phase maps.
DENSE_GRID_SIZE = 4097
SIGN_DEAD_BAND = 1e-9
# samples a tabulated model takes of a callable field
CALLABLE_SAMPLES = 1025


class ModelError(ValueError):
    """Invalid model construction or an operation outside a model's domain."""


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NEUTRAL = "neutral"
    MIXED = "mixed"


class Curvature(enum.Enum):
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    MIXED = "mixed"


@dataclass(frozen=True)
class SignClassification:
    """Sign classes of Z' and Z'' from dense finite differences.

    A constant response curve has second derivative that is simultaneously
    >= 0 and <= 0; both flags are then true and ``curvature`` reports the
    nonnegative label.
    """

    monotonicity: Monotonicity
    curvature: Curvature
    curvature_nonneg: bool
    curvature_nonpos: bool


class OscillatorModel:
    """Immutable bundle of thresholds, field, frequency and response curve.

    Not constructed directly; use ``lif_model``, ``tabulated_model`` or
    ``homoclinic_model``.  All evaluation methods accept scalars or arrays
    and are pure, so instances can be shared freely across threads.

    ``_phase_fn`` and ``_state_inverse`` are the unchecked phase map and its
    inverse.  They continue the field past the thresholds (theta < 0 below
    x_lo), which the finite-N drift needs for states an inhibitory kick
    pushed under the reset; the public methods check and clip the domain.
    ``_prc_fn`` is Z without the array wrapper of ``prc``: on one float it
    gives the same bits, so a scalar hot loop (the first-crossing
    characteristic) calls it directly.  ``_prc_fn`` and ``F``
    take a float path on one Python float: plain float arithmetic for the
    closed forms, ``PiecewiseCubic``'s for the tabulated splines.
    """

    def __init__(self, kind, x_lo, x_hi, omega, F, phase_fn, state_inverse,
                 prc_fn, prc_deriv_fn, params):
        self.kind = kind
        self.x_lo = float(x_lo)
        self.x_hi = float(x_hi)
        self.omega = float(omega)
        self.F = F
        self._phase_fn = phase_fn
        self._state_inverse = state_inverse
        self._prc_fn = prc_fn
        self._prc_deriv_fn = prc_deriv_fn
        self.params = dict(params)
        cls = classify_monotonicity(self)
        self.monotonicity = cls.monotonicity
        self.curvature = cls.curvature

    # -- phase map ----------------------------------------------------------

    def phase_of_state(self, x):
        """Phase theta(x) on [0, 2*pi]; strictly increasing in x."""
        if self.F is None:
            raise ModelError(f"{self.kind} model has no vector field")
        xa = np.asarray(x, dtype=float)
        if np.any(xa < self.x_lo - 1e-12) or np.any(xa > self.x_hi + 1e-12):
            raise ModelError("state outside [x_lo, x_hi]")
        xa = np.clip(xa, self.x_lo, self.x_hi)
        out = np.clip(self._phase_fn(xa), 0.0, TWO_PI)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def state_of_phase(self, theta):
        """Inverse of the phase map: closed form for LIF, for tabulated
        fields the Hermite inverse table refined by Newton steps on theta(x)."""
        if self.F is None:
            raise ModelError(f"{self.kind} model has no vector field")
        ta = np.asarray(theta, dtype=float)
        if np.any(ta < -1e-12) or np.any(ta > TWO_PI + 1e-12):
            raise ModelError("phase outside [0, 2*pi]")
        ta = np.clip(ta, 0.0, TWO_PI)
        out = np.clip(self._state_inverse(ta), self.x_lo, self.x_hi)
        out = np.where(ta <= 0.0, self.x_lo, out)
        out = np.where(ta >= TWO_PI, self.x_hi, out)
        return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out

    # -- response curve ------------------------------------------------------

    def prc(self, theta):
        """Z(theta); equals omega / F(x(theta)) for integrate-and-fire kinds."""
        ta = np.asarray(theta, dtype=float)
        out = self._prc_fn(ta)
        return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out

    def prc_deriv(self, theta):
        """dZ/dtheta; for integrate-and-fire kinds this is -F'(x(theta))/F(x(theta))."""
        ta = np.asarray(theta, dtype=float)
        out = self._prc_deriv_fn(ta)
        return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out

    def kz_prime_extrema(self, K: float):
        """(min, max) of K * Z'(theta) over the DENSE_GRID_SIZE grid on [0, 2*pi]."""
        grid = np.linspace(0.0, TWO_PI, DENSE_GRID_SIZE)
        vals = K * self.prc_deriv(grid)
        return float(vals.min()), float(vals.max())

    def __repr__(self):
        ps = ", ".join(f"{k}={v:.6g}" for k, v in self.params.items())
        return f"OscillatorModel({self.kind}, omega={self.omega:.6g}, {ps})"


# -- constructors -------------------------------------------------------------


def lif_model(S: float, gamma: float, x_lo: float = 0.0, x_hi: float = 1.0) -> OscillatorModel:
    """Leaky integrate-and-fire oscillator dx/dt = S - gamma*x on [x_lo, x_hi].

    Requires S - gamma*x_hi > 0 so the field stays positive up to threshold.
    Every map has a closed form:

        omega       = 2*pi*gamma / log((S - gamma*x_lo)/(S - gamma*x_hi))
        theta(x)    = (omega/gamma) * log((S - gamma*x_lo)/(S - gamma*x))
        x(theta)    = (S - (S - gamma*x_lo) * exp(-gamma*theta/omega)) / gamma
        Z(theta)    = (omega/(S - gamma*x_lo)) * exp(gamma*theta/omega)
    """
    if not all(map(math.isfinite, (S, gamma, x_lo, x_hi))):
        raise ModelError("LIF parameters S, gamma, x_lo, x_hi must be finite")
    if gamma == 0.0:
        raise ModelError("gamma must be nonzero; use tabulated_model for a constant field")
    if not x_hi > x_lo:
        raise ModelError("need x_hi > x_lo")
    F_lo = S - gamma * x_lo
    F_hi = S - gamma * x_hi
    if not (0.0 < F_lo < math.inf and 0.0 < F_hi < math.inf):
        raise ModelError("field S - gamma*x must be positive and finite on [x_lo, x_hi]")
    omega = TWO_PI * gamma / math.log(F_lo / F_hi)

    def F(x):
        if type(x) is float:
            return S - gamma * x
        return S - gamma * np.asarray(x, dtype=float)

    def phase_fn(x):
        return (omega / gamma) * np.log(F_lo / (S - gamma * x))

    def state_inverse(theta):
        return (S - F_lo * np.exp(-gamma * theta / omega)) / gamma

    def prc_fn(theta):
        return (omega / F_lo) * np.exp(gamma * theta / omega)

    def prc_deriv_fn(theta):
        return (gamma / omega) * prc_fn(theta)

    return OscillatorModel("lif", x_lo, x_hi, omega, F, phase_fn, state_inverse,
                           prc_fn, prc_deriv_fn,
                           {"S": S, "gamma": gamma, "x_lo": x_lo, "x_hi": x_hi})


class PiecewiseCubic:
    """Piecewise cubic (a quadratic from ``derivative``) on knots ``x``,
    with ``c[k, i]`` the coefficient of ``(v - x[i])**(deg - k)`` on piece i.

    The layout and the arithmetic are those of ``PPoly``, the piecewise
    polynomial behind ``PchipInterpolator`` and ``CubicHermiteSpline``, so
    every value has the same bits: the piece is the last knot at or below
    v, the end pieces continue past ``x[0]`` and ``x[-1]``, and the sum runs
    from the constant term up, ``0.0 + c3 + c2*s + c1*(s*s) + c0*((s*s)*s)``
    with s = v - x[i]; ``slope``, the first derivative, is
    ``0.0 + c2 + (c1*s)*2 + (c0*(s*s))*3``.  NaN propagates through the sum.
    On one Python float the piece is found by ``bisect_right`` on a knot
    list and the sum is formed in floats, at about a seventh of the cost of
    the array call.  Built by ``pchip`` and ``hermite``.
    """

    def __init__(self, x, c):
        self.x = x
        self.c = c
        # a piece's coefficients and minus its left knot in one column, so
        # one take reads a point's piece; v + (-x_i) is v - x_i exactly, and
        # the constant is stored as PPoly's 0.0 + c (a -0.0 becomes 0.0)
        self._rows = np.vstack([c, -x[:-1]])
        self._rows[-2] += 0.0
        self._inner = x[1:-1]
        self._cubic = len(c) == 4
        self._last = len(x) - 2
        self._pieces = None

    def __call__(self, v):
        """Values at v: a float for a Python float (cubic tables), else an
        array of v's shape."""
        if type(v) is float and self._cubic:
            if self._pieces is None:
                self._knots = self.x.tolist()
                self._pieces = list(map(tuple, self.c.T.tolist()))
            knots = self._knots
            i = bisect_right(knots, v) - 1
            if i < 0:
                i = 0
            elif i > self._last:
                i = self._last
            c0, c1, c2, c3 = self._pieces[i]
            s = v - knots[i]
            res = 0.0 + c3
            res += c2 * s
            z = s * s
            res += c1 * z
            z *= s
            return res + c0 * z
        if type(v) is not np.ndarray:
            v = np.asarray(v, dtype=float)
        if not v.ndim:
            return self(v.reshape(1)).reshape(())
        # one searchsorted on the inner knots gives the clipped piece index,
        # one take its column; the sum is then formed in place, term by term
        r = self._rows.take(self._inner.searchsorted(v, "right"), axis=1)
        s = r[-1]
        s += v
        if not self._cubic:
            res = r[1]
            res *= s
            res += r[2]
            s *= s
            c0 = r[0]
            c0 *= s
            res += c0
            return res
        z = s * s
        c0, c1, res = r[0], r[1], r[2]
        res *= s
        res += r[3]
        c1 *= z
        res += c1
        z *= s
        c0 *= z
        res += c0
        return res

    def slope(self, v):
        """First derivative of a cubic table at v, as PPoly's ``pp(v, 1)``."""
        v = np.asarray(v, dtype=float)
        c0, c1, c2, _, s = self._rows.take(self._inner.searchsorted(v, "right"), axis=1)
        s = s + v
        return ((0.0 + c2) + c1 * s * 2.0) + c0 * (s * s) * 3.0

    def derivative(self):
        """The first derivative of a cubic table as PPoly forms it, a
        quadratic table with coefficients (3c0, 2c1, c2)."""
        return PiecewiseCubic(self.x, self.c[:-1] * np.array([3.0, 2.0, 1.0])[:, None])


def hermite(x, y, dydx) -> PiecewiseCubic:
    """Cubic Hermite interpolant of values y and slopes dydx at the strictly
    increasing knots x, with ``CubicHermiteSpline``'s coefficients."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return PiecewiseCubic(x, np.stack((t / dx, (slope - dydx[:-1]) / dx - t,
                                       dydx[:-1], y[:-1])))


def pchip(x, y) -> PiecewiseCubic:
    """Monotone piecewise cubic interpolant (Fritsch-Carlson PCHIP) of y at
    the strictly increasing knots x, with ``PchipInterpolator``'s slopes.

    Inner slopes are the weighted harmonic mean of the neighbouring secants
    (Fritsch-Butland), zero where the secants differ in sign or one is zero;
    the end slopes are Moler's one-sided three-point estimates, kept in
    shape; two samples give the straight line.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return hermite(x, y, np.array([m[0], m[0]]))
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return hermite(x, y, d)


def _pchip_end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, zeroed when it leaves the sign of the
    # end secant and capped at 3*m0 when the secants change sign
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def tabulated_model(x_samples, F_samples=None, *, x_lo=None, x_hi=None) -> OscillatorModel:
    """Oscillator with a field given by samples or by a callable.

    ``tabulated_model(x, F_values)`` interpolates the samples; passing a
    callable as the first argument samples it on CALLABLE_SAMPLES evenly
    spaced points over [x_lo, x_hi].  Interpolation is monotone piecewise
    cubic (PCHIP), which keeps the sign of dF/dx and hence the monotonicity
    class of Z intact.

    The phase table sits on the sample knots plus enough evenly spaced
    points in each sample interval that no piece is wider than the spacing
    of a DENSE_GRID_SIZE grid.  Each piece lies inside one PCHIP cubic, so
    one 8-point Gauss-Legendre sum of 1/F per piece, cumulated, gives
    theta at every node to rounding.  theta(x), its inverse x(theta) and
    Z(theta) = omega/F are then cubic Hermite splines on those nodes, with
    the exact slopes omega/F, F/omega and -F'/F; Z' is the derivative of
    the Z spline, and Z past [0, 2*pi] continues its end cubics.
    """
    if callable(x_samples):
        if x_lo is None or x_hi is None:
            raise ModelError("sampling a callable field needs x_lo and x_hi")
        xs = np.linspace(float(x_lo), float(x_hi), CALLABLE_SAMPLES)
        Fs = np.asarray([x_samples(float(x)) for x in xs], dtype=float)
    else:
        xs = np.asarray(x_samples, dtype=float)
        Fs = np.asarray(F_samples, dtype=float)
        if xs.ndim != 1 or xs.shape != Fs.shape or xs.size < 2:
            raise ModelError("need matching 1-D x and F sample arrays")
        order = np.argsort(xs)
        xs, Fs = xs[order], Fs[order]
        if np.any(np.diff(xs) <= 0.0):
            raise ModelError("x samples must be strictly increasing")
    if not np.isfinite(xs).all():
        raise ModelError("x samples must be finite")
    if np.any(~np.isfinite(Fs)) or np.any(Fs <= 0.0):
        raise ModelError("vector field must be positive and finite on [x_lo, x_hi]")

    x_lo, x_hi = float(xs[0]), float(xs[-1])
    F_interp = pchip(xs, Fs)

    # table nodes: every sample interval split evenly into pieces no wider
    # than a DENSE_GRID_SIZE grid's spacing, so each piece lies inside one
    # PCHIP cubic and 1/F on it is the reciprocal of one positive cubic
    dx = np.diff(xs)
    m = np.ceil(dx * ((DENSE_GRID_SIZE - 1) / (x_hi - x_lo))).astype(int)
    cell = np.repeat(np.arange(dx.size), m)
    frac = (np.arange(cell.size) - np.repeat(np.cumsum(m) - m, m)) / m[cell]
    xn = np.append(xs[cell] + frac * dx[cell], x_hi)

    # integral dx/F by one 8-point Gauss-Legendre sum per piece
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(xn)
    nodes = (xn[:-1] + half)[:, None] + half[:, None] * gl_nodes
    cum = np.concatenate([[0.0], np.cumsum(half * (gl_weights / F_interp(nodes)).sum(axis=1))])
    omega = TWO_PI / cum[-1]
    theta_n = omega * cum
    theta_n[-1] = TWO_PI

    # cubic Hermite maps with the exact node slopes dtheta/dx = omega/F,
    # dx/dtheta = F/omega and dZ/dtheta = -F'/F
    Fn = F_interp(xn)
    phase_interp = hermite(xn, theta_n, omega / Fn)
    state_interp = hermite(theta_n, xn, Fn / omega)
    z_interp = hermite(theta_n, omega / Fn, -F_interp.slope(xn) / Fn)

    def phase_fn(x):
        # below x_lo the table's cubic extrapolation errs like (x_lo - x)**3;
        # there theta is -omega * (drift time to x_lo), by Gauss-Legendre
        x = np.asarray(x, dtype=float)
        theta = phase_interp(x)
        below = x < x_lo
        if below.any():
            xb = x[below]
            half = 0.5 * (x_lo - xb)
            nodes = (x_lo - half)[:, None] + half[:, None] * gl_nodes
            theta[below] = -omega * half * (gl_weights / F_interp(nodes)).sum(axis=1)
        return theta

    def state_inverse(theta):
        # x(theta) and theta(x) are separate Hermite tables, inverse to each
        # other only up to the interpolation error; two Newton steps with
        # dtheta/dx = omega/F make x the root of phase_fn(x) = theta
        x = state_interp(theta)
        for _ in range(2):
            x = x - (phase_fn(x) - theta) * F_interp(x) / omega
        return x

    return OscillatorModel("tabulated", x_lo, x_hi, omega, F_interp, phase_fn, state_inverse,
                           z_interp, z_interp.derivative(),
                           {"x_lo": x_lo, "x_hi": x_hi, "n_samples": xs.size})


def homoclinic_model(C: float, lambda_u: float, omega: float) -> OscillatorModel:
    """Response curve of a limit cycle near a homoclinic bifurcation.

    Z(theta) = C*omega*exp(2*pi*lambda_u/omega) * exp(-lambda_u*theta/omega):
    monotone decreasing with nonnegative curvature.  There is no scalar state
    model behind it, so the phase map operations are unavailable.
    """
    if not all(0.0 < v < math.inf for v in (C, lambda_u, omega)):
        raise ModelError("homoclinic parameters C, lambda_u, omega must be positive and finite")
    try:
        amp = C * omega * math.exp(TWO_PI * lambda_u / omega)
    except OverflowError:
        amp = math.inf
    if amp == math.inf:
        raise ModelError("homoclinic response amplitude C*omega*exp(2*pi*lambda_u/omega) "
                         "overflows")

    def prc_fn(theta):
        return amp * np.exp(-lambda_u * theta / omega)

    def prc_deriv_fn(theta):
        return -(lambda_u / omega) * prc_fn(theta)

    return OscillatorModel("homoclinic", 0.0, 1.0, omega, None, None, None,
                           prc_fn, prc_deriv_fn,
                           {"C": C, "lambda_u": lambda_u})


def load_field_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV of (x, F(x)) pairs with header ``x,F``."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ModelError(f"{path}: cannot read field table: {exc.strerror or exc}")
    if not rows or [c.strip() for c in rows[0][:2]] != ["x", "F"]:
        raise ModelError(f"{path}: expected CSV header 'x,F'")
    try:
        data = np.asarray([[float(r[0]), float(r[1])] for r in rows[1:] if r], dtype=float)
    except (ValueError, IndexError) as exc:
        raise ModelError(f"{path}: bad sample row: {exc}")
    if data.shape[0] < 2:
        raise ModelError(f"{path}: need at least two samples")
    return data[:, 0], data[:, 1]


# -- classification ------------------------------------------------------------


def classify_monotonicity(model: OscillatorModel) -> SignClassification:
    """Sign classes of Z' and Z'' via central differences on the
    DENSE_GRID_SIZE grid.

    Derivative estimates smaller than ``SIGN_DEAD_BAND * max|Z|`` count as
    zero so that a constant response curve classifies as neutral instead of
    picking up rounding noise.
    """
    grid = np.linspace(0.0, TWO_PI, DENSE_GRID_SIZE)
    z = np.asarray(model.prc(grid), dtype=float)
    h = grid[1] - grid[0]
    band = SIGN_DEAD_BAND * float(np.max(np.abs(z)))

    z1 = (z[2:] - z[:-2]) / (2.0 * h)
    z2 = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / (h * h)

    up = bool(np.any(z1 > band))
    down = bool(np.any(z1 < -band))
    if up and down:
        mono = Monotonicity.MIXED
    elif up:
        mono = Monotonicity.INCREASING
    elif down:
        mono = Monotonicity.DECREASING
    else:
        mono = Monotonicity.NEUTRAL

    nonneg = not bool(np.any(z2 < -band))
    nonpos = not bool(np.any(z2 > band))
    if nonneg:
        curv = Curvature.NONNEGATIVE
    elif nonpos:
        curv = Curvature.NONPOSITIVE
    else:
        curv = Curvature.MIXED

    return SignClassification(mono, curv, nonneg, nonpos)

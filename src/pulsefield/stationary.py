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
from typing import Callable, NamedTuple

import numpy as np

from .continuum import DensityField
from .models import DENSE_GRID_SIZE, OscillatorModel, ModelError
from .quantile import QuantileProfile, quantile_transform

TWO_PI = 2.0 * math.pi

# limit sequences s_k = r + 10^-k (and mirrored for the coupling lower bound)
LIMIT_KS = range(1, 13)
LIMIT_MARGIN = 1e-6
DIVERGENCE_CAP = 1e6
W_TOL = 1e-12
# |W(J*) - 1| at which the bisection for J* stops
J_TOL = 1e-10
# a bracket [lo, hi] with hi > lo * GEOMETRIC_SPAN is split at its geometric
# mean: at a tiny |K| it spans ~1e319, which halving crosses one bit a step
GEOMETRIC_SPAN = 2.0 ** 64

# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the Kronrod abscissae on
# [0, 1], largest first, the 10-point Gauss abscissae among them at the odd
# positions, and both weight sets
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208932309336, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# the 21 nodes on [-1, 1] in increasing order, with Kronrod and Gauss weights
GK_NODES = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
GK_WK = np.array(_WK[:-1] + _WK[::-1])
GK_WG = np.zeros(21)
GK_WG[1:10:2] = _WG
GK_WG[19:10:-2] = _WG
GK_WEIGHTS = np.stack([GK_WK, GK_WG], axis=1)
# starting mesh: each segment cut into MESH_PIECES equal pieces, the end
# pieces halved geometrically toward the segment's ends GRADE_LEVELS times
# (down to 2^-30/64 of the segment, below the float spacing at 2*pi for the
# 1e-6 segment beside an end breakpoint).  The equal pieces bound the
# width an undetected jump in f'' can spoil: the error estimate cannot see
# one (a PCHIP table has one at every sample), and with 16 or 32 pieces
# a 50-sample table's existence integral missed its 1e-9 by 1.2x.
MESH_PIECES = 64
GRADE_LEVELS = 30
_GRADE = 0.5 ** np.arange(GRADE_LEVELS, 0, -1) / MESH_PIECES
MESH_FRACTIONS = np.concatenate([_GRADE, np.arange(1, MESH_PIECES) / MESH_PIECES,
                                 1.0 - _GRADE[::-1]])
MAX_INTERVALS = 500   # QUADPACK's default limit
GOLDEN_MAX_STEPS = 100
_EPS = float(np.finfo(float).eps)


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
    """Asynchronous fixed point: flux, sampled density and its certificate.

    This is the one reference type for V: ``profile`` is the one place
    where the reference density becomes a quantile profile."""

    J_star: float
    rho_star: DensityField
    J_interval: tuple
    r: float
    K: float
    model: OscillatorModel

    def density_at(self, theta):
        return J_density(self.model, self.K, self.J_star, theta)

    def profile(self) -> QuantileProfile:
        """Quantile profile of ``rho_star`` on its own grid."""
        return quantile_transform(self.rho_star.theta, self.rho_star.rho)


class _Sampled(NamedTuple):
    """fn with its values at the nodes of the starting mesh over [a, b]:
    every integral of g(fn(x)) over that range calls fn only at the nodes
    its refinements add, so a solve evaluates Z or F on the mesh once."""

    fn: Callable
    lo: np.ndarray
    hi: np.ndarray
    at_nodes: np.ndarray


def _sample(fn, a: float, b: float, points=None) -> _Sampled:
    """fn on the starting mesh of the segments between a, ``points`` and b."""
    k = np.array((float(a), *sorted(map(float, points or ())), float(b)))
    # np.unique's result without its import of numpy.ma on the first call
    edges = np.sort(np.append((k[:-1, None] + np.diff(k)[:, None] * MESH_FRACTIONS).ravel(), k))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    lo, hi = edges[:-1], edges[1:]
    return _Sampled(fn, lo, hi, fn(_gk_nodes(lo, hi)))


def _gk_nodes(lo, hi):
    return 0.5 * (lo + hi)[:, None] + (0.5 * (hi - lo))[:, None] * GK_NODES


def _gk21(fv, lo, hi):
    """QUADPACK's qk21 on every interval [lo_i, hi_i] at once, from the
    values fv of the integrand at their nodes: the Kronrod sums and
    QUADPACK's error estimate."""
    half = 0.5 * (hi - lo)
    sums = fv @ GK_WEIGHTS
    resk = sums[:, 0]
    # with |K - G| and resasc = sum w_k |f - mean f| (both per unit
    # half-width), QUADPACK takes resasc * min(1, (200 |K - G| / resasc)**1.5),
    # and no less than 50 eps sum w_k |f|
    asc = np.abs(fv - 0.5 * resk[:, None]) @ GK_WK
    ratio = np.divide(200.0 * np.abs(resk - sums[:, 1]), asc,
                      out=np.zeros_like(asc), where=asc > 0.0)
    err = np.maximum(asc * np.minimum(1.0, ratio ** 1.5), 50.0 * _EPS * (np.abs(fv) @ GK_WK))
    return resk * half, err * half


def _quad(g, sampled: _Sampled, *, tol: float) -> float:
    """Integral of g(sampled.fn(x)) over the sampled range, to |error| <=
    max(tol, tol*|result|) as estimated by QUADPACK's rule.

    g maps an array of fn's values to an array of integrand values.
    Globally adaptive 21-point Gauss-Kronrod (Piessens et al., QUADPACK,
    ch. 2): the starting mesh cuts each segment between the ends and the
    breakpoints into MESH_PIECES equal pieces and halves the end pieces
    geometrically toward the segment's ends GRADE_LEVELS times, so an
    integrand near-singular at an end or a breakpoint is usually resolved by
    the first round.  Each round bisects the intervals with the largest
    error estimates until the rest fit in half the tolerance, and evaluates
    fn once over all the new halves.  Past MAX_INTERVALS, or when no
    interval can be halved in floating point, the current estimate is
    returned, as QUADPACK returns its estimate when it gives up: near a
    pole, rounding in the integrand itself can keep the estimate above any
    tolerance.
    """
    fn, lo, hi = sampled.fn, sampled.lo, sampled.hi
    res, err = _gk21(g(sampled.at_nodes), lo, hi)
    while True:
        total = float(res.sum())
        budget = max(tol, tol * abs(total))
        total_err = float(err.sum())
        if total_err <= budget or res.size >= MAX_INTERVALS:
            return total
        order = np.argsort(err)[::-1]
        left = total_err - np.cumsum(err[order])
        split = order[:int(np.argmax(left <= 0.5 * budget)) + 1]
        mid = 0.5 * (lo[split] + hi[split])
        ok = (lo[split] < mid) & (mid < hi[split])
        if not ok.any():
            return total
        split, mid = split[ok], mid[ok]
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_res, new_err = _gk21(g(fn(_gk_nodes(new_lo, new_hi))), new_lo, new_hi)
        keep = np.ones(res.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        res = np.concatenate([res[keep], new_res])
        err = np.concatenate([err[keep], new_err])


def _kz_scan(model: OscillatorModel, K: float) -> tuple:
    """(r, breakpoint) from one scan of K*Z on the DENSE_GRID_SIZE grid:
    r = |min K*Z| (0 when K*Z >= 0), and the argmin of K*Z kept inside
    (0, 2*pi) as the quadrature breakpoint near the singular phase.  A
    negative interior grid minimum is refined inside the two cells beside
    it, and the refined minimum kept when it is lower: the true minimum lies
    below the grid value, and s_k = r + 10^-k and the bracket walk would
    otherwise cross the pole of 1/(K*Z + s)."""
    grid = np.linspace(0.0, TWO_PI, DENSE_GRID_SIZE)
    kz = K * model.prc(grid)
    i = int(np.argmin(kz))
    m, th = float(kz[i]), float(grid[i])
    if m < 0.0 and 0 < i < grid.size - 1:
        zf = model._prc_fn
        th_ref, m_ref = _golden_min(lambda t: K * zf(t), float(grid[i - 1]),
                                    float(grid[i + 1]), xatol=1e-12 * TWO_PI)
        if m_ref < m:
            m, th = m_ref, th_ref
    r = 0.0 if m >= 0.0 else abs(m)
    return r, float(np.clip(th, 1e-6, TWO_PI - 1e-6))


def _prepare(model: OscillatorModel, K: float) -> tuple:
    """(r, Z on the starting mesh, the scan's argmin its breakpoint)."""
    r, pt = _kz_scan(model, K)
    return r, _sample(model._prc_fn, 0.0, TWO_PI, [pt] if K != 0.0 else None)


def normalization_functional(model: OscillatorModel, K: float, J: float) -> float:
    """W(J) = integral J/(omega + K*Z*J) dtheta; strictly increasing in J."""
    r, prc = _prepare(model, K)
    hi = math.inf if r == 0.0 else model.omega / r
    if not (0.0 < J < hi):
        raise ValueError(f"J={J} outside the admissible interval (0, {hi:.6g})")
    return _w_integral(model.omega, K, J, prc)


def _w_integral(omega: float, K: float, J: float, prc: _Sampled) -> float:
    """W(J) for an admissible J, from Z sampled with the breakpoints given."""
    return _quad(lambda z: J / (omega + K * z * J), prc, tol=W_TOL)


def existence_condition(model: OscillatorModel, K: float) -> ExistenceResult:
    """Evaluate the monotone limit lim_{s->r+} integral dtheta/(K*Z+s).

    The integrand increases monotonically as s decreases to r, so the limit
    is probed along s_k = r + 10^-k: the condition is declared satisfied
    once three consecutive values exceed 1 + LIMIT_MARGIN (or any value
    passes the divergence cap, reported as an infinite limit); otherwise the
    final value decides against the same margin (at the coupling edge the
    limit is exactly 1, and quadrature error must not make a state exist).
    """
    return _existence(K, *_prepare(model, K))


def _existence(K: float, r: float, prc: _Sampled) -> ExistenceResult:
    """existence_condition from a prepared scan and sample."""
    ints = []
    consecutive = 0
    exists = None
    limit = None
    for k in LIMIT_KS:
        s = r + 10.0 ** (-k)
        val = _quad(lambda z: 1.0 / (K * z + s), prc, tol=1e-9)
        ints.append(val)
        if val > DIVERGENCE_CAP:
            exists, limit = True, math.inf
            break
        consecutive = consecutive + 1 if val > 1.0 + LIMIT_MARGIN else 0
        if consecutive >= 3:
            exists = True
            break
    if exists is None:
        exists = ints[-1] > 1.0 + LIMIT_MARGIN
    if limit is None:
        limit = ints[-1]
    return ExistenceResult(exists, r, limit, tuple(ints))


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
    xs = np.linspace(model.x_lo, model.x_hi, DENSE_GRID_SIZE)
    fx = np.asarray(model.F(xs), dtype=float)
    i = int(np.argmin(fx))
    f_min = float(fx[i])
    span = model.x_hi - model.x_lo
    x_min = float(xs[i])
    cell = (float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)]))
    x_ref, f_ref = _golden_min(model.F, *cell, xatol=1e-12 * span)
    if f_ref < f_min:
        f_min, x_min = f_ref, x_ref
    x_min = float(np.clip(x_min, model.x_lo + 1e-9 * span, model.x_hi - 1e-9 * span))
    F = _sample(model.F, model.x_lo, model.x_hi, [x_min])
    vals = []
    unbounded = False
    for k in LIMIT_KS:
        s = f_min * (1.0 - 10.0 ** (-k))

        def integrand(fx):
            gap = s - fx
            if not gap.all():   # s met the field: the integral diverged
                raise ZeroDivisionError
            return s / gap

        try:
            val = _quad(integrand, F, tol=1e-9)
        except ZeroDivisionError:
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


def _golden_min(f, a: float, b: float, *, xatol: float) -> tuple:
    """(x, f(x)) at the smallest value golden-section search meets on (a, b),
    narrowing the bracket to ``xatol``; f takes and returns one float.

    Each step narrows the bracket by 0.618, so GOLDEN_MAX_STEPS steps take
    any bracket far below ``xatol`` unless it has stopped shrinking: once
    xatol is below the float spacing at a and b, c and d round onto them."""
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_STEPS):
        if b - a <= xatol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def bisect_root(f, a: float, b: float, *, ftol: float) -> float:
    """Bracketed bisection for a continuous f with f(a), f(b) of opposite sign.

    Stops as soon as |f(mid)| < ``ftol``, or when the bracket is two
    adjacent doubles (the midpoint rounds onto an end), however many orders
    of magnitude it spanned.  A positive bracket wider than a factor
    GEOMETRIC_SPAN is split at its geometric mean, so that many orders of
    magnitude take a few halvings of their logarithm; narrower brackets are
    split at the midpoint.  Unconditionally convergent on monotone
    functions, which is why it is preferred over Newton here.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"root not bracketed: f({a})={fa}, f({b})={fb}")
    while True:
        if 0.0 < a and a * GEOMETRIC_SPAN < b:
            m = math.sqrt(a) * math.sqrt(b)
        else:
            m = 0.5 * (a + b)
        if m == a or m == b:
            return m
        fm = f(m)
        if fm == 0.0 or abs(fm) < ftol:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm


def solve_stationary_flux(model: OscillatorModel, K: float,
                          n_theta: int = 2048) -> StationaryState:
    """Unique root of W(J) = 1 by bracketed bisection on the admissible
    interval, to |W - 1| < J_TOL, sampled on ``n_theta`` + 1 nodes.

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
        return StationaryState(j_star, field, (0.0, math.inf), 0.0, K, model)

    # one K*Z scan and one sample of Z serve the existence limit and W;
    # J stays inside (0, hi_edge) below, so W skips normalization_functional
    r, prc = _prepare(model, K)
    result = _existence(K, r, prc)
    if not result.exists:
        raise NoStationaryStateError(result)

    hi_edge = math.inf if r == 0.0 else omega / r
    w = lambda J: _w_integral(omega, K, J, prc) - 1.0

    lo = min(1e-12 * omega, (hi_edge if math.isfinite(hi_edge) else 1.0) * 1e-12)
    hi = None
    # at |K| ~ 1e-308 the first upper bracket (J ~ 1e308) takes W's sums past
    # the largest double (and its error estimate to inf - inf): W reads inf
    # there, the verdict W > 1 it has, and numpy's warnings would say no more
    with np.errstate(over="ignore", invalid="ignore"):
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

        j_star = bisect_root(w, lo, hi, ftol=J_TOL)
    rho = j_star / (omega + K * z * j_star)   # J_density on the z above
    field = DensityField(theta, rho, j_star, 0.0)
    return StationaryState(j_star, field, (0.0, hi_edge), r, K, model)


def J_density(model: OscillatorModel, K: float, J: float, theta) -> np.ndarray:
    """Density profile rho = J/(omega + K*Z*J) for a given flux value."""
    z = model.prc(np.asarray(theta, dtype=float))
    return J / (model.omega + K * z * J)

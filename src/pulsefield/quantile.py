"""Quantile transforms and the total-variation Lyapunov distance.

A phase density rho on [0, 2*pi] with unit mass induces a cumulative
distribution P, a quantile function Q = P^{-1} mapping oscillator index
phi in [0, 1] to phase, and a quantile density q = dQ/dphi = 1/rho(Q(phi)).
The Lyapunov functional used throughout is the L1 distance between quantile
densities,

    V = integral_0^1 |q - q_ref| dphi,   0 <= V <= 4*pi,

whose discrete analog for N sorted phases (last entry 2*pi) is

    V_N = |t_1 - s_1| + sum_{k=1}^{N-2} |(t_k - t_{k+1}) - (s_k - s_{k+1})|
          + |t_{N-1} - s_{N-1}|.

Quantile densities are represented piecewise-constant on the knots phi_i =
P(theta_i), with segment value dtheta / dP.  With that representation the
integral of q over [0, 1] is exactly 2*pi, so the bound

    V <= 4*pi - 2*min(q, q_ref)

holds exactly (not merely up to quadrature error), which is what the
blow-up monitor relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class QuantileDegenerateError(ValueError):
    """Raised when a transform on a density with zero plateaus is required."""


@dataclass(frozen=True)
class QuantileProfile:
    """Sampled quantile description of one density.

    ``phi`` are the knots P(theta_i) (increasing, phi[0]=0, phi[-1]=1),
    ``Q`` the phases at the knots and ``q_seg`` the piecewise-constant
    quantile density on each knot interval.
    """

    phi: np.ndarray
    Q: np.ndarray
    q_seg: np.ndarray
    degenerate: bool = False

    @property
    def q_min(self) -> float:
        return float(self.q_seg.min())

    def Q_at(self, phi):
        """Quantile function by monotone piecewise-linear inversion."""
        return np.interp(phi, self.phi, self.Q)

    def q_at(self, phi):
        """Piecewise-constant quantile density at the given indices."""
        idx = np.clip(np.searchsorted(self.phi, phi, side="right") - 1,
                      0, self.q_seg.size - 1)
        return self.q_seg[idx]


def quantile_transform(field, rho=None) -> QuantileProfile:
    """Quantile profile of a density given as a field object or (theta, rho).

    P is the normalized cumulative trapezoid of rho, Q its piecewise-linear
    inverse on the grid knots.  Densities with zero plateaus (or non-finite
    values) produce a profile flagged degenerate (Q still follows the
    infimum convention through ``Q_at``, but q is unusable there).
    """
    if rho is None:
        theta = np.asarray(field.theta, dtype=float)
        rho = np.asarray(field.rho, dtype=float)
    else:
        theta = np.asarray(field, dtype=float)
        rho = np.asarray(rho, dtype=float)
    if theta.ndim != 1 or theta.shape != rho.shape or theta.size < 2:
        raise ValueError("need matching 1-D theta and rho arrays")
    if (rho < 0.0).any():
        raise ValueError("density must be nonnegative")

    # dP = 0.5*(rho[1:] + rho[:-1])*dtheta, formed in place
    dtheta = theta[1:] - theta[:-1]
    dP = rho[1:] + rho[:-1]
    dP *= 0.5
    dP *= dtheta
    total = float(dP.sum())
    if total <= 0.0:
        raise QuantileDegenerateError("density has zero mass")
    phi = np.empty(theta.size)
    phi[0] = 0.0
    dP.cumsum(out=phi[1:])
    phi /= total
    phi[-1] = 1.0

    dphi = phi[1:] - phi[:-1]
    if dphi.min() > 0.0:
        return QuantileProfile(phi, theta.copy(), np.divide(dtheta, dphi, out=dtheta))
    # a zero plateau (or a non-finite density) leaves some dphi not positive:
    # q = inf there, and the profile is flagged
    q_seg = np.full(dphi.size, np.inf)
    np.divide(dtheta, dphi, out=q_seg, where=dphi > 0.0)
    return QuantileProfile(phi, theta.copy(), q_seg, True)


def _as_profile(obj) -> QuantileProfile:
    if isinstance(obj, QuantileProfile):
        return obj
    ref = getattr(obj, "rho_star", obj)  # StationaryState carries its density here
    return quantile_transform(ref)


def lyapunov_tv(state, reference) -> float:
    """Total-variation Lyapunov distance V = integral |q - q_ref| dphi.

    Both arguments may be density fields, quantile profiles or stationary
    states.  The segment values of both profiles are compared on the union
    of their knots, where the piecewise-constant difference is integrated
    exactly; the result is symmetric to machine precision and lies in
    [0, 4*pi].
    """
    return lyapunov_tv_with_qmin(state, reference)[0]


def _merged_segments(a: QuantileProfile, b: QuantileProfile):
    """Both quantile densities on the union of the two knot vectors.

    Returns (q_a, q_b, width) per union segment; each union segment takes
    the segment values of ``a`` and ``b`` at its midpoint.  One stable sort
    merges the two sorted knot vectors.  At the last copy of each distinct
    knot (merged position ``pos``, source index ``src``) the number of knots
    of ``a`` at or below it is src + 1 for a knot of ``a`` and
    pos - src + n_a for a knot of ``b`` (stability puts equal knots of ``a``
    first); the segment index is one less.  A midpoint 0.5*(u_j + u_{j+1})
    lies in [u_j, u_{j+1}]; when it rounds onto u_{j+1} the count at u_{j+1}
    is the one that applies.
    """
    n_a = a.phi.size
    merged = np.concatenate((a.phi, b.phi))
    order = merged.argsort(kind="stable")
    ordered = merged[order]
    last = np.empty(ordered.size, dtype=bool)  # last copy of each distinct knot
    np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
    last[-1] = True
    pos = last.nonzero()[0]
    knots = ordered[pos]
    src = order[pos]
    ia = np.where(src < n_a, src, pos - src + (n_a - 1))
    ib = pos - ia
    ib -= 1
    mid = knots[1:] + knots[:-1]
    mid *= 0.5
    onto = mid == knots[1:]
    if onto.any() or a.phi[0] != b.phi[0] or a.phi[-1] != b.phi[-1]:
        ia = np.clip(np.where(onto, ia[1:], ia[:-1]), 0, a.q_seg.size - 1)
        ib = np.clip(np.where(onto, ib[1:], ib[:-1]), 0, b.q_seg.size - 1)
    else:
        # with shared end knots, a non-final union knot has at least one and
        # at most n - 1 knots of each profile at or below it: no clip needed
        ia = ia[:-1]
        ib = ib[:-1]
    return a.q_seg[ia], b.q_seg[ib], knots[1:] - knots[:-1]


def _tv_and_qmin(a: QuantileProfile, b: QuantileProfile) -> tuple[float, float]:
    qa, qb, width = _merged_segments(a, b)
    qa -= qb          # |q_a - q_b| * width, in q_a's fresh buffer
    np.abs(qa, out=qa)
    qa *= width
    return float(qa.sum()), min(a.q_min, b.q_min)


def lyapunov_tv_with_qmin(state, reference) -> tuple[float, float]:
    """V together with min(q, q_ref); the pair the trajectory logger records."""
    a = _as_profile(state)
    b = _as_profile(reference)
    if a.degenerate or b.degenerate:
        raise QuantileDegenerateError("quantile density undefined on a zero plateau")
    return _tv_and_qmin(a, b)


def quantile_l2(state, reference) -> float:
    """L2 distance between quantile densities (the rejected candidate norm)."""
    a = _as_profile(state)
    b = _as_profile(reference)
    qa, qb, width = _merged_segments(a, b)
    return float(np.sqrt(np.sum((qa - qb) ** 2 * width)))


def density_l1(theta, rho, rho_ref) -> float:
    """Plain L1 distance between densities in phase space (control quantity)."""
    return float(np.trapezoid(np.abs(np.asarray(rho) - np.asarray(rho_ref)), theta))


def discrete_lyapunov(phases, phases_ref) -> float:
    """Distance between two sorted firing configurations (last entry 2*pi).

    The boundary terms pin both ends; the interior sum compares consecutive
    phase gaps.  For two oscillators this collapses to 2*|t_1 - s_1|.
    """
    t = np.asarray(phases, dtype=float)
    s = np.asarray(phases_ref, dtype=float)
    if t.shape != s.shape or t.ndim != 1 or t.size < 2:
        raise ValueError("need two equal-length 1-D phase vectors of size >= 2")
    dt, ds = np.diff(t), np.diff(s)
    for name, v, d in (("phases", t, dt), ("phases_ref", s, ds)):
        if np.any(d < -1e-12):
            raise ValueError(f"{name} must be sorted ascending")
        if abs(v[-1] - TWO_PI) > 1e-9:
            raise ValueError(f"{name} must end at 2*pi")
    gaps = dt[:-1] - ds[:-1]
    return float(abs(t[0] - s[0]) + np.abs(gaps).sum() + abs(t[-2] - s[-2]))

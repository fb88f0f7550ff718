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

``quantile_transform(theta, rho)`` makes a ``QuantileProfile``, and the
distances take profiles.  A run binds its reference profile to its grid
once, as a ``GridReference``, which the V functions accept as the
reference.
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


def quantile_transform(theta, rho, *, into: GridReference | None = None) -> QuantileProfile:
    """Quantile profile of the density ``rho`` sampled at the nodes ``theta``.

    P is the normalized cumulative trapezoid of rho, Q its piecewise-linear
    inverse on the grid knots.  Densities with zero plateaus (or non-finite
    values) produce a profile flagged degenerate (Q still follows the
    infimum convention through ``Q_at``, but q is unusable there).

    With ``into`` (a ``GridReference`` bound to this ``theta``) the profile
    is written into the reference's buffers instead of fresh arrays: it is
    valid until the next such call, and ``lyapunov_tv_with_qmin(profile,
    into)`` merges it without copying its knots.
    """
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if theta.ndim != 1 or theta.shape != rho.shape or theta.size < 2:
        raise ValueError("need matching 1-D theta and rho arrays")
    if (rho < 0.0).any():
        raise ValueError("density must be nonnegative")
    if into is None:
        return _transform(theta[1:] - theta[:-1], rho, np.empty(theta.size),
                          np.empty(theta.size - 1), theta.copy())
    if theta is not into.theta:
        raise ValueError("the GridReference is bound to another theta array")
    return _transform(into.dtheta, rho, into.phi, into.dphi, theta)


def _transform(dtheta, rho, phi, dphi, Q) -> QuantileProfile:
    """The transform's one formula, writing P into ``phi`` and the segment
    widths, then q, into ``dphi``."""
    # dP = 0.5*(rho[1:] + rho[:-1])*dtheta, formed in place in dphi
    dP = np.add(rho[1:], rho[:-1], dphi)
    dP *= 0.5
    dP *= dtheta
    total = float(dP.sum())
    if total <= 0.0:
        raise QuantileDegenerateError("density has zero mass")
    phi[0] = 0.0
    dP.cumsum(out=phi[1:])
    phi /= total
    phi[-1] = 1.0

    np.subtract(phi[1:], phi[:-1], dphi)
    if dphi.min() > 0.0:
        return QuantileProfile(phi, Q, np.divide(dtheta, dphi, dphi))
    # a zero plateau (or a non-finite density) leaves some dphi not positive:
    # q = inf there, and the profile is flagged
    q_seg = np.full(dphi.size, np.inf)
    np.divide(dtheta, dphi, out=q_seg, where=dphi > 0.0)
    return QuantileProfile(phi, Q, q_seg, True)


class GridReference:
    """A reference quantile profile bound to one density grid, for V on
    many densities.

    A run evaluates V against the same reference on every logged row of the
    same grid.  Everything those evaluations share is made here once: the
    grid spacings, the transform's buffers, and the union-merge buffer whose
    second part already holds the reference knots (the transform writes the
    density's knots into the first part), with the merge positions of the
    slice case.  The formulas are the ones ``quantile_transform`` and
    ``lyapunov_tv_with_qmin`` use on fresh arrays, so the bits are the same.
    """

    def __init__(self, profile: QuantileProfile, theta):
        self.profile = profile
        self.theta = theta = np.asarray(theta, dtype=float)
        self.dtheta = theta[1:] - theta[:-1]
        n_a, n_b = theta.size, profile.phi.size
        self.merged = np.empty(n_a + n_b)
        self.merged[n_a:] = profile.phi
        self.phi = self.merged[:n_a]
        self.dphi = np.empty(n_a - 1)
        self.q_min = profile.q_min
        pos = np.arange(1, n_a + n_b - 2)
        self.positions = (pos - 1, pos + (n_a - 1))


def lyapunov_tv(state: QuantileProfile, reference) -> float:
    """Total-variation Lyapunov distance V = integral |q - q_ref| dphi.

    Both arguments are quantile profiles; the reference may also be a
    ``GridReference``.  The segment values of both profiles are compared on
    the union of their knots, where the piecewise-constant difference is
    integrated exactly; the result is symmetric to machine precision and
    lies in [0, 4*pi].
    """
    return lyapunov_tv_with_qmin(state, reference)[0]


# union widths above this (one ulp of 1.0) leave no tie between the two knot
# vectors and no midpoint that rounds onto its upper knot
_MIN_SLICE_WIDTH = 2.0 ** -52


def _merged_segments(a: QuantileProfile, b: QuantileProfile, grid=None):
    """Both quantile densities on the union of the two knot vectors.

    Returns (q_a, q_b, width) per union segment; each union segment takes
    the segment values of ``a`` and ``b`` at its midpoint.  One stable sort
    merges the two sorted knot vectors (in ``grid``'s buffer when ``a`` was
    transformed into it).  At the last copy of each distinct knot (merged
    position ``pos``, source index ``src``) the number of knots of ``a`` at
    or below it is src + 1 for a knot of ``a`` and pos - src + n_a for a
    knot of ``b`` (stability puts equal knots of ``a`` first); the segment
    index is one less.  A midpoint 0.5*(u_j + u_{j+1}) lies in
    [u_j, u_{j+1}]; when it rounds onto u_{j+1} the count at u_{j+1} is the
    one that applies.

    When both profiles share their end knots and every other union width
    exceeds one ulp of 1.0, the distinct knots are a slice of the sorted
    vector (the two copies of each end knot sit at its ends) and no
    midpoint rounds onto a knot, so positions and sources are slices too.
    """
    n_a = a.phi.size
    if grid is not None and a.phi is grid.phi:
        merged, positions = grid.merged, grid.positions
    else:
        merged, positions = np.concatenate((a.phi, b.phi)), None
    order = merged.argsort(kind="stable")
    ordered = merged[order]
    width = ordered[2:-1] - ordered[1:-2]
    sliced = (a.phi[0] == b.phi[0] and a.phi[-1] == b.phi[-1]
              and width.min() > _MIN_SLICE_WIDTH)
    if sliced:
        src = order[1:-2]
        if positions is None:
            pos = np.arange(1, ordered.size - 2)
            positions = (pos - 1, pos + (n_a - 1))
    else:
        last = np.empty(ordered.size, dtype=bool)  # last copy of each distinct knot
        np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
        last[-1] = True
        pos = last.nonzero()[0]
        src = order[pos]
        positions = (pos - 1, pos + (n_a - 1))
    # segment index in a: src, or pos - src + n_a - 1; in b: pos - 1 - ia
    pos_lo, pos_hi = positions
    ia = np.where(src < n_a, src, pos_hi - src)
    ib = pos_lo - ia
    if sliced:
        return a.q_seg.take(ia), b.q_seg.take(ib), width
    knots = ordered[pos]
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
    return a.q_seg.take(ia), b.q_seg.take(ib), knots[1:] - knots[:-1]


def _tv_and_qmin(a: QuantileProfile, b: QuantileProfile, grid=None) -> tuple[float, float]:
    qa, qb, width = _merged_segments(a, b, grid)
    qa -= qb          # |q_a - q_b| * width, in q_a's fresh buffer
    np.abs(qa, out=qa)
    qa *= width
    return float(qa.sum()), min(a.q_min, b.q_min if grid is None else grid.q_min)


def lyapunov_tv_with_qmin(state: QuantileProfile, reference) -> tuple[float, float]:
    """V together with min(q, q_ref); the pair the trajectory logger records.

    ``reference`` is a ``QuantileProfile`` or a ``GridReference``; a state
    transformed into the latter is merged in its buffers.
    """
    grid = reference if isinstance(reference, GridReference) else None
    ref = reference if grid is None else grid.profile
    if state.degenerate or ref.degenerate:
        raise QuantileDegenerateError("quantile density undefined on a zero plateau")
    return _tv_and_qmin(state, ref, grid)


def quantile_l2(state: QuantileProfile, reference: QuantileProfile) -> float:
    """L2 distance between quantile densities (the rejected candidate norm)."""
    qa, qb, width = _merged_segments(state, reference)
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

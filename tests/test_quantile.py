import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pulsefield import (QuantileDegenerateError, discrete_lyapunov, initial_density,
                        integrate, lif_model, lyapunov_tv, quantile_transform,
                        solve_stationary_flux)
from pulsefield.quantile import GridReference, QuantileProfile, lyapunov_tv_with_qmin
from oracles import quantile_l2

TWO_PI = 2.0 * math.pi


def vonmises_density(n, kappa=1.0, mu=math.pi):
    th = np.linspace(0.0, TWO_PI, n + 1)
    rho = np.exp(kappa * np.cos(th - mu))
    rho /= np.trapezoid(rho, th)
    return th, rho


def test_uniform_density_transform():
    th = np.linspace(0.0, TWO_PI, 257)
    prof = quantile_transform(th, np.full(257, 1.0 / TWO_PI))
    phis = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(prof.Q_at(phis) - TWO_PI * phis)) < 1e-12
    assert np.max(np.abs(prof.q_seg - TWO_PI)) < 1e-10
    seg = np.searchsorted(prof.phi, phis[:-1], side="right") - 1
    assert np.max(np.abs(prof.q_seg[seg] - TWO_PI)) < 1e-10


def test_cumulative_endpoints_and_monotonicity():
    th, rho = vonmises_density(512, 2.0)
    prof = quantile_transform(th, rho)
    assert prof.phi[0] == 0.0
    assert abs(prof.phi[-1] - 1.0) < 1e-10
    assert np.all(np.diff(prof.phi) > 0.0)
    # Q(P(theta)) = theta at the knots
    assert np.max(np.abs(prof.Q_at(prof.phi) - th)) < 1e-12


def test_reciprocal_identity_at_segment_midpoints():
    th, rho = vonmises_density(1024, 1.5)
    prof = quantile_transform(th, rho)
    mids = 0.5 * (prof.phi[1:] + prof.phi[:-1])
    theta_mid = prof.Q_at(mids)
    # density at Q(phi) by the same piecewise-linear representation
    rho_mid = np.interp(theta_mid, th, rho / np.trapezoid(rho, th))
    # segment i holds its own midpoint
    assert np.max(np.abs(prof.q_seg * rho_mid - 1.0)) < 1e-6


def test_quantile_density_integrates_to_two_pi():
    th, rho = vonmises_density(777, 3.0, 1.0)
    prof = quantile_transform(th, rho)
    assert abs(np.sum(prof.q_seg * np.diff(prof.phi)) - TWO_PI) < 1e-8


def test_quantile_inversion_against_bisection_oracle(stat_inhib):
    # independent route: bisect the cumulative trapezoid interpolant of
    # rho_star on a 4x refined grid, then compare 1/rho(Q(phi))
    field = stat_inhib.rho_star
    th, rho = field.theta, field.rho
    prof = quantile_transform(th, rho)
    dense_th = np.linspace(0.0, TWO_PI, 4 * (th.size - 1) + 1)
    dense_rho = np.interp(dense_th, th, rho)
    P = np.concatenate([[0.0], np.cumsum(0.5 * (dense_rho[1:] + dense_rho[:-1])
                                         * np.diff(dense_th))])
    P /= P[-1]
    rng = np.random.default_rng(11)
    phis = rng.uniform(1e-4, 1.0 - 1e-4, 10_000)
    q_oracle = np.empty_like(phis)
    for i, p in enumerate(phis):
        lo, hi = 0.0, TWO_PI
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if np.interp(mid, dense_th, P) < p:
                lo = mid
            else:
                hi = mid
        theta_p = 0.5 * (lo + hi)
        q_oracle[i] = 1.0 / np.interp(theta_p, dense_th, dense_rho)
    seg = np.searchsorted(prof.phi, phis, side="right") - 1
    rel = np.abs(prof.q_seg[seg] / q_oracle - 1.0)
    assert np.max(rel) < 0.01


def test_lyapunov_zero_at_reference(stat_inhib):
    assert lyapunov_tv(stat_inhib.profile(), stat_inhib.profile()) == 0.0


def test_lyapunov_symmetry(stat_inhib):
    th, rho = vonmises_density(2048, 1.0)
    a = quantile_transform(th, rho)
    b = stat_inhib.profile()
    assert abs(lyapunov_tv(a, b) - lyapunov_tv(b, a)) < 1e-10


def test_lyapunov_range_and_lemma_bound(stat_inhib):
    rng = np.random.default_rng(3)
    b = stat_inhib.profile()
    for _ in range(20):
        kappa = rng.uniform(0.1, 6.0)
        mu = rng.uniform(0.0, TWO_PI)
        th, rho = vonmises_density(512, kappa, mu)
        a = quantile_transform(th, rho)
        v, qmin = lyapunov_tv_with_qmin(a, b)
        assert 0.0 <= v <= 4.0 * math.pi + 1e-12
        # exact discrete counterpart of the 4*pi - 2*q_min bound
        assert 4.0 * math.pi - 2.0 * qmin - v >= -1e-12


def test_lyapunov_dual_quadrature_oracle(stat_inhib):
    # independent route: dense-phi sampling of |1/rho(Q) - 1/rho*(Q*)| with
    # piecewise-linear inversion of both cumulatives
    th, rho = vonmises_density(2048, 1.0)
    field = stat_inhib.rho_star
    v_module = lyapunov_tv(quantile_transform(th, rho), stat_inhib.profile())

    def inv_and_q(theta, dens, phis):
        P = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                             * np.diff(theta))])
        dens_n = dens / P[-1]
        P /= P[-1]
        Q = np.interp(phis, P, theta)
        return 1.0 / np.interp(Q, theta, dens_n)

    phis = np.linspace(0.0, 1.0, 200_001)
    qa = inv_and_q(th, rho, phis)
    qb = inv_and_q(field.theta, field.rho, phis)
    v_oracle = np.trapezoid(np.abs(qa - qb), phis)
    assert abs(v_module - v_oracle) < 1e-4


def test_lyapunov_refinement_stability(stat_inhib, lif):
    from pulsefield import solve_stationary_flux
    vals = []
    for n in (1024, 2048):
        th, rho = vonmises_density(n, 1.0)
        ref = solve_stationary_flux(lif, -0.1, n_theta=n)
        vals.append(lyapunov_tv(quantile_transform(th, rho), ref.profile()))
    assert abs(vals[1] - vals[0]) < 0.01 * vals[1]


def test_degenerate_density_flagged():
    th = np.linspace(0.0, TWO_PI, 257)
    rho = np.where((th > 2.0) & (th < 3.0), 0.0, 1.0)
    rho /= np.trapezoid(rho, th)
    prof = quantile_transform(th, rho)
    assert prof.degenerate
    with pytest.raises(QuantileDegenerateError):
        lyapunov_tv(prof, quantile_transform(th, np.full(257, 1.0 / TWO_PI)))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_density_flagged(bad):
    # a non-finite node makes P undefined past it: no usable q, so V raises
    # (and a run counts the row as a V failure) instead of logging inf/NaN
    th = np.linspace(0.0, TWO_PI, 65)
    rho = np.full(65, 1.0 / TWO_PI)
    rho[0] = bad
    with np.errstate(invalid="ignore"):
        prof = quantile_transform(th, rho)
    assert prof.degenerate
    with pytest.raises(QuantileDegenerateError):
        lyapunov_tv(prof, quantile_transform(th, np.full(65, 1.0 / TWO_PI)))


def test_discrete_lyapunov_trivials():
    th = np.sort(np.random.default_rng(0).uniform(0, TWO_PI, 9))
    th[-1] = TWO_PI
    assert discrete_lyapunov(th, th) == 0.0
    # two oscillators: both terms collapse to the same gap
    a = np.array([1.0, TWO_PI])
    b = np.array([1.5, TWO_PI])
    assert abs(discrete_lyapunov(a, b) - 2.0 * 0.5) < 1e-14


def test_discrete_lyapunov_validation():
    good = np.array([1.0, 2.0, TWO_PI])
    with pytest.raises(ValueError):
        discrete_lyapunov(np.array([2.0, 1.0, TWO_PI]), good)
    with pytest.raises(ValueError):
        discrete_lyapunov(np.array([1.0, 2.0, 6.0]), good)


def test_discrete_lyapunov_converges_to_continuum(stat_inhib):
    th, rho = vonmises_density(8192, 1.0)
    prof = quantile_transform(th, rho)
    ref = stat_inhib.profile()
    v_cont = lyapunov_tv(prof, ref)
    n = 4096
    phis = np.arange(1, n + 1) / n
    v_n = discrete_lyapunov(prof.Q_at(phis), ref.Q_at(phis))
    assert abs(v_n - v_cont) < 0.01 * v_cont


def union_reference(a, b):
    """(V, L2) by the union1d + searchsorted-on-midpoints formula."""
    knots = np.union1d(a.phi, b.phi)
    mid = 0.5 * (knots[1:] + knots[:-1])
    ia = np.clip(np.searchsorted(a.phi, mid, side="right") - 1, 0, a.q_seg.size - 1)
    ib = np.clip(np.searchsorted(b.phi, mid, side="right") - 1, 0, b.q_seg.size - 1)
    d = a.q_seg[ia] - b.q_seg[ib]
    w = np.diff(knots)
    return float(np.sum(np.abs(d) * w)), float(np.sqrt(np.sum(d ** 2 * w)))


def profile_from_knots(phi):
    # the piecewise-linear cumulative through (phi_i, theta_i): q integrates to 2*pi
    Q = np.linspace(0.0, TWO_PI, phi.size)
    return QuantileProfile(phi, Q, np.diff(Q) / np.diff(phi))


@st.composite
def profile_pairs(draw):
    """A positive profile and a partner: the same density, an independent
    one, or knots that share some of its knots and sit one ulp above others."""
    n = draw(st.integers(8, 512))
    rho = draw(arrays(float, n + 1, elements=st.floats(0.01, 10.0)))
    a = quantile_transform(np.linspace(0.0, TWO_PI, n + 1), rho)
    kind = draw(st.sampled_from(["identical", "independent", "shared"]))
    if kind == "identical":
        return a, quantile_transform(np.linspace(0.0, TWO_PI, n + 1), rho.copy()), kind
    if kind == "independent":
        m = draw(st.integers(8, 512))
        rho_b = draw(arrays(float, m + 1, elements=st.floats(0.01, 10.0)))
        return a, quantile_transform(np.linspace(0.0, TWO_PI, m + 1), rho_b), kind
    interior = a.phi[1:-1]
    keep = draw(arrays(bool, interior.size))
    nudge = draw(arrays(bool, interior.size))
    fresh = draw(arrays(float, draw(st.integers(0, 64)),
                        elements=st.floats(1e-6, 1.0 - 1e-6)))
    phi = np.unique(np.concatenate(([0.0, 1.0], interior[keep],
                                    np.nextafter(interior[nudge], 2.0), fresh)))
    return a, profile_from_knots(phi), kind


def _onto_count(a, b):
    """Union segments whose midpoint rounds onto their upper knot."""
    knots = np.union1d(a.phi, b.phi)
    return int(np.sum(0.5 * (knots[1:] + knots[:-1]) == knots[1:]))


def _example_pairs():
    # two independent densities (no onto midpoint), and a partner whose
    # knots sit one ulp above the density's own (midpoints round onto them)
    th = np.linspace(0.0, TWO_PI, 33)
    a = quantile_transform(th, 1.0 + 0.5 * np.sin(th))
    b = quantile_transform(th, 1.0 + 0.3 * np.cos(2.0 * th))
    nudged = np.concatenate(([0.0], np.nextafter(a.phi[1:-1], 2.0), [1.0]))
    return (a, b, "independent"), (a, profile_from_knots(nudged), "shared")


NO_ONTO_PAIR, ONTO_PAIR = _example_pairs()


class _NumpySpy:
    """numpy as the quantile module sees it, noting the names it looks up."""

    def __init__(self):
        self.names = set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(np, name)


def _merge_branch(a, b, monkeypatch):
    spy = _NumpySpy()
    with monkeypatch.context() as m:
        m.setattr("pulsefield.quantile.np", spy)
        lyapunov_tv_with_qmin(a, b)
    # only the union formula marks the first copy of each distinct knot
    return "general" if "not_equal" in spy.names else "slice"


def test_merge_examples_cover_both_branches(monkeypatch):
    assert _onto_count(*NO_ONTO_PAIR[:2]) == 0
    assert _onto_count(*ONTO_PAIR[:2]) > 0
    assert _merge_branch(*NO_ONTO_PAIR[:2], monkeypatch) == "slice"
    assert _merge_branch(*ONTO_PAIR[:2], monkeypatch) == "general"
    a = NO_ONTO_PAIR[0]
    assert _merge_branch(a, a, monkeypatch) == "general"


def test_fig1_rows_take_the_sliced_merge(monkeypatch):
    # fig1 at n_theta 256 to t = 2, Courant number 1, every 10th step logged:
    # V on every row merges by the sliced branch.  If rows ever reach the
    # union formula, its speed starts to matter.
    model = lif_model(2.1, 2.0)
    ref = solve_stationary_flux(model, -0.1, n_theta=256)
    initial = initial_density("perturbed", 256, model, -0.1, epsilon=0.2, reference=ref)
    spy = _NumpySpy()
    monkeypatch.setattr("pulsefield.quantile.np", spy)
    traj = integrate(model, -0.1, initial, t_max=2.0, cfl=1.0, log_stride=10,
                     reference=ref)
    assert traj.v_helper_rows == 0   # the ring holds 256 rows: all in process
    assert traj.V.size > 30 and np.isfinite(traj.V).all()
    assert "not_equal" not in spy.names


@settings(max_examples=200, deadline=None)
@given(pair=profile_pairs())
@example(pair=NO_ONTO_PAIR)
@example(pair=ONTO_PAIR)
def test_merge_matches_union_formula(pair):
    a, b, kind = pair
    v_ref, l2_ref = union_reference(a, b)
    v, q_min = lyapunov_tv_with_qmin(a, b)
    assert v == v_ref
    assert quantile_l2(a, b) == l2_ref
    assert q_min == min(a.q_seg.min(), b.q_seg.min())
    if kind == "identical":
        assert v == 0.0
    assert 0.0 <= v <= 4.0 * math.pi - 2.0 * q_min + 1e-12


def transform_reference(theta, rho):
    """(phi, Q, q_seg, degenerate) by the out-of-place trapezoid and the
    masked divide, the transform's first formulation."""
    dtheta = np.diff(theta)
    dP = 0.5 * (rho[1:] + rho[:-1]) * dtheta
    total = float(dP.sum())
    if total <= 0.0:
        raise QuantileDegenerateError("density has zero mass")
    phi = np.zeros(theta.size)
    np.cumsum(dP, out=phi[1:])
    phi /= total
    phi[-1] = 1.0
    dphi = np.diff(phi)
    q_seg = np.full(dphi.size, np.inf)
    np.divide(dtheta, dphi, out=q_seg, where=dphi > 0.0)
    return phi, theta.copy(), q_seg, bool(np.any(dphi <= 0.0))


@st.composite
def densities(draw):
    """Nonnegative node values, often with zero plateaus, on a uniform or a
    jittered grid."""
    n = draw(st.integers(1, 300))
    values = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    rho = draw(arrays(float, n + 1, elements=values))
    theta = np.linspace(0.0, TWO_PI, n + 1)
    if draw(st.booleans()):
        steps = draw(arrays(float, n, elements=st.floats(0.1, 1.0)))
        theta = np.concatenate(([0.0], np.cumsum(steps)))
    return theta, rho


@settings(max_examples=300, deadline=None)
@given(dens=densities())
@example(dens=(np.linspace(0.0, TWO_PI, 9), np.zeros(9)))
@example(dens=(np.linspace(0.0, TWO_PI, 9), np.array([1.0, 2, 0, 0, 0, 3, 1, 1, 2])))
@example(dens=(np.linspace(0.0, TWO_PI, 9), np.full(9, 0.5)))
def test_transform_matches_reference_bits(dens):
    theta, rho = dens
    with np.errstate(over="ignore"):   # q = dtheta/dphi past DBL_MAX is inf
        try:
            want = transform_reference(theta, rho)
        except QuantileDegenerateError:
            with pytest.raises(QuantileDegenerateError):
                quantile_transform(theta, rho)
            return
        prof = quantile_transform(theta, rho)
    for got, ref in zip((prof.phi, prof.Q, prof.q_seg), want[:3]):
        assert got.tobytes() == ref.tobytes()
    assert prof.degenerate == want[3]
    if want[3]:
        assert np.isinf(prof.q_seg).any()


def test_subnormal_tail_gives_degenerate_profile_without_warning():
    # the tail of exp(2000*(cos - 1)) reaches subnormal widths dphi, whose
    # q = dtheta/dphi overflows to inf: a degenerate profile, not a warning
    th = np.linspace(0.0, TWO_PI, 257)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = quantile_transform(th, np.exp(2000.0 * (np.cos(th - math.pi) - 1.0)))
    assert prof.degenerate
    assert np.isinf(prof.q_seg).any()


def _v_outcome(fn):
    try:
        return fn()
    except QuantileDegenerateError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(dens=densities(), kind=st.sampled_from(["same", "nudged", "other"]),
       other=densities(), nudge=st.integers(-2, 2))
@example(dens=(np.linspace(0.0, TWO_PI, 9), np.array([1.0, 2, 0, 0, 0, 3, 1, 1, 2])),
         kind="other", other=(np.linspace(0.0, TWO_PI, 9), np.full(9, 0.5)), nudge=0)
def test_grid_reference_matches_public_bits(dens, kind, other, nudge):
    # V and q_min through the grid-bound buffers equal the public functions
    # on fresh arrays bit for bit, or both raise; twice, since the buffers
    # are reused from one call to the next
    theta, rho = dens
    ref_rho = {"same": rho, "other": other[1],
               "nudged": np.maximum(rho + nudge * np.spacing(rho), 0.0)}[kind]
    ref_theta = other[0] if kind == "other" else theta
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _v_outcome(lambda: quantile_transform(ref_theta, ref_rho))
        if ref is QuantileDegenerateError:
            return
        want = _v_outcome(lambda: lyapunov_tv_with_qmin(quantile_transform(theta, rho), ref))
        grid = GridReference(ref, theta)
        for _ in range(2):
            got = _v_outcome(lambda: lyapunov_tv_with_qmin(
                quantile_transform(theta, rho, into=grid), grid))
            assert repr(got) == repr(want)   # exact floats, NaN included

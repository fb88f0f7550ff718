import math
import multiprocessing
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pulsefield import (AvalancheError, discrete_lyapunov, simulate, splay_reference,
                        tabulated_model)
from pulsefield.cli import POOL_MIN_FLOATS, SNAPSHOT_BATCH_FLOATS, _run_finite
from pulsefield.finite import TIE_TOL, _drift, _fire, _firing_phase
from pulsefield.stationary import NoStationaryStateError

TWO_PI = 2.0 * math.pi
S, GAMMA = 2.1, 2.0


# -- reference: the event loop in state coordinates ---------------------------
# States x, indexed by oscillator id, mapped to phase and back at every
# drift; the phase loop must reproduce its events exactly and its times and
# snapshots to rounding.  The state loop starts each firing from the phase
# loop's population, stepped one event at a time by the two helpers below.

@dataclass
class PopulationState:
    """The N oscillators at time t between events: their phases ``theta``
    in ascending order (negative for a state kicked below the reset) and
    the id of the oscillator at each position."""

    theta: np.ndarray
    ids: np.ndarray
    t: float = 0.0

    @classmethod
    def from_states(cls, model, x):
        """Population at states ``x`` at t = 0; oscillator i starts at x[i]."""
        x = np.asarray(x, dtype=float)
        ids = np.argsort(x, kind="stable")
        return cls(model._phase_fn(x[ids]), ids)


def advance_to_next_firing(state, model):
    """Drift all oscillators until the leader reaches threshold."""
    shift, theta = _drift(state.theta)
    return PopulationState(theta, state.ids, state.t + shift / model.omega)


def apply_firing(state, model, K):
    """Fire everyone at threshold, kick the rest, run the cascade: the
    post-event state and the FiringEvent."""
    k = int(np.searchsorted(state.theta, _firing_phase(model)))
    assert k < state.theta.size, "no oscillator at threshold; advance first"
    theta, ids, event = _fire(state.theta, state.ids, k, model, K, state.t)
    return PopulationState(theta, ids, state.t), event


def _flow(model, x, tau):
    """Exact time-tau flow of dx/dt = F(x), stopped at x_hi."""
    if tau <= 0.0:
        return x.copy()
    theta = model._phase_fn(x) + model.omega * tau
    return model._state_inverse(np.minimum(theta, TWO_PI))


def _time_to_threshold(model, x_max):
    """Time for the leading oscillator to reach x_hi."""
    return (TWO_PI - float(model._phase_fn(x_max))) / model.omega


def _reference_firing(model, K, x, t):
    """One drift and firing from states x at time t: ((fired, n_initial),
    event time, snapshot)."""
    n = x.size
    lead = int(np.argmax(x))
    tau = _time_to_threshold(model, float(x[lead]))
    x = _flow(model, x, tau)
    x[lead] = model.x_hi
    x = np.minimum(x, model.x_hi)
    th = np.asarray(model.phase_of_state(np.clip(x, model.x_lo, model.x_hi)))
    th[x >= model.x_hi - TIE_TOL] = TWO_PI
    fired_order = []
    fired = np.zeros(n, dtype=bool)
    current = x >= model.x_hi - TIE_TOL
    n_initial = int(current.sum())
    while current.any():
        m = int(current.sum())
        fired_order.extend(int(i) for i in np.flatnonzero(current))
        fired |= current
        x[current] = model.x_lo
        others = ~current
        x[others] += m * K / n
        if (fired & others & (x >= model.x_hi - TIE_TOL)).any():
            raise AvalancheError("re-fired")
        current = (~fired) & (x >= model.x_hi - TIE_TOL)
    return (tuple(fired_order), n_initial), t + tau, np.sort(th)


@pytest.fixture(scope="module")
def oracle_models(lif):
    rng = np.random.default_rng(7)
    h = 1.0 / 1200
    xs = np.arange(1201) * h
    xs[1:-1] += rng.uniform(-0.25, 0.25, 1199) * h
    lin = np.linspace(0.0, 1.0, 201)
    return {"lif": lif, "jittered": tabulated_model(xs, S - GAMMA * xs),
            "one_plus_x": tabulated_model(lin, 1.0 + lin)}


def _seeded_states(n, seed):
    return list(np.random.default_rng(seed).uniform(0.001, 0.999, n))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["lif", "jittered", "one_plus_x"]),
       K=st.one_of(st.just(0.0), st.floats(-0.3, -0.01), st.floats(0.01, 0.5)),
       x0=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
@example(name="one_plus_x", K=-0.1, x0=_seeded_states(20, 34))   # kicks below the reset
@example(name="lif", K=0.3, x0=_seeded_states(12, 1))           # absorption cascades
@example(name="jittered", K=3.0, x0=[0.8, 0.9, 1.0])           # avalanche
def test_phase_loop_matches_state_loop(oracle_models, simulate_kept, name, K, x0):
    # the state loop takes each firing from the phase loop's state, so a
    # rounding difference cannot grow where the dynamics expand (K*Z' > 0)
    model = oracle_models[name]
    x0 = np.sort(x0)
    n, n_firings = x0.size, 60
    state = PopulationState.from_states(model, x0)
    want = []
    for _ in range(n_firings):
        x = np.empty(n)
        x[state.ids] = model._state_inverse(state.theta)
        try:
            want.append(_reference_firing(model, K, x, state.t))
        except AvalancheError:
            with pytest.raises(AvalancheError):
                apply_firing(advance_to_next_firing(state, model), model, K)
            with pytest.raises(AvalancheError):
                simulate_kept(model, K, n, n_firings=n_firings, x0=x0)
            return
        state, _ = apply_firing(advance_to_next_firing(state, model), model, K)
    run, times, snaps = simulate_kept(model, K, n, n_firings=n_firings, x0=x0)
    assert [(ev.fired, ev.n_initial) for ev in run.events] == [w[0] for w in want]
    assert [ev.t for ev in run.events] == times
    for got, t_got, (_, t_want, snap) in zip(snaps, times, want):
        assert abs(t_got - t_want) < 1e-12
        assert np.max(np.abs(got - snap)) < 1e-12
        assert np.all(np.diff(got) >= 0.0)
        assert got[0] >= 0.0 and got[-1] == TWO_PI


def test_below_reset_example_reaches_the_clip(oracle_models, simulate_kept):
    # the explicit F = 1 + x example above has snapshots taken while states
    # an inhibitory kick pushed under the reset are still there
    model = oracle_models["one_plus_x"]
    _, _, snaps = simulate_kept(model, -0.1, 20, n_firings=60,
                                x0=np.array(_seeded_states(20, 34)))
    assert any(s[0] == 0.0 for s in snaps[1:])


def test_single_oscillator_period(lif, simulate_kept):
    run, _, _ = simulate_kept(lif, 0.0, 1, n_firings=5, x0=np.array([0.0]))
    times = [ev.t for ev in run.events]
    gaps = np.diff(times)
    assert abs(times[0] - TWO_PI / lif.omega) < 1e-12
    assert np.max(np.abs(gaps - TWO_PI / lif.omega)) < 1e-12


def test_identical_states_fire_together(lif):
    state = PopulationState.from_states(lif, [0.3, 0.3])
    state = advance_to_next_firing(state, lif)
    state, ev = apply_firing(state, lif, 0.0)
    assert ev.n_fired == 2
    assert ev.n_initial == 2
    assert ev.absorbed == 0


def test_lif_flow_matches_tabulated_flow(lif):
    # the sampled field's maps against the logarithm formula
    tab = tabulated_model(lambda x: S - GAMMA * x, x_lo=0.0, x_hi=1.0)
    x0 = np.array([0.05, 0.3, 0.72])
    for tau in (0.01, 0.2, 0.9):
        exact = _flow(lif, x0, tau)
        rk4 = _flow(tab, x0, tau)
        assert np.max(np.abs(exact - rk4)) < 1e-9


def test_lif_flow_matches_closed_form(lif):
    # x(t) = S/gamma - (S/gamma - x) e^{-gamma t}, also for a state an
    # inhibitory kick left below the reset
    x0 = np.array([-0.01, 0.0, 0.05, 0.3, 0.72])
    xf = S / GAMMA
    for tau in (1e-6, 0.01, 0.2, 0.9):
        exact = xf - (xf - x0) * np.exp(-GAMMA * tau)
        assert np.max(np.abs(_flow(lif, x0, tau) - exact)) < 1e-14


def test_tabulated_flow_continues_below_reset(lif, lif_tab):
    # the sampled field's continuation below x_lo is the same line
    x0 = np.array([-0.02, -1e-3, 0.4])
    for tau in (1e-3, 0.05, 0.5):
        assert np.max(np.abs(_flow(lif_tab, x0, tau) - _flow(lif, x0, tau))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       fa=st.floats(0.0, 0.5), fb=st.floats(0.0, 0.5), tab=st.booleans())
def test_flow_semigroup_and_order(lif, lif_tab, xs, fa, fb, tab):
    m = lif_tab if tab else lif
    x = np.sort(np.asarray(xs))
    horizon = _time_to_threshold(m, float(x[-1]))
    a, b = fa * horizon, fb * horizon
    once = _flow(m, x, a + b)
    assert np.max(np.abs(_flow(m, _flow(m, x, a), b) - once)) < 1e-12
    assert np.all(np.diff(once) >= 0.0)


def test_event_times_match_between_kinds(lif):
    tab = tabulated_model(lambda x: S - GAMMA * x, x_lo=0.0, x_hi=1.0)
    x0 = np.array([0.1, 0.5, 0.8])
    a = advance_to_next_firing(PopulationState.from_states(lif, x0), lif)
    b = advance_to_next_firing(PopulationState.from_states(tab, x0), tab)
    assert abs(a.t - b.t) < 1e-9


def test_no_coupling_only_firer_resets(lif):
    state = PopulationState.from_states(lif, [0.2, 0.6, 0.9])
    state = advance_to_next_firing(state, lif)
    others_before = state.theta[:2].copy()
    state, ev = apply_firing(state, lif, 0.0)
    assert ev.n_fired == 1
    # the firer moves to the front at the reset; the others keep their phases
    assert np.array_equal(state.theta[1:], others_before)
    assert state.ids.tolist() == [2, 0, 1]
    assert lif._state_inverse(state.theta[0]) == lif.x_lo


def test_absorption_cascade_arithmetic(lif):
    # second oscillator within K/N of threshold gets dragged through
    K, N = 0.2, 2
    x = np.array([lif.x_hi - K / (2 * N), lif.x_hi])
    state, ev = apply_firing(PopulationState.from_states(lif, x), lif, K)
    assert ev.n_fired == 2
    assert ev.absorbed == 1
    assert np.all(state.theta <= lif._phase_fn(lif.x_lo + K))


def test_inhibitory_never_absorbs(lif, simulate_kept):
    run, _, _ = simulate_kept(lif, -0.2, 12, n_firings=300, seed=5)
    assert all(ev.absorbed == 0 for ev in run.events)


def test_avalanche_detected(lif):
    # coupling above the threshold gap re-fires freshly reset oscillators
    x = np.array([0.8, 0.9, 1.0])
    with pytest.raises(AvalancheError):
        apply_firing(PopulationState.from_states(lif, x), lif, 3.0)


def test_snapshots_sorted_with_firer_at_two_pi(lif, simulate_kept):
    _, _, snaps = simulate_kept(lif, -0.1, 17, n_firings=60, seed=2)
    for snap in snaps:
        assert np.all(np.diff(snap) >= -1e-12)
        assert abs(snap[-1] - TWO_PI) < 1e-12


def test_splay_reference_uniform_when_uncoupled(lif):
    ref = splay_reference(8, lif, 0.0)
    assert np.max(np.abs(ref - TWO_PI * np.arange(1, 9) / 8)) < 1e-12


def test_splay_state_is_event_loop_fixed_point(lif, simulate_kept):
    # start on the reference configuration; the discrete distance stays small
    N, K = 64, -0.1
    ref = splay_reference(N, lif, K)
    x0 = np.sort(np.asarray(lif.state_of_phase(ref[:-1])))
    x0 = np.concatenate([[lif.x_lo], x0])
    _, _, snaps = simulate_kept(lif, K, N, n_firings=5 * N, x0=x0)
    v = [discrete_lyapunov(s, ref) for s in snaps]
    assert max(v) < 0.3   # stays near the fixed point (O(1/N) mismatch)


def test_contracting_run_approaches_splay(lif, simulate_kept):
    N, K = 50, -0.1
    run, _, snaps = simulate_kept(lif, K, N, n_firings=1200, seed=9)
    ref = splay_reference(N, lif, K)
    v = np.array([discrete_lyapunov(s, ref) for s in snaps])
    assert v[-1] < 0.1 * v[0]
    assert run.mean_firing_rate() == pytest.approx(0.53, abs=0.05)


def test_excitatory_reaches_full_sync(lif, simulate_kept):
    run, _, _ = simulate_kept(lif, 0.1, 30, n_firings=300, seed=4)
    sync = run.full_sync_event()
    assert sync is not None
    # once together, the cluster stays together
    assert all(ev.n_fired == 30 for ev in run.events[sync:])


def test_quantile_initial_condition(lif, stat_inhib, simulate_kept):
    _, _, snaps = simulate_kept(lif, -0.1, 40, n_firings=40,
                                ic_density=stat_inhib.rho_star)
    ref = splay_reference(40, lif, -0.1)
    assert discrete_lyapunov(snaps[0], ref) < 0.5


def test_population_histogram_matches_stationary_density(lif, stat_inhib):
    # phase histogram of a large splay population against rho_star
    N = 10_000
    last = {}

    def keep_last(t, snap, ev):
        # only the final snapshot is needed; all of them would be 120 MB
        last["snap"] = snap

    simulate(lif, -0.1, N, n_firings=1500, ic_density=stat_inhib.rho_star,
             on_firing=keep_last)
    snap = last["snap"]
    bins = np.linspace(0.0, TWO_PI, 65)
    hist, _ = np.histogram(snap, bins=bins, density=True)
    centers = 0.5 * (bins[1:] + bins[:-1])
    rho_ref = stat_inhib.density_at(centers)
    l1 = np.sum(np.abs(hist - rho_ref)) * (bins[1] - bins[0])
    assert l1 < 0.05


def test_tabulated_run_matches_lif(lif, tmp_path, simulate_kept):
    # LIF samples at jittered knots, as in the benchmark's field table; the
    # whole event sequence stays on the closed-form run
    rng = np.random.default_rng(7)
    h = 1.0 / 1200
    xs = np.arange(1201) * h
    xs[1:-1] += rng.uniform(-0.25, 0.25, 1199) * h
    tab = tabulated_model(xs, S - GAMMA * xs)
    _, _, a = simulate_kept(lif, -0.1, 100, n_firings=200, seed=11)
    _, _, b = simulate_kept(tab, -0.1, 100, n_firings=200, seed=11)
    assert len(a) == len(b) == 200
    assert max(np.max(np.abs(p - q)) for p, q in zip(a, b)) < 1e-9
    for name, m in (("lif", lif), ("tab", tab)):
        (tmp_path / name).mkdir()
        info = _run_finite(m, -0.1, 100, 11, 200, tmp_path / name)
        assert info["V_N_nonincreasing_fraction"] == 1.0


def test_sink_sees_each_firing_and_run_keeps_no_snapshots(lif):
    # the sink gets each firing once, in order, at its event's time; the run
    # keeps only the events
    seen = []
    run = simulate(lif, 0.1, 30, n_firings=200, seed=4,
                   on_firing=lambda t, snap, ev: seen.append((t, ev)))
    assert [ev for _, ev in seen] == run.events
    assert [t for t, _ in seen] == [ev.t for ev in run.events]
    assert not hasattr(run, "snapshots")


@pytest.mark.parametrize("K,N,seed,n_firings", [
    (-0.1, 50, 9, 300),     # inhibitory
    (0.1, 30, 4, 300),      # excitatory, with absorptions
    (-5.0, 40, 2, 100),     # no stationary state: no splay reference
], ids=["inhibitory", "absorbing", "no-stationary-state"])
def test_streamed_summary_matches_simulate(lif, tmp_path, simulate_kept, K, N, seed,
                                           n_firings):
    # the V_N fold over streamed firings gives the bits a kept run gives
    info = _run_finite(lif, K, N, seed, n_firings, tmp_path)
    run, _, snaps = simulate_kept(lif, K, N, n_firings=n_firings, seed=seed)
    # the rate needs no reference: every run records it
    want = {"N": N, "seed": seed, "n_events": n_firings,
            "full_sync_event": run.full_sync_event(),
            "mean_firing_rate": run.mean_firing_rate()}
    try:
        ref = splay_reference(N, lif, K)
    except NoStationaryStateError:
        want["splay_reference"] = "unavailable (no stationary state)"
    else:
        vn = [discrete_lyapunov(s, ref) for s in snaps]
        want.update(V_N_first=vn[0], V_N_last=vn[-1],
                    V_N_nonincreasing_fraction=float((np.diff(vn) <= 1e-12).mean()))
    assert info == want
    assert all(type(v) is type(want[k]) for k, v in info.items())
    assert ("splay_reference" in info) == (K < -1.0)
    if K > 0:
        assert sum(ev.absorbed for ev in run.events) > 0


def test_streamed_run_memory_is_order_n(lif, tmp_path):
    # a stored run would hold N * n_firings * 8 bytes of snapshots (1.6 MB)
    N, n_firings = 500, 400
    # a first call imports numpy.random (seeding loads it lazily, with
    # secrets and hashlib): about 0.7 MB of module objects that a cold
    # traced call would count
    _run_finite(lif, -0.1, N, 3, 10, tmp_path)
    tracemalloc.start()
    try:
        _run_finite(lif, -0.1, N, 3, n_firings, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * n_firings * 8 / 2


def test_pooled_run_memory_is_bounded_by_batches(lif, tmp_path, monkeypatch):
    # from POOL_MIN_FLOATS phases snapshots.csv is formatted in forked
    # workers, and the parent holds at most one pending batch per worker:
    # its peak is a fixed multiple of the batch budget.  Only the run's
    # events (about 200 bytes per firing, against N * 8 = 8 kB of snapshot)
    # grow with the run: far less than a tenth of the extra snapshots
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    N, budget = 1000, SNAPSHOT_BATCH_FLOATS * 8
    assert N * 300 >= POOL_MIN_FLOATS
    # a first call imports multiprocessing and concurrent.futures
    _run_finite(lif, -0.1, N, 3, 300, tmp_path)
    peaks = {}
    for n_firings in (300, 1200):
        tracemalloc.start()
        try:
            _run_finite(lif, -0.1, N, 3, n_firings, tmp_path)
            peaks[n_firings] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert multiprocessing.active_children() == []
    assert max(peaks.values()) < 24 * budget
    assert peaks[1200] - peaks[300] < 900 * N * 8 / 10

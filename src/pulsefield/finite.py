"""Event-driven simulation of finite pulse-coupled populations.

N identical integrate-and-fire oscillators drift under dx/dt = F(x) between
events; when one reaches the upper threshold it fires, resets to the lower
threshold and kicks every other state up by K/N.  A kick that pushes
someone past threshold makes them fire in the same event (absorption), and
the cascade iterates to a fixed point.  Between events identical dynamics
preserve the state ordering, so the next firer is always the current
maximum.

The drift is exact and the same for every model with a phase map: in phase
coordinates each oscillator moves at omega, so a drift over time tau is the
shift theta -> theta + omega*tau, and the leader at phase theta_max fires
after (2*pi - theta_max)/omega (Mirollo & Strogatz, SIAM J. Appl. Math. 50
(1990) 1645-1662).  States are stored in x; the drift maps them to phase
and back.

At every firing the sorted phase vector (firing oscillators recorded at
2*pi) is snapshotted; that sequence is the finite counterpart of the
continuum trajectory and is compared against the splay configuration -- the
N-quantiles of the stationary density -- through the discrete Lyapunov
distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .models import OscillatorModel, ModelError
from .quantile import quantile_transform
from .stationary import solve_stationary_flux

TWO_PI = 2.0 * math.pi
TIE_TOL = 1e-12          # states this close to threshold fire together


class AvalancheError(RuntimeError):
    """A reset oscillator was pushed back to threshold within one event
    (possible only when K >= x_hi - x_lo): no phase-locked configuration
    of distinct oscillators can exist."""


@dataclass
class PopulationState:
    """States of the N oscillators at time t (thresholds enforced between events)."""

    x: np.ndarray
    t: float = 0.0

    @property
    def n(self) -> int:
        return self.x.size

    def copy(self) -> "PopulationState":
        return PopulationState(self.x.copy(), self.t)


@dataclass(frozen=True)
class FiringEvent:
    """One firing event: time, oscillators fired (cascade order), and how
    many of them were absorbed rather than firing on their own."""

    t: float
    fired: tuple
    n_initial: int

    @property
    def n_fired(self) -> int:
        return len(self.fired)

    @property
    def absorbed(self) -> int:
        return len(self.fired) - self.n_initial


@dataclass
class FiniteRun:
    model: OscillatorModel
    K: float
    N: int
    seed: int | None
    events: list
    snapshot_times: list
    snapshots: list
    state: PopulationState

    @property
    def n_events(self) -> int:
        return len(self.events)

    def full_sync_event(self) -> int | None:
        """Index of the first event in which the whole population fired."""
        for i, ev in enumerate(self.events):
            if ev.n_fired == self.N:
                return i
        return None

    def mean_firing_rate(self, skip_fraction: float = 0.5) -> float:
        """Per-oscillator firing rate over the trailing part of the run."""
        k0 = int(len(self.events) * skip_fraction)
        if len(self.events) - k0 < 2:
            raise ValueError("not enough events to estimate a rate")
        fired = sum(ev.n_fired for ev in self.events[k0:])
        span = self.events[-1].t - self.events[k0].t
        return fired / span / self.N


def _flow(model: OscillatorModel, x: np.ndarray, tau: float) -> np.ndarray:
    """Exact time-tau flow of dx/dt = F(x), stopped at x_hi.

    The phase of every state advances by omega*tau.  States an inhibitory
    kick pushed below x_lo have a negative phase on the field's
    continuation and drift through the reset like any other.
    """
    if tau <= 0.0:
        return x.copy()
    theta = model._phase_fn(x) + model.omega * tau
    return model._state_inverse(np.minimum(theta, TWO_PI))


def _time_to_threshold(model: OscillatorModel, x_max: float) -> float:
    """Time for the leading oscillator to reach x_hi."""
    return (TWO_PI - float(model._phase_fn(x_max))) / model.omega


def advance_to_next_firing(state: PopulationState, model: OscillatorModel) -> PopulationState:
    """Evolve all states by the exact flow until the leader reaches threshold."""
    if model.F is None:
        raise ModelError(f"{model.kind} model has no vector field")
    lead = int(np.argmax(state.x))
    tau = _time_to_threshold(model, float(state.x[lead]))
    x = _flow(model, state.x, tau)
    x[lead] = model.x_hi            # pin the event oscillator exactly at threshold
    x = np.minimum(x, model.x_hi)
    return PopulationState(x, state.t + tau)


def apply_firing(state: PopulationState, model: OscillatorModel, K: float) -> tuple:
    """Reset everyone at threshold, kick the rest by K/N each, iterate the cascade.

    Returns the post-event state and the FiringEvent.  Inhibitory coupling
    can never absorb anyone; a previously reset oscillator reaching the
    threshold again within this event raises AvalancheError.
    """
    x = state.x.copy()
    n = x.size
    at_threshold = x >= model.x_hi - TIE_TOL
    if not at_threshold.any():
        raise ValueError("no oscillator at threshold; advance first")
    fired_order: list = []
    fired = np.zeros(n, dtype=bool)
    current = at_threshold
    n_initial = int(current.sum())
    while current.any():
        m = int(current.sum())
        fired_order.extend(int(i) for i in np.flatnonzero(current))
        fired |= current
        x[current] = model.x_lo
        others = ~current
        x[others] += m * K / n
        refire = fired & others & (x >= model.x_hi - TIE_TOL)
        if refire.any():
            raise AvalancheError(
                f"oscillator re-fired within one event at t={state.t:.6g}; "
                f"coupling K={K} >= threshold gap ignites a chain reaction")
        current = (~fired) & (x >= model.x_hi - TIE_TOL)
    event = FiringEvent(state.t, tuple(fired_order), n_initial)
    return PopulationState(x, state.t), event


def _snapshot(state: PopulationState, model: OscillatorModel) -> np.ndarray:
    """Sorted phases at a firing instant, firing oscillators recorded at 2*pi."""
    th = np.asarray(model.phase_of_state(np.clip(state.x, model.x_lo, model.x_hi)))
    th[state.x >= model.x_hi - TIE_TOL] = TWO_PI
    return np.sort(th)


def simulate(model: OscillatorModel, K: float, N: int, *, n_firings: int = 1000,
             t_max: float | None = None, seed: int | None = None,
             x0: np.ndarray | None = None, ic_density=None) -> FiniteRun:
    """Alternate drift and firing for ``n_firings`` events (or until t_max).

    Initial states are seeded uniform random in (x_lo, x_hi), the N-quantiles
    of ``ic_density`` mapped back to state space, or an explicit ``x0``.
    Snapshots are taken at each event before the pulse is applied.
    """
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
        if x.size != N:
            raise ValueError("x0 length must equal N")
    elif ic_density is not None:
        prof = quantile_transform(ic_density)
        phis = (np.arange(1, N + 1) - 0.5) / N
        x = np.asarray(model.state_of_phase(prof.Q_at(phis)))
    else:
        rng = np.random.default_rng(seed)
        span = model.x_hi - model.x_lo
        x = model.x_lo + rng.uniform(0.001, 0.999, N) * span
    if np.any(x < model.x_lo) or np.any(x > model.x_hi):
        raise ValueError("initial states outside thresholds")

    state = PopulationState(np.sort(x), 0.0)
    events: list = []
    snaps: list = []
    snap_times: list = []
    for _ in range(n_firings):
        state = advance_to_next_firing(state, model)
        if t_max is not None and state.t > t_max:
            break
        snaps.append(_snapshot(state, model))
        snap_times.append(state.t)
        state, ev = apply_firing(state, model, K)
        events.append(ev)
    return FiniteRun(model, K, N, seed, events, snap_times, snaps, state)


def splay_reference(N: int, model: OscillatorModel, K: float,
                    n_theta: int = 8192) -> np.ndarray:
    """Phase-locked reference configuration: the N-quantiles of the
    stationary density (uniform quantiles 2*pi*k/N when K = 0)."""
    stat = solve_stationary_flux(model, K, n_theta=n_theta)
    prof = quantile_transform(stat.rho_star)
    return np.asarray(prof.Q_at(np.arange(1, N + 1) / N))

"""Event-driven simulation of finite pulse-coupled populations.

N identical integrate-and-fire oscillators drift under dx/dt = F(x) between
events; when one reaches the upper threshold it fires, resets to the lower
threshold and kicks every other state up by K/N.  A kick that pushes
someone past threshold makes them fire in the same event (absorption), and
the cascade iterates to a fixed point.

The population is held in phase coordinates, where every oscillator moves
at omega (Mirollo & Strogatz, SIAM J. Appl. Math. 50 (1990) 1645-1662):
a sorted phase vector, the oscillator id at each position, and the time.
Identical dynamics preserve the order, so the leader is the last entry, a
drift to the next firing is one shift theta -> theta + (2*pi - theta_max),
and the firing block is a suffix.  Only the kick is taken in state space:
the other phases are mapped to x, kicked by K/N per firing oscillator
(the cascade runs on sorted slices), and mapped back; the fired block is
put in front of them (behind the states an inhibitory kick pushed below the
reset, which carry negative phases on the field's continuation), so the
vector stays sorted without a sort.

At every firing the phase vector (firing oscillators recorded at 2*pi,
states below the reset at 0) is the firing's snapshot; that sequence is the
finite counterpart of the continuum trajectory and is compared against the
splay configuration -- the N-quantiles of the stationary density -- through
the discrete Lyapunov distance.  A run has one flow: it hands each snapshot
to a per-firing sink and keeps only its events, so it holds O(N) memory
whatever its length.  The tests keep a loop over states x, which maps every
state to phase and back at each drift, as the reference: the phase loop
fires the same oscillators in the same order, and its event times and
snapshots (hence firings.csv and snapshots.csv) differ from it only at
rounding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import OscillatorModel, ModelError
from .quantile import quantile_transform
from .stationary import solve_stationary_flux

TWO_PI = 2.0 * math.pi
TIE_TOL = 1e-12          # states this close to threshold fire together
RATE_SKIP = 0.5          # leading share of events the mean firing rate skips
SPLAY_N_THETA = 8192     # grid of the stationary density the splay is cut from


class AvalancheError(RuntimeError):
    """A reset oscillator was pushed back to threshold within one event
    (possible only when K >= x_hi - x_lo): no phase-locked configuration
    of distinct oscillators can exist."""


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
    N: int
    events: list

    @property
    def n_events(self) -> int:
        return len(self.events)

    def full_sync_event(self) -> int | None:
        """Index of the first event in which the whole population fired."""
        for i, ev in enumerate(self.events):
            if ev.n_fired == self.N:
                return i
        return None

    def mean_firing_rate(self) -> float:
        """Per-oscillator firing rate over the run past its RATE_SKIP share."""
        k0 = int(len(self.events) * RATE_SKIP)
        if len(self.events) - k0 < 2:
            raise ValueError("not enough events to estimate a rate")
        fired = sum(ev.n_fired for ev in self.events[k0:])
        span = self.events[-1].t - self.events[k0].t
        return fired / span / self.N


def _firing_phase(model: OscillatorModel) -> float:
    """Phase of x_hi - TIE_TOL: states at or past it fire together."""
    return float(model._phase_fn(np.array([model.x_hi - TIE_TOL]))[0])


def _drift(theta: np.ndarray) -> tuple:
    """Shift every phase until the leader reaches 2*pi.

    Returns the phase advance and the new vector, its last entry pinned to
    2*pi exactly.
    """
    shift = TWO_PI - float(theta[-1])
    theta = theta + shift
    theta[-1] = TWO_PI
    return shift, theta


def _fire(theta: np.ndarray, ids: np.ndarray, k: int, model: OscillatorModel,
          K: float, t: float) -> tuple:
    """Fire the suffix theta[k:], kick the rest and run the cascade.

    Returns the sorted phases and ids after the event, and the FiringEvent.
    Within one cascade round the ids are listed in ascending order.
    """
    n = theta.size
    rounds = [np.sort(ids[k:])]
    m = n - k
    if K == 0.0:
        # nobody else moves: the fired block goes to the reset at phase 0
        p = int(np.searchsorted(theta[:k], 0.0))
        return (np.concatenate([theta[:p], np.zeros(m), theta[p:k]]),
                np.concatenate([ids[:p], rounds[0], ids[p:k]]),
                FiringEvent(t, tuple(rounds[0].tolist()), m))
    thr = model.x_hi - TIE_TOL
    x = model._state_inverse(theta[:k])
    # state of each round's fired block: reset to x_lo, then kicked by
    # every later round
    block_x = [model.x_lo]
    hi = k
    while True:
        kick = m * K / n
        x[:hi] += kick
        for r in range(len(block_x) - 1):
            block_x[r] += kick
            if block_x[r] >= thr:
                raise AvalancheError(
                    f"oscillator re-fired within one event at t={t:.6g}; "
                    f"coupling K={K} >= threshold gap ignites a chain reaction")
        j = int(np.searchsorted(x[:hi], thr))
        if j == hi:
            break
        rounds.append(np.sort(ids[j:hi]))
        block_x.append(model.x_lo)
        m = hi - j
        hi = j
    # the blocks, last round lowest, go in front of the kicked states, but
    # behind those an inhibitory kick pushed below the reset
    p = int(np.searchsorted(x[:hi], block_x[0]))
    fired_x = [np.full(blk.size, v) for blk, v in zip(rounds[::-1], block_x[::-1])]
    x_new = np.concatenate([x[:p], *fired_x, x[p:hi]])
    ids_new = np.concatenate([ids[:p], *rounds[::-1], ids[p:hi]])
    event = FiringEvent(t, tuple(np.concatenate(rounds).tolist()), n - k)
    return model._phase_fn(x_new), ids_new, event


def simulate(model: OscillatorModel, K: float, N: int, *, on_firing,
             n_firings: int = 1000, seed: int | None = None,
             x0: np.ndarray | None = None, ic_density=None) -> FiniteRun:
    """Alternate drift and firing for ``n_firings`` events, streaming each.

    Initial states are seeded uniform random in (x_lo, x_hi), the N-quantiles
    of the ``DensityField`` ``ic_density`` mapped back to state space, or an
    explicit ``x0``.
    Each firing's snapshot is taken before the pulse is applied; once the
    event is resolved, ``on_firing(t, snapshot, event)`` is called with it.
    The run keeps only its events.
    """
    if model.F is None:
        raise ModelError(f"{model.kind} model has no vector field")
    if x0 is not None:
        x = np.asarray(x0, dtype=float)
        if x.size != N:
            raise ValueError("x0 length must equal N")
    elif ic_density is not None:
        prof = quantile_transform(ic_density.theta, ic_density.rho)
        phis = (np.arange(1, N + 1) - 0.5) / N
        x = np.asarray(model.state_of_phase(prof.Q_at(phis)))
    else:
        rng = np.random.default_rng(seed)
        span = model.x_hi - model.x_lo
        x = model.x_lo + rng.uniform(0.001, 0.999, N) * span
    if np.any(x < model.x_lo) or np.any(x > model.x_hi):
        raise ValueError("initial states outside thresholds")

    # oscillator ids number the initial states in ascending order
    theta, ids, t = model._phase_fn(np.sort(x)), np.arange(N), 0.0
    fire_at = _firing_phase(model)
    events: list = []
    for _ in range(n_firings):
        shift, theta = _drift(theta)
        t += shift / model.omega
        k = int(np.searchsorted(theta, fire_at))
        theta[k:] = TWO_PI
        below = int(np.searchsorted(theta, 0.0))
        if below:
            snap = theta.copy()
            snap[:below] = 0.0
        else:
            snap = theta
        theta, ids, ev = _fire(theta, ids, k, model, K, t)
        events.append(ev)
        on_firing(t, snap, ev)
    return FiniteRun(N, events)


def splay_reference(N: int, model: OscillatorModel, K: float) -> np.ndarray:
    """Phase-locked reference configuration: the N-quantiles of the
    stationary density on SPLAY_N_THETA + 1 nodes (uniform quantiles
    2*pi*k/N when K = 0)."""
    stat = solve_stationary_flux(model, K, n_theta=SPLAY_N_THETA)
    return np.asarray(stat.profile().Q_at(np.arange(1, N + 1) / N))

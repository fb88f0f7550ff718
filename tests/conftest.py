import numpy as np
import pytest

from pulsefield import lif_model, simulate, solve_stationary_flux, tabulated_model

# standard regime used across the suite: dx/dt = 2.1 - 2x on [0, 1]
S, GAMMA = 2.1, 2.0


@pytest.fixture(scope="session")
def lif():
    return lif_model(S, GAMMA, 0.0, 1.0)


@pytest.fixture(scope="session")
def lif_tab(lif):
    # same oscillator built from field samples, for closed-form cross-checks
    xs = np.linspace(0.0, 1.0, 1201)
    return tabulated_model(xs, S - GAMMA * xs)


@pytest.fixture(scope="session")
def stat_inhib(lif):
    return solve_stationary_flux(lif, -0.1)


@pytest.fixture(scope="session")
def stat_excit(lif):
    return solve_stationary_flux(lif, 0.1)


@pytest.fixture(scope="session")
def simulate_kept():
    """``simulate`` through a sink that keeps every firing: returns the run,
    the firing times and the snapshots."""
    def run(model, K, N, **kw):
        times, snaps = [], []

        def keep(t, snap, ev):
            times.append(t)
            snaps.append(snap)

        return simulate(model, K, N, on_firing=keep, **kw), times, snaps
    return run

"""Numerical laboratory for pulse-coupled integrate-and-fire oscillators.

Continuum transport of the phase density with self-consistent boundary
flux, the asynchronous stationary state, a total-variation Lyapunov
distance over quantile densities certifying the synchrony/asynchrony
dichotomy, and an event-driven finite-N simulator as independent oracle.
"""

from .models import (Curvature, ModelError, Monotonicity, OscillatorModel,
                     classify_monotonicity, homoclinic_model, lif_model,
                     tabulated_model)
from .stationary import (CouplingBounds, ExistenceResult, NoStationaryStateError,
                         StationaryState, UnresolvedFluxError, coupling_bounds,
                         existence_condition, normalization_functional,
                         solve_stationary_flux)
from .continuum import (AdmissibilityReport, AdmissibilityVerdict, BlowupError,
                        BlowupEvent, CFLError, DensityField, TrajectoryLog,
                        check_admissibility, initial_density, integrate)
from .quantile import (QuantileDegenerateError, QuantileProfile, discrete_lyapunov,
                       lyapunov_tv, quantile_transform)
from .certify import (CertificationReport, DecayFit, certify_theorem_bounds,
                      fit_decay_rate)
from .finite import (AvalancheError, FiniteRun, FiringEvent, simulate,
                     splay_reference)

__version__ = "0.1.0"

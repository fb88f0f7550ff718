"""Numerical laboratory for pulse-coupled integrate-and-fire oscillators.

Continuum transport of the phase density with self-consistent boundary
flux, the asynchronous stationary state, a total-variation Lyapunov
distance over quantile densities certifying the synchrony/asynchrony
dichotomy, and an event-driven finite-N simulator as independent oracle.
"""

from .models import (CouplingSpec, Curvature, ModelError, Monotonicity,
                     OscillatorModel, classify_monotonicity, homoclinic_model,
                     lif_model, natural_frequency, phase_of_state, prc_eval,
                     state_of_phase, tabulated_model)
from .stationary import (CouplingBounds, ExistenceResult, NoStationaryStateError,
                         StationaryState, coupling_bounds, existence_condition,
                         normalization_functional, solve_stationary_flux)
from .continuum import (AdmissibilityReport, AdmissibilityVerdict, BlowupError,
                        BlowupEvent, CFLError, CharacteristicTrace, DensityField,
                        TrajectoryLog, boundary_flux, characteristic_trace,
                        check_admissibility, initial_density, integrate, step,
                        velocity_field)
from .quantile import (QuantileDegenerateError, QuantileProfile, density_l1,
                       discrete_lyapunov, lyapunov_tv, quantile_l2,
                       quantile_transform)
from .certify import (CertificationReport, DecayFit, NegativeControlReport,
                      certify_theorem_bounds, fit_decay_rate, negative_controls)
from .finite import (AvalancheError, FiniteRun, FiringEvent, PopulationState,
                     advance_to_next_firing, apply_firing, simulate,
                     splay_reference)

__version__ = "0.1.0"

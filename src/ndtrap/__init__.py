"""Simulation and inference toolkit for UV charge control of levitated
nanoparticles in Paul traps: trap stability and secular motion, stochastic
single-electron charge dynamics, survival-curve ensembles, and the
measurement-model fits that turn traces back into physical parameters.
"""

from .core import (ChargeEnvelope, Particle, TrapConfig, UVSource,
                   atom_count_from_radius, charge_envelope, mass_from_radius)
from .ensemble import (SurvivalCurve, exponential_survival_curve,
                       lifetime_sweep, simulate_survival)
from .fitters import (FitResult, fit_charge_lattice, fit_exponential,
                      fit_powerlaw, fit_sigmoid, nls_fit)
from .photoemission import (ChargeTrajectory, EmissionModel, PulseTrain,
                            count_pulses, emission_rate, pick_pulses,
                            required_intensity_scaling,
                            simulate_charge_trajectory, spot_for_power)
from .signal import (FrequencyTrace, estimate_secular_frequency,
                     synthesize_frequency_trace)
from .trap import (MotionTrace, ParticleLost, damping_rate,
                   find_mathieu_boundary, integrate_motion, is_stable,
                   secular_frequency, stability_parameter)

__version__ = "0.1.0"

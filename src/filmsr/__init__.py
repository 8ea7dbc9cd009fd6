"""Collective spontaneous emission from an ultrathin film of three-level
V-type emitters: RWA density-matrix dynamics with the Lorentz local-field
correction, closed-form references, and pulse/branching analysis.
"""

from .analytics import (AnalyticsError, DegenerateSolution, DomainViolation,
                        LinearRates, NoInversion, amplitude_ratio,
                        analytic_chirp, critical_lfc, degenerate_solution,
                        inversion_condition, linear_rates,
                        population_oscillation)
from .basis import (BrightDarkState, from_bright_dark, integrate_bright_dark,
                    rhs_bright_dark, to_bright_dark)
from .config import (ConfigError, ScenarioConfig, SweepSpec, load_physical,
                     load_preset, load_scenario, parse_config)
from .dynamics import (IntegrationError, IntegratorControl, InvariantDrift,
                       NonFiniteStep, StepSizeUnderflow, Trajectory, field_of,
                       integrate, rhs_original)
from .observables import (AnalysisError, Branching, FinalPopulations, NoPulse,
                          PhaseUnwrapFailure, PulseMetrics, branching_summary,
                          instantaneous_frequency, pulse_metrics,
                          quadratic_invariant, smoothed_envelope, trace_of)
from .params import (DensityState, FilmTooThick, NegativeLfc,
                     NormalizationViolation, ParameterError, PhysicalInputs,
                     PositivityViolation, SystemParams, TraceViolation,
                     derive_dimensionless, estimate_timescales, initial_state,
                     make_params)
from .runner import RunResult, SweepRow, emit_outputs, run_scenario, run_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # params
    "ParameterError", "NormalizationViolation", "NegativeLfc", "FilmTooThick",
    "TraceViolation", "PositivityViolation", "SystemParams", "PhysicalInputs",
    "DensityState", "make_params", "derive_dimensionless",
    "estimate_timescales", "initial_state",
    # dynamics
    "IntegrationError", "StepSizeUnderflow", "NonFiniteStep",
    "InvariantDrift", "IntegratorControl", "Trajectory", "rhs_original",
    "field_of", "integrate",
    # basis
    "BrightDarkState", "to_bright_dark", "from_bright_dark",
    "rhs_bright_dark", "integrate_bright_dark",
    # analytics
    "AnalyticsError", "NoInversion", "DomainViolation", "DegenerateSolution",
    "LinearRates", "inversion_condition", "degenerate_solution",
    "analytic_chirp", "population_oscillation", "linear_rates",
    "amplitude_ratio", "critical_lfc",
    # observables
    "AnalysisError", "NoPulse", "PhaseUnwrapFailure", "FinalPopulations",
    "Branching", "PulseMetrics", "trace_of", "quadratic_invariant",
    "smoothed_envelope", "pulse_metrics", "instantaneous_frequency",
    "branching_summary",
    # config / runner
    "ConfigError", "ScenarioConfig", "SweepSpec",
    "parse_config", "load_scenario", "load_physical", "load_preset",
    "RunResult", "SweepRow", "run_scenario", "run_sweep", "emit_outputs",
]

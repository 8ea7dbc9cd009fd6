"""The package's public names: each module's ``__all__``, re-exported."""

import filmsr
from filmsr import (analytics, basis, config, dynamics, observables, params,
                    runner)

MODULES = (params, dynamics, basis, analytics, observables, config, runner)

# the names the package exported before it re-exported the module lists
EARLIER = """
    AnalysisError AnalyticsError Branching BrightDarkState ConfigError
    DegenerateSolution DensityState DomainViolation FilmTooThick
    FinalPopulations IntegrationError IntegratorControl InvariantDrift
    LinearRates NegativeLfc NoInversion NoPulse NonFiniteStep
    NormalizationViolation ParameterError PhaseUnwrapFailure PhysicalInputs
    PositivityViolation PulseMetrics RunResult ScenarioConfig
    StepSizeUnderflow SweepRow SweepSpec SystemParams TraceViolation
    Trajectory __version__ amplitude_ratio analytic_chirp branching_summary
    critical_lfc degenerate_solution derive_dimensionless emit_outputs
    estimate_timescales field_of from_bright_dark initial_state
    instantaneous_frequency integrate integrate_bright_dark
    inversion_condition linear_rates load_physical load_preset load_scenario
    make_params parse_config population_oscillation pulse_metrics
    quadratic_invariant rhs_bright_dark rhs_original run_scenario run_sweep
    smoothed_envelope to_bright_dark trace_of
""".split()


class TestExports:
    def test_all_is_the_module_lists(self):
        expected = ["__version__"] + [name for module in MODULES
                                     for name in module.__all__]
        assert sorted(filmsr.__all__) == sorted(expected)
        assert len(set(filmsr.__all__)) == len(filmsr.__all__)

    def test_every_name_is_its_module_object(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(filmsr, name) is getattr(module, name), name

    def test_earlier_exports_stay(self):
        assert len(EARLIER) == 64
        assert set(EARLIER) <= set(filmsr.__all__)

    def test_make_params_is_system_params(self):
        assert filmsr.make_params is filmsr.SystemParams

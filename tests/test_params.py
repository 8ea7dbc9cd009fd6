"""Parameter validation, unit conversion, and state construction.

The unit-conversion assertions pin the exact closed formulas; everything
else checks that invalid inputs are rejected with the specific error
class the rest of the package relies on.
"""

import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from filmsr import (DensityState, FilmTooThick, NegativeLfc,
                    NormalizationViolation, PhysicalInputs,
                    PositivityViolation, SystemParams, TraceViolation,
                    derive_dimensionless, estimate_timescales, initial_state,
                    make_params)
from filmsr.params import HBAR_CGS, ParameterError


def film(thickness=5e-6, concentration=1e21):
    """Organic-crystal-like inputs: visible wavelength, dipole-allowed."""
    return PhysicalInputs(wavelength_c=5e-5, thickness=thickness,
                          dipole21=6.313e-18, dipole31=6.313e-18,
                          concentration=concentration, tau0=1e-8)


class TestMakeParams:
    def test_accepts_equal_unit_moments(self):
        p = make_params(5.0, 0.5)
        assert (p.omega32, p.delta_L, p.mu21, p.mu31) == (5.0, 0.5, 1.0, 1.0)

    def test_accepts_unbalanced_normalized_moments(self):
        mu21 = 1.2
        p = make_params(0.0, 0.0, mu21, math.sqrt(2.0 - mu21 ** 2))
        assert p.mu21 ** 2 + p.mu31 ** 2 == pytest.approx(2.0, abs=1e-15)

    def test_rejects_negative_lfc(self):
        with pytest.raises(NegativeLfc):
            make_params(5.0, -0.1)

    def test_rejects_denormalized_moments(self):
        with pytest.raises(NormalizationViolation):
            make_params(5.0, 0.0, 1.0, 1.0 + 1e-4)

    def test_rejects_negative_moment(self):
        with pytest.raises(NormalizationViolation):
            make_params(5.0, 0.0, -1.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_params(float("nan"), 0.0)

    @pytest.mark.parametrize("values, make, error", [
        ((5.0, -1.0), lambda v: SystemParams(*v), NegativeLfc),
        ((5.0, -2.0), lambda v: replace(make_params(5.0, 0.5),
                                        delta_L=v[1]), NegativeLfc),
        ((5.0, 0.5, 3.0, 1.0), lambda v: SystemParams(*v),
         NormalizationViolation),
    ], ids=["direct", "replace", "denormalized"])
    def test_every_instance_raises_the_make_params_error(self, values, make,
                                                         error):
        """However a SystemParams is made, bad values raise what
        make_params raises for them, with the same message."""
        with pytest.raises(error) as expected:
            make_params(*values)
        message = re.escape(str(expected.value))
        with pytest.raises(error, match=f"^{message}$"):
            make(values)

    def test_messages_name_the_values_as_given(self):
        """The values are checked as given, before they are stored as
        floats."""
        with pytest.raises(NegativeLfc, match=r"^delta_L must be >= 0, "
                                              r"got -1$"):
            make_params(5, -1)
        with pytest.raises(NormalizationViolation,
                           match=r"^mu21\*\*2 \+ mu31\*\*2 = 10.0, "):
            SystemParams(5.0, 0.5, 3.0, 1.0)

    def test_stores_floats(self):
        p = replace(make_params(5, 0), delta_L=np.float64(0.5), mu21=1)
        assert [type(v) for v in astuple(p)] == [float] * 4
        assert astuple(p) == (5.0, 0.5, 1.0, 1.0)


class TestDeriveDimensionless:
    def test_lfc_time_product_is_geometric(self):
        """delta_L * tau_R = 2/(3 k_c L) exactly, independent of material."""
        phys = film()
        params, _tau = derive_dimensionless(phys)
        assert params.delta_L == pytest.approx(2.0 / (3.0 * phys.kc_L),
                                               rel=1e-15)

    def test_tau_r_closed_formula(self):
        phys = film()
        _params, tau = derive_dimensionless(phys)
        d2 = phys.mean_dipole ** 2
        expected = HBAR_CGS / (2.0 * math.pi * phys.kc_L * d2
                               * phys.concentration)
        assert tau == pytest.approx(expected, rel=1e-15)

    def test_splitting_scaled_by_tau_r(self):
        _params0, tau = derive_dimensionless(film())
        params, _ = derive_dimensionless(film(), omega32_rad_s=1.0e14)
        assert params.omega32 == pytest.approx(1.0e14 * tau, rel=1e-15)

    def test_rejects_thick_film(self):
        with pytest.raises(FilmTooThick):
            derive_dimensionless(film(thickness=1e-5))  # k_c L = 1.26

    def test_estimator_ignores_thin_film_condition(self):
        """The scaling estimate stays usable outside the model's regime."""
        out = estimate_timescales(film(thickness=1e-5))
        assert out["tau_R_seconds"] > 0

    def test_estimator_closed_formula(self):
        phys = film()
        out = estimate_timescales(phys)
        expected = ((8.0 * math.pi / 3.0)
                    / (phys.concentration * phys.wavelength_c ** 3)
                    * (phys.wavelength_c / phys.thickness) * phys.tau0)
        assert out["tau_R_seconds"] == expected
        assert out["ratio_to_tau0"] == expected / phys.tau0


class TestInitialState:
    def test_ground_population_implied(self):
        s = initial_state(0.3, 0.2, 0.1)
        assert s.rho11 == pytest.approx(0.5)
        assert s.trace == pytest.approx(1.0, abs=1e-15)

    def test_default_seed_coherences(self):
        s = initial_state(0.5, 0.5, 0.5)
        assert s.R21 == 1e-8 and s.R31 == 1e-8

    def test_rejects_overfull_doublet(self):
        with pytest.raises(TraceViolation):
            initial_state(0.7, 0.5, 0.0)

    def test_rejects_negative_population(self):
        with pytest.raises(PositivityViolation):
            initial_state(-0.1, 0.5, 0.0)

    def test_rejects_overlarge_coherence(self):
        """|rho32|**2 <= rho22*rho33 is the doublet Cauchy-Schwarz bound."""
        with pytest.raises(PositivityViolation):
            initial_state(0.3, 0.3, 0.4)

    def test_maximal_coherence_is_allowed(self):
        s = initial_state(0.5, 0.5, 0.5)
        assert s.rho32 == 0.5


class TestDensityStateValidate:
    def test_pure_state_percentages(self):
        s = DensityState(0j, 0j, 0.5 + 0j, 0.0, 0.5, 0.5)
        assert s.validate() is s

    def test_catches_trace_error(self):
        s = DensityState(0j, 0j, 0j, 0.5, 0.5, 0.5)
        with pytest.raises(TraceViolation):
            s.validate()

    def test_catches_optical_coherence_bound(self):
        s = DensityState(0.5 + 0j, 0j, 0j, 0.9, 0.1, 0.0)
        with pytest.raises(PositivityViolation):
            s.validate()

    @pytest.mark.parametrize("field, state", [
        ("rho11", DensityState(0j, 0j, 0j, math.nan, math.nan, math.nan)),
        ("R21", DensityState(0j, complex(math.nan), 0j, 1.0, 0.0, 0.0)),
        ("rho32", DensityState(0j, 0j, complex(0.0, math.inf), 0.0, 0.5,
                               0.5)),
    ])
    def test_rejects_non_finite_field(self, field, state):
        """Every comparison with nan is False, so without its own check a
        nan state would pass the trace and positivity bounds."""
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            state.validate()

    def test_rejects_negative_determinant_with_every_minor_valid(self):
        """Populations 1/3 and coherences R31 = R21 = 1/3, rho32 = -1/3
        meet every 2x2 minor, yet rho has the eigenvalues -1/3, 2/3 and
        2/3: only the determinant, -4/27, shows it.  The same numbers in
        the bright/dark slots, where R_plus1 pairs with rho_pp, fail the
        same way."""
        from filmsr.basis import BrightDarkState

        slots = [(2, 0), (1, 0), (2, 1), (0, 0), (1, 1), (2, 2)]
        third = 1.0 / 3.0
        y = np.array([third, third, -third, third, third, third], complex)
        rho = np.zeros((3, 3), complex)
        for (i, j), v in zip(slots, y):
            rho[i, j], rho[j, i] = v, np.conj(v)
        np.testing.assert_allclose(np.linalg.eigvalsh(rho),
                                   [-third, 2 * third, 2 * third])
        want = r"^positivity det\(rho\) >= 0 violated: determinant -0\.148"
        with pytest.raises(PositivityViolation, match=want):
            initial_state(third, third, rho32=-third, R21_0=third,
                          R31_0=third)
        with pytest.raises(PositivityViolation, match=want):
            BrightDarkState(*y[:3].tolist(), third, third, third).validate()

    def test_random_mixed_states_pass(self):
        """Mixtures of up to three pure states, so of rank 1 to 3, and
        their bright/dark rotations pass every check."""
        from filmsr.basis import BrightDarkState, _bare_to_bd
        from conftest import random_pure_state

        rng = np.random.default_rng(11)
        params = make_params(5.0, 0.5, 1.2, math.sqrt(0.56))
        for _ in range(100):
            states = [random_pure_state(rng) for _ in range(rng.integers(3))]
            weights = rng.random(len(states) + 1)
            weights /= weights.sum()
            y = sum(w * np.array(astuple(s), complex)
                    for w, s in zip(weights, [random_pure_state(rng)]
                                    + states))
            DensityState(*y[:3], *y[3:].real.tolist()).validate()
            bd = _bare_to_bd(y, params)
            BrightDarkState(*bd[:3], *bd[3:].real.tolist()).validate()

    def test_random_pure_states_pass(self):
        from conftest import random_pure_state

        rng = np.random.default_rng(7)
        for _ in range(50):
            random_pure_state(rng).validate()

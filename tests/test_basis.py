"""Bright/dark basis: rotation, its inverse, and the transformed motion.

The rotation is unitary, so transforming, differentiating and
back-transforming must commute with the bare-basis vector field; the
integration path through the rotated frame is compared sample by sample
against the direct one.
"""

import numpy as np
import pytest

from filmsr import (BrightDarkState, DensityState, TraceViolation,
                    PositivityViolation, from_bright_dark, initial_state,
                    integrate, make_params, rhs_bright_dark, rhs_original,
                    to_bright_dark)
from filmsr.basis import _bare_to_bd, _bd_to_bare
from filmsr.dynamics import _moduli, _pack, _scalars, _weights
from filmsr.params import ParameterError
from conftest import random_pure_state

RNG = np.random.default_rng(11)
BALANCED = make_params(5.0, 0.0)
UNBALANCED = make_params(5.0, 0.3, 1.2, np.sqrt(2.0 - 1.2 ** 2))


class TestToBrightDark:
    def test_symmetric_coherence_is_pure_bright(self):
        bd = to_bright_dark(initial_state(0.5, 0.5, 0.5, 0.0, 0.0), BALANCED)
        assert bd.rho_pp == pytest.approx(1.0)
        assert bd.rho_mm == pytest.approx(0.0)
        assert bd.rho_pm == pytest.approx(0.0)

    def test_incoherent_doublet_splits_evenly(self):
        bd = to_bright_dark(initial_state(0.5, 0.5, 0.0, 0.0, 0.0), BALANCED)
        assert bd.rho_pp == pytest.approx(0.5)
        assert bd.rho_mm == pytest.approx(0.5)

    def test_equal_optical_coherences_feed_only_bright(self):
        r = 3e-4 + 1e-4j
        s = DensityState(r, r, 0j, 1.0, 0.0, 0.0)
        bd = to_bright_dark(s, BALANCED)
        assert bd.R_plus1 == pytest.approx(np.sqrt(2.0) * r)
        assert bd.R_minus1 == pytest.approx(0.0)

    def test_trace_is_basis_independent(self):
        for _ in range(50):
            s = random_pure_state(RNG)
            bd = to_bright_dark(s, UNBALANCED)
            assert bd.rho_11 + bd.rho_pp + bd.rho_mm == pytest.approx(
                s.trace, abs=1e-14)


class TestFromBrightDark:
    def test_pure_bright_has_positive_low_coherence(self):
        s = from_bright_dark(BrightDarkState(0j, 0j, 0j, 0.0, 1.0, 0.0),
                             BALANCED)
        assert s.rho32 == pytest.approx(0.5)
        assert s.rho22 == pytest.approx(0.5)
        assert s.rho33 == pytest.approx(0.5)

    def test_pure_dark_has_negative_low_coherence(self):
        s = from_bright_dark(BrightDarkState(0j, 0j, 0j, 0.0, 0.0, 1.0),
                             BALANCED)
        assert s.rho32 == pytest.approx(-0.5)

    def test_round_trip_is_identity(self):
        for params in (BALANCED, UNBALANCED):
            for _ in range(500):
                s = random_pure_state(RNG)
                back = from_bright_dark(to_bright_dark(s, params), params)
                assert abs(back.R31 - s.R31) < 1e-14
                assert abs(back.R21 - s.R21) < 1e-14
                assert abs(back.rho32 - s.rho32) < 1e-14
                assert abs(back.rho11 - s.rho11) < 1e-14
                assert abs(back.rho22 - s.rho22) < 1e-14
                assert abs(back.rho33 - s.rho33) < 1e-14


class TestArrayRotation:
    def test_batch_matches_per_state_rotation_exactly(self):
        """A (6, N) batch rotates column by column exactly as the
        dataclass functions rotate single states, in both directions."""
        for params in (BALANCED, UNBALANCED):
            states = [random_pure_state(RNG) for _ in range(50)]
            y = np.stack([_pack(s) for s in states], axis=1)
            bd = _bare_to_bd(y, params)
            back = _bd_to_bare(bd, params)
            for i, s in enumerate(states):
                one = to_bright_dark(s, params)
                np.testing.assert_array_equal(bd[:, i], _pack(one))
                np.testing.assert_array_equal(
                    back[:, i], _pack(from_bright_dark(one, params)))


class TestPushforward:
    def test_rotation_commutes_with_vector_field(self):
        """Rotating the derivative equals differentiating the rotated state.

        The rotation is linear, so it applies verbatim to derivative
        components; this pins every cross term of the transformed
        equations against the bare-basis ones.
        """
        for params in (BALANCED, UNBALANCED):
            for _ in range(500):
                s = random_pure_state(RNG)
                pushed = to_bright_dark(rhs_original(s, params), params)
                direct = rhs_bright_dark(to_bright_dark(s, params), params)
                assert abs(pushed.R_plus1 - direct.R_plus1) < 1e-12
                assert abs(pushed.R_minus1 - direct.R_minus1) < 1e-12
                assert abs(pushed.rho_pm - direct.rho_pm) < 1e-12
                assert abs(pushed.rho_11 - direct.rho_11) < 1e-12
                assert abs(pushed.rho_pp - direct.rho_pp) < 1e-12
                assert abs(pushed.rho_mm - direct.rho_mm) < 1e-12


class TestBrightDarkRhs:
    def test_degenerate_dark_sector_is_fixed(self):
        """With no doublet splitting the dark channel never couples back."""
        bd = BrightDarkState(0j, 0.1 + 0.05j, 0j, 0.0, 0.0, 1.0)
        d = rhs_bright_dark(bd, make_params(0.0, 1.0))
        assert max(abs(d.R_plus1), abs(d.R_minus1), abs(d.rho_pm),
                   abs(d.rho_11), abs(d.rho_pp), abs(d.rho_mm)) == 0.0

    def test_bright_channel_pumps_at_four_rsq(self):
        r = 1e-2 + 3e-3j
        bd = BrightDarkState(r, 0j, 0j, 0.0, 1.0, 0.0)
        d = rhs_bright_dark(bd, make_params(5.0, 0.0))
        assert d.rho_pp == pytest.approx(-4.0 * abs(r) ** 2, rel=1e-12)
        assert d.rho_11 == pytest.approx(4.0 * abs(r) ** 2, rel=1e-12)
        assert d.rho_mm == 0.0

    def test_splitting_exchanges_doublet_population(self):
        bd = BrightDarkState(0j, 0j, 0.1j, 0.0, 0.5, 0.5)
        d = rhs_bright_dark(bd, make_params(5.0, 0.0))
        assert d.rho_mm == pytest.approx(0.5)
        assert d.rho_pp == pytest.approx(-0.5)
        assert d.rho_11 == 0.0


class TestValidate:
    def test_catches_trace_error(self):
        with pytest.raises(TraceViolation):
            BrightDarkState(0j, 0j, 0j, 0.5, 0.5, 0.5).validate()

    def test_catches_coherence_bound(self):
        with pytest.raises(PositivityViolation):
            BrightDarkState(0j, 0j, 0.5 + 0j, 0.0, 1.0, 0.0).validate()

    def test_rejects_non_finite_field(self):
        with pytest.raises(ParameterError, match="^rho_pm must be finite"):
            BrightDarkState(0j, 0j, complex(np.nan), 0.0, 0.5,
                            0.5).validate()

    @pytest.mark.parametrize("state", [
        BrightDarkState(1 + 0j, 0j, 0j, 0.5, 0.5, 0.0),   # |R+1|^2 > pp*11
        BrightDarkState(0j, 0j, 0j, 1.5, -0.5, 0.0),      # rho_pp < 0
    ], ids=["optical_minor", "population"])
    def test_checks_what_the_bare_basis_checks(self, state):
        """The optical minors and population bounds hold in this basis
        too, not only the doublet minor."""
        with pytest.raises(PositivityViolation):
            state.validate()

    def test_accepts_balanced_coherent_doublet(self):
        BrightDarkState(0j, 0j, 0.5 + 0j, 0.0, 0.5, 0.5).validate()


def _random_valid_state(rng):
    """A mixture of two random pure states with seed-like optical
    coherences: scaling R31 and R21 by a factor in (0, 1] dephases level 1
    from the doublet, which keeps the state valid."""
    a, b = random_pure_state(rng), random_pure_state(rng)
    p = rng.uniform(0.0, 1.0)
    y = p * _pack(a) + (1.0 - p) * _pack(b)
    y[:2] *= 10.0 ** rng.uniform(-9.0, 0.0)
    state = DensityState(*y[:3], *y[3:].real)
    return state.validate()


class TestErrorWeights:
    def test_block_weights_do_not_depend_on_the_frame(self):
        """The stepper's three block error weights of two random valid
        states (the start and end of a step) and of their bright/dark
        images agree to within a factor 2, block by block: the rotation
        maps each block into itself, and moves its largest modulus by at
        most that factor."""
        def weights(states, rel_tol):
            return np.array(_weights(*(_moduli(_scalars(_pack(s)))
                                       for s in states), rel_tol))

        rng = np.random.default_rng(17)
        for _ in range(500):
            mu21 = rng.uniform(0.2, 1.35)
            params = make_params(rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0),
                                 mu21, np.sqrt(2.0 - mu21 ** 2))
            rel_tol = 10.0 ** rng.uniform(-13.0, -9.0)
            step = [_random_valid_state(rng), _random_valid_state(rng)]
            ratio = (weights([to_bright_dark(s, params) for s in step],
                             rel_tol) / weights(step, rel_tol))
            assert ratio.shape == (3,)
            assert np.all((0.5 <= ratio) & (ratio <= 2.0)), ratio


class TestDarkChannelSilence:
    def test_degenerate_dark_state_never_radiates(self):
        """Antisymmetric seeds cancel in the emitted field; with omega32 = 0
        nothing re-feeds the bright channel, so the film stays dark."""
        state = initial_state(0.5, 0.5, -0.5, R21_0=-1e-8, R31_0=1e-8)
        traj = integrate(state, make_params(0.0, 0.5), 10.0)
        assert np.max(np.abs(traj.emitted_amp)) == 0.0
        np.testing.assert_allclose(traj.rho11, 0.0, atol=1e-12)


class TestIntegrationPathsAgree:
    def test_same_grid_and_stop(self, preset_runs, preset_bd_runs):
        for name, direct in preset_runs.items():
            rotated = preset_bd_runs[name]
            assert direct.t.size == rotated.t.size
            assert direct.end_of_run_time == rotated.end_of_run_time

    def test_populations_match(self, preset_runs, preset_bd_runs):
        for name, direct in preset_runs.items():
            rotated = preset_bd_runs[name]
            for attr in ("rho11", "rho22", "rho33"):
                np.testing.assert_allclose(
                    getattr(rotated, attr), getattr(direct, attr),
                    atol=1e-8, err_msg=f"{name}:{attr}")

    def test_coherences_match(self, preset_runs, preset_bd_runs):
        for name, direct in preset_runs.items():
            rotated = preset_bd_runs[name]
            np.testing.assert_allclose(rotated.emitted_amp,
                                       direct.emitted_amp,
                                       atol=1e-7, err_msg=name)

"""Equations of motion and the adaptive integrator.

Fixed points, conservation laws and convergence behaviour pin the vector
field; the trajectory checks exercise sampling, early stopping and the
failure modes of the stepper.
"""

import numpy as np
import pytest

from filmsr import (DensityState, IntegratorControl, InvariantDrift,
                    NonFiniteStep, dynamics, field_of, initial_state,
                    integrate, make_params, rhs_original)
from conftest import poison_rhs, random_pure_state

RNG = np.random.default_rng(3)


def derivative_norm(d):
    return max(abs(d.R31), abs(d.R21), abs(d.rho32),
               abs(d.rho11), abs(d.rho22), abs(d.rho33))


class TestRhs:
    def test_ground_state_is_fixed_point(self):
        d = rhs_original(DensityState(0j, 0j, 0j, 1.0, 0.0, 0.0),
                         make_params(5.0, 0.3))
        assert derivative_norm(d) == 0.0

    def test_untriggered_inversion_is_fixed_point(self):
        """Full inversion with no seed coherence cannot start radiating."""
        d = rhs_original(DensityState(0j, 0j, 0j, 0.0, 0.0, 1.0),
                         make_params(5.0, 0.3))
        assert derivative_norm(d) == 0.0

    def test_ground_filling_rate_from_seed(self):
        """d(rho11)/dt = 2|mu21 R21 + mu31 R31|**2 at the incoherent init."""
        d = rhs_original(initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.0))
        assert d.rho11 == pytest.approx(2.0 * abs(2.0e-8) ** 2, rel=1e-12)

    def test_vector_field_preserves_trace(self):
        params = make_params(5.0, 0.7, 1.2, np.sqrt(2.0 - 1.2 ** 2))
        for _ in range(100):
            d = rhs_original(random_pure_state(RNG), params)
            assert abs(d.rho11 + d.rho22 + d.rho33) < 1e-12

    def test_ground_filling_never_negative(self):
        params = make_params(3.0, 0.4)
        for _ in range(100):
            assert rhs_original(random_pure_state(RNG), params).rho11 >= 0.0

    def test_matches_mean_field_commutator(self):
        """The packed field is -i[H(rho), rho] for the 3x3 density matrix,
        H = diag(0, -omega32/2, omega32/2) plus the acting field
        E = -(i + delta_L) S on both optical transitions (S the emitted
        envelope): an oracle independent of the bright/dark field."""
        om, dl, m21 = 5.0, 0.7, 1.2
        m31 = np.sqrt(2.0 - m21 ** 2)
        slots = [(2, 0), (1, 0), (2, 1), (0, 0), (1, 1), (2, 2)]
        for _ in range(500):
            v = RNG.normal(size=3) + 1j * RNG.normal(size=3)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            E = -(1j + dl) * (m21 * rho[1, 0] + m31 * rho[2, 0])
            H = np.diag([0.0, -om / 2, om / 2]).astype(complex)
            H[1, 0], H[2, 0] = m21 * E, m31 * E
            H[0, 1], H[0, 2] = np.conj(H[1, 0]), np.conj(H[2, 0])
            drho = -1j * (H @ rho - rho @ H)
            d = dynamics._rhs(np.array([rho[k] for k in slots]),
                              om, dl, m21, m31)
            expected = np.array([drho[k] for k in slots])
            assert np.max(np.abs(d - expected)) < 1e-14


class TestFieldOf:
    def test_emitted_and_acting_no_lfc(self):
        s = DensityState(1e-8 + 0j, 1e-8 + 0j, 0j, 1.0, 0.0, 0.0)
        f = field_of(s, make_params(5.0, 0.0))
        assert f == (2e-8 + 0j, 2e-8j)

    def test_dark_coherence_radiates_nothing(self):
        s = DensityState(1e-3 + 0j, -1e-3 + 0j, 0j, 1.0, 0.0, 0.0)
        emitted, acting = field_of(s, make_params(5.0, 1.0))
        assert emitted == 0.0 and acting == 0.0

    def test_acting_modulus_identity(self):
        """|acting| = sqrt(1 + delta_L**2) |emitted| for any state."""
        params = make_params(2.0, 1.0)
        for _ in range(20):
            emitted, acting = field_of(random_pure_state(RNG), params)
            np.testing.assert_allclose(abs(acting),
                                       np.sqrt(2.0) * abs(emitted),
                                       rtol=1e-14)


class TestIntegratorControl:
    def test_rejects_loose_rel_tol(self):
        with pytest.raises(ValueError):
            IntegratorControl(rel_tol=1e-5).validated()

    def test_rejects_tight_rel_tol(self):
        with pytest.raises(ValueError):
            IntegratorControl(rel_tol=1e-14).validated()

    def test_accepts_bounds(self):
        IntegratorControl(rel_tol=1e-13).validated()
        IntegratorControl(rel_tol=1e-6).validated()


class TestIntegrate:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            integrate(initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.0), 0.0)

    def test_zero_trigger_keeps_populations_frozen(self):
        """Without seed coherence only rho32 rotates; nothing radiates."""
        state = initial_state(0.4, 0.4, 0.2, R21_0=0.0, R31_0=0.0)
        traj = integrate(state, make_params(5.0, 0.5), 5.0)
        np.testing.assert_allclose(traj.rho11, 0.2, atol=1e-12)
        np.testing.assert_allclose(traj.rho22, 0.4, atol=1e-12)
        np.testing.assert_allclose(traj.rho33, 0.4, atol=1e-12)
        assert np.max(np.abs(traj.emitted_amp)) == 0.0
        np.testing.assert_allclose(np.abs(traj.rho32), 0.2, atol=1e-12)

    def test_output_grid_spacing(self, preset_runs):
        t = preset_runs["fig2"].t
        np.testing.assert_allclose(np.diff(t), 0.01, atol=1e-9)

    def test_tolerance_halving_converged(self):
        """Halving the tolerance moves populations by less than the tolerance."""
        state = initial_state(0.5, 0.5, 0.5)
        params = make_params(5.0, 0.0)
        pops = []
        for rel in (1e-8, 5e-9):
            traj = integrate(state, params, 14.0,
                             IntegratorControl(rel_tol=rel, abs_tol=1e-12))
            pops.append(np.vstack([traj.rho11, traj.rho22, traj.rho33]))
        assert np.max(np.abs(pops[0] - pops[1])) < 1e-8

    def test_invariant_monitor_triggers(self):
        """An unreachable drift bound must abort the run, not warp it."""
        with pytest.raises(InvariantDrift):
            integrate(initial_state(0.5, 0.5, 0.5), make_params(5.0, 0.0),
                      14.0, IntegratorControl(invariant_tol=1e-15))

    def test_quiet_start_is_not_mistaken_for_quiescence(self, preset_runs):
        """The incoherent pulse peaks near t = 35 after a long quiet rise;
        the end-of-run detector must not fire during that rise."""
        traj = preset_runs["fig3"]
        assert traj.t[-1] == pytest.approx(60.0)
        assert np.argmax(np.abs(traj.emitted_amp)) * 0.01 > 30.0

    def test_quiescence_stops_finished_pulse(self, preset_runs):
        traj = preset_runs["fig5"]
        assert traj.end_of_run_time is not None
        assert traj.end_of_run_time < 55.0
        # the pulse (t_D ~ 29) is long over at the stopping time
        assert traj.end_of_run_time > 30.0

    def test_step_accounting(self, preset_runs):
        traj = preset_runs["fig2"]
        assert traj.steps_accepted >= traj.t.size - 1
        assert traj.steps_rejected >= 0


class TestRejectedSteps:
    STATE = initial_state(0.5, 0.5, 0.5)
    PARAMS = make_params(5.0, 1.0)

    def test_rejection_after_accepted_step_recovers(self, monkeypatch):
        """One non-finite stage mid-run is rejected and retried from
        f(t, y); the run then matches a clean run.  A retry that reused
        the rejected trial's last stage (FSAL aliasing) would never
        recover and end in StepSizeUnderflow."""
        clean = integrate(self.STATE, self.PARAMS, 3.0)
        assert clean.steps_rejected == 0
        poison_rhs(monkeypatch, 1500, 1500)
        faulty = integrate(self.STATE, self.PARAMS, 3.0)
        assert faulty.steps_rejected == 1
        np.testing.assert_array_equal(faulty.t, clean.t)
        assert np.max(np.abs(faulty.y - clean.y)) < 1e-12

    def test_persistent_non_finite_field_is_named(self, monkeypatch):
        poison_rhs(monkeypatch, 1500)
        with pytest.raises(NonFiniteStep, match="non-finite"):
            integrate(self.STATE, self.PARAMS, 3.0)


class TestAgainstScipy:
    def test_matches_independent_integrator(self):
        """Pin the stepper against scipy's DOP853 on the coherent pulse."""
        from scipy.integrate import solve_ivp

        state = initial_state(0.5, 0.5, 0.5)
        params = make_params(5.0, 0.0)
        traj = integrate(state, params, 25.0,
                         IntegratorControl(stop_on_quiescence=False))

        def fun(t, y):
            s = DensityState(complex(y[0]), complex(y[1]), complex(y[2]),
                             y[3].real, y[4].real, y[5].real)
            d = rhs_original(s, params)
            return [d.R31, d.R21, d.rho32, d.rho11, d.rho22, d.rho33]

        y0 = np.array([state.R31, state.R21, state.rho32,
                       state.rho11, state.rho22, state.rho33], dtype=complex)
        ref = solve_ivp(fun, (0.0, 25.0), y0, method="DOP853",
                        rtol=1e-11, atol=1e-13, t_eval=[25.0])
        assert ref.success
        np.testing.assert_allclose(traj.rho11[-1], ref.y[3, -1].real,
                                   atol=1e-8)
        np.testing.assert_allclose(traj.R21[-1], ref.y[1, -1], atol=1e-7)


class TestTrajectory:
    def test_sample_is_exact_on_grid(self, preset_runs):
        traj = preset_runs["fig2"]
        s = traj.sample(traj.t[500])
        assert s.rho11 == traj.rho11[500]

    def test_sample_interpolates_linearly(self, preset_runs):
        traj = preset_runs["fig2"]
        mid = 0.5 * (traj.t[100] + traj.t[101])
        s = traj.sample(mid)
        expected = 0.5 * (traj.rho11[100] + traj.rho11[101])
        assert s.rho11 == pytest.approx(expected, rel=1e-12)

    def test_sample_outside_range_rejected(self, preset_runs):
        with pytest.raises(ValueError):
            preset_runs["fig2"].sample(-1.0)

    def test_all_presets_validate(self, preset_runs):
        for traj in preset_runs.values():
            traj.validate()

    def test_state_and_field_accessors_agree(self, preset_runs):
        traj = preset_runs["fig2"]
        emitted, acting = field_of(traj.state_at(777), traj.params)
        assert emitted == traj.emitted_amp[777]
        assert acting == traj.acting_amp[777]

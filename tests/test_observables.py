"""Trajectory analysis: invariants, pulse metrics, branching, phase.

The degenerate preset has a closed-form pulse, so its metrics are pinned
against exact numbers; the split-doublet presets check bookkeeping
identities, resampling robustness and the phase-extraction contract.
"""

import numpy as np
import pytest

from filmsr import (Branching, DensityState, IntegratorControl, NoPulse,
                    PhaseUnwrapFailure, Trajectory, analytic_chirp,
                    branching_summary, degenerate_solution, initial_state,
                    instantaneous_frequency, integrate, make_params,
                    pulse_metrics, quadratic_invariant, smoothed_envelope,
                    trace_of)
from filmsr.dynamics import _sample_count, _sample_times
from filmsr.observables import _grid_size

DEGENERATE_SOL = degenerate_solution(0.5, np.sqrt(2.0) * 1e-8, 1.0)


def synthetic_trajectory(t, s):
    """Trajectory carrying a prescribed emitted amplitude s(t) in R21."""
    n = t.size
    y = np.zeros((6, n), dtype=complex)
    y[1] = s
    y[3] = 0.5
    y[4] = 0.5
    return Trajectory(t, y, make_params(5.0, 0.0),
                      IntegratorControl(dt=t[1] - t[0]), n - 1, 0,
                      1 + 12 * (n - 1), None)


class TestInvariants:
    def test_ground_state(self):
        ground = DensityState(0j, 0j, 0j, 1.0, 0.0, 0.0)
        assert trace_of(ground) == 1.0
        assert quadratic_invariant(ground) == 1.0

    def test_coherent_doublet_is_pure(self):
        s = initial_state(0.5, 0.5, 0.5, 0.0, 0.0)
        assert trace_of(s) == 1.0
        assert quadratic_invariant(s) == pytest.approx(1.0)

    def test_incoherent_doublet_is_half_pure(self):
        s = initial_state(0.5, 0.5, 0.0, 0.0, 0.0)
        assert quadratic_invariant(s) == pytest.approx(0.5)

    def test_both_conserved_along_pulse(self, preset_runs):
        traj = preset_runs["fig2"]
        first = traj.state_at(0)
        for i in range(0, traj.t.size, 500):
            s = traj.state_at(i)
            assert trace_of(s) == pytest.approx(trace_of(first), abs=1e-10)
            assert quadratic_invariant(s) == pytest.approx(
                quadratic_invariant(first), abs=1e-8)


class TestPulseMetricsDegenerate:
    def test_delay_time(self, preset_runs):
        m = pulse_metrics(preset_runs["degenerate"])
        assert m.t_peak == pytest.approx(DEGENERATE_SOL.t_D, abs=0.05)

    def test_width_matches_sech_profile(self, preset_runs):
        """Intensity sech^2 crosses half maximum at x = ln(1 + sqrt 2)."""
        m = pulse_metrics(preset_runs["degenerate"])
        expected = 2.0 * np.log(1.0 + np.sqrt(2.0)) * DEGENERATE_SOL.tau_R_prime
        assert m.fwhm == pytest.approx(expected, rel=0.02)

    def test_peak_amplitude(self, preset_runs):
        m = pulse_metrics(preset_runs["degenerate"])
        assert m.peak_amp == pytest.approx(np.sqrt(2.0) * 0.5, rel=0.01)

    @pytest.mark.parametrize("omega32", [5e-324, 1e-306])
    def test_vanishing_splitting_is_degenerate(self, preset_configs,
                                               preset_runs, omega32):
        """A splitting whose beat period, in grid steps, overflows to inf
        leaves the envelope raw, as omega32 = 0 does: the run takes the
        degenerate preset's steps and gives its t_peak, fwhm and final
        populations."""
        cfg, ref = preset_configs["degenerate"], preset_runs["degenerate"]
        traj = integrate(cfg.initial_state(),
                         make_params(omega32, cfg.params.delta_L),
                         cfg.t_end, cfg.control)
        assert ((traj.steps_accepted, traj.steps_rejected, traj.rhs_evals)
                == (ref.steps_accepted, ref.steps_rejected, ref.rhs_evals))
        got, want = pulse_metrics(traj), pulse_metrics(ref)
        assert ((got.t_peak, got.fwhm, got.final_pops)
                == (want.t_peak, want.fwhm, want.final_pops))

    def test_no_modulation_line(self, preset_runs):
        assert pulse_metrics(preset_runs["degenerate"]).oscillation_freq is None

    def test_complete_emission(self, preset_runs):
        m = pulse_metrics(preset_runs["degenerate"])
        assert m.final_pops.rho11 == pytest.approx(1.0, abs=1e-3)
        assert m.final_pops.rho_pp == pytest.approx(0.0, abs=1e-3)
        assert m.branching.delta33 == pytest.approx(0.5, abs=1e-3)
        assert m.branching.delta22 == pytest.approx(0.5, abs=1e-3)
        assert not m.branching.blocked_31
        assert not m.branching.blocked_21


class TestSplitDoubletMetrics:
    def test_beat_modulation_line_near_splitting(self, preset_runs):
        """The coherent-init pulse envelope beats near omega32."""
        m = pulse_metrics(preset_runs["fig2"])
        assert m.oscillation_freq is not None
        assert m.oscillation_freq == pytest.approx(5.0, rel=0.1)

    def test_partial_last_interval_leaves_the_pulse_shape(self):
        """A run to 40.005 at dt 0.01 ends on a sample 0.005 after 40.0.
        The pulse shape is read on the dt grid alone, so it is that of
        the run to 40.0, whose samples agree to about 2e-12; the final
        populations are those at t = 40.005."""
        state, params = initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.5)
        ctrl = IntegratorControl(dt=0.01, stop_on_quiescence=False)
        grid = pulse_metrics(integrate(state, params, 40.0, ctrl))
        traj = integrate(state, params, 40.005, ctrl)
        partial = pulse_metrics(traj)
        assert (partial.t_peak, partial.fwhm, partial.peak_amp) == (
            grid.t_peak, grid.fwhm, grid.peak_amp)
        assert partial.oscillation_freq == pytest.approx(
            grid.oscillation_freq, rel=1e-9, abs=0.0)
        assert traj.t[-1] == 40.005
        final = traj.state_at(traj.t.size - 1)
        assert (partial.final_pops.rho11, partial.final_pops.rho22,
                partial.final_pops.rho33) == (final.rho11, final.rho22,
                                              final.rho33)

    def test_t_end_within_the_tolerance_leaves_the_metrics(self):
        """A run to 40.0 + 5e-10 at dt 0.01 ends on the grid time 40.0,
        so its metrics, final populations included, are the 40.0 run's."""
        state, params = initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.5)
        ctrl = IntegratorControl(dt=0.01, stop_on_quiescence=False)
        assert (pulse_metrics(integrate(state, params, 40.0 + 5e-10, ctrl))
                == pulse_metrics(integrate(state, params, 40.0, ctrl)))

    @pytest.mark.parametrize("t_end", [
        40.0, 40.005, 0.005, 40.0 + 5e-10, 40.0 - 5e-10,
    ], ids=["grid", "partial", "below_dt", "grid_plus_5e-10",
            "grid_minus_5e-10"])
    def test_grid_size_is_the_run_grid(self, t_end):
        """The samples the pulse shape is read from are t = 0 and the
        grid times that the dynamics rule gives a run to t_end, with
        _sample_times as its times.  Below dt the one interval is
        partial, so only t = 0 counts."""
        n_grid, _ = _sample_count(t_end, 0.01)
        assert _grid_size(_sample_times(t_end, 0.01), 0.01) == n_grid + 1

    def test_run_shorter_than_dt_has_one_grid_sample(self):
        """A run to 0.005 at dt 0.01 has the samples t = 0 and t = 0.005,
        and only t = 0 lies on the grid: the envelope has one sample and
        the pulse never developed."""
        traj = integrate(initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.5),
                         0.005, IntegratorControl(dt=0.01))
        assert traj.t.tolist() == [0.0, 0.005]
        assert smoothed_envelope(traj).size == 1
        with pytest.raises(NoPulse):
            pulse_metrics(traj)

    def test_grid_size_of_a_quiescence_stop(self, preset_configs,
                                            preset_runs):
        """fig5 stops on quiescence before t_end, on a grid time: every
        sample is on the grid, as the dynamics rule gives for the stop."""
        traj, dt = preset_runs["fig5"], preset_configs["fig5"].control.dt
        assert traj.end_of_run_time < preset_configs["fig5"].t_end
        assert _sample_count(traj.end_of_run_time, dt) == (traj.t.size - 1,
                                                           False)
        assert _grid_size(traj.t, dt) == traj.t.size

    def test_evenly_spaced_times_keep_every_sample(self):
        """Hand-built, evenly spaced times have no partial last interval,
        whatever their rounding."""
        for t in (np.linspace(0.0, 10.0, 1001), 0.002 * np.arange(5001)):
            traj = synthetic_trajectory(t, np.exp(-(t - 5.0) ** 2) + 0j)
            assert smoothed_envelope(traj).size == t.size

    def test_smoothing_removes_beat(self, preset_runs):
        traj = preset_runs["fig2"]
        env = smoothed_envelope(traj)
        i = int(np.argmax(env))
        raw = np.abs(traj.emitted_amp)[i - 50:i + 50]
        sm = env[i - 50:i + 50]
        assert np.ptp(sm) < 0.5 * np.ptp(raw)

    def test_resampling_invariance(self, preset_runs, fine_grid_fig2_run):
        coarse = pulse_metrics(preset_runs["fig2"])
        fine = pulse_metrics(fine_grid_fig2_run)
        assert fine.t_peak == pytest.approx(coarse.t_peak, rel=0.005)
        assert fine.fwhm == pytest.approx(coarse.fwhm, rel=0.005)
        assert fine.peak_amp == pytest.approx(coarse.peak_amp, rel=0.005)
        assert fine.oscillation_freq == pytest.approx(coarse.oscillation_freq,
                                                      rel=0.005)


class TestBookkeeping:
    def test_shed_population_fills_ground(self, preset_runs):
        """delta33 + delta22 equals the ground-state gain, every preset."""
        for name, traj in preset_runs.items():
            b = branching_summary(traj)
            gain = traj.rho11[-1] - traj.rho11[0]
            assert b.delta33 + b.delta22 == pytest.approx(
                gain, abs=1e-6), name

    def test_strong_lfc_blocks_one_channel(self, blocking_runs):
        b = branching_summary(blocking_runs[1.0])
        assert b.blocked_21 and not b.blocked_31
        assert b.delta33 == pytest.approx(0.5, abs=0.05)
        assert b.delta22 < 0.05

    def test_weak_lfc_blocks_neither(self, blocking_runs):
        b = branching_summary(blocking_runs[0.02])
        assert not b.blocked_21 and not b.blocked_31
        assert b.delta33 > 0.1 and b.delta22 > 0.1


class TestNoPulse:
    def test_uninverted_film_raises(self):
        traj = integrate(initial_state(0.2, 0.2, 0.0), make_params(5.0, 0.0),
                         10.0)
        with pytest.raises(NoPulse):
            pulse_metrics(traj)

    def test_branching_still_reports(self):
        traj = integrate(initial_state(0.2, 0.2, 0.0), make_params(5.0, 0.0),
                         10.0)
        b = branching_summary(traj)
        assert isinstance(b, Branching)
        assert b.delta33 == pytest.approx(0.0, abs=1e-9)
        assert b.delta22 == pytest.approx(0.0, abs=1e-9)
        assert b.blocked_31 and b.blocked_21


class TestInstantaneousFrequency:
    def test_unchirped_degenerate_pulse(self, degenerate_nolfc_run):
        _, om = instantaneous_frequency(degenerate_nolfc_run)
        assert np.max(np.abs(om)) < 1e-6

    def test_chirp_of_degenerate_pulse(self, preset_runs):
        """Frequency sweeps through the analytic tanh within 1% of its
        saturation value around the pulse peak."""
        t_om, om = instantaneous_frequency(preset_runs["degenerate"])
        sol = DEGENERATE_SOL
        window = np.abs(t_om - sol.t_D) < 3.0 * sol.tau_R_prime
        assert np.count_nonzero(window) > 100
        expected = analytic_chirp(sol.Z0, sol.delta_L, sol.t_D,
                                  sol.tau_R_prime, t_om[window])
        saturation = 4.0 * sol.Z0 * sol.delta_L
        assert np.max(np.abs(om[window] - expected)) < 0.01 * saturation

    def test_beat_stays_inside_doublet_band(self, preset_runs):
        """For the split doublet the emitted field is a superposition of
        the two channel frequencies, so the (masked) instantaneous
        frequency cannot leave [-omega32/2, omega32/2]."""
        _, om = instantaneous_frequency(preset_runs["fig2"])
        assert om.size > 0
        assert np.max(np.abs(om)) <= 2.6

    def test_quiet_pi_flip_is_masked_not_fatal(self):
        """A sign change of a real envelope flips the phase by pi at a
        null; with negligible amplitude there this is masked, not an
        unwrap failure."""
        t = np.linspace(0.0, 10.0, 1001)
        traj = synthetic_trajectory(t, (t - 5.0) + 0.0j)
        t_om, om = instantaneous_frequency(traj)
        assert not np.any(np.abs(t_om - 5.0) < 0.25)
        np.testing.assert_allclose(om, 0.0, atol=1e-12)

    def test_undersampled_phase_raises(self):
        t = 0.01 * np.arange(200)
        phase = np.pi * (1.0 - 1e-7) * np.arange(200)
        traj = synthetic_trajectory(t, 0.3 * np.exp(1j * phase))
        with pytest.raises(PhaseUnwrapFailure):
            instantaneous_frequency(traj)

    def test_silent_trajectory_raises(self):
        t = 0.01 * np.arange(100)
        traj = synthetic_trajectory(t, np.zeros(100, dtype=complex))
        with pytest.raises(NoPulse):
            instantaneous_frequency(traj)

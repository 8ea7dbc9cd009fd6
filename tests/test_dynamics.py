"""Equations of motion and the adaptive integrator.

Fixed points, conservation laws and convergence behaviour pin the vector
field; the trajectory checks exercise sampling, early stopping and the
failure modes of the stepper.
"""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from filmsr import (DensityState, IntegrationError, IntegratorControl,
                    InvariantDrift, NonFiniteStep, PositivityViolation,
                    TraceViolation, basis, dynamics, field_of, initial_state,
                    integrate, make_params, rhs_original)
from filmsr.basis import _rhs_bd, integrate_bright_dark
from filmsr.params import ParameterError
import dop853_source
from conftest import poison_rhs, random_pure_state

RNG = np.random.default_rng(3)


def _field(rhs, y, args):
    """The field ``rhs`` with constants ``args`` at the packed (6,) state
    ``y``, as a packed (6,) array."""
    return dynamics._packed(rhs(dynamics._scalars(y), *args))


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

    def test_stepper_form_round_trips(self):
        """_scalars gives nine Python floats, the parts of the coherences
        and then the populations, and _packed gives the packed state
        back bit for bit, signed zeros included, with +0 imaginary parts
        of the populations."""
        rng = np.random.default_rng(29)
        for _ in range(200):
            y = rng.normal(size=6) + 1j * rng.normal(size=6)
            y[rng.random(6) < 0.3] = 0.0
            y.real[rng.random(6) < 0.5] *= -1.0
            y.imag[rng.random(6) < 0.5] *= -1.0
            y.imag[3:] = 0.0
            v = dynamics._scalars(y)
            assert [type(x) for x in v] == [float] * 9
            assert ([x.hex() for x in v]
                    == [x.hex() for z in y[:3] for x in (z.real, z.imag)]
                    + [x.hex() for x in y[3:].real])
            assert dynamics._packed(v).tobytes() == y.tobytes()

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
            d = dynamics._packed(dynamics._rhs(
                dynamics._scalars(np.array([rho[k] for k in slots])),
                *dynamics._constants(om, dl, m21, m31)))
            expected = np.array([drho[k] for k in slots])
            assert np.max(np.abs(d - expected)) < 1e-14


class TestSpectrum:
    """A completed pulse ends with rho11 at the largest eigenvalue of
    rho(0).

    The field is -i[H(rho), rho] with H Hermitian (pinned by
    ``TestRhs.test_matches_mean_field_commutator``), so rho(t) =
    U rho(0) U^dagger and the eigenvalues of rho are constants of the
    motion.  rho11 = <1|rho|1> never exceeds the largest of them, and it
    never decreases: d(rho11)/dt = 2|S|^2.  Once emission is over, both
    optical coherences are gone (the doublet splitting turns any dark
    part of them bright, which radiates), so |1> is an eigenvector of
    rho and rho11 one of its eigenvalues.  A rest point below the
    largest is unstable: a seed coherence between |1> and the eigenvector
    of the largest radiates, as an inverted pair does.  So rho11(end) is
    the largest eigenvalue.  Points where quiescence has not fired by
    t = 80 are left out: their pulse is not complete.
    """

    # (rho22, rho33, rho32, omega32, delta_L)
    POINTS = [(0.6, 0.3, 0.2, 5.0, 0.2), (0.6, 0.3, 0.1 + 0.15j, 10.0, 0.5),
              (0.45, 0.45, 0.3j, 5.0, 1.0), (0.7, 0.2, 0.0, 5.0, 0.3),
              (0.5, 0.5, 0.15, 10.0, 0.3), (0.5, 0.5, 0.3, 5.0, 0.3),
              (0.5, 0.5, 0.0, 5.0, 1 / 7), (0.5, 0.5, 0.5, 5.0, 1.0)]

    @pytest.mark.parametrize("point", POINTS)
    def test_final_ground_population_is_the_largest_eigenvalue(self, point):
        rho22, rho33, rho32, omega32, delta_L = point
        s = initial_state(rho22, rho33, rho32)
        rho0 = np.array([[s.rho11, np.conj(s.R21), np.conj(s.R31)],
                         [s.R21, s.rho22, np.conj(s.rho32)],
                         [s.R31, s.rho32, s.rho33]])
        top = np.linalg.eigvalsh(rho0)[-1]
        traj = integrate(s, make_params(omega32, delta_L), 80.0)
        assert traj.end_of_run_time is not None
        assert abs(traj.rho11[-1] - top) <= 1e-9


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
        """Above 1e-9 the quadratic invariant of the presets drifts past
        the 1e-8 drift bound; such values are refused up front."""
        for rel_tol in (3e-9, 1e-5):
            with pytest.raises(ValueError, match=r"\[1e-13, 1e-9\]"):
                IntegratorControl(rel_tol=rel_tol)

    def test_rejects_tight_rel_tol(self):
        with pytest.raises(ValueError):
            IntegratorControl(rel_tol=1e-14)

    def test_accepts_bounds(self):
        IntegratorControl(rel_tol=1e-13)
        IntegratorControl(rel_tol=1e-9)

    @pytest.mark.parametrize("name", ["dt"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite(self, name, value):
        """A nan grid spacing would otherwise pass and then crash the
        grid set-up."""
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            IntegratorControl(**{name: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"rel_tol": 1e-3}, r"rel_tol must lie in \[1e-13, 1e-9\]"),
        ({"dt": math.nan}, r"dt must be finite and > 0"),
    ], ids=["rel_tol", "dt_nan"])
    def test_construction_rejects(self, kwargs, message):
        """A bad control cannot reach either integration path: making it
        raises, ``dataclasses.replace`` included."""
        with pytest.raises(ValueError, match=f"^{message}"):
            IntegratorControl(**kwargs)
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(IntegratorControl(), **kwargs)


class TestIntegrate:
    @pytest.mark.parametrize("t_end, ctrl, state, error, message", [
        (0.0, None, None, ValueError, r"t_end must be finite and > 0"),
        (math.nan, None, None, ValueError, r"t_end must be finite and > 0"),
        (math.inf, None, None, ValueError, r"t_end must be finite and > 0"),
        (10.0, None, DensityState(0j, 0j, 0.3 + 0j, 0.5, 0.25, 0.25),
         PositivityViolation, r"positivity \|rho32\|\^2 <= rho22\*rho33"),
        (10.0, None, DensityState(1e-8 + 0j, complex(math.nan), 0j, 1.0,
                                  0.0, 0.0), ParameterError,
         r"R21 must be finite"),
        (10.0, None, DensityState(0j, 0j, 0j, 0.6, 0.25, 0.25),
         TraceViolation, r"rho11 \+ rho22 \+ rho33 = "),
    ], ids=["t_end_0", "t_end_nan", "t_end_inf", "rho32_minor", "R21_nan",
            "trace"])
    def test_both_paths_reject_a_bad_input_alike(self, t_end, ctrl, state,
                                                 error, message):
        """The bare and the bright/dark path raise the same exception,
        with the same message in bare field names, for each bad input."""
        state = state or initial_state(0.5, 0.5, 0.0)
        raised = []
        for integrator in (integrate, integrate_bright_dark):
            with pytest.raises(error, match=f"^{message}") as info:
                integrator(state, make_params(5.0, 0.5), t_end, ctrl)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("integrator", [integrate, integrate_bright_dark])
    def test_rejects_grid_too_large_to_store(self, integrator):
        """4e13 samples of 96 bytes would not fit: ParameterError naming
        dt, t_end and the bound, raised before the grid is allocated."""
        with pytest.raises(ParameterError, match=r"^dt = 1e-12 and t_end = 40 "
                           r"ask for 4e\+13 grid samples; at most 10000000"):
            integrator(initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.0),
                       40.0, IntegratorControl(dt=1e-12))

    def test_sample_bound_is_on_t_end_over_dt(self):
        assert dynamics._sample_count(1e5, 0.01) == (dynamics._MAX_SAMPLES,
                                                     False)
        with pytest.raises(ParameterError, match="grid samples"):
            dynamics._sample_count(1e5 * (1 + 1e-9), 0.01)

    @pytest.mark.parametrize("preset", ["fig5", "degenerate"])
    def test_on_final_sees_prefixes_of_the_trajectory(self, preset,
                                                      preset_configs,
                                                      preset_runs):
        """Each call gets more samples than the last, as (n, 6) rows
        that are the first n columns of the returned trajectory bit for
        bit, whose times are the first of ``_sample_times``, and the
        trajectory is the one a run without the callback returns; fig5
        stops on quiescence, degenerate runs on past it."""
        cfg = preset_configs[preset]
        calls = []
        traj = integrate(cfg.initial_state(), cfg.params, cfg.t_end,
                         cfg.control,
                         on_final=lambda rows: calls.append(rows.copy()))
        plain = preset_runs[preset]
        assert traj.t.tobytes() == plain.t.tobytes()
        assert traj.y.tobytes() == plain.y.tobytes()
        times = dynamics._sample_times(cfg.t_end, cfg.control.dt)
        assert traj.t.tobytes() == times[:traj.t.size].tobytes()
        sizes = [len(rows) for rows in calls]
        assert sizes and sizes == sorted(set(sizes))
        assert sizes[0] > dynamics._CHECK_EVERY
        for rows in calls:
            assert rows.shape == (len(rows), 6)
            assert rows.tobytes() == traj.y[:, :len(rows)].T.tobytes()

    @pytest.mark.parametrize("preset", ["fig5", "degenerate"])
    def test_on_final_gets_views_of_the_trajectory(self, preset,
                                                   preset_configs):
        """The same with the rows kept as they were handed on: no call
        copies the prefix, so every call's rows share memory with the
        returned trajectory, and no sample a call saw changes later."""
        cfg = preset_configs[preset]
        calls = []
        traj = integrate(cfg.initial_state(), cfg.params, cfg.t_end,
                         cfg.control, on_final=calls.append)
        assert len(calls) > 1
        for rows in calls:
            assert np.shares_memory(rows, traj.y)
            assert rows.tobytes() == traj.y[:, :len(rows)].T.tobytes()

    def test_on_final_never_sees_a_drifted_sample(self, monkeypatch):
        """The coherent preparation over 14 tau_R with the drift bound
        at 1e-15 drifts at t = 5.98: the first check passes and is
        handed on, the second raises before any of its samples are."""
        monkeypatch.setattr(dynamics, "_INVARIANT_TOL", 1e-15)
        calls = []
        with pytest.raises(InvariantDrift, match="t=5.98"):
            integrate(initial_state(0.5, 0.5, 0.5), make_params(0.0, 0.5),
                      14.0, on_final=lambda rows: calls.append(len(rows)))
        times = dynamics._sample_times(14.0, IntegratorControl().dt)
        assert len(calls) == 1 and times[calls[0] - 1] < 5.98

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
        """Halving the tolerance moves populations by less than the tolerance.

        Error control alone sets the step at any grid spacing, so each
        pair takes different steps and really checks convergence."""
        state = initial_state(0.5, 0.5, 0.5)
        params = make_params(5.0, 0.0)

        def run(rel, dt):
            traj = integrate(state, params, 14.0,
                             IntegratorControl(rel_tol=rel, dt=dt))
            return (np.vstack([traj.rho11, traj.rho22, traj.rho33]),
                    traj.steps_accepted + traj.steps_rejected)

        (p0, n0), (p1, n1) = run(1e-9, 0.01), run(5e-10, 0.01)
        assert n0 != n1
        assert np.max(np.abs(p0 - p1)) < 1e-9
        (p0, n0), (p1, n1) = run(1e-10, 0.1), run(5e-11, 0.1)
        assert n0 != n1
        assert np.max(np.abs(p0 - p1)) < 1e-10

    def test_invariant_monitor_triggers(self, monkeypatch):
        """An unreachable drift bound must abort the run, not warp it; the
        message names the quantity and the first drifted sample.  The kept
        samples are checked every 512, so the run stops short of the 3133
        field evaluations it takes to its end."""
        real, calls = dynamics._rhs, [0]

        def counted(y, *args):
            calls[0] += 1
            return real(y, *args)

        monkeypatch.setattr(dynamics, "_rhs", counted)
        monkeypatch.setattr(dynamics, "_INVARIANT_TOL", 1e-15)
        with pytest.raises(InvariantDrift) as exc:
            integrate(initial_state(0.5, 0.5, 0.5), make_params(5.0, 0.0),
                      14.0)
        assert str(exc.value) == ("quadratic invariant drifted by 4.371e-12 "
                                  "at t=0.02 (limit 1e-15)")
        assert calls[0] < 3133 / 2

    def test_determinant_drift_is_named(self, monkeypatch):
        """Turning the phase of R31 by pi/2 in the samples after t = 10
        keeps their trace and quadratic invariant but moves det(rho): the
        run raises naming the determinant at the first of them."""
        real_chunk = dynamics._dense_chunk

        def chunk(steps, grid):
            at, block = real_chunk(steps, grid)
            late = grid[at] > 10.0
            turned = (block[late, 0] + 1j * block[late, 1]) * 1j
            block[late, 0], block[late, 1] = turned.real, turned.imag
            return at, block

        monkeypatch.setattr(dynamics, "_dense_chunk", chunk)
        with pytest.raises(InvariantDrift, match=r"^determinant drifted by "
                           r"\S+ at t=10.01 \(limit 1e-08\)$"):
            integrate(initial_state(0.5, 0.5, 0.5), make_params(5.0, 1.0),
                      14.0)

    @pytest.mark.parametrize("t_end, last", [
        (40.0, 40.0), (40.005, 40.005), (0.005, 0.005),
        (40.0 + 5e-10, 40.0), (40.0 - 5e-10, 40.0),
    ], ids=["grid", "partial", "below_dt", "grid_plus_5e-10",
            "grid_minus_5e-10"])
    def test_sample_times_are_the_trajectory_times(self, t_end, last):
        """_sample_times, which run_scenario sizes its helper by, gives
        the times of a run to t_end bit for bit: on the grid, after a
        partial last interval, and with t_end below dt.  A t_end within
        1e-9*t_end of the grid time 40.0 ends on it, as the run to 40.0
        does, with no interval of 5e-10 after it."""
        traj = integrate(initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.5),
                         t_end, IntegratorControl(stop_on_quiescence=False))
        assert (dynamics._sample_times(t_end, 0.01).tobytes()
                == traj.t.tobytes()
                == dynamics._sample_times(last, 0.01).tobytes())
        assert traj.t[-1] == last

    def test_t_end_within_the_tolerance_is_the_grid_run(self):
        """A run to 40.0 + 5e-10 at dt 0.01 is the run to 40.0: the same
        t and y bytes and the same counters."""
        state, params = initial_state(0.5, 0.5, 0.0), make_params(5.0, 0.5)
        ctrl = IntegratorControl(stop_on_quiescence=False)
        grid, near = (integrate(state, params, t_end, ctrl)
                      for t_end in (40.0, 40.0 + 5e-10))
        assert ((near.t.tobytes(), near.y.tobytes(), near.steps_accepted,
                 near.steps_rejected, near.rhs_evals, near.end_of_run_time)
                == (grid.t.tobytes(), grid.y.tobytes(), grid.steps_accepted,
                    grid.steps_rejected, grid.rhs_evals,
                    grid.end_of_run_time))

    def test_quadratic_invariant_is_plain_arithmetic(self):
        """The quadratic invariant of random (6, N) and (6,) arrays equals
        the same sum in Python float arithmetic on each state bit for
        bit, with each modulus squared as re*re + im*im: numpy's complex
        abs rounds differently per SIMD level."""
        rng = np.random.default_rng(23)
        for n in (1, 7, 300):
            y = ((rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n)))
                 * 10.0 ** rng.uniform(-9.0, 0.0, size=(6, 1)))
            y.imag[3:] = 0.0
            want = []
            for z0, z1, z2, x3, x4, x5 in y.T.tolist():
                r11, r22, r33 = x3.real, x4.real, x5.real
                want.append(r11 * r11 + r22 * r22 + r33 * r33
                            + 2.0 * ((z2.real * z2.real + z2.imag * z2.imag)
                                     + (z0.real * z0.real + z0.imag * z0.imag)
                                     + (z1.real * z1.real
                                        + z1.imag * z1.imag)))
            got = dynamics._quadratic(y).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert (float(dynamics._quadratic(y[:, -1])).hex()
                    == want[-1].hex())

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

    @pytest.mark.parametrize("integrator, constants, rhs, module, rate", [
        (integrate, dynamics._constants, dynamics._rhs, dynamics, "_rate"),
        (integrate_bright_dark, basis._constants_bd, _rhs_bd, basis,
         "_rate_bd"),
    ], ids=["bare", "bright_dark"])
    def test_quiescence_rate_is_slot_3_of_the_field(self, monkeypatch,
                                                    preset_configs,
                                                    integrator, constants,
                                                    rhs, module, rate):
        """The d(rho11)/dt the quiescence detector reads at each sample of
        fig5, at its dt 0.01 and at dt 0.002, and the rate function on 200
        random states with seed-scale coherences, equal the rho11 part of
        the vector field bit for bit.  The detector reads one block of samples
        per flush of the queued samples; the blocks cover every sample up
        to the stop, and the last one holds the stop."""
        real_rate = getattr(module, rate)
        same, sizes = [], []

        def checked(y, *args):
            r = real_rate(y, *args)
            sizes.append(len(y))
            for row, value in zip(y, r):
                same.append(value.hex()
                            == _field(rhs, row, args).real[3].hex())
            return r

        monkeypatch.setattr(module, rate, checked)
        cfg = preset_configs["fig5"]
        for dt, block in ((cfg.control.dt, 7), (0.002, 36)):
            same.clear()
            sizes.clear()
            traj = integrator(cfg.initial_state(), cfg.params, cfg.t_end,
                              replace(cfg.control, dt=dt))
            assert traj.end_of_run_time is not None
            assert len(same) == sum(sizes)
            assert sum(sizes[:-1]) < traj.t.size - 1 <= sum(sizes)
            assert all(same)
            assert sum(sizes) >= block * len(sizes)   # mean block size

        rng = np.random.default_rng(5)
        for _ in range(200):
            s = random_pure_state(rng)
            seed = 10.0 ** rng.uniform(-9.0, 0.0)   # seed-like coherences
            y = np.array([s.R31 * seed, s.R21 * seed, s.rho32,
                          s.rho11, s.rho22, s.rho33], dtype=complex)
            mu21 = rng.uniform(0.2, 1.35)
            args = constants(rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0),
                             mu21, math.sqrt(2.0 - mu21 ** 2))
            assert (real_rate(y[None], *args)[0].hex()
                    == _field(rhs, y, args).real[3].hex())


def _monitor_reference(ctrl, y0, times, ys, rhs, args):
    """The monitor one sample at a time, in Python arithmetic: trace, then
    the quadratic invariant, then the quiescence detector fed the rho11
    part of the field.  Returns (outcome, time): outcome is "stop", "trace" or
    "quadratic invariant", or None when every sample passes."""

    def invariants(y):
        r11, r22, r33 = y[3].real, y[4].real, y[5].real
        quad = (r11 ** 2 + r22 ** 2 + r33 ** 2
                + 2.0 * (abs(y[2]) ** 2 + abs(y[0]) ** 2 + abs(y[1]) ** 2))
        return r11 + r22 + r33, quad

    tol = dynamics._INVARIANT_TOL
    trace0, quad0 = invariants(y0.tolist())
    armed, last_loud = False, 0.0
    for t, y in zip(times, ys):
        trace, quad = invariants(y.tolist())
        if abs(trace - trace0) > tol:
            return "trace", t
        if abs(quad - quad0) > tol:
            return "quadratic invariant", t
        if not ctrl.stop_on_quiescence:
            continue
        if _field(rhs, y, args).real[3] >= 1e-8:
            armed, last_loud = True, t
        elif armed and t - last_loud >= 10.0:
            return "stop", t
    return None, None


def _monitor_in_blocks(monitors, y0, pairs, times, ys, cuts):
    """Feed ``monitors`` the samples in blocks [cuts[k], cuts[k + 1]) until
    it stops the run, then check the invariants of the samples up to the
    stop against ``y0`` in one call (_drive checks the same
    samples 512 at a time).  Returns (outcome, time) in the form of
    :func:`_monitor_reference`, and the index of the stop sample (None
    when the detector never stopped the run)."""
    index = None
    for a, b in zip(cuts[:-1], cuts[1:]):
        stop = monitors(times[a:b], ys[a:b])
        if stop is not None:
            index = a + stop
            break
    assert monitors.end_time == (None if index is None else times[index])
    n = len(times) if index is None else index + 1
    try:
        dynamics._check_invariants(times[:n], ys[:n].T, y0, pairs)
    except InvariantDrift as exc:
        kind, t = re.match(r"(trace|quadratic invariant) drifted by "
                           r"\S+ at t=(\S+) ", str(exc)).groups()
        return (kind, t), index
    if index is None:
        return (None, None), None
    return ("stop", monitors.end_time), index


class TestMonitorBlocks:
    @pytest.mark.parametrize("constants, rhs, rate, pairs, frame", [
        (dynamics._constants, dynamics._rhs, dynamics._rate, (5, 4), None),
        (basis._constants_bd, _rhs_bd, basis._rate_bd, (4, 5),
         basis._bare_to_bd),
    ], ids=["bare", "bright_dark"])
    def test_blocks_match_per_sample_reference(self, preset_configs,
                                               preset_runs, constants, rhs,
                                               rate, pairs, frame):
        """Fed fig5's samples in blocks cut at random points and then
        checked once up to the stop, the monitor stops at the same
        sample, or raises the same drift at the same sample time, as a
        per-sample reference.  Drift is injected in trace or in the
        quadratic invariant alone, one sample before, at and after the
        quiescence stop: at or before it the run must raise, after it the
        run must stop.  The injected drift leaves d(rho11)/dt as it is,
        so the detector stops at the clean run's stop sample either way;
        only the check decides whether the run fails there."""
        cfg = preset_configs["fig5"]
        run = integrate(cfg.initial_state(), cfg.params, cfg.t_end,
                        replace(cfg.control, stop_on_quiescence=False))
        y = run.y if frame is None else frame(run.y, cfg.params)
        y0, clean, times = y[:, 0], y[:, 1:].T, run.t[1:].tolist()
        p = cfg.params
        args = constants(p.omega32, p.delta_L, p.mu21, p.mu31)
        rng = np.random.default_rng(17)
        tol = dynamics._INVARIANT_TOL
        outcome, t_stop = _monitor_reference(cfg.control, y0, times, clean,
                                             rhs, args)
        assert outcome == "stop"
        assert t_stop == preset_runs["fig5"].end_of_run_time
        stop = times.index(t_stop)
        cases = [(None, None)] + [(kind, stop + offset)
                                  for kind in ("trace", "quadratic")
                                  for offset in (-1, 0, 1)]
        for ctrl in (cfg.control,
                     replace(cfg.control, stop_on_quiescence=False)):
            for kind, at in cases:
                ys = clean.copy()
                if kind == "trace":
                    ys[at, 4] += 10.0 * tol
                elif kind == "quadratic":   # trace kept to rounding
                    ys[at, 4] += 1e-3
                    ys[at, 5] -= 1e-3
                want, t = _monitor_reference(ctrl, y0, times, ys, rhs, args)
                if want != "stop" and want is not None:
                    t = f"{t:.4g}"
                for _ in range(4):
                    sizes = rng.integers(1, 80, size=len(times))
                    cuts = np.cumsum(np.append(0, sizes))
                    cuts = np.append(cuts[cuts < len(times)],
                                     len(times)).tolist()
                    monitors = dynamics._Monitors(
                        ctrl, lambda b: rate(b, *args))
                    got, index = _monitor_in_blocks(monitors, y0, pairs,
                                                    times, ys, cuts)
                    assert got == (want, t), (kind, at, ctrl)
                    assert index == (stop if ctrl.stop_on_quiescence
                                     else None)


class TestRejectedSteps:
    STATE = initial_state(0.5, 0.5, 0.5)
    PARAMS = make_params(5.0, 1.0)

    def test_rejection_after_accepted_step_recovers(self, monkeypatch):
        """One non-finite stage mid-run is rejected and retried from
        f(t, y); the run then matches a clean run.  A retry that reused
        the rejected trial's last stage (FSAL aliasing) would never
        recover and end in StepSizeUnderflow.  Call 13 is the field at
        the first trial's new state, the next step's first stage: a NaN
        there rejects that trial too, although its step holds no sample
        whose check would see it."""
        clean = integrate(self.STATE, self.PARAMS, 3.0)
        assert clean.steps_rejected == 0
        for call in (13, 500):
            with monkeypatch.context() as m:
                poison_rhs(m, call, call)
                faulty = integrate(self.STATE, self.PARAMS, 3.0)
            assert faulty.steps_rejected == 1, call
            np.testing.assert_array_equal(faulty.t, clean.t)
            assert np.max(np.abs(faulty.y - clean.y)) < 1e-12, call

    def test_persistent_non_finite_field_is_named(self, monkeypatch):
        poison_rhs(monkeypatch, 500)
        with pytest.raises(NonFiniteStep, match="non-finite"):
            integrate(self.STATE, self.PARAMS, 3.0)

    def test_overflowing_samples_name_their_step(self, monkeypatch):
        """Finite stages can still overflow in the continuous extension:
        then NonFiniteStep names the step whose samples overflowed, and no
        sample is returned.  On this grid the first step, from t = 0 with
        the initial step 1e-3, holds samples, and call 16 is its last
        extra stage, which no other stage reads.  Its d(rho11)/dt of 3e306
        makes rho11 -inf, not nan, in those samples, so the invariant check
        before the error escapes would report drift if it saw them."""
        real = dynamics._rhs
        calls = [0]

        def huge(y, *args):
            calls[0] += 1
            d = real(y, *args)
            return [0.0] * 6 + [3e306, 0.0, 0.0] if calls[0] == 16 else d

        monkeypatch.setattr(dynamics, "_rhs", huge)
        ctrl = IntegratorControl(dt=3e-4)
        with pytest.raises(NonFiniteStep, match=r"step from t=0 \(step "
                                                r"1\.000e-03\) overflowed"):
            integrate(self.STATE, self.PARAMS, 0.05, ctrl)

    def test_no_single_non_finite_field_value_reaches_a_sample(
            self, monkeypatch):
        """A NaN from any single evaluation of the field, whether a trial
        stage or an extra stage of the continuous extension, is rejected:
        the run recovers to the clean trajectory bit for bit, or, for a NaN
        in the first stage, raises NonFiniteStep, and never returns a
        non-finite sample.
        The fine grid puts samples inside the first steps, so the calls
        of the first two accepted steps cover both kinds."""
        ctrl = IntegratorControl(dt=3e-4)
        clean = integrate(self.STATE, self.PARAMS, 0.05, ctrl)
        sizes = []
        real_chunk = dynamics._dense_chunk

        def chunk(steps, grid):
            sizes.extend(count for *_, count in steps)
            return real_chunk(steps, grid)

        monkeypatch.setattr(dynamics, "_dense_chunk", chunk)
        integrate(self.STATE, self.PARAMS, 0.05, ctrl)
        monkeypatch.undo()
        # the first step, 1e-3 long, holds three samples; so does the second
        assert sizes[0] == 3 and sizes[1] > 0
        first_two = 1 + 2 * (12 + 3)
        raised = []
        for call in range(1, first_two + 1):
            with monkeypatch.context() as m:
                poison_rhs(m, call, call)
                try:
                    traj = integrate(self.STATE, self.PARAMS, 0.05, ctrl)
                except NonFiniteStep:
                    raised.append(call)
                    continue
            assert np.isfinite(traj.y).all(), call
            np.testing.assert_array_equal(traj.t, clean.t)
            np.testing.assert_array_equal(traj.y, clean.y)
            assert traj.steps_rejected == 1, call
        # only f(y0), the first stage of every retry from t = 0, cannot
        # recover: the extra stages are checked when their step is tried
        assert raised == [1]


class TestStepBudget:
    """``dynamics._MAX_STEPS`` bounds the trial steps, accepted plus
    rejected.  A trial costs twelve field evaluations (eleven stages and
    the field at the new state); an accepted step with samples before its
    end adds the three extra stages of its continuous extension."""

    STATE = initial_state(0.5, 0.5, 0.5)
    PARAMS = make_params(5.0, 1.0)
    T_END = 0.5

    def count_rhs(self, monkeypatch, poison_call=None):
        """Count ``dynamics._rhs`` calls; the call numbered ``poison_call``
        returns a NaN, which rejects that trial.  Reset ``calls[0] = 0``
        between runs."""
        real = dynamics._rhs
        calls = [0]

        def counted(y, *args):
            calls[0] += 1
            d = real(y, *args)
            if calls[0] == poison_call:
                d[0] = np.nan
            return d

        monkeypatch.setattr(dynamics, "_rhs", counted)
        return calls

    def run(self, monkeypatch, max_steps, dt=T_END):
        """A run with a budget of ``max_steps`` trial steps.  At the
        default dt = T_END the only sample ends the last step, so no step
        reads its continuous extension."""
        monkeypatch.setattr(dynamics, "_MAX_STEPS", max_steps)
        return integrate(self.STATE, self.PARAMS, self.T_END,
                         IntegratorControl(dt=dt))

    def test_budget_stops_after_exactly_max_steps_trials(self, monkeypatch):
        calls = self.count_rhs(monkeypatch)
        with pytest.raises(IntegrationError,
                           match=r"budget of 5 trial steps exhausted at t=0\.\d"):
            self.run(monkeypatch, 5)
        assert calls[0] == 1 + 12 * 5

    @pytest.mark.parametrize("rejected", [0, 1])
    def test_run_needing_exactly_the_budget_completes(self, monkeypatch,
                                                      rejected):
        calls = self.count_rhs(monkeypatch, 20 if rejected else None)
        full = self.run(monkeypatch, 1000)
        assert full.steps_rejected == rejected
        n = full.steps_accepted + full.steps_rejected
        assert n > 5
        assert calls[0] == full.rhs_evals == 1 + 12 * n
        calls[0] = 0
        exact = self.run(monkeypatch, n)
        assert calls[0] == exact.rhs_evals == 1 + 12 * n
        np.testing.assert_array_equal(exact.y, full.y)
        calls[0] = 0
        with pytest.raises(IntegrationError, match=f"budget of {n - 1} "):
            self.run(monkeypatch, n - 1)
        assert calls[0] == 1 + 12 * (n - 1)

    def test_samples_inside_steps_cost_their_stages(self, monkeypatch):
        """On a grid finer than the steps every evaluation is accounted
        for: twelve per trial and three per step that reads its
        continuous extension; none is made at a sample."""
        calls = self.count_rhs(monkeypatch)
        sizes = []
        real_chunk = dynamics._dense_chunk

        def chunk(steps, grid):
            sizes.extend(count for *_, count in steps)
            return real_chunk(steps, grid)

        monkeypatch.setattr(dynamics, "_dense_chunk", chunk)
        traj = self.run(monkeypatch, 1000, dt=1e-3)
        n = traj.steps_accepted + traj.steps_rejected
        assert traj.t.size == 501 and len(sizes) > 1
        assert 0 < sum(sizes) < traj.t.size - 1
        assert calls[0] == traj.rhs_evals == 1 + 12 * n + 3 * len(sizes)


class TestDriftBeforeFailure:
    """The invariants are checked once, over the stored samples, when the
    run ends, and also before a failure of the stepper escapes: a sample
    that drifted before the failure still fails the run as drift."""

    STATE = initial_state(0.5, 0.5, 0.5)
    PARAMS = make_params(5.0, 1.0)
    DRIFT = "trace drifted by 1.932e-06 at t=0.26 (limit 1e-08)"

    @staticmethod
    def lose_trace(monkeypatch, from_call):
        """From call ``from_call`` on, ``dynamics._rhs`` adds 1e-3 to
        d(rho22)/dt, its float 7, so the trace of the solution grows."""
        real = dynamics._rhs
        calls = [0]

        def drifting(y, *args):
            calls[0] += 1
            d = real(y, *args)
            if calls[0] >= from_call:
                d[7] += 1e-3
            return d

        monkeypatch.setattr(dynamics, "_rhs", drifting)

    def test_drift_before_non_finite_field_is_drift(self, monkeypatch):
        poison_rhs(monkeypatch, 300)
        with pytest.raises(NonFiniteStep, match="from t=1.18668 "):
            integrate(self.STATE, self.PARAMS, 3.0)
        monkeypatch.undo()
        self.lose_trace(monkeypatch, 100)
        poison_rhs(monkeypatch, 300)
        with pytest.raises(InvariantDrift) as exc:
            integrate(self.STATE, self.PARAMS, 3.0)
        assert str(exc.value) == self.DRIFT
        assert type(exc.value.__context__) is NonFiniteStep

    def test_drift_before_spent_budget_is_drift(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 20)
        with pytest.raises(IntegrationError,
                           match="budget of 20 trial steps exhausted at "
                                 "t=1.18668$"):
            integrate(self.STATE, self.PARAMS, 3.0)
        self.lose_trace(monkeypatch, 100)
        with pytest.raises(InvariantDrift) as exc:
            integrate(self.STATE, self.PARAMS, 3.0)
        assert str(exc.value) == self.DRIFT
        assert type(exc.value.__context__) is IntegrationError


class TestChunking:
    @pytest.mark.parametrize("integrator", [integrate, integrate_bright_dark],
                             ids=["bare", "bright_dark"])
    def test_flushing_every_step_changes_nothing(self, monkeypatch,
                                                 preset_configs, integrator):
        """fig5 with quiescence on and off: whether the queued samples wait
        for the stepper's flushes or are flushed after every step (a check
        cadence of one sample), the sample times and bytes, the counts and
        the quiescence stop are the same.  With quiescence on, a flush that
        came after the stop sample would show as extra steps."""
        cfg = preset_configs["fig5"]
        for stop in (True, False):
            ctrl = replace(cfg.control, stop_on_quiescence=stop)
            runs = []
            for every in (dynamics._CHECK_EVERY, 1):
                monkeypatch.setattr(dynamics, "_CHECK_EVERY", every)
                traj = integrator(cfg.initial_state(), cfg.params, cfg.t_end,
                                  ctrl)
                runs.append((traj.t.tobytes(), traj.y.tobytes(),
                             traj.steps_accepted, traj.steps_rejected,
                             traj.rhs_evals, traj.end_of_run_time))
            assert runs[0] == runs[1]
            assert (runs[0][5] is None) != stop


class TestPresetCounts:
    """The step counts, field evaluations and quiescence stop of every
    preset on both paths, as documented: any change to the arithmetic of
    the stepper that moves a step shows here."""

    COUNTS = {   # accepted, rejected, rhs_evals, end_of_run_time
        "bare": {"fig2": (489, 0, 7333, 37.410000000000004),
                 "fig3": (641, 16, 9805, None),
                 "fig4": (342, 8, 5224, None),
                 "fig5": (521, 2, 7837, 42.49),
                 "degenerate": (163, 2, 2467, None)},
        "bright_dark": {"fig2": (476, 3, 7174, 37.410000000000004),
                        "fig3": (623, 17, 9547, None),
                        "fig4": (343, 2, 5167, None),
                        "fig5": (528, 2, 7942, 42.49),
                        "degenerate": (156, 1, 2350, None)},
    }

    @pytest.mark.parametrize("path", ["bare", "bright_dark"])
    def test_counts_are_pinned(self, path, preset_runs, preset_bd_runs):
        runs = preset_runs if path == "bare" else preset_bd_runs
        got = {name: (traj.steps_accepted, traj.steps_rejected,
                      traj.rhs_evals, traj.end_of_run_time)
               for name, traj in runs.items()}
        assert got == self.COUNTS[path]


_HOST_CHILD = """
import hashlib, json
from filmsr import integrate, integrate_bright_dark
from filmsr.config import load_preset
out = {}
for name in ("fig4", "fig5", "degenerate"):
    cfg = load_preset(name)
    for run in (integrate, integrate_bright_dark):
        traj = run(cfg.initial_state(), cfg.params, cfg.t_end, cfg.control)
        out[name + " " + run.__name__] = [
            traj.steps_accepted, traj.steps_rejected, traj.rhs_evals,
            traj.end_of_run_time, hashlib.sha256(traj.y.tobytes()).hexdigest()]
print(json.dumps(out))
"""
_HOST_SETTINGS = {
    "blas_kernel": ("OPENBLAS_CORETYPE", "Prescott"),
    "blas_kernel_nehalem": ("OPENBLAS_CORETYPE", "Nehalem"),
    "libm_variant": ("GLIBC_TUNABLES",
                     "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F"),
    "numpy_simd": ("NPY_DISABLE_CPU_FEATURES",
                   "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"),
}


def _runs_in_child(setting=None):
    """Steps accepted and rejected, field evaluations, quiescence stop and
    the SHA-256 of every sample of fig4, fig5 and degenerate on both
    paths, from a child process whose environment has ``setting`` (a name
    and value) and none of the other host settings."""
    names = {name for name, _ in _HOST_SETTINGS.values()}
    env = {k: v for k, v in os.environ.items() if k not in names}
    if setting is not None:
        env[setting[0]] = setting[1]
    src = str(pathlib.Path(dynamics.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _HOST_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestHostIndependence:
    """The trajectory does not depend on the host: the BLAS kernel,
    numpy's SIMD level and glibc's libm variant leave the step counts, the
    field evaluations, the quiescence stop and the bytes of every sample
    as they are, on both paths (the bright/dark one rotated back to the
    bare basis).  Each setting applies to a child process only."""

    @pytest.fixture(scope="class")
    def default(self):
        return _runs_in_child()

    @pytest.mark.parametrize("setting", list(_HOST_SETTINGS))
    def test_step_sequence_is_host_independent(self, default, setting):
        assert _runs_in_child(_HOST_SETTINGS[setting]) == default


def _scipy_table():
    """scipy's DOP853 coefficients, an independent copy of the table."""
    from scipy.integrate._ivp import dop853_coefficients
    return dop853_coefficients


def _dense_rows():
    """The seven rows of the dense-output table over all 16 stages, from
    scipy's B and D: the weights of y_new, e_1 minus them, twice them
    minus e_1 and e_13, then D."""
    ref = _scipy_table()
    b = ref.B.tolist() + [0.0] * 4
    return ([b, [(j == 0) - w for j, w in enumerate(b)],
             [2.0 * w - (j == 0) - (j == 12) for j, w in enumerate(b)]]
            + ref.D.tolist())


class TestDop853Table:
    def test_transcription_matches_scipy(self):
        """Every coefficient the stepper uses is scipy's bit for bit.  The
        straight-line stage sums, new state and error estimates,
        src/filmsr/_dop853.py, are the text tests/dop853_source.py writes
        from scipy's table, with shortest round-trip literals; the rows it
        reads have no weight on or above the diagonal, the new state is
        the FSAL row, and the error estimators' 13th weight, which the
        stepper drops, is zero.  The dense-output weights equal scipy's,
        and the dense table keeps exactly the stages some row weighs."""
        ref = _scipy_table()
        assert (dop853_source.MODULE.read_text(encoding="utf-8")
                == dop853_source.source())
        for i in range(1, ref.N_STAGES_EXTENDED):
            assert not np.any(ref.A[i, i:]), i
        assert np.array_equal(ref.A[12, :12], ref.B)
        assert ref.E5[12] == ref.E3[12] == 0.0
        assert np.array_equal(dynamics._B, np.append(ref.B, np.zeros(4)))
        assert np.array_equal(dynamics._D, ref.D)
        rows = np.array(_dense_rows())
        weighed = sorted(set().union(*map(np.flatnonzero, rows)))
        assert dynamics._WEIGHED.tolist() == weighed == [0, *range(5, 16)]
        assert dynamics._DENSE.shape == (7, 12)
        assert dynamics._DENSE.tobytes() == rows[:, weighed].tobytes()

    def test_continuous_extension_matches_scipy_interpolant(self):
        """Samples inside a step agree with scipy's DOP853 interpolant
        built from the same stages, to rounding of the state."""
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        ref = _scipy_table()
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_pure_state(rng)
            y = dynamics._scalars(np.array(
                [s.R31 * 1e-3, s.R21 * 1e-3, s.rho32,
                 s.rho11, s.rho22, s.rho33], dtype=complex))
            args = dynamics._constants(rng.uniform(0.0, 10.0),
                                       rng.uniform(0.0, 2.0), 1.0, 1.0)
            h = 10.0 ** rng.uniform(-3.0, -0.5)
            k1 = dynamics._rhs(y, *args)
            y_new, K, _, _ = dynamics._dop853_step(
                dynamics._rhs, args, y, k1, dynamics._moduli(y), h,
                IntegratorControl())
            theta = np.sort(rng.uniform(0.0, 1.0, 7))
            dynamics._extra_stages(dynamics._rhs, args, y, K, h)
            at, got = dynamics._dense_chunk([(0.0, h, y, K, 0, 7)],
                                            theta * h)
            assert len(K) == 16 and at.tolist() == list(range(7))
            y, y_new, K = (np.array(v) for v in (y, y_new, K))
            dy = y_new - y
            F = np.empty((7, y.size))
            F[0] = dy
            F[1] = h * K[0] - dy
            F[2] = 2.0 * dy - h * (K[12] + K[0])
            F[3:] = h * (ref.D @ K)
            want = Dop853DenseOutput(0.0, h, y, F)(theta * h).T
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(y))


def _rhs_reference(y, omega32, delta_L, mu21, mu31):
    R31, R21, r32 = complex(y[0]), complex(y[1]), complex(y[2])
    r11, r22, r33 = float(y[3]), float(y[4]), float(y[5])
    g = complex(1.0, -delta_L)
    S = mu21 * R21 + mu31 * R31
    Sc = S.conjugate()
    dR31 = -0.5j * omega32 * R31 + g * (mu31 * (r33 - r11) + mu21 * r32) * S
    dR21 = (0.5j * omega32 * R21
            + g * (mu21 * (r22 - r11) + mu31 * r32.conjugate()) * S)
    dr32 = (-1j * omega32 * r32
            - (g.conjugate() * mu21 * R31 * Sc
               + g * mu31 * R21.conjugate() * S))
    dr33 = 2.0 * mu31 * ((-1.0 + 1j * delta_L) * S * R31.conjugate()).real
    dr22 = 2.0 * mu21 * ((-1.0 + 1j * delta_L) * S * R21.conjugate()).real
    dr11 = 2.0 * (S * Sc).real
    return [dR31, dR21, dr32, dr11, dr22, dr33]


def _rhs_bd_reference(y, omega32, delta_L, mu21, mu31):
    Rp, Rm, rpm = complex(y[0]), complex(y[1]), complex(y[2])
    r11, rpp, rmm = float(y[3]), float(y[4]), float(y[5])
    b2 = mu21 ** 2 - mu31 ** 2
    a = mu21 * mu31
    g = complex(1.0, -delta_L)
    dRp = (-0.25j * omega32 * (-b2 * Rp + 2.0 * a * Rm)
           + 2.0 * g * (rpp - r11) * Rp)
    dRm = (-0.25j * omega32 * (b2 * Rm + 2.0 * a * Rp)
           + 2.0 * g * Rp * rpm.conjugate())
    drpm = (0.5j * omega32 * (b2 * rpm + a * (rpp - rmm))
            + 2.0 * (-1.0 + 1j * delta_L) * Rp * Rm.conjugate())
    pump = 4.0 * (Rp * Rp.conjugate()).real
    mix = omega32 * a * rpm.imag
    return [dRp, dRm, drpm, pump, -mix - pump, mix]


def _reference_trial(rhs, args, y, h, ctrl):
    """One DOP853 trial step and its three extra stages in plain Python
    over scipy's table: each sum runs over the nonzero weights of its row
    in ascending stage order, left to right, slot by slot.  Moduli are
    sqrt(re^2 + im^2) on the complex slots 0 to 2 and abs on the float
    slots 3 to 5.  Each slot's error is weighed by its block: the
    optical coherences (slots 0, 1), the doublet (slots 2, 4, 5) and
    rho11 (slot 3) each take _ABS_TOL + rel_tol * the largest of
    max(|y|, |y_new|) over the block.  Returns the 16 stages (f(y_new)
    the 13th), y_new, |y_new| and the error norm, 0 when both error
    estimates vanish."""
    ref = _scipy_table()

    def combination(row, K):
        out = []
        for s in range(6):
            total = None
            for j in np.flatnonzero(row).tolist():
                term = float(row[j]) * K[j][s]
                total = term if total is None else total + term
            out.append(total)
        return out

    def advance(row, K):
        return [v + h * c for v, c in zip(y, combination(row, K))]

    def moduli(v):
        return [math.sqrt(z.real * z.real + z.imag * z.imag) for z in v[:3]
                ] + [abs(x) for x in v[3:]]

    def squares(e):
        total = 0.0
        for z in e:
            total = total + (z.real * z.real + z.imag * z.imag
                             if isinstance(z, complex) else z * z)
        return total

    K = [rhs(y, *args)]
    for i in range(1, 12):
        K.append(rhs(advance(ref.A[i, :i], K), *args))
    y_new = advance(ref.B, K)
    K.append(rhs(y_new, *args))
    for i in range(13, 16):
        K.append(rhs(advance(ref.A[i, :i], K), *args))
    abs_new = moduli(y_new)
    m = [max(a, b) for a, b in zip(moduli(y), abs_new)]
    optical = dynamics._ABS_TOL + ctrl.rel_tol * max(m[0], m[1])
    doublet = dynamics._ABS_TOL + ctrl.rel_tol * max(m[2], m[4], m[5])
    scale = [optical, optical, doublet,
             dynamics._ABS_TOL + ctrl.rel_tol * m[3], doublet, doublet]
    e5 = squares([e / w for e, w in zip(combination(ref.E5[:12], K), scale)])
    e3 = squares([e / w for e, w in zip(combination(ref.E3[:12], K), scale)])
    if e5 == e3 == 0.0:     # a state at rest: no error to normalise
        return K, y_new, abs_new, 0.0
    err = h * e5 / math.sqrt((e5 + 0.01 * e3) * 6)
    return K, y_new, abs_new, err


def _bits(v):
    """Type and bits of each number of a sequence of Python numbers."""
    return [(type(x).__name__, x.real.hex(), x.imag.hex()) for x in v]


def _six(values):
    """Six amplitudes in the references' form: the coherences as Python
    complex numbers, then the populations as Python floats."""
    y = np.array(values, dtype=complex)
    return y[:3].tolist() + y[3:].real.tolist()


def _split(v):
    """The stepper's nine floats of six numbers in the references' form
    (see :func:`_rhs_reference`): the real and imaginary parts of the
    three complex coherences, then the three float populations."""
    return [part for z in v[:3] for part in (z.real, z.imag)] + list(v[3:])


def _assert_bits(got, want, zero_sign=False):
    """Every number of ``got`` is a float with the bits of the same float
    of ``want``; with ``zero_sign``, a zero may instead be a zero of the
    other sign."""
    assert [type(x) for x in got] == [float] * len(want)
    for g, w in zip(got, want):
        assert g.hex() == w.hex() or zero_sign and g == w == 0.0, (g, w)


class TestTrialStepBitIdentity:
    @pytest.mark.parametrize("constants, rhs, reference", [
        (dynamics._constants, dynamics._rhs, _rhs_reference),
        (basis._constants_bd, _rhs_bd, _rhs_bd_reference),
    ], ids=["bare", "bright_dark"])
    def test_matches_reference_arithmetic(self, constants, rhs, reference):
        """On random states, parameters and step sizes, the fields, one
        trial step and its three extra stages equal the complex reference
        bit for bit, on nine floats throughout (the reference's parts):
        every stage, the new state, its moduli and the error norm.  The
        field takes its per-run constants, the reference the physical
        parameters.  After 200 random draws come 80 at the presets' edge
        values, where the constants carry signed zeros: omega32 = 0
        (degenerate), delta_L = 0 (fig2, fig3), mu21 = mu31 = 1, and all
        three at once; the last 40 of them without optical coherences, so
        that exact zeros reach the stages (at omega32 = 0 the state is at
        rest and the error norm is 0).  On these 80 a zero part of a stage
        or of the new state may have the other sign: complex arithmetic
        also forms the products of a real factor's zero imaginary part,
        which add a zero of either sign."""
        edges = [{0: 0.0}, {1: 0.0}, {2: 1.0, 3: 1.0},
                 {0: 0.0, 1: 0.0, 2: 1.0, 3: 1.0}]
        rng = np.random.default_rng(5)
        for i in range(280):
            s = random_pure_state(rng)
            seed = 10.0 ** rng.uniform(-9.0, 0.0)   # seed-like coherences
            mu21 = rng.uniform(0.2, 1.35)
            args = [rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0),
                    mu21, math.sqrt(2.0 - mu21 ** 2)]
            if i >= 200:
                for slot, value in edges[i % len(edges)].items():
                    args[slot] = value
                if i >= 240:    # zero optical coherences: exact zeros
                    seed = 0.0
            y6 = _six([s.R31 * seed, s.R21 * seed, s.rho32,
                       s.rho11, s.rho22, s.rho33])
            y = _split(y6)
            h = 10.0 ** rng.uniform(-4.0, -0.5)
            ctrl = IntegratorControl(rel_tol=10.0 ** rng.uniform(-13, -9))
            ref_K, ref_y, ref_abs, ref_err = _reference_trial(
                reference, args, y6, h, ctrl)
            consts = constants(*args)
            k1 = rhs(y, *consts)
            y_new, K, abs_new, err = dynamics._dop853_step(
                rhs, consts, y, k1, dynamics._moduli(y), h, ctrl)
            dynamics._extra_stages(rhs, consts, y, K, h)
            assert len(K) == len(ref_K) == 16
            for k, ref_k in zip(K, ref_K):
                _assert_bits(k, _split(ref_k), i >= 200)
            _assert_bits(y_new, _split(ref_y), i >= 200)
            assert len(y_new) == 9
            assert _bits(abs_new) == _bits(ref_abs)
            assert err.hex() == ref_err.hex()


def _reference_chunk(steps, grid):
    """The samples of queued steps in plain Python over scipy's table, as
    ``(index, nine floats)`` pairs in the form of ``_dense_chunk``, each
    float apart.  Q_r sums the stages
    weighed by row r of :func:`_dense_rows` over the row's nonzero
    weights in stage order.  Each sample is then
    y + h * (p_0 Q_0 + ... + p_6 Q_6), summed in row order, with
    theta = (t_sample - t) / h and p_r = p_{r-1} times 1 - theta for odd
    r and theta for even r."""
    table = _dense_rows()
    out = []
    for t, h, y, K, first, count in steps:
        Q = []
        for row in table:
            q = []
            for slot in range(9):
                total = None
                for j, w in enumerate(row):
                    if w:
                        term = w * K[j][slot]
                        total = term if total is None else total + term
                q.append(total)
            Q.append(q)
        for i in range(first, first + count):
            theta = (grid[i] - t) / h
            p = [theta]
            for r in range(1, 7):
                p.append(p[-1] * ((1.0 - theta) if r % 2 else theta))
            sample = []
            for slot, start in enumerate(y):
                s = p[0] * Q[0][slot]
                for r in range(1, 7):
                    s = s + p[r] * Q[r][slot]
                sample.append(start + h * s)
            out.append((i, sample))
    return out


def _random_state(rng):
    """A random pure state with seed-like coherences, in the references'
    form."""
    s = random_pure_state(rng)
    seed = 10.0 ** rng.uniform(-9.0, 0.0)
    return _six([s.R31 * seed, s.R21 * seed, s.rho32,
                 s.rho11, s.rho22, s.rho33])


def _state_at_rest(rng):
    """The ground state or an untriggered inversion, whose coherences
    are zero: every zero part has a random sign."""
    zero = iter(rng.choice([0.0, -0.0], 8).tolist())
    coherences = [complex(next(zero), next(zero)) for _ in range(3)]
    if rng.integers(2):
        return coherences + [1.0, next(zero), next(zero)]
    return coherences + [next(zero), 0.5, 0.5]


_both_fields = pytest.mark.parametrize("constants, rhs, reference", [
    (dynamics._constants, dynamics._rhs, _rhs_reference),
    (basis._constants_bd, _rhs_bd, _rhs_bd_reference),
], ids=["bare", "bright_dark"])


class TestChunkBitIdentity:
    @staticmethod
    def check_chunks(constants, rhs, reference, state, args=None,
                     unweighed=None):
        """Chunks of one to five accepted steps from ``state(rng)``, each
        with two to six samples, theta from 1e-9 to 1 - 1e-9, and a grid
        point outside the queue (nan) before each step's samples: the
        states _dense_chunk evaluates at once from the stepper's trial
        steps equal the plain-Python reference bit for bit, on the same
        trial steps and on the complex reference's, and come in grid
        order.  ``args(rng)`` draws the physical parameters;
        ``unweighed``, when given, overwrites stages 2 to 5 of every
        queued step after the step."""
        rng = np.random.default_rng(23)
        ctrl = IntegratorControl()
        for _ in range(40):
            steps, ref_steps, grid = [], [], []
            t = rng.uniform(0.0, 50.0)
            for _ in range(int(rng.integers(1, 6))):
                y6 = state(rng)
                y = _split(y6)
                mu21 = rng.uniform(0.2, 1.35)
                physical = (args(rng) if args else
                            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0),
                             mu21, math.sqrt(2.0 - mu21 ** 2)))
                consts = constants(*physical)
                h = 10.0 ** rng.uniform(-4.0, -0.5)
                _, K, _, _ = dynamics._dop853_step(
                    rhs, consts, y, rhs(y, *consts), dynamics._moduli(y), h,
                    ctrl)
                dynamics._extra_stages(rhs, consts, y, K, h)
                ref_K = _reference_trial(reference, physical, y6, h, ctrl)[0]
                if unweighed is not None:
                    K[1:5] = [_split(unweighed)] * 4
                    ref_K[1:5] = [unweighed] * 4
                theta = [1e-9] + sorted(rng.uniform(0.0, 1.0, int(
                    rng.integers(0, 5)))) + [1.0 - 1e-9]
                grid.append(math.nan)
                steps.append((t, h, y, K, len(grid), len(theta)))
                ref_steps.append((t, h, y, [_split(k) for k in ref_K],
                                  len(grid), len(theta)))
                grid.extend(t + x * h for x in theta)
                t += h
            at, got = dynamics._dense_chunk(steps, np.array(grid))
            want = _reference_chunk(steps, grid)
            assert at.tolist() == [i for i, _ in want]
            assert got.shape == (len(want), 9)
            for row, (_, same), (_, ref) in zip(
                    got.tolist(), want, _reference_chunk(ref_steps, grid)):
                _assert_bits(row, same)
                _assert_bits(row, ref)

    @_both_fields
    def test_matches_reference_arithmetic(self, constants, rhs, reference):
        """Random states and parameters."""
        self.check_chunks(constants, rhs, reference, _random_state)

    @_both_fields
    def test_states_at_rest_keep_signed_zeros(self, constants, rhs,
                                              reference):
        """Steps at rest, with zero parts of either sign and parameters
        that include the presets' edge values (omega32 = 0, delta_L = 0,
        mu21 = mu31 = 1), where the stages hold zeros of either sign: the
        table's zero weights do not change the bits of a sample."""
        def args(rng):
            return [float(rng.choice([0.0, rng.uniform(0.0, 10.0)])),
                    float(rng.choice([0.0, rng.uniform(0.0, 2.0)])), 1.0, 1.0]

        self.check_chunks(constants, rhs, reference, _state_at_rest, args)

    @_both_fields
    def test_unweighed_stages_never_reach_a_sample(self, constants, rhs,
                                                   reference):
        """No row weighs stages 2 to 5: NaN there leaves every sample
        finite and equal to the reference."""
        nan = math.nan
        self.check_chunks(constants, rhs, reference, _random_state,
                          unweighed=[complex(nan, nan)] * 3 + [nan] * 3)


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


@pytest.fixture(scope="module")
def dop853_reference(preset_runs):
    """scipy DOP853 (rtol 1e-13, atol 1e-20) on each preset's sample grid."""
    from scipy.integrate import solve_ivp

    refs = {}
    for name, traj in preset_runs.items():
        p = traj.params
        args = dynamics._constants(p.omega32, p.delta_L, p.mu21, p.mu31)
        ref = solve_ivp(lambda t, y: _field(dynamics._rhs, y, args),
                        (0.0, traj.t[-1]), traj.y[:, 0], method="DOP853",
                        rtol=1e-13, atol=1e-20, t_eval=traj.t)
        assert ref.success
        refs[name] = ref.y
    return refs


class TestAccuracyGate:
    @pytest.mark.parametrize("path", ["bare", "bright_dark"])
    def test_every_sample_matches_reference(self, path, preset_runs,
                                            preset_bd_runs, dop853_reference):
        """Every component at every grid sample of every preset lies within
        an absolute 1e-8 of an independent high-accuracy solution."""
        runs = preset_runs if path == "bare" else preset_bd_runs
        for name, traj in runs.items():
            assert np.array_equal(traj.t, preset_runs[name].t), name
            err = float(np.max(np.abs(traj.y - dop853_reference[name])))
            assert err < 1e-8, (name, err)

    @pytest.mark.parametrize("path", ["bare", "bright_dark"])
    def test_linear_stage_relative_error(self, path, preset_runs,
                                         preset_bd_runs, dop853_reference):
        """In the linear stage, the samples before the peak of
        max(|R31|, |R21|) where it is still below 1e-4, R31 and R21 each
        lie within a relative 2e-9 of the reference.  The absolute gate
        cannot see errors on coherences of 1e-8; the pre-peak condition
        keeps the post-pulse tail, which is small again, out of the
        linear stage."""
        runs = preset_runs if path == "bare" else preset_bd_runs
        for name, traj in runs.items():
            ref = dop853_reference[name][:2]
            size = np.max(np.abs(ref), axis=0)
            linear = (size < 1e-4) & (np.arange(size.size) < np.argmax(size))
            assert linear.sum() > 400, name
            rel = float(np.max(np.abs(traj.y[:2, linear] - ref[:, linear])
                               / np.abs(ref[:, linear])))
            assert rel < 2e-9, (name, rel)


class TestBlockedRunAccuracy:
    """The error weight is shared by a block, so a small member of a
    block is controlled only relative to the block's largest modulus.  The
    blocked run (omega32 5, delta_L 1, rho22 = rho33 = 0.5, seeds 1e-8)
    has such a member: R21, blocked, stays far below R31."""

    @pytest.fixture(scope="class")
    def runs(self):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        state, params = initial_state(0.5, 0.5, 0.0), make_params(5.0, 1.0)
        runs = {run.__name__: run(state, params, 40.0)
                for run in (integrate, integrate_bright_dark)}
        t = runs["integrate"].t
        args = dynamics._constants(*dynamics._physical(params))
        ref = solve_ivp(lambda _, y: _field(dynamics._rhs, y, args),
                        (0.0, t[-1]), dynamics._pack(state), method="DOP853",
                        rtol=1e-13, atol=1e-20, t_eval=t)
        assert ref.success
        return runs, ref.y

    @pytest.mark.parametrize("path", ["integrate", "integrate_bright_dark"])
    def test_small_coherence_keeps_its_relative_accuracy(self, runs, path):
        """Before its peak, R21 lies within a relative 1e-8 of scipy's
        DOP853 (rtol 1e-13, atol 1e-20), and every sample within an
        absolute 1e-8."""
        runs, ref = runs
        traj = runs[path]
        assert np.array_equal(traj.t, runs["integrate"].t)
        size = np.abs(ref[1])
        rising = np.arange(size.size) < np.argmax(size)
        assert rising.sum() > 2000
        rel = float(np.max(np.abs(traj.R21[rising] - ref[1, rising])
                           / size[rising]))
        assert rel < 1e-8, rel
        assert float(np.max(np.abs(traj.y - ref))) < 1e-8


class TestTrajectory:
    def test_all_presets_validate(self, preset_runs):
        for traj in preset_runs.values():
            traj.validate()

    @pytest.mark.parametrize("kind", ["nan", "trace", "minor"])
    def test_names_the_first_bad_sample(self, preset_runs, kind):
        """A bad sample fails the check with its own message, whether it
        is the last sample or one followed by a bad sample whose failure
        comes first in the order of the checks (a nan in rho32)."""
        traj = preset_runs["fig5"]
        for at in (17, traj.t.size - 1):
            y = traj.y.copy()
            r11, r22, r33 = y[3:, at].real.tolist()
            if kind == "nan":
                y[1, at] = complex(math.nan)
                want = ParameterError, "R21 must be finite, got (nan+0j)"
            elif kind == "trace":
                y[4, at] += 1e-3
                want = TraceViolation, (
                    f"rho11 + rho22 + rho33 = {r11 + (r22 + 1e-3) + r33!r}, "
                    "expected 1 (within 1e-9)")
            else:
                y[0, at] = 0.9
                want = PositivityViolation, (
                    f"positivity |R31|^2 <= rho33*rho11 violated: 0.81 > "
                    f"{r33 * r11!r} + 1e-09")
            if at + 1 < traj.t.size:
                y[2, at + 1] = complex(math.nan)
            with pytest.raises(want[0]) as exc:
                replace(traj, y=y).validate()
            assert str(exc.value) == want[1], (kind, at)

    def test_rejects_non_increasing_times(self, preset_runs):
        traj = preset_runs["fig2"]
        t = traj.t.copy()
        t[100] = t[99]
        with pytest.raises(ValueError, match="^trajectory times must be "
                                             "strictly increasing$"):
            replace(traj, t=t).validate()

    def test_state_and_field_accessors_agree(self, preset_runs):
        traj = preset_runs["fig2"]
        emitted, acting = field_of(traj.state_at(777), traj.params)
        assert emitted == traj.emitted_amp[777]
        assert acting == traj.acting_amp[777]

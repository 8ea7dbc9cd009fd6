"""Acceptance gate: the ten headline behaviors, one test each.

Each test checks one end-to-end claim at its stated tolerance, so the
``pytest -v`` report reads as a ten-line scorecard.  Shared reference
integrations come from the session fixtures in conftest.py.
"""

import time

import numpy as np
import pytest

from filmsr import (IntegratorControl, PhysicalInputs, critical_lfc,
                    degenerate_solution, estimate_timescales, initial_state,
                    instantaneous_frequency, integrate, linear_rates,
                    make_params, pulse_metrics, rhs_bright_dark, rhs_original,
                    to_bright_dark)
from conftest import random_pure_state


def bright_inversion(traj):
    """Z(t) = (rho_pp - rho_11)/2 along a balanced-moment trajectory."""
    rho_pp = 0.5 * (traj.rho22 + traj.rho33) + traj.rho32.real
    return 0.5 * (rho_pp - traj.rho11)


def test_criterion_01_degenerate_closed_form(preset_runs,
                                             degenerate_nolfc_run):
    """Degenerate doublet matches the sech/tanh solution to 1e-6 and the
    delay time to 1%, with and without the local-field correction."""
    for delta_L, traj in ((0.0, degenerate_nolfc_run),
                          (1.0, preset_runs["degenerate"])):
        sol = degenerate_solution(0.5, np.sqrt(2.0) * 1e-8, delta_L)
        ref = sol.evaluate(traj.t)
        r_num = np.abs(traj.emitted_amp) / np.sqrt(2.0)
        assert np.max(np.abs(r_num - ref["R_plus_abs"])) < 1e-6
        assert np.max(np.abs(bright_inversion(traj) - ref["Z"])) < 1e-6
        assert pulse_metrics(traj).t_peak == pytest.approx(sol.t_D, rel=0.01)
    start = time.perf_counter()
    integrate(initial_state(0.5, 0.5, 0.5), make_params(0.0, 1.0), 20.0)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_conservation(preset_runs):
    """Trace within 1e-9, quadratic invariant within 1e-8, and the
    ground-state population never decreases, on every preset."""
    for name, traj in preset_runs.items():
        trace = traj.rho11 + traj.rho22 + traj.rho33
        assert np.max(np.abs(trace - 1.0)) < 1e-9, name
        quad = (traj.rho11 ** 2 + traj.rho22 ** 2 + traj.rho33 ** 2
                + 2.0 * (np.abs(traj.rho32) ** 2 + np.abs(traj.R31) ** 2
                         + np.abs(traj.R21) ** 2))
        assert np.max(np.abs(quad - quad[0])) < 1e-8, name
        assert np.min(np.diff(traj.rho11)) >= 0.0, name


def test_criterion_03_coherent_pulse(preset_runs):
    """fig2 preset: delay 18 +- 10%, complete de-excitation, envelope
    modulation at the splitting frequency +- 5%."""
    m = pulse_metrics(preset_runs["fig2"])
    assert m.t_peak == pytest.approx(18.0, rel=0.10)
    assert m.final_pops.rho11 > 0.99
    assert m.oscillation_freq == pytest.approx(5.0, rel=0.05)


def test_criterion_04_incoherent_pulse(preset_runs):
    """fig3 preset: both upper levels keep 0.25 +- 0.02, and the pulse is
    delayed and widened by a factor two (+- 15%) versus fig2."""
    m2 = pulse_metrics(preset_runs["fig2"])
    m3 = pulse_metrics(preset_runs["fig3"])
    assert m3.final_pops.rho22 == pytest.approx(0.25, abs=0.02)
    assert m3.final_pops.rho33 == pytest.approx(0.25, abs=0.02)
    assert m3.t_peak / m2.t_peak == pytest.approx(2.0, rel=0.15)
    assert m3.fwhm / m2.fwhm == pytest.approx(2.0, rel=0.15)


# Known failure, kept at full strength: the delay clause below asks for
# a blocked-channel peak in [16, 20]; the run (omega32 = 5, delta_L = 1,
# W = 0.5, seeds R21 = R31 = 1e-8) peaks at t = 29.407.
# - The exact linear-stage eigenvalue of the open R31 channel,
#   linear_rates(make_params(5.0, 1.0), 0.5).exact2, has real part
#   0.5999.  Criterion 6 checks these exponents against the integrator
#   to 5% on fig4.
# - Growing |R31| from the 1e-8 seed to about 0.5 at that rate takes
#   ln(5e7) / 0.5999 = 29.55, against the measured 29.407.
# - Reaching the window at the 1e-8 seed needs a real part of at least
#   ln(5e7) / 20 = 0.886, i.e. delta_L near 10 (0.9476 at delta_L = 10,
#   0.8553 at delta_L = 5); at delta_L = 1 it needs a seed near 1e-5
#   (ln(0.5 / 1e-5) / 0.5999 = 18.0).
# - Nothing in the repository says where [16, 20] comes from, and
#   PAPER.md holds only the abstract.  Settling the clause needs the
#   paper's text (its seed, its delta_L, or its definition of the delay).
def test_criterion_05_channel_blocking(blocking_runs):
    """Far above the critical local-field strength one channel is blocked
    (rho22 kept, rho33 emptied, delay in [16, 20]); far below, both
    channels radiate symmetrically to within 0.03."""
    strong = pulse_metrics(blocking_runs[1.0])
    assert strong.final_pops.rho22 >= 0.45
    assert strong.final_pops.rho33 <= 0.05
    assert 16.0 <= strong.t_peak <= 20.0
    weak = pulse_metrics(blocking_runs[0.02])
    asymmetry = abs(weak.final_pops.rho22 - weak.final_pops.rho33)
    assert asymmetry < 0.03
    assert 0.02 < critical_lfc(5.0, 0.5, 35.0) < 1.0


def test_criterion_06_linear_stage_rates(preset_runs):
    """fig4 preset: fitted exponential growth of each coherence matches
    its linear-stage exponent within 5%, and the log ratio grows
    linearly with slope 1/35 +- 5%."""
    traj = preset_runs["fig4"]
    window = (traj.t >= 5.0) & (traj.t <= 15.0)
    t = traj.t[window]
    log31 = np.log(np.abs(traj.R31[window]))
    log21 = np.log(np.abs(traj.R21[window]))
    rates = linear_rates(make_params(5.0, 1.0 / 7.0), 0.5)
    slope31 = np.polyfit(t, log31, 1)[0]
    slope21 = np.polyfit(t, log21, 1)[0]
    assert slope31 == pytest.approx(rates.lambda2.real, rel=0.05)
    assert slope21 == pytest.approx(rates.lambda1.real, rel=0.05)
    gap_slope = np.polyfit(t, log31 - log21, 1)[0]
    assert gap_slope == pytest.approx(1.0 / 35.0, rel=0.05)


def test_criterion_07_chirp(preset_runs):
    """Degenerate run with local-field correction 1: the instantaneous
    frequency sweeps from -2 to +2 with endpoint plateaus within 5%."""
    _, om = instantaneous_frequency(preset_runs["degenerate"])
    assert om[0] == pytest.approx(-2.0, abs=0.1)
    assert om[-1] == pytest.approx(+2.0, abs=0.1)


def test_criterion_08_basis_path_equivalence(preset_runs, preset_bd_runs):
    """Bright/dark-basis integration reproduces every preset's
    populations to 1e-8 at all output times; the rotated vector field is
    the pushforward of the bare one to 1e-12 on 1000 random states."""
    for name, direct in preset_runs.items():
        rotated = preset_bd_runs[name]
        assert direct.t.size == rotated.t.size, name
        for attr in ("rho11", "rho22", "rho33"):
            diff = np.abs(getattr(rotated, attr) - getattr(direct, attr))
            assert np.max(diff) < 1e-8, f"{name}:{attr}"
    rng = np.random.default_rng(8)
    params = make_params(5.0, 0.3, 1.2, np.sqrt(2.0 - 1.2 ** 2))
    worst = 0.0
    for _ in range(1000):
        s = random_pure_state(rng)
        pushed = to_bright_dark(rhs_original(s, params), params)
        direct = rhs_bright_dark(to_bright_dark(s, params), params)
        worst = max(worst,
                    abs(pushed.R_plus1 - direct.R_plus1),
                    abs(pushed.R_minus1 - direct.R_minus1),
                    abs(pushed.rho_pm - direct.rho_pm),
                    abs(pushed.rho_11 - direct.rho_11),
                    abs(pushed.rho_pp - direct.rho_pp),
                    abs(pushed.rho_mm - direct.rho_mm))
    assert worst < 1e-12


# Passes only through integrator noise, kept at full strength: the
# dark-trapping clause below asks for final rho_mm > 0, which this model
# cannot deliver from a pure preparation.
# - The packed field equals the mean-field Liouville form
#   d(rho)/dt = -i[H(rho), rho], with H = diag(0, -omega32/2, omega32/2)
#   plus the acting field E = -(i + delta_L) S on both optical
#   transitions (pinned by test_matches_mean_field_commutator in
#   test_dynamics.py).  H(rho) is Hermitian, so each emitter evolves
#   unitarily: a pure initial state stays pure (quadratic invariant 1).
# - With omega32 != 0 the dark amplitude keeps rotating into the bright
#   one, which radiates.  The only state the flow can settle in is
#   therefore the ground state, where rho_mm = 0.
# - Measured final rho_mm (t_end 60) for delta_L in {0.1, 0.25, 0.5,
#   0.75, 1, 2} lies between -1e-11 and 1.1e-9, i.e. at the integrator
#   noise floor.  With the grid-clamped DP5(4) stepper the clause failed
#   at 0.5 (-9.9e-12).  With DOP853 and its block error weights the
#   family ends at 3.25e-11 (0.25), 1.65e-11 (0.5) and 2.57e-11 (1.0),
#   so the clause passes, but only through the sign of that noise: the
#   physics has not changed, and a different stepper or tolerance can
#   make it fail again.
# - A Taylor-series integration at 34 digits of the same three runs, to
#   the same end times (38.42, 39.5, 42.49), gives rho_mm = -1.39e-16,
#   +3.46e-16 and +3.2e-14.  The exact values can be negative because
#   the 1e-8 seeds put rho(0) outside the positive semidefinite cone by
#   about 1e-16: with rho11 = 0, |R31|^2 = 1e-16 > rho11 rho33 = 0.  The
#   flow is unitary per emitter and carries that defect along.
def test_criterion_09_lfc_family(lfc_family_runs):
    """Coherent-init family at local-field strengths {0.25, 0.5, 1}: the
    delay time shifts < 5%, the post-peak modulation frequency strictly
    increases, and some population stays trapped in the dark state."""
    deltas = sorted(lfc_family_runs)
    metrics = {d: pulse_metrics(lfc_family_runs[d]) for d in deltas}
    t_peaks = [metrics[d].t_peak for d in deltas]
    assert (max(t_peaks) - min(t_peaks)) / np.mean(t_peaks) < 0.05
    freqs = [metrics[d].oscillation_freq for d in deltas]
    assert all(f is not None for f in freqs)
    assert freqs[0] < freqs[1] < freqs[2]
    for d in deltas:
        assert metrics[d].final_pops.rho_mm > 0.0, f"delta_L={d}"


def test_criterion_10_timescale_estimate():
    """Lab-unit estimate: the collective time constant for the reference
    film comes out between 5 and 10 fs and equals the closed formula."""
    phys = PhysicalInputs(wavelength_c=5e-5, thickness=5e-6,
                          dipole21=6.313e-18, dipole31=6.313e-18,
                          concentration=1e21, tau0=1e-8)
    times = estimate_timescales(phys)
    tau = times["tau_R_seconds"]
    assert 5e-15 <= tau <= 10e-15
    closed = ((8.0 * np.pi / 3.0) / (1e21 * 5e-5 ** 3)
              * (5e-5 / 5e-6) * 1e-8)
    assert tau == pytest.approx(closed, rel=1e-15)
    assert times["ratio_to_tau0"] == pytest.approx(tau / 1e-8, rel=1e-12)

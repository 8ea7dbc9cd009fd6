"""Conserved-quantity monitors and pulse-shape / branching metrics.

Everything here is a pure function of a state or a finished
:class:`~filmsr.dynamics.Trajectory`; nothing mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import to_bright_dark
from .dynamics import Trajectory, _pack, _quadratic, _sample_count, _trace
from .params import DensityState

__all__ = [
    "AnalysisError",
    "NoPulse",
    "PhaseUnwrapFailure",
    "FinalPopulations",
    "Branching",
    "PulseMetrics",
    "trace_of",
    "quadratic_invariant",
    "smoothed_envelope",
    "pulse_metrics",
    "instantaneous_frequency",
    "branching_summary",
]

# fraction of the peak envelope below which the phase of the emitted
# field stops being meaningful (beat nulls, pre-pulse quiet stage)
_PHASE_AMP_FLOOR = 0.05
# a channel is "blocked" when it sheds at most this fraction of its
# initial upper-level population
_BLOCKED_FRACTION = 0.1
# the pulse must rise this far above the seed to count as developed
_PULSE_GAIN = 1e3


class AnalysisError(RuntimeError):
    """Base class for trajectory-analysis failures."""


class NoPulse(AnalysisError):
    """Emission never developed: the envelope stayed near its seed value."""


class PhaseUnwrapFailure(AnalysisError):
    """A phase step of >= pi at significant amplitude: sampling too coarse."""


def trace_of(state: DensityState) -> float:
    """Population sum rho11 + rho22 + rho33 (conserved, = 1)."""
    return float(_trace(_pack(state)))


def quadratic_invariant(state: DensityState) -> float:
    """Sum of squared density-matrix elements (purity-like, conserved).

    rho11^2 + rho22^2 + rho33^2 + 2(|rho32|^2 + |R31|^2 + |R21|^2);
    equals 1 for a pure state.  The integrator's monitor checks the same
    quantity at every sample.
    """
    return float(_quadratic(_pack(state)))


@dataclass(frozen=True)
class FinalPopulations:
    """Populations at end-of-run, bare and bright/dark."""

    rho11: float
    rho22: float
    rho33: float
    rho_pp: float
    rho_mm: float


@dataclass(frozen=True)
class Branching:
    """Population shed per emission channel over the run.

    delta33 / delta22    rho33(0) - rho33(end), rho22(0) - rho22(end)
    blocked_31 / blocked_21
                         channel flagged blocked when it shed at most
                         10% of its initial upper-level population
    """

    delta33: float
    delta22: float
    blocked_31: bool
    blocked_21: bool


@dataclass(frozen=True)
class PulseMetrics:
    """Shape and bookkeeping numbers of one emitted pulse.

    t_peak            delay time: maximum of the smoothed envelope
    fwhm              full width at half maximum of the smoothed
                      intensity (envelope squared)
    peak_amp          smoothed envelope at the peak
    oscillation_freq  dominant modulation frequency of the post-peak
                      envelope, or None when no single line carries
                      more than 5% of the modulation power
    final_pops        populations at end-of-run
    branching         per-channel transferred population

    The field order is the key order of ``metrics.json``.
    """

    t_peak: float
    fwhm: float
    peak_amp: float
    oscillation_freq: float | None
    final_pops: FinalPopulations
    branching: Branching


def _grid_size(t: np.ndarray, dt: float) -> int:
    """The number of samples of ``t`` on the grid ``dt``: all of them,
    but for a last one that ends a partial last interval, as
    :func:`_sample_count` decides for the last time."""
    return t.size - _sample_count(t[-1], dt)[1]


def smoothed_envelope(traj: Trajectory) -> np.ndarray:
    """|emitted_amp| with the doublet-splitting modulation averaged out,
    at the samples on the dt grid: a last sample that ends a partial last
    interval, by the rule of :func:`dynamics._sample_count`, is left out.

    Moving average of width one beat period 2*pi/omega32 (reflect-padded,
    so the array keeps the grid's length and the edges are unbiased); the
    raw magnitude when the period spans the grid, as at omega32 = 0.
    """
    dt = traj.control.dt
    abs_s = np.abs(traj.emitted_amp[:_grid_size(traj.t, dt)])
    om = abs(traj.params.omega32)
    period = (2.0 * np.pi / om) / dt if om else np.inf    # in samples
    if not period < abs_s.size:     # before int(), which inf would fail
        return abs_s
    w = max(1, int(round(period)))
    if w % 2 == 0:
        w += 1
    if w <= 1 or w >= abs_s.size:
        return abs_s
    pad = w // 2
    ext = np.concatenate([abs_s[pad:0:-1], abs_s, abs_s[-2:-2 - pad:-1]])
    return np.convolve(ext, np.ones(w) / w, mode="valid")


def _refine_peak(t: np.ndarray, env: np.ndarray,
                 dt: float) -> tuple[float, float, int]:
    """Parabolic sub-sample refinement of the envelope maximum."""
    i = int(np.argmax(env))
    off = 0.0
    if 0 < i < env.size - 1:
        a, b, c = env[i - 1], env[i], env[i + 1]
        den = a - 2.0 * b + c
        if den != 0.0:
            off = 0.5 * (a - c) / den
    return float(t[i] + off * dt), float(env[i]), i


def _fwhm(t: np.ndarray, env: np.ndarray, i_peak: int) -> float:
    """Width of the intensity profile env^2 at half maximum.

    Half-intensity equals env = peak/sqrt(2); the crossings are located
    by linear interpolation on the envelope.
    """
    half = env[i_peak] / np.sqrt(2.0)
    j = i_peak
    while j > 0 and env[j] > half:
        j -= 1
    t_lo = (np.interp(half, [env[j], env[j + 1]], [t[j], t[j + 1]])
            if env[j] <= half else t[0])
    k = i_peak
    while k < env.size - 1 and env[k] > half:
        k += 1
    t_hi = (np.interp(half, [env[k], env[k - 1]], [t[k], t[k - 1]])
            if env[k] <= half else t[-1])
    return float(t_hi - t_lo)


def _modulation_line(dt, abs_s, env, i_peak) -> float | None:
    """Dominant post-peak modulation frequency, if one line dominates.

    Rectangular-window periodogram of the detrended magnitude
    (|emitted| minus its smoothed envelope) restricted to t > t_peak,
    zero-padded 8x for sub-bin peak location with a parabolic fit in
    log power.  The 5%-of-total-power significance gate is evaluated on
    the unpadded periodogram (peak bin plus both neighbours against all
    non-DC power), where bins are independent.
    """
    sig = (abs_s - env)[i_peak:]
    n = sig.size
    if n < 64:
        return None
    p_un = np.abs(np.fft.rfft(sig)) ** 2
    total = float(np.sum(p_un[1:]))
    if total <= 0.0:
        return None
    ku = int(np.argmax(p_un[1:])) + 1
    frac = float(np.sum(p_un[max(1, ku - 1):ku + 2])) / total
    if frac <= 0.05:
        return None
    nfft = 1 << int(np.ceil(np.log2(8 * n)))
    power = np.abs(np.fft.rfft(sig, nfft)) ** 2
    freqs = 2.0 * np.pi * np.fft.rfftfreq(nfft, dt)
    k = int(np.argmax(power[1:])) + 1
    off = 0.0
    if 1 <= k < power.size - 1 and np.all(power[k - 1:k + 2] > 0.0):
        la, lb, lc = np.log(power[k - 1:k + 2])
        den = la - 2.0 * lb + lc
        if den != 0.0:
            off = 0.5 * (la - lc) / den
    return float(freqs[k] + off * (freqs[1] - freqs[0]))


def branching_summary(traj: Trajectory) -> Branching:
    """How much population each channel shed, and whether it was blocked."""
    d33 = float(traj.rho33[0] - traj.rho33[-1])
    d22 = float(traj.rho22[0] - traj.rho22[-1])
    return Branching(
        delta33=d33,
        delta22=d22,
        blocked_31=bool(d33 <= _BLOCKED_FRACTION * traj.rho33[0]),
        blocked_21=bool(d22 <= _BLOCKED_FRACTION * traj.rho22[0]),
    )


def pulse_metrics(traj: Trajectory) -> PulseMetrics:
    """Delay time, width, modulation line and population bookkeeping.

    The run should have ended (quiescence fired or the pulse clearly
    over); final populations and branching are read from the last
    sample, the pulse shape from the samples on the dt grid (see
    :func:`smoothed_envelope`).  Raises :class:`NoPulse` when the
    envelope never rose a factor 1e3 above its initial value.
    """
    env = smoothed_envelope(traj)
    t, dt = traj.t[:env.size], traj.control.dt
    t_peak, peak_amp, i_peak = _refine_peak(t, env, dt)
    if peak_amp <= 0.0 or peak_amp < _PULSE_GAIN * env[0]:
        raise NoPulse(
            f"envelope peaked at {peak_amp:.3e}, seed {env[0]:.3e}: "
            "emission never developed")
    final = traj.state_at(traj.t.size - 1)
    bd = to_bright_dark(final, traj.params)
    return PulseMetrics(
        t_peak=t_peak,
        fwhm=_fwhm(t, env, i_peak),
        peak_amp=peak_amp,
        oscillation_freq=_modulation_line(
            dt, np.abs(traj.emitted_amp[:env.size]), env, i_peak),
        final_pops=FinalPopulations(final.rho11, final.rho22, final.rho33,
                                    bd.rho_pp, bd.rho_mm),
        branching=branching_summary(traj),
    )


def instantaneous_frequency(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Frequency offset of the emitted field versus time.

    Phase of mu21*R21 + mu31*R31, unwrapped and differentiated by
    central differences.  Samples where the envelope is below 5% of its
    maximum are dropped (the phase of a vanishing amplitude is noise),
    as are the immediate neighbourhoods of the exact pi sign flips the
    envelope nulls produce.  A >= pi step at significant amplitude means
    the grid undersamples the phase and raises
    :class:`PhaseUnwrapFailure`.
    """
    s = traj.emitted_amp
    abs_s = np.abs(s)
    peak = float(abs_s.max())
    if peak == 0.0:
        raise NoPulse("emitted amplitude is identically zero")
    wrapped = np.angle(s)
    step = np.diff(wrapped)
    step = (step + np.pi) % (2.0 * np.pi) - np.pi
    flips = np.abs(step) >= np.pi * (1.0 - 1e-6)
    loud = np.minimum(abs_s[:-1], abs_s[1:]) > _PHASE_AMP_FLOOR * peak
    if np.any(flips & loud):
        i = int(np.argmax(flips & loud))
        raise PhaseUnwrapFailure(
            f"phase step of {abs(step[i]):.3f} rad at t={traj.t[i]:.4g} with "
            "significant amplitude; decrease the output grid spacing")
    omega = np.gradient(np.unwrap(wrapped), traj.t)
    keep = abs_s > _PHASE_AMP_FLOOR * peak
    near_flip = np.zeros(traj.t.size, dtype=bool)
    for i in np.flatnonzero(flips):
        near_flip[max(0, i - 1):i + 3] = True
    keep &= ~near_flip
    return traj.t[keep], omega[keep]

"""RWA equations of motion, field reconstruction, and the time integrator.

The state vector handed to the stepper packs the six independent
density-matrix amplitudes as complex numbers, in the order

    [R31, R21, rho32, rho11, rho22, rho33]

with the populations carried in the real parts of the last three slots.
The population derivatives are written as explicit real parts, so the
imaginary parts of those slots stay exactly zero along a trajectory.

Time is in units of tau_R throughout (tau_R = 1).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .params import DensityState, SystemParams

__all__ = [
    "IntegrationError",
    "StepSizeUnderflow",
    "NonFiniteStep",
    "InvariantDrift",
    "IntegratorControl",
    "Trajectory",
    "rhs_original",
    "field_of",
    "integrate",
]


class IntegrationError(RuntimeError):
    """Base class for failures while advancing the equations of motion."""


class StepSizeUnderflow(IntegrationError):
    """The controller pushed the step below the resolvable floor."""


class NonFiniteStep(IntegrationError):
    """Two trial steps in a row from the same state gave non-finite values."""


class InvariantDrift(IntegrationError):
    """Trace or quadratic invariant drifted beyond the configured bound."""


# emission is over once d(rho11)/dt stays below this rate for this long
_QUIESCENCE_RATE = 1e-8
_QUIESCENCE_WINDOW = 10.0


@dataclass(frozen=True)
class IntegratorControl:
    """Knobs of the adaptive stepper.

    rel_tol / abs_tol    embedded-pair error control (per component)
    invariant_tol        allowed drift of trace and quadratic invariant
    dt                   output grid spacing (time units of tau_R);
                         accepted steps never straddle a grid point, so
                         grid samples are integration nodes and linear
                         interpolation between samples is exact there
    stop_on_quiescence   end the run early once emission is over:
                         d(rho11)/dt < 1e-8 sustained over a window of
                         10 tau_R, evaluated only after the rate has
                         reached 1e-8 at least once (otherwise an
                         undeveloped pulse would stop the run during its
                         quiet rise)
    max_steps            budget of trial steps, accepted plus rejected
                         (>= 1); the run fails once it is spent
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    invariant_tol: float = 1e-8
    dt: float = 0.01
    stop_on_quiescence: bool = True
    max_steps: int = 20_000_000

    def validated(self) -> "IntegratorControl":
        if not 1e-13 <= self.rel_tol <= 1e-6:
            raise ValueError(
                f"rel_tol must lie in [1e-13, 1e-6], got {self.rel_tol!r}")
        for name in ("abs_tol", "dt", "invariant_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:    # nan fails every comparison
                raise ValueError(
                    f"{name} must be finite and > 0, got {value!r}")
        if self.max_steps < 1:
            raise ValueError(
                f"max_steps must be >= 1, got {self.max_steps!r}")
        return self


def _rhs(y, omega32, delta_L, mu21, mu31):
    """Vector field of the packed bare state; returns a new (6,) complex array.

    This is the stepper's hot path, six calls per step, so it avoids numpy
    scalars: ``y.tolist()`` unpacks the state into Python complex numbers
    in one call and all arithmetic runs on those.  The result is bit for
    bit what the same expressions give on numpy scalars.  The returned
    array is fresh and writable, so callers may modify it.  The stepper
    around it (:func:`_dp5_step`) keeps the Butcher rows as complex128 and
    takes the moduli of its error norm with numpy's ``abs``.
    """
    R31, R21, r32, r11, r22, r33 = y.tolist()
    r11, r22, r33 = r11.real, r22.real, r33.real
    g = complex(1.0, -delta_L)           # 1/tau_R - i*delta_L
    S = mu21 * R21 + mu31 * R31          # emitted-field envelope
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
    return np.array([dR31, dR21, dr32, dr11, dr22, dr33], dtype=complex)


def _pack(state) -> np.ndarray:
    """Packed complex 6-vector of a DensityState or BrightDarkState."""
    return np.array(astuple(state), dtype=complex)


def _unpack(y, cls=DensityState):
    """State dataclass ``cls`` (bare or bright/dark) of a packed 6-vector."""
    return cls(complex(y[0]), complex(y[1]), complex(y[2]),
               float(y[3].real), float(y[4].real), float(y[5].real))


def _trace(y):
    """rho11 + rho22 + rho33 of a packed (6,) state or (6, N) trajectory."""
    return y[3].real + y[4].real + y[5].real


def _quadratic(y):
    """rho11^2 + rho22^2 + rho33^2 + 2(|rho32|^2 + |R31|^2 + |R21|^2).

    Sum of squared density-matrix elements of a packed (6,) state or
    (6, N) trajectory; basis independent, and 1 for a pure state.
    """
    return (y[3].real ** 2 + y[4].real ** 2 + y[5].real ** 2
            + 2.0 * (abs(y[2]) ** 2 + abs(y[0]) ** 2 + abs(y[1]) ** 2))


def _emitted(y, params: SystemParams):
    """Emitted-field envelope mu21*R21 + mu31*R31 of packed bare states."""
    return params.mu21 * y[1] + params.mu31 * y[0]


def rhs_original(state: DensityState, params: SystemParams) -> DensityState:
    """Right-hand side of the RWA equations in the bare basis.

    The time derivative comes back in the state's own fields (units
    1/tau_R; it is not a density state and is never validated).  The
    ground-state filling rate is a modulus squared,
    d(rho11)/dt = 2 |mu21 R21 + mu31 R31|**2 >= 0, so rho11 never
    decreases; the population derivatives add to zero exactly.
    """
    return _unpack(_rhs(_pack(state), params.omega32, params.delta_L,
                        params.mu21, params.mu31))


def field_of(state: DensityState,
             params: SystemParams) -> tuple[complex, complex]:
    """Emitted and acting field envelopes ``(emitted, acting)`` of a state.

    emitted  mu21*R21 + mu31*R31, the slowly varying envelope of the
             field emitted by the film
    acting   (i + delta_L) * emitted, the envelope of the field acting on
             an emitter (Maxwell field plus the Lorentz local-field term)
    """
    emitted = complex(_emitted(_pack(state), params))
    return emitted, (1j + params.delta_L) * emitted


@dataclass(frozen=True)
class Trajectory:
    """Grid-sampled solution of one integration.

    t        sample times, strictly increasing, spacing ``control.dt``
    y        complex array of shape (6, len(t)) in packed order
    params   the :class:`SystemParams` the run used
    control  the :class:`IntegratorControl` the run used
    steps_accepted / steps_rejected
             adaptive-stepper bookkeeping
    end_of_run_time
             time at which the quiescence detector ended the run, or
             None when the run reached t_end
    """

    t: np.ndarray
    y: np.ndarray
    params: SystemParams
    control: IntegratorControl
    steps_accepted: int
    steps_rejected: int
    end_of_run_time: float | None = None

    # -- component views -------------------------------------------------
    @property
    def R31(self):
        return self.y[0]

    @property
    def R21(self):
        return self.y[1]

    @property
    def rho32(self):
        return self.y[2]

    @property
    def rho11(self):
        return self.y[3].real

    @property
    def rho22(self):
        return self.y[4].real

    @property
    def rho33(self):
        return self.y[5].real

    @property
    def emitted_amp(self):
        return _emitted(self.y, self.params)

    @property
    def acting_amp(self):
        return (1j + self.params.delta_L) * self.emitted_amp

    def state_at(self, i: int) -> DensityState:
        return _unpack(self.y[:, i])

    def sample(self, time: float) -> DensityState:
        """Linear interpolation between grid samples; exact at the samples."""
        t = self.t
        if not t[0] <= time <= t[-1]:
            raise ValueError(f"t={time} outside [{t[0]}, {t[-1]}]")
        i = int(np.searchsorted(t, time, side="right")) - 1
        if i >= len(t) - 1:
            return self.state_at(len(t) - 1)
        w = (time - t[i]) / (t[i + 1] - t[i])
        return _unpack((1.0 - w) * self.y[:, i] + w * self.y[:, i + 1])

    def validate(self) -> "Trajectory":
        """Structural checks over all samples; returns self.

        Times strictly increasing and every sample a valid density state
        (trace within 1e-9, positivity included).
        """
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        for i in range(self.t.size):
            self.state_at(i).validate()
        return self


# Dormand-Prince 5(4) coefficients.  The pair is FSAL: the last stage of
# an accepted step is the first stage of the next one.  The equations are
# autonomous, so the stage nodes c_i are not needed.  The rows are stored
# as complex128: the cast from float is exact, and numpy would otherwise
# repeat it in every stage product with the complex stage buffer.
_A = [np.array(row, dtype=complex) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
                0.0], dtype=complex)
_E = _B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                     -92097 / 339200, 187 / 2100, 1 / 40], dtype=complex)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _initial_step(omega32: float) -> float:
    """Conservative first step: a small fraction of the fastest period."""
    return 1e-3 * min(2.0 * math.pi / max(abs(omega32), 1.0), 1.0)


def _dp5_step(rhs, args, y, k1, abs_y, h, ctrl: IntegratorControl):
    """One DP5(4) trial step of size ``h`` from ``y``, where ``k1 = f(y)``
    and ``abs_y = |y|``.

    Returns ``(y_new, k7, abs_new, err)``.  ``k7 = f(y_new)`` is the first
    stage of the next step (FSAL) and ``abs_new = |y_new|`` the next
    ``abs_y``; both are None when ``y_new`` is not finite, and ``err`` is
    then nan.  ``err`` is the RMS over the six components of the embedded
    error estimate divided by ``abs_tol + rel_tol * max(|y|, |y_new|)``.
    The moduli are numpy's complex abs, not Python's ``abs`` (libm
    ``hypot``), which can differ in the last bit and would move the step
    sizes.  A fresh stage buffer per trial means a rejected retry can
    never see stages of the trial it replaces.
    """
    K = np.empty((7, y.size), dtype=complex)
    K[0] = k1
    for i in range(1, 7):
        K[i] = rhs(y + h * (_A[i] @ K[:i]), *args)
    y_new = y + h * (_B5 @ K)
    if not np.isfinite(y_new).all():
        return y_new, None, None, math.nan
    abs_new = np.abs(y_new)
    scale = ctrl.abs_tol + ctrl.rel_tol * np.maximum(abs_y, abs_new)
    q = np.abs(h * (_E @ K) / scale) ** 2
    return y_new, K[6], abs_new, math.sqrt(float(np.add.reduce(q)) / q.size)


def _integrate_core(rhs, args, y0, t_end, ctrl: IntegratorControl,
                    h0: float, sample_hook=None):
    """Adaptive DP5(4) driver producing samples on the regular dt grid.

    ``rhs(y, *args) -> dy`` is the autonomous vector field on packed
    complex vectors.  Steps are clamped so they end exactly on the next
    grid point whenever they would cross it; every stored sample is
    therefore an integration node.  At most ``ctrl.max_steps`` trial
    steps (accepted plus rejected) are taken.

    A trial step whose new state or error estimate is not finite is
    rejected and retried from the same state with the smallest step
    factor; a second non-finite trial in a row raises
    :class:`NonFiniteStep`.

    ``sample_hook(t, y, k1) -> bool`` is called at each grid sample (not
    at t=0) with ``k1 = rhs(y)``, the FSAL stage the stepper already
    holds; returning True ends the run at that sample.  Invariant
    monitoring and quiescence detection are implemented as hooks by the
    callers.

    Returns (t_array, y_array, accepted, rejected, stopped_early).
    """
    dt = ctrl.dt
    n_grid = int(round(t_end / dt))
    if abs(n_grid * dt - t_end) > 1e-9 * max(1.0, t_end):
        # keep the final partial interval; sampling stays on the dt comb
        n_grid = int(math.floor(t_end / dt + 1e-12))
    grid = dt * np.arange(1, n_grid + 1)
    if n_grid == 0 or grid[-1] < t_end - 1e-12:
        grid = np.append(grid, t_end)

    t = 0.0
    y = np.array(y0, dtype=complex)
    ts, ys = [t], [y]
    abs_y = np.abs(y)
    k1 = rhs(y, *args)
    h = min(h0, grid[0])
    accepted = rejected = 0
    stopped = nonfinite = False

    for target in grid:
        while t < target - 1e-12 * max(1.0, target):
            h = min(h, target - t)
            if h < 1e-14 * max(1.0, t):
                raise StepSizeUnderflow(
                    f"step {h:.3e} underflowed at t={t:.6g}")
            if accepted + rejected >= ctrl.max_steps:
                raise IntegrationError(
                    f"step budget of {ctrl.max_steps} trial steps exhausted "
                    f"at t={t:.6g}")

            y_new, k7, abs_new, err = _dp5_step(rhs, args, y, k1, abs_y, h,
                                                ctrl)
            if not math.isfinite(err):
                if nonfinite:
                    raise NonFiniteStep(
                        f"two trial steps in a row from t={t:.6g} gave a "
                        f"non-finite state or error estimate (last step "
                        f"{h:.3e}): the vector field is not finite there")
                nonfinite = True
                rejected += 1
                h *= _MIN_FACTOR
                continue
            nonfinite = False
            if err <= 1.0:
                t_new = t + h
                # land exactly on the grid point when this step reaches it
                if t_new >= target - 1e-12 * max(1.0, target):
                    t_new = target
                t, y, k1, abs_y = t_new, y_new, k7, abs_new
                accepted += 1
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** -0.2))
                h *= max(_MIN_FACTOR, factor)
            else:
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

        ts.append(t)
        ys.append(y)        # never written in place: each step makes a new y
        if sample_hook is not None and sample_hook(t, y, k1):
            stopped = True
            break

    return (np.array(ts), np.array(ys).T, accepted, rejected, stopped)


class _Monitors:
    """Per-sample invariant check and quiescence detector.

    Trace and the quadratic invariant are basis independent, so the same
    checks apply to packed bare and bright/dark states.  Each sample is
    read once with ``y.tolist()`` and checked in Python complex
    arithmetic, which is cheaper than numpy scalars on six entries.  The
    ground-state filling rate d(rho11)/dt is slot 3 of the stage
    ``k1 = rhs(y)`` in either basis.
    """

    def __init__(self, ctrl, y0):
        y0 = y0.tolist()
        self.ctrl = ctrl
        self.trace0 = _trace(y0)
        self.quad0 = _quadratic(y0)
        self.armed = False
        self.last_loud = 0.0
        self.end_time = None

    def __call__(self, t, y, k1) -> bool:
        ctrl = self.ctrl
        y = y.tolist()
        trace = _trace(y)
        if abs(trace - self.trace0) > ctrl.invariant_tol:
            raise InvariantDrift(
                f"trace drifted by {abs(trace - self.trace0):.3e} at t={t:.4g} "
                f"(limit {ctrl.invariant_tol:g})")
        quad = _quadratic(y)
        if abs(quad - self.quad0) > ctrl.invariant_tol:
            raise InvariantDrift(
                f"quadratic invariant drifted by {abs(quad - self.quad0):.3e} "
                f"at t={t:.4g} (limit {ctrl.invariant_tol:g})")
        if not ctrl.stop_on_quiescence:
            return False
        if k1[3].real >= _QUIESCENCE_RATE:
            self.armed = True
            self.last_loud = t
        elif self.armed and t - self.last_loud >= _QUIESCENCE_WINDOW:
            self.end_time = t
            return True
        return False


def _drive(state0: DensityState, params: SystemParams, t_end: float,
           ctrl: IntegratorControl | None, rhs,
           frame=None) -> Trajectory:
    """Validate, step and sample; shared by both integration paths.

    ``rhs(y, omega32, delta_L, mu21, mu31)`` is the packed vector field
    the stepper advances; its slot 3 is d(rho11)/dt, which the
    quiescence detector reads from the stage handed to each sample.
    ``frame = (into, back)`` rotates the packed initial state into the
    frame of ``rhs`` and the sampled (6, N) trajectory back to the bare
    basis; None means the bare basis.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    ctrl = (ctrl or IntegratorControl()).validated()
    y0 = _pack(state0.validate())
    if frame is not None:
        y0 = frame[0](y0, params)
    monitors = _Monitors(ctrl, y0)
    t, y, acc, rej, stopped = _integrate_core(
        rhs, (params.omega32, params.delta_L, params.mu21, params.mu31), y0,
        t_end, ctrl, _initial_step(params.omega32), monitors)
    if frame is not None:
        y = frame[1](y, params)
    return Trajectory(t, y, params, ctrl, acc, rej,
                      monitors.end_time if stopped else None)


def integrate(state0: DensityState, params: SystemParams, t_end: float,
              ctrl: IntegratorControl | None = None) -> Trajectory:
    """Advance the RWA equations from ``state0`` to ``t_end``.

    Adaptive embedded Runge-Kutta 4(5); the trajectory is sampled on the
    regular grid ``ctrl.dt`` and each sample is an integration node (see
    :class:`IntegratorControl`).  Trace and the quadratic invariant are
    monitored at every sample; drift beyond ``ctrl.invariant_tol`` raises
    :class:`InvariantDrift`.  With ``stop_on_quiescence`` the run ends
    once d(rho11)/dt has stayed below 1e-8 for 10 tau_R after emission
    developed, which is what "final" populations refer to.
    """
    return _drive(state0, params, t_end, ctrl, _rhs)

"""RWA equations of motion, field reconstruction, and the time integrator.

The packed state holds the six independent density-matrix amplitudes in
the order

    [R31, R21, rho32, rho11, rho22, rho33]

as a complex array, with the populations in the real parts of the last
three slots; a trajectory is a (6, N) array of such columns.  The
stepper carries the same amplitudes as nine Python floats (see
:func:`_scalars`): the real and imaginary parts of R31, R21 and rho32,
then rho11, rho22 and rho33.  Its field writes each complex product out
on the parts, so a trial step runs on float arithmetic alone, which
CPython evaluates much faster than complex arithmetic; every nonzero part
has the bits the complex products give.

Time is in units of tau_R throughout (tau_R = 1).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import astuple, dataclass
from itertools import chain
from math import isfinite, sqrt
from typing import TYPE_CHECKING

import numpy as np

from ._dop853 import _extra_stages, _stages
from .params import (_BARE, DensityState, ParameterError, SystemParams,
                     _check_states, _det)

if TYPE_CHECKING:
    from .basis import BrightDarkState

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
    """Two trial steps in a row from the same state gave non-finite values,
    or the samples of a step with finite stages overflowed."""


class InvariantDrift(IntegrationError):
    """Trace, quadratic invariant or determinant drifted beyond
    ``_INVARIANT_TOL``."""


# emission is over once d(rho11)/dt stays below this rate for this long
_QUIESCENCE_RATE = 1e-8
_QUIESCENCE_WINDOW = 10.0
_CHECK_EVERY = 512     # most samples between checks of the invariants
_MAX_STEPS = 20_000_000  # trial steps, accepted plus rejected, of one run
_ABS_TOL = 1e-18       # error floor, far below rel_tol times the 1e-8 seeds
_INVARIANT_TOL = 1e-8  # allowed drift of trace, quadratic invariant, det
_MAX_SAMPLES = 10_000_000  # grid samples of one run, 96 bytes each stored


@dataclass(frozen=True)
class IntegratorControl:
    """Knobs of the adaptive stepper.

    rel_tol              error control per block: a step is accepted when
                         its error estimate, each slot weighed against
                         _ABS_TOL + rel_tol * M, is at most 1, where M is
                         the largest modulus in the slot's block, the
                         optical coherences, the upper doublet or rho11
                         (see _weights), so that the weights hardly
                         depend on the frame.  rel_tol must lie in
                         [1e-13, 1e-9]; looser values let the quadratic
                         invariant drift past _INVARIANT_TOL.  The
                         tests' accuracy gates hold only up to 1e-10:
                         at 1e-9 R31 and R21 are off by up to 7.5e-9
                         (bare) and 1.2e-8 (bright/dark) relative in
                         the linear stage, against a 2e-9 gate
    dt                   output grid spacing (time units of tau_R); error
                         control alone sets the steps, and samples inside
                         a step come from its continuous extension
    stop_on_quiescence   end the run early once emission is over:
                         d(rho11)/dt < 1e-8 sustained over a window of
                         10 tau_R, evaluated only after the rate has
                         reached 1e-8 at least once (otherwise an
                         undeveloped pulse would stop the run during its
                         quiet rise)

    The error floor ``_ABS_TOL`` (1e-18) and the drift bound
    ``_INVARIANT_TOL`` (1e-8) are fixed: a larger floor moves the linear
    stage, a tighter bound fails valid runs and a looser one hides drift.
    Construction, ``dataclasses.replace`` included, checks rel_tol and dt.
    """

    rel_tol: float = 1e-10
    dt: float = 0.01
    stop_on_quiescence: bool = True

    def __post_init__(self):
        if not 1e-13 <= self.rel_tol <= 1e-9:
            raise ValueError(
                f"rel_tol must lie in [1e-13, 1e-9], got {self.rel_tol!r}")
        if not 0 < self.dt < math.inf:    # nan fails every comparison
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")


def _constants(omega32, delta_L, mu21, mu31) -> tuple:
    """The arguments of :func:`_rhs` and :func:`_rate` after ``y``: the
    field's parameter-only factors, built once per run.  A sign a complex
    product would apply to a part is folded into its factor here, which
    keeps the bits: IEEE rounding is symmetric in sign."""
    half = 0.5 * omega32
    return (mu21, mu31, delta_L, half, -half, omega32, -omega32,
            delta_L * mu21, delta_L * mu31, -mu31, -2.0 * mu31, -2.0 * mu21)


def _rhs(y, mu21, mu31, dl, half, nhalf, w, nw, dl21, dl31, nmu31, n31,
         n21):
    """Vector field of a bare state, as a new list of nine floats.

    ``y`` is the stepper's form of the packed state (see :func:`_scalars`):
    any sequence of nine Python floats, the real and imaginary parts of
    R31, R21 and rho32, then rho11, rho22 and rho33; the other arguments
    are ``_constants(omega32, delta_L, mu21, mu31)``.  The result has the
    same form as ``y``, and it is a fresh list that callers may modify.
    This is the stepper's hot path, about 15 calls per step, so it runs
    on Python floats alone.

    With g = 1 - i delta_L and S = mu21 R21 + mu31 R31 the field is

        dR31/dt  = -i (omega32/2) R31 + g (mu31 (rho33 - rho11) + mu21 rho32) S
        dR21/dt  =  i (omega32/2) R21 + g (mu21 (rho22 - rho11)
                                           + mu31 conj(rho32)) S
        drho32/dt = -i omega32 rho32 - (conj(g) mu21 R31 conj(S)
                                        + g mu31 conj(R21) S)
        drho33/dt = -2 mu31 Re(g S conj(R31)),  likewise rho22 with mu21, R21
        drho11/dt = 2 |S|^2

    Each complex product a*b is written on the parts as
    (ar*br - ai*bi, ar*bi + ai*br) in the order of the complex
    expression, and a product with a real factor as two float products.
    Python's complex arithmetic also forms the products of a zero part,
    which change nothing but the sign of a zero result: every nonzero part
    keeps the bits of the complex expression.
    """
    R31r, R31i, R21r, R21i, r32r, r32i, r11, r22, r33 = y
    Sr = mu21 * R21r + mu31 * R31r       # emitted-field envelope S
    Si = mu21 * R21i + mu31 * R31i
    Br = mu31 * (r33 - r11) + mu21 * r32r
    Bi = mu21 * r32i
    gr, gi = Br + dl * Bi, Bi - dl * Br
    dR31r = half * R31i + (gr * Sr - gi * Si)
    dR31i = nhalf * R31r + (gr * Si + gi * Sr)
    Br = mu21 * (r22 - r11) + mu31 * r32r
    Bi = nmu31 * r32i
    gr, gi = Br + dl * Bi, Bi - dl * Br
    dR21r = nhalf * R21i + (gr * Sr - gi * Si)
    dR21i = half * R21r + (gr * Si + gi * Sr)
    Tr = mu21 * R31r - dl21 * R31i       # conj(g) mu21 R31
    Ti = mu21 * R31i + dl21 * R31r
    Ur = mu31 * R21r - dl31 * R21i       # g mu31 conj(R21) = Ur - i Wi
    Wi = mu31 * R21i + dl31 * R21r
    dr32r = w * r32i - ((Tr * Sr + Ti * Si) + (Ur * Sr + Wi * Si))
    dr32i = nw * r32r - ((Ti * Sr - Tr * Si) + (Ur * Si - Wi * Sr))
    gr, gi = Sr + dl * Si, Si - dl * Sr  # g S
    return [dR31r, dR31i, dR21r, dR21i, dr32r, dr32i,
            2.0 * (Sr * Sr + Si * Si),
            n21 * (gr * R21r + gi * R21i),
            n31 * (gr * R31r + gi * R31i)]


def _rate(y, mu21, mu31, *_):
    """d(rho11)/dt of each row of an (m, 6) block of packed bare states,
    as an array: the rho11 part of :func:`_rhs` bit for bit."""
    re, im = y.real, y.imag
    Sr = mu21 * re[:, 1] + mu31 * re[:, 0]
    Si = mu21 * im[:, 1] + mu31 * im[:, 0]
    return 2.0 * (Sr * Sr + Si * Si)


def _pack(state) -> np.ndarray:
    """Packed complex 6-vector of a DensityState or BrightDarkState."""
    return np.array(astuple(state), dtype=complex)


# the columns of a packed row's split parts that the stepper's nine floats
# fill: the three coherences' parts, then the populations' real parts
_SPLIT = [0, 1, 2, 3, 4, 5, 6, 8, 10]


def _scalars(y) -> list:
    """The stepper's form of a packed (6,) state: nine Python floats, the
    real and imaginary parts of the three coherences, then the three
    populations."""
    return np.ascontiguousarray(y, complex).view(float)[_SPLIT].tolist()


def _packed(v) -> np.ndarray:
    """The packed (6,) state of the stepper's nine floats ``v``, the
    inverse of :func:`_scalars`: the populations' imaginary parts are +0."""
    y = np.zeros(6, dtype=complex)
    y.view(float)[_SPLIT] = v
    return y


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
    (6, N) trajectory; basis independent, and 1 for a pure state.  The
    moduli are ``re*re + im*im``: numpy's complex ``abs`` rounds
    differently per SIMD level.
    """
    re, im = y.real, y.imag
    return (re[3] * re[3] + re[4] * re[4] + re[5] * re[5]
            + 2.0 * ((re[2] * re[2] + im[2] * im[2])
                     + (re[0] * re[0] + im[0] * im[0])
                     + (re[1] * re[1] + im[1] * im[1])))


def _physical(params: SystemParams) -> tuple:
    """``(omega32, delta_L, mu21, mu31)``, the arguments of the constants
    functions."""
    return params.omega32, params.delta_L, params.mu21, params.mu31


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
    return _unpack(_packed(_rhs(_scalars(_pack(state)),
                                *_constants(*_physical(params)))))


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

    t        sample times, strictly increasing: 0, then spacing
             ``control.dt``, and t_end where :func:`_sample_count` finds
             a partial last interval
    y        complex array of shape (6, len(t)) in packed order
    params   the :class:`SystemParams` the run used
    control  the :class:`IntegratorControl` the run used
    steps_accepted / steps_rejected / rhs_evals
             adaptive-stepper bookkeeping; rhs_evals counts every
             evaluation of the vector field, the machine-independent cost
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
    rhs_evals: int
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

    def validate(self) -> "Trajectory":
        """Times strictly increasing, every sample valid; returns self."""
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        _check_states(self.y, *_BARE)
        return self


# Dormand-Prince 8(5,3) (DOP853; Hairer, Norsett & Wanner, Solving ODEs I,
# section II.10).  A trial step runs on the stepper's nine floats, and its
# stage sums, new state and error estimates are straight-line arithmetic
# over the nonzero coefficients of each row of the table, float by float,
# in ascending stage order: the functions of _dop853, which
# tests/dop853_source.py writes from scipy's copy of the table.  So a trial
# step makes no array call, and its bits depend on no BLAS kernel or SIMD
# level.  The equations are autonomous, so the stage nodes c_i are not
# needed.
#
# Continuous extension of order 7: inside an accepted step the state at
# t + theta*h is y + h * (p_0 Q_0 + ... + p_6 Q_6), with p(theta) =
# (theta, theta(1-theta), ..., theta^4(1-theta)^3) and Q_r the stages K
# weighed by row r of _DENSE: y_new - y, h k1 - (y_new - y) and
# 2 (y_new - y) - h (k1 + k13), with _B the weights of y_new, then the
# published table, kept on the twelve stages some row weighs (_WEIGHED).
# _dense_chunk sums them for many steps at once, on the nine floats in an
# order fixed here, so like a trial step the samples depend on no BLAS
# kernel or SIMD level:
_B = np.array([
    5.42937341165687622380535766363e-2, 0, 0, 0, 0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2, 0, 0, 0, 0])
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0, 0, 0, 0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0, 0, 0, 0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0, 0, 0, 0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0, 0, 0, 0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])
_UNIT = np.eye(16)
_DENSE = np.vstack((_B, _UNIT[0] - _B, 2.0 * _B - _UNIT[0] - _UNIT[12], _D))
del _UNIT
_WEIGHED = np.flatnonzero(_DENSE.any(axis=0))     # stages 1 and 6 to 16
_DENSE = _DENSE[:, _WEIGHED]
_PACK_WEIGHED = struct.Struct(f"{9 * _WEIGHED.size}d").pack

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _initial_step(omega32: float) -> float:
    """Conservative first step: a small fraction of the fastest period."""
    return 1e-3 * min(2.0 * math.pi / max(abs(omega32), 1.0), 1.0)


def _factor(err: float) -> float:
    """Step-size factor SAFETY * err^(-1/8) of an error estimate of order
    7, through square roots: libm ``pow`` rounds differently per host."""
    return _SAFETY / sqrt(sqrt(sqrt(err)))


def _finite(y) -> bool:
    """Whether every float of a state or stage is finite."""
    return all(map(isfinite, y))


def _moduli(y):
    """The moduli of the six amplitudes of the stepper's nine floats, by
    + x and sqrt alone: libm ``hypot`` can round differently per host."""
    a0, b0, a1, b1, a2, b2, x3, x4, x5 = y
    return [sqrt(a0 * a0 + b0 * b0), sqrt(a1 * a1 + b1 * b1),
            sqrt(a2 * a2 + b2 * b2), abs(x3), abs(x4), abs(x5)]


def _weights(abs_y, abs_new, rel_tol) -> list:
    """The error weight of each slot, from the moduli of a step's two
    states, by block: with m_i = max(|y_i|, |y_new,i|), slots 0 and 1 (the
    optical coherences) share ``_ABS_TOL + rel_tol * max(m0, m1)``, slots
    2, 4 and 5 (the upper doublet) share ``_ABS_TOL + rel_tol *
    max(m2, m4, m5)``, and slot 3 (rho11) keeps its own.  The bright/dark
    rotation maps each block into itself and moves its largest modulus by
    at most a factor 2, so the weights hardly depend on the frame, and a
    slot near zero in one frame does not force short steps there."""
    m0, m1, m2, m3, m4, m5 = [a if a > b else b
                              for a, b in zip(abs_y, abs_new)]
    m24 = m2 if m2 > m4 else m4
    optical = _ABS_TOL + rel_tol * (m0 if m0 > m1 else m1)
    doublet = _ABS_TOL + rel_tol * (m24 if m24 > m5 else m5)
    return [optical, optical, doublet, _ABS_TOL + rel_tol * m3,
            doublet, doublet]


def _sum_squares(e, w) -> float:
    """|e_0 / w_0|^2 + ... + |e_5 / w_5|^2 of an error estimate ``e``, in
    the stepper's nine floats, and the six slots' weights ``w``, left to
    right in slot order."""
    a0, b0, a1, b1, a2, b2, x3, x4, x5 = e
    w0, w1, w2, w3, w4, w5 = w
    a0, b0, a1, b1 = a0 / w0, b0 / w0, a1 / w1, b1 / w1
    a2, b2, x3, x4, x5 = a2 / w2, b2 / w2, x3 / w3, x4 / w4, x5 / w5
    return ((a0 * a0 + b0 * b0) + (a1 * a1 + b1 * b1) + (a2 * a2 + b2 * b2)
            + x3 * x3 + x4 * x4 + x5 * x5)


def _dop853_step(rhs, args, y, k1, abs_y, h, ctrl: IntegratorControl):
    """One DOP853 trial step of size ``h`` from ``y``, where ``k1 = f(y)``
    and ``abs_y`` holds the moduli of y's six amplitudes (see
    :func:`_moduli`); states and stages are the stepper's nine floats (see
    :func:`_scalars`), so a trial step uses only float + - x / and sqrt.

    Returns ``(y_new, K, abs_new, err)``.  ``K`` is a fresh list of the 13
    stages k1 to k12 and ``f(y_new)``, the first stage of the next step
    (FSAL); :func:`_extra_stages` appends the three extra stages.
    ``abs_new``, the moduli of ``y_new``, is the next ``abs_y``.  When
    ``y_new`` or ``f(y_new)`` is not finite, ``abs_new`` is None and
    ``err`` nan.
    Otherwise ``err`` is the DOP853 error norm: with e5 and e3 the sums of
    squares of the 5th- and 3rd-order error estimates, each slot divided
    by its block weight (see :func:`_weights`): ``_ABS_TOL +
    ctrl.rel_tol * M``, where M is the largest max(|y_i|, |y_new,i|) over
    the slot's block (slots 0 and 1, slots 2, 4 and 5, or slot 3 alone);
    then ``err = h e5 / sqrt((e5 + 0.01 e3) * 6)``.  Fresh stages per trial
    mean a rejected retry can never see stages of the trial it replaces.
    """
    y_new, K, e5, e3 = _stages(rhs, args, y, k1, h)
    f_new = rhs(y_new, *args)
    K.append(f_new)
    if not (_finite(y_new) and _finite(f_new)):
        return y_new, K, None, math.nan
    abs_new = _moduli(y_new)
    w = _weights(abs_y, abs_new, ctrl.rel_tol)
    e5, e3 = _sum_squares(e5, w), _sum_squares(e3, w)
    if e5 == 0.0 and e3 == 0.0:
        return y_new, K, abs_new, 0.0
    return y_new, K, abs_new, h * e5 / sqrt((e5 + 0.01 * e3) * 6)


def _weighed(K) -> bytes:
    """The stages ``_WEIGHED`` (1 and 6 to 16) of a step's 16 stages
    ``K``, as the native doubles of their floats, stage by stage: packing
    them with ``struct`` costs about half of ``np.fromiter`` per float."""
    k1, _, _, _, _, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16 = K
    return _PACK_WEIGHED(*k1, *k6, *k7, *k8, *k9, *k10, *k11, *k12, *k13,
                         *k14, *k15, *k16)


def _dense_chunk(steps, grid):
    """The samples inside queued accepted steps, evaluated at once.

    ``steps`` holds ``(t, h, y, K, first, count)`` per step: its start,
    size, state and stages, and its samples' range in ``grid``.  Returns
    the samples' indices into ``grid`` and their states as an (M, 9)
    array of the stepper's nine floats.  Q_r sums the twelve weighed
    stages in stage order.  Rows 0 to 2 weigh zero only after their last
    nonzero weight, so on finite stages that can only turn a Q_r of -0
    into +0 where stage 1 is zero, and there rows 3 and 4 weigh stage 1
    with opposite signs: the samples keep the bits of the nonzero-only
    sums.  p_r = p_{r-1} * theta or * (1 - theta) as ``cumprod`` forms it.
    """
    t, h, y, K, first, count = zip(*steps)
    count = np.array(count)
    step = np.repeat(np.arange(count.size), count)
    at = np.arange(step.size) + np.repeat(
        np.array(first) - np.cumsum(count) + count, count)
    h = np.array(h)[step]
    theta = (grid[at] - np.array(t)[step]) / h
    K = np.frombuffer(b"".join(map(_weighed, K)))
    # stage-major, so the products run over contiguous (step, 9) planes
    K = K.reshape(-1, _WEIGHED.size, 9).transpose(1, 0, 2).copy()
    terms = _DENSE[:, :, None, None] * K        # (row, stage, step, 9)
    Q = terms[:, 0]
    for j in range(1, _WEIGHED.size):
        Q += terms[:, j]
    Q = np.take(Q, step, axis=1)        # a third of the time of Q[:, step]
    u = 1.0 - theta
    p = theta
    s = p[:, None] * Q[0]
    for r in range(1, 7):
        p = p * (u if r % 2 else theta)
        s += p[:, None] * Q[r]
    y = np.fromiter(chain.from_iterable(y), float, 9 * count.size)
    return at, y.reshape(-1, 9)[step] + h[:, None] * s


def _sample_count(t_end: float, dt: float) -> tuple[int, bool]:
    """Where a run to t_end on the grid dt ends, decided here only:
    ``(n_grid, partial)``, the number of grid times k*dt, k >= 1, up to
    t_end, and whether a partial last interval then ends on one more
    sample, at t_end.  A t_end within 1e-9*max(1, t_end) of a grid time
    k*dt, k >= 1, is that grid time.  Raises ValueError unless t_end is
    finite and > 0, and ParameterError, before anything is allocated,
    when t_end / dt exceeds ``_MAX_SAMPLES``."""
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if t_end / dt > _MAX_SAMPLES:
        raise ParameterError(
            f"dt = {dt:g} and t_end = {t_end:g} ask for {t_end / dt:.3g} "
            f"grid samples; at most {_MAX_SAMPLES} are allowed")
    n_grid = int(round(t_end / dt))
    if n_grid and abs(n_grid * dt - t_end) <= 1e-9 * max(1.0, t_end):
        return n_grid, False
    return int(math.floor(t_end / dt)), True


def _sample_times(t_end: float, dt: float) -> np.ndarray:
    """The sample times of a run to t_end on the grid dt: 0, the grid
    times k*dt, and t_end where :func:`_sample_count` finds a partial
    last interval."""
    n_grid, partial = _sample_count(t_end, dt)
    t = dt * np.arange(n_grid + 1)
    return np.append(t, t_end) if partial else t


def _check_invariants(t, y, y0, pairs) -> None:
    """Raise :class:`InvariantDrift` at the first of the packed (6, N)
    samples ``y`` at times ``t`` whose trace, quadratic invariant or
    determinant, all basis independent, is off that of ``y0`` by more
    than ``_INVARIANT_TOL``; ``pairs`` pairs the slots for
    :func:`params._det`."""
    tol = _INVARIANT_TOL
    drifts = (("trace", abs(_trace(y) - _trace(y0))),
              ("quadratic invariant", abs(_quadratic(y) - _quadratic(y0))),
              ("determinant", abs(_det(y, pairs) - _det(y0, pairs))))
    drifted = np.flatnonzero(np.any([d > tol for _, d in drifts], axis=0))
    if drifted.size:
        i = drifted[0]
        what, by = next((w, d[i]) for w, d in drifts if d[i] > tol)
        raise InvariantDrift(f"{what} drifted by {by:.3e} at "
                             f"t={t[i]:.4g} (limit {tol:g})")


class _Monitors:
    """Quiescence detector of :func:`_drive`: it reads d(rho11)/dt,
    ``rate(y)``, of each chunk of samples it is fed in one array pass."""

    def __init__(self, ctrl, rate):
        self.on = ctrl.stop_on_quiescence
        self.rate = rate
        self.armed = False
        self.ref = 0.0      # last loud sample once armed, else last fed
        self.end_time = None

    def due(self, t) -> bool:
        """Whether a sample at ``t`` could end the run: it must lie a
        window after the last loud sample, which is not before ``ref``."""
        return self.on and t - self.ref >= _QUIESCENCE_WINDOW

    def __call__(self, t, y) -> int | None:
        if not self.on:
            return None
        loud = self.rate(y) >= _QUIESCENCE_RATE
        # the last loud time up to each sample, where armed by then
        last = np.maximum.accumulate(np.where(loud, t, self.ref))
        armed = np.logical_or.accumulate(loud) | self.armed
        quiet = np.flatnonzero(armed & ~loud
                               & (t - last >= _QUIESCENCE_WINDOW))
        if quiet.size:
            self.end_time = float(t[quiet[0]])
            return int(quiet[0])
        self.armed = bool(armed[-1])
        self.ref = float(last[-1] if self.armed else t[-1])
        return None


def _drive(state0: DensityState | BrightDarkState, params: SystemParams,
           t_end: float, ctrl: IntegratorControl | None, constants, rhs, rate,
           pairs, on_final=None) -> Trajectory:
    """Validate, step with DOP853 and sample on the regular dt grid; the
    one driver of both integration paths.

    ``rhs(y, *args)`` is the autonomous vector field the stepper
    advances, on its nine floats (see :func:`_scalars`), where
    ``args = constants(omega32, delta_L, mu21, mu31)`` is built once per
    run; ``rate(block, *args)`` is its rho11 part, d(rho11)/dt, as an array
    over the rows of an (m, 6) block of packed states, which the
    quiescence detector, a :class:`_Monitors`, reads.  ``state0``, the
    samples and the checks of the invariants are in the frame of ``rhs``,
    whose slot pairing (see :func:`params._check_states`) is ``pairs``.

    The samples lie at :func:`_sample_times`.  Error control alone sets
    the step, from :func:`_initial_step` on; only the last step is
    shortened to end on the last sample.  A sample inside an accepted
    step is read from the step's continuous extension, so only steps
    that contain a sample before their end pay for its three extra
    stages.  At most ``_MAX_STEPS`` trial steps (accepted plus rejected)
    are taken.

    A trial step is rejected when anything it produced is not finite: the
    new state, the field there or an extra stage.  It is retried once,
    from the same state with the same step: the field is a polynomial, so
    a shorter step cannot step around a non-finite value, and only a
    transient fault passes on a retry, which then leaves the run exactly
    as if the fault had not happened.  A second non-finite trial in a row
    raises :class:`NonFiniteStep`.

    An accepted step queues its samples; :func:`_dense_chunk` evaluates
    the queue every ``_CHECK_EVERY`` samples, right after a step whose last
    sample could end the run (``monitors.due``), at the end, and before an
    :class:`IntegrationError` escapes.  With finite stages only overflow
    makes a sample non-finite, which raises :class:`NonFiniteStep`.  The
    first two feed the new samples to the quiescence detector, which
    returns the index of the sample that ends the run, or None; the
    samples up to it are kept.  :func:`_check_invariants` checks them at
    every flush, so drift before a fault is the error reported.  Once a
    flush in the loop has passed both, its samples and all before them
    are final, and ``on_final(rows)``, where given, gets a view of them:
    the (n, 6) block of their packed states from t = 0, one row each, as
    the run stores them.
    """
    ctrl = ctrl or IntegratorControl()
    y0 = _pack(state0.validate())
    args = constants(*_physical(params))
    monitors = _Monitors(ctrl, lambda y: rate(y, *args))
    budget = _MAX_STEPS
    t_out = _sample_times(t_end, ctrl.dt)
    grid = t_out[1:]
    times = grid.tolist()
    t_last = times[-1]

    ys = np.zeros((grid.size + 1, 6), dtype=complex)    # +0 imag parts
    ys[0] = y0
    t, y = 0.0, _scalars(ys[0])
    abs_y = _moduli(y)
    k1 = rhs(y, *args)
    evals = 1
    h = _initial_step(params.omega32)
    n = checked = 0         # samples stored after t = 0, and checked
    accepted = rejected = 0
    nonfinite = retried = False
    queue = []              # accepted steps whose samples wait for a flush

    def check(upto):
        nonlocal checked
        lo, checked = checked, upto
        _check_invariants(grid[lo:upto], ys[lo + 1:upto + 1].T, ys[0],
                          pairs)

    def flush():
        nonlocal n
        if not queue:
            return
        steps, queue[:] = queue[:], []
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            at, block = _dense_chunk(steps, grid)
        ys[1:].view(float)[at[:, None], _SPLIT] = block
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            bad = at[np.argmin(finite)]
            t_bad, h_bad, _, _, n, _ = next(
                s for s in reversed(steps) if s[4] <= bad)
            raise NonFiniteStep(f"the samples of the step from t={t_bad:.6g} "
                                f"(step {h_bad:.3e}) overflowed")

    try:
        while n < grid.size:
            last = t + h >= t_last - 1e-12 * max(1.0, t_last)
            if last:
                h = t_last - t
            if h < 1e-14 * max(1.0, t):
                raise StepSizeUnderflow(
                    f"step {h:.3e} underflowed at t={t:.6g}")
            if accepted + rejected >= budget:
                raise IntegrationError(
                    f"step budget of {budget} trial steps exhausted "
                    f"at t={t:.6g}")

            y_new, K, abs_new, err = _dop853_step(rhs, args, y, k1, abs_y,
                                                  h, ctrl)
            evals += 12
            if err <= 1.0:
                t_new = t_last if last else t + h
                # samples n .. end-1 lie in (t, t_new]; one at t_new is a node
                end = bisect_right(times, t_new, n)
                inner = end - n - (end > n and times[end - 1] == t_new)
                if inner:
                    _extra_stages(rhs, args, y, K, h)
                    evals += 3
                    if not all(map(_finite, K[13:])):
                        err = math.nan
            if not math.isfinite(err):
                if nonfinite:
                    raise NonFiniteStep(
                        f"two trial steps in a row from t={t:.6g} gave a non-"
                        f"finite state, stage or error estimate (last step "
                        f"{h:.3e}): the vector field is not finite there")
                nonfinite = True
                rejected += 1
                continue
            nonfinite = False
            if err > 1.0:
                retried = True
                rejected += 1
                h *= max(_MIN_FACTOR, _factor(err))
                continue

            accepted += 1
            if inner:
                queue.append((t, h, y, K, n, inner))
            if end > n + inner:
                ys[end].view(float)[_SPLIT] = y_new
            t, y, k1, abs_y = t_new, y_new, K[12], abs_new
            factor = (_MAX_FACTOR if err == 0.0
                      else min(_MAX_FACTOR, _factor(err)))
            # no growth straight after a rejection
            h *= min(1.0, factor) if retried else factor
            retried = False
            if end == n:
                continue
            n = end
            # the cadence bounds the work of an early drift
            if n - checked >= _CHECK_EVERY or monitors.due(times[n - 1]):
                flush()
                stop = monitors(grid[checked:n], ys[checked + 1:n + 1])
                if stop is not None:
                    n = checked + stop + 1
                    break
                check(n)
                if on_final is not None:
                    on_final(ys[:n + 1])
        flush()
    except IntegrationError:
        flush()         # a no-op when flush itself raised
        check(n)        # an empty range when check itself raised
        raise
    check(n)
    return Trajectory(t_out[:n + 1], ys[:n + 1].T, params, ctrl, accepted,
                      rejected, evals, monitors.end_time)


def integrate(state0: DensityState, params: SystemParams, t_end: float,
              ctrl: IntegratorControl | None = None, *,
              on_final=None) -> Trajectory:
    """Advance the RWA equations from ``state0`` to ``t_end``.

    Adaptive Runge-Kutta 8(5,3) (DOP853) with error control alone setting
    the step; the trajectory is sampled on the regular grid ``ctrl.dt``
    from the 7th-order continuous extension of each step (see
    :class:`IntegratorControl`).  Trace, quadratic invariant and
    determinant of the samples are checked 512 at a time, at the end of
    the run and when the stepper fails; drift beyond 1e-8 raises
    :class:`InvariantDrift`, naming the first drifted sample.  With
    ``stop_on_quiescence`` the run ends once d(rho11)/dt =
    2|mu21 R21 + mu31 R31|^2, computed from each sample, has stayed below
    1e-8 for 10 tau_R after emission developed, which is what "final"
    populations refer to.

    ``on_final(rows)``, where given, is called by the stepping driver,
    :func:`_drive`, after each check in the run that passes, with the
    samples that nothing later can change: an (n, 6) view of their
    packed states from t = 0, the transpose of the first n columns of the
    trajectory's ``y``, at the first n :func:`_sample_times`.  It is not
    called at the end; the returned trajectory holds every sample.
    """
    return _drive(state0, params, t_end, ctrl, _constants, _rhs, _rate,
                  _BARE[1], on_final=on_final)

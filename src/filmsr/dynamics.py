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
from bisect import bisect_right
from dataclasses import astuple, dataclass

import numpy as np

from .params import _BARE, DensityState, SystemParams, _check_states

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

    rel_tol / abs_tol    error control per component: a step is accepted
                         when its error estimate, weighed against
                         abs_tol + rel_tol * |y|, is at most 1.  rel_tol
                         must lie in [1e-13, 1e-9]; looser values let the
                         quadratic invariant drift past invariant_tol.
                         The default abs_tol lies far below rel_tol times
                         the 1e-8 seed coherences, so error control
                         follows their growth from the start
    invariant_tol        allowed drift of trace and quadratic invariant
    dt                   output grid spacing (time units of tau_R); error
                         control alone sets the steps, and samples inside
                         a step come from its continuous extension
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
    abs_tol: float = 1e-18
    invariant_tol: float = 1e-8
    dt: float = 0.01
    stop_on_quiescence: bool = True
    max_steps: int = 20_000_000

    def validated(self) -> "IntegratorControl":
        if not 1e-13 <= self.rel_tol <= 1e-9:
            raise ValueError(
                f"rel_tol must lie in [1e-13, 1e-9], got {self.rel_tol!r}")
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
    """Vector field of the packed bare state, as a new list of six numbers.

    This is the stepper's hot path, twelve calls per trial step, so it avoids
    numpy scalars: ``y.tolist()`` unpacks the state into Python complex
    numbers in one call and all arithmetic runs on those.  The result is
    bit for bit what the same expressions give on numpy scalars.  The
    fresh list goes into a stage row (``K[i] = ...``) with no array built
    for it, and callers may modify it.  The stepper (:func:`_dop853_step`)
    keeps the Butcher rows as complex128 and takes the moduli of its error
    norm with numpy's ``abs``.
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
    return [dR31, dR21, dr32, dr11, dr22, dr33]


def _rate(y, omega32, delta_L, mu21, mu31):
    """d(rho11)/dt of each row of an (m, 6) block of packed bare states,
    slot 3 of :func:`_rhs` bit for bit: on real and imaginary parts, since
    numpy's complex product can differ from Python's in the last bit."""
    re, im = y.real, y.imag
    Sr = mu21 * re[:, 1] + mu31 * re[:, 0]
    Si = mu21 * im[:, 1] + mu31 * im[:, 0]
    return 2.0 * (Sr * Sr + Si * Si)


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


# Dormand-Prince 8(5,3) coefficients (DOP853; Hairer, Norsett & Wanner,
# Solving ODEs I, section II.10), in the digits of the published table.
# Row i of _A makes stage i from the stages before it: rows 1 to 11 are
# the stages of a step, row 12 holds the 8th-order weights of the new
# state, whose field is the first stage of the next step (FSAL), and rows
# 13 to 15 are the extra stages of the continuous extension.  The
# equations are autonomous, so the stage nodes c_i are not needed.  The
# rows are complex128: the cast from float is exact, and numpy would
# otherwise repeat it in every stage product with the complex stage buffer.
_A = [np.array(row, dtype=complex) for row in (
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0,
     8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0, 0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0, 0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0, 0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0, 0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0, 0, 0, 0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2],
    [5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3],
    [3.18346481635021405060768473261e-2, 0, 0, 0, 0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0, 0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1],
    [-4.28896301583791923408573538692e-1, 0, 0, 0, 0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0, 0,
     0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138],
)]
_B = _A[12]
# the 5th- and 3rd-order error estimators of the combined error norm
_E5 = np.array([0.1312004499419488073250102996e-1, 0, 0, 0, 0,
                -0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290,
                0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1], dtype=complex)
_E3 = _B - np.array([0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
                     0.733846688281611857341361741547, 0, 0,
                     0.220588235294117647058823529412e-1], dtype=complex)
# Continuous extension of order 7: the state at t + theta*h is
# y + h * (p(theta) @ _DENSE @ K) over the 16 stages K, with
# p(theta) = (theta, theta(1-theta), theta^2(1-theta), ...,
# theta^4(1-theta)^3).  The first three rows of _DENSE weigh y_new - y,
# h k1 - (y_new - y) and 2 (y_new - y) - h (k1 + k12); the last four are
# the published table:
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
], dtype=complex)
_B16 = np.concatenate((_B, np.zeros(4)))
_UNIT = np.eye(16, dtype=complex)
_DENSE = np.vstack((_B16, _UNIT[0] - _B16, 2.0 * _B16 - _UNIT[0] - _UNIT[12],
                    _D))
del _B16, _UNIT

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0     # the error estimate is of order 7


def _initial_step(omega32: float) -> float:
    """Conservative first step: a small fraction of the fastest period."""
    return 1e-3 * min(2.0 * math.pi / max(abs(omega32), 1.0), 1.0)


def _add_scaled(y, h, s):
    """``y + h * s`` bit for bit, computed in place in the temporary ``s``."""
    s *= h
    s += y
    return s


def _dop853_step(rhs, args, y, k1, abs_y, h, ctrl: IntegratorControl):
    """One DOP853 trial step of size ``h`` from ``y``, where ``k1 = f(y)``
    and ``abs_y = |y|``.

    Returns ``(y_new, K, abs_new, err)``.  ``K`` is a fresh (16, n) stage
    buffer: rows 0 to 11 hold the stages, row 12 ``f(y_new)``, the first
    stage of the next step (FSAL), and rows 13 to 15 are left for
    :func:`_dense_samples`.  ``abs_new = |y_new|`` is the next ``abs_y``.
    When ``y_new`` or ``f(y_new)`` is not finite, ``abs_new`` is None and
    ``err`` nan.  Otherwise ``err`` is the DOP853 error norm: with e5 and
    e3 the sums of squares of the 5th- and 3rd-order error estimates,
    each divided by ``abs_tol + rel_tol * max(|y|, |y_new|)``,
    ``err = h e5 / sqrt((e5 + 0.01 e3) * n)``.  The moduli are numpy's
    complex abs, not Python's ``abs`` (libm ``hypot``), which can differ
    in the last bit.  A fresh stage buffer per trial means a rejected
    retry can never see stages of the trial it replaces.
    """
    K = np.empty((16, y.size), dtype=complex)
    K[0] = k1
    for i in range(1, 12):
        K[i] = rhs(_add_scaled(y, h, _A[i].dot(K[:i])), *args)
    y_new = _add_scaled(y, h, _B.dot(K[:12]))
    K[12] = rhs(y_new, *args)
    if not (np.isfinite(y_new).all() and np.isfinite(K[12]).all()):
        return y_new, K, None, math.nan
    abs_new = np.abs(y_new)
    scale = ctrl.abs_tol + ctrl.rel_tol * np.maximum(abs_y, abs_new)
    # two row products: one (2, 12) matrix product rounds differently
    est = np.array((_E5.dot(K[:12]), _E3.dot(K[:12]))) / scale
    e5, e3 = (np.abs(est) ** 2).sum(axis=1).tolist()
    if e5 == 0.0 and e3 == 0.0:
        return y_new, K, abs_new, 0.0
    return y_new, K, abs_new, h * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)


def _dense_samples(rhs, args, y, K, h, theta):
    """States at ``t + theta * h`` inside an accepted step from ``y``.

    ``K`` is the step's stage buffer from :func:`_dop853_step`; its three
    extra stages are computed here, once, into rows 13 to 15.  ``theta``
    is an array of fractions in (0, 1); the result has one row per
    fraction and is evaluated in one array expression.
    """
    for i in range(13, 16):
        K[i] = rhs(_add_scaled(y, h, _A[i].dot(K[:i])), *args)
    p = np.empty((theta.size, 7))
    p[:, 0::2] = theta[:, None]
    p[:, 1::2] = (1.0 - theta)[:, None]
    return _add_scaled(y, h, np.cumprod(p, axis=1).dot(_DENSE.dot(K)))


def _integrate_core(rhs, args, y0, t_end, ctrl: IntegratorControl,
                    h0: float, sample_hook):
    """Adaptive DOP853 driver producing samples on the regular dt grid.

    ``rhs(y, *args) -> dy`` is the autonomous vector field on packed
    complex vectors.  Error control alone sets the step; only the last
    step is shortened to end on the last sample.  A sample inside an
    accepted step is read from the step's continuous extension, so only
    steps that contain a sample before their end pay for its three extra
    stages.  At most ``ctrl.max_steps`` trial steps (accepted plus
    rejected) are taken.

    A trial step is rejected when anything it produced is not finite: the
    new state, the field there, an extra stage or a sample.  It is
    retried once, from the same state with the same step: the field is a
    polynomial, so a shorter step cannot step around a non-finite value,
    and only a transient fault passes on a retry, which then leaves the
    run exactly as if the fault had not happened.  A second non-finite
    trial in a row raises :class:`NonFiniteStep`, so no stored sample is
    ever non-finite.

    ``sample_hook(t, y)`` is called once per accepted step that holds
    samples (none at t=0), with their times as a list and their states as
    an (m, 6) block; it returns the index in the block of the sample that
    ends the run, or None.  The samples up to that one are kept, and
    :func:`_check_invariants` checks them every 512 samples, when the run
    ends and before an :class:`IntegrationError` of the stepper escapes,
    so drift in the samples before a fault is the error the run reports.

    Returns (t_array, y_array, accepted, rejected, rhs_evals);
    ``rhs_evals`` counts every call of ``rhs``.
    """
    dt = ctrl.dt
    n_grid = int(round(t_end / dt))
    if abs(n_grid * dt - t_end) > 1e-9 * max(1.0, t_end):
        # keep the final partial interval; sampling stays on the dt comb
        n_grid = int(math.floor(t_end / dt + 1e-12))
    grid = dt * np.arange(1, n_grid + 1)
    if n_grid == 0 or grid[-1] < t_end - 1e-12:
        grid = np.append(grid, t_end)
    times = grid.tolist()
    t_last = times[-1]

    ys = np.empty((grid.size + 1, np.size(y0)), dtype=complex)
    ys[0] = y0
    t, y = 0.0, ys[0]
    abs_y = np.abs(y)
    k1 = rhs(y, *args)
    evals = 1
    h = h0
    n = checked = 0         # samples stored after t = 0, and checked
    accepted = rejected = 0
    nonfinite = retried = False

    def check(upto):
        nonlocal checked
        lo, checked = checked, upto
        _check_invariants(grid[lo:upto], ys[lo + 1:upto + 1].T, ys[0], ctrl)

    try:
        while n < grid.size:
            last = t + h >= t_last - 1e-12 * max(1.0, t_last)
            if last:
                h = t_last - t
            if h < 1e-14 * max(1.0, t):
                raise StepSizeUnderflow(
                    f"step {h:.3e} underflowed at t={t:.6g}")
            if accepted + rejected >= ctrl.max_steps:
                raise IntegrationError(
                    f"step budget of {ctrl.max_steps} trial steps exhausted "
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
                    block = _dense_samples(rhs, args, y, K, h,
                                           (grid[n:n + inner] - t) / h)
                    evals += 3
                    if not (np.isfinite(K[13:]).all()
                            and np.isfinite(block).all()):
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
                h *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
                continue

            accepted += 1
            if inner:
                ys[n + 1:n + 1 + inner] = block
            if end > n + inner:
                ys[end] = y_new
            t, y, k1, abs_y = t_new, y_new, K[12], abs_new
            factor = (_MAX_FACTOR if err == 0.0
                      else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
            # no growth straight after a rejection
            h *= min(1.0, factor) if retried else factor
            retried = False
            if end > n:
                stop = sample_hook(times[n:end], ys[n + 1:end + 1])
                if stop is not None:
                    n += stop + 1
                    break
            n = end
            if n - checked >= 512:  # bounds the work of an early drift
                check(n)
    except IntegrationError:
        check(n)        # an empty range when check itself raised
        raise
    check(n)
    return np.append(0.0, grid[:n]), ys[:n + 1].T, accepted, rejected, evals


def _check_invariants(t, y, y0, ctrl: IntegratorControl) -> None:
    """Raise :class:`InvariantDrift` at the first of the packed (6, N)
    samples ``y`` at times ``t`` whose trace or quadratic invariant, both
    basis independent, is off that of ``y0`` by more than the bound."""
    tol = ctrl.invariant_tol
    trace = abs(_trace(y) - _trace(y0))
    quad = abs(_quadratic(y) - _quadratic(y0))
    drifted = np.flatnonzero((trace > tol) | (quad > tol))
    if drifted.size:
        i = drifted[0]
        what, by = (("trace", trace[i]) if trace[i] > tol
                    else ("quadratic invariant", quad[i]))
        raise InvariantDrift(f"{what} drifted by {by:.3e} at "
                             f"t={t[i]:.4g} (limit {tol:g})")


class _Monitors:
    """Quiescence detector: the sample hook of _integrate_core.

    Once per accepted step it reads d(rho11)/dt of the step's block,
    ``rate(y)``, in one array expression, and advances its state sample
    by sample.
    """

    def __init__(self, ctrl, rate):
        self.ctrl = ctrl
        self.rate = rate
        self.armed = False
        self.last_loud = 0.0
        self.end_time = None

    def __call__(self, t, y) -> int | None:
        if not self.ctrl.stop_on_quiescence:
            return None
        for i, (ti, rate) in enumerate(zip(t, self.rate(y).tolist())):
            if rate >= _QUIESCENCE_RATE:
                self.armed = True
                self.last_loud = ti
            elif self.armed and ti - self.last_loud >= _QUIESCENCE_WINDOW:
                self.end_time = ti
                return i
        return None


def _drive(state0: DensityState, params: SystemParams, t_end: float,
           ctrl: IntegratorControl | None, rhs, rate,
           frame=None) -> Trajectory:
    """Validate, step and sample; shared by both integration paths.

    ``rhs(y, omega32, delta_L, mu21, mu31)`` is the packed vector field
    the stepper advances; ``rate`` with the same arguments is its slot 3,
    d(rho11)/dt, for each row of an (m, 6) block of states, which the
    quiescence detector reads once per accepted step; the invariants are
    checked in the frame of ``rhs``.  ``frame = (into, back)`` rotates
    the packed initial state into that frame and the sampled (6, N)
    trajectory back to the bare basis; None means the bare basis.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    ctrl = (ctrl or IntegratorControl()).validated()
    y0 = _pack(state0.validate())
    if frame is not None:
        y0 = frame[0](y0, params)
    args = (params.omega32, params.delta_L, params.mu21, params.mu31)
    monitors = _Monitors(ctrl, lambda y: rate(y, *args))
    t, y, acc, rej, evals = _integrate_core(
        rhs, args, y0, t_end, ctrl, _initial_step(params.omega32), monitors)
    if frame is not None:
        y = frame[1](y, params)
    return Trajectory(t, y, params, ctrl, acc, rej, evals, monitors.end_time)


def integrate(state0: DensityState, params: SystemParams, t_end: float,
              ctrl: IntegratorControl | None = None) -> Trajectory:
    """Advance the RWA equations from ``state0`` to ``t_end``.

    Adaptive Runge-Kutta 8(5,3) (DOP853) with error control alone setting
    the step; the trajectory is sampled on the regular grid ``ctrl.dt``
    from the 7th-order continuous extension of each step (see
    :class:`IntegratorControl`).  Trace and the quadratic invariant of
    the samples are checked 512 at a time, at the end of the run and when
    the stepper fails; drift beyond ``ctrl.invariant_tol`` raises
    :class:`InvariantDrift`, naming the first drifted sample.  With
    ``stop_on_quiescence`` the run ends once d(rho11)/dt =
    2|mu21 R21 + mu31 R31|^2, computed from each sample, has stayed below
    1e-8 for 10 tau_R after emission developed, which is what "final"
    populations refer to.
    """
    return _drive(state0, params, t_end, ctrl, _rhs, _rate)

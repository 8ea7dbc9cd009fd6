"""Bright/dark doublet basis: transforms and the equations of motion there.

The radiating (bright) and non-radiating (dark) superpositions of the
upper doublet are

    |+> = (mu21 |2> + mu31 |3>) / sqrt(2)
    |-> = (mu21 |3> - mu31 |2>) / sqrt(2)

which is unitary because the transition moments are normalised to
mu21^2 + mu31^2 = 2.  Only the bright coherence R_plus1 couples to the
field; the doublet splitting omega32 mixes the two channels.

Integrating in this basis is an independent consistency path:
:func:`integrate_bright_dark` rotates the initial state, advances it with
the field of :func:`rhs_bright_dark` and rotates the samples back.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .dynamics import (IntegratorControl, Trajectory, _drive, _pack,
                       _packed, _scalars, _unpack)
from .params import DensityState, SystemParams, _check_states

__all__ = [
    "BrightDarkState",
    "to_bright_dark",
    "from_bright_dark",
    "rhs_bright_dark",
    "integrate_bright_dark",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class BrightDarkState:
    """Density-matrix amplitudes in the bright/dark doublet basis.

    Also carries time derivatives (see :func:`rhs_bright_dark`); only
    states are meant to pass :meth:`validate`.
    """

    R_plus1: complex
    R_minus1: complex
    rho_pm: complex
    rho_11: float
    rho_pp: float
    rho_mm: float

    def validate(self) -> "BrightDarkState":
        """As ``DensityState.validate``, with R_plus1 paired with rho_pp and
        R_minus1 with rho_mm; returns self."""
        _check_states(astuple(self), *_BRIGHT_DARK)
        return self


# names and slot pairing of the bright/dark basis, as params._BARE
_BRIGHT_DARK = (tuple(f.name for f in fields(BrightDarkState)), (4, 5))


def _bare_to_bd(y, params: SystemParams) -> np.ndarray:
    """Rotate packed bare states, shape (6,) or (6, N), to bright/dark."""
    m21, m31 = params.mu21, params.mu31
    r22, r33, r32 = y[4].real, y[5].real, y[2]
    out = np.empty(np.shape(y), dtype=complex)
    out[0] = (m21 * y[1] + m31 * y[0]) * _INV_SQRT2
    out[1] = (m21 * y[0] - m31 * y[1]) * _INV_SQRT2
    out[2] = 0.5 * (m21 * m31 * (r33 - r22)
                    + m21 ** 2 * r32.conjugate() - m31 ** 2 * r32)
    out[3] = y[3].real
    out[4] = 0.5 * (m21 ** 2 * r22 + m31 ** 2 * r33
                    + 2.0 * m21 * m31 * r32.real)
    out[5] = 0.5 * (m21 ** 2 * r33 + m31 ** 2 * r22
                    - 2.0 * m21 * m31 * r32.real)
    return out


def _bd_to_bare(y, params: SystemParams) -> np.ndarray:
    """Exact inverse of :func:`_bare_to_bd`, on (6,) or (6, N) arrays."""
    m21, m31 = params.mu21, params.mu31
    a = m21 * m31
    b = 0.5 * (m21 ** 2 - m31 ** 2)
    rpp, rmm, rpm = y[4].real, y[5].real, y[2]
    s = rpp + rmm
    d1 = rpp - rmm
    u = b * d1 - 2.0 * a * rpm.real        # rho22 - rho33
    out = np.empty(np.shape(y), dtype=complex)
    out[0] = (m31 * y[0] + m21 * y[1]) * _INV_SQRT2
    out[1] = (m21 * y[0] - m31 * y[1]) * _INV_SQRT2
    out.real[2] = 0.5 * a * d1 + b * rpm.real
    out.imag[2] = -rpm.imag
    out[3] = y[3].real
    out[4] = 0.5 * (s + u)
    out[5] = 0.5 * (s - u)
    return out


def to_bright_dark(state: DensityState, params: SystemParams) -> BrightDarkState:
    """Rotate a bare-basis state (or derivative) into the bright/dark basis."""
    return _unpack(_bare_to_bd(_pack(state), params), BrightDarkState)


def from_bright_dark(bd: BrightDarkState, params: SystemParams) -> DensityState:
    """Rotate back to the bare basis (exact inverse of :func:`to_bright_dark`)."""
    return _unpack(_bd_to_bare(_pack(bd), params))


def _constants_bd(omega32, delta_L, mu21, mu31) -> tuple:
    """The arguments of :func:`_rhs_bd` and :func:`_rate_bd` after ``y``,
    built once per run, in the manner of :func:`dynamics._constants`."""
    b2 = mu21 ** 2 - mu31 ** 2
    a = mu21 * mu31
    quarter, half = 0.25 * omega32, 0.5 * omega32
    return (quarter, -quarter, -b2, b2, 2.0 * a, -2.0 * delta_L, half, -half,
            a, omega32 * a)


def _rhs_bd(y, quarter, nquarter, nb2, b2, two_a, n2dl, half, nhalf, a, wa):
    """Bright/dark vector field: [R+1, R-1, rho_pm, rho11, rho_pp, rho_mm].

    The same contract as :func:`dynamics._rhs`: ``y`` is nine Python
    floats, the parts of R+1, R-1 and rho_pm, then the populations, the
    other arguments are ``_constants_bd(omega32, delta_L, mu21, mu31)``,
    and a new list of the nine derivatives in the form of ``y`` comes
    back.  With b2 = mu21^2 - mu31^2, a = mu21 mu31 and g = 1 - i delta_L
    the field is

        dR+1/dt  = -i (omega32/4) (-b2 R+1 + 2a R-1) + 2g (rho_pp - rho11) R+1
        dR-1/dt  = -i (omega32/4) (b2 R-1 + 2a R+1) + 2g R+1 conj(rho_pm)
        drho_pm/dt = i (omega32/2) (b2 rho_pm + a (rho_pp - rho_mm))
                     - 2g R+1 conj(R-1)
        drho11/dt = 4 |R+1|^2,  drho_mm/dt = omega32 a Im(rho_pm)

    and drho_pp/dt takes the rest; the complex products are written on
    the parts as in :func:`dynamics._rhs`, with the same bits.
    """
    Rpr, Rpi, Rmr, Rmi, rpmr, rpmi, r11, rpp, rmm = y
    Xr = nb2 * Rpr + two_a * Rmr
    Xi = nb2 * Rpi + two_a * Rmi
    d = rpp - r11
    Gr, Gi = 2.0 * d, n2dl * d           # 2g (rho_pp - rho11)
    Yr = b2 * Rmr + two_a * Rpr
    Yi = b2 * Rmi + two_a * Rpi
    Hr = 2.0 * Rpr - n2dl * Rpi          # 2g R+1
    Hi = 2.0 * Rpi + n2dl * Rpr
    e = rpp - rmm
    Zr = b2 * rpmr + a * e
    Zi = b2 * rpmi
    pump = 4.0 * (Rpr * Rpr + Rpi * Rpi)     # d(rho11)/dt
    mix = wa * rpmi                          # doublet-splitting exchange
    return [quarter * Xi + (Gr * Rpr - Gi * Rpi),
            nquarter * Xr + (Gr * Rpi + Gi * Rpr),
            quarter * Yi + (Hr * rpmr + Hi * rpmi),
            nquarter * Yr + (Hi * rpmr - Hr * rpmi),
            nhalf * Zi - (Hr * Rmr + Hi * Rmi),
            half * Zr + (Hr * Rmi - Hi * Rmr),
            pump, -mix - pump, mix]


def _rate_bd(y, *_):
    """d(rho11)/dt of each row of an (m, 6) block of packed bright/dark
    states, as an array: the rho11 part of :func:`_rhs_bd` bit for bit, as
    ``re*re + im*im`` of the row's R+1 (see :func:`dynamics._rate`)."""
    re, im = y.real[:, 0], y.imag[:, 0]
    return 4.0 * (re * re + im * im)


def rhs_bright_dark(bd: BrightDarkState,
                    params: SystemParams) -> BrightDarkState:
    """Equations of motion expressed directly in the bright/dark basis.

    The time derivative comes back in the state's own fields.  The
    bright channel pumps the ground state at rate 4|R_plus1|^2; the
    dark channel only moves via the omega32 mixing term and (for
    unbalanced moments) the coherence rho_pm.  This is the pushforward of
    the bare-basis vector field under the basis rotation.
    """
    return _unpack(_packed(_rhs_bd(_scalars(_pack(bd)),
                                   *_constants_bd(*astuple(params)))),
                   BrightDarkState)


def integrate_bright_dark(state0: DensityState, params: SystemParams,
                          t_end: float,
                          ctrl: IntegratorControl | None = None) -> Trajectory:
    """Advance the motion in the bright/dark basis; return bare-basis samples.

    The bare ``state0`` is validated, once, before it is rotated, so its
    errors name bare fields.  The stepping driver of
    :func:`dynamics.integrate`, ``_drive``, then advances its rotation, so
    the two paths are directly comparable sample by sample, and the
    samples are rotated back to the bare basis.
    """
    y0 = _bare_to_bd(_pack(state0.validate()), params)
    traj = _drive(y0, params, t_end, ctrl, _constants_bd, _rhs_bd, _rate_bd,
                  _BRIGHT_DARK[1])
    return replace(traj, y=_bd_to_bare(traj.y, params))

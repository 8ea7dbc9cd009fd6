"""Bright/dark doublet basis: transforms and the equations of motion there.

The radiating (bright) and non-radiating (dark) superpositions of the
upper doublet are

    |+> = (mu21 |2> + mu31 |3>) / sqrt(2)
    |-> = (mu21 |3> - mu31 |2>) / sqrt(2)

which is unitary because the transition moments are normalised to
mu21^2 + mu31^2 = 2.  Only the bright coherence R_plus1 couples to the
field; the doublet splitting omega32 mixes the two channels.

Integrating in this basis is an independent consistency path: transform
the initial state, advance with :func:`rhs_bright_dark`, and map back.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .dynamics import (IntegratorControl, Trajectory, _drive, _pack,
                       _physical, _scalars, _unpack)
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
    return (-0.25j * omega32, -b2, b2, 2.0 * a, 2.0 * complex(1.0, -delta_L),
            0.5j * omega32, a, 2.0 * (-1.0 + 1j * delta_L), omega32 * a)


def _rhs_bd(y, q, nb2, b2, two_a, two_g, w, a, two_c, wa):
    """Bright/dark vector field: [R+1, R-1, rho_pm, rho11, rho_pp, rho_mm].

    The same contract as :func:`dynamics._rhs`: ``y`` is six Python
    numbers, R+1, R-1 and rho_pm complex, then the populations float, the
    other arguments are ``_constants_bd(omega32, delta_L, mu21, mu31)``,
    and a new list of the six derivatives in the form of ``y`` comes back.
    """
    Rp, Rm, rpm, r11, rpp, rmm = y
    dRp = q * (nb2 * Rp + two_a * Rm) + two_g * (rpp - r11) * Rp
    dRm = q * (b2 * Rm + two_a * Rp) + two_g * Rp * rpm.conjugate()
    drpm = w * (b2 * rpm + a * (rpp - rmm)) + two_c * Rp * Rm.conjugate()
    pump = 4.0 * (Rp * Rp.conjugate()).real      # d(rho11)/dt
    mix = wa * rpm.imag                          # doublet-splitting exchange
    drpp = -mix - pump
    drmm = mix
    dr11 = pump
    return [dRp, dRm, drpm, dr11, drpp, drmm]


def _rate_bd(y, *_):
    """d(rho11)/dt of each row of an (m, 6) block of packed bright/dark
    states, as an array: slot 3 of :func:`_rhs_bd` bit for bit, as
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
    return _unpack(_rhs_bd(_scalars(_pack(bd)),
                           *_constants_bd(*_physical(params))),
                   BrightDarkState)


def integrate_bright_dark(state0: DensityState, params: SystemParams,
                          t_end: float,
                          ctrl: IntegratorControl | None = None) -> Trajectory:
    """Advance the motion in the bright/dark basis; return bare-basis samples.

    Runs the stepping driver of :func:`dynamics.integrate`, ``_drive``,
    so the two paths are directly comparable sample by sample.  The
    returned :class:`Trajectory` is already rotated back to the bare
    basis.
    """
    return _drive(state0, params, t_end, ctrl, _constants_bd, _rhs_bd,
                  _rate_bd, _BRIGHT_DARK[1], (_bare_to_bd, _bd_to_bare))

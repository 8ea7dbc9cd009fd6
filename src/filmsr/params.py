"""Dimensionless parameters, physical-unit conversion, and validated states.

Everything the simulator touches is dimensionless, with the collective
(superradiant) time constant tau_R as the unit of time.  The conversion
between laboratory (CGS) inputs and the dimensionless parameter set lives
entirely in :func:`derive_dimensionless` and :func:`estimate_timescales`;
no other part of the package knows about seconds or centimetres.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

__all__ = [
    "ParameterError",
    "NormalizationViolation",
    "NegativeLfc",
    "FilmTooThick",
    "TraceViolation",
    "PositivityViolation",
    "SystemParams",
    "PhysicalInputs",
    "DensityState",
    "make_params",
    "derive_dimensionless",
    "estimate_timescales",
    "initial_state",
    "POSITIVITY_TOL",
    "HBAR_CGS",
]

#: Planck constant / 2 pi, erg s (CGS).
HBAR_CGS = 1.0545718e-27

#: Slack allowed on the Cauchy-Schwarz (positivity) inequalities of a
#: single-emitter density matrix.  Matches the tolerance class of the
#: default integrator settings.
POSITIVITY_TOL = 1e-9


class ParameterError(ValueError):
    """Base class for all input-validation failures."""


class NormalizationViolation(ParameterError):
    """Dipole ratios must satisfy mu21**2 + mu31**2 = 2 and be nonnegative."""


class NegativeLfc(ParameterError):
    """The local-field correction magnitude delta_L must be >= 0."""


class FilmTooThick(ParameterError):
    """k_c * L >= 1: the ultrathin-film (sub-wavelength) condition fails."""


class TraceViolation(ParameterError):
    """Populations do not add up to one."""


class PositivityViolation(ParameterError):
    """State violates positivity of the single-emitter density matrix."""


def _require_finite(name, value):
    if not cmath.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless parameters of the emitting film.

    omega32  doublet splitting omega3 - omega2, units of 1/tau_R
    delta_L  local-field (Lorentz) correction magnitude, units of 1/tau_R
    mu21     normalized dipole moment d21/d of the 2->1 transition
    mu31     normalized dipole moment d31/d of the 3->1 transition

    The normalization d = sqrt((d31**2 + d21**2)/2) forces
    mu21**2 + mu31**2 = 2.  Construction, ``dataclasses.replace`` included,
    checks the values as given: finite (else ParameterError), delta_L >= 0
    (NegativeLfc), dipole ratios >= 0 and within 1e-9 of that norm
    (NormalizationViolation).  It then stores them as floats.  The field
    order is the argument order of the field's constants functions, which
    take ``*astuple(params)``.
    """

    omega32: float
    delta_L: float
    mu21: float = 1.0
    mu31: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            _require_finite(name, value)
        if self.delta_L < 0:
            raise NegativeLfc(f"delta_L must be >= 0, got {self.delta_L}")
        if self.mu21 < 0 or self.mu31 < 0:
            raise NormalizationViolation(
                f"dipole ratios must be nonnegative, got mu21={self.mu21}, "
                f"mu31={self.mu31}")
        norm = self.mu21 * self.mu21 + self.mu31 * self.mu31
        if abs(norm - 2.0) > 1e-9:
            raise NormalizationViolation(
                f"mu21**2 + mu31**2 = {norm!r}, expected 2 (within 1e-9)")
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, float(value))


#: The constructor of :class:`SystemParams` under its older name.
make_params = SystemParams


@dataclass(frozen=True)
class PhysicalInputs:
    """Laboratory-frame description of the film, CGS units.

    wavelength_c   central emission wavelength lambda_c (cm)
    thickness      film thickness L (cm); the ultrathin condition is
                   k_c * L = 2 pi L / lambda_c < 1
    dipole21       transition dipole moment d21 (statC cm)
    dipole31       transition dipole moment d31 (statC cm)
    concentration  emitter number density N0 (cm^-3)
    tau0           single-emitter spontaneous lifetime (s); used only by
                   :func:`estimate_timescales`

    Construction does not check the thin-film condition: the timescale
    estimator deliberately accepts thicker films, while
    :func:`derive_dimensionless` enforces k_c * L < 1.
    """

    wavelength_c: float
    thickness: float
    dipole21: float
    dipole31: float
    concentration: float
    tau0: float

    def __post_init__(self):
        for name, value in vars(self).items():
            _require_finite(name, value)
            if value <= 0:
                raise ParameterError(f"{name} must be > 0, got {value}")

    @property
    def kc_L(self) -> float:
        """Dimensionless product k_c * L = 2 pi L / lambda_c."""
        return 2.0 * math.pi * self.thickness / self.wavelength_c

    @property
    def mean_dipole(self) -> float:
        """RMS dipole d = sqrt((d31**2 + d21**2)/2)."""
        return math.sqrt((self.dipole31 ** 2 + self.dipole21 ** 2) / 2.0)


def derive_dimensionless(phys: PhysicalInputs, omega32_rad_s: float = 0.0):
    """Convert physical film data to (SystemParams, tau_R in seconds).

    The collective time constant follows from
    1/tau_R = 2 pi k_c L d**2 N0 / hbar, and the local-field magnitude
    from Delta_L = 4 pi d**2 N0 / (3 hbar).  Their dimensionless product
    is therefore fixed by geometry alone:

        Delta_L * tau_R = 2 / (3 k_c L)

    which this routine satisfies exactly by construction.  The physical
    inputs carry no doublet splitting, so ``omega32_rad_s`` (angular
    frequency, rad/s) must be supplied separately when a nondegenerate
    doublet is wanted; it defaults to zero.

    Raises FilmTooThick when k_c * L >= 1.
    """
    kcl = phys.kc_L
    if kcl >= 1.0:
        raise FilmTooThick(
            f"k_c * L = {kcl:.4g} >= 1; not an ultrathin film")
    d2 = phys.mean_dipole ** 2
    tau_R = HBAR_CGS / (2.0 * math.pi * kcl * d2 * phys.concentration)
    delta_L = 2.0 / (3.0 * kcl)  # Delta_L in units of 1/tau_R, exact
    d = phys.mean_dipole
    params = SystemParams(omega32_rad_s * tau_R, delta_L,
                          phys.dipole21 / d, phys.dipole31 / d)
    return params, tau_R


def estimate_timescales(phys: PhysicalInputs) -> dict:
    """Estimate tau_R from single-emitter data.

    Uses tau_R = (8 pi / 3) (N0 lambda_c**3)**-1 (lambda_c / L) tau0,
    which trades the dipole moment for the measured spontaneous lifetime
    tau0.  Unlike :func:`derive_dimensionless` this estimator does not
    reject thick films (it is a scaling formula, not a model validity
    check).

    Returns {"tau_R_seconds": ..., "ratio_to_tau0": ...}.
    """
    tau_R = ((8.0 * math.pi / 3.0)
             / (phys.concentration * phys.wavelength_c ** 3)
             * (phys.wavelength_c / phys.thickness)
             * phys.tau0)
    return {"tau_R_seconds": tau_R, "ratio_to_tau0": tau_R / phys.tau0}


@dataclass(frozen=True)
class DensityState:
    """Single-instant state of the emitter ensemble (bare basis).

    R31, R21 are the slowly varying envelopes of the optical coherences
    rho31, rho21; rho32 is the low-frequency coherence between the
    doublet states (rho23 is its conjugate and never stored); rho11,
    rho22, rho33 are the level populations.
    """

    R31: complex
    R21: complex
    rho32: complex
    rho11: float
    rho22: float
    rho33: float

    def validate(self) -> "DensityState":
        """:func:`_check_states` on this state; returns self."""
        _check_states(astuple(self), *_BARE)
        return self

    @property
    def trace(self) -> float:
        return self.rho11 + self.rho22 + self.rho33


# names and pairing of the bare basis: R31 pairs with rho33, R21 with rho22
_BARE = (tuple(f.name for f in fields(DensityState)), (5, 4))


def _det(values, pairs):
    """det(rho) of the six packed components ``values``, paired as
    :func:`_check_states` pairs them, for one state or length-N arrays:
    p3 p4 p5 + 2 Re(c0 conj(c1) conj(c2)) minus each population times
    |c|^2 of the coherence between the other two, in + - * on split
    parts."""
    c0, c1, c2 = values[:3]
    p = [v.real for v in values]
    re01 = c0.real * c1.real + c0.imag * c1.imag
    im01 = c0.imag * c1.real - c0.real * c1.imag
    return (p[3] * p[4] * p[5] + 2.0 * (re01 * c2.real + im01 * c2.imag)
            - p[3] * (c2.real * c2.real + c2.imag * c2.imag)
            - p[pairs[1]] * (c0.real * c0.real + c0.imag * c0.imag)
            - p[pairs[0]] * (c1.real * c1.real + c1.imag * c1.imag))


def _check_states(values, names, pairs) -> None:
    """Raise at the first packed state that is not a valid density matrix.

    ``values`` holds the six packed components (populations by their real
    parts) as scalars for one state or length-N arrays; ``names`` their
    field names.  Coherence 2 pairs with populations 4 and 5, coherences 0
    and 1 with population 3 and ``pairs[0]`` or ``pairs[1]``.  In order:
    finiteness (ParameterError; nan passes every bound), trace 1 within
    1e-9 (TraceViolation), then within POSITIVITY_TOL populations in
    [0, 1], 2x2 minors |c|^2 <= p_a*p_b and the determinant, which
    completes the principal-minor test of a positive semidefinite matrix
    (PositivityViolation).
    """
    tol = POSITIVITY_TOL
    values = [*values[:3], *(v.real for v in values[3:])]
    # each check: (failure mask, error class, message, message arguments)
    checks = [(~np.isfinite(v), ParameterError, "{} must be finite, got {!r}",
               name, v) for name, v in zip(names, values)]
    with np.errstate(invalid="ignore", over="ignore"):
        trace = values[3] + values[4] + values[5]
        checks.append((abs(trace - 1.0) > 1e-9, TraceViolation,
                       "{} = {!r}, expected 1 (within 1e-9)",
                       " + ".join(names[3:]), trace))
        checks += [((p < -tol) | (p > 1.0 + tol), PositivityViolation,
                    "population {} = {!r} outside [0, 1] (tol {})", name, p,
                    tol) for name, p in zip(names[3:], values[3:])]
        sq = [z.real * z.real + z.imag * z.imag for z in values[:3]]
        for c, a, b in ((2, 4, 5), (0, pairs[0], 3), (1, pairs[1], 3)):
            rhs = values[a] * values[b]
            checks.append((sq[c] > rhs + tol, PositivityViolation,
                           "positivity |{}|^2 <= {}*{} violated: {!r} > {!r} "
                           "+ {}", names[c], names[a], names[b], sq[c], rhs,
                           tol))
        det = _det(values, pairs)
        checks.append((det < -tol, PositivityViolation,
                       "positivity det(rho) >= 0 violated: determinant {!r} "
                       "< -{}", det, tol))
    bad = np.array([check[0] for check in checks]).reshape(len(checks), -1)
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        i = failing[0]
        _, error, text, *args = checks[bad[:, i].argmax()]
        raise error(text.format(*(a if np.ndim(a) == 0 else a[i].item()
                                  for a in args)))


def initial_state(rho22, rho33, rho32=0.0, R21_0=1e-8,
                  R31_0=1e-8) -> DensityState:
    """Build a validated initial :class:`DensityState`.

    The ground-state population is implied: rho11 = 1 - rho22 - rho33.
    ``rho32``, ``R21_0`` and ``R31_0`` may be real or complex.

    Raises PositivityViolation for negative doublet populations,
    TraceViolation when rho22 + rho33 > 1, and what ``validate`` raises.
    """
    _require_finite("rho22", rho22)
    _require_finite("rho33", rho33)
    if rho22 < 0 or rho33 < 0:
        raise PositivityViolation(
            f"doublet populations must be >= 0, got rho22={rho22}, rho33={rho33}")
    occupied = rho22 + rho33
    if occupied > 1.0 + 1e-12:
        raise TraceViolation(
            f"rho22 + rho33 = {occupied!r} > 1: no room for the ground state")
    rho11 = max(1.0 - occupied, 0.0)
    return DensityState(complex(R31_0), complex(R21_0), complex(rho32),
                        rho11, float(rho22), float(rho33)).validate()

"""Closed-form results: degenerate-doublet pulse, inversion condition,
doublet population oscillation, linear-stage growth rates, and the
critical local-field strength.

All times and rates are in units of tau_R (tau_R = 1) unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import to_bright_dark
from .params import DensityState, SystemParams

__all__ = [
    "AnalyticsError",
    "NoInversion",
    "DomainViolation",
    "DegenerateSolution",
    "LinearRates",
    "inversion_condition",
    "degenerate_solution",
    "analytic_chirp",
    "population_oscillation",
    "linear_rates",
    "amplitude_ratio",
    "critical_lfc",
]

# the t_D log formula assumes a seed much smaller than the inversion
_SEED_RATIO_MAX = 1e-3


class AnalyticsError(ValueError):
    """A closed-form result was requested outside its domain of validity."""


class NoInversion(AnalyticsError):
    """No initial inversion of the bright channel: Z0 <= 0."""


class DomainViolation(AnalyticsError):
    """Inputs violate an assumption the closed form was derived under."""


def inversion_condition(state0: DensityState, params: SystemParams) -> dict:
    """Bright-channel inversion Z0 = (rho_pp - rho_11)/2 and the SR flag.

    Collective emission develops only from Z0 > 0, i.e. the bright
    superposition holds more population than the ground state.
    """
    bd = to_bright_dark(state0.validate(), params)
    z0 = 0.5 * (bd.rho_pp - bd.rho_11)
    return {"Z0": z0, "superradiant": z0 > 0.0}


def _ln_cosh(x):
    """Overflow-safe log(cosh(x))."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


@dataclass(frozen=True)
class DegenerateSolution:
    """Hyperbolic-secant pulse of the degenerate doublet (omega32 = 0).

    With the doublet degenerate the bright channel decouples from the
    dark one and behaves as a two-level superradiant system.  Writing
    Z = (rho_pp - rho_11)/2 and x = (t - t_D)/tau_R_prime:

        Z(t)      = -Z0 tanh(x)
        |R+1|(t)  =  Z0 sech(x)
        phi(t)    = 4 Z0 delta_L tau_R_prime [ln cosh(x) - ln cosh(t_D/tau_R_prime)]

    with tau_R_prime = 1/(4 Z0) and t_D = tau_R_prime ln(2 Z0 / R0_plus).
    The phase is anchored at phi(0) = 0.  The local-field correction
    enters only the phase: the pulse sweeps its instantaneous frequency
    from -4 Z0 delta_L to +4 Z0 delta_L without changing its shape.
    """

    Z0: float
    R0_plus: float
    delta_L: float
    tau_R_prime: float
    t_D: float

    def evaluate(self, t) -> dict:
        """Closed-form Z, |R+1| and phase at time(s) ``t``."""
        t = np.asarray(t, dtype=float)
        x = (t - self.t_D) / self.tau_R_prime
        x0 = self.t_D / self.tau_R_prime
        return {
            "Z": -self.Z0 * np.tanh(x),
            "R_plus_abs": self.Z0 / np.cosh(x),
            "phi": 4.0 * self.Z0 * self.delta_L * self.tau_R_prime
                   * (_ln_cosh(x) - _ln_cosh(x0)),
        }


def degenerate_solution(Z0: float, R0_plus: float,
                        delta_L: float) -> DegenerateSolution:
    """Build the sech/tanh solution from the initial inversion and seed.

    ``R0_plus`` is the initial bright-coherence magnitude |R+1(0)|; it
    must seed the pulse without perturbing it, so R0_plus < 1e-3 * Z0 is
    required for the logarithmic delay-time formula to hold.
    """
    if Z0 <= 0.0:
        raise NoInversion(f"Z0 must be > 0 for superradiance, got {Z0!r}")
    if not 0.0 < R0_plus < _SEED_RATIO_MAX * Z0:
        raise DomainViolation(
            f"seed R0_plus must satisfy 0 < R0_plus < {_SEED_RATIO_MAX:g}*Z0; "
            f"got R0_plus={R0_plus!r} with Z0={Z0!r}")
    tau_prime = 1.0 / (4.0 * Z0)
    t_d = tau_prime * math.log(2.0 * Z0 / R0_plus)
    return DegenerateSolution(Z0, R0_plus, delta_L, tau_prime, t_d)


def analytic_chirp(Z0: float, delta_L: float, t_D: float,
                   tau_R_prime: float, t):
    """Instantaneous frequency offset of the degenerate pulse.

    Omega(t) = 4 Z0 delta_L tanh((t - t_D)/tau_R_prime), sweeping
    monotonically between -4 Z0 delta_L and +4 Z0 delta_L and crossing
    zero at the pulse peak.
    """
    return 4.0 * Z0 * delta_L * np.tanh((np.asarray(t, dtype=float) - t_D)
                                        / tau_R_prime)


def population_oscillation(y0: float, z0: float, omega32: float, t):
    """Free bright/dark exchange when the field can be neglected.

    With z = rho_pp - rho_mm and y = i(rho_pm - rho_mp), the doublet
    splitting rotates the pair:

        y(t) = y0 cos(omega32 t) - z0 sin(omega32 t)
        z(t) = z0 cos(omega32 t) + y0 sin(omega32 t)

    conserving y^2 + z^2 exactly.
    """
    if y0 * y0 + z0 * z0 > 1.0 + 1e-12:
        raise DomainViolation(
            f"(y0, z0) must lie in the unit disc, got ({y0!r}, {z0!r})")
    wt = omega32 * np.asarray(t, dtype=float)
    c, s = np.cos(wt), np.sin(wt)
    return y0 * c - z0 * s, z0 * c + y0 * s


@dataclass(frozen=True)
class LinearRates:
    """Growth exponents of the two coherences during the linear stage.

    lambda1 / lambda2   asymptotic exponents of R21 / R31 (valid for
                        1, delta_L << omega32)
    exact1 / exact2     eigenvalues of the linearized 2x2 system, paired
                        with the asymptotic values
    """

    lambda1: complex
    lambda2: complex
    exact1: complex
    exact2: complex


def linear_rates(params: SystemParams, W: float) -> LinearRates:
    """Linear-stage exponents for equal doublet populations.

    The equations are linearized in R21, R31 about a state with
    rho22 = rho33 and inversion W = rho33 - rho11 per channel, giving
    d/dt [R31, R21] = M [R31, R21] with

        M = [[-i omega32/2 + gW, gW], [gW, +i omega32/2 + gW]],
        g = 1 - i delta_L.

    For omega32 >> 1, delta_L the eigenvalues reduce to the printed
    asymptotic form

        lambda_{1,2} = i(+-omega32/2 - delta_L W) + W (1 -+ 2 W delta_L/omega32)

    (upper signs: lambda1).  A positive local-field correction makes the
    R31 channel grow faster than the R21 one, which is the seed of
    channel blocking.
    """
    if params.mu21 != params.mu31:
        raise DomainViolation(
            "linear-stage formulas assume equal transition moments; got "
            f"mu21={params.mu21!r}, mu31={params.mu31!r}")
    if not 0.0 < W <= 0.5:
        raise DomainViolation(f"W must lie in (0, 0.5], got {W!r}")
    if params.omega32 <= 0.0:
        raise DomainViolation(
            f"linear-stage formulas need omega32 > 0, got {params.omega32!r}")
    om, dl = params.omega32, params.delta_L
    lam1 = 1j * (+0.5 * om - dl * W) + W * (1.0 - 2.0 * W * dl / om)
    lam2 = 1j * (-0.5 * om - dl * W) + W * (1.0 + 2.0 * W * dl / om)
    g = 1.0 - 1j * dl
    root = np.sqrt((g * W) ** 2 - 0.25 * om * om + 0j)
    cand = (g * W + root, g * W - root)
    if abs(cand[0] - lam1) <= abs(cand[1] - lam1):
        exact1, exact2 = cand
    else:
        exact2, exact1 = cand
    return LinearRates(lam1, lam2, complex(exact1), complex(exact2))


def amplitude_ratio(params: SystemParams, W: float, t) -> float:
    """Linear-stage ratio |R31|/|R21| = exp(4 W^2 (delta_L/omega32) t).

    Growing past e within the delay time marks the blocked regime; that
    is exactly the :func:`critical_lfc` condition.
    """
    rates = linear_rates(params, W)
    gap = rates.lambda2.real - rates.lambda1.real    # 4 W^2 delta_L / omega32
    return np.exp(gap * np.asarray(t, dtype=float))


def critical_lfc(omega32: float, W: float, t_D: float) -> float:
    """Local-field strength at which the slower channel is blocked.

    Equating the linear-stage ratio gap times the delay time to one:
    delta_L_c = (omega32 / 4 W^2) / t_D.
    """
    if omega32 <= 0.0 or W <= 0.0 or t_D <= 0.0:
        raise DomainViolation(
            f"omega32, W and t_D must all be > 0; got "
            f"({omega32!r}, {W!r}, {t_D!r})")
    return omega32 / (4.0 * W * W * t_D)

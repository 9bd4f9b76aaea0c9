"""Phase variance of two superposed Gaussian packets under correlated noise.

The variance of the stochastic phase difference splits into two pieces,

    DeltaPhi^2 = I7 - I8

with, in dimensionless form (mu = G m^3 a / hbar^2, rho = R/a,
tau = hbar t / m a^2),

    I7 = (2 sqrt(2) / sqrt(pi)) mu asinh(tau_max)
    I8 = (2 mu / rho) int_0^tau_max erf(rho / sqrt(2 (1 + tau^2))) dtau.

Both terms grow without bound but their difference saturates: substituting
beta(tau) = rho / (sqrt(2) sqrt(1 + tau^2)) the difference collapses to a
single non-negative integrand,

    DeltaPhi^2 = (4 mu / (sqrt(pi) rho)) int_0^tau_max I(beta(tau)) dtau,
    I(beta) = beta - int_0^beta exp(-x^2) dx,

which is how the total is actually evaluated here: the subtraction
I7 - I8 is done inside the integrand where it is exact, never between
two large quadrature results. For small rho the integral is evaluated
from its rho^2 power series instead, which is accurate to machine
precision for rho < 1/2 and avoids the 0/0 in erf(rho ...)/rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import erf

from .units import DimensionlessParams

__all__ = [
    "VarianceBreakdown",
    "QuadratureError",
    "i7",
    "i8",
    "phase_variance",
    "beta",
    "integrand_I",
]

# 2 sqrt(2) / sqrt(pi), prefactor of I7
_PREF = 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)

# crossover between the small-rho series and direct quadrature; the series
# is exact to machine precision well past this point and the quadrature is
# free of cancellation well below it, so the seam is benign
_RHO_SERIES_MAX = 0.5

_QUAD_RTOL = 1e-11
_QUAD_LIMIT = 200


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the achieved tolerance."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tolerance:.3e})")
        self.achieved_tolerance = achieved_tolerance


@dataclass(frozen=True)
class VarianceBreakdown:
    """I7, I8 and their difference, all dimensionless.

    The fields satisfy total = i7 - i8 exactly in floating point, with
    total >= 0 and 0 <= i8 <= i7.
    """

    i7: float
    i8: float
    total: float
    quadrature_error_estimate: float


def i7(d: DimensionlessParams) -> float:
    """First variance term, closed form (2 sqrt(2)/sqrt(pi)) mu asinh(tau_max)."""
    return _PREF * d.mu * math.asinh(d.tau_max)


def beta(rho: float, tau: float) -> float:
    """Scaled half-separation beta = rho / (sqrt(2) sqrt(1 + tau^2)).

    Strictly decreasing in tau; beta(rho, 0) = rho / sqrt(2).
    """
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    return rho / (math.sqrt(2.0) * math.hypot(1.0, tau))


def integrand_I(rho: float, tau: float) -> float:
    """Non-negative integrand I(beta) = beta - int_0^beta exp(-x^2) dx.

    The total phase variance is (4 mu / (sqrt(pi) rho)) times the tau
    integral of this quantity.
    """
    return _I_of_beta(beta(rho, tau))


def _I_of_beta(b: float) -> float:
    # direct subtraction loses all precision for small b, where
    # I(b) = b^3/3 - b^5/10 + b^7/42 - ...; switch to the series there
    if b < 0.25:
        b2 = b * b
        term = b * b2 / 3.0
        out = term
        k = 1
        while True:
            term *= -b2 * (2 * k + 1) / ((k + 1) * (2 * k + 3))
            out += term
            k += 1
            if abs(term) <= 1e-17 * abs(out) or k > 40:
                return out
    return b - math.sqrt(math.pi) / 2.0 * erf(b)


def _quad(fn, lo: float, hi: float, rtol: float = _QUAD_RTOL):
    """quad with a relative-tolerance ladder; raises QuadratureError at the end."""
    last_err, last_val = math.inf, math.nan
    for eps in (rtol, 1e-9, 1e-7):
        val, abserr, info, *tail = quad(
            fn, lo, hi, epsabs=0.0, epsrel=eps, limit=_QUAD_LIMIT, full_output=1
        )
        last_val, last_err = val, abserr
        if not tail:  # empty message tuple means converged
            return val, abserr
    achieved = abs(last_err / last_val) if last_val else math.inf
    raise QuadratureError("quadrature did not converge", achieved)


def i8(d: DimensionlessParams) -> float:
    """Second variance term, (2 mu / rho) int erf(rho / sqrt(2 (1+tau^2))) dtau.

    Reported as i7 - total from ``phase_variance``, which never subtracts
    two large quadrature results; i8 -> i7 as rho -> 0.
    """
    return phase_variance(d).i8


def phase_variance(d: DimensionlessParams) -> VarianceBreakdown:
    """Full breakdown of the phase variance at (mu, rho, tau_max).

    The total is computed from the single-integrand form, so it is
    non-negative by construction and never suffers the catastrophic
    i7 - i8 cancellation; i8 is then reported as i7 - total, keeping the
    decomposition consistent to a rounding error of i7.
    """
    v7 = i7(d)
    if d.rho == 0.0:
        return VarianceBreakdown(i7=v7, i8=v7, total=0.0, quadrature_error_estimate=0.0)
    if d.rho < _RHO_SERIES_MAX:
        total = _total_series(d.mu, d.rho, d.tau_max)
        err = 4.0 * abs(total) * 1e-16
    else:
        total, err = _total_quad(d.mu, d.rho, d.tau_max)
    total = max(total, 0.0)
    return VarianceBreakdown(
        i7=v7, i8=v7 - total, total=total, quadrature_error_estimate=err
    )


def _total_quad(mu: float, rho: float, tau_max: float) -> tuple[float, float]:
    """(4 mu / (sqrt(pi) rho)) int_0^tau_max I(beta(tau)) dtau via tau = sinh(u)."""
    umax = math.asinh(tau_max)

    def g(u: float) -> float:
        ch = math.cosh(u)
        return _I_of_beta(rho / (math.sqrt(2.0) * ch)) * ch

    val, abserr = _quad(g, 0.0, umax)
    pref = 4.0 * mu / (math.sqrt(math.pi) * rho)
    return pref * val, pref * abserr


def _total_series(mu: float, rho: float, tau_max: float) -> float:
    """Small-rho power series of the total.

    Integrating the series of I(beta) term by term gives

        total = (4 mu / sqrt(pi)) sum_{k>=1} (-1)^(k+1) rho^(2k)
                2^(-(2k+1)/2) A_k / ((2k+1) k!)

    with A_k = int_0^tau_max (1 + tau^2)^(-(2k+1)/2) dtau, computed by the
    standard reduction A_1 = asinh, then upward recurrence. Converges like
    (rho^2/2)^k / k!, so a handful of terms reach machine precision for
    any rho below the seam.
    """
    x = tau_max
    s2 = 1.0 + x * x
    a_k = math.asinh(x)  # will be advanced to A_k inside the loop
    rho2 = rho * rho
    out = 0.0
    power = rho2 / (2.0 * math.sqrt(2.0))  # rho^2 2^(-3/2) at k=1
    fact = 1.0
    for k in range(1, 60):
        a_k = (x * s2 ** (-(2 * k - 1) / 2.0) + (2 * k - 2) * a_k) / (2 * k - 1)
        term = power * a_k / ((2 * k + 1) * fact)
        out += term if k % 2 == 1 else -term
        if abs(term) <= 1e-17 * abs(out):
            break
        power *= rho2 / 2.0
        fact *= k + 1
    return 4.0 * mu / math.sqrt(math.pi) * out

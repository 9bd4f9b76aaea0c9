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
two large results.

With tau = sinh(u) and r = rho / sqrt(2) the integral is
int_0^U I(r sech u) cosh u du, U = asinh(tau_max), and it is split in
three where beta = r sech u crosses 6 and 1/2:

- beta >= 6: erf(beta) is 1.0 in double precision, so this piece is the
  closed form r u_A - (sqrt(pi)/2) sinh(u_A), with cosh(u_A) = r / 6;
  both terms are positive and r u_A is the larger, so nothing cancels.
- 1/2 <= beta <= 6: a fixed 28-point Gauss-Legendre rule in u (Golub and
  Welsch 1969). The interval is at most ln 12 wide for large r and
  acosh 12 at r = 6, whatever rho and tau_max are.
- beta <= 1/2: with theta = atan(1/tau), beta = r sin(theta) and the piece
  is r^2 int I(beta)/beta^2 dtheta over
  [atan2(1, tau_max), asin(min(1, 1/2r))], a smooth integrand that a
  fixed 10-point rule integrates. For r <= 1/2 (rho <= sqrt(2)/2) no beta
  exceeds 1/2 and this piece is the whole integral.

The total, i7 and i8 come from these rules alone. The reported
``quadrature_error_estimate`` is their difference from lower-order rules
(24 and 6 points) on the same pieces, plus a rounding allowance; the
lower-order rules run only when the estimate is read, so root finders,
which read the total, never pay for them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

from .units import DimensionlessParams

__all__ = [
    "VarianceBreakdown",
    "i7",
    "i8",
    "phase_variance",
    "beta",
    "integrand_I",
    "gauss_legendre",
]

# 2 sqrt(2) / sqrt(pi), prefactor of I7
_PREF = 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)

_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0

# beta at the two seams: erf(6) == 1.0 in double precision, and the theta
# form of the integrand is smooth on (0, 1/2]
_BETA_ERF_ONE = 6.0
_BETA_SMALL = 0.5

# (u nodes, theta nodes): the high-order rules give the total, the
# lower-order ones only the error estimate
_RULES = (28, 10)
_LOW_RULES = (24, 6)

# relative rounding allowance in the error estimate: the total sums a
# few dozen positive terms, each good to a few ulp
_ROUNDING = 32.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class VarianceBreakdown:
    """I7, I8 and their difference, all dimensionless.

    The fields satisfy total = i7 - i8 exactly in floating point, with
    total >= 0 and 0 <= i8 <= i7. ``quadrature_error_estimate`` is worked
    out on each read: the lower-order rules run then, against the
    high-order sums kept in the private fields.
    """

    i7: float
    i8: float
    total: float
    # the point, and the high-order u and theta sums of the split (0.0 where
    # no rule ran)
    _d: DimensionlessParams = field(repr=False)
    _mid: float = field(repr=False)
    _tail: float = field(repr=False)

    @property
    def quadrature_error_estimate(self) -> float:
        """Estimated absolute quadrature error of ``total``."""
        rounding = _ROUNDING * abs(self.total)
        d = self._d
        if not d.rho:  # the exact 0, from no rule
            return rounding
        _, mid, tail = _split(d.rho, d.tau_max, *_LOW_RULES)
        pref, pref_tail = _prefactors(d.mu, d.rho)
        # an empty piece adds nothing, even where its factor overflows
        u = pref * abs(self._mid - mid) if mid else 0.0
        theta = pref_tail * abs(self._tail - tail) if tail else 0.0
        return u + theta + rounding


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
    b = beta(rho, tau)
    return b * (b * _I_over_beta2(b))

# (-1)^(k+1) / (k! (2k + 1)), highest k first: the series of I(b) / b^3 in b^2
_SERIES = tuple((-1) ** (k + 1) / (math.factorial(k) * (2 * k + 1)) for k in range(18, 0, -1))


def _I_over_beta2(b: float) -> float:
    """I(b) / b^2 = b/3 - b^3/10 + b^5/42 - ..., by series below b = 0.95.

    The direct subtraction cancels more as b falls, and from 0.95 up it is
    within 1e-15 of the exact value; for b above 1e150, where b^2 would
    overflow, I(b) is b itself. The series' 18 terms, summed by Horner's
    rule in b^2, leave under 1e-17 of it out at b = 0.95.
    """
    if b > 1e150:
        return 1.0 / b
    if b < 0.95:
        u = b * b
        out = 0.0
        for c in _SERIES:
            out = out * u + c
        return b * out
    return (b - _HALF_SQRT_PI * math.erf(b)) / (b * b)


@functools.cache
def gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """The n-point Gauss-Legendre rule on [0, 1] as (node, weight) pairs.

    Each root of P_n is found by Newton's method in floats, polished by one
    Newton step in 34-digit decimal arithmetic, where its weight
    2 (1 - x^2) / (n P_(n-1)(x))^2 is also formed; nodes and weights are
    then correctly rounded, which float arithmetic alone misses by several
    ulp in the weights.
    """
    rule = []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, q = _legendre(n, x)
            dx = p * (x * x - 1.0) / (n * (x * p - q))
            x -= dx
            if abs(dx) <= 1e-15:
                break
        with localcontext() as ctx:
            ctx.prec = 34
            x = Decimal(x)
            p, q = _legendre(n, x)
            x -= p * (x * x - 1) / (n * (x * p - q))
            _, q = _legendre(n, x)
            rule.append((float((1 - x) / 2), float((1 - x * x) / (n * q) ** 2)))
    return tuple(rule)


def _legendre(n: int, x):
    """(P_n(x), P_(n-1)(x)) by the three-term recurrence, for float or Decimal x."""
    p0, p1 = 1, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, p0


def i8(d: DimensionlessParams) -> float:
    """Second variance term, (2 mu / rho) int erf(rho / sqrt(2 (1+tau^2))) dtau.

    Reported as i7 - total from ``phase_variance``, which never subtracts
    two large results; i8 -> i7 as rho -> 0.
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
    total = mid = tail = 0.0
    if d.rho:  # 0.0 exactly at rho = 0
        pref, pref_tail = _prefactors(d.mu, d.rho)
        head, mid, tail = _split(d.rho, d.tau_max, *_RULES)
        # an empty piece adds nothing, even where its factor overflows
        total = ((pref * (head + mid) if head or mid else 0.0)
                 + (pref_tail * tail if tail else 0.0))
        total = max(total, 0.0)
    return VarianceBreakdown(v7, v7 - total, total, d, mid, tail)


def _prefactors(mu: float, rho: float) -> tuple[float, float]:
    """The factors of the u pieces and of the theta piece of the split.

    The theta piece is r^2 int I/beta^2 dtheta, and pref r^2 = 2 mu rho /
    sqrt(pi) needs no rho^2, which would overflow first. mu meets rho before
    the exact power of two, as 4 mu overflows from mu = 4.5e307.
    """
    return 4.0 * (mu / (math.sqrt(math.pi) * rho)), 2.0 * (mu * rho) / math.sqrt(math.pi)


def _split(rho: float, tau_max: float, n_u: int, n_theta: int
           ) -> tuple[float, float, float]:
    """The pieces of the integral for rho > 0, before their factors.

    Returns the closed-form head, the sum of the n_u-point u rule and that
    of the n_theta-point theta rule, 0.0 for each piece that is empty.
    """
    r = rho / math.sqrt(2.0)
    u_max = math.asinh(tau_max)
    # the closed-form head ends and the u rule starts at u0, where beta = 6
    # (u0 = 0 when r <= 6; sinh u0 is cosh u0 to the last bit past 1e150)
    ch0 = max(r / _BETA_ERF_ONE, 1.0)
    sh0 = ch0 if ch0 > 1e150 else math.sqrt((ch0 - 1.0) * (ch0 + 1.0))
    u0 = math.acosh(ch0)
    if u_max <= u0:
        return r * u_max - _HALF_SQRT_PI * tau_max, 0.0, 0.0
    head = r * u0 - _HALF_SQRT_PI * sh0
    # the u rule ends and the theta rule starts at u_small, where beta = 1/2
    # (u_small = 0 when r <= 1/2, and the theta rule runs from tau_max to 0)
    cs = max(r / _BETA_SMALL, 1.0)
    u_small = math.acosh(cs)
    width = min(u_max, u_small) - u0
    mid = tail = 0.0
    if width > 0.0:
        acc = 0.0
        for t, w in gauss_legendre(n_u):
            s = width * t
            # cosh(u0 + s), without the rounding of u0 itself
            ch = ch0 * math.cosh(s) + sh0 * math.sinh(s)
            b = r / ch
            acc += w * (b - _HALF_SQRT_PI * math.erf(b)) * ch
        mid = width * acc
    if u_max > u_small:
        theta_lo, theta_hi = math.atan2(1.0, tau_max), math.asin(1.0 / cs)
        # near the seam both angles are close to pi/2 and their difference
        # cancels, so where tau_s = cot(theta_hi) < 1 it is taken as one atan
        # (for larger tau_s the product tau_max tau_s could overflow)
        tau_s = math.sqrt((cs - 1.0) * (cs + 1.0))
        width = (math.atan((tau_max - tau_s) / (1.0 + tau_max * tau_s)) if tau_s < 1.0
                 else theta_hi - theta_lo)
        tail = width * sum(w * _I_over_beta2(r * math.sin(theta_lo + width * t))
                           for t, w in gauss_legendre(n_theta))
    return head, mid, tail


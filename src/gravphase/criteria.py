"""Decoherence criteria: damping time, critical length, critical mass, regime.

The damping time T is the time at which the phase variance reaches a
threshold of order pi^2. Comparing T with the quantum kinematic time
t_q = m L^2 / hbar defines a critical separation L_c, with closed-form
asymptotes

    L_c = (hbar^2 / G m^3)^(1/4) a^(3/4)    for mu >> 1,
    L_c = (hbar^2 / G m^3)^(1/2) a^(1/2)    for mu << 1,

both of which reduce to L_c = a = hbar^2 / G m^3 on the boundary mu = 1.
All order-one constants (the threshold, the constant in t_q) are
conventions; only scaling exponents and the mu = 1 boundary are
convention-free, and the defaults here fix the conventions explicitly.

The micro a^(1/2) law is not the mu -> 0 behaviour of the full model. The
variance saturates like mu ln(rho) at large rho, so rho_c = L_c / a grows
like exp(1/mu), and from rho_c = 1e6 up (mu <~ 0.46 at the pi^2
threshold) critical_length returns the root of that logarithmic law in
closed form, as accurate there as the root finder.

Every other root solves DeltaPhi^2 = threshold along a line on which the
variance rises from 0 (tau for the damping time, tau = rho^2 for L_c) with
one scan up from a closed-form lower bound of the root: the point grows
eightfold, clamped at a cap, until the sign changes, and Brent's method
refines that bracket from the end values the scan has.
The scan raises BracketError if the sign has not changed at the cap (for
L_c, rho = 1e100, which the closed form honours too); the damping time
checks its cap first and returns the cap as a sentinel.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .units import (
    CODATA2018, DimensionlessParams, PacketPair, PhysicalConstants, coupling, time_unit,
)
from .variance import _I_over_beta2, phase_variance

__all__ = [
    "Regime",
    "Method",
    "Threshold",
    "DecoherenceResult",
    "CriticalLengthResult",
    "BracketError",
    "T_CAP_DEFAULT",
    "damping_time",
    "damping_time_short",
    "critical_length",
    "critical_mass",
    "width_from_density",
    "classify",
    "decoherence_summary",
]

# beyond this horizon the pair is reported as simply not decohering
T_CAP_DEFAULT = 1e18  # s

# critical length: a root past _RHO_CAP is reported as not bracketable, and
# from _RHO_CLOSED_FORM up the large-rho law answers (see critical_length)
_RHO_CAP = 1e100
_RHO_CLOSED_FORM = 1e6
_EULER_GAMMA = 0.57721566490153286

# classify: Boundary where the asymptotic L_c / a is within this of 1
_BOUNDARY_BAND = 0.1


class Regime(enum.Enum):
    QUANTUM = "Quantum"
    CLASSICAL = "Classical"
    BOUNDARY = "Boundary"


class Method(enum.Enum):
    FULL_QUADRATURE = "FullQuadrature"
    MACRO_ASYMPTOTIC = "MacroAsymptotic"
    MICRO_ASYMPTOTIC = "MicroAsymptotic"
    MICRO_CLOSED_FORM = "MicroClosedForm"


@dataclass(frozen=True)
class Threshold:
    """Phase-variance level that counts as decohered; pi^2 by convention."""

    variance_threshold: float = math.pi**2

    def __post_init__(self):
        if not (self.variance_threshold > 0 and math.isfinite(self.variance_threshold)):
            raise ValueError(
                f"variance_threshold must be positive, got {self.variance_threshold}"
            )


@dataclass(frozen=True)
class CriticalLengthResult:
    """Critical length, how it was found, and the applicable asymptotic law."""

    l_c: float
    method: Method
    asymptote: float
    asymptote_method: Method


@dataclass(frozen=True)
class DecoherenceResult:
    damping_time: float
    critical_length: float
    critical_mass: float
    regime: Regime
    method: Method


class BracketError(RuntimeError):
    """Root bracketing failed; carries the scanned interval."""

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(f"{message} (scanned [{lo:.6g}, {hi:.6g}])")
        self.scanned = (lo, hi)


def _brentq(f, xa: float, xb: float, xtol: float = 2e-12, rtol: float = 1e-10,
            maxiter: int = 100, *, fa=None, fb=None) -> float:
    """Root of f between xa and xb, where f changes sign (Brent 1973).

    The steps and the stopping rule (half the bracket below
    (xtol + rtol |x|) / 2) are those of scipy.optimize.brentq, so for the
    same f and tolerances this returns the same root after the same calls.
    Known end values f(xa), f(xb) can be passed as ``fa``, ``fb``.
    """
    xpre, xcur = xa, xb
    fpre = f(xpre) if fa is None else fa
    fcur = f(xcur) if fb is None else fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"root not converged after {maxiter} iterations")


def _root(f, lo: float, cap: float, what: str) -> float:
    """Root of an increasing f above a proven lower bound lo, f(lo) <= 0.

    Scans lo, 8 lo, ... clamped at cap until the sign changes, then Brent
    refines that bracket from the end values the scan has, to a tolerance
    relative to lo. If f(lo) >= 0, lo is the root to rounding.
    """
    if not 0.0 < lo <= cap:
        raise BracketError(f"{what} root not bracketable", lo, cap)
    x, f_x = lo, f(lo)
    if f_x >= 0.0:
        return lo
    while x < cap:
        hi = min(x * 8.0, cap)
        f_hi = f(hi)
        if f_hi >= 0.0:
            return _brentq(f, x, hi, xtol=2e-12 * lo, fa=f_x, fb=f_hi)
        x, f_x = hi, f_hi
    raise BracketError(f"{what} root not bracketable", lo, cap)


def _check_positive(**values: float) -> None:
    """ValueError naming the first value that is not positive and finite."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _seconds(t: float, what: str, p: PacketPair) -> float:
    """A time t > 0 [s]; OverflowError where it underflowed to 0 or overflowed."""
    if t == 0.0 or t == math.inf:
        how = "underflows to 0 s" if t == 0.0 else "overflows"
        raise OverflowError(f"{what} {how} at m = {p.m}, a = {p.a}, R = {p.R}")
    return t


def _total(mu: float, rho: float, tau: float) -> float:
    return phase_variance(DimensionlessParams(mu=mu, rho=rho, tau_max=tau)).total


def damping_time(
    p: PacketPair,
    th: Threshold = Threshold(),
    constants: PhysicalConstants = CODATA2018,
    t_cap: float = T_CAP_DEFAULT,
) -> float:
    """Time at which the phase variance reaches the threshold [s].

    The variance is strictly increasing and concave in time for rho > 0, so
    the root is unique. It lies above the linear-regime root tau0 =
    threshold sqrt(pi) / (2 mu rho I(beta0) / beta0^2), beta0 = rho / sqrt(2),
    and, as I8 >= 0, above sinh(threshold sqrt(pi/8) / mu), where I7 alone
    reaches the threshold; the scan starts at the larger of the two. If the
    threshold is not reached by ``t_cap`` (the variance saturates once the
    packets have spread beyond their separation), the cap itself is
    returned as a "no decoherence" sentinel.
    A root whose time in seconds underflows to 0 raises OverflowError.
    """
    mu = coupling(p.m, p.a, constants)
    rho = p.R / p.a
    t_unit = time_unit(p.m, p.a, constants)
    tau_cap = t_cap / t_unit
    target = th.variance_threshold
    # a cap t_cap / t_unit that underflows to tau = 0 comes before any variance
    f_cap = (_total(mu, rho, tau_cap) if tau_cap > 0.0 else 0.0) - target
    if f_cap < 0.0:
        return t_cap
    # divided in this order, no factor overflows before the last division; a
    # slope that underflows to 0 leaves no bound of its own
    slope = rho * _I_over_beta2(rho / math.sqrt(2.0))
    tau0 = target * math.sqrt(math.pi) / 2.0 / mu / slope if slope > 0.0 else 0.0
    # past 700 the sinh would overflow, and the cap is then the bound
    tau_i7 = math.sinh(min(target * math.sqrt(math.pi / 8.0) / mu, 700.0))
    # the scan may end at the cap, whose value is already known
    f = lambda tau: f_cap if tau == tau_cap else _total(mu, rho, tau) - target
    tau = _root(f, min(max(tau0, tau_i7), tau_cap), tau_cap, "damping time")
    return _seconds(tau * t_unit, "damping time", p)


def damping_time_short(
    p: PacketPair,
    constants: PhysicalConstants = CODATA2018,
    threshold: float | None = None,
) -> float:
    """Closed-form short-time damping time [s].

    In the frozen-width regime T << m a^2 / hbar the variance grows
    linearly and the damping time has the closed form

        T = (hbar / G m^2) [sqrt(2/pi)/a - erf(R / sqrt(2) a)/R]^(-1),

    with the order-unity threshold constant absorbed, which is the
    ``threshold=None`` default. Passing an explicit variance threshold th
    multiplies this by th/2, making the result directly comparable with
    the root-found ``damping_time`` at the same threshold.

    R = 0 returns math.inf: coincident packets never decohere. A time that
    underflows to 0 or overflows raises OverflowError.
    """
    if p.R == 0:
        return math.inf
    # the bracket is sqrt(2/pi) I(b) / (a b), b = R / sqrt(2) a, I the variance integrand
    b = p.R / p.a / math.sqrt(2.0)
    bracket = math.sqrt(2.0 / math.pi) * (b * _I_over_beta2(b)) / p.a
    try:
        gm2 = constants.G * p.m**2
    except OverflowError:
        gm2 = math.inf
    if not bracket:  # a bracket that underflows to 0 leaves a time too long to represent
        t = math.inf
    elif sys.float_info.min <= gm2 < math.inf:
        t = constants.hbar / gm2 / bracket
    else:
        # G m^2 is 0, subnormal or past the double range: take m and the bracket
        # apart into mantissa and power of two, so only the time can leave it
        (fm, em), (fb, eb) = math.frexp(p.m), math.frexp(bracket)
        try:
            t = math.ldexp(constants.hbar / (constants.G * fm * fm) / fb, -2 * em - eb)
        except OverflowError:
            t = math.inf
    if threshold is not None:
        t *= threshold / 2.0
    return _seconds(t, "short-time damping time", p)


def critical_length(
    m: float,
    a: float,
    constants: PhysicalConstants = CODATA2018,
    th: Threshold = Threshold(),
) -> CriticalLengthResult:
    """Separation at which damping time equals the kinematic time t_q = m L^2 / hbar.

    In dimensionless variables t_q corresponds to tau = rho^2, so the
    defining condition T(L_c) = t_q(L_c) becomes the single equation
    DeltaPhi^2(mu, rho, tau = rho^2) = threshold, whose left side is
    strictly increasing in rho, i.e. F(rho, rho^2) = threshold / mu.

    At large rho, F(rho, rho^2) = sqrt(2/pi) (2 ln rho + gamma + ln 2 - 2)
    + O(rho^-2), gamma being Euler's constant, so

        ln rho_c = threshold / (2 sqrt(2/pi) mu) + 1 - (gamma + ln 2) / 2.

    Where that gives rho_c >= 1e6 (mu <~ 0.46 at the pi^2 threshold) the
    neglected term moves rho_c by at most 4e-13 relative, inside the root
    finder's tolerance, and the root is returned from the formula with no
    quadrature (Method.MICRO_CLOSED_FORM). Below that, Brent refines a scan
    up from the macro limit rho_0 of the root (FULL_QUADRATURE).
    Either way a root beyond rho = 1e100 raises BracketError.

    Also evaluates the asymptotic law for the applicable regime (macro
    a^(3/4) law for mu >= 1, micro a^(1/2) law otherwise). The micro law
    is not the mu -> 0 limit of the root, which grows like exp(1/mu).
    """
    _check_positive(mass=m, width=a)
    mu = coupling(m, a, constants)
    target = th.variance_threshold
    ln_rho_c = (target / (2.0 * math.sqrt(2.0 / math.pi) * mu)
                + 1.0 - (_EULER_GAMMA + math.log(2.0)) / 2.0)
    if ln_rho_c >= math.log(_RHO_CLOSED_FORM):
        if ln_rho_c > math.log(_RHO_CAP):
            raise BracketError("critical length root not bracketable",
                               _RHO_CLOSED_FORM, _RHO_CAP)
        rho_c = math.exp(ln_rho_c)
        method = Method.MICRO_CLOSED_FORM
    else:
        # rho_0 <= rho_c as F(rho, rho^2) <= sqrt(2) rho^4 / (3 sqrt(pi)); mu divides first
        rho_0 = (target / mu * 3.0 * math.sqrt(math.pi / 2.0)) ** 0.25
        g = lambda rho: _total(mu, rho, rho * rho) - target
        rho_c = _root(g, rho_0, _RHO_CAP, "critical length")
        method = Method.FULL_QUADRATURE
    ratio, asym_method = _asymptotic_ratio(mu)
    return CriticalLengthResult(
        l_c=rho_c * a,
        method=method,
        asymptote=a * ratio,
        asymptote_method=asym_method,
    )


def _asymptotic_ratio(mu: float) -> tuple[float, Method]:
    """L_c / a = mu^(-1/4) (mu >= 1) or mu^(-1/2) (mu < 1), and its law."""
    if mu >= 1.0:
        return mu**-0.25, Method.MACRO_ASYMPTOTIC
    return mu**-0.5, Method.MICRO_ASYMPTOTIC


def critical_mass(density: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Mass at which an object of the given density sits on the boundary [kg].

    For a uniform-density object, a = (3 m / 4 pi rho_d)^(1/3). The
    quantum-classical boundary is mu = 1, i.e. a = hbar^2 / G m^3, and
    solving the two simultaneously gives

        m_c = (hbar^2 (4 pi rho_d / 3)^(1/3) / G)^(3/10)
            = (hbar rho_d^(1/6) / sqrt(G))^(3/5) (4 pi / 3)^(1/10),

    about 1e-17 kg at 1000 kg/m^3. Scales as rho_d^(1/10).
    """
    _check_positive(density=density)
    return (
        constants.hbar**2 * (4.0 * math.pi * density / 3.0) ** (1.0 / 3.0) / constants.G
    ) ** 0.3


def width_from_density(m: float, density: float) -> float:
    """Width of a uniform ball of mass m and the given density [m]."""
    return (3.0 * m / (4.0 * math.pi * density)) ** (1.0 / 3.0)


def classify(
    m: float,
    density: float,
    a: float | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> Regime:
    """Regime of an object: Classical iff L_c < a, Quantum iff L_c > a.

    Uses the asymptotic critical-length laws, under which the ratio L_c / a
    is continuous and strictly decreasing in m, equals 1 exactly at
    m = critical_mass(density) when a is derived from the density, and
    defines the Boundary verdict within 0.1 of 1.
    """
    _check_positive(mass=m)
    if a is None:
        _check_positive(density=density)
        a = width_from_density(m, density)
    _check_positive(width=a)
    ratio, _ = _asymptotic_ratio(coupling(m, a, constants))
    if abs(ratio - 1.0) <= _BOUNDARY_BAND:
        return Regime.BOUNDARY
    return Regime.CLASSICAL if ratio < 1.0 else Regime.QUANTUM


def decoherence_summary(
    p: PacketPair,
    density: float,
    th: Threshold = Threshold(),
    constants: PhysicalConstants = CODATA2018,
    t_cap: float = T_CAP_DEFAULT,
) -> DecoherenceResult:
    """Bundle damping time, critical length, critical mass and regime."""
    clr = critical_length(p.m, p.a, constants, th)
    return DecoherenceResult(
        damping_time=damping_time(p, th, constants, t_cap),
        critical_length=clr.l_c,
        critical_mass=critical_mass(density, constants),
        regime=classify(p.m, density, a=p.a, constants=constants),
        method=clr.method,
    )

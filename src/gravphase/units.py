"""Physical constants, input validation, and the SI <-> dimensionless map.

Everything downstream of this module works with the three dimensionless
groups

    mu      = G m^3 a / hbar^2      (gravitational strength)
    rho     = R / a                 (scaled separation)
    tau     = hbar t / (m a^2)      (scaled time)

so that the phase variance factors exactly as mu * f(rho, tau_max). SI
values appear only at the boundaries of the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "PacketPair",
    "DimensionlessParams",
    "CODATA2018",
    "NATURAL",
    "make_params",
    "coupling",
    "scaled_time",
    "time_unit",
    "nondimensionalize",
    "redimensionalize",
    "spreading_width",
]

# CODATA 2018: G in m^3 kg^-1 s^-2, hbar in J s
_G_CODATA = 6.67430e-11
_HBAR_CODATA = 1.0545718176461565e-34


@dataclass(frozen=True)
class PhysicalConstants:
    """Gravitational constant and reduced Planck constant."""

    G: float = _G_CODATA
    hbar: float = _HBAR_CODATA

    def __post_init__(self):
        if not (self.G > 0 and math.isfinite(self.G)):
            raise ValueError(f"G must be positive and finite, got {self.G}")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")

    def kappa(self, m: float) -> float:
        """kappa = G m^2 / hbar, the coupling that multiplies every integral."""
        return self.G * m * m / self.hbar


CODATA2018 = PhysicalConstants()

# unit-free constants, for tests and dimensionless work
NATURAL = PhysicalConstants(G=1.0, hbar=1.0)


@dataclass(frozen=True)
class PacketPair:
    """Two superposed Gaussian packets: mass m [kg], initial width a [m],
    peak separation R [m], time horizon T [s]."""

    m: float
    a: float
    R: float
    T: float


@dataclass(frozen=True)
class DimensionlessParams:
    """The unit-free parameter triple (mu, rho, tau_max)."""

    mu: float
    rho: float
    tau_max: float

    def __post_init__(self):
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (self.rho >= 0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be non-negative and finite, got {self.rho}")
        if not (self.tau_max > 0 and math.isfinite(self.tau_max)):
            raise ValueError(f"tau_max must be positive and finite, got {self.tau_max}")


def make_params(m: float, a: float, R: float, T: float) -> PacketPair:
    """Validate raw SI inputs and return a PacketPair.

    Raises ValueError naming the offending field for non-positive m, a, T,
    negative R, or any non-finite input.
    """
    for name, value in (("m", m), ("a", a), ("R", R), ("T", T)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if m <= 0:
        raise ValueError(f"mass m must be positive, got {m}")
    if a <= 0:
        raise ValueError(f"width a must be positive, got {a}")
    if R < 0:
        raise ValueError(f"separation R must be non-negative, got {R}")
    if T <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    return PacketPair(m=float(m), a=float(a), R=float(R), T=float(T))


def coupling(m: float, a: float, constants: PhysicalConstants = CODATA2018) -> float:
    """mu = G m^3 a / hbar^2; OverflowError if it leaves (0, inf)."""
    mu = constants.G * m**3 * a / constants.hbar**2
    if mu == 0.0 or not math.isfinite(mu):
        raise OverflowError(f"mu = G m^3 a / hbar^2 is {mu} for m = {m}, a = {a}")
    return mu


def _mass_area(m: float, a: float) -> float:
    """m a^2; OverflowError if it leaves (0, inf)."""
    ma2 = m * a**2
    if ma2 == 0.0 or not math.isfinite(ma2):
        raise OverflowError(f"m a^2 is {ma2} for m = {m}, a = {a}")
    return ma2


def scaled_time(
    m: float, a: float, t: float, constants: PhysicalConstants = CODATA2018
) -> float:
    """Time in spreading units, tau = hbar t / (m a^2); OverflowError if
    m a^2 leaves (0, inf)."""
    return constants.hbar * t / _mass_area(m, a)


def time_unit(m: float, a: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Seconds per unit tau, m a^2 / hbar; OverflowError if m a^2 leaves (0, inf)."""
    return _mass_area(m, a) / constants.hbar


def nondimensionalize(
    p: PacketPair, constants: PhysicalConstants = CODATA2018
) -> DimensionlessParams:
    """Map a PacketPair to (mu, rho, tau_max).

    Raises OverflowError if the inputs are so extreme that a group
    overflows or underflows to a non-finite or zero value.
    """
    mu = coupling(p.m, p.a, constants)
    rho = p.R / p.a
    tau_max = scaled_time(p.m, p.a, p.T, constants)
    for name, value in (("rho", rho), ("tau_max", tau_max)):
        if not math.isfinite(value):
            raise OverflowError(f"{name} overflowed for inputs {p}")
    if tau_max == 0.0:
        raise OverflowError(f"dimensionless groups underflowed for inputs {p}")
    return DimensionlessParams(mu=mu, rho=rho, tau_max=tau_max)


def redimensionalize(
    d: DimensionlessParams, m: float, constants: PhysicalConstants = CODATA2018
) -> PacketPair:
    """Invert the dimensionless map, anchored by the mass m."""
    if m <= 0 or not math.isfinite(m):
        raise ValueError(f"mass m must be positive and finite, got {m}")
    a = d.mu * constants.hbar**2 / (constants.G * m**3)
    R = d.rho * a
    T = d.tau_max * time_unit(m, a, constants)
    return make_params(m, a, R, T)


def spreading_width(
    p: PacketPair, t: float, constants: PhysicalConstants = CODATA2018
) -> float:
    """Squared width C1(t) = a^2 (1 + hbar^2 t^2 / m^2 a^4) of a free packet [m^2]."""
    if t < 0:
        raise ValueError(f"time t must be non-negative, got {t}")
    tau = scaled_time(p.m, p.a, t, constants)
    return p.a**2 * (1.0 + tau * tau)

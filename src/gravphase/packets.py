"""Free Gaussian wavepacket model.

Only the unperturbed free-particle probability density is needed: the
analysis is perturbative, so the density is always the free Gaussian

    |psi(r, t)|^2 = (pi C1)^(-3/2) exp(-|r - center|^2 / C1)

with C1(t) = a^2 (1 + hbar^2 t^2 / m^2 a^4). Complex amplitudes never
enter any computed quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import CODATA2018, PhysicalConstants, spreading_width

__all__ = ["GaussianPacket", "density", "self_potential_at_center"]


@dataclass(frozen=True)
class GaussianPacket:
    """A single free Gaussian packet: center [m], initial width a [m], mass m [kg]."""

    center: tuple[float, float, float]
    a: float
    m: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"width a must be positive, got {self.a}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(f"mass m must be positive, got {self.m}")

    def c1(self, t: float, constants: PhysicalConstants = CODATA2018) -> float:
        return spreading_width(self, t, constants)


def density(
    packet: GaussianPacket,
    point,
    t: float,
    constants: PhysicalConstants = CODATA2018,
):
    """Probability density |psi|^2 at one point or an array of points [m^-3].

    ``point`` is a length-3 sequence or an array of shape (..., 3).
    """
    c1 = packet.c1(t, constants)
    pt = np.asarray(point, dtype=float)
    d = pt - np.asarray(packet.center, dtype=float)
    r2 = np.sum(d * d, axis=-1)
    out = (math.pi * c1) ** -1.5 * np.exp(-r2 / c1)
    if out.ndim == 0:
        return float(out)
    return out


def self_potential_at_center(
    packet: GaussianPacket, t: float, constants: PhysicalConstants = CODATA2018
) -> float:
    """G m int |psi(r', t)|^2 / |c - r'| d^3r' evaluated at the packet center c.

    The integral reduces to a radial one with the closed form
    2 G m / (sqrt(pi) sqrt(C1)); it does not depend on the center at all,
    which is what makes the deterministic self-gravity phase difference of
    two displaced packets vanish identically.
    """
    c1 = packet.c1(t, constants)
    return 2.0 * constants.G * packet.m / (math.sqrt(math.pi) * math.sqrt(c1))

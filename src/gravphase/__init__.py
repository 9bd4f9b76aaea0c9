"""Gravitational decoherence of superposed Gaussian wavepackets.

A stochastic gravitational potential with covariance hbar G / |r - r'|,
white in time, imprints a random relative phase on the two branches of a
spatial superposition. This package computes the resulting phase
variance analytically, derives decoherence times and the critical
length/mass criteria from it, cross-checks every closed form with
independent Monte Carlo estimators, and reproduces the variance from
sampled noise-field realizations on a periodic grid.

All physics lives in the dimensionless triple mu = G m^3 a / hbar^2,
rho = R / a, tau = hbar t / (m a^2); the units module maps SI inputs in
and out of it.

The scalar path (units, variance, criteria) is pure ``math``. The
noisefield, oracle and packets names are imported on first access
(PEP 562), so a process that never touches them never imports numpy.
"""

import importlib

from .criteria import (
    BracketError,
    CriticalLengthResult,
    DecoherenceResult,
    Method,
    Regime,
    Threshold,
    classify,
    critical_length,
    critical_mass,
    damping_time,
    damping_time_short,
    decoherence_summary,
    width_from_density,
)
from .units import (
    CODATA2018,
    NATURAL,
    DimensionlessParams,
    PacketPair,
    PhysicalConstants,
    make_params,
    nondimensionalize,
    redimensionalize,
    spreading_width,
)
from .variance import VarianceBreakdown, i7, i8, phase_variance

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # units
    "PhysicalConstants", "CODATA2018", "NATURAL", "PacketPair",
    "DimensionlessParams", "make_params", "nondimensionalize",
    "redimensionalize", "spreading_width",
    # packets
    "GaussianPacket", "density", "self_potential_at_center",
    # variance
    "VarianceBreakdown", "phase_variance", "i7", "i8",
    # criteria
    "Threshold", "Regime", "Method", "CriticalLengthResult",
    "DecoherenceResult", "BracketError", "damping_time",
    "damping_time_short", "critical_length", "critical_mass",
    "width_from_density", "classify", "decoherence_summary",
    # oracle
    "McEstimate", "CancellationReport", "mc_i4_spatial", "mc_i6_spatial",
    "i4_closed_form", "i6_closed_form", "sn_cancellation_check",
    "erf_identity_check",
    # noisefield
    "FieldGrid", "EnsembleStats", "ConfigurationError", "sample_field_step",
    "measured_covariance", "smeared_potential", "simulate_phase_variance",
    "min_box_length",
]

# name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("ConfigurationError", "EnsembleStats", "FieldGrid",
                     "measured_covariance", "min_box_length", "sample_field_step",
                     "simulate_phase_variance", "smeared_potential"), "noisefield"),
    **dict.fromkeys(("CancellationReport", "McEstimate", "erf_identity_check",
                     "i4_closed_form", "i6_closed_form", "mc_i4_spatial",
                     "mc_i6_spatial", "sn_cancellation_check"), "oracle"),
    **dict.fromkeys(("GaussianPacket", "density", "self_potential_at_center"), "packets"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

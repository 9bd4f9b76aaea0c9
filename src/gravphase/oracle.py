"""Brute-force Monte Carlo and quadrature checks of the variance integrals.

Every closed form used by the analytic pipeline is re-derived here by an
independent route: the double-Gaussian Coulomb integrals by importance
sampling (the Gaussian densities are exact sampling distributions, leaving
only the bounded-variance 1/|z' - z''| factor to average; z' - z'' is
sqrt(C1) u for a standard normal 3-vector u, and by symmetry about e_x
|u - shift e_x| reads only u_x, a normal, and an independent u_y^2 + u_z^2,
which is 2 Exp(1): each sample is one normal and one exponential), the
deterministic self-gravity cancellation by translation invariance plus
MC, and the key error-function integral identity by direct quadrature.

Reproducibility contract: every estimator draws from counter-based Philox
streams keyed by (seed, domain tag) with the batch index in the counter
block; each batch is summed by numpy's pairwise sum, never a BLAS dot
(whose order follows the BLAS thread count), and partial results are
reduced in fixed batch order. The same (seed, n) therefore gives
bit-identical estimates regardless of how many workers execute the
batches or how many threads BLAS runs.

Common random numbers: estimates that share a stream are one sample
evaluated at several points. Given a sequence of C1 (mc_i4_spatial) or R
(mc_i6_spatial) values, each batch is drawn once and rescaled and shifted
per point, and every estimate keeps the bits of a call for its point
alone. The `oracle` command's three i4 rows (C1 = 1/4, 1, 4, so the
sampling scale sqrt(C1) is 2^-1, 2^0, 2^1) are therefore exact
power-of-two rescalings of one another: one statistical check seen at
three scales, not three independent checks. The three i6 rows are
correlated the same way, through one draw at three shifts.

Each thread draws into scratch of its own, _BATCH rows of 3 doubles
(about 1.5 MB), kept while the thread lives: the calling thread's when it
calls with workers <= 1, and each thread of parallel_map's pool, which
lives as long as the process, otherwise.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .noisefield import parallel_map, stream
from .packets import GaussianPacket, self_potential_at_center
from .units import NATURAL
from .variance import gauss_legendre

__all__ = [
    "McEstimate",
    "CancellationReport",
    "mc_i4_spatial",
    "mc_i6_spatial",
    "sn_cancellation_check",
    "erf_identity_check",
    "i4_closed_form",
    "i6_closed_form",
]

# fixed batch size; part of the determinism contract, do not tune per run
_BATCH = 1 << 16

# each thread's draw buffers (x, q and a work row, one batch each), made on its first batch
_scratch = threading.local()

# domain tags decorrelate the streams of the different estimators
_TAG_I4 = 0x11
_TAG_I6 = 0x16
_TAG_U_A1 = 0xA1
_TAG_U_A2 = 0xA2
_TAG_U_B1 = 0xB1
_TAG_U_B2 = 0xB2

_MIN_SAMPLES = 10**4

# Gauss-Legendre points per unit panel of erf_identity_check
_ERF_RULE = 12


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: float
    standard_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class CancellationReport:
    """Outcome of the deterministic-term cancellation check.

    ``analytic_difference`` is the self-potential difference between the
    two centers (exactly zero by translation invariance). i1, i2, i3 are
    the MC estimates of the three deterministic integrals per unit
    kappa^2; i2 shares i1's random streams, which realizes the change of
    variables that proves I1 = I2, so the two are bit-identical and the
    statistical content of the check is i1 + i2 + i3 against its combined
    standard error, plus the ratio i3/i1 = -2.
    """

    i1: float
    i2: float
    i3: float
    sum_value: float
    combined_se: float
    ratio_i3_i1: float
    analytic_difference: float
    n_samples: int
    seed: int


def _reduce_batches(partials: Sequence[tuple[float, float]], n: int) -> tuple[float, float]:
    """Mean and standard error from per-batch (sum, sum of squares), in fixed order."""
    mean = math.fsum(p[0] for p in partials) / n
    var = max(math.fsum(p[1] for p in partials) - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def _mean_inv_distance(
    seed: int, tag: int, n: int, points: Sequence[tuple[float, float]], workers: int | None
) -> list[tuple[float, float]]:
    """Mean and standard error of 1/|scale u - shift e_x| at each (scale, shift) point.

    u is a standard normal 3-vector; the kernel reads shift/scale, and the
    scale divides the reduced mean and error. Each batch is drawn once and
    shifted point by point, so each estimate equals a call at its point alone.
    """
    sizes = [min(_BATCH, n - start) for start in range(0, n, _BATCH)]
    shifts = [shift / scale for scale, shift in points]
    kernel = functools.partial(_inv_distance_batch, seed, tag, shifts=shifts)
    partials = parallel_map(kernel, range(len(sizes)), sizes, workers=workers)
    reduced = (_reduce_batches(per_point, n) for per_point in zip(*partials))
    return [(mean / scale, se / scale) for (scale, _), (mean, se) in zip(points, reduced)]


def _inv_distance_batch(
    seed: int, tag: int, batch: int, count: int, shifts: Sequence[float]
) -> list[tuple[float, float]]:
    """Sum of 1/|u - shift e_x| and of its square over one batch, per shift.

    |u - shift e_x|^2 = (x - shift)^2 + q, for ``count`` normals x and as
    many q = 2 Exp(1). A sample at the pole itself would make the sums
    infinite, which callers report as a numerical failure; even within
    1e-12 of it, its chance is below 3e-37.
    """
    if not hasattr(_scratch, "buffers"):
        _scratch.buffers = tuple(np.empty(_BATCH) for _ in range(3))
    x, q, r = (a[:count] for a in _scratch.buffers)
    rng = stream(seed, tag, batch=batch)
    rng.standard_normal(out=x)
    np.multiply(rng.standard_exponential(out=q), 2.0, out=q)
    sums = {}
    for shift in dict.fromkeys(shifts):  # each distinct shift once
        np.square(np.subtract(x, shift, out=r), out=r)
        r += q
        np.divide(1.0, r, out=r)
        total_sq = float(r.sum())
        sums[shift] = (float(np.sqrt(r, out=r).sum()), total_sq)
    return [sums[shift] for shift in shifts]


def i4_closed_form(c1: float) -> float:
    """Target of mc_i4_spatial: sqrt(2/pi) / sqrt(C1), per unit kappa."""
    return math.sqrt(2.0 / math.pi) / math.sqrt(c1)


def i6_closed_form(c1: float, R: float) -> float:
    """Target of mc_i6_spatial: -(2/R) erf(R / sqrt(2 C1)), per unit kappa."""
    return -2.0 / R * math.erf(R / math.sqrt(2.0 * c1))


def mc_i4_spatial(
    c1: float | Sequence[float], n: int, seed: int, workers: int | None = None
) -> McEstimate | list[McEstimate]:
    """Importance-sampled same-center integral, per unit kappa.

    Averages 1/|z' - z''| for z', z'' from the two (coincident) Gaussian
    densities with per-axis variance C1/2, sampled as sqrt(C1) u; the
    closed form is sqrt(2/pi)/sqrt(C1). A sequence of C1 values returns a
    list with one estimate per value, all read off one shared draw.
    """
    c1s, many = _check_mc_args(c1, n)
    ests = [
        McEstimate(value=mean, standard_error=se, n_samples=n, seed=seed)
        for mean, se in _mean_inv_distance(
            seed, _TAG_I4, n, [(math.sqrt(c), 0.0) for c in c1s], workers)
    ]
    return ests if many else ests[0]


def mc_i6_spatial(
    c1: float, R: float | Sequence[float], n: int, seed: int, workers: int | None = None
) -> McEstimate | list[McEstimate]:
    """Importance-sampled cross integral, per unit kappa.

    z' lies around the origin and z'' around a center displaced by R, each
    with per-axis variance C1/2, sampled as sqrt(C1) u - R e_x; the average
    of -2/|z' - z''| has closed form -(2/R) erf(R/sqrt(2 C1)). A sequence of
    R values returns a list with one estimate per value, all read off one
    shared draw.
    """
    _check_mc_args(c1, n)
    rs, many = _positive("R", R)
    ests = [
        McEstimate(value=-2.0 * mean, standard_error=2.0 * se, n_samples=n, seed=seed)
        for mean, se in _mean_inv_distance(
            seed, _TAG_I6, n, [(math.sqrt(c1), r) for r in rs], workers)
    ]
    return ests if many else ests[0]


def sn_cancellation_check(
    c1: float, R: float, n: int, seed: int, workers: int | None = None
) -> CancellationReport:
    """Verify that the deterministic self-gravity terms cancel.

    The three integrals factorize into products of the single-center
    integral u = int |psi|^2 / |center - r'| d^3r' = 2/sqrt(pi C1), each
    factor referred to its own center. Analytically the difference of
    self-potentials at the two centers is identically zero. The MC route
    estimates u twice from independent streams for I1 (and, after the
    change of variables, reuses the identical streams for I2) and twice
    more from fresh streams for I3 = -2 u u.
    """
    _check_mc_args(c1, n)
    a = math.sqrt(c1)
    p1 = GaussianPacket(center=(0.0, 0.0, 0.0), a=a, m=1.0)
    p2 = GaussianPacket(center=(R, 0.0, 0.0), a=a, m=1.0)
    analytic = self_potential_at_center(p1, 0.0, NATURAL) - self_potential_at_center(
        p2, 0.0, NATURAL
    )

    # I2's substitution variables are I1's samples; same streams, same result
    (ua, sea), (uap, seap), (ub, seb), (ubp, sebp) = [
        _mean_inv_distance(seed, tag, n, ((math.sqrt(c1 / 2.0), 0.0),), workers)[0]
        for tag in (_TAG_U_A1, _TAG_U_A2, _TAG_U_B1, _TAG_U_B2)
    ]

    i1 = ua * uap
    i2 = ua * uap
    i3 = -2.0 * ub * ubp
    se1 = abs(i1) * math.hypot(sea / ua, seap / uap)
    se3 = abs(i3) * math.hypot(seb / ub, sebp / ubp)
    # i2 is bit-identical to i1, so var(i1 + i2) = 4 var(i1)
    combined = math.hypot(2.0 * se1, se3)
    return CancellationReport(
        i1=i1,
        i2=i2,
        i3=i3,
        sum_value=i1 + i2 + i3,
        combined_se=combined,
        ratio_i3_i1=i3 / i1,
        analytic_difference=analytic,
        n_samples=n,
        seed=seed,
    )


def erf_identity_check(R: float, c1: float) -> float:
    """Residual of the error-function integral identity used to close I6.

    Checks |LHS - RHS| for

        int_0^inf erf(x) [exp(-(x-c)^2) - exp(-(x+c)^2)] dx
            = sqrt(pi) erf(c / sqrt(2)),   c = R / sqrt(C1),

    by a fixed Gauss-Legendre rule on unit-width panels against the closed
    form. The integrand is positive and below exp(-225) outside
    [c - 15, c + 15], so the panels cover [max(0, c - 15), c + 15].
    """
    if R < 0:
        raise ValueError(f"R must be non-negative, got {R}")
    if not c1 > 0:
        raise ValueError(f"C1 must be positive, got {c1}")
    c = R / math.sqrt(c1)

    def f(x: float) -> float:
        return math.erf(x) * (math.exp(-((x - c) ** 2)) - math.exp(-((x + c) ** 2)))

    lo, hi = max(0.0, c - 15.0), c + 15.0
    panels = math.ceil(hi - lo)
    h = (hi - lo) / panels
    lhs = h * sum(
        w * f(lo + h * (k + t)) for k in range(panels) for t, w in gauss_legendre(_ERF_RULE)
    )
    rhs = math.sqrt(math.pi) * math.erf(c / math.sqrt(2.0))
    return abs(lhs - rhs)


def _positive(name: str, x: float | Sequence[float]) -> tuple[tuple[float, ...], bool]:
    """The values of a scalar or sequence argument and whether it was a
    sequence; ValueError unless there is at least one and each is positive."""
    many = np.ndim(x) > 0
    values = tuple(x) if many else (x,)
    if not values:
        raise ValueError(f"need at least one {name} value")
    for v in values:
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
    return values, many


def _check_mc_args(c1: float | Sequence[float], n: int) -> tuple[tuple[float, ...], bool]:
    c1s = _positive("C1", c1)
    if n < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    return c1s

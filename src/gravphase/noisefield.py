"""Sampling of the spatially correlated, temporally white noise potential.

Target statistics: <phi(r, t) phi(r', t')> = hbar G |r - r'|^(-1) delta(t - t').

On a periodic n^3 grid the field is synthesized spectrally as a circulant
Gaussian: take the kernel row K(d) = hbar G / r_min_image(d) at every
nonzero lattice offset, assign the coincident-cell value from the exact
cell average of 1/r (the integral of 1/|u| over a unit cube is
2.3800774 dx^2, so K(0) = 2.3800774 hbar G / dx), and filter white noise
with the square root of the kernel's DFT,

    phi = ifftn(fftn(w) sqrt(P)) / sqrt(dt),      P = DFT(K) >= 0.

Because the field is then literally a convolution of iid Gaussians, its
lattice covariance equals K at every lag in expectation, with no band
limit or truncation artifacts: the measured two-point function matches
hbar G / r exactly (up to sampling noise) for all separations below half
the box. The minimum-image kernel row is what keeps the spectrum
positive, as circulant embedding needs (Dietrich and Newsam 1997); a
sharp spherical cutoff at L/2 does not. The row is even in each axis, so
P is the 3-D DCT-I of its (n/2 + 1)^3 octant (Martucci 1994), built once
per n for unit spacing; P(n, dx) is that over dx. The minimum of P times
dx measures 0.559496, 0.558744, 0.558556 and 0.558509 at n = 32, 64, 128
and 256: the gaps shrink fourfold per doubling of n, so the minimum
tends to about 0.5585 / dx and no mode is ever negative.

The 1/sqrt(dt) factor realizes the white-in-time normalization: fields at
different steps are independent, and covariance times dt is the delta weight.

P is real and even, so the field is filtered over the rfftn half
spectrum, and the filter F = ifftn(fftn(.) sqrt(P)) is self-adjoint,

    <d, F w> = <F d, w>,

which is what the ensemble simulator exploits: each member's phase is
a sum over steps of <d_s, F w_s> with d_s the density difference of
the two packets, so F d_s is filtered once per step and shared by every
member. The packets differ only along x, about the box centre, so the
spectrum of F d_s is i X(kx) Y(ky) Y(kz) sqrt(P), from three length-n
transforms, with one magnitude over each orbit of {+-kx} x {+-ky} x
{+-kz} x {swap ky, kz}, and its squared norm is a sum over a cached
table of those orbits. <F d_s, w_s> is a fixed linear form in white
normals, so it has exactly the law of ||F d_s|| z, z ~ N(0, 1): a
member-step is one Philox re-key and one normal, and
mu dtau sum_s ||F d_s||^2 is the lattice-exact ensemble variance, with
no sampling at all. The covariance estimator needs only |rfftn(w)|^2 P,
reduced to its three axis marginals and weighted by cos(2 pi k lag / n),
so it draws |rfftn(w)|^2 / n^3 straight from its law, one exponential per
cell, and makes no field.

Every random draw in the package, here and in the oracle, comes from
``stream``: one Philox generator per thread, re-keyed per (seed, domain
tag, member, step, batch), with no OS entropy read per draw, so a draw
depends only on what it is for, never on which worker makes it.
``parallel_map`` returns results in input order, and every reduction is
numpy's own pairwise sum rather than a BLAS dot, whose summation order
follows the BLAS thread count, so results are bit-identical for any
worker count on any machine.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .packets import GaussianPacket
from .units import (
    CODATA2018, PacketPair, PhysicalConstants, nondimensionalize, spreading_width,
)

__all__ = [
    "FieldGrid",
    "EnsembleStats",
    "CovarianceRow",
    "ConfigurationError",
    "CUBE_SELF_CONSTANT",
    "sample_field_step",
    "measured_covariance",
    "smeared_potential",
    "simulate_phase_variance",
    "min_box_length",
    "default_workers",
]

# integral of 1/|u| over the unit cube centered at the origin
CUBE_SELF_CONSTANT = 2.380077363979553

_TAG_FIELD = 0xF1
_TAG_COV = 0xC0
_TAG_SIM = 0x51

_MIN_MEMBERS = 64


class ConfigurationError(ValueError):
    """Grid or ensemble configuration violates a stated precondition."""


@dataclass(frozen=True)
class FieldGrid:
    """Periodic sampling grid: n points per axis (power of two, >= 32),
    box length [m], time step dt [s], step count, and the ensemble seed."""

    n: int
    box_length: float
    dt: float
    n_steps: int
    seed: int

    def __post_init__(self):
        if self.n < 32 or (self.n & (self.n - 1)) != 0:
            raise ConfigurationError(
                f"n must be a power of two >= 32, got {self.n}"
            )
        if not (self.box_length > 0 and math.isfinite(self.box_length)):
            raise ConfigurationError(f"box_length must be positive, got {self.box_length}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dx(self) -> float:
        """Grid spacing box / n [m]; OverflowError where it underflows to 0."""
        dx = self.box_length / self.n
        if dx == 0.0:
            raise OverflowError(f"grid spacing box / n underflows to 0 at box {self.box_length} m")
        return dx


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble estimate of the phase variance.

    ``lattice_variance`` is the variance the ensemble estimates, exact for
    this lattice and time step, so ``variance - lattice_variance`` is pure
    sampling noise and ``lattice_variance`` minus the continuum value is the
    discretization bias. The member phases are exactly Gaussian with that
    variance, so the sample variance s^2 has the exact standard error
    ``standard_error_of_variance`` = lattice_variance sqrt(2 / (n - 1)).
    """

    n_members: int
    mean: float
    variance: float
    standard_error_of_variance: float
    lattice_variance: float


@dataclass(frozen=True)
class CovarianceRow:
    separation: float
    estimate: float
    standard_error: float
    target: float


def default_workers() -> int:
    """Worker count: GRAVPHASE_THREADS if set, else the CPUs this process
    may run on (its affinity mask; ``os.cpu_count()`` where there is none)."""
    env = os.environ.get("GRAVPHASE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set in the threads of the pools below, so a call made from a task runs serially
_in_pool = threading.local()


def _mark_pool_thread() -> None:
    _in_pool.active = True


@functools.cache
def _pool(workers: int):
    """The process's one ThreadPoolExecutor of ``workers`` threads, started
    on first use.

    Threads start as tasks need them, one per task at most, and exit with
    the interpreter. concurrent.futures (with logging, about 0.6 MB resident)
    is imported here, so a run on one worker never loads it.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_thread)


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pools but none of their threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def parallel_map(fn, *iterables, workers: int | None = None) -> list:
    """``list(map(fn, *iterables))``, run on up to ``workers`` threads
    (``default_workers()`` if None) of a pool kept for the life of the
    process. A call from inside a pool thread runs serially, so a task
    never waits on the pool it occupies."""
    if workers is None:
        workers = default_workers()
    if workers <= 1 or getattr(_in_pool, "active", False):
        return list(map(fn, *iterables))
    return list(_pool(workers).map(fn, *iterables))


# the calling thread's one generator and the state dict that re-keys it
_rng = threading.local()


def stream(
    seed: int, tag: int, member: int = 0, step: int = 0, batch: int = 0
) -> Generator:
    """The calling thread's one Philox generator, set to the state that
    ``Philox(key=(seed, tag), counter=(0, member, step, batch))`` starts in,
    so it draws what a fresh generator would without building one or
    reading OS entropy. The next call in the same thread re-keys it.
    ValueError unless 0 <= seed < 2**64, the range of a Philox key word."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not hasattr(_rng, "state"):
        _rng.generator = Generator(Philox(0))
        _rng.state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0),
                      "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    _rng.state["state"] = {"key": (seed, tag), "counter": (0, member, step, batch)}
    _rng.generator.bit_generator.state = _rng.state
    return _rng.generator


@functools.cache
def _octant(n: int) -> np.ndarray:
    """P for unit spacing at |kx|, |ky|, |kz| = 0 .. n/2, cached per n and
    read-only: the DFT of the min-image kernel row 1/r with K(0) =
    ``CUBE_SELF_CONSTANT``. The row for spacing dx is this one over dx, so
    P(n, dx) = P / dx, and callers scale by hbar G / dx.

    The row is even along each axis, so its DFT is the 3-D DCT-I of the
    row's (n/2 + 1)^3 octant (Martucci 1994), and one DCT-I along an axis
    is the real part of the rfft of the length-n even extension. Each cell
    is read at its sorted index triple, so P is exactly symmetric under
    axis permutations.
    """
    a = np.arange(n // 2 + 1)
    x, y, z = np.meshgrid(a, a, a, indexing="ij", sparse=True)
    p = 1.0 / np.sqrt(np.maximum(x * x + y * y + z * z, 1.0))
    p[0, 0, 0] = CUBE_SELF_CONSTANT
    fold = np.minimum(np.arange(n), n - np.arange(n))  # |offset| at each index
    for axis in range(3):
        p = np.fft.rfft(np.take(p, fold, axis), axis=axis).real
    lo, hi = np.minimum(np.minimum(x, y), z), np.maximum(np.maximum(x, y), z)
    p = p[lo, x + y + z - lo - hi, hi]
    p.flags.writeable = False  # cached, so every caller shares this array
    return p


def _half_spectrum(n: int) -> np.ndarray:
    """P for unit spacing over the rfftn half spectrum (kz = 0 .. n/2): the
    octant at the |k| of each index. P is even, so the half holds every value."""
    f = np.minimum(np.arange(n), n - np.arange(n))  # |k| at each index
    return _octant(n)[np.ix_(f, f, f[: n // 2 + 1])]


@functools.cache
def _cell_weight(n: int) -> np.ndarray:
    """How many cells of the full n^3 spectrum each rfftn half-spectrum cell
    stands for; an (n, n, n/2 + 1) int8 array, cached and read-only.

    An inner kz stands for itself and its mirror: 2. On the planes kz = 0 and
    n/2 a cell holds the conjugate of its mirror ((-kx) mod n, (-ky) mod n):
    of the two, the one with the lower flat index kx n + ky counts 2 and the
    other 0, and the 8 self-conjugate cells (kx, ky, kz in {0, n/2}) count 1.
    """
    i = np.arange(n)
    flat = i[:, None] * n + i
    w = np.full((n, n, n // 2 + 1), 2, dtype=np.int8)
    w[:, :, :: n // 2] = (1 + np.sign(flat[-i % n][:, -i % n] - flat))[:, :, None]
    w.flags.writeable = False  # cached, so every caller shares this array
    return w


def sample_field_step(
    grid: FieldGrid,
    member: int,
    step: int,
    constants: PhysicalConstants = CODATA2018,
    zero_mean: bool = False,
) -> np.ndarray:
    """One realization of the noise potential for (member, step).

    Deterministic in (seed, member, step). With ``zero_mean`` the k = 0
    mode is nulled, making the spatial mean of each realization exactly
    zero; the mode carries no weight in any phase difference (a constant
    potential shifts both packets equally) but it does contribute to the
    raw two-point function, so the default keeps it and reproduces
    hbar G / r without a constant offset.
    """
    # two roots, as hbar G / dx overflows at the tiniest boxes in natural units
    scale = math.sqrt(constants.hbar * constants.G) / math.sqrt(grid.dx)
    amp = np.sqrt(_half_spectrum(grid.n)) * scale
    if zero_mean:
        amp[0, 0, 0] = 0.0
    w = stream(grid.seed, _TAG_FIELD, member, step).standard_normal((grid.n,) * 3)
    phi = np.fft.irfftn(np.fft.rfftn(w) * amp)  # n is even, so irfftn restores it
    return phi / math.sqrt(grid.dt)


def measured_covariance(
    grid: FieldGrid,
    n_realizations: int,
    separations,
    constants: PhysicalConstants = CODATA2018,
) -> list[CovarianceRow]:
    """Ensemble two-point function along the axes, already multiplied by dt.

    The field's 1/dt variance and the factor dt cancel, so the estimate
    comes from the dt-free spectrum and ``grid.dt`` does not change it.

    Each requested separation is snapped to the nearest axis lag; the
    estimate at each lag averages the three axis directions and all grid
    sites (one circular autocorrelation per realization), with the
    standard error taken across realizations. Targets are hbar G / r at
    the snapped separations; OverflowError, before any draw, where the
    grid spacing underflows to 0 or the smallest target underflows past
    the normal double range.

    The autocorrelation at lag l along x is n^-3 sum_k e_k P(k)
    cos(2 pi kx l / n), e = |fftn(w)|^2 / n^3 for white normals w, and e
    has an exact law on the half spectrum: Exp(1) per independent cell,
    chi^2_1 at the 8 self-conjugate ones (kx, ky, kz in {0, n/2}). So a
    realization draws one exponential per cell, then 8 normals whose
    squares replace the self-conjugate cells, and no field. A cell weighs
    the cells it stands for, ``_cell_weight``: the cosine weights are even.

    Realizations run on ``default_workers()`` threads (GRAVPHASE_THREADS
    sets the count), each drawing stream (seed, m) into an array the size
    of the half spectrum; the rows are reduced in realization order, so the
    result is bit-identical for any worker count.
    """
    if n_realizations < 100:
        raise ValueError(f"need at least 100 realizations, got {n_realizations}")
    dx = grid.dx
    lags = []
    for r in separations:
        if not (dx <= r <= grid.box_length / 2.0):
            raise ValueError(
                f"separation {r} outside [{dx}, {grid.box_length / 2.0}]"
            )
        lags.append(round(r / dx))
    if not lags:
        raise ValueError("need at least one separation")
    if constants.hbar * constants.G / (max(lags) * dx) < sys.float_info.min:
        raise OverflowError(f"target hbar G / r underflows at box {grid.box_length} m")
    n = grid.n
    p = _half_spectrum(n) * _cell_weight(n)  # hbar G / dx factored out
    cos_x = np.cos(2.0 * math.pi * (np.outer(lags, np.arange(n)) % n) / n)
    cos_z = cos_x[:, : n // 2 + 1]
    norm = 3.0 * float(n) ** 3

    def realization(m: int) -> np.ndarray:
        g = stream(grid.seed, _TAG_COV, m)
        s = g.standard_exponential(p.shape)
        s[:: n // 2, :: n // 2, :: n // 2] = np.square(g.standard_normal((2, 2, 2)))
        s *= p
        s_xy = s.sum(axis=2)
        # x and y marginals share their cosine weights
        m_xy = s_xy.sum(axis=1) + s_xy.sum(axis=0)
        m_z = s.sum(axis=(0, 1))
        return ((cos_x * m_xy).sum(axis=1) + (cos_z * m_z).sum(axis=1)) / norm

    per_real = np.array(parallel_map(realization, range(n_realizations)))
    scale = constants.hbar * constants.G / dx
    rows = []
    for j, lag in enumerate(lags):
        r_snap = lag * dx
        rows.append(
            CovarianceRow(
                separation=r_snap,
                estimate=float(per_real[:, j].mean()) * scale,
                standard_error=float(per_real[:, j].std(ddof=1)) * scale
                / math.sqrt(n_realizations),
                target=constants.hbar * constants.G / r_snap,
            )
        )
    return rows


def _profile(n: int, box: float, c: float, c1: float) -> np.ndarray:
    """exp(-d^2 / c1) on the n nodes of one axis, d the min-image distance to c."""
    d = np.arange(n) * (box / n) - c
    d -= box * np.round(d / box)
    return np.exp(-d * d / c1)


def _density_grid(n: int, box: float, center, c1: float) -> np.ndarray:
    """Normalized Gaussian density on grid nodes with periodic min-image distances."""
    x, y, z = (_profile(n, box, c, c1) for c in center)
    return x[:, None, None] * y[:, None] * z / (math.pi * c1) ** 1.5


def smeared_potential(
    grid: FieldGrid,
    field: np.ndarray,
    packet: GaussianPacket,
    t: float,
    constants: PhysicalConstants = CODATA2018,
) -> float:
    """Grid quadrature of m int |psi(r')|^2 phi(r') d^3r' [J].

    Raises ConfigurationError if the packet's density mass on the grid
    deviates from 1 by more than 1e-6 (support clipped by the box).
    """
    c1 = packet.c1(t, constants)
    dens = _density_grid(grid.n, grid.box_length, packet.center, c1)
    cell = grid.dx**3
    mass = float(dens.sum() * cell)
    if abs(mass - 1.0) > 1e-6:
        raise ConfigurationError(
            f"packet density mass on grid is {mass:.9f}; support clipped by the box"
        )
    return packet.m * float((dens * field).sum()) * cell


def min_box_length(p: PacketPair, constants: PhysicalConstants = CODATA2018) -> float:
    """Smallest box the ensemble simulator accepts, 8 max(R, sqrt(C1(T))) [m]."""
    return 8.0 * max(p.R, math.sqrt(spreading_width(p, p.T, constants)))


def simulate_phase_variance(
    p: PacketPair,
    grid: FieldGrid,
    n_members: int,
    constants: PhysicalConstants = CODATA2018,
    workers: int | None = None,
) -> EnsembleStats:
    """Ensemble variance of the stochastic phase difference.

    Each member integrates DeltaPhi = -(1/hbar) sum_steps [V(r1) - V(r2)] dt
    with both smeared potentials evaluated on the same field realization,
    the packet width following C1(t) at midstep times. The computation
    runs in the dimensionless variables (mu, rho, tau): lengths in units
    of a, and the overall factor sqrt(mu dtau) applied per step, which
    keeps every intermediate O(1). The deterministic self-gravity term is
    omitted because it cancels identically between the two centers (see
    oracle.sn_cancellation_check for the explicit verification).

    Ensemble members map to counter-based streams indexed (member, step),
    so the result is bit-identical for any worker count. The standard error
    comes from the phases' exact law, as ``EnsembleStats`` states.
    """
    if n_members < _MIN_MEMBERS:
        raise ValueError(f"need at least {_MIN_MEMBERS} members, got {n_members}")
    phases, lattice = _ensemble(p, grid, n_members, constants, workers)
    return EnsembleStats(
        n_members=n_members,
        mean=float(phases.mean()),
        variance=float(phases.var(ddof=1)),
        standard_error_of_variance=lattice * math.sqrt(2.0 / (n_members - 1)),
        lattice_variance=lattice,
    )


@functools.cache
def _orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One row per orbit of {+-kx} x {+-ky} x {+-kz} x {swap ky, kz} over
    the whole n^3 spectrum, in label order; cached per n, read-only.

    Returns ``label``: a (3, rows) array of (kx, ky, kz), 0 <= kx <= n/2 and
    0 <= ky <= kz <= n/2; ``weight``: the orbit's cell count in the full n^3
    spectrum over n^3, times P for unit spacing.
    """
    h = n // 2
    ky, kz = np.triu_indices(h + 1)
    kx = np.repeat(np.arange(h + 1), ky.size)
    ky, kz = np.tile(ky, h + 1), np.tile(kz, h + 1)
    label = np.stack((kx, ky, kz)).astype(np.int32)
    # 2 signs of each k off 0 and n/2, and 2 orders of ky != kz
    count = np.prod(2 - (label % h == 0), axis=0) * (1 + (label[1] != label[2]))
    weight = count / float(n) ** 3 * _octant(n)[tuple(label)]
    for a in (label, weight):
        a.flags.writeable = False  # cached, so every caller shares these arrays
    return label, weight


def _norm2(x: np.ndarray, yz: np.ndarray) -> float:
    """The squared norm of the real field with rfftn i X(kx) Y(ky) Y(kz)
    sqrt(P), P for unit spacing, given x = X and yz = Y at k = 0 .. n/2,
    X odd and Y even: the sum of (X Y Y)^2 ``weight`` over every row of
    ``_orbits(n)``. <field, w> over iid standard normals w has the law of
    that norm times one standard normal.
    """
    label, weight = _orbits(2 * (x.size - 1))
    kx, ky, kz = label
    return float((np.square(x[kx] * yz[ky] * yz[kz]) * weight).sum())


def _ensemble(
    p: PacketPair,
    grid: FieldGrid,
    n_members: int,
    constants: PhysicalConstants = CODATA2018,
    workers: int | None = None,
) -> tuple[np.ndarray, float]:
    """Member phases and the lattice-exact variance they sample.

    Member ``mem``'s phase is -sqrt(mu dtau) sum_s <g_s, w_s> with
    g_s = F d_s the filtered density difference of step s (the adjoint
    form of <d_s, F w_s>) and w_s white noise. <g_s, w_s> has the law of
    ||g_s|| z_s, z_s standard normal, so it is drawn as that, with z_s the
    first normal of stream (mem, s) and the steps summed in order. The
    phases are Gaussian with variance mu dtau sum_s ||g_s||^2, the
    squared norms ``_norm2`` gives.

    rfftn(d_s) = f_s i X(kx) Y(ky) Y(kz), f_s = cell / (pi c1)^(3/2), X the
    Im of the rfft of the x profile difference, Y the Re of the centred
    profile's. With hbar G = 1, P(n, dx) is the unit P over dx.
    """
    d = nondimensionalize(p, constants)
    horizon = grid.n_steps * grid.dt
    if abs(horizon - p.T) > 1e-9 * p.T:
        raise ConfigurationError(
            f"n_steps*dt = {horizon} does not match the horizon T = {p.T}"
        )
    required = min_box_length(p, constants)
    if grid.box_length < required * (1.0 - 1e-12):
        raise ConfigurationError(
            f"box_length {grid.box_length} below 8*max(R, sqrt(C1(T))) = {required}"
        )

    n = grid.n
    box = grid.box_length / p.a  # box in units of a
    dx = box / n
    dtau = d.tau_max / grid.n_steps
    half = box / 2.0

    # squared norm of the filtered density difference per step, shared by all members
    norm2 = []
    for s in range(grid.n_steps):
        c1 = 1.0 + ((s + 0.5) * dtau) ** 2
        f = dx**2.5 / (math.pi * c1) ** 1.5  # cell / (pi c1)^(3/2) / sqrt(dx)
        x = f * np.fft.rfft(
            _profile(n, box, half - d.rho / 2.0, c1) - _profile(n, box, half + d.rho / 2.0, c1)
        ).imag
        norm2.append(_norm2(x, np.fft.rfft(_profile(n, box, half, c1)).real))

    mu_dtau = d.mu * dtau
    scale = math.sqrt(mu_dtau)
    norms = [math.sqrt(e) for e in norm2]

    def member_phase(mem: int) -> float:
        acc = 0.0
        for s, c in enumerate(norms):
            acc += c * stream(grid.seed, _TAG_SIM, mem, s).standard_normal()
        return -scale * acc

    phases = np.array(parallel_map(member_phase, range(n_members), workers=workers))
    lattice = mu_dtau * math.fsum(norm2)
    return phases, lattice

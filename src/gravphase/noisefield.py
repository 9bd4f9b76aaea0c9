"""Sampling of the spatially correlated, temporally white noise potential.

Target statistics: <phi(r, t) phi(r', t')> = hbar G |r - r'|^(-1) delta(t - t').

On a periodic n^3 grid the field is synthesized spectrally as a circulant
Gaussian: take the kernel row K(d) = hbar G / r_min_image(d) at every
nonzero lattice offset, assign the coincident-cell value from the exact
cell average of 1/r (the integral of 1/|u| over a unit cube is
2.3800774 dx^2, so K(0) = 2.3800774 hbar G / dx), and filter white noise
with the square root of the kernel's DFT,

    phi = ifftn(fftn(w) sqrt(P)) / sqrt(dt),      P = fftn(K) >= 0.

Because the field is then literally a convolution of iid Gaussians, its
lattice covariance equals K at every lag in expectation, with no band
limit or truncation artifacts: the measured two-point function matches
hbar G / r exactly (up to sampling noise) for all separations below half
the box. The minimum-image kernel row is what keeps the spectrum
positive, as circulant embedding needs (Dietrich and Newsam 1997); a
sharp spherical cutoff at L/2 does not. dx only scales P, and the
minimum of P times dx measures 0.559496, 0.558744, 0.558556 and 0.558509
at n = 32, 64, 128 and 256: the gaps shrink fourfold per doubling of n,
so the minimum tends to about 0.5585 / dx and no mode is ever negative.

The 1/sqrt(dt) factor realizes the white-in-time normalization on a
discrete time grid: fields at different steps are independent, and the
covariance times dt reproduces the delta-correlation weight.

P is real and even (P(k) = P(-k)), so only the half spectrum over the
last axis is used: ``rfftn``/``irfftn`` with ``P[:, :, :n//2 + 1]``. The
same symmetry makes the filter F = ifftn(fftn(.) sqrt(P)) self-adjoint,

    <d, F w> = <F d, w>,

which is what the ensemble simulator exploits: each member's phase is
a sum over steps of <d_s, F w_s> with d_s the density difference of
the two packets, so F d_s is filtered once per step and shared by every
member. It never leaves the half spectrum: by Parseval, <F d_s, w_s> is
a sum over the independent real coordinates of rfftn(F d_s), each times
its own normal. The packets differ only along x, about the box centre,
so rfftn(d_s) is the outer product of three length-n transforms, an odd
imaginary one along x and two real ones: a cell's one coordinate is its
Im, 0 on the planes kx = 0 and n/2. The part of the sum over one orbit
of {+-kx} x {+-ky} x {+-kz} x {swap ky, kz} has the law of the orbit's
norm times one normal, so <F d_s, w_s> has the law of <c_s, z>, c_s the
orbit norms and z ~ N(0, I). F d_s is a filtered difference of
Gaussians, so its spectrum falls like exp(-k^2 C1 / 4), and the outer
|k|^2 shells that together hold no more than 1e-17 of its energy are
cut. A member-step is then one Philox draw, one normal per kept orbit,
and one reduction, and mu dtau sum_s ||c_s||^2 is the lattice-exact
ensemble variance, with no sampling at all. The covariance estimator
needs only |rfftn(w)|^2 P, reduced to its three axis marginals and
weighted by cos(2 pi k lag / n), so it draws |rfftn(w)|^2 / n^3 straight
from its law, one exponential per cell, and makes no field.

Every random draw in the package, here and in the oracle, comes from
``stream``: a Philox generator keyed by (seed, domain tag) with counter
(0, member, step, batch), so a draw depends only on what it is for, never
on which worker makes it. ``parallel_map`` returns results in input
order, and every reduction is numpy's own pairwise sum rather than a
BLAS dot, whose summation order follows the BLAS thread count, so
results are bit-identical for any worker count on any machine.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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

_AXES = (0, 1, 2)


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
        return self.box_length / self.n


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
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's one pool of ``workers`` threads, started on first use.

    Threads start as tasks need them, one per task at most, and exit with
    the interpreter.
    """
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


def stream(
    seed: int, tag: int, member: int = 0, step: int = 0, batch: int = 0
) -> Generator:
    """Generator for one (seed, tag) stream at counter (0, member, step, batch);
    ValueError unless 0 <= seed < 2**64, the range of a Philox key word."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, tag], dtype=np.uint64)
    counter = np.array([0, member, step, batch], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def _kernel_row(n: int, dx: float) -> np.ndarray:
    """The min-image 1/r kernel row for unit coupling, K(0) from the cell average."""
    o = (np.arange(n) + n // 2) % n - n // 2
    ox, oy, oz = np.meshgrid(o, o, o, indexing="ij", sparse=True)
    r = np.sqrt((ox * ox + oy * oy + oz * oz).astype(float)) * dx
    r[0, 0, 0] = 1.0
    k_row = 1.0 / r
    k_row[0, 0, 0] = CUBE_SELF_CONSTANT / dx
    return k_row


def _unit_spectrum(n: int, dx: float) -> np.ndarray:
    """DFT of the kernel row over the full grid; always > 0. Not cached."""
    return np.fft.fftn(_kernel_row(n, dx)).real


@functools.lru_cache(maxsize=8)
def _unit_half_spectrum(n: int, dx: float) -> np.ndarray:
    """``_unit_spectrum`` over the rfftn half (kz = 0 .. n/2), cached.

    The kernel row is even, so the half holds every value of the full
    spectrum. The copy keeps the cache from holding the complex transform.
    """
    p = np.fft.rfftn(_kernel_row(n, dx)).real.copy()
    p.flags.writeable = False  # cached, so every caller shares this array
    return p


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
    amp = np.sqrt(constants.hbar * constants.G * _unit_half_spectrum(grid.n, grid.dx))
    if zero_mean:
        amp[0, 0, 0] = 0.0
    w = stream(grid.seed, _TAG_FIELD, member, step).standard_normal((grid.n,) * 3)
    phi = np.fft.irfftn(np.fft.rfftn(w, axes=_AXES) * amp, s=w.shape, axes=_AXES)
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
    if dx == 0.0:
        raise OverflowError(f"grid spacing box / n underflows to 0 at box {grid.box_length} m")
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
    p = _unit_half_spectrum(n, 1.0) * _cell_weight(n)  # hbar G / dx factored out
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


# the relative energy of the outer |k|^2 shells a step's draw may leave out
_CUT = 1e-17


@functools.cache
def _spectral_order(n: int) -> tuple[np.ndarray, ...]:
    """The kept cells of the rfftn half spectrum, those of ``_cell_weight``
    above 0, cached per n. Returns, as int32 arrays, ``order``: their flat
    indices, stably sorted by orbit; ``label``: the |k|^2, or shell, of
    every cell; ``starts``: where the shell |k|^2 = j begins in ``order``
    for j = 0 .. max |k|^2 + 1, the last being its length; ``orbit``: the
    rank of each entry's orbit under {+-kx} x {+-ky} x {+-kz} x {swap ky, kz}
    by (|k|^2, |kx|, min(|ky|, |kz|), max(|ky|, |kz|)), which k -> -k keeps.
    """
    a = np.minimum(np.arange(n), n - np.arange(n))  # |k| at each index
    ax, ay, az = np.meshgrid(a, a, a[: n // 2 + 1], indexing="ij", sparse=True)
    k2 = ax * ax + ay * ay + az * az
    key = (((k2 * n + ax) * n + np.minimum(ay, az)) * n + np.maximum(ay, az)).ravel()
    cells = np.flatnonzero(_cell_weight(n))
    order = cells[np.argsort(key[cells], kind="stable")]
    orbit = np.unique(key[order], return_inverse=True)[1]
    starts = np.searchsorted(k2.ravel()[order], np.arange(k2.max() + 2))
    return tuple(x.astype(np.int32) for x in (order, k2.ravel(), starts, orbit))


def _coordinates(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept cells of a real field odd in x, given g, the Im of its rfftn
    half spectrum (its Re is 0, and g is 0 on the planes kx = 0 and n/2,
    where every self-conjugate cell lies), and the norms c of its kept
    coordinates, the Im of each cell weighted sqrt(2/N), over each orbit.

    <field, w> over n^3 iid standard normals w has the law of <c, z>,
    z ~ N(0, I): by Parseval it is a sum of the coordinates, each times
    its own normal. A norm that is exactly 0 adds nothing and is left out.
    The longest run of outer |k|^2 shells holding at most ``_CUT`` of the
    field's squared norm is left out, so the cells are a prefix of
    ``order`` and their orbits a prefix of the ranks.
    """
    n = g.shape[0]
    order, label, starts, orbit = _spectral_order(n)
    e = np.square(g)
    e *= _cell_weight(n)
    tail = np.cumsum(np.bincount(label, weights=e.ravel())[::-1])[::-1]
    cells = order[: starts[np.count_nonzero(tail > _CUT * tail[0])]]
    c = g.ravel()[cells] * math.sqrt(2.0 / n**3)
    c = np.sqrt(np.bincount(orbit[: cells.size], weights=c * c))
    return cells, c[c != 0.0]


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
    form of <d_s, F w_s>) and w_s white noise, drawn as <c_s, z_s> with
    c_s = ``_coordinates(Im(rfftn(d_s)) sqrt(P))`` and z_s the first len(c_s)
    normals of stream (mem, s). The cut depends on g_s alone, never on the
    seed or the worker count, and one more shell only lengthens the draw.
    The phases are Gaussian with variance mu dtau sum_s ||c_s||^2.

    rfftn(d_s) = f_s i X(kx) Y(ky) Z(kz), f_s = cell / (pi c1)^(3/2), from
    the rffts of ``_profile``: X the Im of the x profile difference's, made
    odd, so exactly 0 at kx = 0 and n/2; Y, Z the Re of the centred one's.
    So a step builds only that Im, f_s X Y Z sqrt(P), as one real array, and
    c_s holds the norms of its kept orbits off the planes kx = 0 and n/2.
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

    n, h = grid.n, grid.n // 2
    box = grid.box_length / p.a  # box in units of a
    dtau = d.tau_max / grid.n_steps
    half = box / 2.0

    # coordinates of the filtered density difference per step, shared by all members
    amp = np.sqrt(_unit_half_spectrum(n, box / n))  # hbar G = 1
    cs = []
    for s in range(grid.n_steps):
        c1 = 1.0 + ((s + 0.5) * dtau) ** 2
        f = (box / n) ** 3 / (math.pi * c1) ** 1.5
        x = f * np.fft.rfft(
            _profile(n, box, half - d.rho / 2.0, c1) - _profile(n, box, half + d.rho / 2.0, c1)
        ).imag
        yz = np.fft.rfft(_profile(n, box, half, c1)).real
        g = np.concatenate((x, -x[h - 1 : 0 : -1]))[:, None, None]
        g = g * np.concatenate((yz, yz[h - 1 : 0 : -1]))[:, None] * yz
        g *= amp
        cs.append(_coordinates(g)[1])

    mu_dtau = d.mu * dtau
    scale = math.sqrt(mu_dtau)

    def member_phase(mem: int) -> float:
        acc = 0.0
        for s, c in enumerate(cs):
            z = stream(grid.seed, _TAG_SIM, mem, s).standard_normal(c.size)
            acc += float(np.multiply(c, z, out=z).sum())
        return -scale * acc

    phases = np.array(parallel_map(member_phase, range(n_members), workers=workers))
    lattice = mu_dtau * math.fsum(float(np.square(c).sum()) for c in cs)
    return phases, lattice

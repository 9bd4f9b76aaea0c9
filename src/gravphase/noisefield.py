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
positive; a sharp spherical cutoff at L/2 does not. If a pathological
(n, dx) combination ever produced a negative mode, the spectrum is lifted
uniformly, which only changes the same-point variance (a grid-scale
quantity with no continuum meaning) and no nonzero lag.

The 1/sqrt(dt) factor realizes the white-in-time normalization on a
discrete time grid: fields at different steps are independent, and the
covariance times dt reproduces the delta-correlation weight.

P is real and even (P(k) = P(-k)), so only the half spectrum over the
last axis is used: ``rfftn``/``irfftn`` with ``P[:, :, :n//2 + 1]``. The
same symmetry makes the filter F = ifftn(fftn(.) sqrt(P)) self-adjoint,

    <d, F w> = <F d, w>,

which is what the ensemble simulator exploits: each member's phase is
a sum over steps of <d_s, F w_s> with d_s the density difference of
the two packets, so F d_s is filtered once per step, shared by every
member, and a member-step is one Philox draw and one reduction. The
same filtered grids give the lattice-exact ensemble variance
mu dtau sum_s ||F d_s||^2 with no sampling at all. The covariance
estimator likewise needs only |rfftn(w)|^2 P, reduced to its three axis
marginals and weighted by cos(2 pi k lag / n), never the inverse FFT.

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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .packets import GaussianPacket
from .units import (
    CODATA2018, NATURAL, PacketPair, PhysicalConstants, nondimensionalize, spreading_width,
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

    The standard error of the variance comes from the fourth-moment
    estimator var(s^2) = (m4 - (n-3)/(n-1) s^4) / n. ``lattice_variance``
    is the variance the ensemble estimates, exact for this lattice and time
    step, so ``variance - lattice_variance`` is pure sampling noise and
    ``lattice_variance`` minus the continuum value is the discretization
    bias.
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


def _lifted(p: np.ndarray) -> np.ndarray:
    floor = p.min()
    if floor < 0.0:
        p -= floor  # uniform lift: shifts only the coincident-point value
    return p


def _unit_spectrum(n: int, dx: float) -> np.ndarray:
    """DFT of the kernel row over the full grid; always >= 0. Not cached."""
    return _lifted(np.fft.fftn(_kernel_row(n, dx)).real)


@functools.lru_cache(maxsize=8)
def _unit_half_spectrum(n: int, dx: float) -> np.ndarray:
    """``_unit_spectrum`` over the rfftn half (kz = 0 .. n/2), cached.

    The kernel row is even, so the half holds every value of the full
    spectrum, its minimum included, and gets the same lift.
    """
    p = _lifted(np.fft.rfftn(_kernel_row(n, dx)).real.copy())
    p.flags.writeable = False  # cached, so every caller shares this array
    return p


def _half_spectrum(n: int, dx: float, constants: PhysicalConstants) -> np.ndarray:
    """hbar G P over the rfftn half spectrum (kz = 0 .. n/2); a fresh array."""
    return constants.hbar * constants.G * _unit_half_spectrum(n, dx)


def _filter(x: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """ifftn(fftn(x) amp).real for real x and a real, even amp given by its half."""
    return np.fft.irfftn(np.fft.rfftn(x, axes=_AXES) * amp, s=x.shape, axes=_AXES)


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
    amp = np.sqrt(_half_spectrum(grid.n, grid.dx, constants))
    if zero_mean:
        amp[0, 0, 0] = 0.0
    w = stream(grid.seed, _TAG_FIELD, member, step).standard_normal((grid.n,) * 3)
    return _filter(w, amp) / math.sqrt(grid.dt)


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
    the snapped separations.

    The autocorrelation at lag l along x is n^-6 sum_k S(k) cos(2 pi kx l / n)
    with S = |fftn(w)|^2 P, so each realization needs only one rfftn and
    the axis marginals of S over the half spectrum, where every kz other
    than 0 and n/2 stands for itself and its mirror.

    Realizations run on ``default_workers()`` threads (GRAVPHASE_THREADS
    sets the count), each drawing stream (seed, m) into buffers of its own,
    about 2 n^3 doubles (4 MB at n = 64), freed when the call returns; the
    rows are reduced in realization order, so the result is bit-identical
    for any worker count.
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
        lags.append(max(1, round(r / dx)))
    if not lags:
        raise ValueError("need at least one separation")
    n = grid.n
    p = _half_spectrum(n, dx, constants)
    p[:, :, 1 : n // 2] *= 2.0  # mirror multiplicity
    cos_x = np.cos(2.0 * math.pi * (np.outer(lags, np.arange(n)) % n) / n)
    cos_z = cos_x[:, : n // 2 + 1]
    norm = 3.0 * float(n) ** 6

    scratch = threading.local()  # each thread's buffers, for this call only

    def realization(m: int) -> np.ndarray:
        if not hasattr(scratch, "w"):
            scratch.w = np.empty((n, n, n))
            scratch.wh = np.empty((n, n, n // 2 + 1), dtype=complex)
        w, wh = scratch.w, scratch.wh
        stream(grid.seed, _TAG_COV, m).standard_normal(out=w)
        np.fft.rfftn(w, axes=_AXES, out=wh)
        s = w.reshape(-1)[: wh.size].reshape(wh.shape)  # w is spent: reuse it
        re = wh.real
        np.square(re, out=s)
        s += np.square(wh.imag, out=re)
        s *= p
        s_xy = s.sum(axis=2)
        # x and y marginals share their cosine weights
        m_xy = s_xy.sum(axis=1) + s_xy.sum(axis=0)
        m_z = s.sum(axis=(0, 1))
        return ((cos_x * m_xy).sum(axis=1) + (cos_z * m_z).sum(axis=1)) / norm

    per_real = np.array(parallel_map(realization, range(n_realizations)))
    rows = []
    for j, lag in enumerate(lags):
        r_snap = lag * dx
        est = float(per_real[:, j].mean())
        se = float(per_real[:, j].std(ddof=1) / math.sqrt(n_realizations))
        rows.append(
            CovarianceRow(
                separation=r_snap,
                estimate=est,
                standard_error=se,
                target=constants.hbar * constants.G / r_snap,
            )
        )
    return rows


def _density_grid(n: int, box: float, center, c1: float) -> np.ndarray:
    """Normalized Gaussian density on grid nodes with periodic min-image distances."""
    x = np.arange(n) * (box / n)

    def axis(c):
        d = x - c
        d -= box * np.round(d / box)
        return d

    dxx, dyy, dzz = np.meshgrid(
        axis(center[0]), axis(center[1]), axis(center[2]), indexing="ij", sparse=True
    )
    r2 = dxx * dxx + dyy * dyy + dzz * dzz
    return np.exp(-r2 / c1) / (math.pi * c1) ** 1.5


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
    so the result is bit-identical for any worker count.
    """
    if n_members < _MIN_MEMBERS:
        raise ValueError(f"need at least {_MIN_MEMBERS} members, got {n_members}")
    phases, lattice = _ensemble(p, grid, n_members, constants, workers)

    mean = float(phases.mean())
    var = float(phases.var(ddof=1))
    m4 = float(np.mean((phases - mean) ** 4))
    nm = n_members
    se_var = math.sqrt(max(m4 - (nm - 3) / (nm - 1) * var * var, 0.0) / nm)
    return EnsembleStats(
        n_members=n_members,
        mean=mean,
        variance=var,
        standard_error_of_variance=se_var,
        lattice_variance=lattice,
    )


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
    form of <d_s, F w_s>) and w_s the n^3 normals of stream (mem, s);
    since the w_s are iid standard normals the phases are Gaussian with
    variance mu dtau sum_s ||g_s||^2.
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
    dtau = d.tau_max / grid.n_steps
    cell = (box / n) ** 3
    half = box / 2.0
    c_lo = (half - d.rho / 2.0, half, half)
    c_hi = (half + d.rho / 2.0, half, half)

    # filtered density differences per step, shared by all members
    amp = np.sqrt(_half_spectrum(n, box / n, NATURAL))
    gs = []
    for s in range(grid.n_steps):
        c1 = 1.0 + ((s + 0.5) * dtau) ** 2
        dd = (_density_grid(n, box, c_lo, c1) - _density_grid(n, box, c_hi, c1)) * cell
        gs.append(_filter(dd, amp).ravel())

    mu_dtau = d.mu * dtau
    scale = math.sqrt(mu_dtau)

    def member_phase(mem: int) -> float:
        acc = 0.0
        for s, g in enumerate(gs):
            w = stream(grid.seed, _TAG_SIM, mem, s).standard_normal(g.size)
            acc += float(np.multiply(g, w, out=w).sum())
        return -scale * acc

    phases = np.array(parallel_map(member_phase, range(n_members), workers=workers))
    lattice = mu_dtau * math.fsum(float(np.square(g).sum()) for g in gs)
    return phases, lattice

import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import Generator, Philox

import gravphase
from gravphase import noisefield
from gravphase.noisefield import (
    CUBE_SELF_CONSTANT,
    ConfigurationError,
    EnsembleStats,
    default_workers,
    FieldGrid,
    measured_covariance,
    min_box_length,
    parallel_map,
    sample_field_step,
    simulate_phase_variance,
    smeared_potential,
    stream,
)
from gravphase.noisefield import (
    _TAG_SIM, _density_grid, _ensemble, _half_spectrum, _norm2, _octant, _orbits,
)
from gravphase.packets import GaussianPacket
from gravphase.units import CODATA2018, NATURAL, make_params, nondimensionalize
from gravphase.variance import phase_variance
from kernel_reference import full_spectrum

HBAR = CODATA2018.hbar
G = CODATA2018.G


def _pair(mu, rho, tau_max, a=1e-6):
    m = (mu * HBAR**2 / (G * a)) ** (1.0 / 3.0)
    T = tau_max * m * a**2 / HBAR
    return make_params(m, a, rho * a, T)


def _grid_for(pair, n=32, steps=4, seed=0):
    d = nondimensionalize(pair)
    box = 8.0 * pair.a * max(d.rho, math.hypot(1.0, d.tau_max))
    return FieldGrid(n=n, box_length=box, dt=pair.T / steps, n_steps=steps, seed=seed)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=24, box_length=1.0, dt=1.0, n_steps=1, seed=0),  # not a power of two
        dict(n=16, box_length=1.0, dt=1.0, n_steps=1, seed=0),  # too small
        dict(n=32, box_length=-1.0, dt=1.0, n_steps=1, seed=0),
        dict(n=32, box_length=1.0, dt=0.0, n_steps=1, seed=0),
        dict(n=32, box_length=1.0, dt=1.0, n_steps=0, seed=0),
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ConfigurationError):
        FieldGrid(**kwargs)


def test_cube_self_constant_against_mc():
    # independent check of the coincident-cell average of 1/r: draw
    # uniform points in the unit cube and average 1/|u|
    rng = np.random.default_rng(314159)
    u = rng.uniform(-0.5, 0.5, size=(2_000_000, 3))
    inv = 1.0 / np.linalg.norm(u, axis=1)
    est, se = float(inv.mean()), float(inv.std() / math.sqrt(len(inv)))
    assert abs(est - CUBE_SELF_CONSTANT) < 4.0 * se


def test_field_determinism_and_stream_separation():
    g = FieldGrid(n=32, box_length=1.0, dt=0.5, n_steps=4, seed=99)
    f1 = sample_field_step(g, member=3, step=2)
    f2 = sample_field_step(g, member=3, step=2)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, sample_field_step(g, member=3, step=3))
    assert not np.array_equal(f1, sample_field_step(g, member=4, step=2))
    g2 = FieldGrid(n=32, box_length=1.0, dt=0.5, n_steps=4, seed=100)
    assert not np.array_equal(f1, sample_field_step(g2, member=3, step=2))


def _fresh(seed, tag, member=0, step=0, batch=0):
    return Generator(Philox(key=np.array([seed, tag], np.uint64),
                            counter=np.array([0, member, step, batch], np.uint64)))


_DRAWS = (
    lambda g: g.standard_normal(1),
    lambda g: g.standard_normal(3),
    lambda g: g.standard_normal(1000),
    lambda g: g.standard_exponential((32, 32, 17)),
)
# draws that leave the thread's generator part way through its buffer
_PART_DRAWS = (
    lambda g: g.random(dtype=np.float32),
    lambda g: g.integers(0, 10, 3, dtype=np.uint32),
)


def _leave_mid_buffer(draw):
    g = stream(12, 3, 4, 5, 6)
    draw(g)
    state = g.bit_generator.state
    assert state["buffer_pos"] != 4 or state["has_uint32"]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("part", _PART_DRAWS)
def test_stream_draws_what_a_fresh_generator_draws(seed, part):
    for draw in _DRAWS:
        _leave_mid_buffer(part)
        assert np.array_equal(draw(stream(seed, 7, 3, 11, 2)), draw(_fresh(seed, 7, 3, 11, 2)))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_leaves_the_next_stream_intact(seed):
    _leave_mid_buffer(_PART_DRAWS[0])
    with pytest.raises(ValueError, match="seed must be in"):
        stream(seed, 7)
    assert np.array_equal(stream(1, 7, 2).standard_normal(5), _fresh(1, 7, 2).standard_normal(5))


def test_each_thread_draws_from_its_own_generator():
    # both threads key their stream before either draws, so a shared
    # generator would hand one of them the other's keys
    barrier = threading.Barrier(2, timeout=10.0)
    drawn = {}

    def draw(member):
        barrier.wait()
        g = stream(11, 2, member)
        barrier.wait()
        drawn[member] = g, g.standard_normal(1000)

    threads = [threading.Thread(target=draw, args=(m,)) for m in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert sorted(drawn) == [1, 2]
    for member, (_, z) in drawn.items():
        assert np.array_equal(z, _fresh(11, 2, member).standard_normal(1000))
    assert drawn[1][0] is not drawn[2][0]


def test_an_ensemble_builds_at_most_one_philox(monkeypatch):
    # a fresh thread holds no generator yet; its 128 member-steps re-key one
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return Philox(*args, **kwargs)

    pair = _pair(1.0, 1.0, 0.1)
    grid = _grid_for(pair, n=32, steps=2, seed=9)
    expected = _ensemble(pair, grid, 64, workers=1)[0]
    monkeypatch.setattr(noisefield, "Philox", counted)
    result = []
    t = threading.Thread(target=lambda: result.append(_ensemble(pair, grid, 64, workers=1)))
    t.start()
    t.join(timeout=60.0)
    assert len(built) <= 1
    assert np.array_equal(result[0][0], expected)


def test_field_zero_mean_option():
    g = FieldGrid(n=32, box_length=1.0, dt=1.0, n_steps=1, seed=5)
    f = sample_field_step(g, 0, 0, zero_mean=True)
    assert abs(f.mean()) < 1e-13 * f.std()
    # default keeps the k = 0 mode, so the mean is a nonzero Gaussian draw
    f_raw = sample_field_step(g, 0, 0)
    assert abs(f_raw.mean()) > 1e-6 * f_raw.std()


def test_field_dt_scaling():
    # white-in-time normalization: amplitudes scale as 1/sqrt(dt)
    g1 = FieldGrid(n=32, box_length=1.0, dt=1.0, n_steps=1, seed=7)
    g4 = FieldGrid(n=32, box_length=1.0, dt=4.0, n_steps=1, seed=7)
    f1 = sample_field_step(g1, 0, 0)
    f4 = sample_field_step(g4, 0, 0)
    assert np.allclose(f1, 2.0 * f4)


@pytest.mark.parametrize("box, constants", [
    (1e-305, CODATA2018), (1e-310, CODATA2018), (1e-310, NATURAL),
], ids=["1e-305", "1e-310", "1e-310-natural"])
def test_field_step_is_finite_at_tiny_boxes(box, constants):
    # P is built for unit spacing and scaled by sqrt(hbar G) / sqrt(dx), so a
    # box whose 1 / dx nears or passes the double range makes no overflow:
    # the field is the one at 1 m scaled by sqrt(1 m / box)
    g = FieldGrid(n=32, box_length=box, dt=1.0, n_steps=1, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = sample_field_step(g, 0, 0, constants)
    unit = FieldGrid(n=32, box_length=1.0, dt=1.0, n_steps=1, seed=7)
    ref = sample_field_step(unit, 0, 0, constants)
    assert np.isfinite(phi).all()
    assert np.abs(phi * math.sqrt(box) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("box", [1e-323, 5e-324])
def test_field_step_names_an_underflowed_spacing(box):
    # box / 32 is 0.0: the grid names that failure, for the field as for
    # the covariance
    g = FieldGrid(n=32, box_length=box, dt=1.0, n_steps=1, seed=7)
    with pytest.raises(OverflowError, match=f"underflows to 0 at box {box} m"):
        sample_field_step(g, 0, 0)


def test_measured_covariance_matches_kernel():
    g = FieldGrid(n=32, box_length=1.0, dt=0.25, n_steps=1, seed=21)
    seps = [2 * g.dx, 4 * g.dx, 8 * g.dx, 0.5]
    rows = measured_covariance(g, 400, seps)
    assert [r.separation for r in rows] == pytest.approx(seps)
    for row in rows:
        assert row.target == HBAR * G / row.separation
        assert abs(row.estimate - row.target) < 4.0 * row.standard_error
    # hard accuracy backstop on the interior lags; the half-box point is
    # dominated by sampling noise at this ensemble size
    for row in rows[:3]:
        assert abs(row.estimate - row.target) <= 0.10 * row.target


def test_measured_covariance_snaps_to_lattice():
    g = FieldGrid(n=32, box_length=1.0, dt=1.0, n_steps=1, seed=21)
    rows = measured_covariance(g, 100, [3.4 * g.dx])
    assert rows[0].separation == 3.0 * g.dx


def test_measured_covariance_validation():
    g = FieldGrid(n=32, box_length=1.0, dt=1.0, n_steps=1, seed=0)
    with pytest.raises(ValueError, match="realizations"):
        measured_covariance(g, 50, [0.25])
    with pytest.raises(ValueError, match="separation"):
        measured_covariance(g, 100, [0.6])  # beyond half the box
    with pytest.raises(ValueError, match="separation"):
        measured_covariance(g, 100, [g.dx / 3.0])  # below the lattice spacing


def test_measured_covariance_needs_a_separation():
    g = FieldGrid(n=32, box_length=1.0, dt=1.0, n_steps=1, seed=0)
    with pytest.raises(ValueError, match="need at least one separation"):
        measured_covariance(g, 100, [])


def test_smeared_potential_constant_field():
    g = FieldGrid(n=64, box_length=16.0, dt=1.0, n_steps=1, seed=0)
    pk = GaussianPacket(center=(8.0, 8.0, 8.0), a=1.0, m=2.5)
    field = np.full((64, 64, 64), 3.0)
    v = smeared_potential(g, field, pk, 0.0, NATURAL)
    assert math.isclose(v, 2.5 * 3.0, rel_tol=1e-12)


def test_smeared_potential_linear_field():
    # a linear potential averages to its value at the packet center
    g = FieldGrid(n=64, box_length=16.0, dt=1.0, n_steps=1, seed=0)
    pk = GaussianPacket(center=(6.0, 8.0, 8.0), a=1.0, m=1.0)
    x = np.arange(64) * g.dx
    field = np.broadcast_to(x[:, None, None], (64, 64, 64)).copy()
    v = smeared_potential(g, field, pk, 0.0, NATURAL)
    assert math.isclose(v, 6.0, rel_tol=1e-9)


def test_smeared_potential_clipped_support_raises():
    g = FieldGrid(n=64, box_length=16.0, dt=1.0, n_steps=1, seed=0)
    pk = GaussianPacket(center=(0.5, 8.0, 8.0), a=3.0, m=1.0)
    field = np.ones((64, 64, 64))
    with pytest.raises(ConfigurationError, match="mass"):
        smeared_potential(g, field, pk, 30.0, NATURAL)


def test_simulate_worker_invariance():
    pair = _pair(1.0, 1.0, 0.1)
    grid = _grid_for(pair, seed=11)
    e1 = simulate_phase_variance(pair, grid, 64, workers=1)
    e4 = simulate_phase_variance(pair, grid, 64, workers=4)
    assert e1 == e4
    assert isinstance(e1, EnsembleStats)


def test_simulate_matches_analytic_small():
    pair = _pair(1.0, 1.0, 0.1)
    grid = _grid_for(pair, seed=11)
    ens = simulate_phase_variance(pair, grid, 64)
    target = phase_variance(nondimensionalize(pair)).total
    assert abs(ens.variance - target) < 3.0 * ens.standard_error_of_variance
    assert abs(ens.mean) < 3.0 * math.sqrt(ens.variance / ens.n_members)


def test_simulate_zero_separation_gives_zero_variance():
    pair = make_params(1e-17, 1e-6, 0.0, 1e4)
    d = nondimensionalize(pair)
    box = 8.0 * pair.a * math.hypot(1.0, d.tau_max)
    grid = FieldGrid(n=32, box_length=box, dt=pair.T / 2, n_steps=2, seed=1)
    ens = simulate_phase_variance(pair, grid, 64)
    assert ens.variance == 0.0 and ens.mean == 0.0


@pytest.mark.parametrize("pair", [
    _pair(1.0, 1.0, 0.1),
    make_params(1e-17, 1e-6, 0.0, 1e4),  # R = 0: no phase, both are 0.0
], ids=["rho=1", "R=0"])
def test_standard_error_of_variance_is_the_exact_law(pair):
    # the phases are exactly Gaussian with the lattice variance, so the SE
    # of their sample variance comes from that law, not from the phases
    ens = simulate_phase_variance(pair, _grid_for(pair, seed=5), 64)
    se = ens.lattice_variance * math.sqrt(2.0 / (ens.n_members - 1))
    assert ens.standard_error_of_variance == se
    assert (ens.standard_error_of_variance == 0.0) == (pair.R == 0.0)


def test_sample_variance_follows_the_exact_chi_square_law():
    # the phases are exactly Gaussian with the lattice variance, so over
    # seeds (M - 1) s^2 / lattice is chi^2 with k = M - 1 degrees of
    # freedom: mean k, variance 2k, excess kurtosis 12 / k. Seeds 0-399
    # and the 4-SE bounds were fixed before the first run.
    # Geometry: the field_ensemble benchmark slot (rho, tau) = (2, 0.25)
    pair = _pair(1.0, 2.0, 0.25)
    members, seeds = 64, 400
    k = members - 1
    q = np.array([
        k * ens.variance / ens.lattice_variance
        for ens in (simulate_phase_variance(pair, _grid_for(pair, n=32, steps=1, seed=seed),
                                            members, workers=1)
                    for seed in range(seeds))
    ])
    assert abs(q.mean() - k) <= 4.0 * math.sqrt(2.0 * k / seeds)
    spread_se = 2.0 * k * math.sqrt(2.0 / (seeds - 1) + 12.0 / (k * seeds))
    assert abs(q.var(ddof=1) - 2.0 * k) <= 4.0 * spread_se


def test_simulate_time_step_refinement_consistent():
    # halving dt must not move the variance beyond joint noise
    pair = _pair(1.0, 1.0, 0.1)
    e_coarse = simulate_phase_variance(pair, _grid_for(pair, steps=4, seed=13), 64)
    e_fine = simulate_phase_variance(pair, _grid_for(pair, steps=8, seed=13), 64)
    joint = math.hypot(
        e_coarse.standard_error_of_variance, e_fine.standard_error_of_variance
    )
    assert abs(e_coarse.variance - e_fine.variance) < 3.0 * joint


def test_simulate_preconditions():
    pair = _pair(1.0, 1.0, 0.1)
    grid = _grid_for(pair)
    with pytest.raises(ValueError, match="members"):
        simulate_phase_variance(pair, grid, 32)
    bad_horizon = FieldGrid(
        n=32, box_length=grid.box_length, dt=grid.dt * 0.9, n_steps=4, seed=0
    )
    with pytest.raises(ConfigurationError, match="horizon"):
        simulate_phase_variance(pair, bad_horizon, 64)
    small_box = FieldGrid(
        n=32, box_length=grid.box_length / 4.0, dt=grid.dt, n_steps=4, seed=0
    )
    with pytest.raises(ConfigurationError, match="box_length"):
        simulate_phase_variance(pair, small_box, 64)


def _orbit_rows(n):
    """The ``_orbits(n)`` row of each cell of the full n^3 spectrum, the one
    labelled (|kx|, min(|ky|, |kz|), max(|ky|, |kz|))."""
    label = _orbits(n)[0]
    row = np.full((n // 2 + 1,) * 3, -1)
    row[tuple(label)] = np.arange(label.shape[1])
    a = np.minimum(np.arange(n), n - np.arange(n))
    ax, ay, az = np.meshgrid(a, a, a, indexing="ij", sparse=True)
    return row[ax, np.minimum(ay, az), np.maximum(ay, az)]


def _drawn_steps(monkeypatch, pair, grid, n_members=0):
    """``_ensemble``'s phases, and the squared norm of each of its steps."""
    steps = []
    norm2 = noisefield._norm2

    def recorded(x, yz):
        steps.append(norm2(x, yz))
        return steps[-1]

    monkeypatch.setattr(noisefield, "_norm2", recorded)
    return _ensemble(pair, grid, n_members)[0], steps


def test_member_phase_matches_unfiltered_dot(monkeypatch):
    # adjoint identity <d, F w> = <F d, w>: drawing each step's filtered
    # density difference as its norm times one normal gives the phase of
    # filtering the white field w that member 0's normal stands for
    pair = _pair(1.0, 1.0, 0.5)
    grid = _grid_for(pair, n=32, steps=2, seed=3)
    phases, steps = _drawn_steps(monkeypatch, pair, grid, 1)
    d = nondimensionalize(pair)
    n, box = grid.n, grid.box_length / pair.a
    amp = np.sqrt(full_spectrum(n, box / n))
    acc = 0.0
    for s, (dd, norm2) in enumerate(zip(_differences(pair, grid), steps)):
        # g = Im fftn(F d), odd in kx; its squared norm is sum g^2 / n^3
        g = np.fft.fftn(dd).imag * amp
        assert abs(norm2 / (float(np.square(g).sum()) / n**3) - 1.0) <= 1e-12
        # the step's normal z, spread over every cell as W_k = i z g_k / ||g||;
        # W is odd and imaginary, so w is real and <F d, w> = sum_k g_k W_k / (i n^3)
        z = stream(grid.seed, _TAG_SIM, 0, s).standard_normal()
        w = np.fft.ifftn(1j * z * g / math.sqrt(norm2)).real
        phi = np.fft.ifftn(np.fft.fftn(w) * amp).real
        acc += float(np.dot(dd.ravel(), phi.ravel()))
    old = -math.sqrt(d.mu * d.tau_max / grid.n_steps) * acc
    assert abs(phases[0] - old) <= 1e-12 * abs(old)


def test_lattice_variance_is_the_ensemble_expectation():
    pair = _pair(1.0, 1.0, 0.1)
    grid = _grid_for(pair, seed=11)
    ens = simulate_phase_variance(pair, grid, 64)
    assert ens.lattice_variance == _ensemble(pair, grid, 0)[1]
    # same grid, so the continuum value differs only by discretization bias
    target = phase_variance(nondimensionalize(pair)).total
    assert abs(ens.lattice_variance / target - 1.0) < 0.05


def _differences(pair, grid):
    """Each step's density difference on the grid, in units of a, as _ensemble forms it."""
    d = nondimensionalize(pair)
    n, box = grid.n, grid.box_length / pair.a
    dtau = d.tau_max / grid.n_steps
    half = box / 2.0
    for s in range(grid.n_steps):
        c1 = 1.0 + ((s + 0.5) * dtau) ** 2
        lo = _density_grid(n, box, (half - d.rho / 2.0, half, half), c1)
        hi = _density_grid(n, box, (half + d.rho / 2.0, half, half), c1)
        yield (lo - hi) * (box / n) ** 3


# (mu, rho, tau_max, n, steps): the two geometries of acceptance test c12
# and the field_ensemble benchmark slot (rho, tau) = (2, 0.25)
_SPECTRAL_CASES = [(1.0, 1.0, 0.1, 64, 8), (1.0, 1.0, 3.0, 64, 30), (1.0, 2.0, 0.25, 32, 1)]


@pytest.mark.parametrize("mu, rho, tau_max, n, steps", _SPECTRAL_CASES)
def test_lattice_variance_matches_real_space_filter(mu, rho, tau_max, n, steps):
    # mu dtau sum_s ||F d_s||^2 with F d_s formed in real space by irfftn,
    # against the squared norms the ensemble draws from
    pair = _pair(mu, rho, tau_max)
    grid = _grid_for(pair, n=n, steps=steps)
    box = grid.box_length / pair.a
    amp = np.sqrt(full_spectrum(n, box / n))[:, :, : n // 2 + 1]
    norms = [
        float(np.square(np.fft.irfftn(np.fft.rfftn(dd) * amp, s=dd.shape, axes=(0, 1, 2))).sum())
        for dd in _differences(pair, grid)
    ]
    d = nondimensionalize(pair)
    real_space = d.mu * d.tau_max / steps * math.fsum(norms)
    assert abs(_ensemble(pair, grid, 0)[1] / real_space - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [32, 64])
def test_cell_weights_partition_the_full_spectrum(n):
    # each half-spectrum cell stands for w full-spectrum cells, and together
    # they stand for every cell once
    from gravphase.noisefield import _cell_weight
    assert not _cell_weight(n).flags.writeable
    w = _cell_weight(n).astype(int)
    assert w.shape == (n, n, n // 2 + 1) and w.min() >= 0
    assert w.sum() == n**3
    assert (w[:, :, 1 : n // 2] == 2).all()
    mirror = -np.arange(n) % n
    for plane in (w[:, :, 0], w[:, :, n // 2]):
        assert (plane + plane[mirror][:, mirror] == 2).all()
    edge = (0, n // 2)
    assert sorted(map(tuple, np.argwhere(w == 1).tolist())) == [
        (x, y, z) for x in edge for y in edge for z in edge
    ]


@pytest.mark.parametrize("n", [32, 64])
def test_orbits_partition_the_kept_cells(n):
    # an orbit is a cell's image under {+-kx} x {+-ky} x {+-kz} x {swap ky, kz};
    # every cell of the full spectrum falls in the row of its label, and
    # each row is hit as often as its weight counts
    label, weight = _orbits(n)
    assert not any(a.flags.writeable for a in (label, weight))
    rows = _orbit_rows(n)
    assert rows.min() >= 0
    hits = np.bincount(rows.ravel(), minlength=weight.size)
    assert hits.sum() == n**3 and set(hits.tolist()) == {1, 2, 4, 8, 16}
    kx, ky, kz = label
    assert np.allclose(weight, hits / n**3 * _octant(n)[kx, ky, kz], rtol=1e-15, atol=0.0)
    # distinct labels 0 <= kx <= n/2, 0 <= ky <= kz <= n/2, in label order
    assert ((0 <= kx) & (kx <= n // 2) & (0 <= ky) & (ky <= kz) & (kz <= n // 2)).all()
    labels = list(zip(kx.tolist(), ky.tolist(), kz.tolist()))
    assert labels == sorted(set(labels))


@pytest.mark.parametrize("tau_max, steps", [(0.1, 8), (3.0, 30)])
def test_c12_members_draw_one_normal_per_step(monkeypatch, tau_max, steps):
    # at the c12 geometries, n = 64, each member draws one normal per step;
    # one per orbit drew 6104 and 118776 a member, one per cell 40960 and 865226
    pair = _pair(1.0, 1.0, tau_max)
    grid = _grid_for(pair, n=64, steps=steps, seed=9)
    draws = []

    def counted(seed, tag, member=0, step=0, batch=0):
        g = stream(seed, tag, member, step, batch)

        def standard_normal(*size):
            draws.append((tag, member, step, size))
            return g.standard_normal(*size)

        return SimpleNamespace(standard_normal=standard_normal)

    monkeypatch.setattr(noisefield, "stream", counted)
    phases, _ = _ensemble(pair, grid, 4, workers=1)
    # a draw of no size is one normal
    assert draws == [(_TAG_SIM, m, s, ()) for m in range(4) for s in range(steps)]
    monkeypatch.undo()
    assert np.array_equal(_ensemble(pair, grid, 4, workers=1)[0], phases)
    # the one normal is the first of the stream, whatever a longer draw holds
    full = stream(5, _TAG_SIM, 3, 2).standard_normal(4096)
    for k in (1, 7, 1000, 4095):
        assert np.array_equal(stream(5, _TAG_SIM, 3, 2).standard_normal(k), full[:k])
    assert stream(5, _TAG_SIM, 3, 2).standard_normal() == full[0]


def test_coordinates_hold_the_norm_of_any_odd_field():
    # a profile odd in x times one even in y and z has the spectrum
    # i X(kx) Y(ky) Y(kz), zero on the planes kx = 0 and n/2; filtered in
    # real space, its squared norm is what _norm2 gives from X and Y,
    # summed by orbit; a field with no energy has norm 0
    n = 32
    mirror = -np.arange(n) % n
    u, v = np.random.default_rng(17).standard_normal((2, n))
    x, y = u - u[mirror], v + v[mirror]
    norm2 = _norm2(np.fft.rfft(x).imag, np.fft.rfft(y).real)
    field = np.fft.fftn(x[:, None, None] * y[:, None] * y) * np.sqrt(full_spectrum(n, 1.0))
    filtered = np.fft.ifftn(field).real
    assert abs(norm2 / float(np.square(filtered).sum()) - 1.0) <= 1e-14
    assert _norm2(np.zeros(n // 2 + 1), np.zeros(n // 2 + 1)) == 0.0


_BLAS_SCRIPT = """
import math
from gravphase.noisefield import FieldGrid, simulate_phase_variance
from gravphase.oracle import mc_i4_spatial
from gravphase.units import make_params, spreading_width
p = make_params(5.5028e-18, 1e-6, 1e-6, 2.609e4)
box = 8.0 * max(p.R, math.sqrt(spreading_width(p, p.T)))
grid = FieldGrid(n=32, box_length=box, dt=p.T / 8, n_steps=8, seed=42)
print(simulate_phase_variance(p, grid, 64, workers=1))
print(mc_i4_spatial(1.0, 10**6, 42, workers=1))
"""


def test_results_independent_of_blas_threads():
    # a BLAS dot sums in an order set by its thread count; every
    # reduction here must give the same bits for 1 and 2 BLAS threads
    src = str(Path(gravphase.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        res = subprocess.run(
            [sys.executable, "-c", _BLAS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert "EnsembleStats" in outs[0] and "McEstimate" in outs[0]


def test_parallel_map_defaults_to_gravphase_threads(monkeypatch):
    # with workers unset, GRAVPHASE_THREADS=2 must run both tasks at once:
    # run one after the other, the first one's wait times out
    monkeypatch.setenv("GRAVPHASE_THREADS", "2")
    barrier = threading.Barrier(2, timeout=10.0)

    def task(i):
        barrier.wait()
        return 10 * i

    assert parallel_map(task, range(2)) == [0, 10]


def test_min_box_length_is_the_simulate_default_box():
    # README simulate geometry; the box the CLI has always echoed for it
    p = make_params(5.5028e-18, 1e-6, 1e-6, 2.609e4)
    box = min_box_length(p)
    assert box == 8.9442575234267922e-06
    grid = FieldGrid(n=32, box_length=box, dt=p.T, n_steps=1, seed=42)
    ens = simulate_phase_variance(p, grid, 64)
    assert ens.n_members == 64 and ens.variance > 0.0


def test_cached_half_spectrum_is_the_full_spectrum_half():
    # the octant's three DCT-I passes against the fftn of the n^3 kernel row,
    # and P(n, dx) = P / dx
    for n, dx in ((32, 0.1), (64, 1e-3)):
        octant = _octant(n)
        assert octant.shape == (n // 2 + 1,) * 3
        assert not octant.flags.writeable
        half = _half_spectrum(n) / dx
        full = full_spectrum(n, dx)
        assert half.shape == (n, n, n // 2 + 1)
        assert np.allclose(half, full[:, :, : n // 2 + 1], rtol=1e-12, atol=0.0)
        assert half.min() >= 0.0
        # read at sorted index triples: bitwise symmetric under axis permutations
        for axes in itertools.permutations(range(3)):
            assert np.array_equal(octant.transpose(axes), octant), axes


def _both_threads(barrier):
    """A task that holds its thread until a second task holds another."""

    def task(i):
        barrier.wait()
        return i, threading.current_thread()

    return task


def test_parallel_map_reuses_its_pool_threads():
    # the barrier forces two threads per call; a pool kept for the life of
    # the process runs both calls on the same two. Thread objects, not
    # just idents: the OS may hand a new thread the ident of a dead one
    threads = []
    for _ in range(2):
        out = parallel_map(_both_threads(threading.Barrier(2, timeout=10.0)), range(2),
                           workers=2)
        assert [i for i, _ in out] == [0, 1]
        threads.append({t for _, t in out})
    assert len(threads[0]) == 2
    assert threads[0] == threads[1]
    assert {t.ident for t in threads[0]} == {t.ident for t in threads[1]}


def test_nested_parallel_map_runs_serially():
    # both pool threads are busy in the outer tasks; an inner call that
    # queued on the same pool would wait for them forever
    barrier = threading.Barrier(2, timeout=10.0)

    def outer(i):
        barrier.wait()
        return parallel_map(lambda j: 10 * i + j, range(4), workers=2)

    result = []
    t = threading.Thread(target=lambda: result.append(parallel_map(outer, range(2), workers=2)),
                         daemon=True)
    t.start()
    t.join(timeout=30.0)
    assert not t.is_alive(), "nested parallel_map deadlocked"
    assert result == [[[0, 1, 2, 3], [10, 11, 12, 13]]]


@pytest.mark.parametrize("workers", ["2", "3", "5"])
def test_measured_covariance_bitwise_equal_across_workers(workers, monkeypatch):
    # per-thread buffers: a thread switch every microsecond, and more
    # workers than cores, must not let one realization write into another's
    g = FieldGrid(n=32, box_length=1.0, dt=0.5, n_steps=1, seed=17)
    seps = [g.dx, 4 * g.dx, 0.25, 0.5]
    monkeypatch.setenv("GRAVPHASE_THREADS", "1")
    serial = measured_covariance(g, 100, seps)
    monkeypatch.setenv("GRAVPHASE_THREADS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert measured_covariance(g, 100, seps) == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_default_workers_is_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("GRAVPHASE_THREADS", raising=False)
    assert default_workers() == len(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_unparsable_gravphase_threads_falls_back_to_the_affinity_mask(monkeypatch):
    monkeypatch.setenv("GRAVPHASE_THREADS", "abc")
    assert default_workers() == len(os.sched_getaffinity(0))


def test_default_workers_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delenv("GRAVPHASE_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert default_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


def test_large_gravphase_threads_starts_one_thread_per_task(monkeypatch):
    # the pool starts threads as tasks need them, never its whole width
    monkeypatch.setenv("GRAVPHASE_THREADS", "4096")
    before = threading.active_count()
    out = parallel_map(_both_threads(threading.Barrier(2, timeout=10.0)), range(2))
    assert [i for i, _ in out] == [0, 1]
    assert threading.active_count() - before <= 2


def test_interpreter_exits_after_a_pooled_call():
    # the pool's threads must not keep the interpreter alive after main returns
    src = str(Path(gravphase.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "gravphase", "covariance", "--grid-n", "32",
         "--realizations", "100"],
        env=dict(os.environ, PYTHONPATH=src, GRAVPHASE_THREADS="2"),
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode in (0, 1), res.stderr
    assert '"estimate"' in res.stdout


_FORK_SCRIPT = """
import os, signal, threading
from gravphase.noisefield import parallel_map
barrier = threading.Barrier(2, timeout=10.0)
assert parallel_map(lambda i: barrier.wait() * 0 + i, [1, 2], workers=2) == [1, 2]
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child stuck on the inherited pool dies instead of lingering
    os._exit(0 if parallel_map(abs, [-3, -4], workers=2) == [3, 4] else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_pool():
    src = str(Path(gravphase.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", _FORK_SCRIPT],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0"


@pytest.mark.parametrize("n", [32, 64, 128])
def test_unit_half_spectrum_is_positive_with_no_lift(n):
    # dx only scales the spectrum, P(n, dx) = P / dx, whose minimum tends to
    # about 0.5585 / dx
    assert 0.558 <= _half_spectrum(n).min() <= 0.560

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gravphase
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
from gravphase.noisefield import _TAG_SIM, _density_grid, _ensemble, _unit_spectrum
from gravphase.packets import GaussianPacket
from gravphase.units import CODATA2018, NATURAL, make_params, nondimensionalize
from gravphase.variance import phase_variance

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


def test_member_phase_matches_unfiltered_dot():
    # adjoint identity <d, F w> = <F d, w>: filtering each step's density
    # difference once gives the phase of filtering every member's noise
    pair = _pair(1.0, 1.0, 0.5)
    grid = _grid_for(pair, n=32, steps=2, seed=3)
    phases, _ = _ensemble(pair, grid, 1)
    d = nondimensionalize(pair)
    n, box = grid.n, grid.box_length / pair.a
    dtau = d.tau_max / grid.n_steps
    half = box / 2.0
    amp = np.sqrt(_unit_spectrum(n, box / n))
    acc = 0.0
    for s in range(grid.n_steps):
        c1 = 1.0 + ((s + 0.5) * dtau) ** 2
        lo = _density_grid(n, box, (half - d.rho / 2.0, half, half), c1)
        hi = _density_grid(n, box, (half + d.rho / 2.0, half, half), c1)
        w = stream(grid.seed, _TAG_SIM, 0, s).standard_normal((n, n, n))
        phi = np.fft.ifftn(np.fft.fftn(w) * amp).real
        acc += float(np.dot(((lo - hi) * (box / n) ** 3).ravel(), phi.ravel()))
    old = -math.sqrt(d.mu * dtau) * acc
    assert abs(phases[0] - old) <= 1e-12 * abs(old)


def test_lattice_variance_is_the_ensemble_expectation():
    pair = _pair(1.0, 1.0, 0.1)
    grid = _grid_for(pair, seed=11)
    ens = simulate_phase_variance(pair, grid, 64)
    assert ens.lattice_variance == _ensemble(pair, grid, 0)[1]
    # same grid, so the continuum value differs only by discretization bias
    target = phase_variance(nondimensionalize(pair)).total
    assert abs(ens.lattice_variance / target - 1.0) < 0.05


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
    from gravphase.noisefield import _unit_half_spectrum

    for n, dx in ((32, 0.1), (64, 1e-3)):
        half = _unit_half_spectrum(n, dx)
        full = _unit_spectrum(n, dx)
        assert half.shape == (n, n, n // 2 + 1)
        assert not half.flags.writeable
        assert np.allclose(half, full[:, :, : n // 2 + 1], rtol=1e-12, atol=0.0)
        assert half.min() >= 0.0


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

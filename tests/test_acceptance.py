"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (run pytest with -s to see
them). The numbered checks pin the claims the package is built around:
closed-form integrals against Monte Carlo, scaling laws against root
finding, and the sampled noise field against the analytic variance.
"""

import math

import numpy as np
import pytest

from gravphase.criteria import (
    Threshold,
    critical_length,
    critical_mass,
    damping_time,
    damping_time_short,
)
from gravphase import noisefield
from gravphase.noisefield import (
    FieldGrid,
    _ensemble,
    default_workers,
    measured_covariance,
    sample_field_step,
    simulate_phase_variance,
)
from gravphase.oracle import (
    erf_identity_check,
    i4_closed_form,
    i6_closed_form,
    mc_i4_spatial,
    mc_i6_spatial,
    sn_cancellation_check,
)
from gravphase.packets import GaussianPacket, density
from gravphase.units import (
    CODATA2018, NATURAL, DimensionlessParams, make_params, nondimensionalize,
)
from gravphase.variance import i7, phase_variance
from kernel_reference import full_spectrum

HBAR = CODATA2018.hbar
G = CODATA2018.G
SEED = 42
N_MC = 10**6


def _mass_for_mu(mu, a):
    return (mu * HBAR**2 / (G * a)) ** (1.0 / 3.0)


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_c01_deterministic_term_cancellation():
    rep = sn_cancellation_check(1.0, 1.0, N_MC, SEED)
    ok = rep.analytic_difference == 0.0 and abs(rep.sum_value) < 3.0 * rep.combined_se
    assert _report(
        1, "self-gravity cancellation", ok,
        f"analytic diff {rep.analytic_difference}, MC sum {rep.sum_value:.3e} "
        f"vs 3 SE {3.0 * rep.combined_se:.3e}",
    )


def test_c02_same_center_integral_closed_form():
    worst = 0.0
    ok = True
    for c1 in (0.25, 1.0, 4.0):
        est = mc_i4_spatial(c1, N_MC, SEED)
        target = i4_closed_form(c1)
        err = abs(est.value - target)
        worst = max(worst, err / target)
        ok &= err < 3.0 * est.standard_error and err <= 0.01 * target
    assert _report(
        2, "same-center integral vs MC", ok,
        f"worst relative deviation {worst:.2e} over C1 in {{0.25, 1, 4}}",
    )


def test_c03_cross_center_integral_closed_form():
    worst = 0.0
    ok = True
    for ratio in (0.5, 1.0, 3.0):
        est = mc_i6_spatial(1.0, ratio, N_MC, SEED)
        target = i6_closed_form(1.0, ratio)
        err = abs(est.value - target)
        worst = max(worst, err / abs(target))
        ok &= err < 3.0 * est.standard_error and err <= 0.01 * abs(target)
    assert _report(
        3, "cross-center integral vs MC", ok,
        f"worst relative deviation {worst:.2e} over R/sqrt(C1) in {{0.5, 1, 3}}",
    )


def test_c04_erf_integral_identity():
    resids = [erf_identity_check(r, 1.0) for r in (0.1, 1.0, 5.0)]
    ok = all(r < 1e-10 for r in resids)
    assert _report(
        4, "erf integral identity", ok, f"max residual {max(resids):.2e} (< 1e-10)"
    )


def test_c05_zero_separation_limit():
    d = DimensionlessParams(mu=1.0, rho=1e-8, tau_max=3.0)
    total = phase_variance(d).total
    bound = 1e-12 * i7(d)
    ok = total < bound
    assert _report(
        5, "coincident packets never decohere", ok,
        f"variance {total:.3e} < {bound:.3e}",
    )


def test_c06_short_time_closed_form():
    a = 1e-6
    m = _mass_for_mu(1e4, a)
    p = make_params(m, a, a, 1.0)
    th = Threshold()
    t_full = damping_time(p, th)
    t_short = damping_time_short(p, threshold=th.variance_threshold)
    rel = abs(t_full - t_short) / t_short
    in_regime = t_full <= 0.01 * m * a**2 / HBAR
    ok = in_regime and rel <= 0.05
    assert _report(
        6, "short-time damping time", ok,
        f"root vs closed form deviate {rel:.2e}, tau_T = "
        f"{t_full * HBAR / (m * a**2):.2e}",
    )


def test_c07_macroscopic_scaling_law():
    m = _mass_for_mu(1e4, 1e-6)  # mu spans 1e4 to 1e5 across the decade
    widths = np.geomspace(1e-6, 1e-5, 9)
    lengths = [critical_length(m, a).l_c for a in widths]
    slope = np.polyfit(np.log(widths), np.log(lengths), 1)[0]
    ok = abs(slope - 0.75) <= 0.02
    assert _report(
        7, "macroscopic critical-length scaling", ok,
        f"fitted exponent {slope:.4f} vs 0.75 +- 0.02",
    )


@pytest.mark.xfail(
    strict=True,
    reason="honest failure: for mu <= 0.01 the phase variance saturates far "
    "below the pi^2 threshold (0.14 at rho = 1e4), so the full model gives "
    "no finite damping time and cannot match the closed-form micro estimate "
    "within a factor of 3. The micro formula extrapolates the initial linear "
    "growth, which the saturating solution never sustains to threshold.",
)
def test_c08_micro_regime_damping_time():
    a = 1e-6
    mu = 0.01
    m = _mass_for_mu(mu, a)
    t_cap = 1e18
    best_ratio = math.inf
    for rho in (10.0, 100.0, 1e4):
        p = make_params(m, a, rho * a, 1.0)
        t_full = damping_time(p, t_cap=t_cap)
        t_micro = HBAR * a / (G * m**2)
        if t_full < t_cap:
            ratio = max(t_full / t_micro, t_micro / t_full)
            best_ratio = min(best_ratio, ratio)
    sat = phase_variance(DimensionlessParams(mu=mu, rho=1e4, tau_max=1e12)).total
    ok = best_ratio <= 3.0
    _report(
        8, "microscopic damping time", ok,
        f"variance saturates at {sat:.3f} << pi^2, no threshold crossing "
        f"by t_cap; best factor {best_ratio}",
    )
    assert ok


def test_c09_critical_mass_order_of_magnitude():
    m_c = critical_mass(1000.0)
    ok = 1e-18 <= m_c <= 1e-16
    assert _report(
        9, "critical mass at 1 g/cc", ok, f"m_c = {m_c:.4e} kg in [1e-18, 1e-16]"
    )


def test_c10_boundary_identity():
    a = 1e-6
    m = _mass_for_mu(1.0, a)
    l_chr = HBAR**2 / (G * m**3)
    macro = l_chr**0.25 * a**0.75
    micro = math.sqrt(l_chr * a)
    dev = max(abs(macro - a), abs(micro - a)) / a
    ok = dev <= 1e-12
    assert _report(
        10, "asymptote agreement at mu = 1", ok,
        f"both laws deviate from a by {dev:.2e} relative",
    )


def test_c11_noise_field_covariance():
    grid = FieldGrid(n=64, box_length=1.0, dt=1.0, n_steps=1, seed=SEED)
    dx = grid.dx
    seps = [4 * dx, 8 * dx, 12 * dx, 16 * dx]  # 4 dx up to L/4
    rows = measured_covariance(grid, 2000, seps)
    worst = max(abs(r.estimate - r.target) / r.target for r in rows)
    ok = worst <= 0.05
    assert _report(
        11, "sampled covariance vs hbar G / r", ok,
        f"worst relative deviation {worst:.2%} over r in [4 dx, L/4]",
    )


class _FixedStream:
    """The same exponentials e and normals z for every realization."""

    def __init__(self, e, z):
        self.e, self.z = e, z

    def standard_exponential(self, shape):
        return self.e.reshape(shape).copy()

    def standard_normal(self, shape):
        return self.z.reshape(shape).copy()


def _lag_weights(n, lag):
    """a_k = P_k (cos kx + cos ky + cos kz) / (3 n^3) over the full spectrum,
    for unit hbar G: a realization at this lag is sum_k a_k |fftn(w)_k|^2 / n^3."""
    c = np.cos(2.0 * math.pi * np.arange(n) * lag / n)
    cosines = c[:, None, None] + c[:, None] + c
    return full_spectrum(n, 1.0 / n) * cosines / (3.0 * n**3)


@pytest.mark.parametrize("n, lags", [(64, (4, 8, 12, 16)), (32, (1, 2, 4, 8, 16))])
def test_c11_covariance_expectation(n, lags, monkeypatch):
    # criterion 11's deterministic part: with every spectral draw at its
    # mean (1, for Exp(1) and chi^2_1 alike), each realization is the
    # estimator's expectation sum_k weight_k P_k / (3 n^3), which must be
    # hbar G / r at the lag
    ones = np.ones((n, n, n // 2 + 1))
    monkeypatch.setattr(noisefield, "stream", lambda *key: _FixedStream(ones, ones[:2, :2, :2]))
    grid = FieldGrid(n=n, box_length=1.0, dt=1.0, n_steps=1, seed=SEED)
    rows = measured_covariance(grid, 100, [lag * grid.dx for lag in lags])
    worst = max(abs(r.estimate / r.target - 1.0) for r in rows)
    assert _report(
        11, "covariance expectation vs hbar G / r", worst <= 1e-13,
        f"n={n}: worst relative deviation {worst:.1e}",
    )


def test_c11_covariance_draw_is_the_hermitian_spectrum(monkeypatch):
    # a realization's draw e over the half spectrum stands for the full
    # |fftn(w)|^2 / n^3: inner kz mirrored to -k, on the planes kz = 0 and
    # n/2 the cell of lower flat index kx n + ky copied onto its mirror,
    # and the squared normals at the 8 self-conjugate cells
    n, lags = 32, (1, 3, 16)
    rng = np.random.default_rng(SEED)
    e, z = rng.exponential(size=(n, n, n // 2 + 1)), rng.normal(size=8)
    i = np.arange(n)
    mirror = lambda a: a[-i % n][:, -i % n]
    full = np.empty((n, n, n))
    full[:, :, : n // 2 + 1] = e
    full[:, :, n // 2 + 1 :] = mirror(e)[:, :, n // 2 - 1 : 0 : -1]
    flat = i[:, None] * n + i
    for kz in (0, n // 2):
        full[:, :, kz] = np.where(flat <= mirror(flat), e[:, :, kz], mirror(e[:, :, kz]))
    full[:: n // 2, :: n // 2, :: n // 2] = np.square(z).reshape(2, 2, 2)
    monkeypatch.setattr(noisefield, "stream", lambda *key: _FixedStream(e, z))
    grid = FieldGrid(n=n, box_length=1.0, dt=1.0, n_steps=1, seed=SEED)
    rows = measured_covariance(grid, 100, [lag * grid.dx for lag in lags], NATURAL)
    worst = max(
        abs(row.estimate / float((_lag_weights(n, lag) * full).sum()) - 1.0)
        for lag, row in zip(lags, rows)
    )
    assert _report(
        11, "covariance draw vs Hermitian full spectrum", worst <= 1e-12,
        f"worst relative difference {worst:.1e}",
    )


def test_c11_covariance_spread_against_exact_law():
    # criterion 11's sampling part: a realization is the quadratic form
    # sum_k a_k |fftn(w)_k|^2 / n^3 of white normals w, so its variance is
    # 2 sum a_k^2 and its fourth cumulant 48 sum a_k^4 (hbar G factored
    # out); the sample variance must match within its own sampling error
    n, count, lags = 32, 4000, (1, 4, 16)
    grid = FieldGrid(n=n, box_length=1.0, dt=1.0, n_steps=1, seed=SEED)
    rows = measured_covariance(grid, count, [lag * grid.dx for lag in lags], NATURAL)
    zs = []
    for lag, row in zip(lags, rows):
        a = _lag_weights(n, lag)
        var, kappa4 = 2.0 * float(np.square(a).sum()), 48.0 * float((a**4).sum())
        s2 = row.standard_error**2 * count
        zs.append((s2 - var) / math.sqrt(2.0 * var**2 / (count - 1) + kappa4 / count))
    assert _report(
        11, "covariance spread vs exact law", max(map(abs, zs)) <= 4.0,
        "sample variance z = " + ", ".join(f"{z:+.2f}" for z in zs),
    )


def test_c11_sampled_field_two_point_function():
    # the fields sample_field_step makes (numpy's FFT of a Philox white
    # field) against hbar G / r, under criterion 11's rule: within 5% or 3 SE
    grid = FieldGrid(n=32, box_length=1.0, dt=1.0, n_steps=1, seed=SEED)
    count, lags = 300, np.array([1, 2, 4, 8])
    per_field = np.empty((count, lags.size))
    for m in range(count):
        phi = sample_field_step(grid, m, 0, constants=NATURAL)
        for j, lag in enumerate(lags):
            per_field[m, j] = np.mean(
                [np.mean(phi * np.roll(phi, lag, axis)) for axis in range(3)]
            )
    est = per_field.mean(axis=0) * grid.dt
    se = per_field.std(axis=0, ddof=1) * grid.dt / math.sqrt(count)
    target = 1.0 / (lags * grid.dx)
    ok = bool(np.all(np.abs(est - target) <= np.maximum(0.05 * target, 3.0 * se)))
    assert _report(
        11, "sampled field two-point function vs hbar G / r", ok,
        "relative deviations " + ", ".join(
            f"{d:+.2%} ({z:+.2f} SE)" for d, z in zip(est / target - 1.0, (est - target) / se)
        ),
    )


def test_c12_stochastic_reproduction_of_variance():
    a = 1e-6
    m = _mass_for_mu(1.0, a)
    workers = default_workers()
    results = []
    ok = True
    for tau_max, steps in ((0.1, 8), (3.0, 30)):
        T = tau_max * m * a**2 / HBAR
        p = make_params(m, a, a, T)
        box = 8.0 * a * max(1.0, math.hypot(1.0, tau_max))
        grid = FieldGrid(n=64, box_length=box, dt=T / steps, n_steps=steps, seed=SEED)
        ens = simulate_phase_variance(p, grid, 256, workers=workers)
        target = phase_variance(nondimensionalize(p)).total
        err = abs(ens.variance - target)
        tol = max(0.10 * target, 3.0 * ens.standard_error_of_variance)
        ok &= err <= tol
        results.append(f"tau={tau_max}: {ens.variance:.4f} vs {target:.4f}")
    assert _report(
        12, "ensemble variance vs analytic", ok, "; ".join(results)
    )


def _c12_case(tau_max, steps, n=64):
    a = 1e-6
    m = _mass_for_mu(1.0, a)
    T = tau_max * m * a**2 / HBAR
    p = make_params(m, a, a, T)
    box = 8.0 * a * max(1.0, math.hypot(1.0, tau_max))
    return p, FieldGrid(n=n, box_length=box, dt=T / steps, n_steps=steps, seed=SEED)


@pytest.mark.parametrize("tau_max, steps", [(0.1, 8), (3.0, 30)])
def test_c12_lattice_bias(tau_max, steps):
    # criterion 12's deterministic part: the variance the ensemble samples,
    # exact on its lattice and time grid, against the continuum value
    p, grid = _c12_case(tau_max, steps)
    lattice = _ensemble(p, grid, 0)[1]
    bias = lattice / phase_variance(nondimensionalize(p)).total - 1.0
    assert _report(
        12, "lattice-exact variance vs analytic", abs(bias) <= 0.015,
        f"tau={tau_max}: discretization bias {bias:+.3%}",
    )


def test_c12_lattice_bias_is_second_order_in_the_spacing():
    # criterion 12's deterministic part at tau = 3, where the box term is
    # negligible: halving the spacing cuts the bias about fourfold, and
    # Richardson extrapolation (p = 2) on n = 64, 128 lands on the continuum.
    # At tau = 0.1 the box term dominates at n = 128, so it is not checked here
    target = phase_variance(nondimensionalize(_c12_case(3.0, 30)[0])).total
    lat = {n: _ensemble(*_c12_case(3.0, 30, n), 0)[1] for n in (64, 128)}
    order = math.log2((lat[64] / target - 1.0) / (lat[128] / target - 1.0))
    extrapolated = (4.0 * lat[128] - lat[64]) / 3.0 / target - 1.0
    assert _report(
        12, "lattice bias order and extrapolation",
        1.5 <= order <= 2.5 and abs(extrapolated) <= 5e-4,
        f"tau=3: observed order {order:.2f}, extrapolated bias {extrapolated:+.4%}",
    )


@pytest.mark.parametrize("tau_max, steps", [(0.1, 8), (3.0, 30)])
def test_c12_ensemble_noise_against_lattice(tau_max, steps):
    # criterion 12's sampling part: the phases are exactly Gaussian with
    # the lattice variance s2, so the sample variance has SE s2 sqrt(2/(n-1))
    p, grid = _c12_case(tau_max, steps, n=32)
    ens = simulate_phase_variance(p, grid, 128, workers=default_workers())
    se = ens.lattice_variance * math.sqrt(2.0 / (ens.n_members - 1))
    z = (ens.variance - ens.lattice_variance) / se
    assert _report(
        12, "ensemble variance vs lattice-exact variance", abs(z) <= 4.0,
        f"tau={tau_max}: z = {z:+.2f}",
    )


def test_c13_invariant_suite():
    checks = []

    # monotone in tau and in rho
    vals_tau = [
        phase_variance(DimensionlessParams(1.0, 1.0, t)).total for t in (0.1, 1.0, 5.0)
    ]
    checks.append(vals_tau[0] < vals_tau[1] < vals_tau[2])
    vals_rho = [
        phase_variance(DimensionlessParams(1.0, r, 1.0)).total for r in (0.3, 1.0, 3.0)
    ]
    checks.append(vals_rho[0] < vals_rho[1] < vals_rho[2])

    # exact linearity in mu
    base = phase_variance(DimensionlessParams(1.0, 1.4, 2.0)).total
    scaled = phase_variance(DimensionlessParams(137.0, 1.4, 2.0)).total
    checks.append(math.isclose(scaled, 137.0 * base, rel_tol=1e-13))

    # density normalization on a radial grid
    pk = GaussianPacket(center=(0.0, 0.0, 0.0), a=1e-6, m=1e-17)
    r = np.linspace(0.0, 12e-6, 20001)
    rho_r = density(pk, np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=-1), 0.0)
    mass = np.trapezoid(4.0 * math.pi * r * r * rho_r, r)
    checks.append(abs(mass - 1.0) < 1e-8)

    # MC standard error scales as n^(-1/2)
    se1 = mc_i4_spatial(1.0, 5 * 10**4, SEED).standard_error
    se2 = mc_i4_spatial(1.0, 80 * 10**4, SEED).standard_error
    checks.append(math.isclose(se2 / se1, 0.25, rel_tol=0.15))

    # bitwise determinism across worker counts, MC and ensemble
    checks.append(
        mc_i4_spatial(1.0, 2 * 10**5, SEED, workers=1)
        == mc_i4_spatial(1.0, 2 * 10**5, SEED, workers=4)
    )
    a = 1e-6
    m = _mass_for_mu(1.0, a)
    T = 0.1 * m * a**2 / HBAR
    p = make_params(m, a, a, T)
    box = 8.0 * a * math.hypot(1.0, 0.1)
    grid = FieldGrid(n=32, box_length=box, dt=T / 4, n_steps=4, seed=SEED)
    checks.append(
        simulate_phase_variance(p, grid, 64, workers=1)
        == simulate_phase_variance(p, grid, 64, workers=3)
    )

    ok = all(checks)
    assert _report(
        13, "invariant suite", ok,
        f"{sum(bool(c) for c in checks)}/{len(checks)} invariants hold",
    )

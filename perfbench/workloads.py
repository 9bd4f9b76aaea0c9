"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed template of operations; the seed only fills in
their inputs. Each operation is one ``gravphase`` command line. One round
of a workload runs every operation of its template once, and a run
repeats whole rounds, so the mix of operation kinds (and the share of
operations that hit the critical-length fault) is the same in every run.

Inputs that drive the cost of an operation (the coupling ``mu`` above
all) are drawn by stratified sampling: a group of k operations takes one
value from each of k equal slices of its range, in a seeded order. The
set of costs is then nearly the same for every seed, which keeps the
latency quantiles steady, while the inputs themselves still change.

Monte Carlo operations (``simulate``, ``oracle``, ``covariance``) pass a
fixed program seed per slot of the template, 42 plus the slot index, and
the seed varies only inputs that leave their statistical outcome as it
is: the coupling and SI scale of an ensemble, the box and time step of a
covariance, the order of operations. Their outputs are checked at 3
standard errors, and a fair 3-SE check fails about once in 370 tries;
with outcomes that followed the workload seed, the benchmark would fail
on some seeds for no fault of the program. The covariance lags do follow
the seed; each slot passes at every lag the seed can pick.

This module imports nothing from the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# CODATA 2018 (h is exact since the 2019 SI), used to turn (mu, rho, tau)
# into SI inputs and by the checks
G = 6.67430e-11
HBAR = 6.62607015e-34 / (2.0 * math.pi)

WORKLOADS = ("scalar_sweep", "field_ensemble", "verification")

# coupling ranges of the three regimes; the micro floor stays well above
# mu ~ 0.028, below which critical_length cannot bracket its root
REGIMES = {
    "macro": (1e2, 1e4),
    "boundary": (0.5, 2.0),
    "micro": (0.08, 0.3),
}

# Fixed inputs that hit the critical-length fault: the sweep's first row has
# mu << 0.028, critical_length raises BracketError after scanning rho up
# to 1e100, and the whole sweep exits 3. They do not depend on the seed.
FAULT_ARGVS = (
    ("sweep", "--param", "mass", "--start", "1e-18", "--stop", "1e-14",
     "--num", "9", "--width", "1e-7"),
    ("sweep", "--param", "width", "--start", "1e-9", "--stop", "1e-6",
     "--num", "7", "--mass", "2e-18", "--separation", "1e-7"),
)

MC_SEED_BASE = 42
SIM_GRID_N = 32
SIM_STEPS = 1
SIM_MEMBERS = 64
ORACLE_SAMPLES = 100_000
COV_GRID_N = 32
COV_REALIZATIONS = 100


@dataclass(frozen=True)
class Op:
    """One CLI invocation. ``fault`` marks the seed-independent inputs
    that hit the critical-length fault."""

    kind: str
    argv: tuple[str, ...]
    fault: bool = False


def _num(x: float) -> str:
    return format(x, ".6g")


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw from each of k equal slices of [lo, hi] (in
    log scale), in seeded order."""
    a, b = math.log(lo), math.log(hi)
    vals = [math.exp(a + (b - a) * (j + rng.random()) / k) for j in range(k)]
    rng.shuffle(vals)
    return vals


def mass_for(mu: float, a: float) -> float:
    """Mass [kg] giving coupling mu at width a [m]: mu = G m^3 a / hbar^2."""
    return (mu * HBAR**2 / (G * a)) ** (1.0 / 3.0)


def horizon_for(tau: float, m: float, a: float) -> float:
    """Horizon [s] giving tau_max: tau = hbar T / (m a^2)."""
    return tau * m * a * a / HBAR


def scalar_sweep(seed: int) -> list[Op]:
    """variance, criteria and sweep invocations over three regimes."""
    rng = random.Random(f"scalar_sweep/{seed}")
    ops: list[Op] = []
    for regime, (mu_lo, mu_hi) in REGIMES.items():
        # variance, dimensionless: 4 on the quadrature branch (rho >= 0.5),
        # 4 on the small-rho series branch
        for branch, (r_lo, r_hi) in (("quad", (0.6, 20.0)), ("series", (0.01, 0.45))):
            for mu, rho, tau in zip(_strata(rng, 4, mu_lo, mu_hi),
                                    _strata(rng, 4, r_lo, r_hi),
                                    _strata(rng, 4, 0.1, 100.0)):
                ops.append(Op(f"variance_{branch}", (
                    "variance", "--mu", _num(mu), "--rho", _num(rho),
                    "--tau-max", _num(tau))))
        # variance, SI: one on each branch
        for mu, rho, tau, a in zip(_strata(rng, 2, mu_lo, mu_hi),
                                   (rng.uniform(0.05, 0.45), rng.uniform(0.6, 10.0)),
                                   _strata(rng, 2, 0.1, 100.0),
                                   _strata(rng, 2, 1e-8, 1e-6)):
            m = mass_for(mu, a)
            ops.append(Op("variance_si", (
                "variance", "--mass", _num(m), "--width", _num(a),
                "--separation", _num(rho * a), "--horizon", _num(horizon_for(tau, m, a)))))
        # criteria with separation and density: damping time, L_c, m_c, regime
        for mu, rho, a, dens in zip(_strata(rng, 4, mu_lo, mu_hi),
                                    _strata(rng, 4, 0.3, 30.0),
                                    _strata(rng, 4, 1e-8, 1e-6),
                                    _strata(rng, 4, 100.0, 20000.0)):
            ops.append(Op("criteria_full", (
                "criteria", "--mass", _num(mass_for(mu, a)), "--width", _num(a),
                "--separation", _num(rho * a), "--density", _num(dens))))
        # criteria with mass and width only: critical length alone
        mu, a = _strata(rng, 1, mu_lo, mu_hi)[0], _strata(rng, 1, 1e-8, 1e-6)[0]
        ops.append(Op("criteria_length", (
            "criteria", "--mass", _num(mass_for(mu, a)), "--width", _num(a))))
        # criteria with mass and density only: critical mass and regime
        dens = _strata(rng, 1, 100.0, 20000.0)[0]
        a = _strata(rng, 1, 1e-8, 1e-6)[0]
        ops.append(Op("criteria_density", (
            "criteria", "--mass", _num(mass_for(math.sqrt(mu_lo * mu_hi), a)),
            "--density", _num(dens))))
        # separation sweeps: critical_length(mass, width) is the same on
        # every row. The micro ones are the costliest seeded operations;
        # four of them, with the micro mass and width sweeps and the fault
        # sweeps, make a cluster of eight around the 90th percentile, so
        # that op_p90_ms does not hang on a single draw.
        k = 4 if regime == "micro" else 2
        for mu, a, rho0 in zip(_strata(rng, k, mu_lo, mu_hi),
                               _strata(rng, k, 1e-8, 1e-6),
                               _strata(rng, k, 0.2, 2.0)):
            ops.append(Op("sweep_separation", (
                "sweep", "--param", "separation", "--start", _num(rho0 * a),
                "--stop", _num(rho0 * a * 30.0), "--num", "5",
                "--mass", _num(mass_for(mu, a)), "--width", _num(a))))
        # mass and width sweeps across the regime's coupling range
        a = _strata(rng, 1, 1e-8, 1e-6)[0]
        lo, hi = (mu_lo * (1.0 + 0.1 * rng.random()), mu_hi * (1.0 - 0.1 * rng.random()))
        ops.append(Op("sweep_mass", (
            "sweep", "--param", "mass", "--start", _num(mass_for(lo, a)),
            "--stop", _num(mass_for(hi, a)), "--num", "5", "--width", _num(a),
            "--separation", _num(a * rng.uniform(0.5, 5.0)))))
        m = mass_for(math.sqrt(mu_lo * mu_hi), 1e-7)
        a_lo = 1e-7 * lo / math.sqrt(mu_lo * mu_hi)
        a_hi = 1e-7 * hi / math.sqrt(mu_lo * mu_hi)
        ops.append(Op("sweep_width", (
            "sweep", "--param", "width", "--start", _num(a_lo), "--stop", _num(a_hi),
            "--num", "5", "--mass", _num(m),
            "--separation", _num(math.sqrt(a_lo * a_hi) * rng.uniform(0.5, 5.0)))))
    ops.extend(Op("sweep_fault", argv, fault=True) for argv in FAULT_ARGVS)
    rng.shuffle(ops)
    return ops


# (rho, tau_max) of each simulate slot. The simulator works in units of
# the width a and scales phases by sqrt(mu), so the ratio of ensemble to
# analytic variance depends on (rho, tau_max, program seed) only: the
# seed-drawn (mu, a) change every SI input but not the statistical outcome.
SIM_SLOTS = ((0.5, 0.3), (0.7, 0.1), (0.9, 0.5), (1.1, 0.05),
             (1.3, 0.2), (1.5, 0.4), (1.75, 0.15), (2.0, 0.25))


def field_ensemble(seed: int) -> list[Op]:
    """simulate invocations on a 32^3 grid, 64 members, one step each."""
    rng = random.Random(f"field_ensemble/{seed}")
    k = len(SIM_SLOTS)
    ops = []
    for slot, ((rho, tau), mu, a) in enumerate(zip(SIM_SLOTS,
                                                   _strata(rng, k, 0.1, 10.0),
                                                   _strata(rng, k, 1e-7, 1e-6))):
        m = mass_for(mu, a)
        ops.append(Op("simulate", (
            "simulate", "--mass", _num(m), "--width", _num(a),
            "--separation", _num(rho * a), "--horizon", _num(horizon_for(tau, m, a)),
            "--grid-n", str(SIM_GRID_N), "--steps", str(SIM_STEPS),
            "--members", str(SIM_MEMBERS), "--seed", str(MC_SEED_BASE + slot),
            "--workers", "1")))
    rng.shuffle(ops)
    return ops


def verification(seed: int) -> list[Op]:
    """oracle and covariance invocations."""
    rng = random.Random(f"verification/{seed}")
    ops = [
        Op("oracle", ("oracle", "--samples", str(ORACLE_SAMPLES),
                      "--seed", str(MC_SEED_BASE + slot), "--workers", "1"))
        for slot in range(5)
    ]
    n = COV_GRID_N
    for slot, (box, dt) in enumerate(zip(_strata(rng, 3, 1e-3, 1e2),
                                         _strata(rng, 3, 1e-3, 1e3))):
        box = float(_num(box))
        lags = sorted(rng.sample(range(1, n // 2 + 1), 3))
        # box / n is exact (n is a power of two) and repr round-trips, so
        # each separation lands exactly on its lag
        seps = ",".join(repr(lag * (box / n)) for lag in lags)
        ops.append(Op("covariance", (
            "covariance", "--grid-n", str(n), "--box", _num(box), "--dt", _num(dt),
            "--realizations", str(COV_REALIZATIONS), "--separations", seps,
            "--seed", str(MC_SEED_BASE + 5 + slot))))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "scalar_sweep": scalar_sweep,
    "field_ensemble": field_ensemble,
    "verification": verification,
}

# the first operation of each kind run once, untimed, at set-up
WARMUP = {
    "scalar_sweep": ("variance", "--mu", "1", "--rho", "1", "--tau-max", "3"),
    "field_ensemble": field_ensemble(0)[0].argv,
    "verification": verification(0)[0].argv,
}

"""End-to-end stochastic ensemble against the analytic phase variance.

Evolves many independent noise histories on a periodic grid, accumulates
the phase difference of a superposed packet pair for each, and compares
the ensemble variance with the quadrature result. Counter-based streams
make the ensemble bitwise independent of the worker count.
"""

import time

from gravphase import (
    NATURAL,
    DimensionlessParams,
    FieldGrid,
    PacketPair,
    min_box_length,
    phase_variance,
    simulate_phase_variance,
)


def main() -> None:
    # natural units: m = a = R = 1 gives mu = 1, rho = 1, tau = T
    members = 128
    print(f"{'tau':>5} {'steps':>6} {'ensemble':>12} {'+-':>9}"
          f" {'analytic':>12} {'pull':>6}")
    for tau, steps in ((0.5, 8), (2.0, 16)):
        pair = PacketPair(m=1.0, a=1.0, R=1.0, T=tau)
        box = min_box_length(pair, NATURAL)
        grid = FieldGrid(n=32, box_length=box, dt=tau / steps,
                         n_steps=steps, seed=77)
        t0 = time.perf_counter()
        stats = simulate_phase_variance(pair, grid, members,
                                        constants=NATURAL)
        elapsed = time.perf_counter() - t0
        analytic = phase_variance(
            DimensionlessParams(mu=1.0, rho=1.0, tau_max=tau)
        ).total
        pull = (stats.variance - analytic) / stats.standard_error_of_variance
        print(f"{tau:5.1f} {steps:6d} {stats.variance:12.5e}"
              f" {stats.standard_error_of_variance:9.2e}"
              f" {analytic:12.5e} {pull:+6.2f}"
              f"   [{elapsed:.1f} s, {stats.n_members} members]")

    # same seed, different worker counts: identical to the last bit
    pair = PacketPair(m=1.0, a=1.0, R=1.0, T=0.5)
    grid = FieldGrid(n=32, box_length=9.0, dt=0.0625, n_steps=8, seed=5)
    one = simulate_phase_variance(pair, grid, 64, constants=NATURAL,
                                  workers=1)
    four = simulate_phase_variance(pair, grid, 64, constants=NATURAL,
                                   workers=4)
    print(f"\nworker invariance: {one.variance == four.variance}"
          f" (variance {one.variance:.10e})")


if __name__ == "__main__":
    main()

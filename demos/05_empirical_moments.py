"""Bounds from samples only.

When mu and nu are available only through i.i.d. samples, empirical moments
converge to the true ones, and the level-n bound computed from them
approaches the bound computed from exact moments.  The level controls how
many empirical moments are trusted; sample size must grow with it.
"""

import numpy as np

from tvbound import (
    Empirical,
    Gaussian,
    Mixture,
    exact_tv_univariate_density,
    moments,
    sample,
    solve_hierarchy,
)

rng = np.random.default_rng(20240817)

mu_spec = Mixture((
    (0.5, Gaussian(-1.0, 0.3)),
    (0.5, Gaussian(1.0, 0.3)),
))
nu_spec = Gaussian(0.0, 0.8)

tv = exact_tv_univariate_density(mu_spec, nu_spec)
exact_sweep = solve_hierarchy(mu_spec, nu_spec, levels=[1, 2, 3])
print(f"quadrature TV = {tv:.6f}")
print("bounds from exact moments:   ",
      " ".join(f"rho_{r.level}={r.rho:.4f}" for r in exact_sweep))

for size in (1_000, 100_000):
    mu_hat = Empirical(sample(mu_spec, size, rng))
    nu_hat = Empirical(sample(nu_spec, size, rng))
    sweep = solve_hierarchy(mu_hat, nu_hat, levels=[1, 2, 3])
    print(f"bounds from {size:>7d} samples:",
          " ".join(f"rho_{r.level}={r.rho:.4f}" for r in sweep))

second = moments(Empirical(sample(Gaussian(0, 1), 1_000_000, rng)), 1, 2)
print(f"\nSLLN sanity: second moment of 1e6 N(0,1) draws = {second[2]:.5f}")

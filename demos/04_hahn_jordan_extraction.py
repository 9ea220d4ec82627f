"""Recovering the Hahn-Jordan pair from the optimal pseudo-moments.

For atomic inputs at the exactness level, the optimal pseudo-moment matrices
are flat (rank stalls) and the atoms of the positive and negative parts of
mu - nu can be read off via the shift-operator method.  The recovered pair
is the numerical Hahn-Jordan decomposition of mu - nu.  Both parts are
``Atomic`` measures, the type the inputs use, so the moments and the exact
TV oracle apply to them as they do to mu and nu.
"""

import numpy as np

from tvbound import (
    Atomic,
    exact_tv_atomic,
    flatness,
    moments,
    recover_hahn_jordan,
    solve_hierarchy,
)

mu = Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4)
nu = Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4)

result = solve_hierarchy(mu, nu, levels=[4])[0]
print(f"rho_4 = {result.rho:.6f}   (exact TV here is 1.5)")

report = flatness(result.phi_solver, 4)
print(f"rank profile of M_k(phi*): {report.ranks}  flat: {report.flat}")

plus, minus = recover_hahn_jordan(result)
print("\nphi*_+ (positive part of mu - nu):")
for p, w in zip(plus.points1d, plus.weights):
    print(f"   atom {p:+.6f}  weight {w:.6f}")
print("phi*_- (negative part):")
for p, w in zip(minus.points1d, minus.weights):
    print(f"   atom {p:+.6f}  weight {w:.6f}")

mass = plus.mass + minus.mass
print(f"\ntotal extracted mass = {mass:.6f} = rho_4 up to solver accuracy")
print(f"exact TV between the two parts = {exact_tv_atomic(plus, minus):.6f}")

diff = moments(plus, 1, 8).values - moments(minus, 1, 8).values
target = moments(mu, 1, 8).values - moments(nu, 1, 8).values
print(f"largest moment error of phi*_+ - phi*_- against mu - nu: "
      f"{np.max(np.abs(diff - target)):.1e}")
print("note the common atom at 0.3 cancels in mu - nu and appears in neither part")

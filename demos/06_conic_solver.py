"""The dense conic solver underneath, on its own.

Small linear programs over PSD matrix constraints are solved by a
self-contained primal-dual interior-point method.
"""

import numpy as np

from tvbound import ConicProgram, PsdBlock, SolverSettings, solve

# minimize x1 + x2  subject to  [[x1, 1], [1, x2]] >= 0   (optimum 2 at (1,1))
f0 = np.array([[0.0, 1.0], [1.0, 0.0]])
coeffs = np.zeros((2, 2, 2))
coeffs[0, 0, 0] = 1.0
coeffs[1, 1, 1] = 1.0
program = ConicProgram(c=np.array([1.0, 1.0]), blocks=(PsdBlock(f0, coeffs),))

result = solve(program, SolverSettings(tol=1e-9, accept_tol=1e-8))
print(f"status      : {result.status.value}")
print(f"objective   : {result.objective:.12f}")
print(f"x           : {result.x}")
print(f"dual matrix :\n{result.block_duals[0]}")
print(f"residuals   : primal {result.primal_residual:.1e}, "
      f"dual {result.dual_residual:.1e}, gap {result.gap:.1e}")

# the solver takes PSD blocks only; an equality is substituted out by the
# caller: x1 = 2 leaves the variable x2, with the constant x1 in the offset
program_pinned = ConicProgram(
    c=np.array([1.0]),
    blocks=(PsdBlock(f0 + 2.0 * coeffs[0], coeffs[1:]),),
    offset=2.0,
)
result_pinned = solve(program_pinned)
print(f"\nwith x1 pinned to 2: objective {result_pinned.objective:.9f} "
      f"at x2 = {result_pinned.x[0]:.9f}")

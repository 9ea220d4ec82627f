import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvbound
from tvbound import conic
from tvbound.conic import (
    ConicProgram,
    PsdBlock,
    SolveStatus,
    SolverSettings,
    _nt_scaling,
    solve,
)
from tvbound.measures import Atomic, Gaussian, moments
from tvbound.relaxation import (
    HierarchySettings,
    assemble,
    solve_hierarchy,
    variable_map_for,
)

from oracles import barrier_solve, grid_min_sdp, random_block_sdp, random_sdp_instance


def scalar_program():
    return ConicProgram(
        c=np.array([1.0]),
        blocks=(PsdBlock(np.zeros((1, 1)), np.ones((1, 1, 1))),),
    )


def arithmetic_geometric_program():
    # min x1 + x2 with [[x1, 1], [1, x2]] psd; optimum 2 at (1, 1)
    f0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1, 1] = 1.0
    return ConicProgram(c=np.array([1.0, 1.0]), blocks=(PsdBlock(f0, coeffs),))


def test_scalar_block():
    res = solve(scalar_program())
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-7)


def test_arithmetic_geometric():
    prog = arithmetic_geometric_program()
    grid = grid_min_sdp(prog.c, prog.blocks[0].f0, prog.blocks[0].coeffs, 0.0, 3.0, 301)
    assert grid == pytest.approx(2.0, abs=2e-2)  # grid resolution limited
    res = solve(prog)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_assembled_dirac_program():
    # the level-1 program for delta_0 vs delta_eps has optimal value 2; the
    # unreduced three-block form has no interior at all (the feasible set is
    # one point), so the solve is accepted at a degenerate-case tolerance
    eps = 0.1
    mu = moments(Atomic.univariate([0.0], [1.0]), 1, 2)
    nu = moments(Atomic.univariate([eps], [1.0]), 1, 2)
    problem = assemble(mu, nu, 1)
    res = solve(problem.program, SolverSettings(tol=1e-8, accept_tol=1e-3, max_iter=300))
    assert res.status == SolveStatus.OPTIMAL
    assert res.dual_objective == pytest.approx(2.0, abs=1e-5)
    # the kernel-face reduction restores exactness
    reduced = assemble(mu, nu, 1, kernel_reduce=True)
    res2 = solve(reduced.program)
    assert res2.status == SolveStatus.OPTIMAL
    assert res2.dual_objective == pytest.approx(2.0, abs=1e-9)


def test_degenerate_gaussian_level4_stays_dual_feasible():
    # the level-4 relaxation of N(0, 0.1^2) vs N(1, 0.5^2), assembled the way
    # solve_level does: near its optimum the Schur matrix is nearly singular,
    # and a dual step taken from the NT formula alone drifts off dual
    # feasibility (dres of order 1) by an amount that depends on the BLAS
    # kernel's rounding
    settings = HierarchySettings()
    mu = moments(Gaussian(0.0, 0.1), 1, 8)
    nu = moments(Gaussian(1.0, 0.5), 1, 8)
    var_map = variable_map_for(mu, nu, 4)
    problem = assemble(
        var_map.seq_to_solver(mu), var_map.seq_to_solver(nu), 4, kernel_reduce=True
    )
    res = solve(problem.program, settings)
    assert res.status == SolveStatus.OPTIMAL
    assert res.dual_residual <= settings.tol


def test_random_instances_match_barrier_oracle():
    rng = np.random.default_rng(123)
    for _ in range(30):
        c, f0, coeffs, x0 = random_sdp_instance(rng)
        oracle_val, _ = barrier_solve(c, [(f0, coeffs)], x0)
        res = solve(
            ConicProgram(c=c, blocks=(PsdBlock(f0, coeffs),)),
            SolverSettings(tol=1e-8, accept_tol=1e-6),
        )
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(oracle_val, abs=1e-4)
        # weak duality on the reported pair
        assert res.dual_objective <= res.objective + 1e-6


# interleaved block orders, so that blocks of one order are not adjacent
MIXED_ORDERS = (3, 1, 3, 2)


def mixed_block_program(rng, n_eq=0):
    """A random program over blocks of orders MIXED_ORDERS, and its optimum.

    ``n_eq`` random equalities through the strictly feasible point x0 are
    substituted out: the program's variable is z in x = x0 + N z, for an
    orthonormal basis N of their null space, with c @ x0 as its offset.  The
    oracle solves the same program.  With three of the four variables fixed
    one is left free, and with four none is.
    """
    m = 4
    c, block_data, x0 = random_block_sdp(rng, MIXED_ORDERS, m)
    offset = 0.0
    if n_eq:
        eq_a = rng.standard_normal((n_eq, m))
        nullsp = np.linalg.svd(eq_a)[2][n_eq:].T       # (m, m - n_eq) orthonormal
        block_data = [
            (f0 + np.tensordot(x0, coeffs, axes=1), np.tensordot(nullsp.T, coeffs, axes=1))
            for f0, coeffs in block_data
        ]
        c, offset, x0 = nullsp.T @ c, float(c @ x0), np.zeros(m - n_eq)
    blocks = tuple(PsdBlock(f0, coeffs) for f0, coeffs in block_data)
    prog = ConicProgram(c=c, blocks=blocks, offset=offset)
    if n_eq == m:
        return prog, offset
    return prog, barrier_solve(c, block_data, x0)[0] + offset


# 3 substituted equalities leave one free variable, 4 leave none; both then
# see several blocks of mixed orders
@pytest.mark.parametrize("n_eq", [0, 1, 3, 4])
def test_mixed_block_orders_match_barrier_oracle(n_eq):
    rng = np.random.default_rng(5 + 2 * n_eq)
    for _ in range(5):
        prog, oracle_val = mixed_block_program(rng, n_eq)
        res = solve(prog, SolverSettings(tol=1e-8, accept_tol=1e-6))
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(oracle_val, abs=1e-4)
        # one dual per input block, in input order and shape
        assert [z.shape for z in res.block_duals] == [(s, s) for s in MIXED_ORDERS]
        stationarity = prog.c - sum(
            np.tensordot(blk.coeffs, z, axes=2) for blk, z in zip(prog.blocks, res.block_duals)
        )
        assert np.allclose(stationarity, 0.0, atol=1e-5)
        for blk, z in zip(prog.blocks, res.block_duals):
            s = blk.f0 + np.tensordot(res.x, blk.coeffs, axes=1)
            assert np.linalg.eigvalsh(z)[0] >= -1e-8
            assert abs(float(np.vdot(s, z))) <= 1e-5


def test_determinism_bit_identical():
    programs = (
        arithmetic_geometric_program(),
        mixed_block_program(np.random.default_rng(11), n_eq=1)[0],
    )
    for prog in programs:
        res1 = solve(prog)
        res2 = solve(prog)
        assert res1.x.tobytes() == res2.x.tobytes()
        assert res1.objective == res2.objective
        assert all(
            a.tobytes() == b.tobytes()
            for a, b in zip(res1.block_duals, res2.block_duals)
        )


@pytest.mark.parametrize("bad", [dict(tol=0.0), dict(tol=-1.0), dict(tol=float("nan")),
                                 dict(tol=float("inf")), dict(max_iter=0), dict(max_iter=-3),
                                 dict(accept_tol=0.0), dict(accept_tol=-1e-4),
                                 dict(accept_tol=float("nan")), dict(accept_tol=float("inf"))])
def test_settings_refuse_targets_no_solve_can_meet(bad):
    with pytest.raises(ValueError):
        SolverSettings(**bad)
    with pytest.raises(ValueError):
        HierarchySettings(**bad)


def test_nt_scaling_diagonalizes_both_iterates():
    rng = np.random.default_rng(5)
    for order in range(1, 6):
        a, b = rng.standard_normal((2, 3, order, order))
        S = a @ a.swapaxes(1, 2) + 0.1 * np.eye(order)
        Z = b @ b.swapaxes(1, 2) + 0.1 * np.eye(order)
        G, Ginv, sig = _nt_scaling(np.linalg.cholesky(S), np.linalg.cholesky(Z))
        diag = sig[:, :, None] * np.eye(order)
        for scaled in (Ginv @ S @ Ginv.swapaxes(1, 2), G.swapaxes(1, 2) @ Z @ G):
            assert np.abs(scaled - diag).max() <= 1e-10 * sig.max()
        assert np.abs(G @ Ginv - np.eye(order)).max() <= 1e-10


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
def test_max_iter_reports_every_step(max_iter):
    res = solve(arithmetic_geometric_program(), SolverSettings(max_iter=max_iter))
    assert res.status == SolveStatus.MAX_ITER
    assert res.iterations == max_iter


def test_iteration_factors_each_iterate_once(monkeypatch):
    # an iteration factors the Schur matrix and checks the candidate iterate
    # (S, Z and the polished Z together) with one Cholesky; the next
    # iteration reuses the factors of that check, and each step-length pair
    # takes one eigen-solve.  The blocks are one stack, so the kernel-reduced
    # level, whose three blocks keep order 5, takes one SVD per iteration
    # too, besides the one of its kernel reduction.  The linear solves are
    # matvecs with inverses taken once: one inverse of the Schur factor per
    # iteration and one of the dual-projection Gram's factor per solve.  The
    # per-solve allowance covers the Gram's Cholesky and the rare retry of
    # the check, without the polished Z or with a shrunk step
    counts = dict.fromkeys(("cholesky", "eigvalsh", "svd", "inv"), 0)
    for name in counts:
        def counted(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    iterations = reduced = solves = 0
    for mu, nu, n in ((Gaussian(0.0, 0.5), Gaussian(1.0, 0.5), 3),
                      (Gaussian(0.8, 0.05), Gaussian(1.0, 0.01), 4),
                      (Atomic.univariate([-1.0, 1.0], [0.6, 0.4]),
                       Atomic.univariate([-1.0, 0.2, 1.3], [0.3, 0.4, 0.3]), 4)):
        (res,) = solve_hierarchy(mu, nu, [n])
        assert res.status == SolveStatus.OPTIMAL
        iterations += res.solve.iterations
        reduced += res.problem.reduced
        solves += 1
    assert reduced == 1
    assert counts["cholesky"] <= 2 * iterations + 8
    assert counts["eigvalsh"] <= 3 * iterations
    assert counts["svd"] == iterations + reduced
    assert counts["inv"] == iterations + solves


# the nine pairs of the published Gaussian table
_TABLE_PAIRS = (
    ((0.0, 0.1), (1.0, 0.1)), ((0.0, 0.2), (1.0, 0.2)), ((0.0, 0.1), (1.0, 0.5)),
    ((0.0, 0.5), (1.0, 0.5)), ((0.5, 0.1), (1.0, 0.1)), ((0.5, 0.1), (1.0, 0.5)),
    ((0.8, 0.1), (1.0, 0.1)), ((0.8, 0.05), (1.0, 0.1)), ((0.8, 0.05), (1.0, 0.01)),
)


def test_golden_table_iteration_budget():
    # the corrector solves the scaled Lyapunov equation exactly, entry (i, j)
    # divided by (sig_i + sig_j) / 2; the one-sided form it replaced
    # overweights the entries of small sig_i near degenerate optima and took
    # 867 iterations over these 36 solves, against about 480 with the exact one
    iterations = sum(res.solve.iterations
                     for a, b in _TABLE_PAIRS
                     for res in solve_hierarchy(Gaussian(*a), Gaussian(*b), [1, 2, 3, 4]))
    assert iterations <= 520


def test_no_point_in_the_cone_stops_the_solve(monkeypatch):
    # when no shrink of the step finds a point in the cone, the solve stops
    # at once, with the iterate it had
    monkeypatch.setattr(conic, "_in_cone", lambda stacks: None)
    res = solve(arithmetic_geometric_program())
    assert (res.status, res.stop_reason) == (SolveStatus.NUMERICAL_FAILURE, "numerical")
    assert res.iterations == 0


# levels whose <S, Z>, summed over the stacks, cancels to exactly 0.0 under
# some OpenBLAS kernels, which the sigma rule divided by; the random pair is
# random3-2 of the benchmark's atomic pairs
_KERNEL_LEVELS = """
from tvbound.measures import Atomic
from tvbound.relaxation import HierarchySettings, solve_hierarchy

dirac = Atomic.univariate([0.0], [1.0]), Atomic.univariate([1e-3], [1.0])
pair = (Atomic.univariate([-1.9743644693427593, 1.0905968049015544],
                          [0.6160499404852712, 0.3839500595147289]),
        Atomic.univariate([-1.2499691370888604, -0.72127345486934],
                          [0.7453595509554045, 0.25464044904459543]))
for (mu, nu), levels, certify in ((dirac, [3, 7], False), (dirac, [3, 7], True),
                                  (pair, [8], True)):
    for res in solve_hierarchy(mu, nu, levels, HierarchySettings(certify=certify)):
        print(res.status.value)
"""


@pytest.mark.parametrize("kernel", ["Prescott", "SandyBridge"])
def test_sigma_rule_under_other_blas_kernels(kernel):
    src = str(Path(tvbound.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _KERNEL_LEVELS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    statuses = proc.stdout.split()
    assert len(statuses) == 5
    assert set(statuses) <= {s.value for s in SolveStatus}


def test_stop_reason_names_each_exit():
    (res,) = solve_hierarchy(Gaussian(0.8, 0.05), Gaussian(1.0, 0.01), [4])
    assert (res.status, res.solve.stop_reason) == (SolveStatus.OPTIMAL, "stalled")
    # example 1's kernels pin every variable at n=4
    mu = Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4)
    nu = Atomic.univariate([-0.7, 0.3, 1.3, 2.3], [0.25] * 4)
    (res,) = solve_hierarchy(mu, nu, [4])
    assert (res.solve.iterations, res.solve.stop_reason) == (0, "pinned_point")
    assert solve(arithmetic_geometric_program()).stop_reason == "converged"
    res = solve(arithmetic_geometric_program(), SolverSettings(max_iter=1))
    assert (res.status, res.stop_reason) == (SolveStatus.MAX_ITER, "max_iter")
    assert solve(fixed_point_program(np.array([2.0, 1.0]))).stop_reason == "pinned_point"


def test_no_nan_on_optimal():
    res = solve(arithmetic_geometric_program())
    assert np.isfinite(res.x).all()
    assert all(np.isfinite(z).all() for z in res.block_duals)


def padded_arithmetic_geometric_program(pinned):
    # the arithmetic/geometric block with a zero row and column: S(x) has a
    # constant kernel, so the program has no strictly feasible point.
    # Pinned, x1 = 2 is substituted: min 2 + x2 over [[2, 1], [1, x2]] psd,
    # whose optimum 2.5 is at x2 = 1/2
    base = arithmetic_geometric_program()
    f0 = np.pad(base.blocks[0].f0, ((0, 1), (0, 1)))
    coeffs = np.pad(base.blocks[0].coeffs, ((0, 0), (0, 1), (0, 1)))
    if not pinned:
        return ConicProgram(c=base.c, blocks=(PsdBlock(f0, coeffs),))
    block = PsdBlock(f0 + 2.0 * coeffs[0], coeffs[1:])
    return ConicProgram(c=base.c[1:], blocks=(block,), offset=2.0)


# alone the optimum is 2; with x1 = 2 pinned it is 2.5, with one free
# variable.  The solver runs the padded block as it is, with no restriction
# to the face, and its dual is of the padded order
@pytest.mark.parametrize("pinned, optimum", [(False, 2.0), (True, 2.5)])
def test_constant_kernel_block_is_solved_as_it_is(pinned, optimum):
    prog = padded_arithmetic_geometric_program(pinned)
    (blk,) = prog.blocks
    res = solve(prog)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(optimum, abs=1e-6)
    assert res.dual_objective == pytest.approx(optimum, abs=1e-6)
    (z,) = res.block_duals
    assert z.shape == (3, 3)
    stationarity = prog.c - np.tensordot(blk.coeffs, z, axes=2)
    assert np.allclose(stationarity, 0.0, atol=1e-6)


def fixed_point_program(x):
    # the arithmetic/geometric program with both variables fixed at x: no
    # variable is left, and the one point is S(x) = [[x1, 1], [1, x2]]
    base = arithmetic_geometric_program()
    f0 = base.blocks[0].f0 + np.tensordot(x, base.blocks[0].coeffs, axes=1)
    return ConicProgram(c=np.zeros(0), blocks=(PsdBlock(f0, np.zeros((0, 2, 2))),),
                        offset=float(base.c @ x))


def test_fully_pinned_equalities():
    res = solve(fixed_point_program(np.array([2.0, 1.0])))
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == res.dual_objective == pytest.approx(3.0)
    assert res.x.shape == (0,)
    assert res.iterations == 0
    assert [z.shape for z in res.block_duals] == [(2, 2)]
    assert not np.any(res.block_duals[0])


def test_fixed_point_outside_cone_is_infeasible():
    # S(1/2, 1) = [[1/2, 1], [1, 1]] has determinant -1/2; the residual is
    # relative to the data scale max(1, ||F_0||_F), as in the core
    point = np.array([[0.5, 1.0], [1.0, 1.0]])
    res = solve(fixed_point_program(np.array([0.5, 1.0])))
    assert res.status == SolveStatus.INFEASIBLE
    assert res.primal_residual == pytest.approx(
        -np.linalg.eigvalsh(point)[0] / max(1.0, np.linalg.norm(point)))


def test_pinned_point_meets_the_result_contract():
    # lambda_min = -5e-8 is 3.5e-9 of ||F_0||_F: the point passes at the
    # default accept of 1e-8, and an Optimal reports a residual within it
    settings = SolverSettings()
    f0 = np.diag([10.0, 10.0, -5e-8])
    res = solve(ConicProgram(c=np.zeros(0), blocks=(PsdBlock(f0, np.zeros((0, 3, 3))),)),
                settings)
    assert (res.status, res.stop_reason) == (SolveStatus.OPTIMAL, "pinned_point")
    assert res.primal_residual <= settings.accept
    assert res.primal_residual == pytest.approx(5e-8 / np.linalg.norm(f0))


def test_infeasible_one_variable():
    # S(x) = diag(x, -1) can never be psd
    f0 = np.diag([0.0, -1.0])
    coeffs = np.zeros((1, 2, 2))
    coeffs[0, 0, 0] = 1.0
    res = solve(ConicProgram(c=np.array([1.0]), blocks=(PsdBlock(f0, coeffs),)))
    assert res.status == SolveStatus.INFEASIBLE


def test_infeasible_two_variables():
    f0 = np.diag([0.0, -1.0])
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = 1.0
    res = solve(
        ConicProgram(c=np.array([1.0, 0.0]), blocks=(PsdBlock(f0, coeffs),)),
        SolverSettings(max_iter=80),
    )
    assert res.status in (SolveStatus.INFEASIBLE, SolveStatus.NUMERICAL_FAILURE)
    assert res.status != SolveStatus.OPTIMAL


def test_program_validation():
    with pytest.raises(ValueError):
        PsdBlock(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        ConicProgram(c=np.array([1.0]), blocks=())
    blk = PsdBlock(np.zeros((2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        ConicProgram(c=np.array([1.0]), blocks=(blk,))  # m mismatch


def test_symmetry_check_refuses_relative_asymmetry():
    # a 1e-7 asymmetry among entries near 1 is more than rounding
    skewed = np.array([[1.0, 1.0 + 1e-7], [1.0, 1.0]])
    with pytest.raises(ValueError):
        PsdBlock(skewed, np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        PsdBlock(np.eye(2), skewed[None])


def test_symmetry_check_accepts_rounding_noise():
    # an off-diagonal pair (0, 1e-11) is rounding noise in a block whose
    # largest entry is 1e3, and is symmetrized away
    noisy = np.array([[1e3, 0.0], [1e-11, 1.0]])
    blk = PsdBlock(noisy, noisy[None])
    assert blk.f0[0, 1] == blk.f0[1, 0] == 0.5e-11
    assert np.array_equal(blk.coeffs[0], blk.f0)

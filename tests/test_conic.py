import numpy as np
import pytest

from tvbound.conic import (
    ConicProgram,
    PsdBlock,
    SolveStatus,
    SolverSettings,
    dump_program,
    solve,
)
from tvbound.measures import Atomic, Gaussian, moments
from tvbound.relaxation import HierarchySettings, assemble, variable_map_for

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
    settings = HierarchySettings().solver_settings()
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


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
def test_max_iter_reports_every_step(max_iter):
    res = solve(arithmetic_geometric_program(), SolverSettings(max_iter=max_iter))
    assert res.status == SolveStatus.MAX_ITER
    assert res.iterations == max_iter


def test_no_nan_on_optimal():
    res = solve(arithmetic_geometric_program())
    assert np.isfinite(res.x).all()
    assert all(np.isfinite(z).all() for z in res.block_duals)


def padded_arithmetic_geometric_program(pinned):
    # the arithmetic/geometric block with a zero row and column: S(x) has a
    # constant kernel, so the program has no interior point until it is
    # dropped.  Pinned, x1 = 2 is substituted: min 2 + x2 over
    # [[2, 1], [1, x2]] psd, whose optimum 2.5 is at x2 = 1/2
    base = arithmetic_geometric_program()
    f0 = np.pad(base.blocks[0].f0, ((0, 1), (0, 1)))
    coeffs = np.pad(base.blocks[0].coeffs, ((0, 0), (0, 1), (0, 1)))
    if not pinned:
        return ConicProgram(c=base.c, blocks=(PsdBlock(f0, coeffs),))
    block = PsdBlock(f0 + 2.0 * coeffs[0], coeffs[1:])
    return ConicProgram(c=base.c[1:], blocks=(block,), offset=2.0)


# alone the optimum is 2; with x1 = 2 pinned it is 2.5, with one free variable
@pytest.mark.parametrize("pinned, optimum", [(False, 2.0), (True, 2.5)])
def test_constant_kernel_is_dropped(pinned, optimum):
    prog = padded_arithmetic_geometric_program(pinned)
    res = solve(prog)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(optimum, abs=1e-6)
    (z,) = res.block_duals
    assert z.shape == (3, 3)
    assert np.allclose(z[2], 0.0, atol=1e-12) and np.allclose(z[:, 2], 0.0, atol=1e-12)
    stationarity = prog.c - np.tensordot(prog.blocks[0].coeffs, z, axes=2)
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
    # S(1/2, 1) = [[1/2, 1], [1, 1]] has determinant -1/2
    res = solve(fixed_point_program(np.array([0.5, 1.0])))
    assert res.status == SolveStatus.INFEASIBLE
    assert res.primal_residual == pytest.approx(-np.linalg.eigvalsh([[0.5, 1.0], [1.0, 1.0]])[0])


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


def test_dump_program_format():
    prog = arithmetic_geometric_program()
    text = dump_program(prog)
    lines = text.strip().splitlines()
    assert lines[0] == "nvars 2"
    assert lines[1] == "nblocks 1"
    assert "blocksize 0 2" in lines
    entries = [ln for ln in lines if ln.startswith("f ")]
    # F0 has one upper-triangle nonzero, each coefficient matrix one entry
    assert len(entries) == 3
    for ln in entries:
        parts = ln.split()
        assert len(parts) == 6
        float(parts[5])
    assert dump_program(prog) == text  # deterministic


def test_program_validation():
    with pytest.raises(ValueError):
        PsdBlock(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        ConicProgram(c=np.array([1.0]), blocks=())
    blk = PsdBlock(np.zeros((2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        ConicProgram(c=np.array([1.0]), blocks=(blk,))  # m mismatch

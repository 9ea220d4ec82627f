import numpy as np
import pytest

from tvbound.conic import SolveStatus, SolveResult
from tvbound.errors import DegreeTooLow, DimensionMismatch, SolverFailure
from tvbound.indexing import basis_size
from tvbound.measures import Atomic, Gaussian, exact_tv_univariate_density, moments
from tvbound.moments import moment_matrix
from tvbound.relaxation import (
    HierarchySettings,
    assemble,
    monotone_within,
    solve_hierarchy,
    solve_level,
    variable_map_for,
)

from oracles import gaussian_tv_equal_var


def gaussian_pair(m1, s1, m2, s2, degree):
    return (
        moments(Gaussian(m1, s1), 1, degree),
        moments(Gaussian(m2, s2), 1, degree),
    )


def test_assemble_counts_univariate_n1():
    mu, nu = gaussian_pair(0, 1, 1, 1, 2)
    prob = assemble(mu, nu, 1)
    assert prob.program.n_vars == 3  # eliminated form keeps the phi half
    # M(nu) - M(psi) is M(mu) - M(phi), so three blocks, not four
    assert [blk.size for blk in prob.program.blocks] == [2, 2, 2]


def test_assemble_counts_univariate_n4():
    mu, nu = gaussian_pair(0, 1, 1, 1, 8)
    prob = assemble(mu, nu, 4)
    assert prob.program.n_vars == 9
    assert [blk.size for blk in prob.program.blocks] == [5, 5, 5]


def test_assemble_counts_bivariate_n2():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(6, 2))
    w = np.full(6, 1 / 6)
    mu = moments(Atomic(pts, w), 2, 4)
    nu = moments(Atomic(pts + 0.3, w), 2, 4)
    prob = assemble(mu, nu, 2)
    assert prob.program.n_vars == basis_size(2, 4) == 15
    assert [blk.size for blk in prob.program.blocks] == [6, 6, 6]


def test_assemble_counts_kernel_reduced():
    # two atoms each at level 2: both 3x3 data matrices have rank 2, so the
    # reduction compresses every solver block onto a 2-dimensional face; the
    # kernels pin all five moments of phi, so no variable is left
    mu = moments(Atomic.univariate([0.0, 1.0], [0.5, 0.5]), 1, 4)
    nu = moments(Atomic.univariate([0.5, 2.0], [0.5, 0.5]), 1, 4)
    prob = assemble(mu, nu, 2, kernel_reduce=True)
    assert prob.reduced
    assert prob.program.n_vars == 0
    assert prob.x0.shape == (5,)
    assert prob.null_basis.shape == (5, 0)
    assert [blk.size for blk in prob.program.blocks] == [2, 2, 2]
    assert len(prob.equilibrations) == 3


def test_assemble_validation():
    mu, nu = gaussian_pair(0, 1, 1, 1, 2)
    with pytest.raises(DegreeTooLow):
        assemble(mu, nu, 2)
    other = moments(Atomic(np.zeros((1, 2)), [1.0]), 2, 4)
    with pytest.raises(DimensionMismatch):
        assemble(mu, other, 1)


def test_solve_level_dirac_pair():
    mu = moments(Atomic.univariate([0.0], [1.0]), 1, 2)
    nu = moments(Atomic.univariate([0.01], [1.0]), 1, 2)
    res = solve_level(mu, nu, 1)
    assert res.status == SolveStatus.OPTIMAL
    assert res.rho == pytest.approx(2.0, abs=1e-6)


def test_solve_level_equal_measures():
    mu = moments(Gaussian(0, 1), 1, 4)
    res = solve_level(mu, mu, 2)
    assert abs(res.rho) <= 1e-6


def test_solve_level_gaussian_row():
    mu, nu = gaussian_pair(0, 0.1, 1, 0.1, 2)
    res = solve_level(mu, nu, 1)
    assert res.rho == pytest.approx(1.9231, abs=1e-3)


def test_hierarchy_gaussian_row_one():
    sweep = solve_hierarchy(Gaussian(0, 0.1), Gaussian(1, 0.1), [1, 2, 3, 4])
    expected = (1.9231, 1.9936, 1.9991, 1.9997)
    for res, target in zip(sweep, expected):
        assert res.status == SolveStatus.OPTIMAL
        assert res.rho == pytest.approx(target, abs=1.5e-2)
    assert sweep.monotone


def test_hierarchy_discrete_table():
    mu = Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4)
    nu = Atomic.univariate([-0.7, 0.3, 1.3, 2.3], [0.25] * 4)
    sweep = solve_hierarchy(mu, nu, [4, 5])
    for res in sweep:
        assert res.rho == pytest.approx(2.0, abs=1e-3)


def test_hierarchy_close_atoms_above_exactness():
    # four atoms against four sharing the atom 0.3 (TV 1.5): with the kernel
    # reduction on, every level past exactness keeps a free variable whose
    # blocks still have a constant kernel
    mu = Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4)
    nu = Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4)
    settings = HierarchySettings()
    for res in solve_hierarchy(mu, nu, range(4, 11), settings):
        assert res.status == SolveStatus.OPTIMAL, res.level
        assert abs(res.rho - 1.5) <= settings.accept_tol, res.level


def test_no_optimal_bound_above_total_variation():
    # levels where a gap score of <S, Z> alone passed a dual objective that
    # had run off, and the solve reported Optimal with rho far above the TV
    settings = HierarchySettings()
    cases = (
        ((0.8, 0.05), (1.0, 0.01), 6),
        ((0.0, 0.1), (1.0, 0.5), 11),
        ((0.0, 0.1), (1.0, 0.5), 13),
    )
    for (m1, s1), (m2, s2), n in cases:
        mu, nu = Gaussian(m1, s1), Gaussian(m2, s2)
        tv = exact_tv_univariate_density(mu, nu)
        res = solve_hierarchy(mu, nu, [n], settings)[0]
        if res.status == SolveStatus.OPTIMAL:
            assert res.rho <= tv + settings.accept_tol, (m1, s1, m2, s2, n, res.rho)
            assert res.rho <= 2.0, (m1, s1, m2, s2, n, res.rho)


def test_hierarchy_equal_measures_zero():
    mu = Atomic.univariate([-1.0, 0.5], [0.5, 0.5])
    sweep = solve_hierarchy(mu, mu, [1, 2, 3])
    assert np.all(np.abs(sweep.rhos) <= 1e-6)


def test_monotone_and_lower_bound():
    mu, nu = Gaussian(0, 0.5), Gaussian(1, 0.5)
    tv = gaussian_tv_equal_var(0, 1, 0.5)
    sweep = solve_hierarchy(mu, nu, [1, 2, 3, 4])
    assert sweep.monotone
    assert np.all(sweep.rhos <= tv + 1e-4)


def test_swap_symmetry():
    mu, nu = gaussian_pair(0, 0.2, 1, 0.3, 6)
    r1 = solve_level(mu, nu, 3)
    r2 = solve_level(nu, mu, 3)
    assert r1.rho == pytest.approx(r2.rho, abs=2e-6)


def test_domination_at_decoded_optimum():
    # consequence of the domination LMIs, checked in original coordinates
    mu, nu = gaussian_pair(0, 0.2, 1, 0.2, 6)
    res = solve_level(mu, nu, 3)
    m_mu = moment_matrix(mu, 3).entries
    m_phi = moment_matrix(res.phi, 3).entries
    floor = -10.0 * 1e-4  # ten times the effective solver tolerance
    assert np.linalg.eigvalsh(m_phi)[0] >= floor
    assert np.linalg.eigvalsh(m_mu - m_phi)[0] >= floor


def test_pseudo_moment_bound():
    mu, nu = gaussian_pair(0, 0.4, 1, 0.6, 6)
    res = solve_level(mu, nu, 3)
    cap = max(mu.mass, mu[6]) + 1e-6
    assert np.max(np.abs(res.phi.values)) <= cap


def test_mass_identity():
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 4)
    res = solve_level(mu, nu, 2)
    assert res.rho == pytest.approx(res.phi.mass + res.psi.mass, abs=1e-5)


def test_psi_decode_consistency():
    mu, nu = gaussian_pair(0.3, 0.4, -0.2, 0.7, 4)
    res = solve_level(mu, nu, 2)
    diff = res.phi.values - res.psi.values
    assert np.allclose(diff, mu.values - nu.values, atol=1e-12)


def test_scaling_invariance_of_rho():
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 4)
    on = solve_level(mu, nu, 2, HierarchySettings(scale=True))
    off = solve_level(mu, nu, 2, HierarchySettings(scale=False))
    assert on.rho == pytest.approx(off.rho, abs=1e-6)


def test_variable_map_centering():
    mu, nu = gaussian_pair(3.0, 0.1, 4.0, 0.1, 4)
    vm = variable_map_for(mu, nu, 2)
    assert vm.shift == pytest.approx(3.5)
    assert vm.scale >= 1.0
    back = vm.seq_from_solver(vm.seq_to_solver(mu))
    assert np.allclose(back.values, mu.values, rtol=1e-9, atol=1e-12)


def test_solve_level_errors():
    mu, nu = gaussian_pair(0, 1, 1, 1, 2)
    with pytest.raises(DegreeTooLow):
        solve_level(mu, nu, 3)
    other = moments(Atomic(np.zeros((1, 2)), [1.0]), 2, 4)
    with pytest.raises(DimensionMismatch):
        solve_level(mu, other, 1)


def test_sweep_accepts_specs_and_sequences():
    sweep_specs = solve_hierarchy(Gaussian(0, 0.5), Gaussian(1, 0.5), [1, 2])
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 4)
    sweep_seqs = solve_hierarchy(mu, nu, [1, 2])
    assert np.allclose(sweep_specs.rhos, sweep_seqs.rhos, atol=1e-6)


def test_failed_level_marked(monkeypatch):
    from tvbound import relaxation as relax_mod

    original = relax_mod.conic.solve
    calls = {"count": 0}

    def flaky(program, settings=None):
        calls["count"] += 1
        res = original(program, settings)
        if calls["count"] == 2:
            res = SolveResult(
                status=SolveStatus.MAX_ITER, x=res.x, objective=res.objective,
                dual_objective=res.dual_objective, block_duals=res.block_duals,
                primal_residual=1.0, dual_residual=1.0,
                gap=1.0, iterations=res.iterations,
            )
        return res

    monkeypatch.setattr(relax_mod.conic, "solve", flaky)
    sweep = solve_hierarchy(Gaussian(0, 0.5), Gaussian(1, 0.5), [1, 2, 3])
    assert sweep[0].status == SolveStatus.OPTIMAL
    assert sweep[1].status == SolveStatus.MAX_ITER
    assert np.isnan(sweep[1].rho)
    assert sweep[2].status == SolveStatus.OPTIMAL


def test_solver_failure_carries_result(monkeypatch):
    from tvbound import relaxation as relax_mod

    original = relax_mod.conic.solve

    def always_bad(program, settings=None):
        res = original(program, settings)
        return SolveResult(
            status=SolveStatus.NUMERICAL_FAILURE, x=res.x, objective=res.objective,
            dual_objective=res.dual_objective, block_duals=res.block_duals,
            primal_residual=1.0, dual_residual=1.0,
            gap=1.0, iterations=res.iterations,
        )

    monkeypatch.setattr(relax_mod.conic, "solve", always_bad)
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 2)
    with pytest.raises(SolverFailure) as info:
        solve_level(mu, nu, 1)
    assert info.value.status == SolveStatus.NUMERICAL_FAILURE
    assert info.value.result is not None
    assert np.isnan(info.value.result.rho)


def test_monotone_within_helper():
    class Dummy:
        def __init__(self, rho, status=SolveStatus.OPTIMAL):
            self.rho = rho
            self.status = status

    assert monotone_within([Dummy(1.0), Dummy(1.1)], 1e-8)
    assert not monotone_within([Dummy(1.0), Dummy(0.9)], 1e-8)
    assert monotone_within([Dummy(1.0), Dummy(1.0 - 1e-9)], 1e-8)

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tvbound.conic import SolveStatus, SolveResult
from tvbound.errors import DegreeTooLow, DimensionMismatch
from tvbound.indexing import basis_size
from tvbound.measures import (
    Atomic,
    Exponential,
    Gaussian,
    exact_tv_atomic,
    exact_tv_univariate_density,
    moments,
)
from tvbound.moments import MomentSequence, moment_matrix, power_vectors
from tvbound.relaxation import (
    HierarchySettings,
    VariableMap,
    _face_atoms,
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
    # two atoms each at level 2: both 3x3 data matrices have rank 2, and
    # their kernels pin all five moments of phi, so no variable is left.
    # The reduction only substitutes, so the blocks keep order 3
    mu = moments(Atomic.univariate([0.0, 1.0], [0.5, 0.5]), 1, 4)
    nu = moments(Atomic.univariate([0.5, 2.0], [0.5, 0.5]), 1, 4)
    prob = assemble(mu, nu, 2, kernel_reduce=True)
    assert prob.reduced
    assert prob.program.n_vars == 0
    assert prob.x0.shape == (5,)
    assert prob.null_basis.shape == (5, 0)
    assert [blk.size for blk in prob.program.blocks] == [3, 3, 3]
    assert len(prob.equilibrations) == 3


def test_solver_frame_maps_the_support_pointwise():
    pts = [-1.5, 0.25, 3.0]
    mu = moments(Atomic.univariate(pts, [0.2, 0.5, 0.3]), 1, 12).truncated(8)
    nu = moments(Gaussian(1.0, 2.0), 1, 8)
    var_map = variable_map_for(mu, nu, 4)
    assert var_map.shift != 0.0 and var_map.scale != 1.0
    solver = var_map.seq_to_solver(mu)
    expected = (np.array(pts) - var_map.shift) / var_map.scale
    assert np.allclose(solver.support[:, 0], expected, rtol=1e-15, atol=1e-15)
    assert var_map.seq_to_solver(nu).support is None


def test_bare_sequence_of_atoms_is_not_reduced():
    # the same moments without their points: the face is not guessed from
    # the singular moment matrices
    mu = moments(Atomic.univariate([0.0, 1.0], [0.5, 0.5]), 1, 8)
    nu = moments(Atomic.univariate([0.5, 2.0], [0.5, 0.5]), 1, 8)
    assert assemble(mu, nu, 4, kernel_reduce=True).reduced
    bare_mu, bare_nu = (MomentSequence(1, 8, seq.values) for seq in (mu, nu))
    assert not assemble(bare_mu, bare_nu, 4, kernel_reduce=True).reduced
    assert not solve_level(bare_mu, bare_nu, 4).problem.reduced


def test_face_needs_flat_atoms_in_the_plane():
    # three points are flat at n=2 unless they are collinear, since then
    # the degree-1 monomials cannot tell them apart
    w = [0.3, 0.3, 0.4]
    nu = moments(Atomic([[5.0, 5.0], [6.0, 5.0], [5.0, 7.0], [7.0, 7.0]], [0.25] * 4), 2, 4)
    triangle = moments(Atomic([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], w), 2, 4)
    line = moments(Atomic([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], w), 2, 4)
    assert assemble(triangle, nu, 2, kernel_reduce=True).reduced
    assert not assemble(line, nu, 2, kernel_reduce=True).reduced


def unique_face_atoms(mu, nu, n):
    """The face atoms as ``np.unique(..., axis=0)`` finds them: the reference
    for ``_face_atoms``."""

    def flat(pts, d):
        pts = np.unique(pts, axis=0)
        rank = min(len(pts), n) if d == 1 else np.linalg.matrix_rank(power_vectors(pts, n - 1))
        return pts if rank == len(pts) else None

    pts_mu, pts_nu = (None if seq.support is None else flat(seq.support, seq.dim)
                      for seq in (mu, nu))
    if pts_mu is None or pts_nu is None:
        return pts_nu if pts_mu is None else pts_mu
    pts, counts = np.unique(np.concatenate([pts_mu, pts_nu]), axis=0, return_counts=True)
    return pts[counts == 2]


# few coordinates, so points repeat within a side and across the two; 0.0
# and -0.0 are one point, and each side keeps its first copy of it
FACE_COORDS = st.sampled_from((-1.0, -0.0, 0.0, 1e-300, 0.5, 1.5))
FACE_SIDE = st.none() | st.lists(st.tuples(FACE_COORDS, FACE_COORDS), min_size=1, max_size=7)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(1, 4), FACE_SIDE, FACE_SIDE)
@example(1, 1, None, None)                                    # no support: None
@example(1, 1, [(0.0, 0), (0.5, 0)], [(1.5, 0), (-1.0, 0)])  # neither flat: None
@example(1, 2, [(0.0, 0), (0.5, 0)], None)                   # one side only
@example(1, 2, [(0.0, 0), (0.5, 0)], [(0.0, 0), (-1.0, 0)])  # one shared
@example(1, 2, [(0.0, 0), (0.5, 0)], [(1.5, 0), (-1.0, 0)])  # disjoint: empty
@example(1, 1, [(-0.0, 0)], [(0.0, 0)])                      # mu's copy of 0
@example(2, 2, [(0.0, 0.0), (1.5, 0.0), (0.0, 1.5)], [(1.5, 0.0), (0.0, 1.5), (0.0, 0.0)])
@example(2, 2, [(0.0, 0.0), (0.5, 0.5), (1.5, 1.5)], [(0.0, 0.0)])  # mu collinear
def test_face_atoms_match_unique_formula(d, n, pts_mu, pts_nu):
    mu, nu = (MomentSequence(d, 2 * n, np.zeros(basis_size(d, 2 * n)),
                             None if pts is None else np.array(pts)[:, :d])
              for pts in (pts_mu, pts_nu))
    got, want = _face_atoms(mu, nu, n), unique_face_atoms(mu, nu, n)
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    # bit for bit, so the sign of a zero and the order of the rows count
    assert got.tobytes() == want.tobytes()


def _six_atom_pair():
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 2))
    return Atomic(pts, [1 / 6] * 6), Atomic(pts + 0.3, [1 / 6] * 6)


@pytest.mark.parametrize("mu, nu, n", [
    pytest.param(Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4),
                 Atomic.univariate([-0.7, 0.3, 1.3, 2.3], [0.25] * 4), 4, id="EX1"),
    pytest.param(Gaussian(0.8, 0.05), Gaussian(1.0, 0.1), 3, id="gaussian"),
    pytest.param(*_six_atom_pair(), 3, id="2d-six-atom"),
])
def test_solve_level_program_is_assembled_from_the_mapped_moments(mu, nu, n):
    # solve_level maps both sequences with one basis-change matrix
    mu2n, nu2n = (moments(spec, spec.dim, 2 * n) for spec in (mu, nu))
    res = solve_level(mu2n, nu2n, n)
    var_map = res.var_map
    want = assemble(var_map.seq_to_solver(mu2n), var_map.seq_to_solver(nu2n), n,
                    kernel_reduce=True).program
    got = res.problem.program
    assert np.array_equal(got.c, want.c) and got.offset == want.offset
    assert len(got.blocks) == len(want.blocks) == 3
    for blk, ref in zip(got.blocks, want.blocks):
        assert np.array_equal(blk.f0, ref.f0) and np.array_equal(blk.coeffs, ref.coeffs)


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
    # blocks still have a constant kernel, which the solver runs as it is
    mu = Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4)
    nu = Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4)
    settings = HierarchySettings()
    for res in solve_hierarchy(mu, nu, range(4, 11), settings):
        assert res.status == SolveStatus.OPTIMAL, res.level
        assert abs(res.rho - 1.5) <= settings.accept_tol, res.level


# rho <= mu(1) + nu(1) = 2 at the levels where a gap score of <S, Z> alone
# passed a dual objective that had run off, and the solve reported Optimal
# with rho far above the TV (n=6, 11 and 13), with the rest of n=9..14 of
# (0,.1)/(1,.5); and at n=9..14 of (0,.1)/(1,.1), which ended Optimal up to
# 6.9e-8 above 2 while they were solved on a kernel face guessed from the
# float moment matrices of these densities
AT_MOST_TWO = {((0.8, 0.05), (1.0, 0.01)): (6,), ((0.0, 0.1), (1.0, 0.5)): range(9, 15),
               ((0.0, 0.1), (1.0, 0.1)): range(9, 15)}

# the nine pairs of the published Gaussian table, and Exponential 1 against 2
HIGH_LEVEL_PAIRS = tuple(
    pytest.param(Gaussian(*a), Gaussian(*b), AT_MOST_TWO.get((a, b), ()),
                 id=f"N{a[0]}_{a[1]}-N{b[0]}_{b[1]}")
    for a, b in (
        ((0.0, 0.1), (1.0, 0.1)), ((0.0, 0.2), (1.0, 0.2)), ((0.0, 0.1), (1.0, 0.5)),
        ((0.0, 0.5), (1.0, 0.5)), ((0.5, 0.1), (1.0, 0.1)), ((0.5, 0.1), (1.0, 0.5)),
        ((0.8, 0.1), (1.0, 0.1)), ((0.8, 0.05), (1.0, 0.1)), ((0.8, 0.05), (1.0, 0.01)),
    )
) + (pytest.param(Exponential(1.0), Exponential(2.0), (), id="exp1-exp2"),)


@pytest.mark.parametrize("mu, nu, at_most_two", HIGH_LEVEL_PAIRS)
def test_no_optimal_bound_above_total_variation(mu, nu, at_most_two):
    settings = HierarchySettings()
    tv = exact_tv_univariate_density(mu, nu)
    for n in range(5, 15):
        res = solve_hierarchy(mu, nu, [n], settings)[0]
        # densities have no atoms, so no level is solved on a face
        assert not res.problem.reduced, n
        if res.status == SolveStatus.OPTIMAL:
            assert res.rho <= tv + settings.accept_tol, (n, res.rho, tv)
            if n in at_most_two:
                assert res.rho <= 2.0, (n, res.rho)


def test_exponential_level_9_converges():
    settings = HierarchySettings()
    (res,) = solve_hierarchy(Exponential(1.0), Exponential(2.0), [9], settings)
    assert res.status == SolveStatus.OPTIMAL
    assert res.rho <= 0.5 + settings.accept_tol


def test_close_diracs_level_7_converges():
    # random1-1 of the benchmark's atomic pairs: its start point carries a
    # dual residual near 1e12, and with the one-sided corrector the solve
    # ended MaxIter with both step lengths below 1e-3 from iteration 9
    settings = HierarchySettings()
    mu = Atomic.univariate([-0.23849138113686408], [1.0])
    nu = Atomic.univariate([-0.0004167452494119317], [1.0])
    (res,) = solve_hierarchy(mu, nu, [7], settings)
    assert res.status == SolveStatus.OPTIMAL
    assert abs(res.rho - 2.0) <= settings.accept_tol


def test_four_atom_pair_certified_level_9_converges():
    # random0-4 of the benchmark's atomic pairs, disjoint four-atom measures,
    # solved unreduced as certify solves it.  While a short corrected step
    # fell back to the centered direction, n=9 ended MaxIter after 250
    # iterations
    mu = Atomic.univariate(
        [-0.5688192131637191, -0.05665856467284369, 1.557951337396001, 1.7361740638249987],
        [0.3065419827048681, 0.18392721513370505, 0.31772502283500076, 0.19180577932642615])
    nu = Atomic.univariate(
        [-1.0913696258664811, -0.4335239978873551, 0.49274857874416966, 1.5610974080191693],
        [0.06344888761400334, 0.4110576297264716, 0.38990945572886765, 0.13558402693065744])
    settings = HierarchySettings(certify=True)
    (res,) = solve_hierarchy(mu, nu, [9], settings)
    assert res.status == SolveStatus.OPTIMAL
    assert res.certificate is not None
    assert abs(res.rho - 2.0) <= 2 * settings.accept_tol


def test_two_atom_pair_is_pinned_past_exactness():
    # random3-2 of the benchmark's atomic pairs, disjoint two-atom measures:
    # both are flat from n=2, so phi = mu and psi = nu is the one feasible
    # point.  When the face was read off the float moment matrices, n=6..8
    # ended Infeasible
    mu = Atomic.univariate([-1.9743644693427593, 1.0905968049015544],
                           [0.6160499404852712, 0.3839500595147289])
    nu = Atomic.univariate([-1.2499691370888604, -0.72127345486934],
                           [0.7453595509554045, 0.25464044904459543])
    settings = HierarchySettings()
    for res in solve_hierarchy(mu, nu, range(6, 11), settings):
        assert res.problem.reduced and res.problem.program.n_vars == 0
        assert res.status == SolveStatus.OPTIMAL, res.level
        assert abs(res.rho - 2.0) <= settings.accept_tol, res.level


def test_reduced_blocks_keep_the_full_order():
    # past exactness the kernel face of these pairs keeps a free variable,
    # the weight of their shared atom.
    # assemble substitutes phi = x0 + N z into the three blocks, so every
    # block keeps the order s(n) and the data kernel as a constant kernel,
    # which the interior-point core runs as it is
    cases = (
        (Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4),
         Atomic.univariate([-2.0, -1.0, 0.1, 1.5], [0.25] * 4), (4, 5, 6)),
        (Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4),
         Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4), (4, 5, 6)),
        (Atomic.univariate([-1.0, 1.0], [0.6, 0.4]),
         Atomic.univariate([-1.0, 0.2, 1.3], [0.3, 0.4, 0.3]), (3, 4, 5)),
    )
    settings = HierarchySettings()
    for mu, nu, levels in cases:
        tv = exact_tv_atomic(mu, nu)
        for res in solve_hierarchy(mu, nu, levels, settings):
            assert res.problem.reduced and res.problem.program.n_vars > 0
            sizes = [blk.size for blk in res.problem.program.blocks]
            assert sizes == [basis_size(1, res.level)] * 3, res.level
            assert res.status == SolveStatus.OPTIMAL, res.level
            assert abs(res.rho - tv) <= settings.accept_tol, res.level


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


def test_monotone_flag_judges_levels_in_level_order(monkeypatch):
    from tvbound import relaxation as relax_mod

    mu, nu = Gaussian(0, 0.5), Gaussian(1, 0.5)
    sweep = solve_hierarchy(mu, nu, [3, 1])
    assert [r.level for r in sweep] == [3, 1]
    assert all(r.status == SolveStatus.OPTIMAL for r in sweep)
    assert sweep.rhos[0] > sweep.rhos[1] + 0.1
    assert sweep.monotone

    # a real drop, rho falling as the level rises, reads False in either order
    dropping = {1: 1.0, 3: 0.5}
    monkeypatch.setattr(relax_mod, "solve_level", lambda mu, nu, n, settings: SimpleNamespace(
        level=n, rho=dropping[n], status=SolveStatus.OPTIMAL))
    assert not solve_hierarchy(mu, nu, [1, 3]).monotone
    assert not solve_hierarchy(mu, nu, [3, 1]).monotone


def test_swap_symmetry():
    mu, nu = gaussian_pair(0, 0.2, 1, 0.3, 6)
    r1 = solve_level(mu, nu, 3)
    r2 = solve_level(nu, mu, 3)
    assert r1.rho == pytest.approx(r2.rho, abs=2e-6)


def test_domination_at_decoded_optimum():
    # consequence of the domination LMIs, checked in original coordinates
    mu, nu = gaussian_pair(0, 0.2, 1, 0.2, 6)
    res = solve_level(mu, nu, 3)
    m_mu = moment_matrix(mu, 3)
    m_phi = moment_matrix(res.phi, 3)
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
    on = solve_level(mu, nu, 2)
    off = solve_level(mu, nu, 2, var_map=VariableMap())
    assert on.rho == pytest.approx(off.rho, abs=1e-6)


def test_variable_map_centering():
    mu, nu = gaussian_pair(3.0, 0.1, 4.0, 0.1, 4)
    vm = variable_map_for(mu, nu, 2)
    assert vm.shift == pytest.approx(3.5)
    assert vm.scale >= 1.0
    back = vm.seq_from_solver(vm.seq_to_solver(mu))
    assert np.allclose(back.values, mu.values, rtol=1e-9, atol=1e-12)


def _atom_moments(pts, weights, degree):
    pts = np.asarray(pts, dtype=float).reshape(len(weights), -1)
    return moments(Atomic(pts, weights), pts.shape[1], degree)


# d = 1 with a shift, d = 2 with a scale only
MAP_CASES = (
    pytest.param([-1.2, 0.4, 2.5], [0.2, 0.5, 0.3], VariableMap(0.7, 2.5), id="d1-shift"),
    pytest.param([[0.3, -0.8], [1.5, 0.2], [-0.6, 1.1]], [0.3, 0.3, 0.4],
                 VariableMap(0.0, 3.0), id="d2-scale"),
)


@pytest.mark.parametrize("pts, weights, vm", MAP_CASES)
def test_solver_frame_moments_are_moments_of_mapped_atoms(pts, weights, vm):
    seq = _atom_moments(pts, weights, 8)
    mapped = _atom_moments((np.asarray(pts) - vm.shift) / vm.scale, weights, 8)
    assert np.allclose(vm.seq_to_solver(seq).values, mapped.values, rtol=1e-12, atol=1e-12)
    back = vm.seq_from_solver(mapped)
    assert np.allclose(back.values, seq.values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("pts, weights, vm", MAP_CASES)
def test_basis_change_matches_moment_map(pts, weights, vm):
    seq = _atom_moments(pts, weights, 8)
    mat = vm.basis_change(seq.dim, 8)
    assert np.allclose(mat @ seq.values, vm.seq_to_solver(seq).values, rtol=1e-14, atol=1e-14)


def test_shifted_map_is_univariate():
    seq = _atom_moments([[0.3, -0.8]], [1.0], 4)
    vm = VariableMap(0.5, 2.0)
    with pytest.raises(DimensionMismatch):
        vm.seq_to_solver(seq)
    with pytest.raises(DimensionMismatch):
        vm.basis_change(2, 4)


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
                gap=1.0, iterations=res.iterations, stop_reason="max_iter",
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
            gap=1.0, iterations=res.iterations, stop_reason="numerical",
        )

    monkeypatch.setattr(relax_mod.conic, "solve", always_bad)
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 2)
    # a failed level is a status on the returned result, not an exception
    res = solve_level(mu, nu, 1)
    assert res.status == SolveStatus.NUMERICAL_FAILURE
    assert res.solve.status == SolveStatus.NUMERICAL_FAILURE
    assert np.isnan(res.rho)


def test_monotone_slack_without_accept_tol():
    # accept_tol=None means tol, and the monotonicity slack follows it
    settings = HierarchySettings(accept_tol=None)
    sweep = solve_hierarchy(Gaussian(0, 0.5), Gaussian(1, 0.5), [1, 2], settings)
    assert sweep.monotone



def test_solve_level_passes_its_settings_to_the_solver(monkeypatch):
    # one settings object: conic.solve receives the caller's own
    # HierarchySettings, with the hierarchy's defaults
    from tvbound import relaxation as relax_mod

    received = []
    original = relax_mod.conic.solve

    def spy(program, settings=None):
        received.append(settings)
        return original(program, settings)

    monkeypatch.setattr(relax_mod.conic, "solve", spy)
    settings = HierarchySettings()
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 2)
    solve_level(mu, nu, 1, settings)
    assert len(received) == 1 and received[0] is settings
    assert received[0].accept == 1e-4
    assert received[0].max_iter == 250

def test_monotone_within_helper():
    class Dummy:
        def __init__(self, rho, status=SolveStatus.OPTIMAL):
            self.rho = rho
            self.status = status

    assert monotone_within([Dummy(1.0), Dummy(1.1)], 1e-8)
    assert not monotone_within([Dummy(1.0), Dummy(0.9)], 1e-8)
    assert monotone_within([Dummy(1.0), Dummy(1.0 - 1e-9)], 1e-8)

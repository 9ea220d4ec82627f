from math import comb

import numpy as np
import pytest

from tvbound.errors import DegreeTooLow
from tvbound.indexing import basis_indices, basis_size
from tvbound.measures import Atomic, moments
from tvbound.moments import (
    MomentSequence,
    affine_matrix,
    gram_preimage,
    moment_matrix,
    poly_from_gram,
    power_sums,
    riesz_vector,
    structure_tensor,
)

from oracles import hermgauss_moments

# frozen from the Gauss-Hermite oracle; re-derived in test_normal_moments
STD_NORMAL_DEG4 = (1.0, 0.0, 1.0, 0.0, 3.0)


def test_normal_moments_oracle():
    oracle = hermgauss_moments(0.0, 1.0, 4)
    assert np.allclose(oracle, STD_NORMAL_DEG4, atol=1e-12)


def test_moment_matrix_dirac():
    eps = 0.01
    seq = MomentSequence(1, 2, [1.0, eps, eps * eps])
    mat = moment_matrix(seq, 1)
    assert np.array_equal(mat, [[1.0, eps], [eps, eps * eps]])


def test_moment_matrix_zero():
    seq = MomentSequence(1, 4, np.zeros(5))
    assert np.array_equal(moment_matrix(seq, 2), np.zeros((3, 3)))


def test_moment_matrix_normal():
    seq = MomentSequence(1, 4, STD_NORMAL_DEG4)
    expected = [[1, 0, 1], [0, 1, 0], [1, 0, 3]]
    assert np.array_equal(moment_matrix(seq, 2), expected)


def test_moment_matrix_degree_too_low():
    seq = MomentSequence(1, 2, [1.0, 0.0, 1.0])
    with pytest.raises(DegreeTooLow):
        moment_matrix(seq, 2)


def test_moment_matrix_multivariate_symmetry():
    rng = np.random.default_rng(0)
    seq = MomentSequence(2, 4, rng.standard_normal(basis_size(2, 4)))
    mat = moment_matrix(seq, 2)
    assert np.array_equal(mat, mat.T)
    basis = basis_indices(2, 2)
    for i, a in enumerate(basis.indices):
        for j, b in enumerate(basis.indices):
            assert mat[i, j] == seq[tuple(x + y for x, y in zip(a, b))]


def test_riesz_examples():
    delta2 = MomentSequence(1, 2, [1.0, 2.0, 4.0])
    assert riesz_vector(delta2, [0.0, 0.0, 1.0], 2) == pytest.approx(4.0)
    assert riesz_vector(delta2, [1.0], 0) == pytest.approx(delta2.mass)
    normal = MomentSequence(1, 4, STD_NORMAL_DEG4)
    assert riesz_vector(normal, [-3.0, 0.0, 0.0, 0.0, 1.0], 4) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegreeTooLow):
        riesz_vector(delta2, [0.0, 0.0, 0.0, 1.0], 3)


def test_riesz_equals_quadratic_form():
    # the Riesz functional of p^2 must equal p^T M_n(seq) p up to reordering
    rng = np.random.default_rng(7)
    for d in (1, 2):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            seq = MomentSequence(d, 2 * n, rng.standard_normal(basis_size(d, 2 * n)))
            p = rng.standard_normal(basis_size(d, n))
            basis_n = basis_indices(d, n)
            basis_2n = basis_indices(d, 2 * n)
            square = np.zeros(len(basis_2n))
            for i, a in enumerate(basis_n.indices):
                for j, b in enumerate(basis_n.indices):
                    square[basis_2n.index_of(tuple(x + y for x, y in zip(a, b)))] += p[i] * p[j]
            lhs = riesz_vector(seq, square, 2 * n)
            rhs = float(p @ moment_matrix(seq, n) @ p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_moment_matrix_psd_for_atomic_measures():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(1, 3))
        r = int(rng.integers(1, 6))
        pts = rng.uniform(-2, 2, size=(r, d))
        w = rng.uniform(0.1, 1.0, size=r)
        basis = basis_indices(d, 4)
        vals = [
            float(np.sum(w * np.prod(pts ** np.array(a), axis=1)))
            for a in basis.indices
        ]
        seq = MomentSequence(d, 4, vals)
        eigs = np.linalg.eigvalsh(moment_matrix(seq, 2))
        assert eigs[0] >= -1e-10


def test_truncated_prefix():
    seq = MomentSequence(2, 4, np.arange(basis_size(2, 4), dtype=float))
    cut = seq.truncated(2)
    assert np.array_equal(cut.values, seq.values[: basis_size(2, 2)])
    with pytest.raises(DegreeTooLow):
        seq.truncated(6)


def test_values_immutable():
    seq = MomentSequence(1, 2, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        seq.values[0] = 5.0


def test_poly_from_gram_matches_expansion():
    rng = np.random.default_rng(11)
    gram = rng.standard_normal((3, 3))
    gram = 0.5 * (gram + gram.T)
    coeffs = poly_from_gram(gram, 1, 2)
    xs = np.linspace(-2, 2, 7)
    for x in xs:
        v = np.array([1.0, x, x * x])
        direct = float(v @ gram @ v)
        via_coeffs = float(np.polynomial.polynomial.polyval(x, coeffs))
        assert direct == pytest.approx(via_coeffs, rel=1e-12, abs=1e-12)


def test_riesz_vector_consistency():
    seq = MomentSequence(1, 4, STD_NORMAL_DEG4)
    coeffs = np.array([-3.0, 0.0, 0.0, 0.0, 1.0])
    assert riesz_vector(seq, coeffs, 4) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_moment_matrix_is_the_structure_tensor_sum(d):
    rng = np.random.default_rng(30 + d)
    for n in (1, 2, 3):
        seq = MomentSequence(d, 2 * n, rng.standard_normal(basis_size(d, 2 * n)))
        summed = np.tensordot(seq.values, structure_tensor(d, n), axes=1)
        assert np.array_equal(summed, moment_matrix(seq, n))


@pytest.mark.parametrize("d", [1, 2])
def test_poly_from_gram_is_the_adjoint_of_moment_matrix(d):
    # <M_n(y), G> = y . poly_from_gram(G) for every y and symmetric G
    rng = np.random.default_rng(40 + d)
    for n in (1, 2, 3):
        s = basis_size(d, n)
        for _ in range(5):
            seq = MomentSequence(d, 2 * n, rng.standard_normal(basis_size(d, 2 * n)))
            gram = rng.standard_normal((s, s))
            gram = gram + gram.T
            lhs = float(np.sum(moment_matrix(seq, n) * gram))
            rhs = float(seq.values @ poly_from_gram(gram, d, n))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_gram_preimage_is_the_least_norm_preimage(d):
    rng = np.random.default_rng(50 + d)
    for n in (1, 2, 3):
        s = basis_size(d, n)
        coeffs = rng.standard_normal(basis_size(d, 2 * n))
        pre = gram_preimage(coeffs, d, n)
        assert np.array_equal(pre, pre.T)
        assert np.allclose(poly_from_gram(pre, d, n), coeffs, rtol=1e-14, atol=1e-14)
        # least norm: orthogonal to every G that maps to the zero polynomial
        for _ in range(5):
            g = rng.standard_normal((s, s))
            g = g + g.T
            null = g - gram_preimage(poly_from_gram(g, d, n), d, n)
            assert np.allclose(poly_from_gram(null, d, n), 0.0, atol=1e-13)
            assert float(np.sum(pre * null)) == pytest.approx(0.0, abs=1e-12)


def _power_sums_one_monomial_at_a_time(points, weights, max_degree):
    # reference: w times the coordinate powers in coordinate order, summed
    # over the atoms, one multi-index at a time
    d = points.shape[1]
    powers = [np.vander(points[:, j], max_degree + 1, increasing=True).T for j in range(d)]
    out = []
    for alpha in basis_indices(d, max_degree).indices:
        mono = weights.copy()
        for j, a in enumerate(alpha):
            if a:
                mono = mono * powers[j][a]
        out.append(mono.sum())
    return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_power_sums_are_the_moments_of_atoms(d):
    rng = np.random.default_rng(60 + d)
    for _ in range(40):
        # more than 8 atoms sum pairwise, fewer in sequence
        r = int(rng.integers(1, 40))
        degree = int(rng.integers(0, 9))
        pts = rng.uniform(-2, 2, size=(r, d))
        w = rng.uniform(0.1, 1.0, size=r)
        sums = power_sums(pts, w, degree)
        assert np.array_equal(sums, _power_sums_one_monomial_at_a_time(pts, w, degree))
        assert np.array_equal(sums, moments(Atomic(pts, w), d, degree).values)
        direct = [np.sum(w * np.prod(pts ** np.array(a), axis=1))
                  for a in basis_indices(d, degree).indices]
        assert np.allclose(sums, direct, rtol=1e-12, atol=1e-12)


def test_power_sums_of_no_atoms_are_zero():
    assert np.array_equal(power_sums(np.zeros((0, 2)), np.zeros(0), 3),
                          np.zeros(basis_size(2, 3)))


# a = 1 and b = 0 (identity), a < 1 and a > 1, each with b = 0 and b != 0
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.4, 0.0), (2.5, 0.0), (0.4, -0.3),
                                  (2.5, 0.7), (1 / 3.7, -1.2 / 3.7), (3.7, 1.2)])
def test_affine_matrix_is_the_scalar_double_loop(a, b):
    # bit for bit: the same factors, multiplied in the same order
    for degree in range(29):
        loop = np.zeros((degree + 1, degree + 1))
        for k in range(degree + 1):
            for j in range(k + 1):
                loop[k, j] = comb(k, j) * a**j * b ** (k - j)
        assert np.array_equal(affine_matrix(a, b, 1, degree), loop), degree

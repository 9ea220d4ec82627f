import numpy as np
import pytest

from tvbound.errors import DegreeTooLow
from tvbound.indexing import basis_indices, basis_size
from tvbound.moments import (
    MomentSequence,
    moment_matrix,
    poly_from_gram,
    riesz,
    riesz_vector,
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
    assert np.array_equal(mat.entries, [[1.0, eps], [eps, eps * eps]])


def test_moment_matrix_zero():
    seq = MomentSequence(1, 4, np.zeros(5))
    assert np.array_equal(moment_matrix(seq, 2).entries, np.zeros((3, 3)))


def test_moment_matrix_normal():
    seq = MomentSequence(1, 4, STD_NORMAL_DEG4)
    expected = [[1, 0, 1], [0, 1, 0], [1, 0, 3]]
    assert np.array_equal(moment_matrix(seq, 2).entries, expected)


def test_moment_matrix_degree_too_low():
    seq = MomentSequence(1, 2, [1.0, 0.0, 1.0])
    with pytest.raises(DegreeTooLow):
        moment_matrix(seq, 2)


def test_moment_matrix_multivariate_symmetry():
    rng = np.random.default_rng(0)
    seq = MomentSequence(2, 4, rng.standard_normal(basis_size(2, 4)))
    mat = moment_matrix(seq, 2).entries
    assert np.array_equal(mat, mat.T)
    basis = basis_indices(2, 2)
    for i, a in enumerate(basis.indices):
        for j, b in enumerate(basis.indices):
            assert mat[i, j] == seq[tuple(x + y for x, y in zip(a, b))]


def test_riesz_examples():
    delta2 = MomentSequence(1, 2, [1.0, 2.0, 4.0])
    assert riesz(delta2, {2: 1.0}) == pytest.approx(4.0)
    assert riesz(delta2, {0: 1.0}) == pytest.approx(delta2.mass)
    normal = MomentSequence(1, 4, STD_NORMAL_DEG4)
    assert riesz(normal, {4: 1.0, 0: -3.0}) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegreeTooLow):
        riesz(delta2, {3: 1.0})


def test_riesz_equals_quadratic_form():
    # riesz(seq, p^2) must equal p^T M_n(seq) p exactly up to reordering
    rng = np.random.default_rng(7)
    for d in (1, 2):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            seq = MomentSequence(d, 2 * n, rng.standard_normal(basis_size(d, 2 * n)))
            p = rng.standard_normal(basis_size(d, n))
            basis_n = basis_indices(d, n)
            square = {}
            for i, a in enumerate(basis_n.indices):
                for j, b in enumerate(basis_n.indices):
                    key = tuple(x + y for x, y in zip(a, b))
                    square[key] = square.get(key, 0.0) + p[i] * p[j]
            lhs = riesz(seq, square)
            rhs = float(p @ moment_matrix(seq, n).entries @ p)
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
        eigs = np.linalg.eigvalsh(moment_matrix(seq, 2).entries)
        assert eigs[0] >= -1e-10


def test_truncated_prefix():
    seq = MomentSequence(2, 4, np.arange(basis_size(2, 4), dtype=float))
    cut = seq.truncated(2)
    assert np.array_equal(cut.values, seq.values[: basis_size(2, 2)])
    with pytest.raises(DegreeTooLow):
        seq.truncated(6)


def test_from_mapping_roundtrip():
    mapping = {(0,): 1.0, (1,): 0.5, (2,): 2.0}
    seq = MomentSequence.from_mapping(1, 2, mapping)
    assert seq[1] == 0.5
    with pytest.raises(ValueError):
        MomentSequence.from_mapping(1, 2, {(0,): 1.0})


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

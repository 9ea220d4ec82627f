import pytest
from hypothesis import given, strategies as st

from tvbound.indexing import basis_indices, basis_size, normalize_index


def test_univariate_basis():
    basis = basis_indices(1, 2)
    assert basis.indices == ((0,), (1,), (2,))
    assert len(basis) == 3


def test_basis_sizes():
    assert len(basis_indices(2, 2)) == 6
    assert len(basis_indices(3, 4)) == 35
    assert basis_size(2, 2) == 6
    assert basis_size(3, 4) == 35


def test_graded_lex_order():
    basis = basis_indices(2, 2)
    assert basis.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    degrees = [sum(a) for a in basis.indices]
    assert degrees == sorted(degrees)


def test_degree_prefix_property():
    # the degree-n basis is an exact prefix of any higher-degree basis,
    # so positions are stable across truncation levels
    small = basis_indices(3, 2)
    large = basis_indices(3, 5)
    assert large.indices[: len(small)] == small.indices


def test_deterministic_and_cached():
    assert basis_indices(2, 3) is basis_indices(2, 3)
    assert basis_indices(2, 3).indices == basis_indices(2, 3).indices


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
def test_index_roundtrip_bijection(d, n):
    basis = basis_indices(d, n)
    for i, alpha in enumerate(basis.indices):
        assert basis.index_of(alpha) == i
    assert len(set(basis.indices)) == basis_size(d, n)


def test_validation():
    with pytest.raises(ValueError):
        basis_indices(0, 2)
    with pytest.raises(ValueError):
        basis_indices(1, -1)
    with pytest.raises(ValueError):
        normalize_index((1, 2), 3)
    with pytest.raises(ValueError):
        normalize_index((-1,), 1)
    with pytest.raises(ValueError):
        normalize_index(3, 2)
    assert normalize_index(3, 1) == (3,)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvbound.errors import DimensionMismatch, EmptySample
from tvbound.measures import (
    Atomic,
    Empirical,
    Exponential,
    Gaussian,
    Mixture,
    exact_tv_atomic,
    exact_tv_univariate_density,
    moments,
    sample,
)

from oracles import atomic_tv, gaussian_tv_equal_var, hermgauss_moments


def test_gaussian_moments_against_quadrature():
    for mean, std in ((0.0, 1.0), (1.0, 0.1), (-0.5, 0.7), (2.0, 0.05)):
        got = moments(Gaussian(mean, std), 1, 8).values
        oracle = hermgauss_moments(mean, std, 8)
        assert np.allclose(got, oracle, rtol=1e-10, atol=1e-12)


def test_gaussian_standard_normal_degree4():
    assert np.allclose(
        moments(Gaussian(0, 1), 1, 4).values, (1.0, 0.0, 1.0, 0.0, 3.0)
    )


def test_gaussian_degree_one():
    seq = moments(Gaussian(0.37, 0.2), 1, 1)
    assert np.allclose(seq.values, (1.0, 0.37))


def test_symmetric_two_atom_moments():
    spec = Atomic.univariate([-1.0, 1.0], [0.5, 0.5])
    assert np.allclose(moments(spec, 1, 4).values, (1.0, 0.0, 1.0, 0.0, 1.0))


def test_exponential_moments():
    rate = 2.5
    seq = moments(Exponential(rate), 1, 5)
    expected = [math.factorial(k) / rate**k for k in range(6)]
    assert np.allclose(seq.values, expected, rtol=1e-12)


def test_mixture_moments_convex_combination():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.uniform(0.2, 0.8)
        g1 = Gaussian(float(rng.normal()), float(rng.uniform(0.1, 1.0)))
        g2 = Exponential(float(rng.uniform(0.5, 3.0)))
        mix = Mixture(((w, g1), (1.0 - w, g2)))
        lhs = moments(mix, 1, 6).values
        rhs = w * moments(g1, 1, 6).values + (1 - w) * moments(g2, 1, 6).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        Mixture(((0.5, Gaussian(0, 1)), (0.4, Gaussian(1, 1))))
    with pytest.raises(DimensionMismatch):
        Mixture(((0.5, Gaussian(0, 1)), (0.5, Atomic(np.zeros((1, 2)), [1.0]))))


def test_multivariate_gaussian_rejected():
    with pytest.raises(DimensionMismatch):
        moments(Gaussian(0, 1), 2, 2)


def test_atomic_multivariate_moments():
    spec = Atomic(np.array([[1.0, 2.0], [0.0, -1.0]]), [0.5, 0.5])
    seq = moments(spec, 2, 2)
    assert seq[(1, 1)] == pytest.approx(0.5 * (1 * 2) + 0.5 * (0 * -1))


def test_empirical_moments_examples():
    assert np.allclose(moments(Empirical(np.zeros((5, 1))), 1, 2).values, (1, 0, 0))
    assert np.allclose(
        moments(Empirical(np.array([[-1.0], [1.0]])), 1, 2).values, (1, 0, 1)
    )
    with pytest.raises(EmptySample):
        Empirical(np.zeros((0, 1)))


def test_empirical_slln_second_moment():
    rng = np.random.default_rng(314159)
    draws = rng.standard_normal((1_000_000, 1))
    seq = moments(Empirical(draws), 1, 2)
    assert seq.mass == 1.0
    assert abs(seq[2] - 1.0) < 5e-3


def test_sampling_shapes():
    rng = np.random.default_rng(0)
    mix = Mixture(((0.3, Gaussian(0, 1)), (0.7, Exponential(1.0))))
    assert sample(mix, 50, rng).shape == (50, 1)
    atoms = Atomic.univariate([0.0, 1.0], [0.5, 0.5])
    assert set(sample(atoms, 20, rng)[:, 0]) <= {0.0, 1.0}


def test_exact_tv_atomic_paper_example():
    mu = Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4)
    nu = Atomic.univariate([-2.0, -1.0, 0.1, 1.5], [0.25] * 4)
    expected = atomic_tv([-1, 0, 1, 2], [0.25] * 4, [-2, -1, 0.1, 1.5], [0.25] * 4)
    assert expected == pytest.approx(1.5)
    assert exact_tv_atomic(mu, nu) == pytest.approx(1.5)


def test_exact_tv_atomic_identical_and_disjoint():
    mu = Atomic.univariate([0.0, 1.0], [0.5, 0.5])
    assert exact_tv_atomic(mu, mu) == pytest.approx(0.0)
    nu = Atomic.univariate([2.0, 3.0], [0.5, 0.5])
    assert exact_tv_atomic(mu, nu) == pytest.approx(2.0)


def test_exact_tv_atomic_merges_close_atoms():
    mu = Atomic.univariate([0.0, 1e-12], [0.5, 0.5])
    nu = Atomic.univariate([0.0], [1.0])
    assert exact_tv_atomic(mu, nu) == pytest.approx(0.0, abs=1e-12)


def test_exact_tv_atomic_matches_each_atom_once():
    # nu's atom lies within the merge tolerance of both of mu's, which lie
    # outside it of each other: it cancels one of them, never both
    mu = Atomic.univariate([0.0, 1.5e-9], [0.5, 0.5])
    nu = Atomic.univariate([0.8e-9], [0.5])
    assert exact_tv_atomic(mu, nu) == 0.5
    assert exact_tv_atomic(nu, mu) == 0.5


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
)
def test_exact_tv_atomic_symmetry_and_bounds(p1, w1, p2, w2):
    mu = Atomic.univariate(p1, w1[: len(p1)])
    nu = Atomic.univariate(p2, w2[: len(p2)])
    tv = exact_tv_atomic(mu, nu)
    assert tv == pytest.approx(exact_tv_atomic(nu, mu), rel=1e-12, abs=1e-12)
    assert -1e-12 <= tv <= mu.mass + nu.mass + 1e-12


def test_density_tv_identical_is_zero():
    assert exact_tv_univariate_density(Gaussian(0, 1), Gaussian(0, 1)) == pytest.approx(
        0.0, abs=1e-8
    )


def test_density_tv_closed_form_values():
    # 2 (2 Phi(5) - 1) and 2 (2 Phi(1) - 1), from the equal-variance formula
    tv1 = exact_tv_univariate_density(Gaussian(0, 0.1), Gaussian(1, 0.1))
    assert tv1 == pytest.approx(gaussian_tv_equal_var(0, 1, 0.1), abs=1e-6)
    assert tv1 == pytest.approx(1.9999988533937, abs=1e-6)
    tv2 = exact_tv_univariate_density(Gaussian(0, 0.5), Gaussian(1, 0.5))
    assert tv2 == pytest.approx(gaussian_tv_equal_var(0, 1, 0.5), abs=1e-6)
    assert tv2 == pytest.approx(1.3653789842742, abs=1e-6)


def test_density_tv_matches_closed_form_randomly():
    rng = np.random.default_rng(99)
    for _ in range(20):
        m1, m2 = rng.uniform(-2, 2, 2)
        sigma = float(rng.uniform(0.05, 1.5))
        got = exact_tv_univariate_density(Gaussian(m1, sigma), Gaussian(m2, sigma))
        assert got == pytest.approx(gaussian_tv_equal_var(m1, m2, sigma), abs=1e-5)


def test_density_tv_mixture_and_exponential():
    mix = Mixture(((0.5, Gaussian(-1, 0.3)), (0.5, Gaussian(1, 0.3))))
    tv = exact_tv_univariate_density(mix, Gaussian(0, 0.3))
    assert 0.0 < tv < 2.0
    tv_exp = exact_tv_univariate_density(Exponential(1.0), Exponential(2.0))
    # closed form: densities cross at x* = ln(2), TV = 2 |e^{-x*} - e^{-2 x*}|
    x_star = math.log(2.0)
    expected = 2.0 * abs(math.exp(-x_star) - math.exp(-2 * x_star))
    assert tv_exp == pytest.approx(expected, abs=1e-6)


def test_density_tv_rejects_atomic():
    with pytest.raises(ValueError):
        exact_tv_univariate_density(
            Atomic.univariate([0.0], [1.0]), Gaussian(0, 1)
        )


def test_atomic_spec_validation():
    with pytest.raises(ValueError):
        Atomic.univariate([0.0], [0.0])
    with pytest.raises(ValueError):
        Atomic.univariate([0.0, 1.0], [1.0])

import math
import time

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

from oracles import (
    atomic_tv,
    exponential_pdf,
    first_match_tv,
    gaussian_tv,
    gaussian_tv_equal_var,
    hermgauss_moments,
    normal_pdf,
    quad_tv,
)


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


# offsets below, at, across and past the 1e-9 merge tolerance, so that atoms
# chain, cancel, and match one of two neighbours
MERGE_OFFSETS = (0.0, 1e-12, 0.4e-9, 0.8e-9, 1.5e-9)


@st.composite
def clustered_atoms(draw, dim):
    centers = st.sampled_from((0.0, 0.5, -2.0))
    offsets = st.sampled_from(MERGE_OFFSETS + tuple(-o for o in MERGE_OFFSETS))
    atom = st.tuples(*[st.tuples(centers, offsets)] * dim)
    atoms = draw(st.lists(atom, min_size=1, max_size=8))
    points = np.array([[c + o for c, o in a] for a in atoms])
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms),
                            max_size=len(atoms)))
    return Atomic(points, weights)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from((1, 2)))
def test_exact_tv_atomic_matches_first_match_scan(data, dim):
    mu = data.draw(clustered_atoms(dim))
    nu = data.draw(clustered_atoms(dim))
    for a, b in ((mu, nu), (nu, mu)):
        assert exact_tv_atomic(a, b) == first_match_tv(
            a.points, a.weights, b.points, b.weights)


def test_exact_tv_atomic_twenty_thousand_atoms():
    # unit weights at the points (k, k mod 7), k = 0..19999 shuffled: nu's
    # atoms with even k sit 0.5e-9 from mu's and cancel, its odd ones sit 0.5
    # away, so the TV is 10000 + 10000 with exact float sums
    rng = np.random.default_rng(0)
    k = rng.permutation(20000).astype(float)
    mu = Atomic(np.column_stack([k, k % 7]), np.ones(20000))
    shift = np.where(k % 2 == 0, 0.5e-9, 0.5)
    nu = Atomic(np.column_stack([k + shift, k % 7]), np.ones(20000))
    start = time.perf_counter()
    tv = exact_tv_atomic(mu, nu)
    assert time.perf_counter() - start < 5.0
    assert tv == 20000.0


def test_density_tv_identical_is_zero():
    assert exact_tv_univariate_density(Gaussian(0, 1), Gaussian(0, 1)) == pytest.approx(
        0.0, abs=1e-8
    )


def test_density_tv_closed_form_values():
    # 2 (2 Phi(5) - 1) and 2 (2 Phi(1) - 1), from the equal-variance formula
    tv1 = exact_tv_univariate_density(Gaussian(0, 0.1), Gaussian(1, 0.1))
    assert tv1 == pytest.approx(gaussian_tv_equal_var(0, 1, 0.1), abs=1e-12)
    assert tv1 == pytest.approx(1.9999988533937, abs=1e-12)
    tv2 = exact_tv_univariate_density(Gaussian(0, 0.5), Gaussian(1, 0.5))
    assert tv2 == pytest.approx(gaussian_tv_equal_var(0, 1, 0.5), abs=1e-12)
    assert tv2 == pytest.approx(1.3653789842742, abs=1e-12)


def test_density_tv_matches_closed_form_randomly():
    rng = np.random.default_rng(99)
    for _ in range(20):
        m1, m2 = rng.uniform(-2, 2, 2)
        sigma = float(rng.uniform(0.05, 1.5))
        got = exact_tv_univariate_density(Gaussian(m1, sigma), Gaussian(m2, sigma))
        assert got == pytest.approx(gaussian_tv_equal_var(m1, m2, sigma), abs=1e-12)


def test_density_tv_mixture_and_exponential():
    mix = Mixture(((0.5, Gaussian(-1, 0.3)), (0.5, Gaussian(1, 0.3))))
    tv = exact_tv_univariate_density(mix, Gaussian(0, 0.3))
    assert 0.0 < tv < 2.0
    tv_exp = exact_tv_univariate_density(Exponential(1.0), Exponential(2.0))
    # closed form: densities cross at x* = ln(2), TV = 2 |e^{-x*} - e^{-2 x*}|
    x_star = math.log(2.0)
    expected = 2.0 * abs(math.exp(-x_star) - math.exp(-2 * x_star))
    assert tv_exp == pytest.approx(expected, abs=1e-12)


# the nine published Gaussian pairs of acceptance criterion 1; five have
# equal variances (one crossing), four unequal ones (two crossings)
PUBLISHED_GAUSSIAN_PAIRS = [
    ((0.0, 0.1), (1.0, 0.1)),
    ((0.0, 0.2), (1.0, 0.2)),
    ((0.0, 0.1), (1.0, 0.5)),
    ((0.0, 0.5), (1.0, 0.5)),
    ((0.5, 0.1), (1.0, 0.1)),
    ((0.5, 0.1), (1.0, 0.5)),
    ((0.8, 0.1), (1.0, 0.1)),
    ((0.8, 0.05), (1.0, 0.1)),
    ((0.8, 0.05), (1.0, 0.01)),
]


@pytest.mark.parametrize("first,second", PUBLISHED_GAUSSIAN_PAIRS)
def test_density_tv_published_gaussian_pairs_closed_form(first, second):
    got = exact_tv_univariate_density(Gaussian(*first), Gaussian(*second))
    assert got == pytest.approx(gaussian_tv(*first, *second), abs=1e-12)


def _mixture_pdf(*parts):
    return lambda x: sum(w * pdf(x) for w, pdf in parts)


# the five density pairs of the criterion-5 property matrix, each with its
# two densities written out for the quadrature reference
PROPERTY_DENSITY_PAIRS = {
    "bimodal-vs-normal": (
        Mixture(((0.5, Gaussian(-1.0, 0.3)), (0.5, Gaussian(1.0, 0.3)))), Gaussian(0.0, 0.8),
        _mixture_pdf((0.5, normal_pdf(-1.0, 0.3)), (0.5, normal_pdf(1.0, 0.3))),
        normal_pdf(0.0, 0.8)),
    "two-component-vs-normal": (
        Mixture(((0.3, Gaussian(0.0, 0.2)), (0.7, Gaussian(1.0, 0.4)))), Gaussian(0.5, 0.5),
        _mixture_pdf((0.3, normal_pdf(0.0, 0.2)), (0.7, normal_pdf(1.0, 0.4))),
        normal_pdf(0.5, 0.5)),
    "exp-mixture-vs-normal": (
        Mixture(((0.6, Exponential(1.0)), (0.4, Gaussian(2.0, 0.5)))), Gaussian(1.0, 1.0),
        _mixture_pdf((0.6, exponential_pdf(1.0)), (0.4, normal_pdf(2.0, 0.5))),
        normal_pdf(1.0, 1.0)),
    "exponential-1-vs-2": (
        Exponential(1.0), Exponential(2.0), exponential_pdf(1.0), exponential_pdf(2.0)),
    "exponential-vs-normal": (
        Exponential(1.5), Gaussian(1.0, 0.6), exponential_pdf(1.5), normal_pdf(1.0, 0.6)),
}


@pytest.mark.parametrize("name", sorted(PROPERTY_DENSITY_PAIRS))
def test_density_tv_property_matrix_pairs_against_quadrature(name):
    mu, nu, pdf_mu, pdf_nu = PROPERTY_DENSITY_PAIRS[name]
    # the densities are below 1e-20 outside [-15, 60]; 0 is the exponential's jump
    reference = quad_tv(pdf_mu, pdf_nu, -15.0, 60.0, points=(0.0,))
    assert exact_tv_univariate_density(mu, nu) == pytest.approx(reference, abs=1e-9)


def test_density_tv_rejects_atomic():
    with pytest.raises(ValueError):
        exact_tv_univariate_density(
            Atomic.univariate([0.0], [1.0]), Gaussian(0, 1)
        )


@pytest.mark.parametrize("build", [
    lambda: Gaussian(math.nan, 1.0),
    lambda: Gaussian(0.0, math.inf),
    lambda: Gaussian(0.0, math.nan),
    lambda: Exponential(math.nan),
    lambda: Exponential(math.inf),
    lambda: Atomic.univariate([0.0, 1.0], [0.5, math.nan]),
    lambda: Atomic.univariate([0.0, math.inf], [0.5, 0.5]),
    lambda: Atomic(np.array([[0.0, math.nan]]), [1.0]),
    lambda: Mixture(((math.nan, Gaussian(0, 1)), (1.0, Gaussian(1, 1)))),
    lambda: Mixture(((math.inf, Gaussian(0, 1)), (1.0, Gaussian(1, 1)))),
    lambda: Empirical(np.array([[0.0], [math.nan]])),
    lambda: Empirical(np.array([[0.0], [-math.inf]])),
], ids=["gaussian-nan-mean", "gaussian-inf-stddev", "gaussian-nan-stddev",
        "exponential-nan-rate", "exponential-inf-rate", "atomic-nan-weight",
        "atomic-inf-point", "atomic-2d-nan-point", "mixture-nan-weight",
        "mixture-inf-weight", "empirical-nan-sample", "empirical-inf-sample"])
def test_non_finite_parameters_are_refused(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_atomic_spec_validation():
    with pytest.raises(ValueError):
        Atomic.univariate([0.0], [0.0])
    with pytest.raises(ValueError):
        Atomic.univariate([0.0, 1.0], [1.0])

import numpy as np
import pytest

import tvbound.extraction as extraction
from tvbound.errors import DegreeTooLow, IllConditioned, NotFlat, UnsupportedDimension
from tvbound.extraction import extract_atoms, flatness, recover_hahn_jordan
from tvbound.measures import Atomic, Gaussian, exact_tv_atomic, moments
from tvbound.moments import MomentSequence, moment_matrix, power_sums
from tvbound.relaxation import solve_hierarchy, variable_map_for


def test_flatness_single_atom():
    seq = moments(Atomic.univariate([0.5], [1.0]), 1, 4)
    report = flatness(seq, 2)
    assert report.ranks == (1, 1, 1)
    assert report.flat and report.flat_rank == 1


def test_flatness_two_atoms():
    seq = moments(Atomic.univariate([-1.0, 1.0], [0.5, 0.5]), 1, 4)
    report = flatness(seq, 2)
    assert report.flat and report.flat_rank == 2


def test_flatness_gaussian_not_flat():
    # the Hankel determinant of (1, 0, 1, 0, 3) is nonzero: full rank 3
    seq = moments(Gaussian(0, 1), 1, 4)
    mat = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 3]], dtype=float)
    assert abs(np.linalg.det(mat)) > 1e-12
    report = flatness(seq, 2)
    assert report.ranks == (1, 2, 3)
    assert not report.flat


def test_flatness_ranks_nondecreasing():
    rng = np.random.default_rng(12)
    for _ in range(10):
        r = int(rng.integers(1, 5))
        pts = rng.uniform(-2, 2, r)
        w = rng.uniform(0.1, 1.0, r)
        seq = moments(Atomic.univariate(pts, w), 1, 8)
        report = flatness(seq, 4, rank_tol=1e-10)
        assert list(report.ranks) == sorted(report.ranks)
        assert report.flat and report.flat_rank == r


def _ranks_one_svd_per_order(seq, n, rank_tol):
    ranks = []
    for k in range(n + 1):
        svals = np.linalg.svd(moment_matrix(seq, k), compute_uv=False)
        ranks.append(int(np.sum(svals > rank_tol * svals[0])) if svals[0] > 0 else 0)
    return tuple(ranks)


def _perturbed(seq, k, delta):
    vals = seq.values.copy()
    vals[k] += delta
    return MomentSequence(1, seq.max_degree, vals)


THREE_ATOMS = moments(Atomic.univariate([-1.0, 0.2, 1.3], [0.3, 0.4, 0.3]), 1, 8)


@pytest.mark.parametrize("seq, n, ranks", [
    pytest.param(THREE_ATOMS, 4, (1, 2, 3, 3, 3), id="flat"),
    pytest.param(moments(Gaussian(0.5, 1.0), 1, 8), 4, (1, 2, 3, 4, 5), id="not-flat"),
    # a fourth moment direction enters only at the top order
    pytest.param(_perturbed(THREE_ATOMS, 8, 0.5), 4, (1, 2, 3, 3, 4), id="rank-deficient"),
    # (1, 0, 0, 0, 1): M_1 has rank 1 and M_2 rank 2 of 3
    pytest.param(MomentSequence(1, 4, [1.0, 0.0, 0.0, 0.0, 1.0]), 2, (1, 1, 2),
                 id="rank-deficient-zero-middle"),
    pytest.param(MomentSequence(1, 6, np.zeros(7)), 3, (0, 0, 0, 0), id="all-zero"),
])
def test_flatness_ranks_match_one_svd_per_order(seq, n, ranks):
    for rank_tol in (1e-6, 1e-10):
        report = flatness(seq, n, rank_tol)
        assert report.ranks == _ranks_one_svd_per_order(seq, n, rank_tol)
    assert flatness(seq, n).ranks == ranks
    assert flatness(seq, n).flat == (ranks[-1] == ranks[-2])


def test_flatness_validation():
    seq = moments(Gaussian(0, 1), 1, 4)
    with pytest.raises(DegreeTooLow):
        flatness(seq, 3)
    with pytest.raises(ValueError):
        flatness(seq, 0)
    # a cut of NaN, inf or >= 1 reported the Gaussian flat at rank 0, and
    # extract_atoms returned the empty measure for it; a NaN recon_tol
    # disabled the reconstruction check
    for bad in (0.0, -1.0, 1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            flatness(seq, 2, rank_tol=bad)
        with pytest.raises(ValueError):
            extract_atoms(seq, 2, rank_tol=bad)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            extract_atoms(seq, 2, recon_tol=bad)
    multi = MomentSequence(2, 2, np.zeros(6))
    with pytest.raises(UnsupportedDimension):
        flatness(multi, 1)


def test_extract_single_atom():
    seq = moments(Atomic.univariate([0.5], [1.0]), 1, 4)
    m = extract_atoms(seq, 2)
    assert np.allclose(m.points1d, [0.5], atol=1e-10)
    assert np.allclose(m.weights, [1.0], atol=1e-10)


def test_extract_symmetric_pair():
    seq = moments(Atomic.univariate([-1.0, 1.0], [0.5, 0.5]), 1, 4)
    m = extract_atoms(seq, 2)
    assert np.allclose(m.points1d, [-1.0, 1.0], atol=1e-9)
    assert np.allclose(m.weights, [0.5, 0.5], atol=1e-9)


def test_extract_not_flat_raises():
    seq = moments(Gaussian(0, 1), 1, 4)
    with pytest.raises(NotFlat):
        extract_atoms(seq, 2)


def test_roundtrip_random_atomic_measures():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        r = int(rng.integers(1, 6))
        while True:
            pts = np.sort(rng.uniform(-2, 2, r))
            if r == 1 or float(np.min(np.diff(pts))) >= 0.05:
                break
        w = rng.uniform(0.05, 1.0, r)
        seq = moments(Atomic.univariate(pts, w), 1, 2 * r)
        m = extract_atoms(seq, r, rank_tol=1e-10)
        assert np.max(np.abs(m.points1d - pts)) <= 1e-7
        assert np.max(np.abs(m.weights - w)) <= 1e-7


def test_rank_invariance_under_rescaling():
    seq = moments(Atomic.univariate([-1.0, 0.2, 1.4], [0.3, 0.3, 0.4]), 1, 6)
    vm = variable_map_for(seq, seq, 3)
    scaled = vm.seq_to_solver(seq)
    assert (
        flatness(seq, 3, rank_tol=1e-10).ranks
        == flatness(scaled, 3, rank_tol=1e-10).ranks
    )


def test_hahn_jordan_dirac_pair():
    mu = Atomic.univariate([0.0], [1.0])
    nu = Atomic.univariate([0.1], [1.0])
    res = solve_hierarchy(mu, nu, [1])[0]
    plus, minus = recover_hahn_jordan(res)
    assert abs(plus.points1d[0] - 0.0) <= 1e-6
    assert abs(plus.weights[0] - 1.0) <= 1e-6
    assert abs(minus.points1d[0] - 0.1) <= 1e-6
    assert abs(minus.weights[0] - 1.0) <= 1e-6


def test_hahn_jordan_common_atom_example():
    # X = {0, .3, .4, .9}, Y = {.3, .6, .7, 1.2}: the common atom cancels and
    # the extracted supports sit inside X and Y
    mu = Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4)
    nu = Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4)
    res = solve_hierarchy(mu, nu, [4])[0]
    assert res.rho == pytest.approx(1.5, abs=1e-3)
    plus, minus = recover_hahn_jordan(res)
    for atom in plus.points1d:
        assert min(abs(atom - x) for x in [0.0, 0.3, 0.4, 0.9]) <= 1e-3
    for atom in minus.points1d:
        assert min(abs(atom - y) for y in [0.3, 0.6, 0.7, 1.2]) <= 1e-3
    assert plus.mass + minus.mass == pytest.approx(1.5, abs=1e-5)


def test_extracted_pair_is_atomic():
    # the pair has the input type, so moments and the exact oracle apply
    mu = Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4)
    nu = Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4)
    res = solve_hierarchy(mu, nu, [4])[0]
    plus, minus = recover_hahn_jordan(res)
    for measure in (plus, minus):
        assert np.array_equal(moments(measure, 1, 8).values,
                              power_sums(measure.points, measure.weights, 8))
    assert exact_tv_atomic(plus, minus) == pytest.approx(res.rho, abs=1e-6)


def test_hahn_jordan_shared_point_tv_example():
    # X and Y share -1 with equal weight; TV = 1.5 and the pair must
    # reproduce it
    mu = Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4)
    nu = Atomic.univariate([-2.0, -1.0, 0.1, 1.5], [0.25] * 4)
    assert exact_tv_atomic(mu, nu) == pytest.approx(1.5)
    res = solve_hierarchy(mu, nu, [4])[0]
    plus, minus = recover_hahn_jordan(res)
    assert plus.mass + minus.mass == pytest.approx(1.5, abs=1e-5)


def test_domination_of_extracted_weights():
    # each extracted weight at a shared support point stays below the input
    mu = Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4)
    nu = Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4)
    res = solve_hierarchy(mu, nu, [4])[0]
    plus, minus = recover_hahn_jordan(res)
    for atom, weight in zip(plus.points1d, plus.weights):
        input_w = sum(
            w for x, w in zip(mu.points[:, 0], mu.weights) if abs(x - atom) < 1e-3
        )
        assert weight <= input_w + 1e-5
    for atom, weight in zip(minus.points1d, minus.weights):
        input_w = sum(
            w for y, w in zip(nu.points[:, 0], nu.weights) if abs(y - atom) < 1e-3
        )
        assert weight <= input_w + 1e-5


def test_gaussian_solve_not_flat_instance():
    # density inputs have no atomic Hahn-Jordan pair; NotFlat is the expected
    # signal.  (At finite levels the optimizer may still land on a flat face
    # whose pseudo-moments admit an atomic representative, so this is checked
    # on an instance whose optimum genuinely is not flat.)
    res = solve_hierarchy(Gaussian(0.0, 0.5), Gaussian(1.0, 0.5), [2])[0]
    assert not flatness(res.phi_solver, 2).flat
    with pytest.raises(NotFlat):
        recover_hahn_jordan(res)


def test_multivariate_rejected():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(3, 2))
    mu = moments(Atomic(pts, [0.3, 0.3, 0.4]), 2, 4)
    with pytest.raises(UnsupportedDimension):
        flatness(mu, 2)


def test_ill_conditioned_reconstruction_guard():
    # moments of a measure that is not atomic at the claimed rank
    vals = moments(Gaussian(0, 1), 1, 4).values.copy()
    seq = MomentSequence(1, 4, vals)
    # force "flat" by a huge rank tolerance: rank collapses to 1 but the
    # 1-atom reconstruction cannot reproduce gaussian moments
    with pytest.raises((IllConditioned, NotFlat)):
        extract_atoms(seq, 2, rank_tol=0.9, recon_tol=1e-8)


# the fixed atomic pairs of the benchmark, with their exactness levels
SPY_PAIRS = [
    ("EX1", [-1.0, 0.0, 1.0, 2.0], [0.25] * 4, [-0.7, 0.3, 1.3, 2.3], [0.25] * 4, 4),
    ("EX2", [-1.0, 0.0, 1.0, 2.0], [0.25] * 4, [-2.0, -1.0, 0.1, 1.5], [0.25] * 4, 4),
    ("EX3", [0.0, 0.3, 0.4, 0.9], [0.25] * 4, [0.3, 0.6, 0.7, 1.2], [0.25] * 4, 4),
    ("two-vs-three", [-1.0, 1.0], [0.6, 0.4], [-1.0, 0.2, 1.3], [0.3, 0.4, 0.3], 3),
]


@pytest.mark.parametrize("name, p1, w1, p2, w2, exact", SPY_PAIRS, ids=[p[0] for p in SPY_PAIRS])
def test_extraction_makes_one_svd_and_few_lstsq(monkeypatch, name, p1, w1, p2, w2, exact):
    # per extract_atoms: one SVD for the rank profile, and at most three
    # least-squares solves (the shift operator and two polish steps)
    counts = {"svd": 0, "lstsq": 0}
    per_call = []

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    original = extraction.extract_atoms

    def spy(*args, **kwargs):
        counts.update(svd=0, lstsq=0)
        out = original(*args, **kwargs)
        per_call.append(dict(counts))
        return out

    mu, nu = Atomic.univariate(p1, w1), Atomic.univariate(p2, w2)
    results = solve_hierarchy(mu, nu, range(exact, exact + 3))
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, "svd"))
    monkeypatch.setattr(np.linalg, "lstsq", counting(np.linalg.lstsq, "lstsq"))
    monkeypatch.setattr(extraction, "extract_atoms", spy)
    for res in results:
        recover_hahn_jordan(res)
    assert len(per_call) == 6
    assert all(c["svd"] == 1 for c in per_call), per_call
    assert all(c["lstsq"] <= 3 for c in per_call), per_call

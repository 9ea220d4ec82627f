import dataclasses
import math

import numpy as np
import pytest

from tvbound.certificates import (
    DualCertificate,
    gaussian_hellinger,
    gaussian_kl,
    hellinger_bounds,
    nishiyama_bound,
    pinsker_upper,
    recover_certificate,
    verify_certificate,
)
from tvbound.conic import ConicProgram, PsdBlock, SolveStatus, SolverSettings, solve
from tvbound.errors import CertificateMismatch
from tvbound.measures import Atomic, Gaussian, exact_tv_univariate_density, moments
from tvbound.moments import poly_from_gram, structure_tensor
from tvbound.relaxation import (
    HierarchySettings,
    VariableMap,
    solve_hierarchy,
    solve_level,
)

from oracles import gaussian_tv_equal_var

CERTIFY = HierarchySettings(certify=True)


def gaussian_pair(m1, s1, m2, s2, degree):
    return (
        moments(Gaussian(m1, s1), 1, degree),
        moments(Gaussian(m2, s2), 1, degree),
    )


def test_equal_measures_certificate():
    mu = moments(Gaussian(0, 1), 1, 2)
    res = solve_level(mu, mu, 1, CERTIFY)
    value = verify_certificate(res.certificate, mu, mu)
    assert value == pytest.approx(0.0, abs=1e-6)


def test_dirac_certificate_value():
    mu = moments(Atomic.univariate([0.0], [1.0]), 1, 2)
    nu = moments(Atomic.univariate([0.1], [1.0]), 1, 2)
    res = solve_level(mu, nu, 1, HierarchySettings(certify=True, accept_tol=1e-3))
    value = verify_certificate(res.certificate, mu, nu)
    assert value == pytest.approx(2.0, abs=1e-4)


def test_gaussian_row_certificate():
    mu, nu = gaussian_pair(0, 0.1, 1, 0.1, 2)
    res = solve_level(mu, nu, 1, CERTIFY)
    value = verify_certificate(res.certificate, mu, nu)
    assert value == pytest.approx(1.9231, abs=1e-3)
    # density case: no duality gap
    assert abs(value - res.rho) <= 1e-4


def test_weak_duality_holds():
    for m2, s2, n in ((1.0, 0.5, 2), (0.5, 0.2, 3), (0.2, 1.0, 1)):
        mu, nu = gaussian_pair(0, 0.4, m2, s2, 2 * n)
        res = solve_level(mu, nu, n, CERTIFY)
        value = verify_certificate(res.certificate, mu, nu)
        assert value <= res.rho + 1e-6


def test_certificate_polynomial_near_feasibility():
    # 1 - p = sigma0 - sigma1 forces p - 1 - sigma1 = -sigma0 <= 0 pointwise
    mu, nu = gaussian_pair(0, 0.3, 1, 0.4, 6)
    res = solve_level(mu, nu, 3, CERTIFY)
    cert = res.certificate
    _, sigma1, _, psi1 = cert.polynomials()
    window = np.linspace(-2.0, 3.0, 1001)
    powers = np.vander(window, len(cert.p), increasing=True)
    p_vals = powers @ cert.p
    sigma1_vals = powers @ sigma1
    psi1_vals = powers @ psi1
    assert np.max(p_vals - 1.0 - sigma1_vals) <= 1e-6
    assert np.max(-p_vals - 1.0 - psi1_vals) <= 1e-6


def test_certificate_mismatch_on_injected_negative_eigenvalue():
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 2)
    res = solve_level(mu, nu, 1, CERTIFY)
    cert = res.certificate
    bad_gram = cert.gram_sigma0 - 1e-3 * np.eye(cert.gram_sigma0.shape[0])
    bad = dataclasses.replace(cert, gram_sigma0=bad_gram)
    with pytest.raises(CertificateMismatch, match="sigma0"):
        verify_certificate(bad, mu, nu)


def test_certificate_mismatch_on_broken_identity():
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 2)
    res = solve_level(mu, nu, 1, CERTIFY)
    cert = res.certificate
    p_bad = cert.p.copy()
    p_bad[1] += 1e-3
    bad = dataclasses.replace(cert, p=p_bad)
    with pytest.raises(CertificateMismatch):
        verify_certificate(bad, mu, nu)


def test_failed_certificate_check_is_recorded_not_raised():
    # at n=5 the recovered certificate violates its identity by about 2.4e-4,
    # above IDENTITY_TOL; the sweep keeps level 4 and records level 5
    mu = Atomic.univariate([0.0], [1.0])
    nu = Atomic.univariate([0.1], [1.0])
    sweep = solve_hierarchy(mu, nu, [4, 5], HierarchySettings(certify=True))
    ok, failed = sweep
    assert ok.status == SolveStatus.OPTIMAL
    value = verify_certificate(ok.certificate, moments(mu, 1, 8), moments(nu, 1, 8))
    assert value <= ok.rho + 1e-6
    assert failed.status == SolveStatus.NUMERICAL_FAILURE
    assert math.isnan(failed.rho) and failed.certificate is None
    # the conic solve itself ended Optimal
    assert failed.solve.status == SolveStatus.OPTIMAL


def test_two_against_three_atoms_certified_at_level_2():
    mu = Atomic.univariate([-1.0, 1.0], [0.6, 0.4])
    nu = Atomic.univariate([-1.0, 0.2, 1.3], [0.3, 0.4, 0.3])
    (res,) = solve_hierarchy(mu, nu, [2], CERTIFY)
    assert res.status == SolveStatus.OPTIMAL
    value = verify_certificate(res.certificate, moments(mu, 1, 4), moments(nu, 1, 4))
    assert value <= res.rho + 1e-6


def test_trivial_certificate_is_valid_but_loose():
    # p = 0 with sigma0 = psi0 = 1 and sigma1 = psi1 = 0 certifies the
    # trivial bound 0
    mu, nu = gaussian_pair(0, 0.5, 1, 0.5, 2)
    gram_one = np.zeros((2, 2))
    gram_one[0, 0] = 1.0
    cert = DualCertificate(
        level=1, dim=1, p=np.zeros(3),
        gram_sigma0=gram_one, gram_sigma1=np.zeros((2, 2)),
        gram_psi0=gram_one, gram_psi1=np.zeros((2, 2)),
    )
    assert verify_certificate(cert, mu, nu) == pytest.approx(0.0)


def test_p_reconstruction_matches_equality_multipliers():
    # solve the n=1 program with its four blocks (psi eliminated by hand as
    # psi = phi - (mu - nu)); the stationarity reconstruction
    # p = psi0 - psi1 - 1 applied to its block duals must reproduce the
    # multiplier of the equalities phi - psi = mu - nu, which is the textbook
    # definition of p.  That multiplier is read from the phi side of the
    # stationarity of the program with both phi and psi: c_phi - sum F*(Z)
    # over the two phi blocks
    mu, nu = gaussian_pair(0.0, 0.1, 1.0, 0.1, 2)
    res = solve_level(mu, nu, 1, HierarchySettings(certify=True), var_map=VariableMap())

    tensor = structure_tensor(1, 1)  # (3, 2, 2)
    m_mu = np.array([[mu[0], mu[1]], [mu[1], mu[2]]])
    m_nu = np.array([[nu[0], nu[1]], [nu[1], nu[2]]])
    blocks = (
        PsdBlock(np.zeros((2, 2)), tensor),         # M(phi)
        PsdBlock(m_mu, -tensor),                    # M(mu) - M(phi)
        PsdBlock(m_nu - m_mu, tensor),              # M(psi)
        PsdBlock(m_mu, -tensor),                    # M(nu) - M(psi)
    )
    c_phi = np.array([1.0, 0.0, 0.0])
    # phi(1) + psi(1) = 2 phi(1) - (mu(1) - nu(1))
    explicit = ConicProgram(c=2.0 * c_phi, blocks=blocks, offset=nu[0] - mu[0])
    out = solve(explicit, SolverSettings(tol=1e-9, accept_tol=1e-7))
    assert out.objective == pytest.approx(res.rho, abs=1e-5)

    psi0 = poly_from_gram(out.block_duals[2], 1, 1)
    psi1 = poly_from_gram(out.block_duals[3], 1, 1)
    p_from_grams = psi0 - psi1
    p_from_grams[0] -= 1.0
    multiplier = c_phi - sum(
        np.tensordot(blk.coeffs, z, axes=2) for blk, z in zip(blocks[:2], out.block_duals[:2])
    )
    assert np.allclose(p_from_grams, multiplier, atol=1e-6)

    # the dual face is not unique, so the eliminated solve may land on a
    # different certificate; both must certify the same value
    assert verify_certificate(res.certificate, mu, nu) == pytest.approx(
        out.objective, abs=1e-4
    )


def test_nishiyama_values():
    assert nishiyama_bound(0, 0.1, 1, 0.1) == pytest.approx(1.9231, abs=5e-5)
    assert nishiyama_bound(0.3, 0.2, 0.3, 0.7) == 0.0
    assert nishiyama_bound(0, 0.5, 1, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nishiyama_bound(0, 0.0, 1, 0.1)


def test_pinsker_and_hellinger():
    assert pinsker_upper(0.0) == 0.0
    assert hellinger_bounds(0.0) == (0.0, 0.0)
    assert gaussian_hellinger(Gaussian(0, 1), Gaussian(0, 1)) == pytest.approx(0.0)
    kl = gaussian_kl(Gaussian(0, 0.1), Gaussian(1, 0.1))
    assert kl == pytest.approx(50.0)
    tv = exact_tv_univariate_density(Gaussian(0, 0.1), Gaussian(1, 0.1))
    assert pinsker_upper(kl) >= tv


def test_bound_sandwich_on_densities():
    pairs = [
        (Gaussian(0, 0.5), Gaussian(1, 0.5)),
        (Gaussian(0, 0.3), Gaussian(0.4, 0.6)),
        (Gaussian(-1, 1.0), Gaussian(1, 0.7)),
    ]
    for mu, nu in pairs:
        tv = exact_tv_univariate_density(mu, nu)
        h = gaussian_hellinger(mu, nu)
        lower, _ = hellinger_bounds(h)
        upper = min(2.0, pinsker_upper(gaussian_kl(mu, nu)))
        assert lower <= tv <= upper + 1e-6


def test_kl_closed_form_against_quadrature():
    from scipy.integrate import quad

    mu, nu = Gaussian(0.2, 0.5), Gaussian(-0.3, 0.8)

    def integrand(x):
        lf = -0.5 * ((x - mu.mean) / mu.stddev) ** 2 - math.log(
            mu.stddev * math.sqrt(2 * math.pi)
        )
        lg = -0.5 * ((x - nu.mean) / nu.stddev) ** 2 - math.log(
            nu.stddev * math.sqrt(2 * math.pi)
        )
        return math.exp(lf) * (lf - lg)

    val, _ = quad(integrand, -8, 8, limit=200)
    assert gaussian_kl(mu, nu) == pytest.approx(val, abs=1e-9)


def test_recover_requires_uncompressed_blocks():
    mu = moments(Atomic.univariate([0.0], [1.0]), 1, 2)
    nu = moments(Atomic.univariate([0.1], [1.0]), 1, 2)
    res = solve_level(mu, nu, 1)  # kernel reduction active by default
    with pytest.raises(ValueError, match="certify"):
        recover_certificate(res)


def test_tv_equal_var_oracle_matches_rho_limit():
    # the level-4 bound sits below the quadrature TV but already close
    tv = gaussian_tv_equal_var(0, 1, 0.2)
    res = solve_level(*gaussian_pair(0, 0.2, 1, 0.2, 8), 4)
    assert res.rho <= tv + 1e-6
    assert tv - res.rho < 0.05

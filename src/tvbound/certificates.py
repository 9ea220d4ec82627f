"""Dual SOS certificates for the relaxation bounds, and analytic comparison
bounds (Nishiyama, Pinsker, Hellinger).

A level-n bound rho_n admits a dual certificate (p, sigma0, sigma1, psi0,
psi1) with p a degree-2n polynomial and the sigma/psi sums of squares with
Gram matrices of size s(n), satisfying the coefficient identities

    1 - p = sigma0 - sigma1        1 + p = psi0 - psi1.

Its value  integral p d(mu - nu) - integral sigma1 dmu - integral psi1 dnu
is a lower bound on rho_n (weak duality) and hence on the TV distance; with
strictly feasible data (densities) it matches rho_n exactly.

The solver sees three blocks, not four (the domination blocks M(mu) - M(phi)
and M(nu) - M(psi) are one matrix after eliminating psi), so its three
multipliers become sigma0, sigma1 and psi0, and psi1 = 0.  That loses
nothing: moving a Gram matrix S from sigma1 to psi1 lowers p by S and the
value by  integral S d(mu - nu) - integral S dmu + integral S dnu = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateMismatch, DegreeTooLow
from .indexing import basis_size
from .measures import Gaussian
from .moments import MomentSequence, gram_preimage, poly_from_gram, riesz_vector
from .relaxation import HierarchyResult
from .conic import SolveStatus

IDENTITY_TOL = 1e-6
GRAM_EIG_FLOOR = -1e-8


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Feasible point of the dual program in the original coordinates.

    ``p`` holds coefficients over the degree-2n basis; the four Gram
    matrices have size s(n) and represent sigma0, sigma1, psi0, psi1.
    """

    level: int
    dim: int
    p: np.ndarray
    gram_sigma0: np.ndarray
    gram_sigma1: np.ndarray
    gram_psi0: np.ndarray
    gram_psi1: np.ndarray

    def __post_init__(self):
        s = basis_size(self.dim, self.level)
        for name in ("gram_sigma0", "gram_sigma1", "gram_psi0", "gram_psi1"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.shape != (s, s):
                raise ValueError(f"{name} must be {s}x{s}")
            g = 0.5 * (g + g.T)
            g.setflags(write=False)
            object.__setattr__(self, name, g)
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if p.shape[0] != basis_size(self.dim, 2 * self.level):
            raise ValueError("p must live on the degree-2n basis")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def polynomials(self):
        """Coefficient vectors of sigma0, sigma1, psi0, psi1 over the
        degree-2n basis."""
        d, n = self.dim, self.level
        return (
            poly_from_gram(self.gram_sigma0, d, n),
            poly_from_gram(self.gram_sigma1, d, n),
            poly_from_gram(self.gram_psi0, d, n),
            poly_from_gram(self.gram_psi1, d, n),
        )


def _identity_residuals(cert: DualCertificate) -> tuple[float, float]:
    """Largest coefficient violations of 1 - p = sigma0 - sigma1 and of
    1 + p = psi0 - psi1."""
    sigma0, sigma1, psi0, psi1 = cert.polynomials()
    one = np.zeros_like(cert.p)
    one[0] = 1.0
    return (float(np.max(np.abs((one - cert.p) - (sigma0 - sigma1)))),
            float(np.max(np.abs((one + cert.p) - (psi0 - psi1)))))


def _check_certificate(cert: DualCertificate):
    res1, res2 = _identity_residuals(cert)
    if res1 > IDENTITY_TOL:
        raise CertificateMismatch(
            f"identity 1 - p = sigma0 - sigma1 violated by {res1:.3e}"
        )
    if res2 > IDENTITY_TOL:
        raise CertificateMismatch(
            f"identity 1 + p = psi0 - psi1 violated by {res2:.3e}"
        )
    for name, gram in (
        ("sigma0", cert.gram_sigma0),
        ("sigma1", cert.gram_sigma1),
        ("psi0", cert.gram_psi0),
        ("psi1", cert.gram_psi1),
    ):
        eig = float(np.linalg.eigvalsh(gram)[0])
        if eig < GRAM_EIG_FLOOR:
            raise CertificateMismatch(
                f"Gram matrix of {name} has eigenvalue {eig:.3e}"
            )


def recover_certificate(result: HierarchyResult) -> DualCertificate:
    """Map the solver's block multipliers to a dual SOS certificate.

    The three block multipliers become the Gram matrices of sigma0, sigma1
    and psi0 (after undoing the solver-side equilibration and change of
    variable), psi1 = 0 (up to the identity multiple that the PSD polish
    adds to psi0 and psi1 alike), and p is reconstructed from the
    stationarity of the eliminated program as  p = psi0 - psi1 - 1.
    Setting psi1 = 0 is exact: the shared multiplier of the one domination
    block may be split between sigma1 and psi1 in any way without changing
    the certified value (see the module docstring).

    Requires an Optimal solve without the kernel-face reduction (use
    ``HierarchySettings(certify=True)``): on the face the variable is z in
    phi = x0 + N z, so the multipliers are stationary in z only, not in
    every moment of phi.
    """
    if result.status != SolveStatus.OPTIMAL:
        raise ValueError("certificate recovery needs an Optimal solve")
    if result.problem.reduced:
        raise ValueError(
            "certificate recovery needs the unreduced program; "
            "re-solve with HierarchySettings(certify=True)"
        )
    duals = result.solve.block_duals
    if len(duals) != 3:
        raise ValueError(f"expected 3 block multipliers, got {len(duals)}")
    d, n = result.problem.dim, result.level

    # undo the per-block diagonal equilibration, then the affine change of
    # variables: v_n(y) = B v_n(x) turns a Gram G in y into B^T G B in x
    basis_mat = result.var_map.basis_change(d, n)
    grams = []
    for z, eq in zip(duals, result.problem.equilibrations):
        g = np.asarray(z) * np.outer(eq, eq)
        grams.append(basis_mat.T @ g @ basis_mat)
    g_sigma0, g_sigma1, g_psi0 = grams
    g_psi1 = np.zeros_like(g_psi0)

    # polish: absorb the solver's stationarity residual into sigma0 (which
    # never enters the dual value), then restore exact PSD-ness by paired
    # diagonal shifts that cancel inside the identities and can only lower
    # the certified value
    two = np.zeros(basis_size(d, 2 * n))
    two[0] = 2.0
    residual = two - (
        poly_from_gram(g_sigma0, d, n) - poly_from_gram(g_sigma1, d, n)
        + poly_from_gram(g_psi0, d, n) - poly_from_gram(g_psi1, d, n)
    )
    g_sigma0 = g_sigma0 + gram_preimage(residual, d, n)
    eye = np.eye(g_sigma0.shape[0])
    for pair in ((0, 1), (2, 3)):
        mats = [g_sigma0, g_sigma1, g_psi0, g_psi1]
        eigs = [np.linalg.eigvalsh(mats[k]) for k in pair]
        low = min(float(w[0]) for w in eigs)
        top = max(float(np.max(np.abs(w))) for w in eigs)
        # margin above the eigensolver's own noise at this matrix scale
        margin = 1e-13 * (1.0 + top)
        if low < margin:
            shift = (margin - low) * eye
            if pair == (0, 1):
                g_sigma0 = g_sigma0 + shift
                g_sigma1 = g_sigma1 + shift
            else:
                g_psi0 = g_psi0 + shift
                g_psi1 = g_psi1 + shift

    psi0 = poly_from_gram(g_psi0, d, n)
    psi1 = poly_from_gram(g_psi1, d, n)
    p = psi0 - psi1
    p[0] -= 1.0

    cert = DualCertificate(
        level=n, dim=d, p=p,
        gram_sigma0=g_sigma0, gram_sigma1=g_sigma1,
        gram_psi0=g_psi0, gram_psi1=g_psi1,
    )
    _check_certificate(cert)
    return cert


def verify_certificate(cert: DualCertificate, mu: MomentSequence, nu: MomentSequence) -> float:
    """Independently recompute and validate a certificate's value.

    Checks the coefficient identities and the PSD-ness of all four Gram
    matrices, then evaluates the dual value from the certificate and the
    moments alone.  The returned number is a valid lower bound on rho_n (and
    on the TV distance) up to the stated tolerances.
    """
    if mu.max_degree < 2 * cert.level or nu.max_degree < 2 * cert.level:
        raise DegreeTooLow(
            f"certificate of level {cert.level} needs moments to degree "
            f"{2 * cert.level}"
        )
    _check_certificate(cert)
    _, sigma1, _, psi1 = cert.polynomials()
    # integral p d(mu - nu) - integral sigma1 dmu - integral psi1 dnu
    deg = 2 * cert.level
    return float(
        riesz_vector(mu, cert.p, deg)
        - riesz_vector(nu, cert.p, deg)
        - riesz_vector(mu, sigma1, deg)
        - riesz_vector(nu, psi1, deg)
    )


def nishiyama_bound(m1: float, s1: float, m2: float, s2: float) -> float:
    """Closed-form TV lower bound from means and standard deviations,
    2 (m1-m2)^2 / ((s1+s2)^2 + (m1-m2)^2), on the [0, 2] scale."""
    if s1 <= 0 or s2 <= 0:
        raise ValueError("standard deviations must be positive")
    dm2 = (m1 - m2) ** 2
    return 2.0 * dm2 / ((s1 + s2) ** 2 + dm2)


def pinsker_upper(kl: float) -> float:
    """Pinsker upper bound sqrt(kl/2), doubled onto the [0, 2] scale."""
    if kl < 0:
        raise ValueError("KL divergence must be nonnegative")
    return 2.0 * math.sqrt(kl / 2.0)


def hellinger_bounds(h: float) -> tuple[float, float]:
    """(lower, upper) TV bounds h^2 <= TV <= sqrt(2) h, doubled onto the
    [0, 2] scale."""
    if h < 0:
        raise ValueError("Hellinger distance must be nonnegative")
    return 2.0 * h * h, 2.0 * math.sqrt(2.0) * h


def gaussian_kl(mu: Gaussian, nu: Gaussian) -> float:
    """KL divergence KL(mu || nu) between univariate Gaussians."""
    r = mu.stddev / nu.stddev
    return (
        math.log(nu.stddev / mu.stddev)
        + 0.5 * (r * r + ((mu.mean - nu.mean) / nu.stddev) ** 2 - 1.0)
    )


def gaussian_hellinger(mu: Gaussian, nu: Gaussian) -> float:
    """Hellinger distance between univariate Gaussians."""
    s2 = mu.stddev**2 + nu.stddev**2
    bc = math.sqrt(2.0 * mu.stddev * nu.stddev / s2) * math.exp(
        -((mu.mean - nu.mean) ** 2) / (4.0 * s2)
    )
    return math.sqrt(max(0.0, 1.0 - bc))

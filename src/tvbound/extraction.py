"""Flatness detection and atom extraction from univariate moment sequences.

A truncated pseudo-moment sequence whose order-n moment matrix has the same
rank r as its order-(n-1) submatrix ("flat") is the moment sequence of an
atomic measure with r atoms.  Atoms are recovered from the shift operator of
a rank-r factorization of the Hankel matrix (better conditioned than rooting
the kernel polynomial when atoms nearly coincide), weights from the
Vandermonde system against the leading moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conic import SolveStatus
from .errors import DegreeTooLow, IllConditioned, NotFlat, UnsupportedDimension
from .measures import Atomic
from .moments import MomentSequence, moment_matrix, power_sums
from .relaxation import HierarchyResult

DEFAULT_RANK_TOL = 1e-6
# largest relative moment error of an extracted Hahn-Jordan pair
_MATCH_TOL = 1e-5


@dataclass(frozen=True)
class FlatnessReport:
    """Numerical ranks of M_0 .. M_n and the flatness verdict."""

    ranks: tuple
    flat: bool
    flat_rank: int
    rank_tol: float


def flatness(seq: MomentSequence, n: int, rank_tol: float = DEFAULT_RANK_TOL) -> FlatnessReport:
    """Rank profile of the moment matrices M_0 .. M_n of a univariate
    sequence; flat iff rank stabilizes at the top level.  The ranks come
    from one batched SVD of M_0 .. M_n zero-padded to the order of M_n,
    which adds only zero singular values (a zero M_k has rank 0)."""
    if seq.dim != 1:
        raise UnsupportedDimension("flatness analysis is univariate")
    if n < 1:
        raise ValueError("flatness needs n >= 1")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    if seq.max_degree < 2 * n:
        raise DegreeTooLow(
            f"flatness at order {n} needs degree {2 * n}, sequence has "
            f"{seq.max_degree}"
        )
    lead = np.tri(n + 1, dtype=bool)  # lead[k, i]: row i is in M_k
    svals = np.linalg.svd(moment_matrix(seq, n) * (lead[:, :, None] & lead[:, None, :]),
                          compute_uv=False)
    ranks = tuple(int(r) for r in (svals > rank_tol * svals[:, :1]).sum(axis=1))
    flat = ranks[n] == ranks[n - 1]
    return FlatnessReport(ranks=ranks, flat=flat, flat_rank=ranks[n], rank_tol=rank_tol)


def extract_atoms(
    seq: MomentSequence,
    n: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    recon_tol: float = 1e-6,
) -> Atomic:
    """Extract the atomic measure behind a flat univariate sequence.

    The ranks come from one batched SVD (``flatness``).  Atom locations are
    the eigenvalues of the shift operator built from the rank-r
    eigendecomposition of M_n; weights solve the r x r Vandermonde system
    against moments 0..r-1, and a Gauss-Newton polish refines both until a
    step fails to halve the moment error.
    Every weight must be positive and the reconstruction must reproduce the
    input moments to ``recon_tol`` (relative), otherwise IllConditioned is
    raised.  A flat rank of zero yields the empty measure.
    """
    report = flatness(seq, n, rank_tol)
    if not report.flat:
        raise NotFlat(f"ranks {report.ranks} do not stabilize at order {n}")
    r = report.flat_rank
    if r == 0:
        return Atomic(np.zeros((0, 1)), np.zeros(0))

    eigvals, eigvecs = np.linalg.eigh(moment_matrix(seq, n))
    lead = eigvals[-r:]
    if np.any(lead <= 0):
        raise IllConditioned(
            f"rank-{r} factorization impossible: leading eigenvalues {lead}"
        )
    factor = eigvecs[:, -r:] * np.sqrt(lead)  # (n+1, r), H ~ factor factor^T

    shifted_down = factor[:-1, :]
    shifted_up = factor[1:, :]
    shift_op, *_ = np.linalg.lstsq(shifted_down, shifted_up, rcond=None)
    roots = np.linalg.eigvals(shift_op)
    if np.max(np.abs(roots.imag)) > 1e-8 * (1.0 + np.max(np.abs(roots.real))):
        raise IllConditioned(f"complex shift-operator spectrum {roots}")
    points = np.sort(roots.real)

    vander = np.vander(points, r, increasing=True).T  # (r, r)
    try:
        weights = np.linalg.solve(vander, seq.values[:r])
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"singular Vandermonde system: {exc}") from exc

    points, weights = _newton_polish(points, weights, seq.values)
    if np.min(weights) <= 0:
        raise IllConditioned(f"extracted weight {np.min(weights):.3e} is not positive")

    recon = power_sums(points[:, None], weights, 2 * n)
    scale = max(1.0, float(np.max(np.abs(seq.values))))
    err = float(np.max(np.abs(recon - seq.values))) / scale
    if err > recon_tol:
        raise IllConditioned(
            f"reconstructed moments deviate by {err:.3e} (tol {recon_tol:.1e})"
        )
    order = np.argsort(points)
    return Atomic(points[order].reshape(-1, 1), weights[order])


def _newton_polish(points, weights, target, steps: int = 6):
    """Gauss-Newton refinement of (points, weights) against all target
    moments; the shift-operator initialization is accurate enough for
    quadratic convergence.  It evaluates at most ``steps`` iterates, stops at
    the first whose error is below 1e-15 or not half the one before, and
    returns the best; no step is solved that is not evaluated."""
    r = len(points)
    deg = len(target) - 1
    scale = max(1.0, float(np.max(np.abs(target))))
    best = (points, weights)
    best_err = np.inf
    for step in range(steps):
        vander = np.vander(points, deg + 1, increasing=True)  # (r, deg+1)
        resid = vander.T @ weights - target
        err = float(np.max(np.abs(resid))) / scale
        halved = err <= 0.5 * best_err
        if err < best_err:
            best, best_err = (points.copy(), weights.copy()), err
        if not halved or err < 1e-15 or step == steps - 1:
            break
        jac = np.empty((deg + 1, 2 * r))
        jac[:, :r] = vander.T
        dv = np.zeros((deg + 1, r))
        dv[1:, :] = (np.arange(1, deg + 1)[:, None]) * vander.T[:-1, :]
        jac[:, r:] = dv * weights
        try:
            delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        except np.linalg.LinAlgError:
            break
        weights = weights + delta[:r]
        points = points + delta[r:]
    return best


def recover_hahn_jordan(result: HierarchyResult) -> tuple[Atomic, Atomic]:
    """Extract the (phi, psi) atomic pair from a solved level when both
    pseudo-moment matrices are flat, as two ``Atomic`` measures.

    Extraction runs in the solver's rescaled coordinates (numerically
    flatter) and atom locations are mapped back.  The difference of the
    reconstructed measures must match mu - nu on all moments to degree 2n
    within ``_MATCH_TOL``; ranks are cut at ``DEFAULT_RANK_TOL``.  NotFlat
    is the expected outcome for inputs with densities and does not
    invalidate the bound rho_n.
    """
    if result.phi.dim != 1:
        raise UnsupportedDimension("atom extraction is univariate")
    if result.status != SolveStatus.OPTIMAL:
        raise ValueError("extraction needs an Optimal solve")
    n = result.level
    plus_s = extract_atoms(result.phi_solver, n, recon_tol=_MATCH_TOL)
    minus_s = extract_atoms(result.psi_solver, n, recon_tol=_MATCH_TOL)
    plus = Atomic(result.var_map.points_from_solver(plus_s.points), plus_s.weights)
    minus = Atomic(result.var_map.points_from_solver(minus_s.points), minus_s.weights)

    diff = result.mu_moments.values - result.nu_moments.values
    recon = (power_sums(plus.points, plus.weights, 2 * n)
             - power_sums(minus.points, minus.weights, 2 * n))
    scale = max(1.0, float(np.max(np.abs(diff))))
    err = float(np.max(np.abs(recon - diff))) / scale
    if err > _MATCH_TOL:
        raise IllConditioned(
            f"extracted pair misses mu - nu moments by {err:.3e}"
        )
    return plus, minus

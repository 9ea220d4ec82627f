"""Dense primal-dual interior-point solver for small SDPs.

Problem form:

    minimize    c @ x  (+ offset)
    subject to  F_k0 + sum_i x_i F_ki  >= 0  (PSD)   for each block k

Everything is dense: the target problems have a handful of blocks of size
<= ~15 and tens of variables, where an iteration costs calls, not flops.  So
``solve`` pads every block to the largest order s, with an identity corner
that no variable touches, and stacks the k blocks once: F_k0 as one
(k, s, s) array and F_ki as one (m, k, s, s) array.  The padding is exact,
since [[B(x), 0], [0, I]] is PSD exactly when B(x) is.  Every program with
a variable goes through one cone-only core on this stack, a Nesterov-Todd
scaled predictor-corrector method, and ``solve`` returns the leading corner
of each padded dual as that block's dual.  The corner's dual term,
-tr(Z_corner), stays in the dual objective, which it can only lower.  The
solver restricts nothing to a face: a block may have a constant kernel, a
vector that F_k0 and every F_ki annihilate, so that the program has no
strictly feasible point.  The core starts infeasible and needs none, so it
runs such a block as it is.  It solves each Newton system in NT-scaled
coordinates, where S and Z are the same diagonal matrix: the
complementarity terms and the step-length matrices are then entrywise
products, the corrector's Lyapunov equation is solved entrywise, and the
scaling inverts no matrix.
The affine map and its adjoint are one matmul each, and the dual
projection and the Schur complement a few more.  Each iterate is factored
once, by the cone check that accepts it, and the predictor's and the
corrector's step-length pairs are one eigen-solve each, whatever the block
orders, so an iteration makes one SVD (the scaling), one Cholesky (the cone
check), two eigen-solves, and one Cholesky of the Schur matrix with one
inverse of that factor; a check that the polished Z fails takes one more
Cholesky, and each shrink of the step repeats the check.

The package needs numpy only, and numpy has no triangular solve, so every
linear solve goes through W, the inverse of a Cholesky factor (a^-1 =
W^T W), and costs matvecs: at these orders a call costs more than its
flops, and one ``np.linalg.solve`` costs several matvecs.  The Schur
matrix changes every iteration and gets very ill-conditioned near
degenerate optima, so each Schur solve applies W and then W^T, never
their product, whose own rounding would enter every solve, and refines
twice against M.  The Gram matrix of the dual projection is constant, so
its inverse W^T W is formed once per solve, and each projection is one
matvec.

All computations are deterministic: identical inputs and settings produce
bit-identical outputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    NUMERICAL_FAILURE = "NumericalFailure"
    INFEASIBLE = "Infeasible"


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _symmetrized(a: np.ndarray, name: str) -> np.ndarray:
    """Read-only symmetric copy of a matrix or a stack, from one pass over
    A - A^T: an exactly symmetric array is copied as it is, one whose
    asymmetry is at most 1e-12 max(1, max|A|) is symmetrized, and any other
    raises ValueError."""
    skew = float(np.abs(a - a.swapaxes(-1, -2)).max(initial=0.0))
    if skew == 0.0:
        a = a.copy()
    elif skew <= 1e-12 * max(1.0, float(np.abs(a).max())):
        a = _sym(a)
    else:
        raise ValueError(f"{name} must be symmetric")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PsdBlock:
    """Affine symmetric-matrix map x -> f0 + sum_i x_i coeffs[i]."""

    f0: np.ndarray       # (s, s)
    coeffs: np.ndarray   # (m, s, s)

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
            raise ValueError("f0 must be square")
        if coeffs.ndim != 3 or coeffs.shape[1:] != f0.shape:
            raise ValueError("coeffs must be (m, s, s) matching f0")
        object.__setattr__(self, "f0", _symmetrized(f0, "f0"))
        object.__setattr__(self, "coeffs", _symmetrized(coeffs, "coefficient matrices"))

    @property
    def size(self) -> int:
        return self.f0.shape[0]


@dataclass(frozen=True, eq=False)
class ConicProgram:
    c: np.ndarray
    blocks: tuple
    offset: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).reshape(-1)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("program needs at least one PSD block")
        for blk in blocks:
            if blk.coeffs.shape[0] != c.shape[0]:
                raise ValueError("block coefficient count must match len(c)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class SolverSettings:
    """Solver knobs.

    ``tol`` is the target for primal residual, dual residual and normalized
    gap.  ``accept_tol`` (defaults to ``tol``) is the fallback: if the target
    is not reached within ``max_iter`` but the best iterate meets
    ``accept_tol``, the solve still counts as Optimal at that accuracy; the
    reported residuals are always the achieved ones.  ``tol`` and a given
    ``accept_tol`` must be positive and finite and ``max_iter`` at least 1;
    other values raise ``ValueError``, since no solve could meet them
    honestly.
    """

    tol: float = 1e-8
    max_iter: int = 200
    accept_tol: float | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, not {self.tol!r}")
        if self.accept_tol is not None and not 0.0 < self.accept_tol < np.inf:
            raise ValueError(f"accept_tol must be positive and finite, not {self.accept_tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, not {self.max_iter!r}")

    @property
    def accept(self) -> float:
        return self.tol if self.accept_tol is None else max(self.tol, self.accept_tol)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a conic solve, built by ``solve`` from the record of the
    best iterate; a hierarchy level carries it as ``HierarchyResult.solve``.

    On OPTIMAL the reported primal residual, dual residual and gap are all at
    or below the acceptance tolerance ``SolverSettings.accept``, which may be
    looser than the target ``tol``; they are always the achieved values, and
    the primal residual is relative to the data scale (``_data_scale``), a
    pinned point's too.  The block duals are symmetric PSD multipliers usable
    for certificate recovery.

    ``stop_reason`` is why the solve stopped: ``converged`` (at ``tol``),
    ``stalled`` (see ``_solve_cone``), ``max_iter``, ``numerical`` (a score
    that is not finite, a Schur matrix with no Cholesky factor, or a step
    that no shrink put back in the cone), ``infeasible`` or
    ``pinned_point`` (no variable: the one point, Optimal when its primal
    residual is at most ``accept``, else Infeasible).
    An Optimal that did not converge was accepted at ``accept``.
    """

    status: SolveStatus
    x: np.ndarray
    objective: float
    dual_objective: float
    block_duals: tuple
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int
    stop_reason: str

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        duals = tuple(np.ascontiguousarray(z, dtype=float) for z in self.block_duals)
        for z in duals:
            z.setflags(write=False)
        object.__setattr__(self, "block_duals", duals)


def _chol(a: np.ndarray):
    """Cholesky factor of a matrix, with a jitter ladder; None on failure."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    scale = max(np.trace(a) / a.shape[0], 1e-300)
    for jitter in (1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(a + (jitter * scale) * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            continue
    return None


def _inverse_factor(a: np.ndarray):
    """W = L^-1 for the factor L = ``_chol(a)``, jitter included, so that
    a^-1 = W^T W; None if ``_chol`` finds no factor."""
    factor = _chol(a)
    return None if factor is None else np.linalg.inv(factor)


def _in_cone(stack: np.ndarray):
    """Strict Cholesky factors of a stack, or None if any matrix has none."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None


def _nt_scaling(chol_l: np.ndarray, chol_r: np.ndarray):
    """NT scaling of each pair S = L L^T, Z = R R^T of two stacks: (G, G^-1,
    sig) with G^-1 S G^-T = G^T Z G = diag(sig).  From the SVD
    R^T L = U diag(sig) V^T, G = L V diag(sig)^-1/2 and
    G^-1 = diag(sig)^-1/2 U^T R^T, so no matrix is inverted."""
    rt = chol_r.swapaxes(1, 2)
    u, sig, vt = np.linalg.svd(rt @ chol_l)
    root = np.sqrt(sig)[:, None, :]
    return (chol_l @ vt.swapaxes(1, 2)) / root, (u / root).swapaxes(1, 2) @ rt, sig


def _data_scale(f0: np.ndarray) -> float:
    """max(1, largest Frobenius norm of a single F_k0)."""
    return max(1.0, max(np.linalg.norm(a) for a in f0))


# iterations without halving the best score after which a solve whose best
# iterate meets ``accept`` is stopped as stalled (see _solve_cone)
_STALL_WINDOW = 15
# share of the distance to the cone boundary that one step may cover
_STEP_FRACTION = 0.98


def _solve_cone(c, f0, coeffs, settings: SolverSettings):
    """NT-scaled predictor-corrector on the block-diagonal PSD cone.

    Takes the blocks as ``solve`` stacks them (see the module docstring): a
    (k, s, s) F_0 and an (m, k, s, s) F_i, with at least one variable.  S, Z,
    the residual, every direction and the duals are (k, s, s) stacks or
    their flat views.  Returns the status, the stop reason, the record of
    the best iterate (its duals ``Z`` as one such stack) and the iteration
    count.  The gap score is the larger of <S, Z> and |pobj - dobj|: the
    latter also carries <rp, Z> + rd.x, so a dual objective that runs off
    while the residuals look small does not pass.

    The strict Cholesky factors of the cone check that accepted S and Z
    (symmetrized before it, so they are the iterate's own) are the next
    iteration's L and R, so no iterate is factored afresh.  One SVD of the
    stack R^T L = U diag(sig) V^T gives the NT scaling G = L V diag(sig)^-1/2
    and its inverse G^-1 = diag(sig)^-1/2 U^T R^T (``_nt_scaling``), with
    G^-1 S G^-T = G^T Z G = diag(sig).  The Newton step is solved in those
    coordinates, where each F_i is P_i = G^-1 F_i G^-T and the Schur matrix
    is M = P P^T: a primal direction is rp + sum_i dx_i P_i and the dual one
    follows entrywise.  The corrector X is the exact solution of the scaled
    Lyapunov equation D X + X D = ds dz + dz ds, D = diag(sig), for the
    predictor's ds and dz: X_ij = sym(ds dz)_ij / ((sig_i + sig_j) / 2).  Each
    step-length pair is one eigen-solve, on the stacked
    diag(sig)^-1/2 ds diag(sig)^-1/2 and the same for dz.  The corrected
    direction goes back to the unscaled frame once per iteration,
    dS = G ds G^T and dZ = G^-T dz G^-1, for the cone check and the polish
    below.

    Stabilizers for the degenerate problems this package produces (loss of
    strict complementarity, nearly singular data):

    * every step is verified by a strict Cholesky at the candidate point and
      shrunk on failure, since max-step estimates from ill-conditioned
      factors can overshoot the cone boundary.  Each try checks S, Z and the
      polished Z (below) in one call, and if that fails, S and Z alone,
      which drops the polish.  If that fails too, both step lengths shrink
      by 0.8; after 40 tries the solve stops as ``numerical``;
    * the dual is kept on the affine dual-feasibility manifold by one
      least-change projection along the F_i (its Gram matrix is constant,
      and its inverse is formed once).
      Every dual direction is projected so that adjoint(dZ) = c - adjoint(Z)
      (in scaled coordinates adjoint(dz) = P dz, and the shift enters as
      G^T (.) G): the NT formula recovers dZ from the Schur solution only up
      to that solve's residual, which near a degenerate optimum is large
      enough to throw a converged dual residual back to O(1).  After a dual step
      shorter than 1, Z itself is projected whenever the shift is small
      against Z and keeps it positive definite, which removes the residual
      the partial step leaves instead of letting it decay with the steps;
    * the solve stops as stalled, and counts as Optimal, once the best
      iterate meets ``accept`` and its score has not halved in the last
      ``_STALL_WINDOW`` iterations.  A step of length alpha shrinks the
      residuals by the factor 1 - alpha, so a score that does not halve in 15
      iterations means steps averaging under 5% (1 - 2**(-1/15)): the
      iterate is pinned at the cone boundary, and further iterations only
      move the score within its rounding noise.
    """
    m = c.shape[0]
    k, s = f0.shape[:2]
    op = coeffs.reshape(m, -1)
    data_norm = _data_scale(f0)
    c_norm = 1.0 + np.linalg.norm(c)

    def linear(x):
        return (x @ op).reshape(f0.shape)

    def adjoint(z):
        return op @ z.reshape(-1)

    # inverse W^T W of the constant Gram matrix of the dual-feasibility map,
    # formed once per solve so that each projection is one matvec; None if
    # the Gram is singular
    gram_w = _inverse_factor(_sym(op @ op.T))
    gram_inv = None if gram_w is None else gram_w.T @ gram_w

    def dual_shift(residual):
        """Coefficients and matrices of the least-change shift sum_i lam_i F_i
        whose adjoint is ``residual``; None if the Gram is singular."""
        if gram_inv is None:
            return None
        lam = gram_inv @ residual
        return lam, linear(lam)

    def polish(z):
        """z projected onto adjoint = c, if that shift is small against z; else None."""
        shift = dual_shift(c - adjoint(z))
        if shift is None:
            return None
        size = float(np.linalg.norm(shift[0]))
        largest = float(np.sqrt((z * z).sum(axis=(1, 2)).max()))
        if not (np.isfinite(size) and size <= 1e-3 * (1.0 + largest)):
            return None
        return _sym(z + shift[1])

    x = np.zeros(m)
    eye = np.eye(s)
    eta = max(1.0, data_norm ** 0.5)
    S = Z = np.tile(eta * eye, (k, 1, 1))
    # Cholesky factors of S and Z: sqrt(eta) I at the start, which is what
    # the factorization returns there, and then those of the cone check that
    # accepted the iterate
    L = R = np.tile(np.sqrt(eta) * eye, (k, 1, 1))

    # the best iterate so far, first a zero point that any finite score beats
    best = {"score": np.inf, "x": x, "Z": np.zeros_like(f0), "pobj": 0.0,
            "dobj": 0.0, "pres": np.inf, "dres": np.inf, "relgap": np.inf}
    status, reason = SolveStatus.MAX_ITER, "max_iter"
    score_history = []

    def evaluate(x, S, Z):
        rp = f0 + linear(x) - S
        rd = c - adjoint(Z)
        gap_abs = float(np.vdot(S, Z))
        pobj = float(c @ x)
        dobj = -float(np.vdot(f0, Z))
        pres = np.sqrt(float(np.vdot(rp, rp))) / data_norm
        dres = np.linalg.norm(rd) / c_norm
        relgap = max(gap_abs, abs(pobj - dobj)) / max(1.0, abs(pobj), abs(dobj))
        # iterates are rebound, never updated in place, so no copies are kept
        snap = {
            "score": max(pres, dres, relgap), "x": x, "Z": Z, "pobj": pobj,
            "dobj": dobj, "pres": pres, "dres": dres, "relgap": relgap,
        }
        return rp, rd, gap_abs, pobj, dobj, snap

    for it in range(settings.max_iter):
        iters_done = it
        rp, rd, gap_abs, pobj, dobj, snap = evaluate(x, S, Z)
        score = snap["score"]

        if not np.isfinite(score):
            status, reason = SolveStatus.NUMERICAL_FAILURE, "numerical"
            break
        if score < best["score"]:
            best = snap
        score_history.append(best["score"])
        if score <= settings.tol:
            status, reason = SolveStatus.OPTIMAL, "converged"
            break
        # accept a stall once the best iterate is already good enough
        if (
            len(score_history) > _STALL_WINDOW
            and best["score"] <= settings.accept
            and score_history[-_STALL_WINDOW - 1] < 2.0 * best["score"]
        ):
            status, reason = SolveStatus.OPTIMAL, "stalled"
            break
        # dual objective running off to +inf while nearly dual-feasible is a
        # certificate of primal infeasibility (the relaxations never hit this)
        if dobj > 1e9 * max(1.0, abs(pobj)) and snap["dres"] <= 1e-6:
            status, reason = SolveStatus.INFEASIBLE, "infeasible"
            break

        # NT scaling: in the coordinates G^-1 (.) G^-T for S and G^T (.) G
        # for Z both iterates are diag(sig), and the scaled F_i,
        # P_i = G^-1 F_i G^-T, are the rows of one (m, k s s) matrix P
        G, Ginv, sig = _nt_scaling(L, R)
        # <S, Z> can cancel to 0 or below near the optimum; in the scaled
        # frame it is sum(sig**2), which is positive
        if gap_abs <= 0.0:
            gap_abs = float(np.vdot(sig, sig))
        mu = gap_abs / (k * s)
        Gt, Ginvt = G.swapaxes(1, 2), Ginv.swapaxes(1, 2)
        P = _sym(Ginv @ coeffs @ Ginvt).reshape(m, -1)
        rp_s = _sym(Ginv @ rp @ Ginvt).reshape(-1)
        col, row = sig[:, :, None], sig[:, None, :]
        diag = (eye * col).reshape(-1)
        inv_diag = (eye / col).reshape(-1)
        # entrywise form of diag(sig)^-1/2 (.) diag(sig)^-1/2
        unit = (1.0 / np.sqrt(col * row)).reshape(-1)

        # Schur complement  M_ij = <P_i, P_j>; numpy runs P @ P.T as one
        # symmetric rank-k update, so M is exactly symmetric
        M = P @ P.T
        w = _inverse_factor(M)
        if w is None:
            status, reason = SolveStatus.NUMERICAL_FAILURE, "numerical"
            break

        def schur_solve(rhs):
            # W then W^T, never their product, and two rounds of iterative
            # refinement against M (see the module docstring)
            dx = w.T @ (w @ rhs)
            for _ in range(2):
                dx = dx + w.T @ (w @ (rhs - M @ dx))
            return dx

        def direction(sigma, corr):
            # scaled complementarity ds + dz = sigma mu diag(sig)^-1 - diag(sig)
            # (- corr); e is its right side less rp, so ds = rp + sum dx_i P_i
            e = sigma * mu * inv_diag - diag - rp_s
            if corr is not None:
                e = e - corr
            dx = schur_solve(P @ e - rd)
            ds = rp_s + dx @ P
            dz = e + rp_s - ds
            # dz meets adjoint(dz) = P dz = rd only up to the Schur solve's
            # residual, which is large when M is nearly singular; the shift
            # along the F_i that removes it is G^T F G in these coordinates.
            # The step-length search below keeps the corrected Z in the cone
            shift = dual_shift(rd - P @ dz)
            if shift is not None:
                dz = dz + _sym(Gt @ shift[1] @ G).reshape(-1)
            return dx, ds, dz

        def step_lengths(ds, dz):
            # the largest alpha keeping S + alpha ds PSD is -1 / lambda_min of
            # diag(sig)^-1/2 ds diag(sig)^-1/2, and likewise for Z; one
            # eigen-solve for both
            scaled = (np.array((ds, dz)) * unit).reshape(-1, s, s)
            lams = np.linalg.eigvalsh(scaled).reshape(2, -1).min(axis=1)
            return [min(1.0, _STEP_FRACTION * (np.inf if lam >= -1e-14 else -1.0 / lam))
                    for lam in lams.tolist()]

        dx_a, ds_a, dz_a = direction(0.0, None)
        ap_a, ad_a = step_lengths(ds_a, dz_a)
        gap_aff = float((diag + ap_a * ds_a) @ (diag + ad_a * dz_a))
        sigma = min(0.99, max(1e-8, (max(gap_aff, 0.0) / gap_abs) ** 3))
        corr = (_sym(ds_a.reshape(f0.shape) @ dz_a.reshape(f0.shape))
                / (0.5 * (col + row))).reshape(-1)
        dx, ds, dz = direction(sigma, corr)
        ap, ad = step_lengths(ds, dz)
        # back to the unscaled frame: dS = G ds G^T and dZ = G^-T dz G^-1
        ds = G @ ds.reshape(f0.shape) @ Gt
        dz = Ginvt @ dz.reshape(f0.shape) @ Ginv

        # verify cone membership at the candidate points, since the max-step
        # estimate is unreliable when the current factors are ill-conditioned.
        # A dual step shorter than 1 leaves the share (1 - ad) of the dual
        # residual; it is removed when that is a small polish that keeps the
        # cone.  The factors of the accepted points, the polished Z when it
        # passed, are the next iteration's L and R
        for _ in range(40):
            S_new = _sym(S + ap * ds)
            Z_new = _sym(Z + ad * dz)
            fixed = polish(Z_new)
            points = [S_new, Z_new] + ([] if fixed is None else [fixed])
            factors = _in_cone(np.concatenate(points))
            if factors is None and fixed is not None:
                points = points[:2]
                factors = _in_cone(np.concatenate(points))
            if factors is not None:
                break
            ap, ad = 0.8 * ap, 0.8 * ad
        else:
            status, reason = SolveStatus.NUMERICAL_FAILURE, "numerical"
            break
        L, R = factors[:k], factors[-k:]
        x = x + ap * dx
        S, Z = S_new, points[-1]

    else:
        # max_iter exhausted: account for the final step before reporting
        iters_done = settings.max_iter
        *_, snap = evaluate(x, S, Z)
        if snap["score"] < best["score"]:
            best = snap

    if status in (SolveStatus.MAX_ITER, SolveStatus.NUMERICAL_FAILURE):
        if best["score"] <= settings.accept:
            status = SolveStatus.OPTIMAL
    return status, reason, best, iters_done


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Solve a conic program to the requested tolerance.

    Returns a SolveResult whose status is OPTIMAL only when the primal
    residual, dual residual and normalized duality gap are all <= accept
    (``tol`` unless ``accept_tol`` is looser).  Dual block multipliers are
    always returned for the best iterate seen, in input block order and
    shape.

    The blocks are padded to the largest order s and stacked here, once per
    solve (see the module docstring).  A program with no variable has the
    one point F_0, which is judged like any iterate: its primal residual is
    max(0, -lambda_min(F_0)) over ``_data_scale``, the core's normalization,
    and it is Optimal when that is at most ``accept``.  Any other program
    runs ``_solve_cone``.
    Either way one iterate record comes out, and it is turned into the
    result here: each block's dual is the leading corner of its padded dual,
    and the identity corner's dual term -tr(Z_corner), which only lowers the
    dual objective, stays in it.
    """
    settings = settings or SolverSettings()
    sizes = [blk.size for blk in program.blocks]
    s = max(sizes)
    f0 = np.tile(np.eye(s), (len(sizes), 1, 1))
    coeffs = np.zeros((program.n_vars, len(sizes), s, s))
    for k, (blk, size) in enumerate(zip(program.blocks, sizes)):
        f0[k, :size, :size] = blk.f0
        coeffs[:, k, :size, :size] = blk.coeffs
    if program.n_vars == 0:
        lam = float(np.linalg.eigvalsh(f0)[:, 0].min())
        pres = max(0.0, -lam) / _data_scale(f0)
        status = SolveStatus.OPTIMAL if pres <= settings.accept else SolveStatus.INFEASIBLE
        reason, iters = "pinned_point", 0
        best = {"x": np.zeros(0), "Z": np.zeros_like(f0), "pobj": 0.0,
                "dobj": 0.0, "pres": pres, "dres": 0.0, "relgap": 0.0}
    else:
        status, reason, best, iters = _solve_cone(program.c, f0, coeffs, settings)
    duals = tuple(z[:size, :size] for z, size in zip(best["Z"], sizes))
    return SolveResult(status, best["x"], best["pobj"] + program.offset,
                       best["dobj"] + program.offset, duals,
                       best["pres"], best["dres"], best["relgap"], iters, reason)

"""Dense primal-dual interior-point solver for small SDPs.

Problem form:

    minimize    c @ x  (+ offset)
    subject to  F_k0 + sum_i x_i F_ki  >= 0  (PSD)   for each block k

Everything is dense: the target problems have a handful of blocks of size
<= ~15 and tens of variables, where an iteration costs calls, not flops.  So
``solve`` stacks the blocks of equal order once: each group holds its F_k0 as
one (g, s, s) array and its F_ki as one (m, g, s, s) array.  Every program
with a variable goes through one cone-only core on these stacks, a
Nesterov-Todd scaled predictor-corrector method, and ``solve`` scatters the
duals back to input block order and shape.  The solver restricts nothing to
a face: a block may have a constant kernel, a vector that F_k0 and every
F_ki annihilate, so that the program has no strictly feasible point.  The
core starts infeasible and needs none, so it runs such a block as it is.
It solves each Newton system in NT-scaled coordinates, where S and Z are
the same diagonal matrix: the complementarity terms and the step-length
matrices are then entrywise products, the corrector's Lyapunov equation is
solved entrywise, and no matrix is inverted.
The affine map, its adjoint, the dual projection and the Schur complement
are a few matmuls per group.  Each iterate is factored once, by the cone
check that accepts it, and each step-length pair is one eigen-solve, so a
typical iteration makes one SVD (the scaling), one Cholesky (the cone check)
and two or three eigen-solves per group, one Cholesky of the Schur matrix,
three ``dpotrs`` solves per direction and one for the polish; a check that
the polished Z fails takes one more Cholesky, and each shrink of the step
repeats the check.

All computations are deterministic: identical inputs and settings produce
bit-identical outputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    NUMERICAL_FAILURE = "NumericalFailure"
    INFEASIBLE = "Infeasible"


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _symmetric(a: np.ndarray) -> bool:
    """Whether max|A - A^T| <= 1e-12 max(1, max|A|) over a matrix or a whole stack."""
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return bool(np.abs(a - a.swapaxes(-1, -2)).max(initial=0.0) <= 1e-12 * scale)


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
        if not _symmetric(f0):
            raise ValueError("f0 must be symmetric")
        if not _symmetric(coeffs):
            raise ValueError("all coefficient matrices must be symmetric")
        f0 = _sym(f0)
        coeffs = _sym(coeffs)
        f0.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "coeffs", coeffs)

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
    looser than the target ``tol``; they are always the achieved values.  The
    block duals are symmetric PSD multipliers usable for certificate recovery.

    ``stop_reason`` is why the solve stopped: ``converged`` (at ``tol``),
    ``stalled`` (see ``_solve_cone``), ``max_iter``, ``numerical`` (a score
    that is not finite, a Schur matrix with no Cholesky factor, or a step
    that no shrink put back in the cone), ``infeasible`` or
    ``pinned_point`` (no variable, the one point tested).
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


def _group(blocks):
    """Input positions, (g, s, s) F_k0 and (m, g, s, s) F_ki of each order group."""
    sizes = [blk.size for blk in blocks]
    positions = [[k for k, s in enumerate(sizes) if s == size] for size in dict.fromkeys(sizes)]
    f0 = [np.stack([blocks[k].f0 for k in ks]) for ks in positions]
    coeffs = [np.stack([blocks[k].coeffs for k in ks], axis=1) for ks in positions]
    return positions, f0, coeffs


def _scatter(positions, stacks) -> tuple:
    """Symmetric parts of stacked duals, one per input block, in input order."""
    order = sum(positions, [])
    stacked = [z for stack in stacks for z in stack]
    return tuple(_sym(stacked[j]) for j in np.argsort(order))


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


def _in_cone(stacks):
    """Strict Cholesky factors of every stack, or None if any matrix has none."""
    try:
        return [np.linalg.cholesky(a) for a in stacks]
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


def _data_scale(f0) -> float:
    """max(1, largest Frobenius norm of a single F_k0)."""
    return max(1.0, max(np.linalg.norm(a) for f in f0 for a in f))


def _unstack(stacks, parts: int) -> list:
    """Undo a per-group concatenation of ``parts`` equal stacks: one list of
    group stacks per part."""
    sizes = [len(a) // parts for a in stacks]
    return [[a[k * g:(k + 1) * g] for a, g in zip(stacks, sizes)] for k in range(parts)]


def _inner(a, b) -> float:
    """Trace inner product summed over the stacks of two block lists."""
    return sum(float(np.vdot(p, q)) for p, q in zip(a, b))


def _fro_max(stacks) -> float:
    """Largest Frobenius norm of a single block."""
    return max(float(np.sqrt((a * a).sum(axis=(1, 2)).max())) for a in stacks)


# iterations without halving the best score after which a solve whose best
# iterate meets ``accept`` is stopped as stalled (see _solve_cone)
_STALL_WINDOW = 15
# share of the distance to the cone boundary that one step may cover
_STEP_FRACTION = 0.98


def _solve_cone(c, f0, coeffs, settings: SolverSettings):
    """NT-scaled predictor-corrector on the block-diagonal PSD cone.

    Takes the blocks as ``solve`` stacks them (see the module docstring),
    with at least one variable.  Returns the status, the stop reason, the
    record of the best iterate (its duals ``Z`` as the same stacks) and the
    iteration count.  The gap score is the larger of <S, Z> and
    |pobj - dobj|: the latter also carries <rp, Z> + rd.x, so a dual
    objective that runs off while the residuals look small does not pass.

    The strict Cholesky factors of the cone check that accepted S and Z
    (symmetrized before it, so they are the iterate's own) are the next
    iteration's L and R, so no iterate is factored afresh.  One SVD per group,
    R^T L = U diag(sig) V^T, gives the NT scaling G = L V diag(sig)^-1/2 and
    its inverse G^-1 = diag(sig)^-1/2 U^T R^T (``_nt_scaling``), with
    G^-1 S G^-T = G^T Z G = diag(sig).  The Newton step is solved in those
    coordinates, where each F_i is P_i = G^-1 F_i G^-T and the Schur matrix
    is M = P P^T: a primal direction is rp + sum_i dx_i P_i and the dual one
    follows entrywise.  The corrector X is the exact solution of the scaled
    Lyapunov equation D X + X D = ds dz + dz ds, D = diag(sig), for the
    predictor's ds and dz: X_ij = sym(ds dz)_ij / ((sig_i + sig_j) / 2).  Each
    step-length pair takes one eigen-solve per group, on the stacked
    diag(sig)^-1/2 ds diag(sig)^-1/2 and the same for dz.  The chosen
    direction goes back to the unscaled frame once per iteration,
    dS = G ds G^T and dZ = G^-T dz G^-1, for the cone check and the polish
    below.

    Stabilizers for the degenerate problems this package produces (loss of
    strict complementarity, nearly singular data):

    * every step is verified by a strict Cholesky at the candidate point and
      shrunk on failure, since max-step estimates from ill-conditioned
      factors can overshoot the cone boundary.  Each try checks S, Z and the
      polished Z (below) in one call per group, and if that fails, S and Z
      alone, which drops the polish.  If that fails too, both step lengths
      shrink by 0.8; after 40 tries the solve stops as ``numerical``;
    * the dual is kept on the affine dual-feasibility manifold by one
      least-change projection along the F_i (its Gram matrix is constant).
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
    ops = [f.reshape(m, -1) for f in coeffs]
    total_dim = sum(f.shape[0] * f.shape[1] for f in f0)
    data_norm = _data_scale(f0)
    c_norm = 1.0 + np.linalg.norm(c)
    # the scaled iteration keeps each group's matrices as one flat slice
    ends = np.cumsum([0] + [f.size for f in f0])
    slices = [(slice(a, b), f.shape) for a, b, f in zip(ends, ends[1:], f0)]

    def split(v):
        """Per-group (g, s, s) views of a flat vector of scaled matrices."""
        return [v[part].reshape(shape) for part, shape in slices]

    def flat(stacks):
        return np.concatenate([a.reshape(-1) for a in stacks])

    def linear(x):
        return [(x @ op).reshape(f.shape) for f, op in zip(f0, ops)]

    def adjoint(zs):
        return sum(op @ z.reshape(-1) for op, z in zip(ops, zs))

    # constant Gram matrix of the dual-feasibility map, for the projection
    gram_chol = _chol(_sym(sum(op @ op.T for op in ops)))

    def dual_shift(residual):
        """Coefficients and per-group matrices of the least-change shift
        sum_i lam_i F_i whose adjoint is ``residual``; None if the Gram is singular."""
        if gram_chol is None:
            return None
        lam = lapack.dpotrs(gram_chol, residual, lower=1)[0]
        return lam, linear(lam)

    def polish(zs):
        """zs projected onto adjoint = c, if that shift is small against zs; else None."""
        shift = dual_shift(c - adjoint(zs))
        if shift is None:
            return None
        size = float(np.linalg.norm(shift[0]))
        if not (np.isfinite(size) and size <= 1e-3 * (1.0 + _fro_max(zs))):
            return None
        return [_sym(z + d) for z, d in zip(zs, shift[1])]

    x = np.zeros(m)
    eta = max(1.0, data_norm ** 0.5)
    S = [np.tile(eta * np.eye(f.shape[1]), (f.shape[0], 1, 1)) for f in f0]
    Z = [s.copy() for s in S]
    # Cholesky factors of S and Z: sqrt(eta) I at the start, which is what
    # the factorization returns there, and then those of the cone check that
    # accepted the iterate
    Ls = [np.tile(np.sqrt(eta) * np.eye(f.shape[1]), (f.shape[0], 1, 1)) for f in f0]
    Rs = Ls

    # the best iterate so far, first a zero point that any finite score beats
    best = {"score": np.inf, "x": x, "Z": [np.zeros_like(f) for f in f0], "pobj": 0.0,
            "dobj": 0.0, "pres": np.inf, "dres": np.inf, "relgap": np.inf}
    status, reason = SolveStatus.MAX_ITER, "max_iter"
    score_history = []

    def evaluate(x, S, Z):
        Sx = [f + d for f, d in zip(f0, linear(x))]
        rp = [sx - s for sx, s in zip(Sx, S)]
        rd = c - adjoint(Z)
        gap_abs = _inner(S, Z)
        pobj = float(c @ x)
        dobj = -_inner(f0, Z)
        pres = np.sqrt(_inner(rp, rp)) / data_norm
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

        # NT scaling of each group: in the coordinates G^-1 (.) G^-T for S and
        # G^T (.) G for Z both iterates are diag(sig), and the scaled F_i,
        # P_i = G^-1 F_i G^-T, are the rows of one (m, N) matrix P
        G, Ginv, sig = zip(*(_nt_scaling(lf, rf) for lf, rf in zip(Ls, Rs)))
        # <S, Z> over the unscaled stacks can cancel to 0 or below near the
        # optimum; in the scaled frame it is sum(sig**2), which is positive
        if gap_abs <= 0.0:
            gap_abs = _inner(sig, sig)
        mu = gap_abs / total_dim
        Gt = [g.swapaxes(1, 2) for g in G]
        Ginvt = [gi.swapaxes(1, 2) for gi in Ginv]
        P = np.concatenate([_sym(gi @ f @ git).reshape(m, -1)
                            for gi, f, git in zip(Ginv, coeffs, Ginvt)], axis=1)
        rp_s = flat([_sym(gi @ r @ git) for gi, r, git in zip(Ginv, rp, Ginvt)])
        diag = flat([np.eye(len(v[0])) * v[:, :, None] for v in sig])
        inv_diag = flat([np.eye(len(v[0])) / v[:, :, None] for v in sig])
        # entrywise form of diag(sig)^-1/2 (.) diag(sig)^-1/2
        unit = flat([1.0 / np.sqrt(v[:, :, None] * v[:, None, :]) for v in sig])

        # Schur complement  M_ij = <P_i, P_j>
        M = _sym(P @ P.T)
        mchol = _chol(M)
        if mchol is None:
            status, reason = SolveStatus.NUMERICAL_FAILURE, "numerical"
            break

        def direction(sigma, corr):
            # scaled complementarity ds + dz = sigma mu diag(sig)^-1 - diag(sig)
            # (- corr); e is its right side less rp, so ds = rp + sum dx_i P_i
            e = sigma * mu * inv_diag - diag - rp_s
            if corr is not None:
                e = e - corr
            rhs = P @ e - rd
            dx = lapack.dpotrs(mchol, rhs, lower=1)[0]
            # one round of iterative refinement; the Schur system gets very
            # ill-conditioned near degenerate optima
            dx = dx + lapack.dpotrs(mchol, rhs - M @ dx, lower=1)[0]
            ds = rp_s + dx @ P
            dz = e + rp_s - ds
            # dz meets adjoint(dz) = P dz = rd only up to the Schur solve's
            # residual, which is large when M is nearly singular; the shift
            # along the F_i that removes it is G^T F G in these coordinates.
            # The step-length search below keeps the corrected Z in the cone
            shift = dual_shift(rd - P @ dz)
            if shift is not None:
                dz = dz + flat([_sym(gt @ d @ g) for gt, d, g in zip(Gt, shift[1], G)])
            return dx, ds, dz

        def step_lengths(ds, dz):
            # the largest alpha keeping S + alpha ds PSD is -1 / lambda_min of
            # diag(sig)^-1/2 ds diag(sig)^-1/2, and likewise for Z; one
            # eigen-solve per group
            scaled = np.stack([ds, dz]) * unit
            lams = np.min([np.linalg.eigvalsh(scaled[:, part].reshape(-1, *shape[1:]))
                           .reshape(2, -1).min(axis=1) for part, shape in slices], axis=0)
            return [min(1.0, _STEP_FRACTION * (np.inf if lam >= -1e-14 else -1.0 / lam))
                    for lam in lams.tolist()]

        dx_a, ds_a, dz_a = direction(0.0, None)
        ap_a, ad_a = step_lengths(ds_a, dz_a)
        gap_aff = float((diag + ap_a * ds_a) @ (diag + ad_a * dz_a))
        sigma = min(0.99, max(1e-8, (max(gap_aff, 0.0) / gap_abs) ** 3))
        corr = flat([_sym(a @ b) / (0.5 * (v[:, :, None] + v[:, None, :]))
                     for a, b, v in zip(split(ds_a), split(dz_a), sig)])
        dx, ds, dz = direction(sigma, corr)
        ap, ad = step_lengths(ds, dz)
        # fall back to the centered direction without the second-order
        # term if the corrector crippled the step
        if min(ap, ad) < 0.1 * min(ap_a, ad_a):
            dx2, ds2, dz2 = direction(sigma, None)
            ap2, ad2 = step_lengths(ds2, dz2)
            if min(ap2, ad2) > min(ap, ad):
                dx, ds, dz, ap, ad = dx2, ds2, dz2, ap2, ad2
        # back to the unscaled frame: dS = G ds G^T and dZ = G^-T dz G^-1
        ds = [g @ d @ gt for g, d, gt in zip(G, split(ds), Gt)]
        dz = [git @ d @ gi for git, d, gi in zip(Ginvt, split(dz), Ginv)]

        # verify cone membership at the candidate points, since the max-step
        # estimate is unreliable when the current factors are ill-conditioned.
        # A dual step shorter than 1 leaves the share (1 - ad) of the dual
        # residual; it is removed when that is a small polish that keeps the
        # cone.  The factors of the accepted points, the polished Z when it
        # passed, are the next iteration's L and R
        for _ in range(40):
            S_new = [_sym(s + ap * d) for s, d in zip(S, ds)]
            Z_new = [_sym(z + ad * d) for z, d in zip(Z, dz)]
            fixed = polish(Z_new)
            points = [S_new, Z_new] + ([] if fixed is None else [fixed])
            factors = _in_cone([np.concatenate(group) for group in zip(*points)])
            if factors is None and fixed is not None:
                points = points[:2]
                factors = _in_cone([np.concatenate(group) for group in zip(*points)])
            if factors is not None:
                break
            ap, ad = 0.8 * ap, 0.8 * ad
        else:
            status, reason = SolveStatus.NUMERICAL_FAILURE, "numerical"
            break
        Ls, *Rs = _unstack(factors, len(points))
        x = x + ap * dx
        S, Z, Rs = S_new, points[-1], Rs[-1]

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

    The blocks are stacked by order here, once per solve.  A program with no
    variable has the one point F_0, which is tested directly; any other runs
    ``_solve_cone``.  Either way one iterate record comes out, and it is
    turned into the result here, its duals scattered back with ``_scatter``.
    """
    settings = settings or SolverSettings()
    positions, f0, coeffs = _group(program.blocks)
    if program.n_vars == 0:
        lam = min(float(np.linalg.eigvalsh(f)[:, 0].min()) for f in f0)
        status = SolveStatus.OPTIMAL if lam >= -1e-8 * _data_scale(f0) else SolveStatus.INFEASIBLE
        reason, iters = "pinned_point", 0
        best = {"x": np.zeros(0), "Z": [np.zeros_like(f) for f in f0], "pobj": 0.0,
                "dobj": 0.0, "pres": max(0.0, -lam), "dres": 0.0, "relgap": 0.0}
    else:
        status, reason, best, iters = _solve_cone(program.c, f0, coeffs, settings)
    return SolveResult(status, best["x"], best["pobj"] + program.offset,
                       best["dobj"] + program.offset, _scatter(positions, best["Z"]),
                       best["pres"], best["dres"], best["relgap"], iters, reason)


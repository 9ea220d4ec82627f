"""Dense primal-dual interior-point solver for small SDPs.

Problem form:

    minimize    c @ x  (+ offset)
    subject to  F_k0 + sum_i x_i F_ki  >= 0  (PSD)   for each block k

Everything is dense: the target problems have a handful of blocks of size
<= ~15 and tens of variables, where an iteration costs calls, not flops.  So
``solve`` stacks the blocks of equal order once: each group holds its F_k0 as
one (g, s, s) array and its F_ki as one (m, g, s, s) array.  The removal of
each block's constant kernel (a facial-reduction step, which the kernel face
of an assembled relaxation leaves to do) and the cone-only core, a
Nesterov-Todd scaled predictor-corrector method, both work on these stacks.
Every program with a variable goes through that core, and every exit
scatters the duals back to input block order and shape.  In the core the
affine map, its adjoint, the dual projection and the Schur complement are a
few matmuls per group, and the Cholesky factorizations, the NT-scaling SVD
and the step-length eigenvalues one batched call each.

All computations are deterministic: identical inputs and settings produce
bit-identical outputs.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    NUMERICAL_FAILURE = "NumericalFailure"
    INFEASIBLE = "Infeasible"


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
        if not np.allclose(f0, f0.T, atol=1e-12):
            raise ValueError("f0 must be symmetric")
        if not np.allclose(coeffs, np.transpose(coeffs, (0, 2, 1)), atol=1e-12):
            raise ValueError("all coefficient matrices must be symmetric")
        f0 = 0.5 * (f0 + f0.T)
        coeffs = 0.5 * (coeffs + np.transpose(coeffs, (0, 2, 1)))
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
    reported residuals are always the achieved ones.
    """

    tol: float = 1e-8
    max_iter: int = 200
    accept_tol: float | None = None

    @property
    def accept(self) -> float:
        return self.tol if self.accept_tol is None else max(self.tol, self.accept_tol)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a conic solve.

    On OPTIMAL the reported primal residual, dual residual and gap are all at
    or below the acceptance tolerance ``SolverSettings.accept``, which may be
    looser than the target ``tol``; they are always the achieved values.  The
    block duals are symmetric PSD multipliers usable for certificate recovery.
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

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        duals = tuple(np.ascontiguousarray(z, dtype=float) for z in self.block_duals)
        for z in duals:
            z.setflags(write=False)
        object.__setattr__(self, "block_duals", duals)


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _group(pairs):
    """Input positions, (g, s, s) F_k0 and (m, g, s, s) F_ki of each order group.

    ``pairs`` holds one (F_k0, F_ki) pair per block, in input order.
    """
    sizes = [f.shape[0] for f, _ in pairs]
    positions = [[k for k, s in enumerate(sizes) if s == size] for size in dict.fromkeys(sizes)]
    f0 = [np.stack([pairs[k][0] for k in ks]) for ks in positions]
    coeffs = [np.stack([pairs[k][1] for k in ks], axis=1) for ks in positions]
    return positions, f0, coeffs


# singular values at or below this share of the largest count as zero, both
# in ``null_space`` and in the constant kernels of the blocks
_RANK_TOL = 1e-8


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of the null space of the rows of ``a``.

    The rows are scaled to unit norm before the SVD, since their norms may
    differ by many orders of magnitude, and the rank is cut at ``_RANK_TOL``.
    """
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    _, sv, vt = np.linalg.svd(a / np.where(norms > 0, norms, 1.0),
                              full_matrices=a.shape[0] < a.shape[1])
    return vt[int((sv > _RANK_TOL * sv[:1]).sum()):].T


def _drop_kernels(positions, f0, coeffs):
    """Compress every block with a constant kernel onto its complement.

    The constant kernel of block k, the common null space of F_k0 and all
    F_ki, is annihilated by S_k(x) at every x, so such a block has no
    interior point.  It is found with one thin SVD per order group, over each
    block's matrices stacked with unit Frobenius norms, ranked by
    ``_RANK_TOL``.  A block with a kernel becomes Q^T S_k(x) Q for the
    orthonormal basis Q of the complement, and the blocks are regrouped.
    Returns the stacks and a dict of the bases Q by input position; when it
    is empty, the stacks are the inputs themselves.
    """
    pairs, bases = [None] * sum(map(len, positions)), {}
    for ks, f, fk in zip(positions, f0, coeffs):
        mats = np.concatenate([f[None], fk]).swapaxes(0, 1)      # (g, m + 1, s, s)
        norms = np.sqrt((mats * mats).sum(axis=(2, 3), keepdims=True))
        scaled = (mats / np.where(norms > 0, norms, 1.0)).reshape(len(ks), -1, f.shape[1])
        _, sv, vt = np.linalg.svd(scaled, full_matrices=False)
        for j, (k, rank) in enumerate(zip(ks, (sv > _RANK_TOL * sv[:, :1]).sum(axis=1))):
            pairs[k] = (f[j], fk[:, j])
            # a block of zeros only (rank 0) is left to the cone solver as it is
            if 0 < rank < f.shape[1]:
                q = bases[k] = vt[j, :rank].T
                pairs[k] = (_sym(q.T @ f[j] @ q), _sym(q.T @ fk[:, j] @ q))
    if not bases:
        return positions, f0, coeffs, bases
    return (*_group(pairs), bases)


def _scatter(positions, stacks, bases=None) -> tuple:
    """Symmetric parts of stacked duals, one per input block, in input order.

    The dual Z of a block compressed by ``_drop_kernels`` is lifted back to
    Q Z Q^T with that block's basis Q from ``bases``.
    """
    order = sum(positions, [])
    stacked = [z for stack in stacks for z in stack]
    if bases:
        stacked = [bases[k] @ z @ bases[k].T if k in bases else z for k, z in zip(order, stacked)]
    return tuple(_sym(stacked[j]) for j in np.argsort(order))


def _chol(a: np.ndarray):
    """Cholesky factor(s) of a matrix or a stack, jitter ladder per matrix; None on failure."""
    if a.ndim == 3:
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            factors = [_chol(one) for one in a]
            return None if any(f is None for f in factors) else np.stack(factors)
    scale = max(np.trace(a) / a.shape[0], 1e-300)
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(a + (jitter * scale) * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            continue
    return None


def _in_cone(stacks) -> bool:
    """Whether every matrix of every stack has a (strict) Cholesky factor."""
    try:
        for a in stacks:
            np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _inv_factor(chol_l: np.ndarray) -> np.ndarray:
    """L^-1 for each lower-triangular factor of a stack, by triangular inversion."""
    return np.stack([lapack.dtrtri(lf, lower=1)[0] for lf in chol_l])


def _lam_min(stacks) -> float:
    """Smallest eigenvalue of any matrix of any stack."""
    return min(float(np.linalg.eigvalsh(a)[:, 0].min()) for a in stacks)


def _data_scale(f0) -> float:
    """max(1, largest Frobenius norm of a single F_k0)."""
    return max(1.0, max(np.linalg.norm(a) for f in f0 for a in f))


def _boundary_step(inv_factors, deltas) -> float:
    """Largest alpha keeping X + alpha * delta PSD in every block, given L^-1 for X = L L^T."""
    lam = _lam_min([_sym(li @ d @ li.swapaxes(1, 2)) for li, d in zip(inv_factors, deltas)])
    return np.inf if lam >= -1e-14 else -1.0 / lam


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
    with at least one variable and no constant kernel left, and returns the
    duals as the same stacks, which ``solve`` scatters back to input block
    order.  The gap score is the larger of <S, Z> and |pobj - dobj|: the
    latter also carries <rp, Z> + rd.x, so a dual objective that runs off
    while the residuals look small does not pass.

    Stabilizers for the degenerate problems this package produces (loss of
    strict complementarity, nearly singular data):

    * every step is verified by a strict Cholesky at the candidate point and
      backtracked on failure, since max-step estimates from ill-conditioned
      factors can overshoot the cone boundary;
    * the dual is kept on the affine dual-feasibility manifold by one
      least-change projection along the F_i (its Gram matrix is constant).
      Every dual direction is projected so that adjoint(dZ) = c - adjoint(Z):
      the NT formula recovers dZ from the Schur solution only up to that
      solve's residual, which near a degenerate optimum is large enough to
      throw a converged dual residual back to O(1).  After a dual step
      shorter than 1, Z itself is projected whenever the shift is small
      against Z and keeps it positive definite, which removes the residual
      the partial step leaves instead of letting it decay with the steps;
    * the dual step may grow Z only geometrically, for problems whose dual
      optimum is not attained;
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

    def linear(x):
        return [(x @ op).reshape(f.shape) for f, op in zip(f0, ops)]

    def adjoint(zs):
        return sum(op @ z.reshape(-1) for op, z in zip(ops, zs))

    # constant Gram matrix of the dual-feasibility map, for the projection
    gram_chol = _chol(_sym(sum(op @ op.T for op in ops)))

    def project_dual(zs, target):
        """Least-change shift of zs along the F_i that makes adjoint = target."""
        if gram_chol is None:
            return zs, np.inf
        lam = lapack.dpotrs(gram_chol, target - adjoint(zs), lower=1)[0]
        fixed = [_sym(z + d) for z, d in zip(zs, linear(lam))]
        return fixed, float(np.linalg.norm(lam))

    x = np.zeros(m)
    eta = max(1.0, data_norm ** 0.5)
    S = [np.tile(eta * np.eye(f.shape[1]), (f.shape[0], 1, 1)) for f in f0]
    Z = [s.copy() for s in S]

    best = None
    status = SolveStatus.MAX_ITER
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
        return Sx, rp, rd, gap_abs, pobj, dobj, snap

    for it in range(settings.max_iter):
        iters_done = it
        Sx, rp, rd, gap_abs, pobj, dobj, snap = evaluate(x, S, Z)
        score = snap["score"]

        if not np.isfinite(score):
            status = SolveStatus.NUMERICAL_FAILURE
            break
        if best is None or score < best["score"]:
            best = snap
        score_history.append(best["score"])
        if score <= settings.tol:
            status = SolveStatus.OPTIMAL
            break
        # accept a stall once the best iterate is already good enough
        if (
            len(score_history) > _STALL_WINDOW
            and best["score"] <= settings.accept
            and score_history[-_STALL_WINDOW - 1] < 2.0 * best["score"]
        ):
            status = SolveStatus.OPTIMAL
            break
        # dual objective running off to +inf while nearly dual-feasible is a
        # certificate of primal infeasibility (the relaxations never hit this)
        if dobj > 1e9 * max(1.0, abs(pobj)) and snap["dres"] <= 1e-6:
            status = SolveStatus.INFEASIBLE
            break

        mu = gap_abs / total_dim

        Ls = [_chol(s) for s in S]
        Rs = [_chol(z) for z in Z]
        if any(f is None for f in Ls + Rs):
            status = SolveStatus.NUMERICAL_FAILURE
            break
        Linv = [_inv_factor(lf) for lf in Ls]
        Rinv = [_inv_factor(rf) for rf in Rs]
        Winv, Zinv = [], []
        for lf, rf, ri in zip(Ls, Rs, Rinv):
            rt = rf.swapaxes(1, 2)
            u, sig, _ = np.linalg.svd(rt @ lf)
            ginv = (u / np.sqrt(sig)[:, None, :]).swapaxes(1, 2) @ rt
            Winv.append(_sym(ginv.swapaxes(1, 2) @ ginv))
            Zinv.append(_sym(ri.swapaxes(1, 2) @ ri))

        # Schur complement  M_ij = sum_k <F_ki, Winv_k F_kj Winv_k>
        M = _sym(sum(
            op @ (w @ f @ w).reshape(m, -1).T for op, f, w in zip(ops, coeffs, Winv)
        ))
        mchol = _chol(M)
        if mchol is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break

        def direction(sigma, corr):
            es = [sigma * mu * zi - sx for zi, sx in zip(Zinv, Sx)]
            if corr is not None:
                es = [e - cr for e, cr in zip(es, corr)]
            rhs = adjoint([_sym(w @ e @ w) for w, e in zip(Winv, es)]) - rd
            dx = lapack.dpotrs(mchol, rhs, lower=1)[0]
            # one round of iterative refinement; the Schur system gets very
            # ill-conditioned near degenerate optima
            dx = dx + lapack.dpotrs(mchol, rhs - M @ dx, lower=1)[0]
            ds = [r + d for r, d in zip(rp, linear(dx))]
            dz = [_sym(w @ (e + r - d) @ w) for w, e, r, d in zip(Winv, es, rp, ds)]
            # Winv (...) Winv meets adjoint(dz) = rd only up to the Schur
            # solve's residual, which is large when M is nearly singular;
            # the step-length search below keeps the corrected Z in the cone
            dz, _ = project_dual(dz, rd)
            return dx, ds, dz

        def step_lengths(ds, dz):
            return (min(1.0, _STEP_FRACTION * _boundary_step(Linv, ds)),
                    min(1.0, _STEP_FRACTION * _boundary_step(Rinv, dz)))

        dx_a, ds_a, dz_a = direction(0.0, None)
        ap_a, ad_a = step_lengths(ds_a, dz_a)
        gap_aff = _inner([s + ap_a * d for s, d in zip(S, ds_a)],
                         [z + ad_a * d for z, d in zip(Z, dz_a)])
        sigma = min(0.99, max(1e-8, (max(gap_aff, 0.0) / gap_abs) ** 3))
        corr = [_sym(a @ b @ zi) for a, b, zi in zip(ds_a, dz_a, Zinv)]
        dx, ds, dz = direction(sigma, corr)
        ap, ad = step_lengths(ds, dz)
        # fall back to the centered direction without the second-order
        # term if the corrector crippled the step
        if min(ap, ad) < 0.1 * min(ap_a, ad_a):
            dx2, ds2, dz2 = direction(sigma, None)
            ap2, ad2 = step_lengths(ds2, dz2)
            if min(ap2, ad2) > min(ap, ad):
                dx, ds, dz, ap, ad = dx2, ds2, dz2, ap2, ad2

        # when the dual optimum is not attained Z must be allowed to grow,
        # but geometrically, not explosively
        dz_norm = _fro_max(dz)
        if dz_norm > 0:
            ad = min(ad, 3.0 * (1.0 + _fro_max(Z)) / dz_norm)

        # verify cone membership at the candidate points; the max-step
        # estimate is unreliable when the current factors are ill-conditioned
        for _ in range(40):
            if _in_cone([s + ap * d for s, d in zip(S, ds)]):
                break
            ap *= 0.8
        for _ in range(40):
            if _in_cone([z + ad * d for z, d in zip(Z, dz)]):
                break
            ad *= 0.8

        x = x + ap * dx
        S = [_sym(s + ap * d) for s, d in zip(S, ds)]
        Z_new = [_sym(z + ad * d) for z, d in zip(Z, dz)]
        # a dual step shorter than 1 leaves the share (1 - ad) of the dual
        # residual; remove it when that is a small polish and keeps the cone
        fixed, shift = project_dual(Z_new, c)
        if np.isfinite(shift) and shift <= 1e-3 * (1.0 + _fro_max(Z_new)) and _in_cone(fixed):
            Z = fixed
        else:
            Z = Z_new

    else:
        # max_iter exhausted: account for the final step before reporting
        iters_done = settings.max_iter
        *_, snap = evaluate(x, S, Z)
        if np.isfinite(snap["score"]) and (best is None or snap["score"] < best["score"]):
            best = snap

    if best is not None and status in (SolveStatus.MAX_ITER, SolveStatus.NUMERICAL_FAILURE):
        if best["score"] <= settings.accept:
            status = SolveStatus.OPTIMAL

    if best is None:
        return (SolveStatus.NUMERICAL_FAILURE, np.zeros(m), [np.zeros_like(f) for f in f0],
                0.0, 0.0, np.inf, np.inf, np.inf, iters_done)
    return (status, best["x"], best["Z"], best["pobj"], best["dobj"],
            best["pres"], best["dres"], best["relgap"], iters_done)


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Solve a conic program to the requested tolerance.

    Returns a SolveResult whose status is OPTIMAL only when the primal
    residual, dual residual and normalized duality gap are all <= accept
    (``tol`` unless ``accept_tol`` is looser).  Dual block multipliers are
    always returned for the best iterate seen, in input block order and
    shape.

    The blocks are stacked by order here, once per solve.  A program with no
    variable has the one point F_0, which is tested directly.  Otherwise the
    constant kernels are dropped (``_drop_kernels``), so that the program
    reaches ``_solve_cone`` with no face left to restrict to.  Every exit
    scatters its duals back with ``_scatter``.
    """
    settings = settings or SolverSettings()
    offset = program.offset
    positions, f0, coeffs = _group([(blk.f0, blk.coeffs) for blk in program.blocks])
    if program.n_vars == 0:
        lam = _lam_min(f0)
        status = SolveStatus.OPTIMAL if lam >= -1e-8 * _data_scale(f0) else SolveStatus.INFEASIBLE
        zero_duals = _scatter(positions, [np.zeros_like(f) for f in f0])
        return SolveResult(status, np.zeros(0), offset, offset, zero_duals,
                           max(0.0, -lam), 0.0, 0.0, 0)

    positions, f0, coeffs, bases = _drop_kernels(positions, f0, coeffs)
    status, x, duals, pobj, dobj, pres, dres, gap, iters = _solve_cone(
        program.c, f0, coeffs, settings)
    duals = _scatter(positions, duals, bases)
    return SolveResult(status, x, pobj + offset, dobj + offset, duals, pres, dres, gap, iters)


def dump_program(program: ConicProgram, stream=None) -> str:
    """Plain-text sparse dump for cross-checking against external solvers.

    Format (one entry per line, zero-based indices):

        nvars <m>
        nblocks <K>
        blocksize <k> <s_k>
        offset <value>
        c <i> <value>                  # nonzero objective entries
        f <matno> <block> <i> <j> <value>
                                       # matno 0 encodes F_k0, matno t >= 1
                                       # encodes the coefficient of x_{t-1};
                                       # upper triangle only

    Returns the text; also writes it to ``stream`` when given.
    """
    out = io.StringIO()
    out.write(f"nvars {program.n_vars}\n")
    out.write(f"nblocks {len(program.blocks)}\n")
    for k, blk in enumerate(program.blocks):
        out.write(f"blocksize {k} {blk.size}\n")
    out.write(f"offset {float(program.offset)!r}\n")
    for i, v in enumerate(program.c):
        if v != 0.0:
            out.write(f"c {i} {float(v)!r}\n")
    for k, blk in enumerate(program.blocks):
        s = blk.size
        for i in range(s):
            for j in range(i, s):
                if blk.f0[i, j] != 0.0:
                    out.write(f"f 0 {k} {i} {j} {float(blk.f0[i, j])!r}\n")
        for t in range(program.n_vars):
            for i in range(s):
                for j in range(i, s):
                    if blk.coeffs[t, i, j] != 0.0:
                        out.write(f"f {t + 1} {k} {i} {j} {float(blk.coeffs[t, i, j])!r}\n")
    text = out.getvalue()
    if stream is not None:
        stream.write(text)
    return text

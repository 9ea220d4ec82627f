"""Level-n semidefinite relaxations of the moment formulation of TV distance.

For pseudo-moment vectors phi, psi of degree 2n the level-n program is

    minimize    phi(1) + psi(1)
    subject to  phi_a - psi_a = mu_a - nu_a          for |a| <= 2n
                0 <= M_n(phi) <= M_n(mu)             (PSD order)
                0 <= M_n(psi) <= M_n(nu)

Its optimal value rho_n is a guaranteed lower bound on ||mu - nu||_TV and
increases to it with n.  The equalities are eliminated up front by the
substitution psi = phi - (mu - nu), which halves the variables.  The
substitution also makes the two domination blocks coincide, since
nu - psi = mu - phi as sequences, so the solver sees three PSD blocks:
M_n(phi), M_n(mu) - M_n(phi) and M_n(psi).

Numerics.  Three exact reformulations precondition the solve:

* the variable is recentered and rescaled, y = (x - t)/L; rho_n is invariant
  because this is a bijective change of variables applied to both measures;
* each solver block is conjugated by a diagonal equilibration, which is a
  congruence and changes nothing mathematically;
* when the data moment matrices are exactly singular (atomic inputs at or
  above the exactness level), the feasible set lies on a face of the cone:
  ``kernel_reduce`` pins M_n(phi), M_n(psi) on those kernels via equalities
  and compresses the blocks onto the complementary face.  That face need
  not be the minimal one; ``conic.solve`` drops the constant kernels the
  blocks still have once the equalities are eliminated, which restores
  strict feasibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb

import numpy as np

from . import conic
from .conic import ConicProgram, PsdBlock, SolveResult, SolveStatus, SolverSettings
from .errors import DegreeTooLow, DimensionMismatch, SolverFailure
from .indexing import basis_indices, basis_size
from .measures import MeasureSpec, moments
from .moments import MomentSequence, moment_matrix, product_positions


@lru_cache(maxsize=None)
def _structure_tensor(d: int, n: int) -> np.ndarray:
    """T[a] is the 0/1 matrix with ones where alpha_i + alpha_j = alpha_a,
    so that M_n(phi) = sum_a phi_a T[a]."""
    table = product_positions(d, n)
    s2n = basis_size(d, 2 * n)
    s = table.shape[0]
    tensor = np.zeros((s2n, s, s))
    for a in range(s2n):
        tensor[a][table == a] = 1.0
    tensor.setflags(write=False)
    return tensor


@dataclass(frozen=True)
class VariableMap:
    """Affine change of variables y = (x - shift) / scale used for a solve."""

    shift: float = 0.0
    scale: float = 1.0

    def seq_to_solver(self, seq: MomentSequence) -> MomentSequence:
        return seq.affine_image(1.0 / self.scale, -self.shift / self.scale)

    def seq_from_solver(self, seq: MomentSequence) -> MomentSequence:
        return seq.affine_image(self.scale, self.shift)

    def points_from_solver(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(pts, dtype=float) + self.shift

    def basis_change(self, d: int, degree: int) -> np.ndarray:
        """Matrix B with v(y) = B v(x) on the degree-``degree`` basis."""
        if d == 1:
            b = np.zeros((degree + 1, degree + 1))
            for k in range(degree + 1):
                for j in range(k + 1):
                    b[k, j] = (
                        comb(k, j) * (-self.shift) ** (k - j) / self.scale**k
                    )
            return b
        if self.shift != 0.0:
            raise DimensionMismatch("shifted variable maps are univariate")
        degs = np.array([sum(a) for a in basis_indices(d, degree).indices])
        return np.diag(self.scale ** (-degs.astype(float)))


def variable_map_for(mu: MomentSequence, nu: MomentSequence, n: int) -> VariableMap:
    """Deterministic centering and scaling estimated from the moments.

    The shift is the midpoint of the two means; the scale is the largest
    2n-th root of the centered even moments, floored at 1.
    """
    if mu.dim != 1:
        # multivariate path: no shift, per-axis radius floor at 1
        def radius(seq):
            mass = seq.values[0]
            if mass <= 0:
                return 1.0
            basis = seq.basis
            r = 0.0
            for i in range(seq.dim):
                alpha = tuple(2 * n if j == i else 0 for j in range(seq.dim))
                r = max(r, (max(seq[alpha], 0.0) / mass) ** (1.0 / (2 * n)))
            return r

        return VariableMap(0.0, max(1.0, radius(mu), radius(nu)))

    def mean(seq):
        return seq.values[1] / seq.values[0] if seq.values[0] > 0 else 0.0

    shift = 0.5 * (mean(mu) + mean(nu))

    def radius(seq):
        mass = seq.values[0]
        if mass <= 0:
            return 1.0
        centered = seq.affine_image(1.0, -shift)
        return (max(centered.values[2 * n], 0.0) / mass) ** (1.0 / (2 * n))

    return VariableMap(shift, max(1.0, radius(mu), radius(nu)))


@dataclass(frozen=True, eq=False)
class RelaxationProblem:
    """Assembled level-n relaxation of dimension ``dim``.

    ``program`` is the eliminated conic form passed to the solver: its
    variables are the phi coordinates only, and its three blocks are M(phi),
    M(mu) - M(phi) and M(psi), since the fourth LMI, M(nu) - M(psi), is the
    same matrix as M(mu) - M(phi).  ``equilibrations`` holds the diagonal
    congruence applied to each solver block; block duals must be conjugated
    back by it before any certificate use.  ``reduced`` says whether the
    blocks were compressed onto the face that the kernel equalities of
    ``program`` leave.
    """

    dim: int
    program: ConicProgram
    equilibrations: tuple
    reduced: bool = False


def _equilibration(mat: np.ndarray) -> np.ndarray:
    diag = np.diag(mat).copy()
    floor = max(float(diag.max()), 1e-300) * 1e-12
    return 1.0 / np.sqrt(np.maximum(diag, floor))


def _exact_kernel(mat: np.ndarray):
    """Split eigenvectors of a PSD data matrix into range and verified kernel."""
    w, v = np.linalg.eigh(mat)
    lam_max = max(float(w[-1]), 0.0)
    keep = w > 1e-12 * lam_max
    kernel = v[:, ~keep]
    # only trust directions annihilated to data precision
    good = []
    for i in range(kernel.shape[1]):
        vec = kernel[:, i]
        if np.max(np.abs(mat @ vec)) <= 1e-11 * max(lam_max, 1.0):
            good.append(vec)
    kernel = np.column_stack(good) if good else np.zeros((mat.shape[0], 0))
    return v[:, keep], kernel


def assemble(
    mu: MomentSequence,
    nu: MomentSequence,
    n: int,
    kernel_reduce: bool = False,
) -> RelaxationProblem:
    """Build the level-n conic program from two degree-2n moment sequences."""
    if n < 1:
        raise ValueError("relaxation level must be >= 1")
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"mu has d={mu.dim}, nu has d={nu.dim}")
    if mu.max_degree < 2 * n or nu.max_degree < 2 * n:
        raise DegreeTooLow(
            f"level {n} needs moments to degree {2 * n}; have "
            f"{mu.max_degree} and {nu.max_degree}"
        )
    d = mu.dim
    mu = mu.truncated(2 * n)
    nu = nu.truncated(2 * n)
    s2n = basis_size(d, 2 * n)
    s = basis_size(d, n)
    tensor = _structure_tensor(d, n)
    m_mu = np.asarray(moment_matrix(mu, n).entries)
    m_nu = np.asarray(moment_matrix(nu, n).entries)

    # objective phi(1) + psi(1) = 2 phi_0 - (mu_0 - nu_0)
    c = np.zeros(s2n)
    c[0] = 2.0
    offset = nu.values[0] - mu.values[0]

    d_mu = _equilibration(m_mu)
    d_nu = _equilibration(m_nu)
    em_mu = m_mu * np.outer(d_mu, d_mu)
    em_nu_side = (m_nu - m_mu) * np.outer(d_nu, d_nu)
    t_mu = tensor * np.outer(d_mu, d_mu)
    t_nu = tensor * np.outer(d_nu, d_nu)

    # blocks in phi variables; after the substitution the psi domination
    # block M(nu) - M(psi) is the same matrix as M(mu) - M(phi), so it is
    # not passed to the solver
    block_data = [
        (np.zeros((s, s)), t_mu),        # M(phi) >= 0
        (em_mu, -t_mu),                  # M(mu) - M(phi) >= 0
        (em_nu_side, t_nu),              # M(psi) >= 0
    ]

    eq_a = eq_b = None
    reduced = False
    bases = [None] * 3
    if kernel_reduce:
        # kernels of the data matrices, in their equilibrated frames
        p_mu, k_mu = _exact_kernel(em_mu)
        p_nu, k_nu = _exact_kernel(m_nu * np.outer(d_nu, d_nu))
        rows, rhs = [], []
        for v in k_mu.T:
            # M(mu) v = 0 and 0 <= M(phi) <= M(mu) force M(phi) v = 0
            coef = np.tensordot(t_mu, v, axes=([2], [0]))  # (s2n, s)
            rows.extend(coef.T)
            rhs.extend(np.zeros(s))
        for w in k_nu.T:
            # M(nu) w = 0 forces M(psi) w = 0, affine in phi
            coef = np.tensordot(t_nu, w, axes=([2], [0]))
            target = -em_nu_side @ w
            rows.extend(coef.T)
            rhs.extend(target)
        if rows:
            eq_a = np.array(rows)
            eq_b = np.array(rhs)
            # forcing the kernels must be consistent with the Hankel
            # structure; bail out of the reduction otherwise
            sol, *_ = np.linalg.lstsq(eq_a, eq_b, rcond=None)
            if np.linalg.norm(eq_a @ sol - eq_b) <= 1e-9 * (1.0 + np.linalg.norm(eq_b)):
                bases = [p_mu, p_mu, p_nu]
                reduced = True
            else:
                eq_a = eq_b = None

    blocks = []
    for (f0, coeffs), basis in zip(block_data, bases):
        if basis is not None:
            f0 = basis.T @ f0 @ basis
            coeffs = basis.T @ coeffs @ basis
        blocks.append(PsdBlock(f0, coeffs))

    program = ConicProgram(c=c, blocks=tuple(blocks), eq_a=eq_a, eq_b=eq_b, offset=offset)
    return RelaxationProblem(
        dim=d, program=program, equilibrations=(d_mu, d_mu, d_nu), reduced=reduced
    )


@dataclass(frozen=True)
class HierarchySettings:
    """Knobs for a hierarchy solve.

    ``certify`` recovers a dual SOS certificate per level; it disables the
    kernel reduction because certificate recovery maps raw block multipliers
    and must see the uncompressed blocks.  ``accept_tol`` is the accuracy at
    which a solve still counts as Optimal when the target ``tol`` turns out
    to be unreachable (nearly singular data); achieved tolerances are always
    reported.
    """

    tol: float = 1e-8
    max_iter: int = 250
    accept_tol: float = 1e-4
    scale: bool = True
    kernel_reduce: bool = True
    certify: bool = False

    def solver_settings(self) -> SolverSettings:
        return SolverSettings(
            tol=self.tol, max_iter=self.max_iter, accept_tol=self.accept_tol
        )


@dataclass(frozen=True, eq=False)
class HierarchyResult:
    """Outcome of one level: the bound rho_n, decoded pseudo-moments, solver
    diagnostics, and an optional dual certificate.

    ``phi`` / ``psi`` are in the original coordinates; ``phi_solver`` /
    ``psi_solver`` are the same pseudo-moments in the solver's rescaled
    variable (numerically better conditioned, preferred for rank checks and
    extraction).  ``rho`` is taken from the certified (dual) side of the
    solve, so up to the solver tolerance it never overstates the bound.
    """

    level: int
    rho: float
    phi: MomentSequence
    psi: MomentSequence
    status: SolveStatus
    solve: SolveResult
    problem: RelaxationProblem
    var_map: VariableMap
    mu_moments: MomentSequence
    nu_moments: MomentSequence
    wall_ms: float
    phi_solver: MomentSequence = None
    psi_solver: MomentSequence = None
    certificate: object = None

    @property
    def gap(self) -> float:
        return self.solve.gap

    @property
    def primal_residual(self) -> float:
        return self.solve.primal_residual

    @property
    def dual_residual(self) -> float:
        return self.solve.dual_residual


def solve_level(
    mu: MomentSequence,
    nu: MomentSequence,
    n: int,
    settings: HierarchySettings | None = None,
    var_map: VariableMap | None = None,
) -> HierarchyResult:
    """Solve the level-n relaxation of ||mu - nu||_TV from moment data.

    Raises SolverFailure when the solver does not reach an acceptable
    optimum; the exception carries the untrusted partial result.
    """
    settings = settings or HierarchySettings()
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"mu has d={mu.dim}, nu has d={nu.dim}")
    if mu.max_degree < 2 * n or nu.max_degree < 2 * n:
        raise DegreeTooLow(
            f"level {n} needs moments to degree {2 * n}; have "
            f"{mu.max_degree} and {nu.max_degree}"
        )
    mu2n = mu.truncated(2 * n)
    nu2n = nu.truncated(2 * n)
    if var_map is None:
        var_map = (
            variable_map_for(mu2n, nu2n, n) if settings.scale else VariableMap()
        )
    mu_s = var_map.seq_to_solver(mu2n)
    nu_s = var_map.seq_to_solver(nu2n)

    reduce = settings.kernel_reduce and not settings.certify
    problem = assemble(mu_s, nu_s, n, kernel_reduce=reduce)

    start = time.perf_counter()
    res = conic.solve(problem.program, settings.solver_settings())
    wall_ms = (time.perf_counter() - start) * 1e3

    phi_s = MomentSequence(mu.dim, 2 * n, res.x)
    psi_s = MomentSequence(mu.dim, 2 * n, res.x - (mu_s.values - nu_s.values))
    phi = var_map.seq_from_solver(phi_s)
    psi = MomentSequence(mu.dim, 2 * n, phi.values - (mu2n.values - nu2n.values))
    rho = float(res.dual_objective)

    result = HierarchyResult(
        level=n, rho=rho, phi=phi, psi=psi, status=res.status, solve=res,
        problem=problem, var_map=var_map, mu_moments=mu2n, nu_moments=nu2n,
        wall_ms=wall_ms, phi_solver=phi_s, psi_solver=psi_s,
    )
    if res.status != SolveStatus.OPTIMAL:
        raise SolverFailure(
            f"level {n} solve ended with status {res.status.value} "
            f"(pres={res.primal_residual:.2e}, dres={res.dual_residual:.2e}, "
            f"gap={res.gap:.2e})",
            status=res.status,
            result=replace(result, rho=float("nan")),
        )
    if settings.certify:
        from .certificates import recover_certificate

        result = replace(result, certificate=recover_certificate(result))
    return result


@dataclass(frozen=True, eq=False)
class HierarchySweep:
    """Results of a multi-level run, in level order, plus the monotonicity
    flag (rho nondecreasing within 2x the effective solver tolerance across
    Optimal levels)."""

    results: tuple
    monotone: bool

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i):
        return self.results[i]

    @property
    def rhos(self) -> np.ndarray:
        return np.array([r.rho for r in self.results])


def monotone_within(results, slack: float) -> bool:
    rhos = [r.rho for r in results if r.status == SolveStatus.OPTIMAL]
    return all(b >= a - slack for a, b in zip(rhos[:-1], rhos[1:]))


def _as_moments(obj, max_degree: int) -> MomentSequence:
    if isinstance(obj, MomentSequence):
        return obj
    if isinstance(obj, MeasureSpec):
        return moments(obj, obj.dim, max_degree)
    raise TypeError(f"expected MeasureSpec or MomentSequence, got {type(obj).__name__}")


def solve_hierarchy(mu, nu, levels, settings: HierarchySettings | None = None) -> HierarchySweep:
    """Solve the relaxation at every level in ``levels``.

    ``mu`` and ``nu`` may be MeasureSpec (moments computed exactly) or
    MomentSequence values with degree >= 2*max(levels).  Per-level solver
    failures are recorded on the corresponding entry (rho = NaN, status
    preserved) instead of aborting the sweep.
    """
    settings = settings or HierarchySettings()
    levels = [int(n) for n in levels]
    if not levels:
        raise ValueError("levels must be nonempty")
    need = 2 * max(levels)
    mu_seq = _as_moments(mu, need)
    nu_seq = _as_moments(nu, need)
    if mu_seq.dim != nu_seq.dim:
        raise DimensionMismatch(f"mu has d={mu_seq.dim}, nu has d={nu_seq.dim}")

    results = []
    for n in levels:
        try:
            results.append(solve_level(mu_seq, nu_seq, n, settings))
        except SolverFailure as failure:
            results.append(failure.result)
    return HierarchySweep(
        results=tuple(results),
        monotone=monotone_within(results, 2.0 * settings.accept_tol),
    )

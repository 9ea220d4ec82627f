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

* the variable is recentered and rescaled, y = (x - t)/L, always; rho_n is
  invariant because this is a bijective change of variables applied to both
  measures, and ``VariableMap`` is the one place the map is implemented;
* each solver block is conjugated by a diagonal equilibration, which is a
  congruence and changes nothing mathematically;
* when an atomic input is flat at n (at or above its exactness level),
  the feasible set lies on a face of the cone, which ``kernel_reduce``
  reaches in one facial-reduction step read off the atoms: it substitutes
  phi = mu + N z, N the atoms' power vectors, so the solver's variable is
  z (see ``assemble``).  The blocks keep their order s(n) and the kernels
  as constant kernels, which the interior-point solver handles as they
  are; an affine set that contains the feasible set is all the step
  needs.  The conic program it returns is the one the solver runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import conic
from .conic import ConicProgram, PsdBlock, SolveResult, SolveStatus, SolverSettings
from .errors import CertificateMismatch, DegreeTooLow, DimensionMismatch
from .indexing import basis_size
from .measures import MeasureSpec, moments
from .moments import (MomentSequence, affine_matrix, moment_matrix, power_vectors,
                      structure_tensor)


def _affine_moments(a: float, b: float, *seqs: MomentSequence) -> list:
    """Moments of the pushforwards of ``seqs`` (one dimension and degree)
    under x -> a x + b, and their supports mapped pointwise.

    B is lower triangular, so moment k sums the first k + 1 terms of row k,
    left to right.  B @ m is as accurate, but at high degree B is
    ill-conditioned and the BLAS summation order moves solver statuses.
    """
    mat = affine_matrix(a, b, seqs[0].dim, seqs[0].max_degree)
    return [MomentSequence(seq.dim, seq.max_degree, np.cumsum(mat * seq.values, axis=1).diagonal(),
                           None if seq.support is None else a * seq.support + b)
            for seq in seqs]


@dataclass(frozen=True)
class VariableMap:
    """Affine change of variables y = (x - shift) / scale used for a solve.

    The one implementation of the map: moments go to and from the solver's
    variable, and certificates come back from it, through
    ``moments.affine_matrix``.
    ``VariableMap()`` is the identity frame; a shift needs d = 1.
    """

    shift: float = 0.0
    scale: float = 1.0

    def seq_to_solver(self, seq: MomentSequence) -> MomentSequence:
        return self._to_solver(seq)[0]

    def _to_solver(self, *seqs: MomentSequence) -> list:
        return _affine_moments(1.0 / self.scale, -self.shift / self.scale, *seqs)

    def seq_from_solver(self, seq: MomentSequence) -> MomentSequence:
        return _affine_moments(self.scale, self.shift, seq)[0]

    def points_from_solver(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(pts, dtype=float) + self.shift

    def basis_change(self, d: int, degree: int) -> np.ndarray:
        """Matrix B with v(y) = B v(x) on the degree-``degree`` basis."""
        return affine_matrix(1.0 / self.scale, -self.shift / self.scale, d, degree)


def variable_map_for(mu: MomentSequence, nu: MomentSequence, n: int) -> VariableMap:
    """Deterministic centering and scaling estimated from the moments.

    The shift is the midpoint of the two means (0 in d > 1); the scale is
    the largest 2n-th root of a centered 2n-th axis moment per unit mass,
    floored at 1.
    """

    def mean(seq):
        return seq.values[1] / seq.values[0] if seq.values[0] > 0 else 0.0

    shift = 0.5 * (mean(mu) + mean(nu)) if mu.dim == 1 else 0.0
    # the centered 2n-th axis moments, summed as in ``_affine_moments``; d > 1 has no shift
    top_row = affine_matrix(1.0, -shift, 1, 2 * n)[-1] if mu.dim == 1 else None

    def radius(seq):
        mass = seq.values[0]
        if mass <= 0:
            return 1.0
        if seq.dim == 1:
            top = np.cumsum(top_row * seq.values[: 2 * n + 1])[-1]
        else:
            top = max(seq[tuple(2 * n * (j == i) for j in range(seq.dim))] for i in range(seq.dim))
        return (max(top, 0.0) / mass) ** (1.0 / (2 * n))

    return VariableMap(shift, max(1.0, radius(mu), radius(nu)))


@dataclass(frozen=True, eq=False)
class RelaxationProblem:
    """Assembled level-n relaxation of dimension ``dim``.

    ``program`` is the eliminated conic form, exactly as the solver's
    interior-point core runs it: its variables are the phi coordinates
    only, and its three blocks are M(phi), M(mu) - M(phi) and M(psi), since
    the fourth LMI, M(nu) - M(psi), is the same matrix as M(mu) - M(phi).
    ``equilibrations`` holds the diagonal congruence applied to each solver
    block; block duals must be conjugated back by it before any certificate
    use.  Every program has three blocks of order s(n) = ``basis_size(d, n)``.
    On a reduced program the variable is z in phi = x0 + null_basis @ z, x0
    = mu and ``null_basis`` the face's power vectors, substituted into the
    same blocks; otherwise both are None and the variable is phi itself.
    """

    dim: int
    program: ConicProgram
    equilibrations: tuple
    x0: np.ndarray | None = None
    null_basis: np.ndarray | None = None

    @property
    def reduced(self) -> bool:
        return self.null_basis is not None


def _equilibration(mat: np.ndarray) -> np.ndarray:
    diag = np.diag(mat).copy()
    floor = max(float(diag.max()), 1e-300) * 1e-12
    return 1.0 / np.sqrt(np.maximum(diag, floor))


def _face_atoms(mu: MomentSequence, nu: MomentSequence, n: int) -> np.ndarray | None:
    """Atoms whose power vectors span phi - mu on the feasible set: those both
    share if both are flat at n (identical float points; ``exact_tv_atomic``
    merges within 1e-9), else the flat one's; None if neither is.  Atoms are
    (r, d) rows in lexicographic order, as ``np.unique(..., axis=0)`` gives."""

    def flat(pts, d):
        # the r distinct atoms if rank V_{n-1} = r; on the line, if r <= n
        pts = sorted(set(map(tuple, pts.tolist())))
        rank = (min(len(pts), n) if d == 1
                else np.linalg.matrix_rank(power_vectors(np.array(pts), n - 1)))
        return pts if rank == len(pts) else None

    pts_mu, pts_nu = (None if seq.support is None else flat(seq.support, seq.dim)
                      for seq in (mu, nu))
    if pts_mu is None or pts_nu is None:
        pts = pts_nu if pts_mu is None else pts_mu
    else:
        # mu's copy of a shared point, as np.unique kept it (0.0 == -0.0)
        shared = set(pts_nu)
        pts = [p for p in pts_mu if p in shared]
    return None if pts is None else np.array(pts, dtype=float).reshape(-1, mu.dim)


def _level_inputs(mu: MomentSequence, nu: MomentSequence, n: int):
    """The two sequences truncated to degree 2n, after checking they fit level n."""
    if n < 1:
        raise ValueError("relaxation level must be >= 1")
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"mu has d={mu.dim}, nu has d={nu.dim}")
    if mu.max_degree < 2 * n or nu.max_degree < 2 * n:
        raise DegreeTooLow(
            f"level {n} needs moments to degree {2 * n}; have "
            f"{mu.max_degree} and {nu.max_degree}"
        )
    return mu.truncated(2 * n), nu.truncated(2 * n)


def assemble(
    mu: MomentSequence,
    nu: MomentSequence,
    n: int,
    kernel_reduce: bool = False,
) -> RelaxationProblem:
    """Build the level-n conic program from two degree-2n moment sequences.

    With ``kernel_reduce`` the variable may be z in phi = mu + N z, N the
    power vectors v_2n(y_j) of ``_face_atoms``: the kernel of a measure flat
    at n (rank V_{n-1} = r for its r distinct atoms, ``support``) forces what
    it dominates (phi for mu, psi for nu) into their span.  On the line this
    is the kernel face: r <= n atoms x_j give ker M_n(mu) = q0 R[x]_{<=n-r},
    q0 = prod (x - x_j), whose rows L_phi(x^m q0) = 0, m = 0..2n-r, leave
    span{v_2n(x_j)}.
    """
    mu, nu = _level_inputs(mu, nu, n)
    d = mu.dim
    s2n = basis_size(d, 2 * n)
    s = basis_size(d, n)
    tensor = structure_tensor(d, n)
    m_mu = moment_matrix(mu, n)
    m_nu = moment_matrix(nu, n)

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

    x0 = null_basis = None
    atoms = _face_atoms(mu, nu, n) if kernel_reduce else None
    if atoms is not None:
        x0, null_basis = mu.values, power_vectors(atoms, 2 * n)
        # substitute phi = x0 + N z; each entry of the products is one
        # coordinate times one tensor entry, so the blocks stay exactly symmetric
        sub = np.vstack([x0, null_basis.T])
        p_mu, p_nu = (np.dot(sub, t.reshape(s2n, -1)).reshape(-1, s, s) for t in (t_mu, t_nu))
        block_data = [(f0 + p[0], p[1:])
                      for (f0, _), p in zip(block_data, (p_mu, -p_mu, p_nu))]
        offset += float(c @ x0)
        c = null_basis.T @ c

    program = ConicProgram(
        c=c, blocks=tuple(PsdBlock(f0, coeffs) for f0, coeffs in block_data), offset=offset
    )
    return RelaxationProblem(
        dim=d, program=program, equilibrations=(d_mu, d_mu, d_nu),
        x0=x0, null_basis=null_basis,
    )


@dataclass(frozen=True)
class HierarchySettings(SolverSettings):
    """Knobs for a hierarchy solve: the solver's, with the hierarchy's
    defaults, plus two of its own.  ``solve_level`` hands the object to
    ``conic.solve`` as it is.

    ``accept_tol`` is the accuracy at which a solve still counts as Optimal
    when the target ``tol`` turns out to be unreachable (nearly singular
    data); achieved tolerances are always reported.  ``kernel_reduce``
    solves on the face of the atomic inputs (see ``assemble``); ``certify``,
    which recovers a dual SOS certificate per level, disables it: recovery
    maps raw block multipliers, stationary in every moment of phi.  The change of
    variables is not a setting: every solve runs in the frame of
    ``variable_map_for`` unless ``solve_level`` is given another
    ``VariableMap``, such as the identity ``VariableMap()``.
    """

    max_iter: int = 250
    accept_tol: float = 1e-4
    kernel_reduce: bool = True
    certify: bool = False


@dataclass(frozen=True, eq=False)
class HierarchyResult:
    """Outcome of one level: the bound rho_n, decoded pseudo-moments, solver
    diagnostics, and an optional dual certificate.

    ``phi`` / ``psi`` are in the original coordinates; ``phi_solver`` /
    ``psi_solver`` are the same pseudo-moments in the solver's rescaled
    variable (numerically better conditioned, preferred for rank checks and
    extraction).  ``rho`` is taken from the certified (dual) side of the
    solve, so up to the solver tolerance it never overstates the bound.

    ``status`` is the level's outcome and ``solve`` the conic solver's.
    Every level that is not Optimal has rho NaN; its other fields are the
    untrusted iterate.  The two statuses differ only when ``certify`` is on
    and the recovered certificate fails its identity check: the level is
    then NumericalFailure, while ``solve.status`` keeps the solver's Optimal.

    ``wall_ms`` times the conic solve alone, not the moments, the change of
    variables or the assembly.  On a pinned atomic level, where no IPM
    iteration runs, that is a small part: on EX1 of the benchmark at n=6,
    about 0.1 ms of the 0.45 ms that ``solve_hierarchy`` takes from the
    measures, before a 0.9 ms extraction (one BLAS thread on a shared
    2-core host).
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


def solve_level(
    mu: MomentSequence,
    nu: MomentSequence,
    n: int,
    settings: HierarchySettings | None = None,
    var_map: VariableMap | None = None,
) -> HierarchyResult:
    """Solve the level-n relaxation of ||mu - nu||_TV from moment data.

    The solve runs in the frame of ``var_map``, by default the one
    ``variable_map_for`` picks.  A failed level is a status, not an
    exception: when the solver does not reach an acceptable optimum, or when
    ``settings.certify`` is on and the recovered certificate fails its check,
    the result carries the level's status and rho = NaN, and its iterate is
    untrusted.  Invalid inputs still raise.
    """
    settings = settings or HierarchySettings()
    mu2n, nu2n = _level_inputs(mu, nu, n)
    if var_map is None:
        var_map = variable_map_for(mu2n, nu2n, n)
    mu_s, nu_s = var_map._to_solver(mu2n, nu2n)

    reduce = settings.kernel_reduce and not settings.certify
    problem = assemble(mu_s, nu_s, n, kernel_reduce=reduce)

    start = time.perf_counter()
    res = conic.solve(problem.program, settings)
    wall_ms = (time.perf_counter() - start) * 1e3

    x = res.x if problem.null_basis is None else problem.x0 + problem.null_basis @ res.x
    phi_s = MomentSequence(mu.dim, 2 * n, x)
    psi_s = MomentSequence(mu.dim, 2 * n, x - (mu_s.values - nu_s.values))
    phi = var_map.seq_from_solver(phi_s)
    psi = MomentSequence(mu.dim, 2 * n, phi.values - (mu2n.values - nu2n.values))
    rho = float(res.dual_objective)

    result = HierarchyResult(
        level=n, rho=rho, phi=phi, psi=psi, status=res.status, solve=res,
        problem=problem, var_map=var_map, mu_moments=mu2n, nu_moments=nu2n,
        wall_ms=wall_ms, phi_solver=phi_s, psi_solver=psi_s,
    )
    status = res.status
    if status == SolveStatus.OPTIMAL and settings.certify:
        from .certificates import recover_certificate

        try:
            result = replace(result, certificate=recover_certificate(result))
        except CertificateMismatch:
            status = SolveStatus.NUMERICAL_FAILURE
    if status != SolveStatus.OPTIMAL:
        result = replace(result, rho=float("nan"), status=status)
    return result


@dataclass(frozen=True, eq=False)
class HierarchySweep:
    """Results of a multi-level run, in the order the levels were given,
    plus the monotonicity flag (rho nondecreasing in the level within 2x the
    effective solver tolerance across Optimal levels)."""

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
    """Whether rho is nondecreasing, within ``slack``, across the Optimal
    entries of ``results`` in the order given."""
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
    MomentSequence values with degree >= 2*max(levels).  A level that fails
    is recorded as ``solve_level`` returns it (rho = NaN, with the level's
    status); the sweep goes on.
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

    results = [solve_level(mu_seq, nu_seq, n, settings) for n in levels]
    return HierarchySweep(
        results=tuple(results),
        monotone=monotone_within(sorted(results, key=lambda r: r.level),
                                 2.0 * settings.accept),
    )

"""tvbound: guaranteed lower bounds on the total variation distance between
measures, computed from their moments.

The bound rho_n at level n comes from a semidefinite relaxation over
degree-2n pseudo-moment pairs dominated by the inputs' moment matrices;
rho_n increases with n and converges to ||mu - nu||_TV (on the [0, 2] scale
for probability measures).  A solve with ``certify=True`` also yields a
dual sum-of-squares certificate that can be verified independently (it
turns off the kernel reduction, which solves a flat atomic input on the
face its points span), and when the optimal pseudo-moments are flat their
atomic representatives (the numerical Hahn-Jordan pair) can be extracted.

One settings object drives a solve: ``HierarchySettings`` is the conic
solver's ``SolverSettings`` with the hierarchy's defaults, plus
``kernel_reduce`` and ``certify``.  One record reports it: each level's
``HierarchyResult.solve`` is the solver's ``SolveResult``, which holds the
residuals, the gap, the iteration count and why the solve stopped.

Typical use:

    from tvbound import Gaussian, solve_hierarchy
    sweep = solve_hierarchy(Gaussian(0.0, 0.1), Gaussian(1.0, 0.1), [1, 2, 3, 4])
    for level in sweep:
        print(level.level, level.rho, level.solve.gap)
"""

from .errors import (
    CertificateMismatch,
    DegreeTooLow,
    DimensionMismatch,
    EmptySample,
    IllConditioned,
    NotFlat,
    TvBoundError,
    UnsupportedDimension,
)
from .indexing import MonomialBasis, basis_indices, basis_size
from .moments import MomentSequence, moment_matrix, poly_from_gram
from .measures import (
    Atomic,
    Empirical,
    Exponential,
    Gaussian,
    MeasureSpec,
    Mixture,
    exact_tv_atomic,
    exact_tv_univariate_density,
    moments,
    sample,
)
from .conic import (
    ConicProgram,
    PsdBlock,
    SolveResult,
    SolveStatus,
    SolverSettings,
    solve,
)
from .relaxation import (
    HierarchyResult,
    HierarchySettings,
    HierarchySweep,
    RelaxationProblem,
    VariableMap,
    assemble,
    monotone_within,
    solve_hierarchy,
    solve_level,
)
from .certificates import (
    DualCertificate,
    gaussian_hellinger,
    gaussian_kl,
    hellinger_bounds,
    nishiyama_bound,
    pinsker_upper,
    recover_certificate,
    verify_certificate,
)
from .extraction import FlatnessReport, extract_atoms, flatness, recover_hahn_jordan

__version__ = "0.1.0"

__all__ = [
    "Atomic",
    "CertificateMismatch",
    "ConicProgram",
    "DegreeTooLow",
    "DimensionMismatch",
    "DualCertificate",
    "Empirical",
    "EmptySample",
    "Exponential",
    "FlatnessReport",
    "Gaussian",
    "HierarchyResult",
    "HierarchySettings",
    "HierarchySweep",
    "IllConditioned",
    "MeasureSpec",
    "Mixture",
    "MomentSequence",
    "MonomialBasis",
    "NotFlat",
    "PsdBlock",
    "RelaxationProblem",
    "SolveResult",
    "SolveStatus",
    "SolverSettings",
    "TvBoundError",
    "UnsupportedDimension",
    "VariableMap",
    "assemble",
    "basis_indices",
    "basis_size",
    "exact_tv_atomic",
    "exact_tv_univariate_density",
    "extract_atoms",
    "flatness",
    "gaussian_hellinger",
    "gaussian_kl",
    "hellinger_bounds",
    "moment_matrix",
    "moments",
    "monotone_within",
    "nishiyama_bound",
    "pinsker_upper",
    "poly_from_gram",
    "recover_certificate",
    "recover_hahn_jordan",
    "sample",
    "solve",
    "solve_hierarchy",
    "solve_level",
    "verify_certificate",
]

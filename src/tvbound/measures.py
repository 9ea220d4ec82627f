"""Measure families, their exact truncated moments, and TV oracles.

The families mirror the inputs used in practice: Gaussians, exponentials,
finite mixtures, atomic measures, and empirical samples.  Moments are exact
(recurrences / power sums / factorials) except for the empirical family, which
averages monomials over the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    QuadratureNonConvergent,
    UnsupportedDimension,
)
from .moments import MomentSequence, power_sums

_MIXTURE_WEIGHT_TOL = 1e-12


class MeasureSpec:
    """Base class for declarative measure descriptions."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(MeasureSpec):
    mean: float
    stddev: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.stddev)):
            raise ValueError("gaussian mean and stddev must be finite")
        if self.stddev <= 0:
            raise ValueError("stddev must be positive")

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Exponential(MeasureSpec):
    rate: float

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True, eq=False)
class Atomic(MeasureSpec):
    """Finitely many atoms with strictly positive weights."""

    points: np.ndarray  # (r, d)
    weights: np.ndarray  # (r,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2:
            raise ValueError("points must be an (r, d) array")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise ValueError("one weight per atom required")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("atomic points and weights must be finite")
        if np.any(w <= 0):
            raise ValueError("atomic weights must be strictly positive")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def univariate(cls, points: Sequence[float], weights: Sequence[float]) -> "Atomic":
        return cls(np.asarray(points, dtype=float).reshape(-1, 1), weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def points1d(self) -> np.ndarray:
        if self.dim != 1:
            raise UnsupportedDimension("points1d requires dimension 1")
        return self.points[:, 0]


@dataclass(frozen=True)
class Mixture(MeasureSpec):
    """Convex combination of component specs (weights sum to 1)."""

    components: tuple  # of (weight, MeasureSpec)

    def __post_init__(self):
        comps = tuple((float(w), spec) for w, spec in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if not all(0 < w < math.inf for w, _ in comps):
            raise ValueError("mixture weights must be positive and finite")
        if abs(sum(w for w, _ in comps) - 1.0) > _MIXTURE_WEIGHT_TOL:
            raise ValueError("mixture weights must sum to 1")
        dims = {spec.dim for _, spec in comps}
        if len(dims) != 1:
            raise DimensionMismatch("mixture components must share a dimension")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0][1].dim


@dataclass(frozen=True, eq=False)
class Empirical(MeasureSpec):
    """A sample treated as the uniform empirical measure on its points."""

    samples: np.ndarray  # (N, d)

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if s.size == 0:
            raise EmptySample("empirical spec needs at least one sample")
        if not np.isfinite(s).all():
            raise ValueError("empirical samples must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _gaussian_moments_1d(mean: float, std: float, max_degree: int) -> np.ndarray:
    # two-term recurrence M_k = mean*M_{k-1} + (k-1)*std^2*M_{k-2}
    out = np.empty(max_degree + 1)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = mean
    for k in range(2, max_degree + 1):
        out[k] = mean * out[k - 1] + (k - 1) * std * std * out[k - 2]
    return out


def moments(spec: MeasureSpec, d: int, max_degree: int) -> MomentSequence:
    """Exact truncated moments of ``spec`` up to ``max_degree``.

    Gaussian and exponential moments are closed-form and univariate only;
    atomic and empirical moments are weighted power sums in any dimension
    (a sample of N points has weights 1/N and mass exactly 1);
    mixtures combine component moments convexly.
    """
    if spec.dim != d:
        raise DimensionMismatch(f"spec has dimension {spec.dim}, requested {d}")
    if isinstance(spec, Gaussian):
        if d != 1:
            raise UnsupportedDimension("gaussian moments implemented for d=1 only")
        return MomentSequence(1, max_degree, _gaussian_moments_1d(spec.mean, spec.stddev, max_degree))
    if isinstance(spec, Exponential):
        if d != 1:
            raise UnsupportedDimension("exponential moments implemented for d=1 only")
        vals = np.array(
            [math.factorial(k) / spec.rate**k for k in range(max_degree + 1)]
        )
        return MomentSequence(1, max_degree, vals)
    if isinstance(spec, Atomic):
        return MomentSequence(d, max_degree, power_sums(spec.points, spec.weights, max_degree))
    if isinstance(spec, Mixture):
        vals = sum(w * moments(comp, d, max_degree).values for w, comp in spec.components)
        return MomentSequence(d, max_degree, vals)
    if isinstance(spec, Empirical):
        count = spec.samples.shape[0]
        vals = power_sums(spec.samples, np.full(count, 1.0 / count), max_degree)
        vals[0] = 1.0
        return MomentSequence(d, max_degree, vals)
    raise TypeError(f"unknown measure spec {type(spec).__name__}")


def sample(spec: MeasureSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. samples from a parametric spec, shape (count, d)."""
    if isinstance(spec, Gaussian):
        return rng.normal(spec.mean, spec.stddev, size=(count, 1))
    if isinstance(spec, Exponential):
        return rng.exponential(1.0 / spec.rate, size=(count, 1))
    if isinstance(spec, Atomic):
        w = spec.weights / spec.mass
        idx = rng.choice(len(w), size=count, p=w)
        return spec.points[idx]
    if isinstance(spec, Mixture):
        ws = np.array([w for w, _ in spec.components])
        idx = rng.choice(len(ws), size=count, p=ws)
        out = np.empty((count, spec.dim))
        for j, (_, comp) in enumerate(spec.components):
            mask = idx == j
            if mask.any():
                out[mask] = sample(comp, int(mask.sum()), rng)
        return out
    if isinstance(spec, Empirical):
        idx = rng.integers(0, spec.samples.shape[0], size=count)
        return spec.samples[idx]
    raise TypeError(f"cannot sample from {type(spec).__name__}")


_MERGE_TOL = 1e-9


def exact_tv_atomic(mu: Atomic, nu: Atomic) -> float:
    """Exact TV distance between two atomic measures on the [0, 2] scale.

    One pass merges mu's atoms with weight +w and nu's with weight -w: an
    atom joins the first merged atom within 1e-9 of it (max norm), else it
    starts a new one.  The result is the sum of |w| over the merged atoms
    and lies in [|mass(mu) - mass(nu)|, mass(mu) + mass(nu)].
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch("atomic measures have different dimensions")
    merged_pts: list[np.ndarray] = []
    merged_w: list[float] = []
    for measure, sign in ((mu, 1.0), (nu, -1.0)):
        nu_start = len(merged_w)
        for p, w in zip(measure.points, measure.weights):
            for i, q in enumerate(merged_pts):
                if np.max(np.abs(p - q)) <= _MERGE_TOL:
                    merged_w[i] += sign * w
                    break
            else:
                merged_pts.append(p)
                merged_w.append(sign * float(w))
    # the atoms mu began and those nu added are summed apart, so that two
    # disjoint probability measures are exactly 2 apart
    return float(sum(abs(w) for w in merged_w[:nu_start])
                 + sum(abs(w) for w in merged_w[nu_start:]))


def _density_terms(spec: MeasureSpec) -> list[tuple[float, MeasureSpec]]:
    """Flatten a density spec into weighted gaussian/exponential leaves."""
    if isinstance(spec, (Gaussian, Exponential)):
        return [(1.0, spec)]
    if isinstance(spec, Mixture):
        out = []
        for w, comp in spec.components:
            out.extend((w * wi, leaf) for wi, leaf in _density_terms(comp))
        return out
    raise ValueError(
        f"{type(spec).__name__} has no univariate density; "
        "expected gaussian/exponential or mixtures of those"
    )


def _leaf_pdf(leaf: MeasureSpec, x: np.ndarray) -> np.ndarray:
    if isinstance(leaf, Gaussian):
        z = (x - leaf.mean) / leaf.stddev
        return np.exp(-0.5 * z * z) / (leaf.stddev * math.sqrt(2 * math.pi))
    # exponential
    return np.where(x >= 0, leaf.rate * np.exp(-leaf.rate * np.clip(x, 0, None)), 0.0)


def _leaf_window(leaf: MeasureSpec) -> tuple[float, float]:
    if isinstance(leaf, Gaussian):
        return leaf.mean - 12 * leaf.stddev, leaf.mean + 12 * leaf.stddev
    return 0.0, 40.0 / leaf.rate


def _leaf_tail_mass(leaf: MeasureSpec, lo: float, hi: float) -> float:
    if isinstance(leaf, Gaussian):
        a = (lo - leaf.mean) / (leaf.stddev * math.sqrt(2))
        b = (hi - leaf.mean) / (leaf.stddev * math.sqrt(2))
        return 0.5 * math.erfc(b) + 0.5 * math.erfc(-a)
    lo = max(lo, 0.0)
    return (1.0 - math.exp(-leaf.rate * lo)) + math.exp(-leaf.rate * hi)


# quadrature error budget of exact_tv_univariate_density, and the number of
# grid points on which it scans the density difference for sign changes
_QUAD_ABS_TOL = 1e-6
_SCAN_POINTS = 4001


def exact_tv_univariate_density(mu: MeasureSpec, nu: MeasureSpec) -> float:
    """Quadrature value of integral |f_mu - f_nu| over R on the [0, 2] scale.

    Both specs must have univariate densities (gaussian, exponential, or
    mixtures of those).  The difference of densities is scanned for sign
    changes on a common window, the integral is taken piecewise between the
    located roots, and the neglected tail mass is accounted for in the error
    budget.  Raises QuadratureNonConvergent if the budget exceeds ``_QUAD_ABS_TOL``.
    This oracle is the library's only use of scipy, imported here so that
    ``import tvbound`` and every solve load numpy only.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    terms_mu = _density_terms(mu)
    terms_nu = _density_terms(nu)
    if mu.dim != 1 or nu.dim != 1:
        raise UnsupportedDimension("density TV oracle is univariate")

    def diff(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for w, leaf in terms_mu:
            total = total + w * _leaf_pdf(leaf, x)
        for w, leaf in terms_nu:
            total = total - w * _leaf_pdf(leaf, x)
        return total

    windows = [_leaf_window(leaf) for _, leaf in terms_mu + terms_nu]
    lo = min(w[0] for w in windows)
    hi = max(w[1] for w in windows)

    # breakpoints: exponential kink at 0 plus sign changes of the difference
    breakpoints = {lo, hi}
    if any(isinstance(leaf, Exponential) for _, leaf in terms_mu + terms_nu):
        if lo < 0.0 < hi:
            breakpoints.add(0.0)
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = diff(grid)
    signs = np.sign(vals)
    nonzero = np.flatnonzero(signs)
    for a, b in zip(nonzero[:-1], nonzero[1:]):
        if signs[a] * signs[b] < 0:
            root = brentq(lambda x: float(diff(x)), grid[a], grid[b], xtol=1e-14)
            breakpoints.add(float(root))
    # grid points that hit a root exactly defeat the sign test; keep the ones
    # bordering a nonzero value as breakpoints
    for i in np.flatnonzero(signs == 0):
        if (i > 0 and signs[i - 1] != 0) or (i + 1 < len(signs) and signs[i + 1] != 0):
            breakpoints.add(float(grid[i]))

    pts = sorted(breakpoints)
    total = 0.0
    err = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        piece, piece_err = quad(lambda x: float(diff(x)), a, b, limit=200)
        total += abs(piece)
        err += piece_err
    tail = sum(w * _leaf_tail_mass(leaf, lo, hi) for w, leaf in terms_mu)
    tail += sum(w * _leaf_tail_mass(leaf, lo, hi) for w, leaf in terms_nu)
    err += tail
    if err > _QUAD_ABS_TOL:
        raise QuadratureNonConvergent(
            f"estimated quadrature error {err:.3e} exceeds tolerance {_QUAD_ABS_TOL:.3e}"
        )
    return float(total)

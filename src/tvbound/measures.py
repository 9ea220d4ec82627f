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
    mixtures combine component moments convexly; only atoms set ``support``.
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
        return MomentSequence(d, max_degree, power_sums(spec.points, spec.weights, max_degree),
                              spec.points)
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


def _leaf_mass(leaf: MeasureSpec, a: float, b: float) -> float:
    """Mass of a leaf on (a, b), a < b, either end possibly infinite."""
    if isinstance(leaf, Gaussian):
        # each CDF on the tail side of the mean, where erfc keeps its digits
        za = (a - leaf.mean) / (leaf.stddev * math.sqrt(2))
        zb = (b - leaf.mean) / (leaf.stddev * math.sqrt(2))
        if za >= 0:
            return 0.5 * (math.erfc(za) - math.erfc(zb))
        if zb <= 0:
            return 0.5 * (math.erfc(-zb) - math.erfc(-za))
        return 1.0 - 0.5 * (math.erfc(-za) + math.erfc(zb))
    a, b = max(a, 0.0), max(b, 0.0)
    return -math.exp(-leaf.rate * a) * math.expm1(-leaf.rate * (b - a))


# the number of grid points on which exact_tv_univariate_density scans the
# density difference for sign changes, and the width to which it bisects them
_SCAN_POINTS = 4001
_ROOT_XTOL = 1e-14


def exact_tv_univariate_density(mu: MeasureSpec, nu: MeasureSpec) -> float:
    """Exact integral |f_mu - f_nu| over R on the [0, 2] scale.

    Both specs must have univariate densities (gaussian, exponential, or
    mixtures of those).  The difference of densities is scanned for sign
    changes on a common window, and each is bisected to a bracket of
    ``_ROOT_XTOL``.  Between consecutive sign changes, and from -inf to the
    first and from the last to +inf, the difference keeps one sign, so its
    integral there is |mass_mu - mass_nu| of that piece.  The masses come
    from the leaves' CDFs (``math.erfc`` for a gaussian, ``math.exp`` for an
    exponential), so the value needs neither quadrature nor a tail bound.
    """
    terms_mu = _density_terms(mu)
    terms_nu = _density_terms(nu)
    if mu.dim != 1 or nu.dim != 1:
        raise UnsupportedDimension("density TV oracle is univariate")
    terms = terms_mu + [(-w, leaf) for w, leaf in terms_nu]

    def diff(x: np.ndarray) -> np.ndarray:
        return sum(w * _leaf_pdf(leaf, x) for w, leaf in terms)

    windows = [_leaf_window(leaf) for _, leaf in terms]
    grid = np.linspace(min(w[0] for w in windows), max(w[1] for w in windows), _SCAN_POINTS)
    signs = np.sign(diff(grid))
    # a sign change between consecutive nonzero values, zeros in between
    # skipped, brackets a crossing (or the exponential's jump at 0)
    nonzero = np.flatnonzero(signs)
    change = np.flatnonzero(signs[nonzero[:-1]] != signs[nonzero[1:]])
    i, j = nonzero[change], nonzero[change + 1]
    lo, hi, lo_sign = grid[i], grid[j], signs[i]
    for _ in range(math.ceil(math.log2((grid[1] - grid[0]) / _ROOT_XTOL))):
        mid = 0.5 * (lo + hi)
        left = np.sign(diff(mid)) == lo_sign
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)

    cuts = [-math.inf, *map(float, hi), math.inf]
    return sum(abs(sum(w * _leaf_mass(leaf, a, b) for w, leaf in terms))
               for a, b in zip(cuts[:-1], cuts[1:]))

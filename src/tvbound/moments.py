"""Truncated moment sequences, the Riesz functional, and the moment operator.

This module owns every map built on the monomial basis and its product
table: the moment operator y -> M_n(y) = sum_a y_a T[a] (``moment_matrix``,
``structure_tensor``), its adjoint G -> coefficients of v_n^T G v_n
(``poly_from_gram``) with its least-norm preimage (``gram_preimage``), the
basis change of an affine map of the variable (``affine_matrix``), and the
monomials and moments of atoms (``power_vectors``, ``power_sums``).  Other
modules go through these, so a different polynomial basis changes this module only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DegreeTooLow, DimensionMismatch
from .indexing import MonomialBasis, basis_indices, basis_size, normalize_index


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Pseudo-moment vector (phi_alpha) for all |alpha| <= max_degree.

    Values are stored densely, aligned with the graded-lex basis of
    ``basis_indices(dim, max_degree)``; in dimension 1 position k simply holds
    the k-th moment.  ``support``, (r, dim) finite points, is set when these
    are moments of atoms there (``moments`` of an ``Atomic``).  Immutable.
    """

    dim: int
    max_degree: int
    values: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self):
        expected = basis_size(self.dim, self.max_degree)
        vals = np.ascontiguousarray(self.values, dtype=float).reshape(-1)
        if vals.shape[0] != expected:
            raise ValueError(
                f"expected {expected} moments for d={self.dim}, "
                f"degree {self.max_degree}; got {vals.shape[0]}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.support is not None:
            pts = np.array(self.support, dtype=float)
            if pts.shape[1:] != (self.dim,) or not pts.size or not np.isfinite(pts).all():
                raise ValueError(f"support must be r >= 1 finite points, shape (r, {self.dim})")
            pts.setflags(write=False)
            object.__setattr__(self, "support", pts)

    @property
    def basis(self) -> MonomialBasis:
        return basis_indices(self.dim, self.max_degree)

    @property
    def mass(self) -> float:
        """Value at alpha = 0, the total mass of the (pseudo-)measure."""
        return float(self.values[0])

    def __getitem__(self, alpha) -> float:
        alpha = normalize_index(alpha, self.dim)
        if sum(alpha) > self.max_degree:
            raise DegreeTooLow(
                f"moment {alpha} exceeds max degree {self.max_degree}"
            )
        return float(self.values[self.basis.index_of(alpha)])

    def truncated(self, max_degree: int) -> "MomentSequence":
        """Restriction to degrees <= ``max_degree`` (graded prefix)."""
        if max_degree > self.max_degree:
            raise DegreeTooLow(
                f"cannot extend degree {self.max_degree} to {max_degree}"
            )
        if max_degree == self.max_degree:
            return self
        return MomentSequence(
            self.dim, max_degree, self.values[: basis_size(self.dim, max_degree)], self.support
        )


@lru_cache(maxsize=None)
def product_positions(d: int, n: int) -> np.ndarray:
    """Index table P with P[i, j] = position of alpha_i + alpha_j in the
    degree-2n basis; the backbone of the moment operator and its adjoint."""
    bn = basis_indices(d, n)
    b2n = basis_indices(d, 2 * n)
    s = len(bn)
    table = np.empty((s, s), dtype=np.intp)
    for i, a in enumerate(bn.indices):
        for j, b in enumerate(bn.indices):
            table[i, j] = b2n.index_of(tuple(x + y for x, y in zip(a, b)))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _exponents(d: int, n: int) -> np.ndarray:
    """The multi-indices of basis_indices(d, n) as an (s, d) integer table."""
    table = np.array(basis_indices(d, n).indices, dtype=np.intp)
    table.setflags(write=False)
    return table


def moment_matrix(seq: MomentSequence, n: int) -> np.ndarray:
    """Moment matrix M_n of a truncated sequence, read-only, with entries
    M(alpha, beta) = seq[alpha + beta] over the basis of degree ``n``.

    Requires ``seq.max_degree >= 2n``; the result is exactly symmetric since
    entry (i, j) and (j, i) read the same stored value.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if seq.max_degree < 2 * n:
        raise DegreeTooLow(
            f"moment matrix of order {n} needs degree {2 * n}, "
            f"sequence has {seq.max_degree}"
        )
    entries = seq.values[product_positions(seq.dim, n)]
    entries.setflags(write=False)
    return entries


@lru_cache(maxsize=None)
def structure_tensor(d: int, n: int) -> np.ndarray:
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


@lru_cache(maxsize=None)
def _pascal(degree: int) -> tuple:
    """For j, k <= ``degree``: C(k, j) as floats, the lower triangle j <= k,
    and where b^(k - j) sits in [a^0 .. a^degree, b^0 .. b^degree]."""
    k = np.arange(degree + 1)
    lags = np.subtract.outer(k, k)
    tables = (np.array([[float(comb(i, j)) for j in k] for i in k]), lags >= 0,
              degree + 1 + np.maximum(lags, 0))
    for table in tables:
        table.setflags(write=False)
    return tables


def affine_matrix(a: float, b: float, d: int, degree: int) -> np.ndarray:
    """B with v(a x + b) = B v(x) on the degree-``degree`` basis: in d = 1,
    B[k, j] = C(k, j) a^j b^(k - j); in d > 1, b must be 0 and B is diagonal."""
    if d > 1:
        if b != 0.0:
            raise DimensionMismatch("shifted variable maps are univariate")
        return np.diag((1.0 / a) ** -_exponents(d, degree).sum(axis=1))
    table, lower, b_at = _pascal(degree)
    pows = np.array([a**j for j in range(degree + 1)] + [b**j for j in range(degree + 1)])
    # the scalar formula's factors in its order, on the lower triangle only
    return np.where(lower, table * pows[: degree + 1] * pows.take(b_at), 0.0)


def power_vectors(points: np.ndarray, max_degree: int) -> np.ndarray:
    """The (s, r) matrix whose column i holds the monomials x^alpha,
    |alpha| <= ``max_degree``, at the point ``points[i]`` (shape (r, d))."""
    exps = _exponents(np.shape(points)[1], max_degree)
    return np.prod(np.asarray(points, dtype=float)[None] ** exps[:, None, :], axis=2)


def power_sums(points: np.ndarray, weights: np.ndarray, max_degree: int) -> np.ndarray:
    """Moments sum_i w_i x_i^alpha, |alpha| <= ``max_degree``, of the atoms
    ``points`` (shape (r, d)) with ``weights``, over the graded-lex basis.

    Each moment multiplies w_i by the coordinate powers in coordinate order
    and sums over the atoms pairwise, the same arithmetic as evaluating one
    monomial at a time.
    """
    points = np.asarray(points, dtype=float)
    exps = _exponents(points.shape[1], max_degree)
    terms = np.asarray(weights, dtype=float)[None, :]
    for j in range(points.shape[1]):
        # powers[k] = points[:, j] ** k as repeated products
        powers = np.vander(points[:, j], max_degree + 1, increasing=True).T
        terms = terms * powers[exps[:, j]]
    return terms.sum(axis=1)


def riesz_vector(seq: MomentSequence, coeffs: np.ndarray, degree: int) -> float:
    """Riesz functional for coefficients aligned with basis_indices(d, degree)."""
    if degree > seq.max_degree:
        raise DegreeTooLow(
            f"coefficient vector of degree {degree} exceeds sequence degree "
            f"{seq.max_degree}"
        )
    coeffs = np.asarray(coeffs, dtype=float)
    return float(coeffs @ seq.values[: coeffs.shape[0]])


def poly_from_gram(gram: np.ndarray, d: int, n: int) -> np.ndarray:
    """Coefficients (over the degree-2n basis) of v_n(x)^T G v_n(x), the
    adjoint of the moment operator: <M_n(y), G> = y . poly_from_gram(G)."""
    gram = np.asarray(gram, dtype=float)
    s = basis_size(d, n)
    if gram.shape != (s, s):
        raise ValueError(f"Gram matrix must be {s}x{s} for d={d}, n={n}")
    table = product_positions(d, n)
    out = np.zeros(basis_size(d, 2 * n))
    np.add.at(out, table.ravel(), gram.ravel())
    return out


def gram_preimage(coeffs: np.ndarray, d: int, n: int) -> np.ndarray:
    """Minimum-Frobenius symmetric matrix T with poly_from_gram(T) = coeffs:
    each coefficient spread evenly over the entries of its position."""
    table = product_positions(d, n)
    counts = np.bincount(table.ravel(), minlength=coeffs.shape[0]).astype(float)
    return (coeffs / counts)[table]

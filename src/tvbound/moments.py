"""Truncated moment sequences, the Riesz functional, and moment matrices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import DegreeTooLow
from .indexing import MonomialBasis, basis_indices, basis_size, normalize_index


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Pseudo-moment vector (phi_alpha) for all |alpha| <= max_degree.

    Values are stored densely, aligned with the graded-lex basis of
    ``basis_indices(dim, max_degree)``; in dimension 1 position k simply holds
    the k-th moment.  Instances are immutable.
    """

    dim: int
    max_degree: int
    values: np.ndarray

    def __post_init__(self):
        expected = basis_size(self.dim, self.max_degree)
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.shape[0] != expected:
            raise ValueError(
                f"expected {expected} moments for d={self.dim}, "
                f"degree {self.max_degree}; got {vals.shape[0]}"
            )
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def basis(self) -> MonomialBasis:
        return basis_indices(self.dim, self.max_degree)

    @property
    def mass(self) -> float:
        """Value at alpha = 0, the total mass of the (pseudo-)measure."""
        return float(self.values[0])

    @classmethod
    def from_mapping(cls, d: int, max_degree: int, mapping: Mapping) -> "MomentSequence":
        basis = basis_indices(d, max_degree)
        vals = np.zeros(len(basis))
        seen = np.zeros(len(basis), dtype=bool)
        for alpha, v in mapping.items():
            i = basis.index_of(normalize_index(alpha, d))
            vals[i] = float(v)
            seen[i] = True
        if not seen.all():
            missing = basis.alpha_of(int(np.flatnonzero(~seen)[0]))
            raise ValueError(f"moment for {missing} missing from mapping")
        return cls(d, max_degree, vals)

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
            self.dim, max_degree, self.values[: basis_size(self.dim, max_degree)]
        )


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Symmetric matrix M_n with entries M(alpha, beta) = seq[alpha + beta]."""

    basis: MonomialBasis
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))

    @property
    def size(self) -> int:
        return len(self.basis)


@lru_cache(maxsize=None)
def product_positions(d: int, n: int) -> np.ndarray:
    """Index table P with P[i, j] = position of alpha_i + alpha_j in the
    degree-2n basis; the backbone of moment-matrix assembly."""
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
def degree_vector(d: int, n: int) -> np.ndarray:
    """Total degree of each basis element of basis_indices(d, n)."""
    degs = np.array([sum(a) for a in basis_indices(d, n).indices], dtype=float)
    degs.setflags(write=False)
    return degs


def moment_matrix(seq: MomentSequence, n: int) -> MomentMatrix:
    """Moment matrix of order ``n`` of a truncated sequence.

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
    table = product_positions(seq.dim, n)
    return MomentMatrix(basis_indices(seq.dim, n), seq.values[table])


def riesz(seq: MomentSequence, poly: Mapping) -> float:
    """Riesz functional: sum of p_alpha * seq[alpha] over the polynomial's
    coefficient map."""
    total = 0.0
    for alpha, coeff in poly.items():
        alpha = normalize_index(alpha, seq.dim)
        if sum(alpha) > seq.max_degree:
            raise DegreeTooLow(
                f"polynomial term {alpha} exceeds sequence degree {seq.max_degree}"
            )
        total += float(coeff) * seq.values[seq.basis.index_of(alpha)]
    return float(total)


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
    """Coefficients (over the degree-2n basis) of v_n(x)^T G v_n(x)."""
    gram = np.asarray(gram, dtype=float)
    s = basis_size(d, n)
    if gram.shape != (s, s):
        raise ValueError(f"Gram matrix must be {s}x{s} for d={d}, n={n}")
    table = product_positions(d, n)
    out = np.zeros(basis_size(d, 2 * n))
    np.add.at(out, table.ravel(), gram.ravel())
    return out

"""Multi-index bookkeeping: monomial bases in graded lexicographic order.

A multi-index ``alpha`` is a tuple of ``d`` nonnegative integers; the monomial
it encodes is ``x ** alpha = x_1**alpha_1 * ... * x_d**alpha_d``.  Bases are
ordered graded-lexicographically (by total degree, then lexicographically with
``x_1`` heaviest), which makes the basis of degree ``n`` an exact prefix of
the basis of any higher degree.  Positions of multi-indices are therefore
stable across truncation levels, and everything downstream relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator

MultiIndex = tuple[int, ...]


def basis_size(d: int, n: int) -> int:
    """Number of monomials of total degree <= n in d variables, C(n+d, d)."""
    return comb(n + d, d)


def _indices_up_to(d: int, n: int) -> Iterator[MultiIndex]:
    if d == 1:
        for k in range(n + 1):
            yield (k,)
        return
    for k in range(n + 1):
        for rest in _indices_up_to(d - 1, n - k):
            yield (k,) + rest


def _grlex_key(alpha: MultiIndex):
    # degree first, then lexicographic with larger leading exponents first
    return (sum(alpha), tuple(-a for a in alpha))


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All multi-indices of total degree <= ``degree`` in ``dim`` variables.

    ``indices`` is graded-lex sorted and has length ``basis_size(dim, degree)``.
    """

    dim: int
    degree: int
    indices: tuple[MultiIndex, ...]
    _position: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.indices)

    def index_of(self, alpha: MultiIndex) -> int:
        """Position of ``alpha`` in the basis ordering."""
        return self._position[tuple(alpha)]

    def __contains__(self, alpha) -> bool:
        return tuple(alpha) in self._position


@lru_cache(maxsize=None)
def basis_indices(d: int, n: int) -> MonomialBasis:
    """Enumerate the monomial basis of degree ``n`` in ``d`` variables.

    The result is cached; bases are immutable and shared.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    indices = tuple(sorted(_indices_up_to(d, n), key=_grlex_key))
    assert len(indices) == basis_size(d, n)
    position = {alpha: i for i, alpha in enumerate(indices)}
    return MonomialBasis(d, n, indices, position)


def normalize_index(alpha, d: int) -> MultiIndex:
    """Coerce ``alpha`` (int in d=1, or any integer iterable) to a tuple."""
    if isinstance(alpha, int):
        if d != 1:
            raise ValueError("scalar multi-index only valid in dimension 1")
        alpha = (alpha,)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d:
        raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {d}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has negative entries")
    return alpha

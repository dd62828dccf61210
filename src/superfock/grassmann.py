"""Grassmann algebra on finitely many generators with a graded Hilbert norm.

The algebra on G generators k_1, ..., k_G is the same antisymmetric algebra
as the Fock space, but carries the weaker norm

    |lambda|^2 = sum_p (p!)^-2 |lambda_p|^2,

where |lambda_p| is the plain l2 norm of the degree-p amplitudes.  Generators
are taken real, k_m* = k_m, so the involution is amplitude conjugation times
the product-reversal sign.
"""

from __future__ import annotations

import numpy as np

from ._tables import (
    FrozenArray,
    antisymmetric_product,
    factorials,
    parity_class,
    popcounts,
    reversal_signs,
)

__all__ = [
    "GrassmannElement",
    "gproduct",
    "gnorm",
    "gstar",
    "gparity",
    "gexp",
]


class GrassmannElement(FrozenArray):
    """Element of the Grassmann algebra on ``generators`` generators."""

    __slots__ = ()

    def __init__(self, generators: int, amplitudes: np.ndarray):
        if generators < 0:
            raise ValueError("generator count must be nonnegative")
        super().__init__(amplitudes, (1 << generators,))

    @property
    def generators(self) -> int:
        return self.amp.shape[0].bit_length() - 1

    @classmethod
    def zero(cls, generators: int) -> "GrassmannElement":
        return cls(generators, np.zeros(1 << generators, dtype=complex))

    @classmethod
    def unit(cls, generators: int) -> "GrassmannElement":
        """The algebra unit k_0."""
        amp = np.zeros(1 << generators, dtype=complex)
        amp[0] = 1.0
        return cls(generators, amp)

    @classmethod
    def generator(cls, generators: int, m: int) -> "GrassmannElement":
        """The m-th generator (0-based)."""
        if not 0 <= m < generators:
            raise ValueError(f"generator index {m} out of range")
        amp = np.zeros(1 << generators, dtype=complex)
        amp[1 << m] = 1.0
        return cls(generators, amp)

    @classmethod
    def basis(cls, generators: int, mask: int) -> "GrassmannElement":
        if not 0 <= mask < (1 << generators):
            raise ValueError(f"mask {mask} out of range for {generators} generators")
        amp = np.zeros(1 << generators, dtype=complex)
        amp[mask] = 1.0
        return cls(generators, amp)

    def degree(self, p: int) -> "GrassmannElement":
        keep = popcounts(self.generators) == p
        return GrassmannElement(self.generators, np.where(keep, self.amp, 0.0))

    def scalar(self) -> complex:
        """Coefficient of the unit."""
        return complex(self.amp[0])

    def __repr__(self) -> str:
        return (
            f"GrassmannElement(generators={self.generators}, "
            f"nonzero={np.count_nonzero(self.amp)}, norm={gnorm(self):.6g})"
        )


def gproduct(lam: GrassmannElement, mu: GrassmannElement) -> GrassmannElement:
    """Grassmann product; continuous with |lam mu| <= sqrt(3) |lam| |mu|."""
    lam._check_same(mu)
    return GrassmannElement(
        lam.generators, antisymmetric_product(lam.amp, mu.amp, lam.generators)
    )


def _norm_weights(generators: int) -> np.ndarray:
    """Per-mask weights (p!)^-1 entering the graded norm."""
    return 1.0 / factorials(generators)[popcounts(generators)]


def gnorm(lam: GrassmannElement) -> float:
    """Graded norm: |lam|^2 = sum_p (p!)^-2 |lam_p|^2."""
    w = _norm_weights(lam.generators)
    return float(np.linalg.norm(w * lam.amp))


def gstar(lam: GrassmannElement) -> GrassmannElement:
    """Antiunitary involution with k_m* = k_m and (lam mu)* = mu* lam*."""
    return GrassmannElement(
        lam.generators, reversal_signs(lam.generators) * np.conj(lam.amp)
    )


def gparity(lam: GrassmannElement) -> str:
    """Classify the support degrees: 'even', 'odd' or 'mixed'.

    Zero is reported as 'even' (empty odd support).
    """
    return parity_class(lam.amp, popcounts(lam.generators))


def gexp(lam: GrassmannElement) -> GrassmannElement:
    """Exponential of a degree-2 element; the series ends at p = G // 2."""
    p = popcounts(lam.generators)
    if np.any(lam.amp[p != 2] != 0):
        raise ValueError("gexp requires a pure degree-2 element")
    result = GrassmannElement.unit(lam.generators)
    term = GrassmannElement.unit(lam.generators)
    for k in range(1, lam.generators // 2 + 1):
        term = gproduct(term, lam) * (1.0 / k)
        result = result + term
    return result

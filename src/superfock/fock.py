"""Finite-dimensional antisymmetric Fock space over d modes.

The Fock space over a d-dimensional one-particle space H has the 2**d basis
tensors e_A = e_{a1} ^ ... ^ e_{an}, A = {a1 < ... < an} a subset of mode
indices.  A ``FockVector`` stores the amplitude of every e_A, indexed by
bitmask.  Operators on the Fock space are plain dense (2**d, 2**d) complex
matrices acting on amplitude vectors.

Conventions fixed here and used throughout the package:

* the one-particle involution is componentwise conjugation, e_k* = e_k;
* consequently star(e_A) = (-1)^(|A|(|A|-1)/2) e_A (product-order reversal)
  and the bilinear pairing <<F, G>> = (star(F) | G) is symmetric;
* basis subsets are enumerated by increasing bitmask value.
"""

from __future__ import annotations

import numpy as np

from ._tables import (
    FrozenArray,
    antisymmetric_product,
    create_apply,
    left_multiplication,
    popcounts,
    reversal_signs,
    tau,
)

__all__ = [
    "FockVector",
    "wedge",
    "star",
    "inner",
    "bilinear",
    "create",
    "annihilate",
    "delta",
    "gamma",
    "tau",
]


class FockVector(FrozenArray):
    """Element of the antisymmetric Fock space over ``modes`` modes.

    Amplitudes are stored densely over the subset basis; instances are
    immutable (the amplitude array is marked read-only).
    """

    __slots__ = ()

    def __init__(self, modes: int, amplitudes: np.ndarray):
        if modes < 0:
            raise ValueError("mode count must be nonnegative")
        super().__init__(amplitudes, (1 << modes,))

    @property
    def modes(self) -> int:
        return self.amp.shape[0].bit_length() - 1

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, modes: int) -> "FockVector":
        return cls(modes, np.zeros(1 << modes, dtype=complex))

    @classmethod
    def vacuum(cls, modes: int) -> "FockVector":
        amp = np.zeros(1 << modes, dtype=complex)
        amp[0] = 1.0
        return cls(modes, amp)

    @classmethod
    def basis(cls, modes: int, mask: int) -> "FockVector":
        """Basis tensor e_A for the subset bitmask A."""
        if not 0 <= mask < (1 << modes):
            raise ValueError(f"mask {mask} out of range for {modes} modes")
        amp = np.zeros(1 << modes, dtype=complex)
        amp[mask] = 1.0
        return cls(modes, amp)

    @classmethod
    def from_vector(cls, f: np.ndarray) -> "FockVector":
        """Embed a one-particle vector as a degree-1 tensor."""
        f = np.asarray(f, dtype=complex)
        d = f.shape[0]
        amp = np.zeros(1 << d, dtype=complex)
        amp[1 << np.arange(d)] = f
        return cls(d, amp)

    @classmethod
    def wedge_of(cls, vectors) -> "FockVector":
        """Exterior product f_1 ^ ... ^ f_n = a+(f_1) ... a+(f_n) |0> of
        one-particle vectors, one creation update per vector."""
        vectors = np.asarray(vectors, dtype=complex)  # ragged input raises
        if vectors.ndim != 2 or not len(vectors):
            raise ValueError("need one or more equal-length vectors (use vacuum() for none)")
        amp = cls.vacuum(vectors.shape[1]).amp
        for v in vectors[::-1]:
            amp = create_apply(v, amp, len(v))
        return cls._wrap(amp)

    # -- structure ---------------------------------------------------------

    def degree(self, n: int) -> "FockVector":
        """Projection onto the degree-n component."""
        keep = popcounts(self.modes) == n
        return FockVector(self.modes, np.where(keep, self.amp, 0.0))

    def degrees(self) -> np.ndarray:
        """Sorted degrees that carry nonzero amplitude."""
        p = popcounts(self.modes)
        return np.unique(p[self.amp != 0])

    def norm(self) -> float:
        # np.sum, not a BLAS call: waking an idle BLAS thread pool costs ms
        return float(np.sqrt(np.sum(self.amp.real**2) + np.sum(self.amp.imag**2)))

    def __repr__(self) -> str:
        terms = np.count_nonzero(self.amp)
        return f"FockVector(modes={self.modes}, nonzero={terms}, norm={self.norm():.6g})"


def wedge(f: FockVector, g: FockVector) -> FockVector:
    """Exterior product; e_A ^ e_B = (-1)^tau(A,B) e_{A u B} on disjoint subsets."""
    f._check_same(g)
    return FockVector(f.modes, antisymmetric_product(f.amp, g.amp, f.modes))


def star(f: FockVector) -> FockVector:
    """Antiunitary involution with e_k* = e_k and (F ^ G)* = G* ^ F*."""
    return FockVector(f.modes, reversal_signs(f.modes) * np.conj(f.amp))


def inner(f: FockVector, g: FockVector) -> complex:
    """Hermitian inner product (F | G), antilinear in the first argument."""
    f._check_same(g)
    return complex(np.sum(np.conj(f.amp) * g.amp))  # np.sum, not a BLAS call


def bilinear(f: FockVector, g: FockVector) -> complex:
    """Symmetric bilinear form <<F, G>> = (star(F) | G)."""
    f._check_same(g)
    return complex(np.sum(reversal_signs(f.modes) * f.amp * g.amp))


def create(f: np.ndarray) -> np.ndarray:
    """Creation operator a+(f), acting as F -> f ^ F.  Linear in f."""
    vec = FockVector.from_vector(f)
    return left_multiplication(vec.amp, vec.modes)


def annihilate(f: np.ndarray) -> np.ndarray:
    """Annihilation operator a-(f) = a+(f)^dagger.  Antilinear in f."""
    return create(f).conj().T


def delta(f: np.ndarray) -> np.ndarray:
    """Antihermitean field difference a+(f) - a-(f)."""
    cr = create(f)
    return cr - cr.conj().T


def gamma(b: np.ndarray) -> np.ndarray:
    """Multiplicative second quantization of a one-particle operator.

    Maps the vacuum to itself and f_1 ^ ... ^ f_n to (b f_1) ^ ... ^ (b f_n);
    the entry between e_A and e_B is the minor det b[A, B].  Built by the
    recursion Gamma(b) e_A = (b e_k) ^ Gamma(b) e_{A - k}, k the lowest bit
    of A, one creation update of a column block per k: numpy's determinants
    go through exp(log|det|), whose rounding the implementer's cancellations
    would amplify.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("gamma expects a square matrix")
    d = b.shape[0]
    dim = 1 << d
    op = np.zeros((dim, dim), dtype=complex)
    op[0, 0] = 1.0
    for k in reversed(range(d)):
        rest = np.arange(0, dim, 2 << k)  # masks with every bit above k
        op[:, rest | (1 << k)] = create_apply(b[:, k], op[:, rest], d)
    return op


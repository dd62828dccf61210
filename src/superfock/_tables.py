"""Bitmask combinatorics shared by the antisymmetric algebras.

Basis tensors of an antisymmetric algebra over n generators are indexed by
subsets of {0, ..., n-1}, stored as bitmasks.  Bit k of a mask corresponds to
generator k; amplitudes are kept in arrays of length 2**n ordered by mask
value.  All sign bookkeeping reduces to the inversion count

    tau(A, B) = #{(a, b) in A x B : a > b},

which gives the reordering sign e_A ^ e_B = (-1)^tau(A,B) e_{A u B} for
disjoint masks A, B.  This module alone reads the wedge table; the other
modules call its three graded-product kernels, each acting along axis 0
with any trailing axes riding along: ``antisymmetric_product`` (pairing
the trailing axes by a given ``mul``), ``left_multiplication`` and
``create_apply``.  ``FrozenArray`` is the immutable array value that the
Fock, Grassmann and module-space classes share.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def tau(a: int, b: int) -> int:
    """Inversion count between the bitmasks a and b."""
    count = 0
    bits = a
    while bits:
        low = bits & -bits
        count += int(b & (low - 1)).bit_count()
        bits ^= low
    return count


@lru_cache(maxsize=None)
def popcounts(nbits: int) -> np.ndarray:
    """Array of bit counts for all masks 0 .. 2**nbits - 1."""
    masks = np.arange(1 << nbits, dtype=np.uint64)
    return np.bitwise_count(masks).astype(np.int64)


@lru_cache(maxsize=None)
def reversal_signs(nbits: int) -> np.ndarray:
    """Signs (-1)^(p(p-1)/2) per mask, p = |mask|; the order-reversal sign."""
    p = popcounts(nbits)
    return np.where((p * (p - 1) // 2) % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=None)
def factorials(n: int) -> np.ndarray:
    """[0!, 1!, ..., n!] as float64."""
    out = np.ones(n + 1)
    for k in range(1, n + 1):
        out[k] = out[k - 1] * k
    return out


@lru_cache(maxsize=None)
def wedge_table(nbits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO multiplication table of the antisymmetric product.

    Returns (left, right, out, sign) index arrays of length 3**nbits: for
    every ordered pair of disjoint masks (a, b), out = a | b and
    sign = (-1)^tau(a, b).  The entries are sorted by ``out``, so output
    mask m owns one contiguous run of its 2**|m| splittings.
    """
    size = 3**nbits
    left = np.zeros(size, dtype=np.int64)
    right = np.zeros(size, dtype=np.int64)
    sign = np.ones(size)
    for k in range(nbits):
        # the pairs over bits < k fill [0, n); bit k then joins a, passing
        # every bit of b, or joins b, passing none of a
        n = 3**k
        a, b, s = left[:n], right[:n], sign[:n]
        left[n : 2 * n], left[2 * n : 3 * n] = a | (1 << k), a
        right[n : 2 * n], right[2 * n : 3 * n] = b, b | (1 << k)
        sign[n : 2 * n] = np.where(np.bitwise_count(b) % 2, -s, s)
        sign[2 * n : 3 * n] = s
    order = np.argsort(left | right, kind="stable")
    left, right, sign = left[order], right[order], sign[order]
    return left, right, left | right, sign


def antisymmetric_product(f: np.ndarray, g: np.ndarray, nbits: int, mul=np.multiply) -> np.ndarray:
    """Graded product sum_{a, b disjoint} (-1)^tau(a, b) mul(f[a], g[b])
    into a | b, along axis 0 of the amplitude arrays f and g.

    Trailing axes ride along; ``mul`` says how they pair (``np.multiply``,
    ``np.matmul`` for operator-valued amplitudes, ``np.vecdot``, ...).  The
    sum over each output's run of the sorted table is one ``reduceat``.
    """
    left, right, _, sign = wedge_table(nbits)
    terms = (mul(f[left], g[right]).T * sign).T  # transposed, sign meets axis 0
    runs = 1 << popcounts(nbits)
    return np.add.reduceat(terms, np.cumsum(runs) - runs).astype(complex, copy=False)


def create_apply(f: np.ndarray, amp: np.ndarray, nbits: int) -> np.ndarray:
    """f ^ F for a degree-1 f and the amplitudes ``amp`` of F (axis 0;
    trailing axes ride along).

    For each bit k, e_k ^ e_B = (-1)^|B below k| e_{B | k} on the masks B
    without bit k: exactly the ``wedge_table`` entries with left == 1 << k,
    applied blockwise in O(nbits 2**nbits) time and O(2**nbits) memory per
    trailing entry.
    """
    out = np.zeros(amp.shape, dtype=complex)
    parity = (1.0 - 2.0 * (popcounts(nbits) & 1)).reshape((-1,) + (1,) * (amp.ndim - 1))
    for k in range(nbits):
        # axes: the higher bits, bit k, the 2**k lower bits, the trailing axes
        src = amp.reshape((-1, 2, 1 << k) + amp.shape[1:])
        dst = out.reshape(src.shape)
        dst[:, 1] += f[k] * parity[: 1 << k] * src[:, 0]
    return out


def left_multiplication(g: np.ndarray, nbits: int) -> np.ndarray:
    """Dense matrix of F -> g ^ F over the subset basis, with g's trailing
    axes after the two matrix axes.

    Every (out, right) pair occurs once in the wedge table, so plain
    assignment fills the matrix.  Its transpose is the contraction
    e_M -> sum_{K u L = M} (-1)^tau(K, L) g[K] e_L.
    """
    left, right, out, sign = wedge_table(nbits)
    m = np.zeros((1 << nbits, 1 << nbits) + g.shape[1:], dtype=complex)
    m[out, right] = (g[left].T * sign).T  # transposed, sign meets axis 0
    return m


def parity_class(amp: np.ndarray, degrees: np.ndarray) -> str:
    """'even', 'odd' or 'mixed' by the ``degrees`` (broadcast against
    ``amp``) that carry nonzero amplitude; zero is 'even'."""
    odd = np.broadcast_to(degrees % 2 == 1, amp.shape)[amp != 0]
    if odd.all() and odd.size:
        return "odd"
    return "mixed" if odd.any() else "even"


class FrozenArray:
    """Immutable value backed by one read-only complex array ``amp``.

    The constructor copies its input and checks the shape; ``+``, ``-``,
    negation and scalar ``*`` act on ``amp`` and return the same type.
    """

    __slots__ = ("amp",)

    def __init__(self, amplitudes, shape: tuple[int, ...]):
        amp = np.array(amplitudes, dtype=complex)
        if amp.shape != shape:
            raise ValueError(f"expected shape {shape}, got {amp.shape}")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    @classmethod
    def _wrap(cls, amp: np.ndarray):
        """Instance around a freshly computed array, without the copy."""
        new = object.__new__(cls)
        amp.setflags(write=False)
        object.__setattr__(new, "amp", amp)
        return new

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through _wrap, not __setattr__
        return type(self)._wrap, (self.amp,)

    def _check_same(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if self.amp.shape != other.amp.shape:
            raise ValueError(f"shapes differ: {self.amp.shape} != {other.amp.shape}")

    def __add__(self, other):
        self._check_same(other)
        return self._wrap(self.amp + other.amp)

    def __sub__(self, other):
        self._check_same(other)
        return self._wrap(self.amp - other.amp)

    def __neg__(self):
        return self._wrap(-self.amp)

    def __mul__(self, scalar):
        return self._wrap(self.amp * complex(scalar))

    __rmul__ = __mul__


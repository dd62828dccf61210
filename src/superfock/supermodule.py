"""Grassmann-module extension of the Fock space.

The module Fock space over G generators and d modes has basis tensors
k_P (x) e_A indexed by a generator subset P and a mode subset A; amplitudes
are stored as a (2**G, 2**d) array.  It carries

* the graded product (k_P (x) e_A) o (k_Q (x) e_B) combining both subset
  algebras with their reordering signs,
* a Grassmann-valued inner product (k_P (x) e_A | k_Q (x) e_B)
  = k_P* k_Q (e_A | e_B),
* supervectors xi = sum_mk C[m,k] k_m (x) e_k, their coherent vectors
  exp xi = sum_p xi^p / p!, and ultracoherent vectors
  Psi(X, xi) = exp(xi) o (k_0 (x) exp Omega(X)),
* regular operators sum_j mu_j (x) T_j, kept in the normal form
  sum_P k_P (x) T_P as a (2**G, 2**d, 2**d) array of Fock operators, with
  their superadjoint sum_P k_P* (x) T_P^dag.

The module norm weights the generator index with the graded Grassmann norm:
|Xi|^2 = sum_{P,A} (|P|!)^-2 |Xi[P,A]|^2.

Each product is one ``_tables.antisymmetric_product`` over the generator
index, pairing vector- or operator-valued amplitudes.
"""

from __future__ import annotations

import numpy as np

from ._tables import (
    FrozenArray,
    antisymmetric_product,
    factorials,
    left_multiplication,
    parity_class,
    popcounts,
    reversal_signs,
)
from .fock import FockVector, create
from .gaussian import exp_omega
from .grassmann import GrassmannElement

__all__ = [
    "ModuleTensor",
    "SuperVector",
    "RegularOperator",
    "mproduct",
    "lambda_inner",
    "gmul",
    "coherent",
    "ultracoherent",
    "b_plus",
    "b_minus",
    "weighted_norm",
    "regular_from_fock",
    "coherent_family_coefficients",
]


class ModuleTensor(FrozenArray):
    """Element of the module Fock space on (generators, modes)."""

    __slots__ = ()

    def __init__(self, generators: int, modes: int, amplitudes: np.ndarray):
        super().__init__(amplitudes, (1 << generators, 1 << modes))

    @property
    def generators(self) -> int:
        return self.amp.shape[0].bit_length() - 1

    @property
    def modes(self) -> int:
        return self.amp.shape[1].bit_length() - 1

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, generators: int, modes: int) -> "ModuleTensor":
        return cls(generators, modes, np.zeros((1 << generators, 1 << modes)))

    @classmethod
    def unit(cls, generators: int, modes: int) -> "ModuleTensor":
        """k_0 (x) 1_vac, the unit of the module algebra."""
        amp = np.zeros((1 << generators, 1 << modes), dtype=complex)
        amp[0, 0] = 1.0
        return cls(generators, modes, amp)

    @classmethod
    def outer(cls, lam: GrassmannElement, f: FockVector) -> "ModuleTensor":
        """Product tensor lam (x) F."""
        return cls(lam.generators, f.modes, np.outer(lam.amp, f.amp))

    @classmethod
    def embed_fock(cls, generators: int, f: FockVector) -> "ModuleTensor":
        """k_0 (x) F."""
        amp = np.zeros((1 << generators, 1 << f.modes), dtype=complex)
        amp[0, :] = f.amp
        return cls(generators, f.modes, amp)

    # -- structure -----------------------------------------------------------

    def parity(self) -> str:
        """'even'/'odd'/'mixed' by the total degree p + n of the support."""
        p = popcounts(self.generators)[:, None] + popcounts(self.modes)[None, :]
        return parity_class(self.amp, p)

    def fock_degree(self, n: int) -> "ModuleTensor":
        keep = popcounts(self.modes) == n
        return ModuleTensor(self.generators, self.modes, self.amp * keep[None, :])

    def norm(self) -> float:
        """Module norm, graded on the generator index."""
        w = 1.0 / factorials(self.generators)[popcounts(self.generators)]
        return float(np.linalg.norm(w[:, None] * self.amp))

    def star(self) -> "ModuleTensor":
        """(lam (x) F)* = lam* (x) F*."""
        signs = (
            reversal_signs(self.generators)[:, None]
            * reversal_signs(self.modes)[None, :]
        )
        return ModuleTensor(self.generators, self.modes, signs * np.conj(self.amp))

    def flatten(self) -> np.ndarray:
        """Amplitudes as a vector, generator index major (matches kron order)."""
        return self.amp.reshape(-1)

    def __repr__(self) -> str:
        return (
            f"ModuleTensor(generators={self.generators}, modes={self.modes}, "
            f"norm={self.norm():.6g})"
        )


def mproduct(theta: ModuleTensor, xi: ModuleTensor) -> ModuleTensor:
    """Module product, bilinear over both tensor factors.

    On bidegrees (p1, n1) and (p2, n2) the exchange sign is
    (-1)^(p1 p2 + n1 n2); for supervectors and the even coherent-vector
    calculus this coincides with the total-parity sign (-1)^(pi(theta) pi(xi)).
    In particular xi o Theta = (-1)^pi(Theta) Theta o xi for any supervector
    xi and parity-homogeneous Theta.
    """
    theta._check_same(xi)

    def fock_rows(a, b):  # the Fock product of paired rows
        return antisymmetric_product(a.T, b.T, theta.modes).T

    return ModuleTensor._wrap(antisymmetric_product(theta.amp, xi.amp, theta.generators, fock_rows))


def lambda_inner(theta: ModuleTensor, xi: ModuleTensor) -> GrassmannElement:
    """Grassmann-valued inner product with (theta | xi)* = (xi | theta)."""
    theta._check_same(xi)
    g = theta.generators
    starred = reversal_signs(g)[:, None] * theta.amp  # k_P* = rev[P] k_P
    return GrassmannElement._wrap(antisymmetric_product(starred, xi.amp, g, np.vecdot))


def gmul(lam: GrassmannElement, xi: ModuleTensor) -> ModuleTensor:
    """Left multiplication by a Grassmann element: lam o xi."""
    if lam.generators != xi.generators:
        raise ValueError("generator counts differ")
    return ModuleTensor._wrap(antisymmetric_product(lam.amp[:, None], xi.amp, xi.generators))


def weighted_norm(xi: ModuleTensor, alpha: float) -> float:
    """Family of norms |Xi|_(alpha)^2 = sum_n (n!)^alpha |Xi_n|^2 over
    Fock-degree slices; alpha = 0 recovers the module norm."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    wg = 1.0 / factorials(xi.generators)[popcounts(xi.generators)]
    wf = factorials(xi.modes)[popcounts(xi.modes)] ** (alpha / 2.0)
    return float(np.linalg.norm(wg[:, None] * wf[None, :] * xi.amp))


class SuperVector(FrozenArray):
    """Supervector sum_mk C[m,k] k_m (x) e_k in the restricted superspace."""

    __slots__ = ()

    def __init__(self, coeff: np.ndarray):
        shape = np.shape(coeff)
        if len(shape) != 2:
            raise ValueError("coefficient array must be (generators, modes)")
        super().__init__(coeff, shape)

    @property
    def coeff(self) -> np.ndarray:
        return self.amp

    @property
    def generators(self) -> int:
        return self.amp.shape[0]

    @property
    def modes(self) -> int:
        return self.amp.shape[1]

    @classmethod
    def zero(cls, generators: int, modes: int) -> "SuperVector":
        return cls(np.zeros((generators, modes), dtype=complex))

    @classmethod
    def basis(cls, generators: int, modes: int, m: int, k: int) -> "SuperVector":
        c = np.zeros((generators, modes), dtype=complex)
        c[m, k] = 1.0
        return cls(c)

    def to_module(self) -> ModuleTensor:
        amp = np.zeros((1 << self.generators, 1 << self.modes), dtype=complex)
        rows = 1 << np.arange(self.generators)
        cols = 1 << np.arange(self.modes)
        amp[np.ix_(rows, cols)] = self.coeff
        return ModuleTensor(self.generators, self.modes, amp)

    def star(self) -> "SuperVector":
        """xi* (real generators, e_k* = e_k): conjugate coefficients."""
        return SuperVector(np.conj(self.coeff))

    def apply(self, op: np.ndarray) -> "SuperVector":
        """Action of k_0 (x) A on the mode index."""
        return SuperVector(self.coeff @ np.asarray(op, dtype=complex).T)

    def rotate(self, u: np.ndarray, v: np.ndarray) -> "SuperVector":
        """R(U, V) xi = (k_0 (x) U) xi + (k_0 (x) V) xi*, the R-linear
        extension of f -> U f + V f* to supervectors."""
        return SuperVector(self.coeff @ u.T + np.conj(self.coeff) @ v.T)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeff))

    def __repr__(self) -> str:
        return (
            f"SuperVector(generators={self.generators}, modes={self.modes}, "
            f"norm={self.norm():.6g})"
        )


def super_inner(xi: SuperVector, eta: SuperVector) -> GrassmannElement:
    """(xi | eta) as a degree-2 Grassmann element; (xi|eta)* = (eta|xi)."""
    xi._check_same(eta)
    return lambda_inner(xi.to_module(), eta.to_module())


def super_pairing(xi: SuperVector, op: np.ndarray, eta: SuperVector) -> GrassmannElement:
    """Bilinear pairing <<xi, T eta>> = (xi* | T eta) in Lambda_2; symmetric
    in xi, eta when T is skew."""
    return super_inner(xi.star(), eta.apply(op))


def coherent(xi: SuperVector) -> ModuleTensor:
    """Coherent vector exp xi = sum_p xi^p / p! (ends at p = min(G, d))."""
    result = ModuleTensor.unit(xi.generators, xi.modes)
    term = result
    base = xi.to_module()
    for p in range(1, min(xi.generators, xi.modes) + 1):
        term = mproduct(base, term) * (1.0 / p)
        result = result + term
    return result


def ultracoherent(x: np.ndarray, xi: SuperVector) -> ModuleTensor:
    """Ultracoherent vector Psi(X, xi) = exp(xi) o (k_0 (x) exp Omega(X))."""
    gauss = ModuleTensor.embed_fock(xi.generators, exp_omega(x))
    return mproduct(coherent(xi), gauss)


class RegularOperator(FrozenArray):
    """Operator sum_P k_P (x) T_P on the module space, in normal form.

    ``amp[P]`` is the Fock operator T_P paired with the Grassmann basis
    element k_P, and (k_P (x) T)(lam (x) F) = k_P lam (x) T F.  A sum of
    terms mu_j (x) T_j reduces to T_P = sum_j mu_j[P] T_j, so products and
    the dense matrix are graded products over the generator index.
    """

    __slots__ = ()

    def __init__(self, generators: int, modes: int, terms):
        amp = np.zeros((1 << generators, 1 << modes, 1 << modes), dtype=complex)
        for mu, op in terms:
            if mu.generators != generators:
                raise ValueError("term Grassmann factor has wrong generator count")
            op = np.asarray(op, dtype=complex)
            if op.shape != amp.shape[1:]:
                raise ValueError("term Fock factor has wrong shape")
            amp += mu.amp[:, None, None] * op
        super().__init__(amp, amp.shape)

    @property
    def generators(self) -> int:
        return self.amp.shape[0].bit_length() - 1

    @property
    def modes(self) -> int:
        return self.amp.shape[1].bit_length() - 1

    @property
    def terms(self) -> tuple:
        """The nonzero (k_P, T_P) pairs of the normal form."""
        nonzero = np.flatnonzero(self.amp.reshape(len(self.amp), -1).any(axis=1))
        return tuple(
            (GrassmannElement.basis(self.generators, p), self.amp[p]) for p in nonzero
        )

    @classmethod
    def identity(cls, generators: int, modes: int) -> "RegularOperator":
        return regular_from_fock(generators, np.eye(1 << modes))

    def apply(self, xi: ModuleTensor) -> ModuleTensor:
        if (xi.generators, xi.modes) != (self.generators, self.modes):
            raise ValueError("tensor shape does not match operator")
        acted = antisymmetric_product(self.amp, xi.amp[..., None], self.generators, np.matmul)
        return ModuleTensor._wrap(acted[..., 0])

    def materialize(self) -> np.ndarray:
        """Dense matrix on flattened amplitudes (generator index major).

        Block (P u Q, Q) is (-1)^tau(P, Q) T_P: left multiplication by the
        operator-valued Grassmann element, generator and mode axes interleaved.
        """
        ng, nd = self.amp.shape[:2]
        blocks = left_multiplication(self.amp, self.generators)  # [P u Q, Q, i, j]
        return blocks.transpose(0, 2, 1, 3).reshape(ng * nd, ng * nd)

    def superadjoint(self) -> "RegularOperator":
        """sum k_P (x) T_P -> sum k_P* (x) T_P^dag; the adjoint for the
        Grassmann-valued inner product."""
        rev = reversal_signs(self.generators)[:, None, None]
        return self._wrap(rev * np.conj(self.amp).transpose(0, 2, 1))

    def compose(self, other: "RegularOperator") -> "RegularOperator":
        """Operator product self o other: k_P k_Q (x) T_P S_Q."""
        self._check_same(other)
        return self._wrap(antisymmetric_product(self.amp, other.amp, self.generators, np.matmul))

    def left_gmul(self, lam: GrassmannElement) -> "RegularOperator":
        """lam o self: lam k_P (x) T_P."""
        if lam.generators != self.generators:
            raise ValueError("generator counts differ")
        return self._wrap(antisymmetric_product(lam.amp[:, None, None], self.amp, self.generators))

    def __repr__(self) -> str:
        return (
            f"RegularOperator(generators={self.generators}, modes={self.modes}, "
            f"terms={len(self.terms)})"
        )


def regular_from_fock(generators: int, op: np.ndarray) -> RegularOperator:
    """Lift a Fock operator to k_0 (x) T."""
    op = np.asarray(op, dtype=complex)
    modes = op.shape[0].bit_length() - 1
    return RegularOperator(
        generators, modes, [(GrassmannElement.unit(generators), op)]
    )


def b_plus(eta: SuperVector) -> RegularOperator:
    """Module creation operator b+(eta) Xi = eta o Xi."""
    terms = []
    for m in range(eta.generators):
        row = eta.coeff[m]
        if np.any(row != 0):
            terms.append(
                (GrassmannElement.generator(eta.generators, m), create(row))
            )
    return RegularOperator(eta.generators, eta.modes, terms)


def b_minus(eta: SuperVector) -> RegularOperator:
    """Module annihilation operator, the superadjoint of b+(eta)."""
    return b_plus(eta).superadjoint()


def coherent_family_coefficients(generators: int, modes: int) -> np.ndarray:
    """Deterministic separating family: all coefficient arrays with entries
    in {0, 1, i}, enumerated base-3 over the flattened (row-major) positions.

    Returns an array of shape (3**(G*d), G, d).
    """
    n = generators * modes
    count = 3**n
    digits = np.zeros((count, n), dtype=np.int64)
    idx = np.arange(count)
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = idx % 3
        idx = idx // 3
    values = np.array([0.0, 1.0, 1j])
    return values[digits].reshape(count, generators, modes)

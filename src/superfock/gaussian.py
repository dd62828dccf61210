"""Skew-symmetric operators and their Fock-space Gaussian exponentials.

A skew matrix X (X^T = -X) determines a degree-2 tensor Omega(X) through the
bilinear pairing <<Omega(X), f ^ g>> = <<f, X g>>, and its exponential
exp Omega(X) is the fermionic Gaussian vector whose amplitude on an even
subset A is the reversal sign (-1)^(|A|(|A|-1)/2) times the Pfaffian of the
principal submatrix X_A.  Overlaps of two such Gaussians reproduce
det(I + X^dag Y) on the square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._tables import create_apply, reversal_signs
from .errors import _SKEW_CLUSTER, _SKEW_KERNEL, _SKEW_PAIR, _SKEW_RTOL, SkewnessError
from .fock import FockVector

__all__ = [
    "as_skew",
    "pfaffian",
    "pfaffian_all_subsets",
    "omega",
    "exp_omega",
    "SkewCanonicalForm",
    "skew_canonical",
    "overlap_det",
    "gaussian_norm",
]


def as_skew(x: np.ndarray, rtol: float = _SKEW_RTOL) -> np.ndarray:
    """Validate skew-symmetry and return the symmetrized (X - X^T)/2.

    Accepts X when max|X + X^T| <= rtol * (1 + max|X|), which tolerates I/O
    rounding; anything worse raises ``SkewnessError``.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("skew matrix must be square")
    defect = np.max(np.abs(x + x.T)) if x.size else 0.0
    scale = 1.0 + (np.max(np.abs(x)) if x.size else 0.0)
    if defect > rtol * scale:
        raise SkewnessError(
            f"matrix is not skew-symmetric: max|X + X^T| = {defect:.3e} "
            f"exceeds {rtol:.1e} * (1 + max|X|)"
        )
    return 0.5 * (x - x.T)


def pfaffian_all_subsets(x: np.ndarray) -> np.ndarray:
    """Pfaffians of every principal submatrix X_A, indexed by subset bitmask.

    Odd subsets get 0 and the empty subset gets 1.  Expansion along the
    largest index t doubles the table once per index: the masks with top bit
    t are a+(X[:t, t]) applied to the masks below 2**t, O(d 2**d) in all.
    """
    x = np.asarray(x, dtype=complex)
    pf = np.ones(1, dtype=complex)
    for t in range(x.shape[0]):
        pf = np.concatenate([pf, create_apply(x[:t, t], pf, t)])
    return pf


def pfaffian(x: np.ndarray) -> complex:
    """Pfaffian of a skew matrix; 0 for odd dimension, Pf(X)^2 = det(X)."""
    x = as_skew(x)
    return complex(pfaffian_all_subsets(x)[-1]) if len(x) % 2 == 0 else 0j


def omega(x: np.ndarray) -> FockVector:
    """Degree-2 tensor with <<Omega(X), f ^ g>> = <<f, X g>> for all f, g.

    With the real involution e_k* = e_k this amounts to the amplitude
    -X[i, j] on the pair subset {i, j}, i < j; norm^2 = |X|_HS^2 / 2.
    """
    x = as_skew(x)
    d = x.shape[0]
    amp = np.zeros(1 << d, dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            amp[(1 << i) | (1 << j)] = -x[i, j]
    return FockVector(d, amp)


def exp_omega(x: np.ndarray) -> FockVector:
    """Gaussian vector exp Omega(X) = sum_p Omega(X)^p / p!.

    Amplitude on an even subset A is (-1)^(|A|(|A|-1)/2) Pf(X_A); odd
    subsets carry 0 and the vacuum amplitude is 1.
    """
    x = as_skew(x)
    d = x.shape[0]
    return FockVector(d, reversal_signs(d) * pfaffian_all_subsets(x))


@dataclass(frozen=True)
class SkewCanonicalForm:
    """Canonical pair form of a skew matrix.

    X acts as X f = sum_m z_m (e_m <<e_-m, f>> - e_-m <<e_m, f>>) with the
    orthonormal system given by the columns of ``e_plus`` (the e_m) and
    ``e_minus`` (the e_-m), z sorted descending; ``kernel`` spans ker X.
    """

    z: np.ndarray          # (M,) positive, descending
    e_plus: np.ndarray     # (d, M)
    e_minus: np.ndarray    # (d, M)
    kernel: np.ndarray     # (d, K)

    def reconstruct(self) -> np.ndarray:
        d = self.e_plus.shape[0]
        x = np.zeros((d, d), dtype=complex)
        for zm, ep, em in zip(self.z, self.e_plus.T, self.e_minus.T):
            x += zm * (np.outer(ep, em) - np.outer(em, ep))
        return x

    def basis(self) -> np.ndarray:
        """All columns e_1, e_-1, e_2, e_-2, ..., kernel; should be unitary."""
        cols = []
        for m in range(self.z.shape[0]):
            cols.append(self.e_plus[:, m])
            cols.append(self.e_minus[:, m])
        for k in range(self.kernel.shape[1]):
            cols.append(self.kernel[:, k])
        return np.array(cols).T


def skew_canonical(x: np.ndarray) -> SkewCanonicalForm:
    """Youla-type canonical form of a skew matrix.

    Pairs are found from the eigenstructure of X X^dag, matched through the
    antilinear action f -> X f* (which sends e_-m to z_m e_m); degenerate
    eigenvalue clusters are resolved by projection in discovery order.
    """
    x = as_skew(x)
    d = x.shape[0]
    if d == 0:
        return SkewCanonicalForm(
            np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))
        )
    gram = x @ x.conj().T
    evals, evecs = np.linalg.eigh(gram)  # ascending
    order = np.argsort(-evals)
    evals, evecs = np.clip(evals[order], 0.0, None), evecs[:, order]
    zs = np.sqrt(evals)
    zmax = zs[0] if zs.size else 0.0
    # eigh resolves eigenvalues only to ~eps * lambda_max, so kernel
    # detection must happen on the eigenvalue scale
    nonzero = evals > _SKEW_KERNEL * d * (evals[0] if evals.size else 0.0)

    kernel_cols = [evecs[:, k] for k in range(d) if not nonzero[k]]
    z_list: list[float] = []
    ep_list: list[np.ndarray] = []
    em_list: list[np.ndarray] = []

    k = 0
    while k < d and nonzero[k]:
        # cluster of (numerically) equal z values
        j = k
        while j < d and nonzero[j] and abs(zs[j] - zs[k]) <= _SKEW_CLUSTER * zmax:
            j += 1
        block = evecs[:, k:j].copy()
        while block.shape[1] > 0:
            w = block[:, 0]
            v = x @ np.conj(w)
            z = float(np.linalg.norm(v))
            if z <= _SKEW_PAIR * zmax:
                raise ArithmeticError("canonical-form pairing failed to converge")
            u = v / z
            z_list.append(z)
            ep_list.append(u)
            em_list.append(w)
            # remove span{w, u} from the cluster block
            rem = block - np.outer(w, w.conj() @ block) - np.outer(u, u.conj() @ block)
            q, r = np.linalg.qr(rem)
            keep = np.abs(np.diag(r)) > _SKEW_PAIR * max(zmax, 1.0)
            block = q[:, keep]
        k = j

    order2 = np.argsort(-np.asarray(z_list)) if z_list else []
    z = np.asarray([z_list[i] for i in order2])
    e_plus = (
        np.array([ep_list[i] for i in order2]).T if z_list else np.zeros((d, 0))
    )
    e_minus = (
        np.array([em_list[i] for i in order2]).T if z_list else np.zeros((d, 0))
    )
    kern = np.array(kernel_cols).T if kernel_cols else np.zeros((d, 0))
    return SkewCanonicalForm(z, e_plus, e_minus, kern)


def overlap_det(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product (exp Omega(X) | exp Omega(Y)) as a subset-Pfaffian sum.

    Equals sum_A conj(Pf(X_A)) Pf(Y_A); its square is det(I + X^dag Y).  The
    series form fixes the square-root branch unambiguously.
    """
    x = as_skew(x)
    y = as_skew(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    pfx = pfaffian_all_subsets(x)
    pfy = pfaffian_all_subsets(y)
    return complex(np.sum(np.conj(pfx) * pfy))  # np.sum, not a BLAS call


def gaussian_norm(x: np.ndarray) -> float:
    """Squared Fock norm of exp Omega(X): sqrt(det(I + X^dag X)).

    Also equals the product of (1 + z_m^2) over the canonical pair values
    and is bounded by exp(|X|_HS^2 / 2).
    """
    x = as_skew(x)
    evals = np.linalg.eigvalsh(np.eye(x.shape[0]) + x.conj().T @ x)
    return float(np.sqrt(np.prod(evals)))

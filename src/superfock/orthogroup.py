"""The restricted orthogonal group of R-linear isometries f -> U f + V f*.

A pair (U, V) of d x d complex matrices defines an orthogonal transformation
of the underlying real Hilbert space iff

    U U^dag + V V^dag = I = U^dag U + V^T conj(V),
    U V^T + V U^T = 0 = U^dag V + V^T conj(U).

The group structure, the kernel decomposition attached to a singular U, the
skew coset coordinate X = V conj(U)^(-1) and its lift back to the group are
implemented here, with numpy alone.  The kernel bases come from a pivoted
Gram-Schmidt with a fixed tie and phase rule; their ordered wedge fixes the
phase of the ray representation.  Building the Fock-space unitaries that
implement these transformations lives in :mod:`superfock.bogoliubov`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import _RCOND, _RESIDUAL_TOL, _SKEW_RTOL, RANK_KEEP, RANK_ZERO, RankAmbiguityError
from .gaussian import as_skew

__all__ = [
    "OrthogonalTransform",
    "KernelDecomposition",
    "CosetPoint",
    "validate",
    "identity",
    "compose",
    "inverse",
    "kernel_decomposition",
    "gen_inverse",
    "coset_coordinate",
    "lift",
    "group_norm",
    "component",
    "bcs",
    "haar_unitary",
    "random_skew",
    "random_transform",
]


def _cond_rtol(s: np.ndarray) -> tuple[float, float]:
    """cond = s[0] / s[-1] of descending nonzero singular values (1 for an
    empty spectrum) and the skewness tolerance max(_SKEW_RTOL, 64 eps cond)."""
    cond = float(s[0] / s[-1]) if s.size else 1.0
    return cond, max(_SKEW_RTOL, 64 * np.finfo(float).eps * cond)


def validate(u: np.ndarray, v: np.ndarray, tol: float = _RESIDUAL_TOL) -> dict:
    """Residual report for the four defining identities.

    Returns max-abs residuals keyed by identity plus 'max' and 'ok'.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape != v.shape:
        raise ValueError(f"U, V must be square and equal-shaped, got {u.shape}, {v.shape}")
    eye = np.eye(u.shape[0])
    defects = {
        "unitarity_left": u @ u.conj().T + v @ v.conj().T - eye,
        "unitarity_right": u.conj().T @ u + v.T @ np.conj(v) - eye,
        "skew_left": u @ v.T + v @ u.T,
        "skew_right": u.conj().T @ v + v.T @ np.conj(u),
    }
    res = {k: float(np.max(np.abs(m), initial=0.0)) for k, m in defects.items()}
    res["max"] = max(res.values())
    res["ok"] = res["max"] <= tol
    return res


class OrthogonalTransform:
    """Validated element R(U, V) of the restricted orthogonal group."""

    def __init__(self, u: np.ndarray, v: np.ndarray, check: bool = True):
        u = np.asarray(u, dtype=complex).copy()
        v = np.asarray(v, dtype=complex).copy()
        if check:
            report = validate(u, v)
            if not report["ok"]:
                raise ValueError(
                    "not an orthogonal transformation: max residual "
                    f"{report['max']:.3e} > {_RESIDUAL_TOL:.1e}"
                )
        u.setflags(write=False)
        v.setflags(write=False)
        self.u = u
        self.v = v
        self.d = u.shape[0]

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (W, s, Z^dag), U = W diag(s) Z^dag: the one SVD of U,
        shared by the kernel, the coset coordinate and the implementer."""
        svd = tuple(np.linalg.svd(self.u))
        for a in svd:
            a.setflags(write=False)
        return svd

    @cached_property
    def kernel(self) -> "KernelDecomposition":
        return kernel_decomposition(self)

    def act(self, f: np.ndarray) -> np.ndarray:
        """R f = U f + V f* on one-particle vectors."""
        f = np.asarray(f, dtype=complex)
        return self.u @ f + self.v @ np.conj(f)

    def __matmul__(self, other: "OrthogonalTransform") -> "OrthogonalTransform":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"OrthogonalTransform(d={self.d})"


def identity(d: int) -> OrthogonalTransform:
    return OrthogonalTransform(np.eye(d), np.zeros((d, d)), check=False)


def compose(r2: OrthogonalTransform, r1: OrthogonalTransform) -> OrthogonalTransform:
    """Group product: R(U2,V2) R(U1,V1) = R(U2 U1 + V2 conj(V1), U2 V1 + V2 conj(U1))."""
    if r2.d != r1.d:
        raise ValueError(f"dimension mismatch: {r2.d} != {r1.d}")
    return OrthogonalTransform(
        r2.u @ r1.u + r2.v @ np.conj(r1.v),
        r2.u @ r1.v + r2.v @ np.conj(r1.u),
        check=False,
    )


def inverse(r: OrthogonalTransform) -> OrthogonalTransform:
    """R(U, V)^-1 = R(U^dag, V^T)."""
    return OrthogonalTransform(r.u.conj().T, r.v.T, check=False)


def group_norm(r: OrthogonalTransform) -> float:
    """Group topology norm: operator norm of U plus HS norm of V."""
    return float(np.linalg.norm(r.u, 2) + np.linalg.norm(r.v, "fro"))


def _split_singular(s: np.ndarray) -> np.ndarray:
    """Boolean mask of the singular values counted as zero.

    Values inside the [RANK_ZERO, RANK_KEEP) * smax band raise
    ``RankAmbiguityError`` instead of being decided silently.
    """
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return np.ones_like(s, dtype=bool)
    zero = s < RANK_ZERO * smax
    keep = s >= RANK_KEEP * smax
    band = ~(zero | keep)
    if np.any(band):
        raise RankAmbiguityError(
            "singular value(s) inside the rank-decision band "
            f"[{RANK_ZERO:.0e}, {RANK_KEEP:.0e}) * smax: {s[band]}"
        )
    return zero


def _canonical_basis(cols: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the span of the given ON columns.

    Pivoted Gram-Schmidt over the projector onto the span: each step takes
    the residual column of largest norm (rounded to 12 decimals, lowest
    index on ties), so the vectors come in descending overlap with the
    standard basis.  Each vector's phase is fixed so its largest-magnitude
    entry (lowest index on ties) is real positive.
    """
    d, n = cols.shape
    resid = cols @ cols.conj().T
    basis = np.zeros((d, n), dtype=complex)
    for j in range(n):
        norms = np.linalg.norm(resid, axis=0)
        k = int(np.argmax(np.round(norms, 12)))
        q = resid[:, k] / norms[k]
        m = int(np.argmax(np.round(np.abs(q), 12)))
        basis[:, j] = q * np.conj(q[m] / abs(q[m]))
        resid = resid - np.outer(basis[:, j], basis[:, j].conj() @ resid)
    return basis


@dataclass(frozen=True)
class KernelDecomposition:
    """Orthogonal splitting attached to U: H0 = ker U^dag, F0 = ker U.

    ``h0`` and ``f0`` are deterministic orthonormal bases (d x n); p0/p1 and
    q0/q1 are the projectors onto H0/H1 = ran U and F0/F1 = ran U^dag.
    """

    n: int
    h0: np.ndarray
    f0: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    f1: np.ndarray          # ON basis of F1, deterministic given U


def kernel_decomposition(r: OrthogonalTransform) -> KernelDecomposition:
    """Numerically determined kernel data of U with banded rank decisions."""
    d = r.d
    w, s, zh = r._svd
    zero = _split_singular(s)
    n = int(np.sum(zero))
    h0 = _canonical_basis(w[:, zero])
    f0 = _canonical_basis(zh.conj().T[:, zero])
    f1 = zh.conj().T[:, ~zero]
    eye = np.eye(d)
    p0 = h0 @ h0.conj().T
    q0 = f0 @ f0.conj().T
    return KernelDecomposition(
        n=n, h0=h0, f0=f0, p0=p0, p1=eye - p0, q0=q0, q1=eye - q0, f1=f1
    )


def gen_inverse(a: np.ndarray) -> np.ndarray:
    """Generalized inverse: the inverse on ran A, zero on (ran A)^perp.

    Satisfies A A^(-1) = projector onto ran A and A^(-1) A = projector onto
    ran A^dag (Moore-Penrose on closed-range finite matrices).
    """
    return _pinv(*np.linalg.svd(np.asarray(a, dtype=complex)), _RCOND)


def _pinv(w: np.ndarray, s: np.ndarray, zh: np.ndarray, rcond: float) -> np.ndarray:
    """Generalized inverse from the SVD A = W diag(s) Z^dag, inverting the
    singular values above rcond * s[0]."""
    keep = s > rcond * (s[0] if s.size else 0.0)
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return zh.conj().T @ np.diag(inv_s) @ w.conj().T


@dataclass(frozen=True)
class CosetPoint:
    """Right-coset coordinate: skew X = V conj(U)^(-1) plus the H0 subspace."""

    x: np.ndarray
    h0: np.ndarray

    @property
    def kernel_dim(self) -> int:
        return self.h0.shape[1]


def coset_coordinate(r: OrthogonalTransform) -> CosetPoint:
    """Coordinate of the orbit under right multiplication by R(S, 0).

    X = V conj(U)^(-1) is skew with range in H1; together with H0 it labels
    the coset.  Invariant under R -> R R(S,0).
    """
    kd = r.kernel
    w, s, zh = r._svd
    x_raw = r.v @ np.conj(_pinv(w, s, zh, RANK_ZERO))
    # with a kernel the tolerance stays at its floor
    _, rtol = _cond_rtol(s if kd.n == 0 else s[:0])
    return CosetPoint(x=as_skew(x_raw, rtol=rtol), h0=kd.h0)


def lift(x: np.ndarray) -> OrthogonalTransform:
    """Transform on the orbit labelled by skew X:
    R((I + X X^dag)^(-1/2), X (I + X^dag X)^(-1/2))."""
    x = as_skew(x)
    d = x.shape[0]
    u = _inv_sqrt_psd(np.eye(d) + x @ x.conj().T)
    w = x @ _inv_sqrt_psd(np.eye(d) + x.conj().T @ x)
    return OrthogonalTransform(u, w, check=False)


def _inv_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Principal inverse square root of a positive definite Hermitian matrix."""
    evals, evecs = np.linalg.eigh(a)
    return (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T


def component(r: OrthogonalTransform) -> str:
    """Connected-component classifier by the parity of dim ker U."""
    return "identity-component" if r.kernel.n % 2 == 0 else "other-component"


# -- canned families and random generators ---------------------------------


def bcs(theta: float) -> OrthogonalTransform:
    """Two-mode pairing rotation R(cos(t) I2, sin(t) J), J = [[0,1],[-1,0]]."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return OrthogonalTransform(np.cos(theta) * np.eye(2), np.sin(theta) * j, check=False)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_skew(d: int, rng: np.random.Generator, scale: float = 0.7) -> np.ndarray:
    """Random complex skew-symmetric matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (z - z.T)


def random_transform(
    d: int,
    rng: np.random.Generator,
    kernel_dim: int = 0,
    scale: float = 0.7,
) -> OrthogonalTransform:
    """Random group element with a prescribed dim ker U.

    kernel_dim = 0: lift of a random skew X composed with a random R(S, 0).
    kernel_dim = n > 0: block sum of the n-mode pure particle-hole swap
    R(0, I_n) with an invertible-chart transform, conjugated by random
    C-linear rotations on both sides.
    """
    if not 0 <= kernel_dim <= d:
        raise ValueError("kernel_dim out of range")
    if kernel_dim == 0:
        r = lift(random_skew(d, rng, scale))
        s = haar_unitary(d, rng)
        return OrthogonalTransform(r.u @ s, r.v @ np.conj(s), check=False)
    n, m = kernel_dim, d - kernel_dim
    u_blk = np.zeros((d, d), dtype=complex)
    v_blk = np.zeros((d, d), dtype=complex)
    v_blk[:n, :n] = np.eye(n)
    if m:
        core = random_transform(m, rng, 0, scale)
        u_blk[n:, n:] = core.u
        v_blk[n:, n:] = core.v
    s1 = haar_unitary(d, rng)
    s2 = haar_unitary(d, rng)
    return OrthogonalTransform(
        s1 @ u_blk @ s2, s1 @ v_blk @ np.conj(s2), check=False
    )

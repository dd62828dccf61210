"""Unitary Fock-space implementers of orthogonal transformations.

For R(U, V) with invertible U, X = V conj(U)^-1 and Y = conj(U)^-1 conj(V)
are skew, and the implementer is Berezin's normal-ordered product

    T(R) = c_X  L(exp Omega(X))  Gamma(U^{dag -1})  C(Y),
    c_X = det(I + X^dag X)^(-1/4),

where L(g) is left wedge-multiplication F -> g ^ F and its transpose
C(Y) = L(Pf_Y)^T contracts with the subset Pfaffians:
C(Y) e_M = sum_{K u L = M} (-1)^tau(K, L) Pf(Y_K) e_L.  Read column by
column, this is the pullback of the coherent-vector ansatz.  L, the creation
operators and Gamma all come from the one matrix
``_tables.left_multiplication``.

Evaluated as written, the product cancels large entries once U is
ill-conditioned.  It is therefore built in U's singular-value frame
(Bloch-Messiah): with U = W S Z^dag and the n = dim ker U kernel modes last,

    T(R) = Gamma(W) (PH_n (x) T_S) Gamma(Z^dag),   V' = W^dag V conj(Z),

where T_S is the product above for R(S, V') on the nonzero singular values,
with Gamma(S^-1) diagonal, and PH_n = Delta(e_0) ... Delta(e_{n-1})
Gamma((-1)^(n+1) I) implements f -> f* on the kernel modes (the high bits,
so (x) is the Kronecker product).  PH_n is the signed complement permutation
e_K -> (-1)^(tau(K, M) + |K|) e_{M \\ K}, M = {0, ..., n-1}.  The large
factors of T_S are aligned, so the rounding error stays near eps * cond(U).

Products of implementers reproduce the group only up to the cocycle phase
chi(R2, R1) with |chi| = 1, extracted here numerically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._tables import create_apply, left_multiplication, popcounts
from .errors import _CHART_EDGE, _COND_WARN, _MOEBIUS_SKEW, _RAY_TOL, _RCOND, _RESIDUAL_TOL
from .errors import RANK_ZERO, ChartError
from .fock import FockVector, gamma
from .gaussian import as_skew, exp_omega, gaussian_norm, pfaffian_all_subsets
from .orthogroup import OrthogonalTransform, _cond_rtol, compose, coset_coordinate
from .supermodule import RegularOperator, regular_from_fock

__all__ = [
    "Implementer",
    "c_norm",
    "implement_invertible",
    "T0Block",
    "t0_duality",
    "RestrictedImplementer",
    "implement_restricted",
    "implement_general",
    "intertwining_residual",
    "module_lift",
    "cocycle",
    "ray_phase",
    "VacuumOrbit",
    "vacuum_orbit",
    "orbit_transform",
]


@dataclass(frozen=True)
class Implementer:
    """Unitary matrix implementing a canonical transformation.

    ``kernel_dim`` is dim ker U of the source transform; for a nonzero
    kernel, ``h0_basis`` records the deterministic basis whose ordered wedge
    fixes the phase of the particle-hole block.
    """

    matrix: np.ndarray
    transform: OrthogonalTransform
    kernel_dim: int
    h0_basis: np.ndarray | None = None

    @property
    def modes(self) -> int:
        return self.transform.d

    def unitarity_residual(self) -> float:
        dim = self.matrix.shape[0]
        return float(
            np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(dim)))
        )


def c_norm(x: np.ndarray) -> float:
    """Normalization constant det(I + X^dag X)^(-1/4); equals c_{X^dag}."""
    return gaussian_norm(x) ** -0.5


def implement_invertible(r: OrthogonalTransform) -> Implementer:
    """Implementer for invertible U, built in U's singular-value frame.

    The entries carry a rounding error of about eps * cond(U): unitarity
    and intertwining residuals stay within a small multiple of it.  Raises
    ``ValueError`` when U is singular and warns when cond(U) exceeds
    ``errors._COND_WARN``.
    """
    return _implement_in_frame(r, np.zeros((r.d, 0)))


def _signed_complement(n: int, shift: int = 0) -> np.ndarray:
    """The permutation e_K -> (-1)^(tau(K, M) + shift |K|) e_{M \\ K} over the
    masks K of M = {0, ..., n-1}; tau(K, M) is the sum of the indices in K."""
    masks = np.arange(1 << n)
    odd = (masks[:, None] >> np.arange(n) & 1) @ (np.arange(n) + shift) & 1
    block = np.zeros((1 << n, 1 << n), dtype=complex)
    block[masks[-1] ^ masks, masks] = 1.0 - 2.0 * odd
    return block


def _implement_in_frame(r: OrthogonalTransform, h0: np.ndarray) -> Implementer:
    """T(R) = Gamma(W) (PH_n (x) T_S) Gamma(Z^dag) with the columns ``h0``
    of W spanning ker U^dag; see the module docstring."""
    d, n = r.d, h0.shape[1]
    m = d - n
    w, s, zh = r._svd
    s = s[:m]
    smax = s[0] if m else 0.0
    if m and not s[-1] > _RCOND * smax:
        raise ValueError("U is singular; use implement_general")
    cond, rtol = _cond_rtol(s)
    if cond > _COND_WARN:
        warnings.warn(
            f"U is ill-conditioned (cond = {cond:.2e}); implementer accuracy degrades",
            stacklevel=3,
        )
    # V' = W^dag V conj(Z) couples only equal singular values; zeroing the
    # rest keeps its rounding from being amplified by S^-1
    vp = w[:, :m].conj().T @ r.v @ zh[:m].T
    vp[np.abs(s[:, None] - s[None, :]) > RANK_ZERO * smax] = 0.0
    x = as_skew(vp / s, rtol=rtol)
    y = as_skew(np.conj(vp) / s[:, None], rtol=rtol)
    gamma_s_inv = np.ones(1)
    for sk in s:
        gamma_s_inv = np.concatenate([gamma_s_inv, gamma_s_inv / sk])
    gauss = left_multiplication(exp_omega(x).amp, m)
    contract = left_multiplication(pfaffian_all_subsets(y), m).T
    t_s = c_norm(x) * (gauss @ (gamma_s_inv[:, None] * contract))
    ph = _signed_complement(n, shift=1)
    # kernel columns of Z: V^T conj(h0) spans ker U and makes V' = I there
    w_frame = np.hstack([w[:, :m], h0])
    z_frame = np.hstack([zh[:m].conj().T, r.v.T @ np.conj(h0)])
    t = gamma(w_frame) @ np.kron(ph, t_s) @ gamma(z_frame.conj().T)
    return Implementer(
        matrix=t, transform=r, kernel_dim=n, h0_basis=h0 if n else None
    )


@dataclass(frozen=True)
class T0Block:
    """Signed particle-hole block between the kernel factors.

    Maps the ordered wedges f_K of the ker-U basis onto complementary wedges
    of the ker-U^dag basis: f_K -> (-1)^tau(K, M) e_{M \\ K} with M the full
    kernel index set.  ``matrix`` is the Fock-space materialization, zero on
    the orthogonal complement of A(F0); the image of the kernel vacuum is
    the ordered wedge of ``e_basis`` (the phase convention).
    """

    e_basis: np.ndarray   # (d, n) basis of ker U^dag
    f_basis: np.ndarray   # (d, n) basis of ker U, f_m = -J^T e_m*
    block: np.ndarray     # (2^n, 2^n) signed complement permutation
    matrix: np.ndarray    # (2^d, 2^d)


def t0_duality(j: np.ndarray, e_basis: np.ndarray) -> T0Block:
    """Particle-hole duality block from the isometry J: F0* -> H0.

    Preconditions J J^dag = P0 (projector onto the span of ``e_basis``) and
    J^dag J = conj(Q0) are verified.  The induced ker-U basis is
    f_m = -J^T e_m*; the block then acts by signed complementation and its
    parity behavior flips exactly when n is odd.
    """
    j = np.asarray(j, dtype=complex)
    e_basis = np.asarray(e_basis, dtype=complex)
    d, n = e_basis.shape
    p0 = e_basis @ e_basis.conj().T
    if np.max(np.abs(j @ j.conj().T - p0)) > _RESIDUAL_TOL:
        raise ValueError("J J^dag does not match the projector onto the e-basis span")
    f_basis = -(j.T @ np.conj(e_basis))
    q0 = f_basis @ f_basis.conj().T
    if np.max(np.abs(j.conj().T @ j - np.conj(q0))) > _RESIDUAL_TOL:
        raise ValueError("J^dag J does not match conj(Q0)")

    block = _signed_complement(n)
    # masks below 2^n index the wedges of the first n (basis) columns; M \ K = masks[::-1]
    pad, masks = np.zeros((d, d - n)), np.arange(1 << n)
    in_cols = gamma(np.hstack([f_basis, pad]))[:, masks]
    out_cols = gamma(np.hstack([e_basis, pad]))[:, masks[::-1]] * block[masks[::-1], masks].real
    matrix = out_cols @ in_cols.conj().T
    return T0Block(e_basis=e_basis, f_basis=f_basis, block=block, matrix=matrix)


@dataclass(frozen=True)
class RestrictedImplementer:
    """Isometry A(F1) -> A(H1) for the invertible part of a singular R.

    ``extended`` is the full implementer of R(U + U0, P1 V) with U0 the
    partial isometry F0 -> H0 built from the kernel bases; ``matrix``
    restricts it to A(F1) (zero on the complement).
    """

    matrix: np.ndarray
    extended: Implementer
    u0: np.ndarray
    f1_projector: np.ndarray  # Gamma(Q1), the projector onto A(F1)


def implement_restricted(r: OrthogonalTransform) -> RestrictedImplementer:
    """Isometric implementer of the invertible block R(U, P1 V)."""
    kd = r.kernel
    t0 = t0_duality(kd.p0 @ r.v, kd.h0)
    u0 = kd.h0 @ t0.f_basis.conj().T
    ext = implement_invertible(OrthogonalTransform(r.u + u0, kd.p1 @ r.v))
    gamma_q1 = gamma(kd.q1)
    return RestrictedImplementer(
        matrix=ext.matrix @ gamma_q1,
        extended=ext,
        u0=u0,
        f1_projector=gamma_q1,
    )


def implement_general(r: OrthogonalTransform) -> Implementer:
    """Implementer for arbitrary valid R; the kernel of U enters the frame."""
    return _implement_in_frame(r, r.kernel.h0)


def intertwining_residual(r: OrthogonalTransform, t: np.ndarray) -> float:
    """max over real basis directions f of |T Delta(f) T^dag - Delta(Rf)|.

    With A_k = T a+(e_k) T^dag, T Delta(e_k) T^dag = A_k - A_k^dag and
    T Delta(i e_k) T^dag = i (A_k + A_k^dag).  a+(e_k) e_n = +-e_{n | k} for
    n without bit k makes A_k a half-width product, and as a+ flips parity,
    each parity block of A_k sums products of parity blocks of T, skipping
    those with an exactly zero block (an implementer has two).  The error is
    antihermitian, so blocks (0, 0), (0, 1) and (1, 1) hold every entry;
    Delta(Rf) enters as its d 2^(d-1) signed entries.  Exact for any square
    T, at 2^(3d-3) multiply-adds per mode on an implementer.
    """
    t = np.asarray(t, dtype=complex)
    d, masks = r.d, np.arange(1 << r.d)
    odd = popcounts(d) & 1
    sign = 1.0 - 2.0 * odd
    # the nonzero blocks blk[P, Q] of T (parity Q to P); each pair {2i, 2i + 1}
    # holds one mask of either parity, so m is entry m >> 1 of its class
    blocks = (t[np.ix_(masks[odd == p], masks[odd == q])] for p, q in np.ndindex(2, 2))
    blk = {pq: b for pq, b in zip(np.ndindex(2, 2), blocks) if b.any()}
    # Delta(g) on the (even, odd) block: (-1)^|m below j| times g_j at
    # (m | j, m) for odd m and times -conj(g_j) at (m, m | j) for even m
    j, m = np.nonzero((masks >> np.arange(d)[:, None] & 1) == 0)
    s, low = sign[m & ((1 << j) - 1)], odd[m] == 1
    at = (np.where(low, m | 1 << j, m) >> 1, np.where(low, m, m | 1 << j) >> 1)
    zero = np.zeros((1 << d >> 1,) * 2, dtype=complex)
    worst = [0.0]
    for k, f in enumerate(np.eye(d)):
        a = {}
        for q, p, pp in np.ndindex(2, 2, 2):
            if (p, 1 - q) in blk and (pp, q) in blk:
                n = masks[(odd == q) & (masks >> k & 1 == 0)]
                right = sign[n & ((1 << k) - 1)] * blk[pp, q][:, n >> 1]
                prod = blk[p, 1 - q][:, (n | 1 << k) >> 1] @ right.conj().T
                a[p, pp] = a[p, pp] + prod if (p, pp) in a else prod
        for c, g in ((1.0, r.act(f)), (1j, r.act(1j * f))):
            e = c * a.get((0, 1), zero) - np.conj(c) * a.get((1, 0), zero).conj().T
            e[at] -= s * np.where(low, g[j], -np.conj(g[j]))
            diag = [c * a[p, p] for p in (0, 1) if (p, p) in a]
            worst += [np.max(np.abs(b), initial=0.0) for b in [e] + [b - b.conj().T for b in diag]]
    return float(max(worst))


def module_lift(t: np.ndarray, generators: int) -> RegularOperator:
    """Module extension k_0 (x) T of a Fock implementer."""
    return regular_from_fock(generators, t)


def cocycle(r2: OrthogonalTransform, r1: OrthogonalTransform) -> complex:
    """Ray-representation multiplier chi in T(R2) T(R1) = chi T(R2 R1).

    Extracted at the largest-magnitude entry of T(R2 R1) and verified over
    the full matrix; a residual above ``errors._RAY_TOL`` relative to the
    matrix scale signals that the product is not a scalar multiple, i.e. a
    bug.
    """
    prod = implement_general(r2).matrix @ implement_general(r1).matrix
    chi, resid, ok = ray_phase(prod, implement_general(compose(r2, r1)).matrix, _RAY_TOL)
    if not ok:
        raise ArithmeticError(
            f"product is not a scalar multiple of the composed implementer "
            f"(residual {resid:.3e})"
        )
    return chi


def ray_phase(
    prod: np.ndarray, t12: np.ndarray, tol: float
) -> tuple[complex, float, bool]:
    """Phase chi with prod = chi t12 (matrices or vectors), taken at the
    largest entry of t12.

    Returns chi, the residual max|prod - chi t12| and whether that residual
    is within tol relative to the scale of prod.
    """
    idx = np.unravel_index(np.argmax(np.abs(t12)), t12.shape)
    chi = complex(prod[idx] / t12[idx])
    resid = float(np.max(np.abs(prod - chi * t12)))
    return chi, resid, resid <= tol * max(1.0, float(np.max(np.abs(prod))))


@dataclass(frozen=True)
class VacuumOrbit:
    """Image of the Fock vacuum under an implementer.

    For n = 0 this is det(I + X^dag X)^(-1/4) exp Omega(X); for n > 0 the
    ordered wedge of the kernel basis multiplies the Gaussian and the state
    is orthogonal to the vacuum.
    """

    vector: FockVector
    x: np.ndarray
    kernel_dim: int
    h0_basis: np.ndarray
    overlap: float

    def norm(self) -> float:
        return self.vector.norm()


def vacuum_orbit(r: OrthogonalTransform) -> VacuumOrbit:
    """Vacuum orbit vector of R, phase-fixed by the kernel-basis wedge."""
    kd = r.kernel
    cp = coset_coordinate(r)
    # h0_1 ^ ... ^ h0_n ^ theta; a+ never fills the vacuum amplitude
    amp = c_norm(cp.x) * exp_omega(cp.x).amp
    for h in reversed(kd.h0.T):
        amp = create_apply(h, amp, r.d)
    return VacuumOrbit(
        vector=FockVector._wrap(amp), x=cp.x, kernel_dim=kd.n, h0_basis=kd.h0,
        overlap=float(np.real(amp[0])),
    )


def orbit_transform(r2: OrthogonalTransform, x1: np.ndarray) -> tuple[complex, np.ndarray]:
    """Moebius action on vacuum-orbit coordinates:

        X3 = (U2 X1 + V2)(conj(U2) + conj(V2) X1)^(-1),

    together with the phase chi in T(R2) Theta(X1) = chi Theta(X3).  Raises
    ``ChartError`` when the denominator is singular, i.e. the transformed
    vacuum leaves the invertible-U chart.
    """
    x1 = as_skew(x1)
    denom = np.conj(r2.u) + np.conj(r2.v) @ x1
    s = np.linalg.svd(denom, compute_uv=False)
    if s[-1] < _CHART_EDGE * max(s[0], 1.0):
        raise ChartError(
            "conj(U2) + conj(V2) X1 is singular: the transformed vacuum has "
            "no overlap with the reference vacuum (kernel appears)"
        )
    x3 = as_skew((r2.u @ x1 + r2.v) @ np.linalg.inv(denom), rtol=_MOEBIUS_SKEW)
    theta1 = c_norm(x1) * exp_omega(x1)
    theta3 = c_norm(x3) * exp_omega(x3)
    # lhs is a unit vector, so ray_phase's relative check is an absolute one
    lhs = implement_general(r2).matrix @ theta1.amp
    chi, resid, ok = ray_phase(lhs, theta3.amp, _RAY_TOL)
    if not ok:
        raise ArithmeticError(
            f"transformed Gaussian does not match the Moebius image "
            f"(residual {resid:.3e})"
        )
    return chi, x3

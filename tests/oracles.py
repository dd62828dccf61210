"""Independent brute-force oracles used only by the tests.

Each oracle reaches the same quantity as the library along a different
route: Pfaffians by explicit perfect-matching sums and by expansion along
the smallest index, Gaussian exponentials by the wedge power series,
invertible-chart implementers by exponentiating a quadratic generator,
coherent amplitudes by minors of the coefficient matrix, intertwining
residuals by dense field-difference matrices, graded products by
scatter-adding over a pair list built from inversion counts, gamma by the
dense creation-matrix recursion, kernel bases by scipy's pivoted QR.
"""

import numpy as np
import scipy.linalg

from superfock._tables import popcounts, tau
from superfock.fock import FockVector, create, delta, wedge
from superfock.grassmann import GrassmannElement
from superfock.gaussian import omega, skew_canonical


def mask_indices(mask: int) -> list[int]:
    """Ascending list of set bit positions."""
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def permutation_sign(perm) -> int:
    """Sign of a permutation given as a sequence of distinct integers."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def pfaffian_matchings(m: np.ndarray) -> complex:
    """Pfaffian as the signed sum over perfect matchings."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n % 2:
        return 0.0 + 0.0j
    if n == 0:
        return 1.0 + 0.0j

    def rec(items):
        if not items:
            yield [], []
            return
        first, rest = items[0], items[1:]
        for k, second in enumerate(rest):
            for pairs, flat in rec(rest[:k] + rest[k + 1:]):
                yield [(first, second)] + pairs, [first, second] + flat

    total = 0.0 + 0.0j
    for pairs, flat in rec(list(range(n))):
        term = permutation_sign(flat)
        for i, j in pairs:
            term = term * m[i, j]
        total += term
    return total


def pfaffian_all_subsets_loop(x: np.ndarray) -> np.ndarray:
    """Subset Pfaffians by expansion along the smallest index, one mask at
    a time in increasing order."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[0]
    p = popcounts(d)
    pf = np.zeros(1 << d, dtype=complex)
    pf[0] = 1.0
    for mask in range(1, 1 << d):
        if p[mask] % 2:
            continue
        idx = mask_indices(mask)
        i = idx[0]
        acc = 0.0 + 0.0j
        sign = 1.0
        for j in idx[1:]:
            acc += sign * x[i, j] * pf[mask & ~(1 << i) & ~(1 << j)]
            sign = -sign
        pf[mask] = acc
    return pf


def intertwining_residual_dense(r, t: np.ndarray) -> float:
    """max over f in {e_k, i e_k} of |T Delta(f) T^dag - Delta(Rf)|, with
    every Delta a dense matrix."""
    d = r.d
    worst = 0.0
    for k in range(d):
        for f in (np.eye(d)[k], 1j * np.eye(d)[k]):
            lhs = t @ delta(f) @ t.conj().T
            worst = max(worst, float(np.max(np.abs(lhs - delta(r.act(f))))))
    return worst


def exp_omega_series(x: np.ndarray) -> FockVector:
    """Gaussian exponential computed purely by the wedge power series."""
    d = x.shape[0]
    om = omega(x)
    result = FockVector.vacuum(d)
    term = FockVector.vacuum(d)
    for p in range(1, d // 2 + 1):
        term = wedge(term, om) * (1.0 / p)
        result = result + term
    return result


def quadratic_generator_implementer(x: np.ndarray) -> np.ndarray:
    """Implementer of lift(X) as the matrix exponential of the quadratic
    generator -1/2 sum B_ij a+_i a+_j - 1/2 sum conj(B_ij) a-_i a-_j, with
    B the skew matrix carrying arctan of the canonical pair values of X.

    The one-parameter path exp(t B f*) passes through lift(X) at t = 1, and
    matching on the vacuum (positive overlap on both sides) fixes the phase,
    so the result must equal the column construction on the whole matrix.
    """
    d = x.shape[0]
    cf = skew_canonical(x)
    b = np.zeros((d, d), dtype=complex)
    for z, ep, em in zip(cf.z, cf.e_plus.T, cf.e_minus.T):
        b += np.arctan(z) * (np.outer(ep, em) - np.outer(em, ep))
    raising = [create(np.eye(d)[k]) for k in range(d)]
    lowering = [a.conj().T for a in raising]
    q = np.zeros((1 << d, 1 << d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if b[i, j] != 0:
                q += -0.5 * b[i, j] * raising[i] @ raising[j]
                q += -0.5 * np.conj(b[i, j]) * lowering[i] @ lowering[j]
    return scipy.linalg.expm(q)


def coherent_amplitudes_batch(coeffs: np.ndarray) -> np.ndarray:
    """Coherent-vector amplitudes by minors: amp[P, K] = det C[P, K].

    ``coeffs`` has shape (N, G, d); the result (N, 2**G, 2**d).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n, g, d = coeffs.shape
    amps = np.zeros((n, 1 << g, 1 << d), dtype=complex)
    amps[:, 0, 0] = 1.0
    for pmask in range(1, 1 << g):
        rows = [i for i in range(g) if pmask >> i & 1]
        for kmask in range(1, 1 << d):
            cols = [i for i in range(d) if kmask >> i & 1]
            if len(rows) != len(cols):
                continue
            sub = coeffs[:, rows][:, :, cols]
            if len(rows) == 1:
                amps[:, pmask, kmask] = sub[:, 0, 0]
            elif len(rows) == 2:
                amps[:, pmask, kmask] = (
                    sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
                )
            else:
                amps[:, pmask, kmask] = np.linalg.det(sub)
    return amps


def graded_product_add_at(f: np.ndarray, g: np.ndarray, nbits: int, mul=np.multiply) -> np.ndarray:
    """sum over disjoint (a, b) of (-1)^tau(a, b) mul(f[a], g[b]) into a | b,
    scatter-added with np.add.at over a pair list built mask by mask."""
    pairs = [(a, b) for a in range(1 << nbits) for b in range(1 << nbits) if not a & b]
    left = np.array([a for a, _ in pairs])
    right = np.array([b for _, b in pairs])
    sign = np.array([(-1.0) ** tau(a, b) for a, b in pairs])
    terms = mul(f[left], g[right])
    out = np.zeros((1 << nbits,) + terms.shape[1:], dtype=complex)
    np.add.at(out, left | right, sign.reshape((-1,) + (1,) * (terms.ndim - 1)) * terms)
    return out


def super_inner_loop(xi, eta) -> GrassmannElement:
    """(xi | eta) of two supervectors, coefficient by coefficient:
    the k_a k_b amplitude (a < b) is pair[a, b] - pair[b, a]."""
    g = xi.generators
    pair = np.conj(xi.coeff) @ eta.coeff.T  # [m, m'] over generators
    anti = pair - pair.T
    amp = np.zeros(1 << g, dtype=complex)
    for a in range(g):
        for b in range(a + 1, g):
            amp[(1 << a) | (1 << b)] = anti[a, b]
    return GrassmannElement(g, amp)


def gamma_dense(b: np.ndarray) -> np.ndarray:
    """Gamma(b) by Gamma(b) e_A = (b e_k) ^ Gamma(b) e_{A - k}, k the lowest
    bit of A, each step a product with the dense matrix create(b e_k)."""
    b = np.asarray(b, dtype=complex)
    d = b.shape[0]
    dim = 1 << d
    op = np.zeros((dim, dim), dtype=complex)
    op[0, 0] = 1.0
    for k in reversed(range(d)):
        rest = np.arange(0, dim, 2 << k)  # masks with every bit above k
        op[:, rest | (1 << k)] = create(b[:, k]) @ op[:, rest]
    return op


def canonical_basis_qr(cols: np.ndarray) -> np.ndarray:
    """Canonical basis of span(cols) from LAPACK's pivoted QR of the
    projector, with the phase rule of ``orthogroup._canonical_basis``.

    LAPACK pivots on unrounded norms, so where column norms tie (n = d) its
    order follows rounding noise.
    """
    d, n = cols.shape
    if n == 0:
        return np.zeros((d, 0), dtype=complex)
    q, _, _ = scipy.linalg.qr(cols @ cols.conj().T, pivoting=True)
    basis = q[:, :n].astype(complex)
    for j in range(n):
        col = basis[:, j]
        k = int(np.argmax(np.round(np.abs(col), 12)))
        basis[:, j] = col * np.conj(col[k] / abs(col[k]))
    return basis

"""Group structure, kernel decompositions, coset coordinates and lifts."""

import numpy as np
import pytest

import superfock.orthogroup as og
from superfock.errors import RankAmbiguityError, SkewnessError

from oracles import canonical_basis_qr

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_validate_identity_and_bcs():
    d = 3
    rep = og.validate(np.eye(d), np.zeros((d, d)))
    assert rep["max"] == 0.0 and rep["ok"]
    theta = 0.7
    rep = og.validate(np.cos(theta) * np.eye(2), np.sin(theta) * J2)
    assert rep["max"] < 1e-15


def test_validate_rejects_bad_pair():
    rep = og.validate(np.eye(2), np.eye(2))
    assert not rep["ok"]
    assert rep["unitarity_left"] == 1.0
    with pytest.raises(ValueError):
        og.OrthogonalTransform(np.eye(2), np.eye(2))


def test_validate_shape_mismatch():
    with pytest.raises(ValueError):
        og.validate(np.eye(2), np.zeros((3, 3)))


def test_compose_identity_and_bcs_family():
    r = og.bcs(0.4)
    rid = og.identity(2)
    out = og.compose(r, rid)
    assert np.max(np.abs(out.u - r.u)) == 0.0 and np.max(np.abs(out.v - r.v)) == 0.0
    t1, t2 = np.pi / 7, np.pi / 5
    out = og.compose(og.bcs(t2), og.bcs(t1))
    ref = og.bcs(t1 + t2)
    assert np.max(np.abs(out.u - ref.u)) < 1e-15
    assert np.max(np.abs(out.v - ref.v)) < 1e-15


def test_compose_with_inverse(rng):
    d = 4
    r = og.random_transform(d, rng)
    out = og.compose(r, og.inverse(r))
    assert np.max(np.abs(out.u - np.eye(d))) < 1e-11
    assert np.max(np.abs(out.v)) < 1e-11


def test_inverse_formulas():
    rid = og.identity(3)
    rinv = og.inverse(rid)
    assert np.max(np.abs(rinv.u - np.eye(3))) == 0.0
    theta = 0.3
    r = og.bcs(theta)
    rinv = og.inverse(r)
    assert np.max(np.abs(rinv.u - np.cos(theta) * np.eye(2))) < 1e-15
    assert np.max(np.abs(rinv.v + np.sin(theta) * J2)) < 1e-15  # J^T = -J
    back = og.inverse(rinv)
    assert np.max(np.abs(back.u - r.u)) == 0.0


def test_compose_associative(rng):
    d = 4
    for _ in range(5):
        a, b, c = (og.random_transform(d, rng) for _ in range(3))
        lhs = og.compose(og.compose(a, b), c)
        rhs = og.compose(a, og.compose(b, c))
        assert np.max(np.abs(lhs.u - rhs.u)) < 1e-10
        assert np.max(np.abs(lhs.v - rhs.v)) < 1e-10


def test_kernel_decomposition_trivial():
    kd = og.identity(3).kernel
    assert kd.n == 0 and np.max(np.abs(kd.p0)) == 0.0


def test_kernel_decomposition_full_swap():
    r = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    kd = r.kernel
    assert kd.n == 1
    assert abs(kd.p0[0, 0] - 1.0) < 1e-14 and abs(kd.q0[0, 0] - 1.0) < 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_decomposition_engineered(n, rng):
    d = 4
    for _ in range(5):
        r = og.random_transform(d, rng, kernel_dim=n)
        kd = r.kernel
        assert kd.n == n
        s = np.linalg.svd(r.u, compute_uv=False)
        assert int(np.sum(s < 1e-10)) == n  # SVD oracle agrees
        # dim ker U = dim ker U^dag
        assert kd.h0.shape[1] == kd.f0.shape[1] == n
        # U annihilates F0, U^dag annihilates H0
        assert np.max(np.abs(r.u @ kd.f0)) < 1e-12
        assert np.max(np.abs(r.u.conj().T @ kd.h0)) < 1e-12
        # bases orthonormal
        assert np.max(np.abs(kd.h0.conj().T @ kd.h0 - np.eye(n))) < 1e-12
        # P0 V = V conj(Q0) is an isometry onto H0
        p0v = kd.p0 @ r.v
        assert np.max(np.abs(p0v - r.v @ np.conj(kd.q0))) < 1e-12
        assert np.max(np.abs(p0v @ p0v.conj().T - kd.p0)) < 1e-12
        # inclusions V F1* in H1 and V^T H1* in F1
        assert np.max(np.abs(kd.p0 @ r.v @ np.conj(kd.q1))) < 1e-12
        assert np.max(np.abs(kd.q0 @ r.v.T @ np.conj(kd.p1))) < 1e-12
        # strict contraction away from the kernel block
        assert np.linalg.norm(r.v @ np.conj(kd.q1), 2) < 1.0


def _kernel_columns(r):
    w, s, zh = np.linalg.svd(r.u)
    zero = s < og.RANK_ZERO * s[0]
    return w[:, zero], zh.conj().T[:, zero]


def test_canonical_basis_matches_pivoted_qr(rng):
    # with n = d every column norm ties and the oracle's pivot follows
    # rounding noise; the tie order is tested below
    for d in range(1, 15):
        for n in range(min(d - 1, 3) + 1):
            r = og.random_transform(d, rng, kernel_dim=n)
            kd = r.kernel
            for basis, cols in zip((kd.h0, kd.f0), _kernel_columns(r)):
                assert basis.shape == (d, n)
                assert np.max(np.abs(basis - canonical_basis_qr(cols)), initial=0.0) < 1e-14


def test_canonical_basis_breaks_ties_in_ascending_order(rng):
    # n = d: the projector is I up to rounding, so every column norm ties
    for d in (1, 2, 3, 5, 8):
        kd = og.random_transform(d, rng, kernel_dim=d).kernel
        assert np.max(np.abs(kd.h0 - np.eye(d))) < 1e-14
        assert np.max(np.abs(kd.f0 - np.eye(d))) < 1e-14
        basis = og._canonical_basis(og.haar_unitary(d, rng))
        assert np.max(np.abs(basis - np.eye(d))) < 1e-14
    # axis-aligned kernels in shuffled order with random phases
    d = 6
    for modes in ([4, 1], [5, 0, 3], [2, 3, 1, 0]):
        phases = np.exp(2j * np.pi * rng.random(len(modes)))
        basis = og._canonical_basis(np.eye(d)[:, modes] * phases)
        assert np.array_equal(basis, np.eye(d)[:, sorted(modes)])


def test_splitting_into_isometries(rng):
    # R = R(0, P0 V) + R(U, P1 V): both parts preserve real inner products
    # from the respective domains
    d = 4
    r = og.random_transform(d, rng, kernel_dim=2)
    kd = r.kernel
    for _ in range(10):
        f = kd.f0 @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        g = kd.f0 @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rf = kd.p0 @ r.v @ np.conj(f)
        rg = kd.p0 @ r.v @ np.conj(g)
        assert abs(np.real(np.vdot(rf, rg)) - np.real(np.vdot(f, g))) < 1e-10
        h = kd.f1 @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        k = kd.f1 @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rh = r.u @ h + kd.p1 @ r.v @ np.conj(h)
        rk = r.u @ k + kd.p1 @ r.v @ np.conj(k)
        assert abs(np.real(np.vdot(rh, rk)) - np.real(np.vdot(h, k))) < 1e-10


def test_rank_ambiguity_detected():
    # direct sum of two pairing blocks with cos(theta_1) inside the
    # rank-decision band relative to cos(theta_2) = 1
    eps = 3e-9
    c1, s1 = eps, np.sqrt(1.0 - eps**2)
    u = np.zeros((4, 4))
    v = np.zeros((4, 4))
    u[:2, :2] = c1 * np.eye(2)
    v[:2, :2] = s1 * J2
    u[2:, 2:] = np.eye(2)
    r = og.OrthogonalTransform(u, v)
    with pytest.raises(RankAmbiguityError):
        _ = r.kernel
    with pytest.raises(RankAmbiguityError):
        og.component(r)


def test_gen_inverse_cases(rng):
    a = np.diag([2.0, 0.0])
    ai = og.gen_inverse(a)
    assert np.max(np.abs(ai - np.diag([0.5, 0.0]))) < 1e-14
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.max(np.abs(og.gen_inverse(m) - np.linalg.inv(m))) < 1e-10
    # projector identities on a rank-deficient matrix
    low = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    a = low @ low.conj().T
    ai = og.gen_inverse(a)
    p = a @ ai
    assert np.max(np.abs(p @ a - a)) < 1e-10
    assert np.max(np.abs(p - p.conj().T)) < 1e-10
    # unitary composition rules
    s = og.haar_unitary(4, rng)
    assert np.max(np.abs(og.gen_inverse(s @ a) - ai @ s.conj().T)) < 1e-10
    assert np.max(np.abs(og.gen_inverse(a @ s) - s.conj().T @ ai)) < 1e-10
    # transpose / conjugate compatibility
    assert np.max(np.abs(og.gen_inverse(a.T) - ai.T)) < 1e-10
    assert np.max(np.abs(og.gen_inverse(np.conj(a)) - np.conj(ai))) < 1e-10


def test_coset_coordinate_cases(rng):
    d = 3
    cp = og.coset_coordinate(og.identity(d))
    assert np.max(np.abs(cp.x)) == 0.0 and cp.kernel_dim == 0
    theta = 0.5
    cp = og.coset_coordinate(og.bcs(theta))
    assert np.max(np.abs(cp.x - np.tan(theta) * J2)) < 1e-14
    # invariance under right multiplication by R(S, 0), including H0
    r = og.random_transform(4, rng, kernel_dim=1)
    s = og.haar_unitary(4, rng)
    rs = og.compose(r, og.OrthogonalTransform(s, np.zeros((4, 4))))
    c1, c2 = og.coset_coordinate(r), og.coset_coordinate(rs)
    assert np.max(np.abs(c1.x - c2.x)) < 1e-10
    # subspace angle between the H0 bases
    overlap = np.linalg.svd(c1.h0.conj().T @ c2.h0, compute_uv=False)
    assert np.max(np.abs(overlap - 1.0)) < 1e-10
    # skewness and range constraint ran X in H1
    kd = r.kernel
    assert np.max(np.abs(c1.x + c1.x.T)) < 1e-12
    assert np.max(np.abs(kd.p0 @ c1.x)) < 1e-10


def test_lift_cases(rng):
    d = 2
    r = og.lift(np.zeros((d, d)))
    assert np.max(np.abs(r.u - np.eye(d))) == 0.0 and np.max(np.abs(r.v)) == 0.0
    r = og.lift(J2)
    assert np.max(np.abs(r.u - np.eye(2) / np.sqrt(2))) < 1e-14
    assert np.max(np.abs(r.v - J2 / np.sqrt(2))) < 1e-14
    for d in (3, 5):
        x = og.random_skew(d, rng)
        r = og.lift(x)
        assert og.validate(r.u, r.v)["max"] < 1e-12
        back = og.coset_coordinate(r).x
        assert np.max(np.abs(back - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))
    with pytest.raises(SkewnessError):
        og.lift(np.eye(2))


def test_group_norm(rng):
    assert og.group_norm(og.identity(3)) == 1.0
    r = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    assert og.group_norm(r) == 1.0
    # triangle inequality for the induced distance on random triples
    def dist(a, b):
        return float(np.linalg.norm(a.u - b.u, 2) + np.linalg.norm(a.v - b.v, "fro"))

    for _ in range(10):
        a, b, c = (og.random_transform(3, rng) for _ in range(3))
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_component_classification(rng):
    assert og.component(og.identity(3)) == "identity-component"
    swap = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    assert og.component(swap) == "other-component"
    assert og.component(og.lift(og.random_skew(4, rng))) == "identity-component"
    # parity is multiplicative under composition
    r1 = og.random_transform(4, rng, kernel_dim=1)
    r2 = og.random_transform(4, rng, kernel_dim=1)
    prod = og.compose(r1, r2)
    assert og.component(prod) == "identity-component"
    r3 = og.random_transform(4, rng, kernel_dim=2)
    prod = og.compose(r1, r3)
    assert og.component(prod) == "other-component"


def test_transform_act_and_matmul(rng):
    d = 3
    r1, r2 = og.random_transform(d, rng), og.random_transform(d, rng)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lhs = (r2 @ r1).act(f)
    rhs = r2.act(r1.act(f))
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # real inner products preserved
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    assert abs(np.real(np.vdot(r1.act(f), r1.act(g))) - np.real(np.vdot(f, g))) < 1e-12

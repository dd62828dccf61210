"""Weyl operators: group law, actions on coherent and ultracoherent vectors,
restriction and factorization identities."""

import numpy as np
import pytest
import scipy.linalg

import superfock.orthogroup as og
from superfock.gaussian import exp_omega
from superfock.grassmann import gexp, gnorm
from superfock.supermodule import (
    ModuleTensor,
    SuperVector,
    b_minus,
    b_plus,
    coherent,
    lambda_inner,
    mproduct,
    super_inner,
    ultracoherent,
)
from superfock.weyl import (
    WeylOperator,
    omega_form,
    weyl,
    weyl_factorize,
    weyl_on_coherent,
    weyl_on_ultracoherent,
    weyl_restricted,
)
from superfock._tables import popcounts

from conftest import random_complex

G = D = 3


def rand_sv(rng, scale=0.8, g=G, d=D):
    return SuperVector(scale * random_complex(rng, g, d))


def rand_tensor(rng, g=G, d=D):
    return ModuleTensor(g, d, random_complex(rng, 1 << g, 1 << d))


def test_omega_form_antisymmetric_r_bilinear(rng):
    xi, eta = rand_sv(rng), rand_sv(rng)
    assert gnorm(omega_form(xi, xi)) == 0.0
    lhs = omega_form(xi, eta)
    rhs = omega_form(eta, xi)
    assert np.max(np.abs(lhs.amp + rhs.amp)) < 1e-13
    # R-bilinear: real scalars factor out
    lhs2 = omega_form(2.5 * xi, eta)
    assert np.max(np.abs(lhs2.amp - 2.5 * lhs.amp)) < 1e-13
    assert np.all(lhs.amp[popcounts(G) != 2] == 0)


def test_omega_form_invariant_under_group(rng):
    for _ in range(10):
        r = og.random_transform(D, rng)
        xi, eta = rand_sv(rng), rand_sv(rng)
        lhs = omega_form(xi.rotate(r.u, r.v), eta.rotate(r.u, r.v))
        rhs = omega_form(xi, eta)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12


def test_weyl_zero_is_identity():
    w = weyl(SuperVector.zero(G, D))
    assert np.max(np.abs(w.materialize() - np.eye(1 << (G + D)))) == 0.0


def test_weyl_action_on_coherent(rng):
    for _ in range(10):
        eta, xi = rand_sv(rng), rand_sv(rng)
        lhs = weyl(eta).apply(coherent(xi))
        rhs = weyl_on_coherent(eta, xi)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12


def test_weyl_realizations_agree(rng):
    for _ in range(5):
        eta = rand_sv(rng)
        w = weyl(eta)
        expm = scipy.linalg.expm(w.generator().materialize())
        assert np.max(np.abs(w.materialize() - expm)) < 1e-9


def test_weyl_inverse_and_superadjoint(rng):
    eta = rand_sv(rng)
    w = weyl(eta).materialize()
    winv = weyl(-eta).materialize()
    assert np.max(np.abs(w @ winv - np.eye(1 << (G + D)))) < 1e-10
    wadj = weyl(eta).regular.superadjoint().materialize()
    assert np.max(np.abs(wadj - winv)) < 1e-10


def test_weyl_isometry_for_module_inner(rng):
    for _ in range(5):
        eta = rand_sv(rng)
        w = weyl(eta)
        a, b = rand_tensor(rng), rand_tensor(rng)
        lhs = lambda_inner(w.apply(a), w.apply(b))
        rhs = lambda_inner(a, b)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-10 * max(
            1.0, np.max(np.abs(rhs.amp))
        )


def test_weyl_group_law(rng):
    for _ in range(5):
        xi, eta = rand_sv(rng), rand_sv(rng)
        lhs = weyl(xi).materialize() @ weyl(eta).materialize()
        phase = gexp((-1j) * omega_form(xi, eta))
        rhs = weyl(xi + eta).regular.left_gmul(phase).materialize()
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_weyl_on_ultracoherent_closed_form(rng):
    for _ in range(5):
        eta, xi = rand_sv(rng), rand_sv(rng)
        x = og.random_skew(D, rng)
        lhs = weyl_on_ultracoherent(eta, x, xi).flatten()
        rhs = weyl(eta).materialize() @ ultracoherent(x, xi).flatten()
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_weyl_on_gaussian_special_case(rng):
    # xi = 0: W(eta) (k_0 (x) exp Omega(X)) in closed form
    eta = rand_sv(rng)
    x = og.random_skew(D, rng)
    lhs = weyl_on_ultracoherent(eta, x, SuperVector.zero(G, D)).flatten()
    rhs = weyl(eta).materialize() @ ModuleTensor.embed_fock(G, exp_omega(x)).flatten()
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_weyl_on_ultracoherent_identity_at_zero(rng):
    x = og.random_skew(D, rng)
    xi = rand_sv(rng)
    out = weyl_on_ultracoherent(SuperVector.zero(G, D), x, xi)
    assert np.max(np.abs(out.amp - ultracoherent(x, xi).amp)) < 1e-12


def test_generator_finite_difference(rng):
    t = 1e-5
    for _ in range(3):
        eta, xi = rand_sv(rng), rand_sv(rng)
        ce = coherent(xi)
        plus = weyl(t * eta).apply(ce).amp
        minus = weyl((-t) * eta).apply(ce).amp
        numeric = (plus - minus) / (2 * t)
        exact = (b_plus(eta) - b_minus(eta)).apply(ce).amp
        assert np.max(np.abs(numeric - exact)) < 1e-7


def test_weyl_restricted_identity(rng):
    # trivial case: S = I, P = I
    eta = rand_sv(rng)
    assert weyl_restricted(np.eye(D), np.eye(D), eta) < 1e-10
    # full-space random unitary
    s = og.haar_unitary(D, rng)
    assert weyl_restricted(s, np.eye(D), eta) < 1e-10
    # random 2-dim subspace inside d = 3
    for _ in range(5):
        basis = og.haar_unitary(D, rng)[:, :2]
        p = basis @ basis.conj().T
        s = basis @ og.haar_unitary(2, rng) @ basis.conj().T
        eta_f = rand_sv(rng).apply(p)
        assert weyl_restricted(s, p, eta_f) < 1e-10


def test_weyl_restricted_preconditions(rng):
    eta = rand_sv(rng)
    with pytest.raises(ValueError):
        weyl_restricted(np.eye(D), 0.5 * np.eye(D), eta)  # not a projector
    basis = og.haar_unitary(D, rng)[:, :2]
    p = basis @ basis.conj().T
    with pytest.raises(ValueError):
        weyl_restricted(np.eye(D), p, rand_sv(rng))  # eta not supported on ran P


def parity_tensor(rng, parity, mode_mask):
    tot = popcounts(G)[:, None] + popcounts(D)[None, :]
    amp = random_complex(rng, 1 << G, 1 << D)
    for m in range(1 << D):
        if m & ~mode_mask:
            amp[:, m] = 0
    amp = np.where(tot % 2 == parity, amp, 0)
    return ModuleTensor(G, D, amp)


def supported_tensor(rng, mode_mask):
    amp = random_complex(rng, 1 << G, 1 << D)
    for m in range(1 << D):
        if m & ~mode_mask:
            amp[:, m] = 0
    return ModuleTensor(G, D, amp)


def test_weyl_factorize(rng):
    p1 = np.diag([1.0, 0.0, 0.0])
    p2 = np.eye(D) - p1
    for k in (0, 1):
        eta = rand_sv(rng)
        xi1 = parity_tensor(rng, k, 0b001)
        xi2 = supported_tensor(rng, 0b110)
        lhs = weyl(eta).apply(mproduct(xi1, xi2))
        rhs = weyl_factorize(eta, p1, p2, xi1, xi2)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-10


def test_weyl_factorize_vacuum_and_one_sided(rng):
    p1 = np.diag([1.0, 0.0, 0.0])
    p2 = np.eye(D) - p1
    # vacuum first factor: plain factorization, k = 0
    xi2 = supported_tensor(rng, 0b110)
    eta = rand_sv(rng)
    unit = ModuleTensor.unit(G, D)
    lhs = weyl(eta).apply(xi2)
    rhs = weyl_factorize(eta, p1, p2, unit, xi2)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-10
    # eta supported on the second subspace only: first Weyl factor trivial
    eta2 = rand_sv(rng).apply(p2)
    xi1 = parity_tensor(rng, 1, 0b001)
    lhs = weyl(eta2).apply(mproduct(xi1, xi2))
    rhs = weyl_factorize(eta2, p1, p2, xi1, xi2)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-10


def test_weyl_factorize_rejects_mixed_parity(rng):
    p1 = np.diag([1.0, 0.0, 0.0])
    p2 = np.eye(D) - p1
    mixed = supported_tensor(rng, 0b001)
    with pytest.raises(ValueError):
        weyl_factorize(rand_sv(rng), p1, p2, mixed, supported_tensor(rng, 0b110))


def test_weyl_commutation_with_generator_group(rng):
    # W(t eta) for real t is a one-parameter group
    eta = rand_sv(rng, scale=0.5)
    w1 = weyl(0.3 * eta).materialize()
    w2 = weyl(0.7 * eta).materialize()
    w3 = weyl(1.0 * eta).materialize()
    assert np.max(np.abs(w1 @ w2 - w3)) < 1e-10

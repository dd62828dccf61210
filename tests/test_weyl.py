"""Weyl operators: group law, actions on coherent and ultracoherent vectors,
restriction and factorization identities."""

import numpy as np
import pytest
import scipy.linalg

import superfock.orthogroup as og
import superfock.selftest as battery
from superfock.gaussian import exp_omega
from superfock.grassmann import gnorm
from superfock.selftest import random_supervector, random_tensor
from superfock.supermodule import (
    ModuleTensor,
    SuperVector,
    b_minus,
    b_plus,
    coherent,
    mproduct,
    ultracoherent,
)
from superfock.weyl import (
    WeylOperator,
    omega_form,
    weyl_factorize,
    weyl_on_coherent,
    weyl_on_ultracoherent,
)
from superfock._tables import popcounts

G = D = 3


def test_weyl_module_is_importable():
    # no package attribute of the same name shadows the submodule
    import superfock.weyl as m

    assert m.__name__ == "superfock.weyl"


def test_omega_form_antisymmetric_r_bilinear(rng):
    xi, eta = random_supervector(rng, G, D), random_supervector(rng, G, D)
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
        xi, eta = random_supervector(rng, G, D), random_supervector(rng, G, D)
        lhs = omega_form(xi.rotate(r.u, r.v), eta.rotate(r.u, r.v))
        rhs = omega_form(xi, eta)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12


def test_weyl_zero_is_identity():
    w = WeylOperator(SuperVector.zero(G, D))
    assert np.max(np.abs(w.materialize() - np.eye(1 << (G + D)))) == 0.0


def test_weyl_action_on_coherent(rng):
    for _ in range(10):
        eta, xi = random_supervector(rng, G, D), random_supervector(rng, G, D)
        lhs = WeylOperator(eta).apply(coherent(xi))
        rhs = weyl_on_coherent(eta, xi)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12


def test_weyl_realizations_agree(rng):
    for _ in range(5):
        eta = random_supervector(rng, G, D)
        w = WeylOperator(eta)
        expm = scipy.linalg.expm(w.generator().materialize())
        assert np.max(np.abs(w.materialize() - expm)) < 1e-9


def test_weyl_inverse_and_superadjoint(rng):
    eta = random_supervector(rng, G, D)
    w = WeylOperator(eta).materialize()
    winv = WeylOperator(-eta).materialize()
    assert np.max(np.abs(w @ winv - np.eye(1 << (G + D)))) < 1e-10
    wadj = WeylOperator(eta).regular.superadjoint().materialize()
    assert np.max(np.abs(wadj - winv)) < 1e-10


def test_weyl_isometry_for_module_inner(rng):
    assert battery.weyl_isometry(rng, G, D, trials=5) < 1e-10


def test_weyl_group_law(rng):
    assert battery.weyl_group_law(rng, G, D, trials=5) < 1e-9


def test_weyl_on_ultracoherent_closed_form(rng):
    assert battery.weyl_on_ultracoherent(rng, G, D, trials=5) < 1e-9


def test_weyl_on_gaussian_special_case(rng):
    # xi = 0: W(eta) (k_0 (x) exp Omega(X)) in closed form
    eta = random_supervector(rng, G, D)
    x = og.random_skew(D, rng)
    lhs = weyl_on_ultracoherent(eta, x, SuperVector.zero(G, D)).flatten()
    rhs = WeylOperator(eta).materialize() @ ModuleTensor.embed_fock(G, exp_omega(x)).flatten()
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_weyl_on_ultracoherent_identity_at_zero(rng):
    x = og.random_skew(D, rng)
    xi = random_supervector(rng, G, D)
    out = weyl_on_ultracoherent(SuperVector.zero(G, D), x, xi)
    assert np.max(np.abs(out.amp - ultracoherent(x, xi).amp)) < 1e-12


def test_generator_finite_difference(rng):
    t = 1e-5
    for _ in range(3):
        eta, xi = random_supervector(rng, G, D), random_supervector(rng, G, D)
        ce = coherent(xi)
        plus = WeylOperator(t * eta).apply(ce).amp
        minus = WeylOperator((-t) * eta).apply(ce).amp
        numeric = (plus - minus) / (2 * t)
        exact = (b_plus(eta) - b_minus(eta)).apply(ce).amp
        assert np.max(np.abs(numeric - exact)) < 1e-7


def test_weyl_restricted_identity(rng):
    # full-space Haar unitary, then a Haar 2-dim subspace inside d = 3
    assert battery.weyl_subspace_restriction(rng, G, D, trials=1, rank=D) < 1e-10
    assert battery.weyl_subspace_restriction(rng, G, D, trials=5, rank=2) < 1e-10


def test_weyl_factorize(rng):
    for k in (0, 1):
        assert battery.weyl_product_factorization(rng, G, D, trials=1, parity=k) < 1e-10


def test_weyl_factorize_vacuum_and_one_sided(rng):
    p1 = np.diag([1.0, 0.0, 0.0])
    p2 = np.eye(D) - p1
    # vacuum first factor: plain factorization, k = 0
    xi2 = random_tensor(rng, G, D, mode_mask=0b110)
    eta = random_supervector(rng, G, D)
    unit = ModuleTensor.unit(G, D)
    lhs = WeylOperator(eta).apply(xi2)
    rhs = weyl_factorize(eta, p1, p2, unit, xi2)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-10
    # eta supported on the second subspace only: first Weyl factor trivial
    eta2 = random_supervector(rng, G, D).apply(p2)
    xi1 = random_tensor(rng, G, D, parity=1, mode_mask=0b001)
    lhs = WeylOperator(eta2).apply(mproduct(xi1, xi2))
    rhs = weyl_factorize(eta2, p1, p2, xi1, xi2)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-10


def test_weyl_factorize_rejects_mixed_parity(rng):
    p1 = np.diag([1.0, 0.0, 0.0])
    p2 = np.eye(D) - p1
    mixed = random_tensor(rng, G, D, mode_mask=0b001)
    with pytest.raises(ValueError):
        weyl_factorize(random_supervector(rng, G, D), p1, p2, mixed, random_tensor(rng, G, D, mode_mask=0b110))


def test_weyl_commutation_with_generator_group(rng):
    # W(t eta) for real t is a one-parameter group
    eta = random_supervector(rng, G, D, 0.5)
    w1 = WeylOperator(0.3 * eta).materialize()
    w2 = WeylOperator(0.7 * eta).materialize()
    w3 = WeylOperator(1.0 * eta).materialize()
    assert np.max(np.abs(w1 @ w2 - w3)) < 1e-10

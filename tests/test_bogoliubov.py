"""Implementers: pullback construction, duality block, singular charts,
cocycle, vacuum orbits and their transformation law."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import superfock.orthogroup as og
import superfock.selftest as battery
from superfock import _tables, fock
from superfock import bogoliubov as bg
from superfock.errors import ChartError
from superfock.fock import FockVector, delta, gamma, wedge
from superfock.gaussian import exp_omega, gaussian_norm, overlap_det
from superfock.grassmann import gexp
from superfock.supermodule import (
    SuperVector,
    coherent,
    gmul,
    super_pairing,
    ultracoherent,
)
from superfock.weyl import WeylOperator

from conftest import random_complex
from oracles import intertwining_residual_dense, quadratic_generator_implementer

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_c_norm_values(rng):
    assert bg.c_norm(np.zeros((3, 3))) == 1.0
    assert abs(bg.c_norm(J2) - 0.5**0.5) < 1e-14  # det(2 I2)^(-1/4)
    for d in (3, 4):
        x = og.random_skew(d, rng)
        assert abs(bg.c_norm(x) - bg.c_norm(-x.conj().T)) < 1e-12


def test_identity_implementer():
    for d in (1, 2, 3):
        impl = bg.implement_general(og.identity(d))
        assert np.max(np.abs(impl.matrix - np.eye(1 << d))) == 0.0


def test_vacuum_column_is_normalized_gaussian(rng):
    d = 4
    r = og.random_transform(d, rng)
    impl = bg.implement_invertible(r)
    x = og.coset_coordinate(r).x
    expected = bg.c_norm(x) * exp_omega(x)
    assert np.max(np.abs(impl.matrix[:, 0] - expected.amp)) < 1e-12


def test_bcs_closed_form():
    theta = np.pi / 4
    impl = bg.implement_invertible(og.bcs(theta))
    vac_image = impl.matrix[:, 0]
    assert abs(vac_image[0] - np.cos(theta)) < 1e-14
    assert abs(vac_image[0b11] + np.sin(theta)) < 1e-14
    assert abs(np.linalg.norm(vac_image) - 1.0) < 1e-14
    # oracle: matrix exponential of the quadratic pair generator
    x = np.tan(theta) * J2
    assert np.max(np.abs(impl.matrix - quadratic_generator_implementer(x))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_invertible_chart_against_exponential_oracle(d, rng):
    for _ in range(3):
        x = og.random_skew(d, rng)
        s = og.haar_unitary(d, rng)
        r = og.OrthogonalTransform(og.lift(x).u @ s, og.lift(x).v @ np.conj(s))
        built = bg.implement_general(r).matrix
        oracle = quadratic_generator_implementer(x) @ gamma(s)
        assert np.max(np.abs(built - oracle)) < 1e-10


def test_implement_invertible_rejects_singular():
    r = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    with pytest.raises(ValueError, match="singular"):
        bg.implement_invertible(r)


def _pairing_block(c, d=4, n=0):
    """Direct sum of a nearly-degenerate pairing block, an identity block and
    the particle-hole swap on the last n modes; cond(U) on ran U^dag is 1/c."""
    u = np.zeros((d, d))
    v = np.zeros((d, d))
    u[:2, :2] = c * np.eye(2)
    v[:2, :2] = np.sqrt(1 - c**2) * J2
    u[2 : d - n, 2 : d - n] = np.eye(d - n - 2)
    v[d - n :, d - n :] = np.eye(n)
    return og.OrthogonalTransform(u, v)


def test_implement_invertible_warns_when_ill_conditioned():
    r = _pairing_block(3e-9)  # cond(U) ~ 3e8, still outside the singular cutoff
    with pytest.warns(UserWarning, match="ill-conditioned"):
        impl = bg.implement_invertible(r)
    assert impl.unitarity_residual() < 1e-6  # accuracy degrades with cond
    # axis-aligned at cond(U) = 1e6 the factors stay exact; Gamma from
    # numpy minor determinants would leave a residual near 1e-9 here
    r = _pairing_block(1e-6)
    impl = bg.implement_invertible(r)
    assert impl.unitarity_residual() < 1e-12
    assert bg.intertwining_residual(r, impl.matrix) < 1e-12


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("d", [4, 6, 8])
def test_ill_conditioned_blocks_in_generic_orientation(d, n):
    # the frame construction's rounding error is about eps * cond(U), so the
    # bound follows cond(U) rather than a fixed tolerance
    rng = np.random.default_rng(d + n)
    for cond in 10.0 ** np.arange(2, 8):
        block = _pairing_block(1 / cond, d, n)
        w, s = og.haar_unitary(d, rng), og.haar_unitary(d, rng)
        r = og.OrthogonalTransform(w @ block.u @ s, w @ block.v @ np.conj(s))
        impl = bg.implement_general(r)
        bound = 64 * np.finfo(float).eps * cond
        assert impl.kernel_dim == n
        assert impl.unitarity_residual() <= bound
        assert bg.intertwining_residual(r, impl.matrix) <= bound


def test_unitarity_and_intertwining_random(rng):
    for d in (2, 3, 4, 5, 6):
        r = og.random_transform(d, rng)
        impl = bg.implement_general(r)
        assert impl.unitarity_residual() < 1e-10
        assert bg.intertwining_residual(r, impl.matrix) < 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_singular_chart(n, rng):
    d = 4
    for _ in range(5):
        r = og.random_transform(d, rng, kernel_dim=n)
        impl = bg.implement_general(r)
        assert impl.kernel_dim == n
        assert impl.unitarity_residual() < 1e-10
        assert bg.intertwining_residual(r, impl.matrix) < 1e-9
        # parity: commutes with Gamma(-I) for even n, anticommutes for odd
        par = gamma(-np.eye(d))
        resid = impl.matrix @ par - ((-1.0) ** n) * par @ impl.matrix
        assert np.max(np.abs(resid)) < 1e-10


def test_pure_swap_d1():
    r = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    impl = bg.implement_general(r)
    assert np.max(np.abs(impl.matrix - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-14
    assert bg.intertwining_residual(r, impl.matrix) < 1e-12


def test_zero_modes():
    r = og.identity(0)
    assert np.array_equal(bg.implement_general(r).matrix, [[1.0]])
    assert np.array_equal(bg.implement_invertible(r).matrix, [[1.0]])
    for t in (np.eye(1), np.array([[0.3 - 2.0j]])):  # no modes, no directions
        assert bg.intertwining_residual(r, t) == 0.0
    assert bg.cocycle(r, r) == 1.0
    vo = bg.vacuum_orbit(r)
    assert np.array_equal(vo.vector.amp, [1.0])
    assert vo.x.shape == (0, 0) and vo.overlap == 1.0 and vo.kernel_dim == 0
    assert og.coset_coordinate(r).x.shape == (0, 0)


@pytest.mark.parametrize("d", [0, 1])
def test_smallest_mode_counts_random(d, rng):
    for n in range(d + 1):
        for _ in range(3):
            r, r2 = (og.random_transform(d, rng, kernel_dim=n) for _ in range(2))
            t = bg.implement_general(r).matrix
            assert np.max(np.abs(t.conj().T @ t - np.eye(1 << d))) < 1e-14
            assert bg.intertwining_residual(r, t) < 1e-14
            vo = bg.vacuum_orbit(r)
            assert vo.x.shape == (d, d) and vo.kernel_dim == n
            assert np.max(np.abs(t[:, 0] - vo.vector.amp)) < 1e-14
            assert abs(abs(bg.cocycle(r, r2)) - 1.0) < 1e-14


def test_intertwining_residual_reference_cases(rng):
    d = 2
    assert bg.intertwining_residual(og.identity(d), np.eye(1 << d)) == 0.0
    theta = np.pi / 4
    r = og.bcs(theta)
    t = bg.implement_invertible(r).matrix
    # direct check on f = e_1: R e_1 = (e_1 - e_2)/sqrt(2)
    f = np.eye(2)[0]
    rf = r.act(f)
    assert np.max(np.abs(rf - np.array([1.0, -1.0]) / np.sqrt(2))) < 1e-14
    assert np.max(np.abs(t @ delta(f) @ t.conj().T - delta(rf))) < 1e-10
    # negative control: corrupt one entry sign
    bad = t.copy()
    bad[0, 0] *= -1.0
    assert bg.intertwining_residual(r, bad) > 0.1


@pytest.mark.parametrize("d", range(8))
def test_intertwining_residual_matches_dense_formula(d, rng):
    for n in range(min(d, 3) + 1):
        r = og.random_transform(d, rng, kernel_dim=n)
        t = bg.implement_general(r).matrix
        for m in (t, t + 1e-3 * random_complex(rng, *t.shape)):
            got = bg.intertwining_residual(r, m)
            assert abs(got - intertwining_residual_dense(r, m)) <= 1e-14


@pytest.mark.parametrize("block", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_intertwining_residual_sees_each_parity_block(block, rng):
    # one 1e-6 entry in a block that is zero (n = 1: T is odd) or nonzero
    d = 5
    odd = _tables.popcounts(d) & 1
    for n in (0, 1):
        r = og.random_transform(d, rng, kernel_dim=n)
        t = bg.implement_general(r).matrix.copy()
        i = rng.choice(np.flatnonzero(odd == block[0]))
        j = rng.choice(np.flatnonzero(odd == block[1]))
        t[i, j] += 1e-6 * np.exp(2j * np.pi * rng.random())
        want = intertwining_residual_dense(r, t)
        assert want > 1e-7
        assert abs(bg.intertwining_residual(r, t) - want) <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 4, 5])
def test_intertwining_residual_of_a_non_graded_unitary(d, rng):
    r = og.random_transform(d, rng, kernel_dim=d % 2)
    u = og.haar_unitary(1 << d, rng)
    want = intertwining_residual_dense(r, u)
    assert abs(bg.intertwining_residual(r, u) - want) <= 1e-14


@settings(max_examples=40)
@given(
    d=st.integers(0, 5),
    n=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-9, 1e-6, 1e-2]),
)
def test_intertwining_residual_matches_dense_formula_property(d, n, seed, scale):
    rng = np.random.default_rng(seed)
    r = og.random_transform(d, rng, kernel_dim=min(n, d))
    t = bg.implement_general(r).matrix + scale * random_complex(rng, 1 << d, 1 << d)
    assert abs(bg.intertwining_residual(r, t) - intertwining_residual_dense(r, t)) <= 1e-14


def test_intertwining_residual_builds_no_dense_fock_operator(monkeypatch, rng):
    d = 6
    r = og.random_transform(d, rng, kernel_dim=1)
    cases = [bg.implement_general(r).matrix, og.haar_unitary(1 << d, rng)]
    want = [intertwining_residual_dense(r, t) for t in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("dense Fock operator built")

    for module, name in [
        (fock, "create"), (fock, "delta"), (fock, "left_multiplication"),
        (bg, "left_multiplication"), (_tables, "left_multiplication"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    for t, w in zip(cases, want):
        assert abs(bg.intertwining_residual(r, t) - w) <= 1e-14


@pytest.mark.parametrize("n", range(6))
def test_particle_hole_block_is_a_signed_complement(n):
    # PH_n = Delta(e_0) ... Delta(e_{n-1}) Gamma((-1)^(n+1) I), built densely
    ph = gamma((-1.0) ** (n + 1) * np.eye(n))
    for k in reversed(range(n)):
        ph = delta(np.eye(n)[k]) @ ph
    assert np.array_equal(bg._signed_complement(n, shift=1), ph)
    # shift 0 is the duality block's sign (-1)^tau(K, M), tau by its definition
    full = (1 << n) - 1
    want = np.zeros((1 << n, 1 << n))
    for k in range(1 << n):
        want[full ^ k, k] = (-1.0) ** _tables.tau(k, full)
    assert np.array_equal(bg._signed_complement(n), want)


def test_t0_duality_block(rng):
    # d = 1 pure swap: input basis (1_vac, e_1), output (1_vac, e_1)
    r = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    kd = r.kernel
    t0 = bg.t0_duality(kd.p0 @ r.v, kd.h0)
    assert np.max(np.abs(t0.matrix - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-14
    # the signed-complement block on the kernel wedge basis
    assert np.max(np.abs(t0.block - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t0_intertwines_field_differences(n, rng):
    d = n + 1
    r = og.random_transform(d, rng, kernel_dim=n)
    kd = r.kernel
    j = kd.p0 @ r.v
    t0 = bg.t0_duality(j, kd.h0)
    # f-basis is orthonormal and spans ker U
    assert np.max(np.abs(t0.f_basis.conj().T @ t0.f_basis - np.eye(n))) < 1e-12
    assert np.max(np.abs(r.u @ t0.f_basis)) < 1e-12
    for _ in range(5):
        h = t0.f_basis @ random_complex(rng, n)
        lhs = t0.matrix @ delta(h)
        rhs = delta(j @ np.conj(h)) @ t0.matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_t0_duality_parity(rng):
    # image of the kernel vacuum is the ordered e-basis wedge; parity flips
    # exactly for odd kernel dimension
    for n in (1, 2):
        d = 3
        r = og.random_transform(d, rng, kernel_dim=n)
        kd = r.kernel
        t0 = bg.t0_duality(kd.p0 @ r.v, kd.h0)
        head = FockVector.vacuum(d)
        for m in range(n):
            head = wedge(head, FockVector.from_vector(kd.h0[:, m]))
        assert np.max(np.abs(t0.matrix[:, 0] - head.amp)) < 1e-12


def test_t0_duality_precondition_check(rng):
    d = 3
    r = og.random_transform(d, rng, kernel_dim=1)
    kd = r.kernel
    with pytest.raises(ValueError):
        bg.t0_duality(np.eye(d), kd.h0)  # not an isometry onto H0


def test_implement_restricted(rng):
    d = 4
    # invertible case: restriction is the full implementer
    r0 = og.random_transform(d, rng)
    ri = bg.implement_restricted(r0)
    full = bg.implement_invertible(r0)
    assert np.max(np.abs(ri.matrix - full.matrix)) < 1e-10
    # singular case: isometry exactly on the A(F1) block
    r = og.random_transform(d, rng, kernel_dim=2)
    ri = bg.implement_restricted(r)
    assert np.max(np.abs(ri.matrix.conj().T @ ri.matrix - ri.f1_projector)) < 1e-10
    # the partial isometry pairs the kernel factors
    kd = r.kernel
    assert np.max(np.abs(ri.u0 @ ri.u0.conj().T - kd.p0)) < 1e-11
    assert np.max(np.abs(ri.u0.conj().T @ ri.u0 - kd.q0)) < 1e-11


def test_implement_restricted_d1_swap():
    r = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    ri = bg.implement_restricted(r)
    # F1 = {0}: the restriction acts on scalars only
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = ri.matrix[0, 0]
    assert np.max(np.abs(ri.matrix - expected)) < 1e-12
    assert abs(abs(ri.matrix[0, 0]) - 1.0) < 1e-12


def test_gauge_covariance_exact(rng):
    # T[U S, V conj(S)] = T[U, V] Gamma(S), both charts
    for n in (0, 1, 2):
        assert battery.gauge_covariance_singular_chart(rng, 4, trials=1, kernel_dim=n) < 1e-9


@pytest.mark.parametrize("d", range(6))
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_gauge_covariance_every_kernel_dim(d, seed):
    rng = np.random.default_rng(seed)
    for n in range(d + 1):
        assert battery.gauge_covariance_singular_chart(rng, d, trials=1, kernel_dim=n) < 1e-9


def test_left_gauge_covariance_invertible(rng):
    # Gamma(S) T[U, V] = T[S U, S V] without phase in the invertible chart
    d = 3
    r = og.random_transform(d, rng)
    s = og.haar_unitary(d, rng)
    sr = og.OrthogonalTransform(s @ r.u, s @ r.v)
    lhs = gamma(s) @ bg.implement_general(r).matrix
    rhs = bg.implement_general(sr).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_adjoint_implements_inverse(rng):
    # T(R)^dag = T(R^-1) in the invertible chart (phases fixed by the ansatz)
    d = 3
    for _ in range(5):
        r = og.random_transform(d, rng)
        t = bg.implement_general(r).matrix
        tinv = bg.implement_general(og.inverse(r)).matrix
        assert np.max(np.abs(t.conj().T - tinv)) < 1e-10


def test_module_ansatz_on_coherent_vectors(rng):
    # module action: T^ exp xi = c_X exp(<xi,Y xi>/2) Psi(X, U^(dag -1) xi)
    g = d = 3
    r = og.random_transform(d, rng)
    u_inv = np.linalg.inv(r.u)
    x = og.coset_coordinate(r).x
    y = np.conj(u_inv) @ np.conj(r.v)
    y = 0.5 * (y - y.T)
    that = bg.module_lift(bg.implement_general(r).matrix, g).materialize()
    for _ in range(5):
        xi = SuperVector(0.8 * random_complex(rng, g, d))
        lhs = that @ coherent(xi).flatten()
        pref = gexp(0.5 * super_pairing(xi, y, xi))
        rhs = bg.c_norm(x) * gmul(
            pref, ultracoherent(x, xi.apply(u_inv.conj().T))
        ).flatten()
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_module_intertwining_with_weyl(rng):
    assert battery.module_intertwining(rng, 3, 3, trials=5) < 1e-9


def test_weyl_then_implementer_closed_form(rng):
    # T^ W(xi) exp eta in closed form: with s = xi + eta,
    # c_X exp(-(xi|eta) - (xi|xi)/2 + <s,Y s>/2) Psi(X, U^(dag -1) s)
    from superfock.supermodule import super_inner

    g = d = 3
    r = og.random_transform(d, rng)
    u_inv = np.linalg.inv(r.u)
    x = og.coset_coordinate(r).x
    y = np.conj(u_inv) @ np.conj(r.v)
    y = 0.5 * (y - y.T)
    that = bg.module_lift(bg.implement_general(r).matrix, g).materialize()
    for _ in range(5):
        xi = SuperVector(0.7 * random_complex(rng, g, d))
        eta = SuperVector(0.7 * random_complex(rng, g, d))
        lhs = that @ WeylOperator(xi).materialize() @ coherent(eta).flatten()
        s = xi + eta
        pref = gexp(
            (-1.0) * super_inner(xi, eta)
            + (-0.5) * super_inner(xi, xi)
            + 0.5 * super_pairing(s, y, s)
        )
        rhs = bg.c_norm(x) * gmul(
            pref, ultracoherent(x, s.apply(u_inv.conj().T))
        ).flatten()
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_t0_duality_empty_kernel():
    # n = 0: the block is 1x1 on the scalars and the Fock matrix is the
    # vacuum projector
    d = 2
    j = np.zeros((d, d))
    e_basis = np.zeros((d, 0))
    t0 = bg.t0_duality(j, e_basis)
    assert t0.block.shape == (1, 1) and t0.block[0, 0] == 1.0
    expected = np.zeros((1 << d, 1 << d))
    expected[0, 0] = 1.0
    assert np.max(np.abs(t0.matrix - expected)) == 0.0


def test_superadjoint_unitarity_on_coherents(rng):
    # T^+ T^ = id on the coherent family
    g = d = 2
    r = og.random_transform(d, rng)
    lifted = bg.module_lift(bg.implement_general(r).matrix, g)
    roundtrip = lifted.superadjoint().compose(lifted)
    for c in (np.zeros((g, d)), np.eye(g, d), 1j * np.eye(g, d)):
        ce = coherent(SuperVector(c))
        out = roundtrip.apply(ce)
        assert np.max(np.abs(out.amp - ce.amp)) < 1e-10


def test_cocycle_properties(rng):
    d = 2
    r = og.bcs(0.3)
    assert abs(bg.cocycle(r, og.identity(2)) - 1.0) < 1e-12
    # commuting one-parameter family inside the chart
    assert abs(bg.cocycle(og.bcs(np.pi / 6), og.bcs(np.pi / 4)) - 1.0) < 1e-10
    # crossing the chart boundary flips the sign
    assert abs(bg.cocycle(og.bcs(1.2), og.bcs(1.0)) + 1.0) < 1e-10
    for _ in range(5):
        ra, rb = og.random_transform(3, rng), og.random_transform(3, rng)
        chi = bg.cocycle(ra, rb)
        assert abs(abs(chi) - 1.0) < 1e-10


def test_cocycle_identity_on_triples(rng):
    d = 3
    for _ in range(5):
        r3, r2, r1 = (og.random_transform(d, rng) for _ in range(3))
        lhs = bg.cocycle(r3, r2) * bg.cocycle(og.compose(r3, r2), r1)
        rhs = bg.cocycle(r3, og.compose(r2, r1)) * bg.cocycle(r2, r1)
        assert abs(lhs - rhs) < 1e-8


def test_ray_composition_with_singular_factors(rng):
    d = 3
    ra = og.random_transform(d, rng, kernel_dim=1)
    rb = og.random_transform(d, rng, kernel_dim=1)
    chi = bg.cocycle(ra, rb)
    assert abs(abs(chi) - 1.0) < 1e-10


def test_vacuum_orbit_cases(rng):
    assert np.max(np.abs(bg.vacuum_orbit(og.identity(3)).vector.amp
                         - FockVector.vacuum(3).amp)) == 0.0
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        vo = bg.vacuum_orbit(og.bcs(theta))
        assert abs(vo.overlap - np.cos(theta)) < 1e-12
        assert abs(vo.norm() - 1.0) < 1e-12
    swap = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    vo = bg.vacuum_orbit(swap)
    assert vo.overlap == 0.0
    assert np.max(np.abs(vo.vector.amp - np.array([0.0, 1.0]))) < 1e-14


def test_vacuum_orbit_matches_implementer(rng):
    for d in (4, 6):
        for n in (0, 1, 2, 3):
            r = og.random_transform(d, rng, kernel_dim=n)
            vo = bg.vacuum_orbit(r)
            t = bg.implement_general(r).matrix
            assert np.max(np.abs(t[:, 0] - vo.vector.amp)) < 1e-11
            assert abs(vo.norm() - 1.0) < 1e-11
            if n == 0:
                # positive overlap cross-checked against the Gaussian norm
                assert vo.overlap > 0
                assert abs(vo.overlap - gaussian_norm(vo.x) ** (-0.5)) < 1e-11
            else:
                assert abs(np.vdot(FockVector.vacuum(d).amp, vo.vector.amp)) < 1e-12


@pytest.mark.parametrize("n", range(4))
def test_vacuum_orbit_matches_wedge_table_path(n, rng):
    d = 10
    r = og.random_transform(d, rng, kernel_dim=n)
    vo = bg.vacuum_orbit(r)
    want = bg.c_norm(vo.x) * exp_omega(vo.x)
    for h in reversed(vo.h0_basis.T):
        want = wedge(FockVector.from_vector(h), want)
    assert np.max(np.abs(vo.vector.amp - want.amp)) <= 1e-12 * np.max(np.abs(want.amp))


def test_orbit_path_builds_no_wedge_table(rng):
    d = 10
    r = og.random_transform(d, rng, kernel_dim=2)
    x, y = og.random_skew(d, rng), og.random_skew(d, rng)
    _tables.wedge_table.cache_clear()
    bg.vacuum_orbit(r)
    overlap_det(x, y)
    assert _tables.wedge_table.cache_info().currsize == 0


def test_vacuum_orbit_coset_invariance(rng):
    # Phi[U S, V conj(S)] = Phi[U, V]
    d = 4
    for n in (0, 1):
        r = og.random_transform(d, rng, kernel_dim=n)
        s = og.haar_unitary(d, rng)
        rs = og.OrthogonalTransform(r.u @ s, r.v @ np.conj(s))
        lhs = bg.vacuum_orbit(r).vector.amp
        rhs = bg.vacuum_orbit(rs).vector.amp
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_orbit_transform(rng):
    # identity acts trivially
    chi, x3 = bg.orbit_transform(og.identity(2), 0.4 * J2)
    assert abs(chi - 1.0) < 1e-12
    assert np.max(np.abs(x3 - 0.4 * J2)) < 1e-12
    # pairing-rotation family: tan addition law
    t1, t2 = np.pi / 6, np.pi / 4
    chi, x3 = bg.orbit_transform(og.bcs(t2), np.tan(t1) * J2)
    assert np.max(np.abs(x3 - np.tan(t1 + t2) * J2)) < 1e-10
    assert abs(abs(chi) - 1.0) < 1e-10
    # random instance with the implementer as oracle
    d = 4
    r2 = og.random_transform(d, rng)
    x1 = og.random_skew(d, rng, 0.5)
    chi, x3 = bg.orbit_transform(r2, x1)
    theta1 = bg.c_norm(x1) * exp_omega(x1)
    theta3 = bg.c_norm(x3) * exp_omega(x3)
    lhs = bg.implement_general(r2).matrix @ theta1.amp
    assert np.max(np.abs(lhs - chi * theta3.amp)) < 1e-8


def test_orbit_transform_chart_exit():
    with pytest.raises(ChartError):
        bg.orbit_transform(og.bcs(np.pi / 3), np.tan(np.pi / 6) * J2)

"""Module Fock space: products, Grassmann-valued inner product, coherent and
ultracoherent vectors, regular operators, separating families."""

import copy
import pickle

import numpy as np
import pytest

import superfock.selftest as battery
from superfock._tables import left_multiplication, popcounts, reversal_signs
from superfock.fock import FockVector
from superfock.gaussian import exp_omega
from superfock.grassmann import GrassmannElement, gexp, gnorm, gproduct, gstar
from superfock.orthogroup import random_skew
from superfock.selftest import random_supervector, random_tensor
from superfock.supermodule import (
    ModuleTensor,
    RegularOperator,
    SuperVector,
    b_minus,
    b_plus,
    coherent,
    coherent_family_coefficients,
    gmul,
    lambda_inner,
    mproduct,
    regular_from_fock,
    super_inner,
    super_pairing,
    ultracoherent,
    weighted_norm,
)

from conftest import random_complex
from oracles import coherent_amplitudes_batch, graded_product_add_at, super_inner_loop


def rand_regular(rng, g, d, nterms=3):
    terms = [
        (GrassmannElement(g, random_complex(rng, 1 << g)), random_complex(rng, 1 << d, 1 << d))
        for _ in range(nterms)
    ]
    return RegularOperator(g, d, terms)


# -- product ---------------------------------------------------------------


def test_unit_element():
    g = d = 3
    rng = np.random.default_rng(0)
    xi = random_tensor(rng, g, d)
    unit = ModuleTensor.unit(g, d)
    assert np.max(np.abs(mproduct(unit, xi).amp - xi.amp)) == 0.0
    assert np.max(np.abs(mproduct(xi, unit).amp - xi.amp)) == 0.0


def test_product_shape_mismatch():
    with pytest.raises(ValueError):
        mproduct(ModuleTensor.unit(2, 2), ModuleTensor.unit(2, 3))


def test_bidegree_commutation_exhaustive():
    # basis-level exchange rule: sign (-1)^(p1 p2 + n1 n2) on bidegrees
    g = d = 3
    pg, pd = popcounts(g), popcounts(d)
    for pm1 in range(1 << g):
        for am1 in range(1 << d):
            t1 = ModuleTensor.outer(
                GrassmannElement.basis(g, pm1), FockVector.basis(d, am1)
            )
            for pm2 in range(1 << g):
                for am2 in range(1 << d):
                    if (pm1 & pm2) or (am1 & am2):
                        continue  # product vanishes, sign irrelevant
                    t2 = ModuleTensor.outer(
                        GrassmannElement.basis(g, pm2), FockVector.basis(d, am2)
                    )
                    sign = (-1.0) ** (pg[pm1] * pg[pm2] + pd[am1] * pd[am2])
                    lhs = mproduct(t1, t2).amp
                    rhs = sign * mproduct(t2, t1).amp
                    assert np.array_equal(lhs, rhs)


def test_supervector_exchange_is_parity_graded(rng):
    # xi o Theta = (-1)^parity(Theta) Theta o xi for supervectors xi
    g = d = 3
    xi = random_supervector(rng, g, d).to_module()
    for parity in (0, 1):
        theta = random_tensor(rng, g, d, parity=parity)
        lhs = mproduct(xi, theta).amp
        rhs = ((-1.0) ** parity) * mproduct(theta, xi).amp
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_supervector_product_norm_bound(rng):
    g = d = 3
    for _ in range(30):
        xi = random_supervector(rng, g, d)
        theta = random_tensor(rng, g, d)
        prod = mproduct(xi.to_module(), theta)
        assert prod.norm() <= xi.norm() * theta.norm() * (1 + 1e-12)


def test_homogeneous_product_norm_bound(rng):
    # |Theta_p o Xi_q| <= sqrt(3 (p+q)!/(p! q!)) |Theta_p| |Xi_q| on
    # Fock-degree-homogeneous slices
    from math import comb

    g = d = 3
    for _ in range(30):
        p = int(rng.integers(0, d + 1))
        q = int(rng.integers(0, d + 1 - p))
        theta = random_tensor(rng, g, d).fock_degree(p)
        xi = random_tensor(rng, g, d).fock_degree(q)
        bound = np.sqrt(3.0 * comb(p + q, p)) * theta.norm() * xi.norm()
        assert mproduct(theta, xi).norm() <= bound * (1 + 1e-12)


@pytest.mark.parametrize("g, d", [(2, 3), (3, 3)])
def test_module_operations_match_add_at_oracle(g, d, rng):
    theta, xi = random_tensor(rng, g, d), random_tensor(rng, g, d)
    lam = GrassmannElement(g, random_complex(rng, 1 << g))
    op1, op2 = rand_regular(rng, g, d), rand_regular(rng, g, d)
    rev = reversal_signs(g)

    def fock_rows(a, b):
        return graded_product_add_at(a.T, b.T, d).T

    pairs = [
        (mproduct(theta, xi).amp, graded_product_add_at(theta.amp, xi.amp, g, fock_rows)),
        (
            lambda_inner(theta, xi).amp,
            graded_product_add_at(rev[:, None] * theta.amp, xi.amp, g, np.vecdot),
        ),
        (gmul(lam, xi).amp, graded_product_add_at(lam.amp[:, None], xi.amp, g)),
        (op1.compose(op2).amp, graded_product_add_at(op1.amp, op2.amp, g, np.matmul)),
        (
            op1.left_gmul(lam).amp,
            graded_product_add_at(lam.amp[:, None, None], op1.amp, g),
        ),
        (
            op1.apply(xi).amp,
            graded_product_add_at(op1.amp, xi.amp[..., None], g, np.matmul)[..., 0],
        ),
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# -- Grassmann-valued inner product -----------------------------------------


def test_lambda_inner_unit():
    g = d = 2
    unit = ModuleTensor.unit(g, d)
    out = lambda_inner(unit, unit)
    assert np.array_equal(out.amp, GrassmannElement.unit(g).amp)


def test_lambda_inner_hermiticity_and_bound(rng):
    g = d = 3
    for _ in range(20):
        a, b = random_tensor(rng, g, d), random_tensor(rng, g, d)
        lhs = gstar(lambda_inner(a, b))
        rhs = lambda_inner(b, a)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12
        assert gnorm(lambda_inner(a, b)) <= np.sqrt(3) * a.norm() * b.norm() * (1 + 1e-12)


def test_lambda_inner_same_parity_is_even(rng):
    g = d = 3
    for parity in (0, 1):
        a = random_tensor(rng, g, d, parity=parity)
        b = random_tensor(rng, g, d, parity=parity)
        val = lambda_inner(a, b)
        assert np.all(val.amp[popcounts(g) % 2 == 1] == 0)


def test_coherent_inner_product_rule(rng):
    assert battery.coherent_inner_product(rng, 3, 3, trials=10) < 1e-12


def test_even_product_factorizes_against_coherent(rng):
    assert battery.coherent_product_factorization(rng, 3, 3, trials=10) < 1e-11


def test_factorization_on_orthogonal_mode_subspaces(rng):
    # split modes {0} | {1,2}: (Th1 o Th2 | Xi1 o Xi2) = (Th1|Xi1)(Th2|Xi2)
    g = d = 3
    for parity in (0, 1):
        th1 = random_tensor(rng, g, d, parity=parity, mode_mask=0b001)
        xi1 = random_tensor(rng, g, d, parity=parity, mode_mask=0b001)
        th2 = random_tensor(rng, g, d, mode_mask=0b110)
        xi2 = random_tensor(rng, g, d, mode_mask=0b110)
        lhs = lambda_inner(mproduct(th1, th2), mproduct(xi1, xi2))
        rhs = gproduct(lambda_inner(th1, xi1), lambda_inner(th2, xi2))
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-11


def test_super_inner_properties(rng):
    g = d = 3
    xi, eta = random_supervector(rng, g, d), random_supervector(rng, g, d)
    ip = super_inner(xi, eta)
    assert np.all(ip.amp[popcounts(g) != 2] == 0)
    # (xi|eta)* = (eta|xi) = -(xi*|eta*)
    assert np.max(np.abs(gstar(ip).amp - super_inner(eta, xi).amp)) < 1e-13
    assert np.max(np.abs(super_inner(eta, xi).amp + super_inner(xi.star(), eta.star()).amp)) < 1e-13
    # matches the coefficient-by-coefficient oracle
    assert np.max(np.abs(ip.amp - super_inner_loop(xi, eta).amp)) < 1e-13


def test_super_pairing_symmetric_for_skew(rng):
    g = d = 4
    xi, eta = random_supervector(rng, g, d), random_supervector(rng, g, d)
    x = random_skew(d, rng)
    lhs = super_pairing(xi, x, eta)
    rhs = super_pairing(eta, x, xi)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-13


# -- coherent / ultracoherent -------------------------------------------------


def test_coherent_small_cases():
    g = d = 2
    assert np.array_equal(coherent(SuperVector.zero(g, d)).amp, ModuleTensor.unit(g, d).amp)
    xi = SuperVector.basis(g, d, 0, 0)  # k_1 (x) e_1
    out = coherent(xi)
    expected = ModuleTensor.unit(g, d) + xi.to_module()
    assert np.array_equal(out.amp, expected.amp)
    # (exp xi | exp xi) = k_0 since (xi|xi) = 0 here
    assert np.array_equal(
        lambda_inner(out, out).amp, GrassmannElement.unit(g).amp
    )


def test_coherent_factorization(rng):
    g = d = 3
    xi, eta = random_supervector(rng, g, d), random_supervector(rng, g, d)
    lhs = mproduct(coherent(xi), coherent(eta))
    rhs = coherent(xi + eta)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12


def test_coherent_parity_even(rng):
    assert coherent(random_supervector(rng, 3, 3)).parity() == "even"


def test_coherent_matches_minor_formula(rng):
    g = d = 3
    coeffs = np.stack([random_supervector(rng, g, d).coeff for _ in range(10)])
    batch = coherent_amplitudes_batch(coeffs)
    for i in range(10):
        lib = coherent(SuperVector(coeffs[i]))
        assert np.max(np.abs(lib.amp - batch[i])) < 1e-12


def test_ultracoherent_cases(rng):
    g = d = 3
    zero = ultracoherent(np.zeros((d, d)), SuperVector.zero(g, d))
    assert np.array_equal(zero.amp, ModuleTensor.unit(g, d).amp)
    x = random_skew(d, rng)
    xi = random_supervector(rng, g, d)
    psi = ultracoherent(x, xi)
    assert psi.parity() == "even"
    # product in either order, and exp of the combined exponent
    alt = mproduct(ModuleTensor.embed_fock(g, exp_omega(x)), coherent(xi))
    assert np.max(np.abs(psi.amp - alt.amp)) < 1e-12


def test_coherent_vs_ultracoherent_pairing(rng):
    # (exp xi | Psi(X, eta)) = exp(xi | eta + X xi*/2)
    g = d = 3
    for _ in range(10):
        x = random_skew(d, rng)
        xi, eta = random_supervector(rng, g, d), random_supervector(rng, g, d)
        lhs = lambda_inner(coherent(xi), ultracoherent(x, eta))
        rhs = gexp(super_inner(xi, eta + 0.5 * xi.star().apply(x)))
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-11


def test_ultracoherent_self_pairing(rng):
    # (Psi|Psi) = sqrt(det(I+X^dag X)) exp(<xi*,A xi*>/2 + <xi*,B xi> + <xi,A^dag xi>/2)
    g = d = 3
    for _ in range(5):
        x = random_skew(d, rng)
        xi = random_supervector(rng, g, d)
        a_op = x @ np.linalg.inv(np.eye(d) + x.conj().T @ x)
        b_op = np.linalg.inv(np.eye(d) + x @ x.conj().T)
        psi = ultracoherent(x, xi)
        lhs = lambda_inner(psi, psi)
        expo = (
            0.5 * super_pairing(xi.star(), a_op, xi.star())
            + super_pairing(xi.star(), b_op, xi)
            + 0.5 * super_pairing(xi, a_op.conj().T, xi)
        )
        scale = np.sqrt(np.linalg.det(np.eye(d) + x.conj().T @ x).real)
        rhs = scale * gexp(expo)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-10


# -- creation / annihilation ---------------------------------------------------


def test_b_plus_minus_on_unit_and_coherent(rng):
    g = d = 3
    eta = random_supervector(rng, g, d)
    unit = ModuleTensor.unit(g, d)
    assert np.max(np.abs(b_plus(eta).apply(unit).amp - eta.to_module().amp)) < 1e-14
    assert b_minus(eta).apply(unit).norm() < 1e-14
    xi = random_supervector(rng, g, d)
    ce = coherent(xi)
    lhs = b_minus(eta).apply(ce)
    rhs = gmul(super_inner(eta, xi), ce)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12
    lhs2 = b_plus(eta).apply(ce)
    rhs2 = mproduct(eta.to_module(), ce)
    assert np.max(np.abs(lhs2.amp - rhs2.amp)) < 1e-13


def test_b_operators_norm_bound(rng):
    g = d = 3
    for _ in range(10):
        eta = random_supervector(rng, g, d)
        xi = random_tensor(rng, g, d)
        assert b_plus(eta).apply(xi).norm() <= eta.norm() * xi.norm() * (1 + 1e-12)
        assert b_minus(eta).apply(xi).norm() <= eta.norm() * xi.norm() * (1 + 1e-12)


# -- regular operators ---------------------------------------------------------


def test_superadjoint_basics(rng):
    g = d = 2
    ident = RegularOperator.identity(g, d)
    adj = ident.superadjoint()
    assert np.max(np.abs(adj.materialize() - np.eye(1 << (g + d)))) == 0.0
    t = random_complex(rng, 1 << d, 1 << d)
    op = RegularOperator(g, d, [(GrassmannElement.generator(g, 0), t)])
    out = op.superadjoint()
    assert np.max(np.abs(out.terms[0][1] - t.conj().T)) == 0.0
    assert np.array_equal(out.terms[0][0].amp, GrassmannElement.generator(g, 0).amp)


def test_superadjoint_pairing_identity(rng):
    g = d = 3
    for _ in range(10):
        op = rand_regular(rng, g, d)
        a, b = random_tensor(rng, g, d), random_tensor(rng, g, d)
        lhs = lambda_inner(a, op.apply(b))
        rhs = lambda_inner(op.superadjoint().apply(a), b)
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-11


def test_materialize_matches_apply(rng):
    g, d = 2, 3
    op = rand_regular(rng, g, d)
    mat = op.materialize()
    for _ in range(5):
        xi = random_tensor(rng, g, d)
        assert np.max(np.abs(mat @ xi.flatten() - op.apply(xi).flatten())) < 1e-12
    # independent oracle: sum_j L(mu_j) (x) T_j over the unreduced terms
    g = 3
    terms = [
        (GrassmannElement(g, random_complex(rng, 1 << g)), random_complex(rng, 1 << d, 1 << d))
        for _ in range(4)
    ]
    op = RegularOperator(g, d, terms)
    oracle = sum(np.kron(left_multiplication(mu.amp, g), t) for mu, t in terms)
    assert np.max(np.abs(op.materialize() - oracle)) < 1e-12
    assert np.array_equal(RegularOperator(g, d, op.terms).amp, op.amp)


def test_compose_and_lift(rng):
    g, d = 2, 2
    op1, op2 = rand_regular(rng, g, d), rand_regular(rng, g, d)
    lhs = op1.compose(op2).materialize()
    rhs = op1.materialize() @ op2.materialize()
    assert np.max(np.abs(lhs - rhs)) < 1e-11
    t = random_complex(rng, 1 << d, 1 << d)
    lifted = regular_from_fock(g, t)
    xi = random_tensor(rng, g, d)
    assert np.max(np.abs(lifted.apply(xi).amp - xi.amp @ t.T)) < 1e-13


# -- weighted norms --------------------------------------------------------------


def test_weighted_norm_family(rng):
    g = d = 3
    xi = random_tensor(rng, g, d)
    assert abs(weighted_norm(xi, 0.0) - xi.norm()) < 1e-13
    assert weighted_norm(xi, 0.5) <= weighted_norm(xi, 1.0) + 1e-13
    assert weighted_norm(xi, 1.0) <= weighted_norm(xi, 2.0) + 1e-13
    with pytest.raises(ValueError):
        weighted_norm(xi, -1.0)


# -- separating family ---------------------------------------------------------


def slice_gram(amps, d):
    """Gram matrix of all Fock-degree slices of the family's coherents."""
    m = amps.reshape(-1, 1 << d)
    return m.conj().T @ m


def tensor_pairing_rank(g, d, amps):
    """Numerical rank of Xi -> ((exp zeta_i | Xi))_i over the family."""
    from superfock._tables import reversal_signs, wedge_table

    gl, gr, go, gs = wedge_table(g)
    rev = reversal_signs(g)
    coeff = gs * rev[gl]
    gram = np.zeros((1 << (g + d), 1 << (g + d)), dtype=complex)
    batch = 2048
    for start in range(0, amps.shape[0], batch):
        a = amps[start : start + batch]
        t4 = np.zeros((a.shape[0], 1 << g, 1 << g, 1 << d), dtype=complex)
        t4[:, go, gr, :] = coeff[None, :, None] * np.conj(a[:, gl, :])
        m = t4.reshape(a.shape[0] * (1 << g), -1)
        gram += m.conj().T @ m
    evals = np.linalg.eigvalsh(gram)
    return int(np.sum(evals > 1e-10 * max(evals[-1], 1.0)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coherent_family_determines_fock_operators(n):
    # the values (k_0 (x) M) exp zeta_i pin down M: the map has rank 4^d,
    # equivalently the coherent Fock slices span the whole Fock space
    coeffs = coherent_family_coefficients(n, n)
    assert coeffs.shape[0] == 3 ** (n * n)
    amps = coherent_amplitudes_batch(coeffs)
    evals = np.linalg.eigvalsh(slice_gram(amps, n))
    slice_rank = int(np.sum(evals > 1e-10 * evals[-1]))
    assert slice_rank == 2**n
    assert (1 << n) * slice_rank == 4**n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_pairing_separates_reachable_sector(n):
    # pairings against coherents cannot reach components with
    # |Q| + |K| > G (kappa nilpotency); on the complementary sector the
    # family separates with full rank
    from math import comb

    coeffs = coherent_family_coefficients(n, n)
    amps = coherent_amplitudes_batch(coeffs)
    reachable = sum(
        comb(n, q) * comb(n, k)
        for q in range(n + 1)
        for k in range(n + 1)
        if q + k <= n
    )
    assert tensor_pairing_rank(n, n, amps) == reachable


def test_unreachable_pairing_vanishes_identically(rng):
    # explicit kernel witness: (exp zeta | k_1 (x) e_1) = 0 for every zeta
    g = d = 1
    target = ModuleTensor.outer(
        GrassmannElement.generator(g, 0), FockVector.basis(d, 1)
    )
    for c in (0.0, 1.0, 1j, 0.3 - 0.7j):
        zeta = SuperVector(np.array([[c]]))
        assert gnorm(lambda_inner(coherent(zeta), target)) == 0.0


def test_family_amplitudes_match_library():
    g = d = 3
    coeffs = coherent_family_coefficients(g, d)
    rng = np.random.default_rng(5)
    sample = rng.choice(coeffs.shape[0], size=50, replace=False)
    batch = coherent_amplitudes_batch(coeffs[sample])
    for i, idx in enumerate(sample):
        lib = coherent(SuperVector(coeffs[idx]))
        assert np.max(np.abs(lib.amp - batch[i])) < 1e-13


def test_fock_factor_reconstructed_from_coherent_values(rng):
    # an operator k_0 (x) T annihilating the whole family must vanish:
    # reconstruct T from its values on the family and compare
    g = d = 2
    coeffs = coherent_family_coefficients(g, d)
    amps = coherent_amplitudes_batch(coeffs)
    slices = amps.reshape(-1, 1 << d)  # rows span the Fock space
    t = random_complex(rng, 1 << d, 1 << d)
    values = slices @ t.T  # stacked slices of (k_0 (x) T) exp zeta_i
    recovered, *_ = np.linalg.lstsq(slices, values, rcond=None)
    assert np.max(np.abs(recovered.T - t)) < 1e-10


VALUE_CLASSES = {
    "FockVector": lambda rng: FockVector(2, random_complex(rng, 4)),
    "GrassmannElement": lambda rng: GrassmannElement(2, random_complex(rng, 4)),
    "ModuleTensor": lambda rng: random_tensor(rng, 2, 2),
    "SuperVector": lambda rng: random_supervector(rng, 2, 2),
    "RegularOperator": lambda rng: rand_regular(rng, 2, 2),
}
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("cls", sorted(VALUE_CLASSES))
def test_value_classes_copy_and_pickle(cls, how, rng):
    obj = VALUE_CLASSES[cls](rng)
    back = ROUND_TRIPS[how](obj)
    assert type(back) is type(obj)
    assert np.array_equal(back.amp, obj.amp)
    assert not back.amp.flags.writeable

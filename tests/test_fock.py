"""Fock-space algebra: wedge, involution, forms, CAR operators, gamma."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from superfock.fock import (
    FockVector,
    annihilate,
    bilinear,
    create,
    delta,
    gamma,
    inner,
    star,
    tau,
    wedge,
)
from superfock._tables import antisymmetric_product, create_apply, popcounts, wedge_table
from superfock.orthogroup import haar_unitary

from conftest import random_complex
from oracles import gamma_dense, mask_indices


def basis(d, mask):
    return FockVector.basis(d, mask)


def test_tau_counts_inversions():
    assert tau(0b001, 0b010) == 0   # {1} vs {2}
    assert tau(0b010, 0b001) == 1   # {2} vs {1}
    assert tau(0b0101, 0b1010) == 1  # {1,3} vs {2,4}: only (3,2) inverts
    assert tau(0, 0b111) == 0
    assert tau(0b111, 0) == 0
    # the wedge table holds every disjoint pair once, signed by tau
    for n in range(7):
        left, right, out, sign = wedge_table(n)
        table = set(zip(left.tolist(), right.tolist(), sign.tolist()))
        expected = {
            (a, b, (-1.0) ** tau(a, b))
            for a in range(1 << n)
            for b in range(1 << n)
            if not a & b
        }
        assert len(left) == 3**n and table == expected
        assert np.array_equal(out, left | right)


def test_wedge_on_basis_tensors():
    d = 3
    e1, e2 = basis(d, 0b001), basis(d, 0b010)
    assert wedge(e1, e2).amp[0b011] == 1.0
    assert wedge(e2, e1).amp[0b011] == -1.0
    assert wedge(e1, e1).norm() == 0.0


def test_wedge_mismatch_raises():
    with pytest.raises(ValueError):
        wedge(FockVector.vacuum(2), FockVector.vacuum(3))
    for vectors in ([], [np.ones(2), np.ones(3)]):
        with pytest.raises(ValueError):
            FockVector.wedge_of(vectors)


def test_wedge_bilinear(rng):
    d = 3
    f = FockVector(d, random_complex(rng, 1 << d))
    g = FockVector(d, random_complex(rng, 1 << d))
    h = FockVector(d, random_complex(rng, 1 << d))
    lhs = wedge(f + 2.0 * g, h)
    rhs = wedge(f, h) + 2.0 * wedge(g, h)
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_wedge_associative_and_graded_commutative_on_basis(d):
    for a in range(1 << d):
        for b in range(1 << d):
            fa, fb = basis(d, a), basis(d, b)
            pq = popcounts(d)[a] * popcounts(d)[b]
            swap = wedge(fb, fa) * ((-1.0) ** pq)
            assert np.array_equal(wedge(fa, fb).amp, swap.amp)
    rng = np.random.default_rng(d)
    for _ in range(5):
        f, g, h = (FockVector(d, random_complex(rng, 1 << d)) for _ in range(3))
        lhs = wedge(wedge(f, g), h)
        rhs = wedge(f, wedge(g, h))
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12


def test_star_fixed_points_and_antilinearity():
    d = 2
    vac = FockVector.vacuum(d)
    assert np.array_equal(star(vac).amp, vac.amp)
    e1 = basis(d, 0b01)
    assert np.max(np.abs(star(1j * e1).amp - (-1j * e1).amp)) == 0.0
    # degree-2 reversal sign
    e12 = basis(d, 0b11)
    assert np.array_equal(star(e12).amp, -e12.amp)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_star_product_rule_exhaustive(d):
    for a in range(1 << d):
        for b in range(1 << d):
            f, g = basis(d, a), basis(d, b)
            lhs = star(wedge(f, g))
            rhs = wedge(star(g), star(f))
            assert np.array_equal(lhs.amp, rhs.amp)


def test_star_antiunitary_involution(rng):
    d = 4
    f = FockVector(d, random_complex(rng, 1 << d))
    assert np.max(np.abs(star(star(f)).amp - f.amp)) == 0.0
    assert abs(star(f).norm() - f.norm()) < 1e-14


def test_inner_orthonormal_basis():
    d = 2
    assert inner(FockVector.vacuum(d), FockVector.vacuum(d)) == 1.0
    assert inner(basis(d, 0b01), basis(d, 0b10)) == 0.0


def test_inner_gram_determinant(rng):
    d = 4
    f1, f2 = random_complex(rng, d), random_complex(rng, d)
    prod = FockVector.wedge_of([f1, f2])
    gram = np.array(
        [[np.vdot(f1, f1), np.vdot(f1, f2)], [np.vdot(f2, f1), np.vdot(f2, f2)]]
    )
    assert abs(prod.norm() ** 2 - np.linalg.det(gram).real) < 1e-12


def test_bilinear_form(rng):
    d = 3
    e1 = basis(d, 0b001)
    assert bilinear(e1, e1) == 1.0
    assert bilinear(1j * e1, e1) == 1j
    f = FockVector(d, random_complex(rng, 1 << d))
    g = FockVector(d, random_complex(rng, 1 << d))
    assert abs(bilinear(f, g) - bilinear(g, f)) < 1e-13
    assert abs(bilinear(f, g) - inner(star(f), g)) < 1e-13


def test_create_annihilate_on_basis():
    d = 2
    vac = FockVector.vacuum(d)
    e1 = np.eye(d)[0]
    assert np.array_equal(create(e1) @ vac.amp, basis(d, 0b01).amp)
    # a-(e_1) e_{1,2} = +e_2: no smaller index precedes 1
    out = annihilate(e1) @ basis(d, 0b11).amp
    assert np.array_equal(out, basis(d, 0b10).amp)


def test_creation_is_wedge(rng):
    d = 4
    f = random_complex(rng, d)
    g = FockVector(d, random_complex(rng, 1 << d))
    lhs = create(f) @ g.amp
    rhs = wedge(FockVector.from_vector(f), g).amp
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    assert np.max(np.abs(create_apply(f, g.amp, d) - rhs)) < 1e-13


@pytest.mark.parametrize("d", range(1, 9))
def test_wedge_of_matches_wedge_table_chain(d, rng):
    for n in range(1, min(d, 3) + 1):
        vectors = random_complex(rng, n, d)
        chain = FockVector.vacuum(d).amp
        for v in vectors:
            chain = antisymmetric_product(chain, FockVector.from_vector(v).amp, d)
        got = FockVector.wedge_of(vectors).amp
        assert np.max(np.abs(got - chain)) <= 1e-13 * np.max(np.abs(chain))


def test_car_anticommutators(rng):
    d = 4
    eye = np.eye(1 << d)
    f, g = random_complex(rng, d), random_complex(rng, d)
    am, cp = annihilate(f), create(g)
    assert np.max(np.abs(am @ cp + cp @ am - np.vdot(f, g) * eye)) < 1e-12
    cf, cg = create(f), create(g)
    assert np.max(np.abs(cf @ cg + cg @ cf)) < 1e-12


def test_delta_properties(rng):
    d = 3
    eye = np.eye(1 << d)
    assert np.max(np.abs(delta(np.zeros(d)))) == 0.0
    f, g = random_complex(rng, d), random_complex(rng, d)
    df, dg = delta(f), delta(g)
    assert np.max(np.abs(df + df.conj().T)) < 1e-13  # antihermitean
    lhs = df @ dg + dg @ df
    assert np.max(np.abs(lhs + 2.0 * np.real(np.vdot(f, g)) * eye)) < 1e-12
    d1 = delta(np.eye(d)[0])
    assert np.max(np.abs(d1 @ d1 + eye)) < 1e-13


def test_gamma_identity_and_defining_rule(rng):
    d = 3
    assert np.array_equal(gamma(np.eye(d)), np.eye(1 << d))
    b = random_complex(rng, d, d)
    e12 = basis(d, 0b011)
    lhs = gamma(b) @ e12.amp
    rhs = FockVector.wedge_of([b[:, 0], b[:, 1]]).amp
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    assert np.max(np.abs(gamma(b) @ FockVector.vacuum(d).amp - FockVector.vacuum(d).amp)) == 0.0
    # entry (A, B) is the minor det b[A, B] for |A| = |B|, zero otherwise
    d = 4
    b = random_complex(rng, d, d)
    g = gamma(b)
    p = popcounts(d)
    for a in range(1, 1 << d):
        for c in range(1, 1 << d):
            rows, cols = mask_indices(a), mask_indices(c)
            want = np.linalg.det(b[np.ix_(rows, cols)]) if p[a] == p[c] else 0.0
            assert abs(g[a, c] - want) < 1e-12


def test_gamma_multiplicative_and_unitary(rng):
    d = 4
    for _ in range(3):
        s1, s2 = haar_unitary(d, rng), haar_unitary(d, rng)
        r = gamma(s1 @ s2) - gamma(s1) @ gamma(s2)
        assert np.max(np.abs(r)) < 1e-11
        gs = gamma(s1)
        assert np.max(np.abs(gs.conj().T @ gs - np.eye(1 << d))) < 1e-11


@pytest.mark.parametrize("d", range(9))
def test_gamma_matches_dense_creation_recursion(d, rng):
    b = random_complex(rng, d, d)
    want = gamma_dense(b)
    assert np.max(np.abs(gamma(b) - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=40)
@given(data=st.data())
def test_gamma_is_multiplicative(data):
    d = data.draw(st.integers(0, 5))
    parts = data.draw(arrays(float, (4, d, d), elements=st.floats(-1.0, 1.0)))
    a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    ga, gb = gamma(a), gamma(b)
    # the entries are minors; the product sums 2^d of them
    scale = max(1.0, float(np.max(np.abs(ga)) * np.max(np.abs(gb)))) * (1 << d)
    assert np.max(np.abs(gamma(a @ b) - ga @ gb)) <= 1e-13 * scale


@pytest.mark.parametrize("d", [4, 6, 8])
def test_exterior_norm_bound(d, rng):
    # |F ^ G| <= sqrt((p+q)!/(p!q!)) |F| |G| on homogeneous tensors
    from math import comb

    p_of = popcounts(d)
    for _ in range(20):
        p = int(rng.integers(0, d + 1))
        q = int(rng.integers(0, d + 1 - p))
        f = FockVector(d, np.where(p_of == p, random_complex(rng, 1 << d), 0))
        g = FockVector(d, np.where(p_of == q, random_complex(rng, 1 << d), 0))
        bound = np.sqrt(comb(p + q, p)) * f.norm() * g.norm()
        assert wedge(f, g).norm() <= bound * (1 + 1e-12)


def test_degree_projection(rng):
    d = 3
    f = FockVector(d, random_complex(rng, 1 << d))
    total = FockVector.zero(d)
    for n in range(d + 1):
        total = total + f.degree(n)
    assert np.max(np.abs(total.amp - f.amp)) == 0.0
    assert set(basis(d, 0b101).degrees()) == {2}


def test_immutability():
    f = FockVector.vacuum(2)
    with pytest.raises(ValueError):
        f.amp[0] = 5.0
    with pytest.raises(AttributeError):
        f.modes = 3

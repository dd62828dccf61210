"""Grassmann algebra: graded norm, product bounds, involution, exponential."""

import numpy as np
import pytest

from superfock.grassmann import (
    GrassmannElement,
    gexp,
    gnorm,
    gparity,
    gproduct,
    gstar,
)
from superfock._tables import popcounts

from conftest import random_complex


def random_element(rng, g):
    return GrassmannElement(g, random_complex(rng, 1 << g))


def random_homogeneous(rng, g, p):
    amp = np.where(popcounts(g) == p, random_complex(rng, 1 << g), 0)
    return GrassmannElement(g, amp)


def test_unit_and_anticommutation():
    g = 3
    k0 = GrassmannElement.unit(g)
    k1, k2 = GrassmannElement.generator(g, 0), GrassmannElement.generator(g, 1)
    lam = GrassmannElement(g, np.arange(1 << g, dtype=float))
    assert np.array_equal(gproduct(k0, lam).amp, lam.amp)
    assert np.array_equal(gproduct(lam, k0).amp, lam.amp)
    assert np.max(np.abs(gproduct(k1, k2).amp + gproduct(k2, k1).amp)) == 0.0
    assert gproduct(k1, k1).amp.any() == False  # noqa: E712


def test_gnorm_values():
    g = 2
    assert gnorm(GrassmannElement.unit(g)) == 1.0
    k1k2 = gproduct(GrassmannElement.generator(g, 0), GrassmannElement.generator(g, 1))
    assert gnorm(k1k2) == 0.5  # (2!)^-1 on a unit degree-2 tensor
    assert gnorm(GrassmannElement.zero(g)) == 0.0


def test_product_norm_bound_sqrt3(rng):
    g = 5
    for _ in range(50):
        lam, mu = random_element(rng, g), random_element(rng, g)
        assert gnorm(gproduct(lam, mu)) <= np.sqrt(3) * gnorm(lam) * gnorm(mu) * (1 + 1e-12)


def test_homogeneous_product_bound(rng):
    # |lam mu| <= sqrt(p! q! / (p+q)!) |lam| |mu| on homogeneous elements
    from math import comb

    g = 6
    for _ in range(50):
        p = int(rng.integers(0, g + 1))
        q = int(rng.integers(0, g + 1 - p))
        lam, mu = random_homogeneous(rng, g, p), random_homogeneous(rng, g, q)
        bound = gnorm(lam) * gnorm(mu) / np.sqrt(comb(p + q, p))
        assert gnorm(gproduct(lam, mu)) <= bound * (1 + 1e-12)


def test_degree_one_absorption(rng):
    g = 5
    for _ in range(50):
        lam = random_homogeneous(rng, g, 1)
        mu = random_element(rng, g)
        assert gnorm(gproduct(lam, mu)) <= gnorm(lam) * gnorm(mu) * (1 + 1e-12)


def test_product_of_generators_norm(rng):
    # |lam_1 ... lam_p| <= (p!)^-1 prod |lam_k|
    from math import factorial

    g = 5
    for p in range(1, g + 1):
        factors = [random_homogeneous(rng, g, 1) for _ in range(p)]
        prod = GrassmannElement.unit(g)
        bound = 1.0 / factorial(p)
        for lam in factors:
            prod = gproduct(prod, lam)
            bound_piece = gnorm(lam)
            bound *= bound_piece
        assert gnorm(prod) <= bound * (1 + 1e-12)


def test_gstar_basics_and_product_rule(rng):
    g = 4
    k0 = GrassmannElement.unit(g)
    k1 = GrassmannElement.generator(g, 0)
    assert np.array_equal(gstar(k0).amp, k0.amp)
    assert np.array_equal(gstar(1j * k1).amp, (-1j * k1).amp)
    for _ in range(20):
        lam, mu = random_element(rng, g), random_element(rng, g)
        lhs = gstar(gproduct(lam, mu))
        rhs = gproduct(gstar(mu), gstar(lam))
        assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-13
        assert abs(gnorm(gstar(lam)) - gnorm(lam)) < 1e-13
        assert np.max(np.abs(gstar(gstar(lam)).amp - lam.amp)) == 0.0


def test_gparity():
    g = 3
    k0 = GrassmannElement.unit(g)
    k1 = GrassmannElement.generator(g, 0)
    assert gparity(k0) == "even"
    assert gparity(k1) == "odd"
    assert gparity(k0 + k1) == "mixed"
    assert gparity(GrassmannElement.zero(g)) == "even"


def test_gexp_truncation_and_unit():
    g = 2
    zero2 = GrassmannElement.zero(g)
    assert np.array_equal(gexp(zero2).amp, GrassmannElement.unit(g).amp)
    k1k2 = gproduct(GrassmannElement.generator(g, 0), GrassmannElement.generator(g, 1))
    out = gexp(k1k2)
    expected = GrassmannElement.unit(g) + k1k2
    assert np.array_equal(out.amp, expected.amp)


def test_gexp_rejects_other_degrees():
    g = 3
    for mask in (-1, 1 << g):
        with pytest.raises(ValueError, match="out of range"):
            GrassmannElement.basis(g, mask)
    with pytest.raises(ValueError):
        gexp(GrassmannElement.generator(g, 0))
    mixed = GrassmannElement.unit(g) + GrassmannElement.basis(g, 0b011)
    with pytest.raises(ValueError):
        gexp(mixed)


def test_gexp_norm_bound(rng):
    g = 6
    for _ in range(50):
        lam = random_homogeneous(rng, g, 2)
        assert gnorm(gexp(lam)) ** 2 <= np.exp(gnorm(lam) ** 2) * (1 + 1e-12)


def test_gexp_multiplicative_on_commuting_elements(rng):
    g = 6
    lam = random_homogeneous(rng, g, 2)
    mu = random_homogeneous(rng, g, 2)
    lhs = gexp(lam + mu)
    rhs = gproduct(gexp(lam), gexp(mu))
    assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-12

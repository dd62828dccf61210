"""Pfaffians, the degree-2 tensor map, Gaussian exponentials, canonical form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import superfock.selftest as battery
from superfock.errors import SkewnessError
from superfock.fock import FockVector, bilinear, inner, wedge
from superfock.gaussian import (
    as_skew,
    exp_omega,
    gaussian_norm,
    omega,
    overlap_det,
    pfaffian,
    pfaffian_all_subsets,
    skew_canonical,
)
from superfock.orthogroup import random_skew

from oracles import (
    exp_omega_series,
    mask_indices,
    pfaffian_all_subsets_loop,
    pfaffian_matchings,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_as_skew_accepts_and_rejects():
    x = as_skew(np.array([[1e-12, 1.0], [-1.0, 0.0]]))
    assert np.max(np.abs(x + x.T)) == 0.0
    with pytest.raises(SkewnessError):
        as_skew(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_pfaffian_2x2_and_odd():
    a = 2.5 - 1.0j
    assert pfaffian(np.array([[0, a], [-a, 0]])) == a
    assert pfaffian(np.zeros((3, 3))) == 0.0


def test_pfaffian_4x4_formula(rng):
    x = random_skew(4, rng)
    expected = x[0, 1] * x[2, 3] - x[0, 2] * x[1, 3] + x[0, 3] * x[1, 2]
    assert abs(pfaffian(x) - expected) < 1e-13


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_pfaffian_squares_to_determinant(d, rng):
    for _ in range(5):
        x = random_skew(d, rng, scale=1.0)
        det = np.linalg.det(x)
        assert abs(pfaffian(x) ** 2 - det) <= 1e-10 * max(1.0, abs(det))


def test_pfaffian_against_matching_sum(rng):
    for d in (2, 4, 6):
        x = random_skew(d, rng)
        assert abs(pfaffian(x) - pfaffian_matchings(x)) < 1e-11


@pytest.mark.parametrize("d", range(11))
def test_subset_pfaffians_match_smallest_index_loop(d, rng):
    x = random_skew(d, rng, scale=1.0)
    pf = pfaffian_all_subsets(x)
    want = pfaffian_all_subsets_loop(x)
    assert np.max(np.abs(pf - want)) <= 1e-12 * np.max(np.abs(want))
    odd = [m for m in range(1 << d) if m.bit_count() % 2]
    assert np.all(pf[odd] == 0.0)


def test_subset_pfaffians_against_matching_sums(rng):
    for d in range(7):
        x = random_skew(d, rng)
        pf = pfaffian_all_subsets(x)
        for mask in range(1 << d):
            idx = mask_indices(mask)
            assert abs(pf[mask] - pfaffian_matchings(x[np.ix_(idx, idx)])) < 1e-12


def test_subset_pfaffians_at_twenty_modes(rng):
    x = random_skew(20, rng, scale=1.0)
    pf = pfaffian_all_subsets(x)
    det = np.linalg.det(x)
    assert pf.shape == (1 << 20,)
    assert abs(pf[-1] ** 2 - det) <= 1e-10 * abs(det)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subset_pfaffians_square_to_minors(data):
    d = data.draw(st.integers(0, 8))
    parts = data.draw(arrays(float, (2, d, d), elements=st.floats(-2.0, 2.0)))
    z = parts[0] + 1j * parts[1]
    x = z - z.T
    mask = data.draw(
        st.integers(0, (1 << d) - 1).filter(lambda m: m.bit_count() % 2 == 0)
    )
    idx = mask_indices(mask)
    xa = x[np.ix_(idx, idx)]
    det = np.linalg.det(xa) if idx else 1.0
    # Hadamard's bound on |det X_A| sets the rounding scale of both sides
    scale = max(1.0, float(np.prod(np.linalg.norm(xa, axis=0))))
    assert abs(pfaffian_all_subsets(x)[mask] ** 2 - det) <= 1e-12 * scale


def test_omega_zero_and_defining_identity(rng):
    assert omega(np.zeros((3, 3))).norm() == 0.0
    for d in (2, 4, 5):
        x = random_skew(d, rng)
        om = omega(x)
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                eij = wedge(FockVector.basis(d, 1 << i), FockVector.basis(d, 1 << j))
                assert abs(bilinear(om, eij) - x[i, j]) < 1e-12


def test_omega_linear_and_norm_relation(rng):
    d = 5
    x, y = random_skew(d, rng), random_skew(d, rng)
    lin = omega(x) + 2.0 * omega(y)
    assert np.max(np.abs(lin.amp - omega(x + 2.0 * y).amp)) < 1e-13
    assert abs(omega(x).norm() ** 2 - 0.5 * np.linalg.norm(x, "fro") ** 2) < 1e-12


def test_omega_power_norm_bound(rng):
    # |Omega^p|^2 <= p! (|X|_HS^2 / 2)^p
    from math import factorial

    d = 8
    x = random_skew(d, rng)
    om = omega(x)
    half = 0.5 * np.linalg.norm(x, "fro") ** 2
    power = FockVector.vacuum(d)
    for p in range(1, 5):
        power = wedge(power, om)
        assert power.norm() ** 2 <= factorial(p) * half**p * (1 + 1e-12)


def test_exp_omega_special_cases(rng):
    d = 2
    assert np.array_equal(exp_omega(np.zeros((2, 2))).amp, FockVector.vacuum(2).amp)
    z = 0.8 - 0.3j
    out = exp_omega(z * J2)
    series = exp_omega_series(z * J2)
    assert np.max(np.abs(out.amp - series.amp)) < 1e-14
    # block 4x4: degree-4 amplitude carries the product of the pair values
    x4 = np.zeros((4, 4), dtype=complex)
    a, b = 0.5 + 0.2j, -1.1j
    x4[0, 1], x4[1, 0] = a, -a
    x4[2, 3], x4[3, 2] = b, -b
    out4 = exp_omega(x4)
    ser4 = exp_omega_series(x4)
    assert np.max(np.abs(out4.amp - ser4.amp)) < 1e-13
    assert abs(out4.amp[0b1111] - a * b) < 1e-13


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_exp_omega_matches_power_series(d, rng):
    x = random_skew(d, rng)
    assert np.max(np.abs(exp_omega(x).amp - exp_omega_series(x).amp)) < 1e-11


def test_skew_canonical_trivial_cases(rng):
    cf = skew_canonical(np.zeros((3, 3)))
    assert cf.z.size == 0 and cf.kernel.shape == (3, 3)
    z = 1.7
    cf = skew_canonical(z * J2)
    assert cf.z.shape == (1,) and abs(cf.z[0] - z) < 1e-12
    assert np.max(np.abs(cf.reconstruct() - z * J2)) < 1e-12


@pytest.mark.parametrize("d", [3, 4, 6])
def test_skew_canonical_random(d, rng):
    for _ in range(5):
        x = random_skew(d, rng)
        cf = skew_canonical(x)
        assert np.max(np.abs(cf.reconstruct() - x)) < 1e-9
        basis = cf.basis()
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1]))) < 1e-10
        assert abs(np.sum(cf.z**2) - 0.5 * np.linalg.norm(x, "fro") ** 2) < 1e-10
        assert np.all(np.diff(cf.z) <= 1e-12)  # descending


def test_skew_canonical_degenerate_pairs():
    # two equal pair values: 4x4 with identical blocks
    x = np.kron(np.eye(2), 0.9 * J2)
    cf = skew_canonical(x)
    assert cf.z.shape == (2,)
    assert np.max(np.abs(cf.reconstruct() - x)) < 1e-10
    basis = cf.basis()
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(4))) < 1e-10


def test_overlap_det_values(rng):
    assert overlap_det(np.zeros((2, 2)), np.zeros((2, 2))) == 1.0
    z = 0.6 + 0.4j
    val = overlap_det(z * J2, z * J2)
    assert abs(val - (1 + abs(z) ** 2)) < 1e-13


@pytest.mark.parametrize("d", [2, 4, 6])
def test_overlap_det_squares_to_determinant(d, rng):
    assert battery.gaussian_overlap_determinant(rng, d, trials=10) <= 1e-9
    for _ in range(10):
        x, y = random_skew(d, rng), random_skew(d, rng)
        assert abs(overlap_det(x, y) - inner(exp_omega(x), exp_omega(y))) < 1e-11


def test_overlap_det_shape_mismatch():
    with pytest.raises(ValueError):
        overlap_det(np.zeros((2, 2)), np.zeros((4, 4)))


def test_gaussian_norm_three_expressions(rng):
    assert gaussian_norm(np.zeros((2, 2))) == 1.0
    z = 1.3
    assert abs(gaussian_norm(z * J2) - (1 + z**2)) < 1e-12
    for d in (4, 6):
        for _ in range(5):
            x = random_skew(d, rng)
            by_det = gaussian_norm(x)
            by_sum = inner(exp_omega(x), exp_omega(x)).real
            by_pairs = float(np.prod(1 + skew_canonical(x).z ** 2))
            assert abs(by_det - by_sum) <= 1e-10 * by_det
            assert abs(by_det - by_pairs) <= 1e-10 * by_det
            assert by_det <= np.exp(0.5 * np.linalg.norm(x, "fro") ** 2) * (1 + 1e-12)

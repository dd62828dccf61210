"""The graded-product kernels of ``_tables`` against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from superfock._tables import (
    antisymmetric_product,
    create_apply,
    left_multiplication,
    parity_class,
    popcounts,
)

from conftest import random_complex
from oracles import graded_product_add_at


def fock_rows_product(modes):
    """The row-wise Fock product that ``mproduct`` pairs rows with."""
    return lambda a, b: antisymmetric_product(a.T, b.T, modes).T


def fock_rows_oracle(modes):
    return lambda a, b: graded_product_add_at(a.T, b.T, modes).T


def close(got, want, rtol=1e-15):
    return np.max(np.abs(got - want), initial=0.0) <= rtol * np.max(np.abs(want), initial=0.0)


def matvec(t, x):
    return np.matmul(t, x[..., None])[..., 0]


@pytest.mark.parametrize("n", range(7))
def test_antisymmetric_product_matches_add_at_oracle(n, rng):
    dim = 1 << n
    cases = [
        # (f, g, mul): scalar, Grassmann-times-module, operator product,
        # operator action, Grassmann-valued pairing
        (random_complex(rng, dim), random_complex(rng, dim), np.multiply),
        (random_complex(rng, dim)[:, None], random_complex(rng, dim, 4), np.multiply),
        (random_complex(rng, dim, 3, 3), random_complex(rng, dim, 3, 3), np.matmul),
        (random_complex(rng, dim, 3, 3), random_complex(rng, dim, 3), matvec),
        (random_complex(rng, dim, 5), random_complex(rng, dim, 5), np.vecdot),
    ]
    for f, g, mul in cases:
        got = antisymmetric_product(f, g, n, mul)
        want = graded_product_add_at(f, g, n, mul)
        assert got.shape == want.shape
        assert close(got, want, 1e-14)


@pytest.mark.parametrize("g, d", [(0, 2), (2, 3), (3, 3), (4, 2)])
def test_row_wise_fock_pairing_matches_oracle(g, d, rng):
    f = random_complex(rng, 1 << g, 1 << d)
    h = random_complex(rng, 1 << g, 1 << d)
    got = antisymmetric_product(f, h, g, fock_rows_product(d))
    want = graded_product_add_at(f, h, g, fock_rows_oracle(d))
    assert close(got, want, 1e-14)


def test_real_input_gives_complex_result():
    f = np.arange(8, dtype=float)
    out = antisymmetric_product(f, f, 3)
    assert out.dtype == complex
    assert np.array_equal(out, graded_product_add_at(f, f, 3))


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_trailing_axes_match_column_by_column(n, rng):
    dim = 1 << n
    g = random_complex(rng, dim, 3, 2)
    many = left_multiplication(g, n)
    assert many.shape == (dim, dim, 3, 2)
    for i in range(3):
        for j in range(2):
            assert close(many[:, :, i, j], left_multiplication(g[:, i, j], n))
    f = random_complex(rng, n)
    amp = random_complex(rng, dim, 4, 3)
    many = create_apply(f, amp, n)
    assert many.shape == amp.shape
    for i in range(4):
        for j in range(3):
            assert close(many[:, i, j], create_apply(f, amp[:, i, j], n))


def test_parity_class():
    deg = popcounts(2)
    assert parity_class(np.zeros(4), deg) == "even"
    assert parity_class(np.array([1.0, 0, 0, 2.0]), deg) == "even"
    assert parity_class(np.array([0, 1.0, 1j, 0]), deg) == "odd"
    assert parity_class(np.array([1.0, 1.0, 0, 0]), deg) == "mixed"
    # degrees broadcast against a two-index amplitude array
    total = popcounts(1)[:, None] + popcounts(1)[None, :]
    assert parity_class(np.array([[0, 1.0], [0, 0]]), total) == "odd"
    assert parity_class(np.array([[1.0, 0], [0, 1.0]]), total) == "even"


def amplitudes(n, tail=()):
    parts = arrays(float, (2, 1 << n) + tail, elements=st.floats(-2.0, 2.0))
    return parts.map(lambda p: p[0] + 1j * p[1])


@settings(max_examples=40)
@given(data=st.data())
def test_product_associative(data):
    n = data.draw(st.integers(0, 5))
    f, g, h = (data.draw(amplitudes(n)) for _ in range(3))
    left = antisymmetric_product(antisymmetric_product(f, g, n), h, n)
    right = antisymmetric_product(f, antisymmetric_product(g, h, n), n)
    # every term is a triple product of entries bounded by 2 sqrt(2)
    assert np.max(np.abs(left - right)) <= 1e-13 * 3**n * 23.0


@settings(max_examples=40)
@given(data=st.data())
def test_operator_valued_product_associative(data):
    n = data.draw(st.integers(0, 4))
    f, g, h = (data.draw(amplitudes(n, (2, 2))) for _ in range(3))

    def prod(a, b):
        return antisymmetric_product(a, b, n, np.matmul)

    left, right = prod(prod(f, g), h), prod(f, prod(g, h))
    assert np.max(np.abs(left - right)) <= 1e-13 * 3**n * 23.0 * 4

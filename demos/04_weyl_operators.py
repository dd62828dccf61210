"""Weyl operators on the module Fock space.

W(eta) = exp(b+(eta) - b-(eta)) is realized exactly by finite normal-ordered
series; the group law carries a Grassmann-valued phase exp(-i omega(xi,eta))
rather than a complex number.
"""

import numpy as np
import scipy.linalg

from superfock import (
    SuperVector,
    WeylOperator,
    coherent,
    gexp,
    lambda_inner,
    omega_form,
    random_skew,
    ultracoherent,
    weyl_on_coherent,
    weyl_on_ultracoherent,
)

rng = np.random.default_rng(4)
G = d = 3


def rand_sv(scale=0.8):
    return SuperVector(scale * (rng.standard_normal((G, d))
                                + 1j * rng.standard_normal((G, d))))


xi, eta = rand_sv(), rand_sv()
w = WeylOperator(eta)

print("== two realizations of the same operator ==")
print("normal-ordered vs matrix exponential:",
      np.max(np.abs(w.materialize()
                    - scipy.linalg.expm(w.generator().materialize()))))

print("\n== action on coherent vectors ==")
lhs = w.apply(coherent(xi))
rhs = weyl_on_coherent(eta, xi)
print("closed-form residual:", np.max(np.abs(lhs.amp - rhs.amp)))

print("\n== group law with a Grassmann phase ==")
prod = WeylOperator(xi).materialize() @ w.materialize()
phase = gexp((-1j) * omega_form(xi, eta))
law = WeylOperator(xi + eta).regular.left_gmul(phase).materialize()
print("W(xi) W(eta) - e^{-i omega} W(xi + eta):", np.max(np.abs(prod - law)))
print("omega(xi, eta) is nilpotent of degree 2; its exponential has",
      np.count_nonzero(phase.amp), "nonzero amplitudes")

print("\n== unitarity and inverse ==")
dim = 1 << (G + d)
print("W(eta) W(-eta) = id:",
      np.max(np.abs(w.materialize() @ WeylOperator(-eta).materialize() - np.eye(dim))))
a = coherent(rand_sv())
b = coherent(rand_sv())
print("module inner product preserved:",
      np.max(np.abs(lambda_inner(w.apply(a), w.apply(b)).amp
                    - lambda_inner(a, b).amp)))

print("\n== action on ultracoherent vectors ==")
X = random_skew(d, rng)
lhs = weyl_on_ultracoherent(eta, X, xi).flatten()
rhs = w.materialize() @ ultracoherent(X, xi).flatten()
print("closed-form residual:", np.max(np.abs(lhs - rhs)))

"""Weyl operators on the module Fock space.

W(eta), eta a supervector, acts on coherent vectors as

    W(eta) exp xi = e^{-(eta|xi) - (eta|eta)/2} exp(eta + xi)

and is realized as the regular operator
e^{-(eta|eta)/2} exp(b+(eta)) exp(-b-(eta)); the exponentials terminate
because b+-(eta) are nilpotent at finite (G, d).  The scalar prefactors are
Grassmann exponentials of degree-2 elements, not complex numbers.  The group
law reads W(xi) W(eta) = e^{-i omega(xi,eta)} W(xi + eta) with the
antisymmetric form omega(xi, eta) = ((xi|eta) - (eta|xi)) / 2i.
"""

from __future__ import annotations

import numpy as np

from .errors import _RESIDUAL_TOL
from .gaussian import as_skew
from .grassmann import GrassmannElement, gexp
from .supermodule import (
    ModuleTensor,
    RegularOperator,
    SuperVector,
    b_minus,
    b_plus,
    coherent,
    gmul,
    mproduct,
    super_inner,
    ultracoherent,
)

__all__ = [
    "omega_form",
    "WeylOperator",
    "weyl_on_coherent",
    "weyl_on_ultracoherent",
    "weyl_factorize",
]


def omega_form(xi: SuperVector, eta: SuperVector) -> GrassmannElement:
    """R-bilinear antisymmetric form omega(xi,eta) = ((xi|eta)-(eta|xi))/2i."""
    return (super_inner(xi, eta) - super_inner(eta, xi)) * (1.0 / 2.0j)


def _exp_nilpotent(op: RegularOperator, order: int) -> RegularOperator:
    """exp of a nilpotent regular operator as a finite series."""
    result = RegularOperator.identity(op.generators, op.modes)
    term = result
    for k in range(1, order + 1):
        term = op.compose(term) * (1.0 / k)
        if not term.amp.any():
            break
        result = result + term
    return result


class WeylOperator:
    """Unitary-like module operator W(eta) with W+(eta) = W(-eta) = W^-1."""

    def __init__(self, eta: SuperVector):
        self.eta = eta
        order = min(eta.generators, eta.modes)
        half = gexp(super_inner(eta, eta) * (-0.5))
        w = _exp_nilpotent(b_plus(eta), order).compose(
            _exp_nilpotent((-1.0) * b_minus(eta), order)
        )
        self.regular = w.left_gmul(half)

    def apply(self, xi: ModuleTensor) -> ModuleTensor:
        return self.regular.apply(xi)

    def materialize(self) -> np.ndarray:
        """Dense matrix of the normal-ordered realization."""
        return self.regular.materialize()

    def generator(self) -> RegularOperator:
        """D_eta = b+(eta) - b-(eta); W(t eta) = exp(t D_eta)."""
        return b_plus(self.eta) - b_minus(self.eta)

    def inverse(self) -> "WeylOperator":
        return WeylOperator(-self.eta)

    def __repr__(self) -> str:
        return f"WeylOperator(generators={self.eta.generators}, modes={self.eta.modes})"


def weyl_on_coherent(eta: SuperVector, xi: SuperVector) -> ModuleTensor:
    """Closed form of W(eta) exp xi."""
    phase = gexp((-1.0) * super_inner(eta, xi) + (-0.5) * super_inner(eta, eta))
    return gmul(phase, coherent(eta + xi))


def weyl_on_ultracoherent(eta: SuperVector, x: np.ndarray, xi: SuperVector) -> ModuleTensor:
    """Closed form of W(eta) Psi(X, xi):

    e^{-(eta|eta)/2 + (eta | X eta* - 2 xi)/2} Psi(X, xi + eta - X eta*).
    """
    x = as_skew(x)
    x_eta_star = eta.star().apply(x)
    expo = (-0.5) * super_inner(eta, eta) + 0.5 * super_inner(
        eta, x_eta_star - 2.0 * xi
    )
    return gmul(gexp(expo), ultracoherent(x, xi + eta - x_eta_star))


def weyl_factorize(
    eta: SuperVector, p1: np.ndarray, p2: np.ndarray, xi1: ModuleTensor, xi2: ModuleTensor
) -> ModuleTensor:
    """Factorized action of W((P1+P2) eta) on a product Xi1 o Xi2:

        (W(P1 eta) Xi1) o (W((-1)^k P2 eta) Xi2),   k = parity of Xi1,

    valid when P1, P2 project onto orthogonal subspaces carrying Xi1, Xi2.
    """
    p1 = np.asarray(p1, dtype=complex)
    p2 = np.asarray(p2, dtype=complex)
    if np.max(np.abs(p1 @ p2)) > _RESIDUAL_TOL:
        raise ValueError("projectors must be orthogonal to each other")
    parity = xi1.parity()
    if parity == "mixed":
        raise ValueError("xi1 must have definite parity")
    k = 0 if parity == "even" else 1
    w1 = WeylOperator(eta.apply(p1))
    w2 = WeylOperator(eta.apply(((-1.0) ** k) * p2))
    return mproduct(w1.apply(xi1), w2.apply(xi2))

"""Seeded invariant battery shared by the CLI and the test suite.

Each invariant exercises one of the structural identities of the package on
random instances and returns its worst residual: the anticommutation
relations, the Gaussian overlap determinant, coherent-vector inner products
and factorization, the Weyl group laws and actions, the module intertwining
relation of implementers, the gauge covariance of the singular-chart
construction, and the Moebius action on vacuum-orbit coordinates.  An
invariant is a function ``(rng, [generators,] modes, trials) -> residual``;
``run_selftest`` runs them in the order of ``BATTERY`` at the sizes its
rules give, and the tests call the same functions at their own sizes.
"""

from __future__ import annotations

import numpy as np

from . import bogoliubov as bg
from . import orthogroup as og
from . import weyl as wl
from ._tables import popcounts
from .errors import _RESIDUAL_TOL, operator_bytes
from .fock import delta, gamma
from .gaussian import overlap_det
from .grassmann import gexp, gproduct
from .supermodule import (
    ModuleTensor,
    SuperVector,
    coherent,
    lambda_inner,
    mproduct,
    regular_from_fock,
    super_inner,
    ultracoherent,
)
from .weyl import WeylOperator, omega_form

__all__ = ["run_selftest", "dense_bytes", "random_supervector", "random_tensor", "BATTERY"]


def random_supervector(rng, g: int, d: int, scale: float = 0.8) -> SuperVector:
    """Supervector with Gaussian complex coefficients times ``scale``."""
    return SuperVector(scale * (rng.standard_normal((g, d)) + 1j * rng.standard_normal((g, d))))


def random_tensor(rng, g: int, d: int, parity=None, mode_mask=None) -> ModuleTensor:
    """Module tensor with Gaussian complex amplitudes.

    ``parity`` (0 or 1) keeps the amplitudes of that total parity, and
    ``mode_mask`` those whose Fock subset lies inside the mask.
    """
    shape = (1 << g, 1 << d)
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if mode_mask is not None:
        amp[:, (np.arange(1 << d) & ~mode_mask) != 0] = 0
    if parity is not None:
        amp[(popcounts(g)[:, None] + popcounts(d)[None, :]) % 2 != parity] = 0
    return ModuleTensor(g, d, amp)


def _dist(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def car_anticommutators(rng, d: int) -> float:
    """{Delta(f), Delta(g)} = -2 Re<f, g> over f, g in {e_k, i e_k}; draws nothing."""
    worst = 0.0
    eye = np.eye(1 << d)
    dirs = [np.eye(d)[k] for k in range(d)] + [1j * np.eye(d)[k] for k in range(d)]
    ops = [delta(f) for f in dirs]
    for i, f in enumerate(dirs):
        for j, g in enumerate(dirs):
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            worst = max(worst, _dist(anti, -2.0 * np.real(np.vdot(f, g)) * eye))
    return worst


def gaussian_overlap_determinant(rng, d: int, trials: int = 20, scale: float = 0.7) -> float:
    """overlap_det(X, Y)^2 = det(I + X^dag Y), relative to max(1, |det|)."""
    worst = 0.0
    for _ in range(trials):
        x = og.random_skew(d, rng, scale)
        y = og.random_skew(d, rng, scale)
        det = np.linalg.det(np.eye(d) + x.conj().T @ y)
        worst = max(worst, abs(overlap_det(x, y) ** 2 - det) / max(1.0, abs(det)))
    return worst


def coherent_inner_product(rng, g: int, d: int, trials: int = 10) -> float:
    """(exp xi | exp eta) = exp (xi | eta)."""
    worst = 0.0
    for _ in range(trials):
        xi = random_supervector(rng, g, d)
        eta = random_supervector(rng, g, d)
        lhs = lambda_inner(coherent(xi), coherent(eta))
        worst = max(worst, _dist(lhs.amp, gexp(super_inner(xi, eta)).amp))
    return worst


def coherent_product_factorization(rng, g: int, d: int, trials: int = 10) -> float:
    """(exp xi | Theta o Zeta) = (exp xi | Theta)(exp xi | Zeta) for even Theta, Zeta."""
    worst = 0.0
    for _ in range(trials):
        xi = random_supervector(rng, g, d)
        theta = random_tensor(rng, g, d, parity=0)
        zeta = random_tensor(rng, g, d, parity=0)
        ce = coherent(xi)
        lhs = lambda_inner(ce, mproduct(theta, zeta))
        rhs = gproduct(lambda_inner(ce, theta), lambda_inner(ce, zeta))
        worst = max(worst, _dist(lhs.amp, rhs.amp))
    return worst


def weyl_group_law(rng, g: int, d: int, trials: int = 5) -> float:
    """W(xi) W(eta) = e^{-i omega(xi, eta)} W(xi + eta), dense."""
    worst = 0.0
    for _ in range(trials):
        xi = random_supervector(rng, g, d)
        eta = random_supervector(rng, g, d)
        lhs = WeylOperator(xi).materialize() @ WeylOperator(eta).materialize()
        phase = gexp((-1j) * omega_form(xi, eta))
        worst = max(worst, _dist(lhs, WeylOperator(xi + eta).regular.left_gmul(phase).materialize()))
    return worst


def weyl_isometry(rng, g: int, d: int, trials: int = 5) -> float:
    """(W A | W B) = (A | B), relative to max(1, max|(A | B)|) per draw."""
    worst = 0.0
    for _ in range(trials):
        w = WeylOperator(random_supervector(rng, g, d))
        a, b = random_tensor(rng, g, d), random_tensor(rng, g, d)
        rhs = lambda_inner(a, b).amp
        lhs = lambda_inner(w.apply(a), w.apply(b)).amp
        worst = max(worst, _dist(lhs, rhs) / max(1.0, float(np.max(np.abs(rhs)))))
    return worst


def weyl_on_ultracoherent(rng, g: int, d: int, trials: int = 5) -> float:
    """The closed form ``weyl.weyl_on_ultracoherent`` against the dense W(eta)."""
    worst = 0.0
    for _ in range(trials):
        eta = random_supervector(rng, g, d)
        xi = random_supervector(rng, g, d)
        x = og.random_skew(d, rng)
        lhs = wl.weyl_on_ultracoherent(eta, x, xi).flatten()
        rhs = WeylOperator(eta).materialize() @ ultracoherent(x, xi).flatten()
        worst = max(worst, _dist(lhs, rhs))
    return worst


def weyl_subspace_restriction(rng, g: int, d: int, trials: int = 5, rank=None) -> float:
    """Gamma^(S) W(eta) Gamma^(S^dag P) = W(S eta) Gamma^(P), dense.

    P projects onto a Haar-random subspace of dimension ``rank`` (default
    d - 1), S is a Haar unitary on ran P, and eta is supported on ran P.
    """
    rank = d - 1 if rank is None else rank
    worst = 0.0
    for _ in range(trials):
        basis = og.haar_unitary(d, rng)[:, :rank]
        p = basis @ basis.conj().T
        s = basis @ og.haar_unitary(rank, rng) @ basis.conj().T
        eta = random_supervector(rng, g, d).apply(p)
        lhs = (
            regular_from_fock(g, gamma(s)).materialize()
            @ WeylOperator(eta).materialize()
            @ regular_from_fock(g, gamma(s.conj().T @ p)).materialize()
        )
        rhs = WeylOperator(eta.apply(s)).materialize() @ regular_from_fock(g, gamma(p)).materialize()
        worst = max(worst, _dist(lhs, rhs))
    return worst


def weyl_product_factorization(rng, g: int, d: int, trials: int = 5, parity=None) -> float:
    """W(eta)(Xi1 o Xi2) against ``weyl.weyl_factorize`` over modes {0} | {1, ..}.

    Xi1 lives on mode 0 with ``parity`` (drawn per trial when None), Xi2 on
    the other modes.
    """
    p1 = np.diag([1.0] + [0.0] * (d - 1))
    p2 = np.eye(d) - p1
    worst = 0.0
    for _ in range(trials):
        eta = random_supervector(rng, g, d)
        k = int(rng.integers(0, 2)) if parity is None else parity
        xi1 = random_tensor(rng, g, d, parity=k, mode_mask=1)
        xi2 = random_tensor(rng, g, d, mode_mask=~1)
        lhs = WeylOperator(eta).apply(mproduct(xi1, xi2))
        worst = max(worst, _dist(lhs.amp, wl.weyl_factorize(eta, p1, p2, xi1, xi2).amp))
    return worst


def module_intertwining(rng, g: int, d: int, trials: int = 5) -> float:
    """T^(R) W(xi) = W(R xi) T^(R) for the module lift of the implementer."""
    worst = 0.0
    for _ in range(trials):
        r = og.random_transform(d, rng)
        t_hat = bg.module_lift(bg.implement_general(r).matrix, g).materialize()
        xi = random_supervector(rng, g, d)
        w = WeylOperator(xi).materialize()
        wr = WeylOperator(xi.rotate(r.u, r.v)).materialize()
        worst = max(worst, _dist(t_hat @ w, wr @ t_hat))
    return worst


def gauge_covariance_singular_chart(rng, d: int, trials: int = 3, kernel_dim=None) -> float:
    """T[U S, V conj S] = T[U, V] Gamma(S) for Haar S and n = dim ker U.

    n = ``kernel_dim``, or drawn per trial from 1..min(d, 2) when None.
    """
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, min(d, 2) + 1)) if kernel_dim is None else kernel_dim
        r = og.random_transform(d, rng, kernel_dim=n)
        s = og.haar_unitary(d, rng)
        rs = og.OrthogonalTransform(r.u @ s, r.v @ np.conj(s), check=False)
        lhs = bg.implement_general(r).matrix @ gamma(s)
        worst = max(worst, _dist(lhs, bg.implement_general(rs).matrix))
    return worst


def vacuum_orbit_moebius(rng, d: int, trials: int = 5) -> float:
    """|chi| = 1 for the phase of the Moebius action on orbit coordinates."""
    worst = 0.0
    for _ in range(trials):
        r2 = og.random_transform(d, rng)
        x1 = og.random_skew(d, rng, 0.5)
        chi, _ = bg.orbit_transform(r2, x1)
        worst = max(worst, abs(abs(chi) - 1.0))
    return worst


_MODULE_MODES = 3  # module checks are dense in 2^(generators + modes)

# (invariant, takes generators, mode cap, fewest modes) in report order; a
# check is named after its invariant and runs on min(modes, cap) modes.
BATTERY = (
    (car_anticommutators, False, None, 1),
    (gaussian_overlap_determinant, False, 6, 1),
    (coherent_inner_product, True, _MODULE_MODES, 1),
    (coherent_product_factorization, True, _MODULE_MODES, 1),
    (weyl_group_law, True, _MODULE_MODES, 1),
    (weyl_isometry, True, _MODULE_MODES, 1),
    (weyl_on_ultracoherent, True, _MODULE_MODES, 1),
    (weyl_subspace_restriction, True, _MODULE_MODES, 2),
    (weyl_product_factorization, True, _MODULE_MODES, 2),
    (module_intertwining, True, _MODULE_MODES, 1),
    (gauge_covariance_singular_chart, False, 4, 1),
    (vacuum_orbit_moebius, False, 4, 1),
)


def dense_bytes(modes: int, generators: int) -> float:
    """Peak bytes of the battery's dense operators: the CAR check holds about
    2 modes + 4 of them on 2^modes amplitudes, a module check about 6 on
    2^(generators + min(modes, 3))."""
    car = operator_bytes(2 * modes + 4, modes)
    module = operator_bytes(6, generators + min(modes, _MODULE_MODES)) if generators else 0.0
    return max(car, module)


def run_selftest(
    modes: int = 4, generators: int = 3, seed: int = 0, tol: float = _RESIDUAL_TOL
) -> dict:
    """Run the invariant battery; returns a report dict.

    Every check draws from one generator seeded with ``seed``, in table
    order.  ``generators`` = 0 skips the module checks, and a check that
    needs more modes than it gets is skipped; both with a warning, as is
    every check that runs on fewer than ``modes`` modes.
    """
    rng = np.random.default_rng(seed)
    results: list[dict] = []
    warnings: list[str] = []
    capped: dict[int, list[str]] = {}
    short: list[str] = []
    if generators == 0:
        warnings.append("generators = 0: module-space checks skipped")
    for invariant, module, cap, fewest in BATTERY:
        name = invariant.__name__
        d = modes if cap is None else min(modes, cap)
        if module and generators == 0:
            continue
        if d < fewest:
            short.append(name)
            continue
        if d < modes:
            capped.setdefault(d, []).append(name)
        res = float(invariant(rng, *((generators, d) if module else (d,))))
        results.append({"name": name, "residual": res, "tolerance": tol, "passed": res <= tol})
    if capped:
        runs = "; ".join(f"{', '.join(names)} on {d}" for d, names in capped.items())
        warnings.append(f"modes = {modes}: checks run on fewer modes: {runs}")
    if short:
        warnings.append(f"modes = {modes}: {', '.join(short)} need more modes; skipped")
    return {
        "modes": modes,
        "generators": generators,
        "seed": seed,
        "tol": tol,
        "checks": results,
        "all_passed": all(c["passed"] for c in results),
        "warnings": warnings,
    }

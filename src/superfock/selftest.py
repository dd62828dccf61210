"""Seeded invariant battery shared by the CLI and the test suite.

Each check exercises one of the structural identities of the package on
random instances and reports its worst residual: the anticommutation
relations, the Gaussian overlap determinant, coherent-vector inner products
and factorization, the Weyl group laws and actions, the module intertwining
relation of implementers, the gauge covariance of the singular-chart
construction, and the Moebius action on vacuum-orbit coordinates.
"""

from __future__ import annotations

import numpy as np

from . import bogoliubov as bg
from . import orthogroup as og
from ._tables import popcounts
from .errors import _RESIDUAL_TOL
from .fock import delta, gamma
from .gaussian import overlap_det
from .grassmann import gexp, gproduct
from .supermodule import (
    ModuleTensor,
    SuperVector,
    coherent,
    lambda_inner,
    mproduct,
    super_inner,
    ultracoherent,
)
from .weyl import omega_form, weyl, weyl_factorize, weyl_on_ultracoherent, weyl_restricted

__all__ = ["run_selftest"]


def _rand_supervector(generators, modes, rng, scale=0.8):
    return SuperVector(
        scale
        * (
            rng.standard_normal((generators, modes))
            + 1j * rng.standard_normal((generators, modes))
        )
    )


def _rand_tensor(generators, modes, rng):
    shape = (1 << generators, 1 << modes)
    return ModuleTensor(
        generators, modes, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def _check_car(d, rng):
    worst = 0.0
    eye = np.eye(1 << d)
    dirs = [np.eye(d)[k] for k in range(d)] + [1j * np.eye(d)[k] for k in range(d)]
    ops = [delta(f) for f in dirs]
    for i, f in enumerate(dirs):
        for j, g in enumerate(dirs):
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            target = -2.0 * np.real(np.vdot(f, g)) * eye
            worst = max(worst, float(np.max(np.abs(anti - target))))
    return worst


def _check_h15(d, rng, trials=20):
    worst = 0.0
    for _ in range(trials):
        x = og.random_skew(d, rng)
        y = og.random_skew(d, rng)
        val = overlap_det(x, y) ** 2
        det = np.linalg.det(np.eye(d) + x.conj().T @ y)
        worst = max(worst, abs(val - det) / max(1.0, abs(det)))
    return worst


def _check_h16(g, d, rng, trials=10):
    worst = 0.0
    for _ in range(trials):
        xi = _rand_supervector(g, d, rng)
        eta = _rand_supervector(g, d, rng)
        lhs = lambda_inner(coherent(xi), coherent(eta))
        rhs = gexp(super_inner(xi, eta))
        worst = max(worst, float(np.max(np.abs(lhs.amp - rhs.amp))))
    return worst


def _check_h17(g, d, rng, trials=10):
    tot = popcounts(g)[:, None] + popcounts(d)[None, :]
    worst = 0.0
    for _ in range(trials):
        xi = _rand_supervector(g, d, rng)
        parts = []
        for _ in range(2):
            amp = rng.standard_normal((1 << g, 1 << d)) + 1j * rng.standard_normal(
                (1 << g, 1 << d)
            )
            parts.append(ModuleTensor(g, d, np.where(tot % 2 == 0, amp, 0)))
        theta, zeta = parts
        ce = coherent(xi)
        lhs = lambda_inner(ce, mproduct(theta, zeta))
        rhs = gproduct(lambda_inner(ce, theta), lambda_inner(ce, zeta))
        worst = max(worst, float(np.max(np.abs(lhs.amp - rhs.amp))))
    return worst


def _check_w2(g, d, rng, trials=5):
    worst = 0.0
    for _ in range(trials):
        xi = _rand_supervector(g, d, rng)
        eta = _rand_supervector(g, d, rng)
        lhs = weyl(xi).materialize() @ weyl(eta).materialize()
        phase = gexp((-1j) * omega_form(xi, eta))
        rhs = weyl(xi + eta).regular.left_gmul(phase).materialize()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _check_w6(g, d, rng, trials=5):
    worst = 0.0
    for _ in range(trials):
        eta = _rand_supervector(g, d, rng)
        w = weyl(eta)
        a, b = _rand_tensor(g, d, rng), _rand_tensor(g, d, rng)
        lhs = lambda_inner(w.apply(a), w.apply(b))
        rhs = lambda_inner(a, b)
        scale = max(1.0, float(np.max(np.abs(rhs.amp))))
        worst = max(worst, float(np.max(np.abs(lhs.amp - rhs.amp))) / scale)
    return worst


def _check_w7(g, d, rng, trials=5):
    worst = 0.0
    for _ in range(trials):
        eta = _rand_supervector(g, d, rng)
        xi = _rand_supervector(g, d, rng)
        x = og.random_skew(d, rng)
        lhs = weyl_on_ultracoherent(eta, x, xi).flatten()
        rhs = weyl(eta).materialize() @ ultracoherent(x, xi).flatten()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _check_w8(g, d, rng, trials=5):
    if d < 2:
        return 0.0
    worst = 0.0
    for _ in range(trials):
        basis = og.haar_unitary(d, rng)[:, : d - 1]
        p = basis @ basis.conj().T
        s = basis @ og.haar_unitary(d - 1, rng) @ basis.conj().T
        eta = _rand_supervector(g, d, rng).apply(p)
        worst = max(worst, weyl_restricted(s, p, eta))
    return worst


def _check_w10(g, d, rng, trials=5):
    if d < 2:
        return 0.0
    tot = popcounts(g)[:, None] + popcounts(d)[None, :]
    worst = 0.0
    mask1 = 1  # modes {0} vs {1, ..}
    p1 = np.diag([1.0] + [0.0] * (d - 1))
    p2 = np.eye(d) - p1
    for _ in range(trials):
        eta = _rand_supervector(g, d, rng)
        k = int(rng.integers(0, 2))
        amp1 = rng.standard_normal((1 << g, 1 << d)) + 1j * rng.standard_normal(
            (1 << g, 1 << d)
        )
        for m in range(1 << d):
            if m & ~mask1:
                amp1[:, m] = 0
        amp1 = np.where(tot % 2 == k, amp1, 0)
        xi1 = ModuleTensor(g, d, amp1)
        amp2 = rng.standard_normal((1 << g, 1 << d)) + 1j * rng.standard_normal(
            (1 << g, 1 << d)
        )
        for m in range(1 << d):
            if m & mask1:
                amp2[:, m] = 0
        xi2 = ModuleTensor(g, d, amp2)
        lhs = weyl(eta).apply(mproduct(xi1, xi2))
        rhs = weyl_factorize(eta, p1, p2, xi1, xi2)
        worst = max(worst, float(np.max(np.abs(lhs.amp - rhs.amp))))
    return worst


def _check_r21(g, d, rng, trials=5):
    worst = 0.0
    for _ in range(trials):
        r = og.random_transform(d, rng)
        t_hat = bg.module_lift(bg.implement_general(r).matrix, g).materialize()
        xi = _rand_supervector(g, d, rng)
        w = weyl(xi).materialize()
        wr = weyl(xi.rotate(r.u, r.v)).materialize()
        worst = max(worst, float(np.max(np.abs(t_hat @ w - wr @ t_hat))))
    return worst


def _check_r39(d, rng, trials=3):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, min(d, 2) + 1))
        r = og.random_transform(d, rng, kernel_dim=n)
        s = og.haar_unitary(d, rng)
        rs = og.OrthogonalTransform(r.u @ s, r.v @ np.conj(s), check=False)
        lhs = bg.implement_general(r).matrix @ gamma(s)
        rhs = bg.implement_general(rs).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _check_r46(d, rng, trials=5):
    worst = 0.0
    for _ in range(trials):
        r2 = og.random_transform(d, rng)
        x1 = og.random_skew(d, rng, 0.5)
        chi, _ = bg.orbit_transform(r2, x1)
        worst = max(worst, abs(abs(chi) - 1.0))
    return worst


def run_selftest(
    modes: int = 4, generators: int = 3, seed: int = 0, tol: float = _RESIDUAL_TOL
) -> dict:
    """Run the invariant battery; returns a report dict.

    Module-space checks run with ``generators`` generators over
    min(modes, 3) modes to keep the dense module dimension moderate; Fock
    and group level checks use ``modes`` directly.  ``generators`` = 0
    skips the module checks.
    """
    rng = np.random.default_rng(seed)
    dm = min(modes, 3)
    checks: list[tuple[str, float]] = []
    warnings: list[str] = []

    checks.append(("car_anticommutators", _check_car(modes, rng)))
    checks.append(("gaussian_overlap_determinant", _check_h15(min(modes, 6), rng)))
    if generators > 0:
        g = generators
        checks.append(("coherent_inner_product", _check_h16(g, dm, rng)))
        checks.append(("coherent_product_factorization", _check_h17(g, dm, rng)))
        checks.append(("weyl_group_law", _check_w2(g, dm, rng)))
        checks.append(("weyl_isometry", _check_w6(g, dm, rng)))
        checks.append(("weyl_on_ultracoherent", _check_w7(g, dm, rng)))
        checks.append(("weyl_subspace_restriction", _check_w8(g, dm, rng)))
        checks.append(("weyl_product_factorization", _check_w10(g, dm, rng)))
        checks.append(("module_intertwining", _check_r21(g, dm, rng)))
    else:
        warnings.append("generators = 0: module-space checks skipped")
    checks.append(("gauge_covariance_singular_chart", _check_r39(min(modes, 4), rng)))
    checks.append(("vacuum_orbit_moebius", _check_r46(min(modes, 4), rng)))

    results = [
        {
            "name": name,
            "residual": float(res),
            "tolerance": tol,
            "passed": bool(res <= tol),
        }
        for name, res in checks
    ]
    return {
        "modes": modes,
        "generators": generators,
        "seed": seed,
        "tol": tol,
        "checks": results,
        "all_passed": all(c["passed"] for c in results),
        "warnings": warnings,
    }

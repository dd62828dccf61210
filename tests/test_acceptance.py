"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import numpy as np
import pytest
import scipy.sparse

import superfock.orthogroup as og
import superfock.selftest as battery
from superfock import bogoliubov as bg
from superfock._tables import popcounts
from superfock.errors import ChartError
from superfock.fock import FockVector, delta, gamma, wedge
from superfock.gaussian import exp_omega, gaussian_norm, skew_canonical
from superfock.grassmann import GrassmannElement, gexp, gnorm, gproduct
from superfock.selftest import random_supervector
from superfock.supermodule import (
    ModuleTensor,
    SuperVector,
    b_minus,
    b_plus,
    coherent,
    coherent_family_coefficients,
    mproduct,
)
from superfock.weyl import WeylOperator, weyl_on_coherent

from conftest import random_complex
from oracles import coherent_amplitudes_batch

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def report(num, name, residual, tol):
    status = "PASS" if residual <= tol else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}: max residual {residual:.3e} (tol {tol:.0e})")
    assert residual <= tol, f"criterion {num}: {residual:.3e} > {tol:.0e}"


def test_criterion_01_car_suite():
    worst = 0.0
    for d in range(1, 9):
        eye = scipy.sparse.identity(1 << d, dtype=complex, format="csr")
        dirs = []
        for k in range(d):
            e = np.eye(d)[k]
            dirs.append((e, scipy.sparse.csr_matrix(delta(e))))
            dirs.append((1j * e, scipy.sparse.csr_matrix(delta(1j * e))))
        for f, df in dirs:
            for g, dg in dirs:
                anti = df @ dg + dg @ df + 2.0 * np.real(np.vdot(f, g)) * eye
                if anti.nnz:
                    worst = max(worst, float(np.max(np.abs(anti.data))))
    report(1, "CAR anticommutators, d <= 8", worst, 1e-12)


def test_criterion_02_overlap_determinant():
    rng = np.random.default_rng(2)
    worst = max(
        battery.gaussian_overlap_determinant(rng, d, trials=200, scale=1.0) for d in (2, 4, 6)
    )
    report(2, "subset-Pfaffian overlap squares to det(I + X^dag Y)", worst, 1e-9)


def test_criterion_03_gaussian_norm_expressions():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        d = 2 + (i % 5)  # 2..6
        x = og.random_skew(d, rng, 1.0)
        by_det = gaussian_norm(x)
        by_sum = float(np.linalg.norm(exp_omega(x).amp) ** 2)
        by_pairs = float(np.prod(1.0 + skew_canonical(x).z ** 2))
        worst = max(
            worst,
            abs(by_det - by_sum) / by_det,
            abs(by_det - by_pairs) / by_det,
            abs(by_sum - by_pairs) / by_det,
        )
    report(3, "Gaussian norm: subset sum vs sqrt det vs pair product", worst, 1e-10)


def test_criterion_04_invertible_chart_implementers():
    rng = np.random.default_rng(4)
    worst_unit, worst_int = 0.0, 0.0
    for i in range(100):
        d = 2 + (i % 4)  # 2..5
        r = og.random_transform(d, rng)
        impl = bg.implement_invertible(r)
        worst_unit = max(worst_unit, impl.unitarity_residual())
        worst_int = max(worst_int, bg.intertwining_residual(r, impl.matrix))
    report(4, "invertible chart: unitarity", worst_unit, 1e-10)
    report(4, "invertible chart: intertwining", worst_int, 1e-9)


def test_criterion_05_singular_chart_implementers():
    rng = np.random.default_rng(5)
    worst_unit, worst_int, worst_par = 0.0, 0.0, 0.0
    for i in range(30):
        d = 3 + (i % 2)  # 3..4
        n = 1 + (i % 2)
        r = og.random_transform(d, rng, kernel_dim=n)
        impl = bg.implement_general(r)
        assert impl.kernel_dim == n
        worst_unit = max(worst_unit, impl.unitarity_residual())
        worst_int = max(worst_int, bg.intertwining_residual(r, impl.matrix))
        par = gamma(-np.eye(d))
        flip = impl.matrix @ par - ((-1.0) ** n) * par @ impl.matrix
        worst_par = max(worst_par, float(np.max(np.abs(flip))))
    report(5, "singular chart: unitarity", worst_unit, 1e-10)
    report(5, "singular chart: intertwining", worst_int, 1e-9)
    report(5, "singular chart: parity follows kernel dim mod 2", worst_par, 1e-10)


def test_criterion_06_ray_representation():
    rng = np.random.default_rng(6)
    worst_mod, worst_ray = 0.0, 0.0
    for i in range(50):
        d = 2 + (i % 3)  # 2..4
        r2, r1 = og.random_transform(d, rng), og.random_transform(d, rng)
        t2 = bg.implement_general(r2).matrix
        t1 = bg.implement_general(r1).matrix
        t12 = bg.implement_general(og.compose(r2, r1)).matrix
        chi = bg.cocycle(r2, r1)
        worst_mod = max(worst_mod, abs(abs(chi) - 1.0))
        worst_ray = max(worst_ray, float(np.max(np.abs(t2 @ t1 - chi * t12))))
    report(6, "ray representation: |chi| = 1", worst_mod, 1e-10)
    report(6, "ray representation: scalar-multiple residual", worst_ray, 1e-9)
    worst_co = 0.0
    for i in range(20):
        d = 2 + (i % 3)
        r3, r2, r1 = (og.random_transform(d, rng) for _ in range(3))
        lhs = bg.cocycle(r3, r2) * bg.cocycle(og.compose(r3, r2), r1)
        rhs = bg.cocycle(r3, og.compose(r2, r1)) * bg.cocycle(r2, r1)
        worst_co = max(worst_co, abs(lhs - rhs))
    report(6, "ray representation: cocycle identity", worst_co, 1e-8)


def test_criterion_07_bcs_closed_forms():
    thetas = (np.pi / 6, np.pi / 4, np.pi / 3)
    worst_overlap = max(
        abs(bg.vacuum_orbit(og.bcs(t)).overlap - np.cos(t)) for t in thetas
    )
    report(7, "pairing rotations: vacuum overlap = cos(theta)", worst_overlap, 1e-10)
    worst_moebius = 0.0
    for t1 in thetas:
        for t2 in thetas:
            if abs(t1 + t2 - np.pi / 2) < 1e-12:
                with pytest.raises(ChartError):
                    bg.orbit_transform(og.bcs(t2), np.tan(t1) * J2)
                continue
            _, x3 = bg.orbit_transform(og.bcs(t2), np.tan(t1) * J2)
            worst_moebius = max(
                worst_moebius, float(np.max(np.abs(x3 - np.tan(t1 + t2) * J2)))
            )
    report(7, "pairing rotations: tan addition on orbit coordinates", worst_moebius, 1e-10)
    worst_comp = 0.0
    for t1 in thetas:
        for t2 in thetas:
            out = og.compose(og.bcs(t2), og.bcs(t1))
            ref = og.bcs(t1 + t2)
            worst_comp = max(
                worst_comp,
                float(np.max(np.abs(out.u - ref.u))),
                float(np.max(np.abs(out.v - ref.v))),
            )
    report(7, "pairing rotations: composition is exact", worst_comp, 1e-14)


def test_criterion_08_weyl_suite():
    rng = np.random.default_rng(8)
    g = d = 3
    worst = 0.0
    for _ in range(50):
        eta, xi = random_supervector(rng, g, d), random_supervector(rng, g, d)
        lhs = WeylOperator(eta).apply(coherent(xi))
        rhs = weyl_on_coherent(eta, xi)
        worst = max(worst, float(np.max(np.abs(lhs.amp - rhs.amp))))
    report(8, "Weyl action on coherent vectors", worst, 1e-10)

    report(8, "Weyl group law (dense operators)", battery.weyl_group_law(rng, g, d, 10), 1e-9)
    report(8, "Weyl isometry of the module inner product", battery.weyl_isometry(rng, g, d, 10), 1e-10)
    report(8, "Weyl action on ultracoherent vectors", battery.weyl_on_ultracoherent(rng, g, d, 10), 1e-9)

    worst = 0.0
    step = 1e-5
    for _ in range(10):
        eta, xi = random_supervector(rng, g, d), random_supervector(rng, g, d)
        ce = coherent(xi)
        numeric = (
            WeylOperator(step * eta).apply(ce).amp - WeylOperator((-step) * eta).apply(ce).amp
        ) / (2 * step)
        exact = (b_plus(eta) - b_minus(eta)).apply(ce).amp
        worst = max(worst, float(np.max(np.abs(numeric - exact))))
    report(8, "Weyl generator (central finite difference)", worst, 1e-7)


def test_criterion_09_module_intertwining():
    worst = battery.module_intertwining(np.random.default_rng(9), 3, 3, trials=20)
    report(9, "module intertwining of lifted implementers with Weyl operators", worst, 1e-9)


def test_criterion_10_norm_inequalities():
    from math import comb

    rng = np.random.default_rng(10)
    slack = 1 + 1e-12
    violations = 0.0

    d = 6
    p_of = popcounts(d)
    for _ in range(500):  # exterior product bound on homogeneous tensors
        p = int(rng.integers(0, d + 1))
        q = int(rng.integers(0, d + 1 - p))
        f = FockVector(d, np.where(p_of == p, random_complex(rng, 1 << d), 0))
        g = FockVector(d, np.where(p_of == q, random_complex(rng, 1 << d), 0))
        bound = np.sqrt(comb(p + q, p)) * f.norm() * g.norm() * slack
        violations = max(violations, wedge(f, g).norm() - bound)

    gg = 6
    pg = popcounts(gg)
    for _ in range(500):  # graded-norm product bound on homogeneous elements
        p = int(rng.integers(0, gg + 1))
        q = int(rng.integers(0, gg + 1 - p))
        lam = GrassmannElement(gg, np.where(pg == p, random_complex(rng, 1 << gg), 0))
        mu = GrassmannElement(gg, np.where(pg == q, random_complex(rng, 1 << gg), 0))
        bound = gnorm(lam) * gnorm(mu) / np.sqrt(comb(p + q, p)) * slack
        violations = max(violations, gnorm(gproduct(lam, mu)) - bound)

    for _ in range(500):  # sqrt(3) bound on general elements
        lam = GrassmannElement(gg, random_complex(rng, 1 << gg))
        mu = GrassmannElement(gg, random_complex(rng, 1 << gg))
        bound = np.sqrt(3.0) * gnorm(lam) * gnorm(mu) * slack
        violations = max(violations, gnorm(gproduct(lam, mu)) - bound)

    g3 = d3 = 3
    for _ in range(500):  # supervector multiplication is a contraction
        xi = SuperVector(random_complex(rng, g3, d3))
        theta = ModuleTensor(g3, d3, random_complex(rng, 1 << g3, 1 << d3))
        bound = xi.norm() * theta.norm() * slack
        violations = max(violations, mproduct(xi.to_module(), theta).norm() - bound)

    for _ in range(500):  # homogeneous module product bound
        p = int(rng.integers(0, d3 + 1))
        q = int(rng.integers(0, d3 + 1 - p))
        theta = ModuleTensor(g3, d3, random_complex(rng, 1 << g3, 1 << d3)).fock_degree(p)
        zeta = ModuleTensor(g3, d3, random_complex(rng, 1 << g3, 1 << d3)).fock_degree(q)
        bound = np.sqrt(3.0 * comb(p + q, p)) * theta.norm() * zeta.norm() * slack
        violations = max(violations, mproduct(theta, zeta).norm() - bound)

    for _ in range(500):  # exponential of a degree-2 element
        pg6 = popcounts(gg)
        lam = GrassmannElement(gg, np.where(pg6 == 2, random_complex(rng, 1 << gg), 0))
        bound = np.exp(gnorm(lam) ** 2) * slack
        violations = max(violations, gnorm(gexp(lam)) ** 2 - bound)

    report(10, "norm-inequality battery (no violations over 6 x 500 draws)", max(violations, 0.0), 0.0)


def test_criterion_11_duality_block():
    swap = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    t = bg.implement_general(swap).matrix
    exact = float(np.max(np.abs(t - np.array([[0.0, -1.0], [1.0, 0.0]]))))
    report(11, "one-mode particle-hole block is [[0,-1],[1,0]]", exact, 0.0)

    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (1, 2, 3):
        d = n + 1
        r = og.random_transform(d, rng, kernel_dim=n)
        kd = r.kernel
        j = kd.p0 @ r.v
        t0 = bg.t0_duality(j, kd.h0)
        for _ in range(5):
            h = t0.f_basis @ random_complex(rng, n)
            diff = t0.matrix @ delta(h) - delta(j @ np.conj(h)) @ t0.matrix
            worst = max(worst, float(np.max(np.abs(diff))))
    report(11, "duality block intertwines field differences (n <= 3)", worst, 1e-11)


def test_criterion_12_separating_family_rank():
    worst_defect = 0
    for n in (1, 2, 3):
        coeffs = coherent_family_coefficients(n, n)
        amps = coherent_amplitudes_batch(coeffs)
        m = amps.reshape(-1, 1 << n)
        evals = np.linalg.eigvalsh(m.conj().T @ m)
        slice_rank = int(np.sum(evals > 1e-10 * evals[-1]))
        rank = (1 << n) * slice_rank  # operator-determinacy rank
        worst_defect = max(worst_defect, 4**n - rank)
    report(12, "coherent family determines Fock operators: rank 4^d, G = d <= 3", float(worst_defect), 0.0)

"""Every public function checks outside skew input at the one named threshold,
and one transform decomposes U once."""

import numpy as np
import pytest

from superfock import bogoliubov as bg
from superfock import orthogroup as og
from superfock.errors import SkewnessError
from superfock.gaussian import exp_omega, gaussian_norm, omega, overlap_det, pfaffian, skew_canonical
from superfock.supermodule import SuperVector, ultracoherent
from superfock.weyl import weyl_on_ultracoherent

G, D = 2, 3
SV = SuperVector(0.5 * np.ones((G, D)))

SKEW_CONSUMERS = {
    "pfaffian": pfaffian,
    "omega": omega,
    "exp_omega": exp_omega,
    "skew_canonical": skew_canonical,
    "overlap_det_left": lambda x: overlap_det(x, np.zeros((D, D))),
    "overlap_det_right": lambda x: overlap_det(np.zeros((D, D)), x),
    "gaussian_norm": gaussian_norm,
    "c_norm": bg.c_norm,
    "lift": og.lift,
    "ultracoherent": lambda x: ultracoherent(x, SV),
    "weyl_on_ultracoherent": lambda x: weyl_on_ultracoherent(SV, x, SV),
}


def skew_with_defect(rng, defect):
    x = og.random_skew(D, rng)
    x[0, 1] += defect  # max|X + X^T| = defect
    return x


@pytest.mark.parametrize("name", sorted(SKEW_CONSUMERS))
def test_skew_check_at_the_named_threshold(name, rng):
    fn = SKEW_CONSUMERS[name]
    with pytest.raises(SkewnessError):
        fn(skew_with_defect(rng, 1e-6))
    fn(skew_with_defect(rng, 1e-12))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_one_svd_per_transform(n, monkeypatch):
    r = og.random_transform(6, np.random.default_rng(n), n)
    svd, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert r.kernel.n == n
    bg.implement_general(r)
    og.coset_coordinate(r)
    bg.vacuum_orbit(r)
    assert len(calls) == 1


def test_cached_svd_is_read_only():
    r = og.random_transform(3, np.random.default_rng(0), 1)
    for a in r._svd:
        with pytest.raises(ValueError):
            a[...] = 0.0
    assert np.allclose((r._svd[0] * r._svd[1]) @ r._svd[2], r.u)

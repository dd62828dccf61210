"""Exception types, numerical decision thresholds and the dense-size limit
shared across the package."""

__all__ = ["SkewnessError", "RankAmbiguityError", "ChartError", "operator_bytes"]

# as_skew's default rtol, and the floor of the rtol _cond_rtol derives from cond(U).
_SKEW_RTOL = 1e-10
# validate, the CLI --tol, selftest and the t0_duality and Weyl preconditions.
_RESIDUAL_TOL = 1e-9
# T(R2) T(R1) = chi T(R2 R1) within _RAY_TOL * scale: cocycle, orbit_transform
# and the floor under the CLI compose --tol.
_RAY_TOL = 1e-8
_COND_WARN = 1e8  # implement_invertible warns above this cond(U)
# Singular values of U below RANK_ZERO * smax are kernel directions, above
# RANK_KEEP * smax they count as nonzero; the band in between is reported as
# ambiguous because the kernel dimension selects the representation branch.
RANK_ZERO = 1e-10
RANK_KEEP = 1e-8
# Singular values at or below _RCOND * smax are never inverted.
_RCOND = 1e-12
# skew_canonical: X X^dag eigenvalues <= _SKEW_KERNEL * d * max span ker X;
# a pairing norm must exceed _SKEW_PAIR * zmax, a kept QR |r_ii| _SKEW_PAIR * max(zmax, 1);
# pair values within _SKEW_CLUSTER * zmax form one cluster.
_SKEW_KERNEL = 1e-13
_SKEW_PAIR = 1e-10
_SKEW_CLUSTER = 1e-8
# orbit_transform: the chart edge of smin / max(smax, 1) and X3's skew rtol.
_CHART_EDGE = 1e-10
_MOEBIUS_SKEW = 1e-8
# The CLI exits 2 instead of starting work whose dense operators would take
# more than this many bytes together.
_DENSE_BYTES_LIMIT = 2 << 30


def operator_bytes(count: int, bits: int) -> float:
    """Bytes of ``count`` dense complex 2^bits x 2^bits matrices, 16 * 4^bits
    each; bits beyond 64 count as 64, which is over any limit already."""
    return count * 16 * 4.0 ** min(bits, 64)


class SkewnessError(ValueError):
    """Input matrix is not skew-symmetric within tolerance."""


class RankAmbiguityError(ArithmeticError):
    """A singular value falls inside the rank-decision band.

    Kernel dimensions drive branch choices downstream, so an ambiguous rank
    is reported instead of silently resolved.
    """


class ChartError(ArithmeticError):
    """An operation left the invertible-U coordinate chart."""

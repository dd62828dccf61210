"""Fermionic canonical (Bogoliubov) transformations on finite Fock spaces.

The package builds, over d modes:

* the antisymmetric Fock space with its wedge algebra, involution and CAR
  operators (:mod:`superfock.fock`);
* a Grassmann algebra with a graded Hilbert norm and its module extension of
  the Fock space, carrying coherent and ultracoherent vectors and regular
  operators (:mod:`superfock.grassmann`, :mod:`superfock.supermodule`);
* fermionic Gaussians through subset Pfaffians and the skew canonical form
  (:mod:`superfock.gaussian`);
* the restricted orthogonal group of R-linear isometries f -> U f + V f*
  with kernel decompositions and coset coordinates
  (:mod:`superfock.orthogroup`);
* Weyl operators on the module space (:mod:`superfock.weyl`);
* unitary implementers T(R) with T Delta(f) T^dag = Delta(U f + V f*),
  including the particle-hole block for singular U, vacuum orbits and the
  ray-representation cocycle (:mod:`superfock.bogoliubov`).

A batch CLI (``superfock``) wraps validation, implementation, composition,
vacuum orbits and a seeded selftest battery.
"""

from .errors import ChartError, RankAmbiguityError, SkewnessError
from .fock import (
    FockVector,
    annihilate,
    bilinear,
    create,
    delta,
    gamma,
    inner,
    star,
    tau,
    wedge,
)
from .gaussian import (
    SkewCanonicalForm,
    as_skew,
    exp_omega,
    gaussian_norm,
    omega,
    overlap_det,
    pfaffian,
    pfaffian_all_subsets,
    skew_canonical,
)
from .grassmann import GrassmannElement, gexp, gnorm, gparity, gproduct, gstar
from .orthogroup import (
    CosetPoint,
    KernelDecomposition,
    OrthogonalTransform,
    bcs,
    component,
    compose,
    coset_coordinate,
    gen_inverse,
    group_norm,
    haar_unitary,
    identity,
    inverse,
    kernel_decomposition,
    lift,
    random_skew,
    random_transform,
    validate,
)
from .supermodule import (
    ModuleTensor,
    RegularOperator,
    SuperVector,
    b_minus,
    b_plus,
    coherent,
    coherent_family_coefficients,
    gmul,
    lambda_inner,
    mproduct,
    regular_from_fock,
    super_inner,
    super_pairing,
    ultracoherent,
    weighted_norm,
)
from .weyl import (
    WeylOperator,
    omega_form,
    weyl_factorize,
    weyl_on_coherent,
    weyl_on_ultracoherent,
)
from .bogoliubov import (
    Implementer,
    RestrictedImplementer,
    T0Block,
    VacuumOrbit,
    c_norm,
    cocycle,
    implement_general,
    implement_invertible,
    implement_restricted,
    intertwining_residual,
    module_lift,
    orbit_transform,
    t0_duality,
    vacuum_orbit,
)
from .selftest import run_selftest

__version__ = "0.1.0"

"""parabolic-lab: exact lattice kernels and dynamical diagnostics.

Subpackages by theme:

* :mod:`parabolic_lab.lattice` - integral quadratic lattices, signatures,
  isotropic vectors, the parabolic seed-lattice construction;
* :mod:`parabolic_lab.isometry` - the elliptic/parabolic/loxodromic
  trichotomy, Eichler transvections, invariant boundary directions;
* :mod:`parabolic_lab.torus` - torus translations, integer-relation
  detection, equidistribution diagnostics;
* :mod:`parabolic_lab.hodge` - degree-form identities (hafnian-backed)
  and Hermitian AM-GM rigidity;
* :mod:`parabolic_lab.surface222` - the (2,2,2) surface with its three
  involutions and fiberwise dynamics;
* :mod:`parabolic_lab.cli` - the `parabolic-lab` command.
"""

from .exact import QuadExpr, parse_real, parse_real_vector
from .errors import (
    BranchPointError,
    ContractError,
    DegenerateLatticeError,
    DimensionMismatchError,
    PrecisionError,
    PreconditionError,
)
from .lattice import (
    MarkedLattice,
    QuadLattice,
    build_parabolic_seed_lattice,
    diagonal_lattice,
    e8_lattice,
    find_isotropic,
    hyperbolic_plane,
    k3_lattice,
    represents_in_range,
    scan_orthogonal_negatives,
)
from .isometry import (
    Elliptic,
    LatticeIsometry,
    Loxodromic,
    OutsideSOPlus,
    Parabolic,
    classify,
    compose,
    eichler_transvection,
    inverse,
    limit_nef_class,
    power,
    verify_isometry,
)
from .torus import (
    RationalSubspace,
    TranslationVector,
    circle_gaps,
    iterate,
    orbit_closure_dim,
    rational_hull,
    semicontinuity_scan,
    weyl_sum,
)
from .hodge import (
    FujikiStructure,
    HermitianForm,
    RigidityVerdict,
    amgm_mixed_ratios,
    amgm_rigidity_check,
    fujiki_polarized,
    fujiki_top,
    hafnian,
)
from .surface222 import (
    Surface222,
    SurfacePoint,
    birkhoff_ergodicity_test,
    ergodicity_contrast,
    fiber_orbit,
    involution,
    parabolic_map,
    random_surface,
    reference_surface,
    sample_point,
    translation_check,
)

__version__ = "0.1.0"

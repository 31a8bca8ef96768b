"""Exact verification of commuting ordinary differential operator families.

The package constructs fourth-order operators L4 = L2^2 + (correction) over
exact coefficient rings, proves eigenfunction and commutation identities by
right Euclidean division (a nonzero remainder is a disproof, never rounded
away), computes commuting partners of order 4g+2 together with their spectral
curves, and cross-checks everything in floating point via an independent
finite-difference pipeline.
"""

from .centralizer import (
    AnsatzSystem,
    action_matrix,
    build_ansatz_system,
    find_commuting_operator,
    hyperelliptic_pair,
    series_kernel_basis,
    spectral_curve,
)
from .curves import SpectralCurve, charpoly_w, squarefree_normalize
from .errors import (
    CommutingOperatorNotFound,
    ConstraintError,
    DegenerateSampleError,
    NonMonicError,
    NotCoveredError,
    RingMismatchError,
    SpectralPairsError,
    TruncationError,
    UnsupportedDegreeError,
)
from .families import (
    CUBIC,
    EXPONENTIAL,
    QUARTIC,
    FamilySpec,
    char_poly_z,
    coefficient_ring,
    make_L4,
    make_schrodinger,
    multiplier_p,
    parameter_ring,
    quartic_constraint_value,
    solve_quartic_constraint,
)
from .numeric import (
    GridFunction,
    bessel_change_check,
    eigen_residual,
    integrate_kernel,
    numeric_roots,
    residual_profile,
)
from .operators import DiffOp
from .rings import (
    CharPoly,
    MultiPoly,
    PolyRing,
    QuotientExt,
    QuotientRing,
    TwistedLaurent,
    rational_roots,
    reduce_mod_char,
)
from .verify import (
    DEFAULT_SEED,
    VerificationReport,
    sample_spec,
    verify_commutation,
    verify_corollary,
    verify_eigen_identity,
)

__version__ = "0.1.0"

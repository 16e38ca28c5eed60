"""Exact-arithmetic certificates for anticanonical-cycle surface lattices.

The package builds rational surfaces with an anticanonical cycle at the
lattice level, computes their boundary complements, period points, and
genus-one fibrations, and certifies non-arithmeticity of the symmetry group
of a negative definite pair through finite, exact witnesses.  All arithmetic
is over the integers; no rationals and no floating point are used anywhere.
"""

from .checker import CriterionReport, WeylCertificate, dihedral_order, totaro_check
from .enumeration import EnumerationResult, vectors_of_square
from .errors import InputError, StageFailure
from .fibration import (
    EllipticFibration,
    FiberConfiguration,
    analyze_fibration,
    classify_configuration,
    eichler_transvection,
    fiber_from_boundary,
    isotropic_transvection_group,
    mw_translation_group,
    extra_reducible_fibers,
    shioda_tate_rank,
    translation_vectors,
)
from .isometry import (
    Isometry,
    IsometryType,
    classify_isometry,
    isometry_from_matrix,
    unipotent_line,
)
from .lattice import (
    GramLattice,
    Signature,
    Sublattice,
    definiteness,
    diagonal_lattice,
    direct_sum,
    gram_lattice,
    hyperbolic_plane,
    orthogonal_complement,
    signature,
    sublattice_from_rows,
)
from .period import (
    PeriodPoint,
    extend_over_blowup,
    is_generic,
    solve_period,
)
from .pipeline import make_config, run_criterion, run_pipeline
from .surface import (
    LooijengaSurface,
    blow_down,
    blow_down_with_embedding,
    boundary_complement,
    boundary_definiteness,
    fan_from_sequence,
    interior_blowup,
    surface_invariants,
    toric_from_sequence,
)
from .weyl import chamber_certificate, chamber_sign, weyl_infiniteness_certificate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

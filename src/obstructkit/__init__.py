"""Numerical obstructions for almost-multiplicative matrix families.

The package computes winding numbers of almost-commuting unitary pairs,
unitarizes almost-multiplicative representations, builds almost-projections
and their index pairings, evaluates spectral-asymmetry invariants of twisted
circle operators, and counts integer-homology obstruction classes for a few
group families.  ``obstructkit.cli`` provides the command-line driver.
"""

from .errors import (
    AsymmetricSet,
    AuditViolation,
    BoundViolation,
    HypothesisViolation,
    InvalidFamily,
    InvalidMatrix,
    InvalidSize,
    NotAnAutomorphism,
    NotHermitian,
    NotInCommutatorSubgroup,
    NotInvertible,
    NotProjection,
    NotUnitary,
    NumericalInconsistency,
    ObstructkitError,
    OpenPath,
    ParseError,
    SpectralGapViolation,
    SubdivisionTooCoarse,
    ZeroMode,
)
from .eta import (
    CharacterTwist,
    abel_series_value,
    eta_character_abel,
    eta_character_closed,
    rho_loop,
)
from .homology import (
    AbelianGroup,
    IntMatrix,
    abelian_group_to_text,
    exact_determinant,
    free_by_cyclic_h2,
    int_matrix,
    mapping_torus_surface_h2,
    obstruction_count,
    smith_normal_form,
    symplectic_check,
)
from .matcore import (
    commutator,
    dagger,
    op_norm,
    polar_unitary,
    spectral_projection,
)
from .projops import (
    chain_conjugation,
    compatibility_probe,
    connecting_unitary,
    pairing,
    pairing_block_sum,
    pairing_input,
    projection_pair_context,
)
from .quasirep import (
    QuasiRep,
    approx_mult_audit,
    clock_shift,
    commutation_defect,
    compress,
    defect,
    honest_commuting_rep,
    perturbed_honest_rep,
    quasirep_from_json,
    quasirep_to_json,
    ucp_gram_check,
    unitarize,
    unitary_pair_rep,
    voiculescu_pair,
)
from .seeding import derive_rng, haar_unitary, random_hermitian, random_projection
from .winding import (
    WindingReport,
    max_winding_for_dim,
    random_admissible_unitary,
    winding_class,
    winding_of_unitary,
    winding_pair,
)
from .words import (
    CommutatorDecomposition,
    GroupWord,
    Presentation,
    baumslag_solitar_presentation,
    commutator_decompose,
    free_abelian_presentation,
    surface_presentation,
    word_from_text,
    word_to_text,
)

__version__ = "0.1.0"

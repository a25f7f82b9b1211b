"""Numerical obstructions for almost-multiplicative matrix families.

The package computes winding numbers of almost-commuting unitary pairs,
unitarizes almost-multiplicative representations, builds almost-projections
and their index pairings, evaluates spectral-asymmetry invariants of twisted
circle operators, and counts integer-homology obstruction classes for a few
group families.  ``obstructkit.cli`` provides the command-line driver.

The public names below are imported from their submodule on first use and
then kept in this module's namespace (PEP 562), so ``import obstructkit``
loads neither numpy nor any submodule, and a command-line run loads only
the modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AsymmetricSet", "AuditViolation", "BoundViolation", "HypothesisViolation",
               "InvalidFamily", "InvalidMatrix", "InvalidSize", "NotAnAutomorphism",
               "NotHermitian", "NotInCommutatorSubgroup", "NotInvertible", "NotProjection",
               "NotUnitary", "NumericalInconsistency", "ObstructkitError", "OpenPath",
               "ParseError", "SpectralGapViolation", "SubdivisionTooCoarse", "ZeroMode"),
    "eta": ("CharacterTwist", "abel_series_value", "eta_character_abel", "eta_character_closed",
            "rho_loop"),
    "homology": ("AbelianGroup", "IntMatrix", "abelian_group_to_text", "exact_determinant",
                 "free_by_cyclic_h2", "int_matrix", "mapping_torus_surface_h2",
                 "obstruction_count", "smith_normal_form", "symplectic_check"),
    "matcore": ("commutator", "dagger", "op_norm", "polar_unitary", "spectral_projection"),
    "projops": ("chain_conjugation", "compatibility_probe", "connecting_unitary", "pairing",
                "pairing_block_sum", "pairing_input"),
    "quasirep": ("QuasiRep", "approx_mult_audit", "clock_shift", "commutation_defect",
                 "compress", "defect", "honest_commuting_rep", "perturbed_honest_rep",
                 "quasirep_from_json", "quasirep_to_json", "ucp_gram_check", "unitarize",
                 "unitary_pair_rep", "voiculescu_pair"),
    "seeding": ("derive_rng", "haar_unitary", "random_hermitian", "random_projection"),
    "winding": ("WindingReport", "max_winding_for_dim", "random_admissible_unitary",
                "winding_class", "winding_of_unitary", "winding_pair"),
    "words": ("CommutatorDecomposition", "GroupWord", "Presentation",
              "baumslag_solitar_presentation", "commutator_decompose",
              "free_abelian_presentation", "surface_presentation", "word_from_text",
              "word_to_text"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

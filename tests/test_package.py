"""The package namespace: every public name resolves, on first use, to its submodule."""

import importlib
import json

import pytest

import obstructkit

PUBLIC = {
    "errors": (
        "AsymmetricSet", "AuditViolation", "BoundViolation", "HypothesisViolation",
        "InvalidFamily", "InvalidMatrix", "InvalidSize", "NotAnAutomorphism", "NotHermitian",
        "NotInCommutatorSubgroup", "NotInvertible", "NotProjection", "NotUnitary",
        "NumericalInconsistency", "ObstructkitError", "OpenPath", "ParseError",
        "SpectralGapViolation", "SubdivisionTooCoarse", "ZeroMode",
    ),
    "eta": (
        "CharacterTwist", "abel_series_value", "eta_character_abel", "eta_character_closed",
        "rho_loop",
    ),
    "homology": (
        "AbelianGroup", "IntMatrix", "abelian_group_to_text", "exact_determinant",
        "free_by_cyclic_h2", "int_matrix", "mapping_torus_surface_h2", "obstruction_count",
        "smith_normal_form", "symplectic_check",
    ),
    "matcore": ("commutator", "dagger", "op_norm", "polar_unitary", "spectral_projection"),
    "projops": (
        "chain_conjugation", "compatibility_probe", "connecting_unitary", "pairing",
        "pairing_block_sum", "pairing_input",
    ),
    "quasirep": (
        "QuasiRep", "approx_mult_audit", "clock_shift", "commutation_defect", "compress",
        "defect", "honest_commuting_rep", "perturbed_honest_rep", "quasirep_from_json",
        "quasirep_to_json", "ucp_gram_check", "unitarize", "unitary_pair_rep",
        "voiculescu_pair",
    ),
    "seeding": ("derive_rng", "haar_unitary", "random_hermitian", "random_projection"),
    "winding": (
        "WindingReport", "max_winding_for_dim", "random_admissible_unitary", "winding_class",
        "winding_of_unitary", "winding_pair",
    ),
    "words": (
        "CommutatorDecomposition", "GroupWord", "Presentation",
        "baumslag_solitar_presentation", "commutator_decompose", "free_abelian_presentation",
        "surface_presentation", "word_from_text", "word_to_text",
    ),
}
NAMES = {name for names in PUBLIC.values() for name in names}


def test_every_public_name_resolves_to_its_submodule():
    assert len(NAMES) == 79
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"obstructkit.{module}")
        for name in names:
            assert getattr(obstructkit, name) is getattr(home, name), name
    assert obstructkit.__version__ == "0.1.0"


def test_star_import_and_dir_list_every_name():
    scope = {}
    exec("from obstructkit import *", scope)
    assert NAMES <= scope.keys()
    assert set(obstructkit.__all__) == NAMES
    assert NAMES | {"__version__"} <= set(dir(obstructkit))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(obstructkit, "nope")
    with pytest.raises(AttributeError, match="'nope'"):
        obstructkit.nope  # noqa: B018


def test_import_loads_neither_numpy_nor_a_submodule(fresh_python):
    proc = fresh_python(
        "import json, sys\n"
        "import obstructkit\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('numpy', 'obstructkit'))))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["obstructkit"]

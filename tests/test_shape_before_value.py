"""Shape before value: every entry point refuses a malformed family of
matrices (exit 1) before its first value gate (exit 2 or 3).

Each row is doubly bad: a size or bound fault and a value fault that, checked
first, would exit 2.  The refusal must be a :class:`ParseError` naming the
first malformed member.  The rows of ``REFUSALS`` have one fault each, and
expect its own class and message.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from obstructkit.errors import (
    BoundViolation,
    HypothesisViolation,
    InvalidMatrix,
    InvalidSize,
    ParseError,
)
from obstructkit.eta import CharacterTwist, abel_series_value, eta_character_abel
from obstructkit.matcore import (
    as_matrices,
    commutator,
    dagger,
    matrix_to_json,
    op_norm,
    polar_unitary,
    spectral_projection,
)
from obstructkit.homology import AbelianGroup, int_matrix, mapping_torus_surface_h2
from obstructkit.projops import (
    chain_conjugation,
    compatibility_probe,
    connecting_unitary,
    pairing_block_sum,
    pairing_input,
)
from obstructkit.quasirep import (
    QuasiRep,
    approx_mult_audit,
    compress,
    perturbed_honest_rep,
    quasirep_from_json,
    ucp_gram_check,
    unitarize,
    voiculescu_pair,
)
from obstructkit.seeding import derive_rng
from obstructkit.winding import winding_of_unitary, winding_pair
from obstructkit.words import (
    GroupWord,
    canonical_form,
    free_abelian_presentation,
    free_presentation,
    generator,
    presentation_to_json,
)

Z2 = free_abelian_presentation(2)
I2, I3 = np.eye(2), np.eye(3)
P2 = np.diag([1.0, 0.0])
P3 = np.diag([1.0, 0.0, 0.0])
P3_FAR = np.diag([0.0, 1.0, 0.0])  # ||P3 - P3_FAR|| = 1 >= 1/4
HALF3 = 0.5 * I3  # neither a projection nor anywhere near one
AB = canonical_form(GroupWord(((0, 1), (1, 1))), Z2).letters


def _pairing_with_a_non_projection():
    # e + b = 1/2 on the diagonal, and gap_tol below the certificate's floor
    return pairing_input(np.diag([-0.5, 0.5]), np.eye(1), 1, 1, gap_tol=1e-300)


def _probe_of_dim_two():
    return compatibility_probe(HALF3, [compress([I2, I2], P2, Z2)], 0.1)


def _plain_probe_before_one_of_dim_two():
    return compatibility_probe(HALF3, [QuasiRep(Z2, (I3, I3)), compress([I2, I2], P2, Z2)], 0.1)


def _compression_of_one_non_unitary_image_for_two_generators():
    comp = compress([I2, I2], P2, Z2).compression
    return QuasiRep(Z2, (np.eye(1), np.eye(1)), flavor="ucp-compression",
                    compression=replace(comp, big_images=(2.0 * I2,)))


def _compression_with_a_table_and_a_non_unitary_image():
    comp = compress([I2, I2], P2, Z2).compression
    return QuasiRep(Z2, (np.eye(1), np.eye(1)), flavor="ucp-compression",
                    word_table={AB: 0.5 * np.eye(1)},
                    compression=replace(comp, big_images=(2.0 * I2, I2)))


def _json_rep_with_a_nan_image_beside_one_out_of_the_ball():
    nan_entry = matrix_to_json(I2)
    nan_entry["entries"][1][1][0] = math.nan
    return quasirep_from_json({"presentation": presentation_to_json(Z2),
                               "images": [matrix_to_json(2.0 * I2), nan_entry]})


def _compression_with_isometry_and_a_non_unitary_image(isometry):
    comp = compress([I2, I2], P2, Z2).compression
    return QuasiRep(Z2, (np.eye(1), np.eye(1)), flavor="ucp-compression",
                    compression=replace(comp, big_images=(2.0 * I2, I2), isometry=isometry))


ROWS = {
    "general-flavor ragged images": (
        lambda: QuasiRep(Z2, (I2, 2.0 * I3)),
        r"^image of generator 1 must be 2 x 2, got 3$",
    ),
    "unitary-flavor ragged images": (
        lambda: QuasiRep(Z2, (I2, 2.0 * I3), flavor="unitary"),
        r"^image of generator 1 must be 2 x 2, got 3$",
    ),
    "winding pair of sizes 2 and 3": (
        lambda: winding_pair(I2, I3),
        r"^second of the pair must be 2 x 2, got 3$",
    ),
    # one unitarity gate proves the whole family, so an overflowed residue
    # anywhere in it is refused before the first non-unitary member
    "winding pair: non-unitary, then a residue that overflows": (
        lambda: winding_pair(2.0 * I2, 1e200 * I2),
        r"^matrix has non-finite entries$",
    ),
    "unitary-flavor images: non-unitary, then a residue that overflows": (
        lambda: QuasiRep(Z2, (2.0 * I2, 1e200 * I2), flavor="unitary"),
        r"^matrix has non-finite entries$",
    ),
    "table value of the wrong size": (
        lambda: QuasiRep(Z2, (2.0 * I2, I2), word_table={AB: I3}),
        r"^table value for .* must be 2 x 2, got 3$",
    ),
    "chain path of two sizes": (
        lambda: chain_conjugation([P3, P2, HALF3], []),
        r"^path projection 1 must be 3 x 3, got 2$",
    ),
    "coarse chain with a wrong-size test operator": (
        lambda: chain_conjugation([P3, P3_FAR], [I2]),
        r"^test operator 0 must be 3 x 3, got 2$",
    ),
    "non-projection pair with a wrong-size test operator": (
        lambda: connecting_unitary(HALF3, P3, [I2]),
        r"^test operator 0 must be 3 x 3, got 2$",
    ),
    "pair test operators out of the ball, then of the wrong size": (
        lambda: connecting_unitary(P3, P3, [2.0 * I3, I2]),
        r"^test operator 1 must be 3 x 3, got 2$",
    ),
    "non-unitary winding pair of two sizes": (
        lambda: winding_pair(2.0 * I2, I3),
        r"^second of the pair must be 2 x 2, got 3$",
    ),
    "compression by a non-projection of the wrong size": (
        lambda: compress([I2, I2], HALF3, Z2),
        r"^compression projection must be 2 x 2, got 3$",
    ),
    "pairing of a non-projection below the gap floor": (
        _pairing_with_a_non_projection,
        r"^gap_tol 1e-300 not in",
    ),
    "Abel eta at q = 0 on an empty ladder": (
        lambda: eta_character_abel(CharacterTwist(0.0), ()),
        r"^t ladder is empty$",
    ),
    "probe of a size that does not divide a non-projection": (
        _probe_of_dim_two,
        r"^probe 0 dimension 2 does not divide 3$",
    ),
    "probe without compression data, then one of a non-dividing size": (
        _plain_probe_before_one_of_dim_two,
        r"^probe 0 is not a compression quasi-representation$",
    ),
    # "ba" on Z^2 names the element of "ab", whose key the table never read
    "table key spelled ba beside an image out of the ball": (
        lambda: QuasiRep(Z2, (2.0 * I2, I2), word_table={((1, 1), (0, 1)): I2}),
        r"^table key \(\(1, 1\), \(0, 1\)\) is not a nonidentity canonical form$",
    ),
    "table key of a generator Z^2 lacks beside an image out of the ball": (
        lambda: QuasiRep(Z2, (2.0 * I2, I2), word_table={((5, 1),): I2}),
        r"^word uses generator 5 but only 2 are declared$",
    ),
    # evaluate returns the identity before it looks in the table
    "table key of the identity beside an image out of the ball": (
        lambda: QuasiRep(Z2, (2.0 * I2, I2), word_table={(): 0.5 * I2}),
        r"^table key \(\) is not a nonidentity canonical form$",
    ),
    "unknown flavor with an image out of the ball": (
        lambda: QuasiRep(Z2, (2.0 * I2, I2), flavor="orthogonal"),
        r"^unknown flavor 'orthogonal'$",
    ),
    "compression data for too few generators, with a non-unitary image": (
        _compression_of_one_non_unitary_image_for_two_generators,
        r"^compression data must match the generators$",
    ),
    "compression data with a word table, and a non-unitary big image": (
        _compression_with_a_table_and_a_non_unitary_image,
        r"^compression data take no word_table or default_to_identity$",
    ),
    # the isometry is converted as an image is, and refused under its own name
    "compression isometry of ragged rows, with a non-unitary big image": (
        lambda: _compression_with_isometry_and_a_non_unitary_image([[1.0], [0.0, 1.0]]),
        r"^compression isometry: not a complex matrix: ",
    ),
    "compression isometry with a NaN entry, with a non-unitary big image": (
        lambda: _compression_with_isometry_and_a_non_unitary_image([[math.nan], [0.0]]),
        r"^compression isometry: matrix has non-finite entries$",
    ),
    "compression isometry of one entry, with a non-unitary big image": (
        lambda: _compression_with_isometry_and_a_non_unitary_image(1.0),
        r"^compression isometry: expected a matrix, got shape \(\)$",
    ),
    # a family gate names the member whose entries are not finite or square
    "NaN image beside a non-unitary image": (
        lambda: QuasiRep(Z2, (2.0 * I2, math.nan * I2), flavor="unitary"),
        r"^image of generator 1: matrix has non-finite entries$",
    ),
    "non-square image beside an image out of the ball": (
        lambda: QuasiRep(Z2, (2.0 * I2, np.ones((2, 3)))),
        r"^image of generator 1: expected a square matrix, got shape \(2, 3\)$",
    ),
    "NaN table value beside an image out of the ball": (
        lambda: QuasiRep(Z2, (2.0 * I2, I2), word_table={AB: math.nan * I2}),
        r"^table value for \(\(0, 1\), \(1, 1\)\): matrix has non-finite entries$",
    ),
    "non-unitary winding pair with a NaN member": (
        lambda: winding_pair(2.0 * I2, math.nan * I2),
        r"^second of the pair: matrix has non-finite entries$",
    ),
    "chain path with a NaN member beside a non-projection": (
        lambda: chain_conjugation([P3, math.nan * I3, HALF3], []),
        r"^path projection 1: matrix has non-finite entries$",
    ),
    # a stack is checked by one finiteness pass, which names its first NaN member
    "chain path stack with a NaN member after a non-projection": (
        lambda: chain_conjugation(np.array([P3, HALF3, math.nan * I3, math.nan * I3]), []),
        r"^path projection 2: matrix has non-finite entries$",
    ),
    "JSON rep with a NaN image beside an image out of the ball": (
        _json_rep_with_a_nan_image_beside_one_out_of_the_ball,
        r"^image of generator 1: matrix has non-finite entries$",
    ),
    "compression to rank zero of a non-unitary image": (
        lambda: compress([2.0 * I2, I2], np.zeros((2, 2)), Z2),
        r"^projection has rank zero; nothing to compress to$",
    ),
    "pairing with N = 0 and a non-projection": (
        lambda: pairing_input(np.diag([-0.5, 0.5]), np.eye(1), 0, 1),
        r"^tensor factors must have positive dimension$",
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_malformed_input_is_refused_before_any_value_gate(row):
    call, message = ROWS[row]
    with pytest.raises(ParseError, match=message) as exc_info:
        call()
    assert exc_info.value.exit_code == 1


# ragged, textual and oversized entries, which numpy refuses with its own
# ValueError, TypeError or OverflowError; each row with the name its refusal
# starts with, as a family gate names the member numpy cannot convert
UNCONVERTIBLE = {
    "op_norm of ragged rows": (lambda: op_norm([[1, 2], [3]]), ""),
    "op_norm of a string": (lambda: op_norm("ab"), ""),
    "op_norm of an integer past float": (lambda: op_norm([[10**400]]), ""),
    "polar_unitary of letters": (lambda: polar_unitary([["a", "b"], ["c", "d"]]), ""),
    "winding_of_unitary of ragged rows": (lambda: winding_of_unitary([[1, 0], [0]]), ""),
    "QuasiRep of a ragged image": (
        lambda: QuasiRep(free_abelian_presentation(1), ([[1, 0], [0]],)),
        "image of generator 0: ",
    ),
    "commutator of ragged rows": (lambda: commutator([[1, 0], [0]], I2), "a: "),
    "dagger of a string": (lambda: dagger("ab"), ""),
    "spectral_projection of ragged rows": (
        lambda: spectral_projection([[1, 0], [0]], 0.5, 0.1), ""),
    "as_matrices of a stack of letters": (
        lambda: as_matrices(np.array([[["a"]]]), "a"), "a: "),
}


@pytest.mark.parametrize("row", UNCONVERTIBLE)
def test_input_numpy_cannot_convert_is_refused_by_the_gate(row):
    call, name = UNCONVERTIBLE[row]
    with pytest.raises(InvalidMatrix, match=f"^{name}not a complex matrix: ") as exc_info:
        call()
    assert exc_info.value.exit_code == 1


def _zero_image_rep():
    # ||0* 0 - 1|| = 1: the unitarity defect is not below 1
    return QuasiRep(free_presentation(1), (np.zeros((2, 2)),))


REFUSALS = {
    "ucp_gram_check of no words": (
        lambda: ucp_gram_check(QuasiRep(Z2, (I2, I2)), []),
        InvalidSize,
        r"^ucp_gram_check needs a nonempty word list$",
    ),
    "approx_mult_audit of a unitarity defect of one": (
        lambda: approx_mult_audit(_zero_image_rep(), [generator(0)], []),
        HypothesisViolation,
        r"^unitarity defect 1\.000000 is not below 1$",
    ),
    "pairing_block_sum of two k factors": (
        lambda: pairing_block_sum(pairing_input(np.zeros((2, 2)), np.eye(1), 1, 1),
                                  pairing_input(np.zeros((2, 2)), np.eye(2), 1, 2)),
        InvalidSize,
        r"^block sum needs matching k factors$",
    ),
    "mapping_torus_surface_h2 of a non-square action": (
        lambda: mapping_torus_surface_h2(1, int_matrix([[1, 0]])),
        InvalidSize,
        r"^surface homology action must be square$",
    ),
}


@pytest.mark.parametrize("row", REFUSALS)
def test_each_refusal_names_its_fault(row):
    call, error, message = REFUSALS[row]
    with pytest.raises(error, match=message):
        call()


NAN = math.nan
TW = CharacterTwist(0.3)

# each bound refusal and the value it must carry in ``measured``: the
# offending value, or the count when the refusal is about a count
BOUND_REFUSALS = {
    "spectral_projection of an infinite cut": (lambda: spectral_projection(I2, math.inf, 0.1),
                                               math.inf),
    "spectral_projection of a NaN cut": (lambda: spectral_projection(I2, NAN, 0.1), NAN),
    "spectral_projection of a negative gap_tol": (lambda: spectral_projection(I2, 0.5, -1.0),
                                                  -1.0),
    "spectral_projection of a NaN gap_tol": (lambda: spectral_projection(I2, 0.5, NAN), NAN),
    "CharacterTwist of phase 1": (lambda: CharacterTwist(1.0), 1.0),
    "CharacterTwist of a NaN phase": (lambda: CharacterTwist(NAN), NAN),
    "abel_series_value of t above 1": (lambda: abel_series_value(0.3, 2.0), 2.0),
    "abel_series_value of a NaN t": (lambda: abel_series_value(0.3, NAN), NAN),
    "abel_series_value of q = 0": (lambda: abel_series_value(0.0, 0.5), 0.0),
    "abel_series_value of a NaN q": (lambda: abel_series_value(NAN, 0.5), NAN),
    "eta_character_abel of an empty ladder": (lambda: eta_character_abel(TW, []), 0),
    "eta_character_abel of a rising ladder": (
        lambda: eta_character_abel(TW, [0.4, 0.2, 0.3, 0.1, 0.05]), 0.3),
    "eta_character_abel of a repeated entry": (
        lambda: eta_character_abel(TW, [0.4, 0.2, 0.2, 0.1, 0.05]), 0.2),
    "eta_character_abel of order 0": (lambda: eta_character_abel(TW, richardson_order=0), 0),
    "eta_character_abel of a short ladder": (lambda: eta_character_abel(TW, [0.4, 0.2]), 2),
    "AbelianGroup of free rank -1": (lambda: AbelianGroup(-1), -1),
    "AbelianGroup of free rank 1.5": (lambda: AbelianGroup(1.5), 1.5),
    "AbelianGroup of torsion 1": (lambda: AbelianGroup(0, (2, 1)), 1),
    "AbelianGroup of torsion 2, 4, 6": (lambda: AbelianGroup(0, (2, 4, 6)), 6),
    "mapping_torus_surface_h2 of sign 0": (
        lambda: mapping_torus_surface_h2(0, int_matrix([[1, 0], [0, 1]])), 0),
    "unitarize of eps = 1": (lambda: unitarize(QuasiRep(Z2, (I2, I2)), [], 1.0), 1.0),
    "unitarize of a NaN eps": (lambda: unitarize(QuasiRep(Z2, (I2, I2)), [], NAN), NAN),
    "perturbed_honest_rep of eps = 0": (
        lambda: perturbed_honest_rep(Z2, [], 0.0, 2, derive_rng(1, 1)), 0.0),
    "perturbed_honest_rep of a NaN eps": (
        lambda: perturbed_honest_rep(Z2, [], NAN, 2, derive_rng(1, 1)), NAN),
    "voiculescu_pair of delta = 0": (lambda: voiculescu_pair(0.0, 1), 0.0),
    "voiculescu_pair of an infinite delta": (lambda: voiculescu_pair(math.inf, 1), math.inf),
    "voiculescu_pair of a NaN delta": (lambda: voiculescu_pair(NAN, 1), NAN),
}


@pytest.mark.parametrize("row", BOUND_REFUSALS)
def test_each_bound_refusal_carries_its_offending_value(row):
    call, want = BOUND_REFUSALS[row]
    with pytest.raises(BoundViolation) as exc_info:
        call()
    got = exc_info.value.measured
    if isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert type(got) is type(want) and got == want
    assert exc_info.value.exit_code == 1

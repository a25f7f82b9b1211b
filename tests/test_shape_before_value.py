"""Shape before value: every entry point refuses a malformed family of
matrices (exit 1) before its first value gate (exit 2 or 3).

Each row is doubly bad: a size or bound fault and a value fault that, checked
first, would exit 2.  The refusal must be a :class:`ParseError` naming the
first malformed member.
"""

import numpy as np
import pytest

from obstructkit.errors import InvalidMatrix, ParseError
from obstructkit.eta import CharacterTwist, eta_character_abel
from obstructkit.matcore import (
    as_matrices,
    commutator,
    dagger,
    op_norm,
    polar_unitary,
    spectral_projection,
)
from obstructkit.projops import (
    chain_conjugation,
    compatibility_probe,
    connecting_unitary,
    pairing_input,
)
from obstructkit.quasirep import QuasiRep, compress
from obstructkit.winding import winding_of_unitary, winding_pair
from obstructkit.words import GroupWord, canonical_form, free_abelian_presentation

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
}


@pytest.mark.parametrize("row", ROWS)
def test_malformed_input_is_refused_before_any_value_gate(row):
    call, message = ROWS[row]
    with pytest.raises(ParseError, match=message) as exc_info:
        call()
    assert exc_info.value.exit_code == 1


# ragged, textual and oversized entries, which numpy refuses with its own
# ValueError, TypeError or OverflowError
UNCONVERTIBLE = {
    "op_norm of ragged rows": lambda: op_norm([[1, 2], [3]]),
    "op_norm of a string": lambda: op_norm("ab"),
    "op_norm of an integer past float": lambda: op_norm([[10**400]]),
    "polar_unitary of letters": lambda: polar_unitary([["a", "b"], ["c", "d"]]),
    "winding_of_unitary of ragged rows": lambda: winding_of_unitary([[1, 0], [0]]),
    "QuasiRep of a ragged image": lambda: QuasiRep(
        free_abelian_presentation(1), ([[1, 0], [0]],)
    ),
    "commutator of ragged rows": lambda: commutator([[1, 0], [0]], I2),
    "dagger of a string": lambda: dagger("ab"),
    "spectral_projection of ragged rows": lambda: spectral_projection([[1, 0], [0]], 0.5, 0.1),
    "as_matrices of a stack of letters": lambda: as_matrices(np.array([[["a"]]]), "a"),
}


@pytest.mark.parametrize("row", UNCONVERTIBLE)
def test_input_numpy_cannot_convert_is_refused_by_the_gate(row):
    with pytest.raises(InvalidMatrix, match="^not a complex matrix: ") as exc_info:
        UNCONVERTIBLE[row]()
    assert exc_info.value.exit_code == 1

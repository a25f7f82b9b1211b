"""The read-only policy: every array the library returns is read-only, and a
caller's arrays are never modified or frozen.

Oracles are the ``writeable`` flag and a bytewise snapshot taken before the
call.
"""

from dataclasses import replace

import numpy as np
import pytest

from obstructkit.matcore import (
    as_matrix,
    commutator,
    coordinate_projection,
    dagger,
    identity,
    polar_unitary,
    range_projection,
    sealed,
    spectral_projection,
    spectral_split,
)
from obstructkit.projops import (
    chain_conjugation,
    connecting_unitary,
    pairing_input,
    pairing_operand,
)
from obstructkit.quasirep import (
    QuasiRep,
    clock_shift,
    compress,
    honest_commuting_rep,
    voiculescu_pair,
)
from obstructkit.seeding import (
    haar_unitary,
    random_hermitian,
    random_projection,
    random_rotation,
)
from obstructkit.winding import random_admissible_unitary, winding_of_unitary
from obstructkit.words import GroupWord, adjoints, free_abelian_presentation, inverses

Z2 = free_abelian_presentation(2)
AB = GroupWord(((0, 1), (1, 1)))
HALF = np.diag([1.0, 1.0, 0.0, 0.0])


def _evaluations(rng):
    """Products of two letters and their inverses, on an honest rep and its corner."""
    honest = honest_commuting_rep(Z2, 4, rng)
    reps = (honest, compress(honest.images, HALF, Z2))
    return [rep.evaluate(w) for rep in reps for w in (AB, AB.inverse())]


# each producer returns the arrays it made, from a fresh generator
PRODUCERS = {
    "as_matrix": lambda rng: [as_matrix([[1.0, 2.0], [3.0, 4.0]])],
    "identity": lambda rng: [identity(3)],
    "commutator": lambda rng: [commutator(*clock_shift(3))],
    "dagger": lambda rng: [dagger(haar_unitary(3, rng))],
    "polar_unitary": lambda rng: [polar_unitary(0.5 * haar_unitary(3, rng))],
    "spectral_split": lambda rng: list(spectral_split(random_hermitian(3, rng), 0.0, 0.0)),
    "range_projection": lambda rng: [range_projection(haar_unitary(3, rng)[:, :2])],
    "spectral_projection": lambda rng: [spectral_projection(np.diag([0.0, 1.0, 1.0]), 0.5, 0.1)],
    "coordinate_projection": lambda rng: [coordinate_projection(3, 1)],
    "random_rotation": lambda rng: [random_rotation(3, rng, 0.3)],
    "haar_unitary": lambda rng: [haar_unitary(3, rng)],
    "random_hermitian": lambda rng: [random_hermitian(3, rng)],
    "random_projection": lambda rng: [random_projection(3, 1, rng)],
    "adjoints": lambda rng: list(adjoints([as_matrix(haar_unitary(3, rng))], "u")),
    "inverses": lambda rng: list(inverses([as_matrix(np.diag([2.0, 1.0]))])),
    "clock_shift": lambda rng: list(clock_shift(3)),
    "voiculescu_pair": lambda rng: list(voiculescu_pair(0.9, 2)),
    "connecting_unitary": lambda rng: [
        connecting_unitary(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), ())[0]
    ],
    "chain_conjugation": lambda rng: [chain_conjugation([np.diag([1.0, 0.0])] * 3, ())[0]],
    "pairing_operand": lambda rng: [
        pairing_operand(pairing_input(np.zeros((4, 4)), np.diag([1.0, 0.0]), 2, 1))
    ],
    "random_admissible_unitary": lambda rng: [random_admissible_unitary(4, rng)[0]],
    "compression_isometry": lambda rng: [
        compress(honest_commuting_rep(Z2, 4, rng).images, HALF, Z2).compression.isometry
    ],
    "evaluate": _evaluations,
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_returned_arrays_are_read_only(name, rng):
    arrays = PRODUCERS[name](rng)
    assert arrays
    for a in arrays:
        assert isinstance(a, np.ndarray)
        assert not a.flags.writeable


def test_sealed_keeps_the_array_and_its_layout():
    a = np.arange(6, dtype=np.complex128).reshape(2, 3).T
    assert sealed(a) is a
    assert not a.flags.writeable and a.flags.f_contiguous


def test_as_matrix_copies_only_a_writable_or_strided_input():
    a = identity(3)
    assert as_matrix(a) is a
    t = a[:, :2][:2].T  # read-only, but not in C order
    out = as_matrix(t)
    assert out is not t and out.flags.c_contiguous and np.array_equal(out, t)


def test_caller_arrays_stay_writable_and_unchanged(rng):
    honest = honest_commuting_rep(Z2, 4, rng)
    big = [np.array(m) for m in honest.images]
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
    w = np.array(random_admissible_unitary(4, rng)[0])
    b = np.zeros((4, 4), dtype=np.complex128)
    q = np.diag([1.0, 0.0]).astype(np.complex128)
    caller = [*big, proj, w, b, q]
    before = [a.tobytes() for a in caller]

    as_matrix(w)
    QuasiRep(Z2, tuple(big), flavor="unitary")
    compress(big, proj, Z2)
    pairing_input(b, q, 2, 1)
    winding_of_unitary(w)

    for a, snapshot in zip(caller, before):
        assert a.flags.writeable
        assert a.tobytes() == snapshot


def test_compression_isometry_is_kept_sealed(rng):
    # a writable isometry is copied, as an image is, so writing to it later
    # changes nothing the rep evaluates; a list converts; a sealed one is
    # kept as it is, its memory layout too
    rep = compress(honest_commuting_rep(Z2, 4, rng).images, HALF, Z2)
    sealed_iso = rep.compression.isometry

    def rebuilt(isometry):
        comp = replace(rep.compression, isometry=isometry)
        return QuasiRep(Z2, rep.images, "ucp-compression", compression=comp)

    assert rebuilt(sealed_iso).compression.isometry is sealed_iso
    writable = np.array(sealed_iso, order="K")
    kept = rebuilt(writable)
    before = kept.evaluate(AB)
    assert kept.compression.isometry is not writable and writable.flags.writeable
    assert not kept.compression.isometry.flags.writeable
    assert kept.compression.isometry.flags.f_contiguous == sealed_iso.flags.f_contiguous
    writable[:] = 0.0
    assert np.array_equal(kept.evaluate(AB), before)
    listed = rebuilt(sealed_iso.tolist()).compression.isometry
    assert np.array_equal(listed, sealed_iso) and not listed.flags.writeable

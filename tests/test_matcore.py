"""Contracts of the dense linear-algebra core.

Oracles: scipy.linalg.polar for the polar factor, a hand-rolled power
iteration and the SVD for the operator norm, and direct eigenvalue counts for
spectral projections.  Library calls are cross-checked against these, never
against themselves.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructkit.errors import (
    BoundViolation,
    InvalidMatrix,
    InvalidSize,
    NotHermitian,
    NotInvertible,
    NotProjection,
    NotUnitary,
    SpectralGapViolation,
)
from obstructkit import matcore
from obstructkit.cli import main
from obstructkit.matcore import (
    SINGULARITY_TOL,
    SVD_NORM_DIM_LIMIT,
    UNITARITY_TOL,
    as_matrices,
    as_matrix,
    commutator,
    dagger,
    identity,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    op_norms,
    polar_unitaries,
    polar_unitary,
    require_indexable,
    require_projection,
    require_unitary,
    screened_norms,
    sealed,
    spectral_projection,
    spectral_split,
    spectral_tol,
)
from obstructkit.projops import pairing_input
from obstructkit.quasirep import compress
from obstructkit.seeding import (
    derive_rng,
    gaussian_hermitian,
    haar_unitary,
    random_hermitian,
    random_projection,
    random_rotation,
    rotations,
)
from obstructkit.winding import winding_of_unitary
from obstructkit.words import free_abelian_presentation


def power_iteration_norm(a, iters=2000, seed=5):
    """Independent operator-norm oracle: power iteration on a*a."""
    gen = np.random.default_rng(seed)
    m = a.conj().T @ a
    x = gen.normal(size=a.shape[0]) + 1j * gen.normal(size=a.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(iters):
        x = m @ x
        x /= np.linalg.norm(x)
    return float(np.sqrt(np.real(np.vdot(x, m @ x))))


def clock_and_shift(n):
    """Oracle-side reconstruction of the basic almost-commuting pair."""
    omega = np.exp(2j * np.pi / n)
    u = np.diag(omega ** np.arange(n))
    v = np.zeros((n, n), dtype=complex)
    for j in range(n):
        v[(j + 1) % n, j] = 1.0
    return u, v


# ---------------------------------------------------------------------------
# op_norm
# ---------------------------------------------------------------------------


def test_op_norm_identity():
    assert op_norm(identity(5)) == 1.0


def test_op_norm_diagonal():
    assert op_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-14)


def test_op_norm_clock_shift_commutator():
    u, v = clock_and_shift(4)
    defect = u @ v - v @ u
    expected = 2.0 * np.sin(np.pi / 4.0)
    assert op_norm(defect) == pytest.approx(expected, abs=1e-12)
    assert op_norm(defect) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # independent oracle
    assert power_iteration_norm(defect) == pytest.approx(expected, rel=1e-9)


@given(dim=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_op_norm_unitary_invariance(dim, seed):
    gen = derive_rng(seed, 1)
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    w = haar_unitary(dim, gen)
    assert abs(op_norm(w @ a @ dagger(w)) - op_norm(a)) <= 1e-10 * dim


@given(dim=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_op_norm_submultiplicative(dim, seed):
    gen = derive_rng(seed, 2)
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    b = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10


@given(
    dim=st.integers(1, 64),
    rank=st.integers(0, 64),
    exponent=st.integers(-150, 150),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60)
def test_op_norm_matches_svd_across_scales(dim, rank, exponent, seed):
    gen = derive_rng(seed, 3)
    rank = min(rank, dim)
    x = gen.normal(size=(dim, rank)) + 1j * gen.normal(size=(dim, rank))
    y = gen.normal(size=(rank, dim)) + 1j * gen.normal(size=(rank, dim))
    a = (x @ y) * 10.0 ** exponent
    expected = float(np.linalg.svd(a, compute_uv=False)[0])
    assert abs(op_norm(a) - expected) <= 1e-12 * dim * expected


@pytest.mark.parametrize("dim", [3, SVD_NORM_DIM_LIMIT + 4], ids=["svd", "gram"])
@pytest.mark.parametrize("scale", [1e200, 1e-200, 0.0])
def test_op_norm_extreme_scales(scale, dim):
    # unscaled, the Gram matrix of the first would overflow, of the second underflow
    assert abs(op_norm(scale * np.eye(dim)) - scale) <= 1e-14 * scale


def test_op_norm_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        op_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))


@given(
    dim=st.integers(1, 40),
    count=st.integers(1, 6),
    container=st.sampled_from(["list", "tuple", "generator", "ndarray"]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60)
def test_op_norms_bitwise_equal_to_op_norm(dim, count, container, seed):
    # dims 1-40 cover both routes: the stacked SVD and the streamed Gram route
    gen = derive_rng(seed, 4)
    mats = [
        gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)) for _ in range(count)
    ]
    expected = [op_norm(a) for a in mats]
    given_mats = {
        "list": mats,
        "tuple": tuple(mats),
        "generator": (a for a in mats),
        "ndarray": np.array(mats),
    }[container]
    norms = op_norms(given_mats)
    assert norms.dtype == np.float64
    assert norms.tolist() == expected


def test_op_norms_takes_a_stack_without_copying_it():
    stack = sealed(derive_rng(0, 9).standard_normal((2000, 8, 8)) + 0j)
    tracemalloc.start()
    try:
        op_norms(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copy of the stack, as a re-stacking would make, would alone reach nbytes
    assert peak < stack.nbytes / 2


@pytest.mark.parametrize(
    "empty", [[], (), iter(()), np.empty((0, 3, 3))], ids=["list", "tuple", "generator", "ndarray"]
)
def test_op_norms_of_nothing_is_empty(empty):
    norms = op_norms(empty)
    assert norms.shape == (0,)
    assert norms.dtype == np.float64


@pytest.mark.parametrize("dim", [3, SVD_NORM_DIM_LIMIT + 4], ids=["stacked", "streamed"])
def test_op_norms_rejects_bad_stacks(dim):
    # the kernel trusts shapes; its one check is finiteness, in every container
    eye = np.eye(dim)
    bad_entry = eye.copy()
    bad_entry[0, 0] = np.inf
    not_a_number = eye.copy()
    not_a_number[-1, 0] = np.nan
    for bad in (
        (eye, bad_entry),
        [not_a_number, eye],
        (a for a in (eye, bad_entry)),
        np.stack([eye, not_a_number]),
    ):
        with pytest.raises(InvalidMatrix, match="^matrix has non-finite entries$"):
            op_norms(bad)


@pytest.mark.parametrize(
    "overflows",
    [
        # p @ p of 1e200 * I overflows in the projection residue
        lambda: compress([np.eye(2)], 1e200 * np.eye(2), free_abelian_presentation(1)),
        # e + b is finite, (e + b)^2 is not
        lambda: pairing_input(1e200 * np.eye(2), np.eye(1), 1, 1),
        # a - a* doubles 1e308 past the largest float
        lambda: spectral_projection([[0.0, 1e308], [-1e308, 0.0]], 0.5, 0.1),
        # w* w of 1e200 * I overflows in the unitarity residue
        lambda: winding_of_unitary(1e200 * np.eye(2)),
    ],
    ids=["compress", "pairing_input", "spectral_projection", "winding_of_unitary"],
)
def test_an_overflowing_residue_of_finite_input_is_refused(overflows):
    # the repo's error::RuntimeWarning filter fails a row that lets numpy warn
    with pytest.raises(InvalidMatrix, match="^matrix has non-finite entries$"):
        overflows()


# ---------------------------------------------------------------------------
# as_matrix and friends
# ---------------------------------------------------------------------------


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_empty():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.zeros((0, 0)))


def test_as_matrix_output_readonly():
    out = as_matrix(np.eye(3))
    with pytest.raises(ValueError):
        out[0, 0] = 7.0


@pytest.mark.parametrize("convert", [np.asarray, np.ndarray.tolist], ids=["float-array", "list"])
def test_as_matrix_converts_without_a_second_copy(convert):
    given = convert(np.eye(300))
    tracemalloc.start()
    try:
        out = as_matrix(given)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the conversion itself is out.nbytes; a second copy would double the peak
    assert peak < 1.5 * out.nbytes
    assert not out.flags.writeable and np.array_equal(out, np.eye(300))


def _refusal(call):
    with pytest.raises(Exception) as exc_info:
        call()
    return type(exc_info.value), str(exc_info.value)


@pytest.mark.parametrize("dim", [None, 3, 2])
def test_as_matrices_gates_an_ndarray_stack_with_the_member_loop_refusals(dim):
    good = np.stack([np.eye(3), 2.0 * np.eye(3), np.ones((3, 3))])
    nan_in_1, nan_in_0 = good.copy(), good.copy()
    nan_in_1[1, 2, 0] = np.nan
    nan_in_0[0, 0, 1] = np.inf
    for stack in (np.zeros((2, 2, 3)), np.zeros((2, 0, 0)), nan_in_1, nan_in_0):
        whats = [f"member {i}" for i in range(len(stack))]
        expected = _refusal(lambda: as_matrices(list(stack), whats, dim))
        assert _refusal(lambda: as_matrices(stack, whats, dim)) == expected
    whats = [f"member {i}" for i in range(3)]
    if dim == 2:
        assert _refusal(lambda: as_matrices(good, whats, dim)) == (
            InvalidSize, "member 0 must be 2 x 2, got 3"
        )
    else:
        out = as_matrices(good, whats, dim)
        assert out.tobytes() == np.array(as_matrices(list(good), whats, dim)).tobytes()
    assert len(as_matrices(np.zeros((0, 2, 3)), [], dim)) == 0


def test_as_matrices_copies_a_stack_only_when_it_is_the_callers_writable_array():
    given = np.stack([np.eye(4, dtype=np.complex128)] * 3)
    out = as_matrices(given, "abc")
    assert given.flags.writeable and not out.flags.writeable
    assert not np.may_share_memory(given, out)
    out_again = as_matrices(out, "abc")
    assert out_again is out  # already sealed and ours: no copy
    converted = as_matrices(np.stack([np.eye(4)] * 3), "abc")  # float: converted once
    assert converted.dtype == np.complex128 and not converted.flags.writeable
    strided = as_matrices(given.transpose(0, 2, 1), "abc")
    assert strided.flags.c_contiguous and given.flags.writeable


def test_commutator_and_dagger():
    u, v = clock_and_shift(3)
    assert np.allclose(commutator(u, v), u @ v - v @ u)
    assert np.allclose(dagger(u), u.conj().T)


def test_commutator_and_dagger_gate_their_input():
    comm = commutator([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert comm.dtype == np.complex128 and not comm.flags.writeable
    assert comm.tolist() == [[1, 0], [0, -1]]
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    adj = dagger(a)
    assert adj.dtype == np.complex128 and not adj.flags.writeable
    assert not np.may_share_memory(adj, a) and a.flags.writeable
    assert dagger([[1, 2j], [3, 4]]).tolist() == [[1, 3], [-2j, 4]]
    with pytest.raises(InvalidSize, match="^b must be 2 x 2, got 3$"):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(InvalidMatrix, match="non-finite"):
        commutator(np.eye(2), [[np.nan, 0], [0, 1]])
    with pytest.raises(InvalidMatrix, match="non-finite"):
        dagger([[np.inf]])


# ---------------------------------------------------------------------------
# polar_unitary
# ---------------------------------------------------------------------------


def test_polar_of_unitary_is_itself(rng):
    w = haar_unitary(6, rng)
    assert op_norm(polar_unitary(w) - w) <= spectral_tol(6)


def test_polar_of_positive_diag_is_identity():
    assert op_norm(polar_unitary(np.diag([0.9, 1.0])) - identity(2)) <= spectral_tol(2)


def test_polar_matches_scipy_oracle(rng):
    for dim in (2, 3, 5, 9):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a + 3.0 * np.eye(dim)  # keep comfortably invertible
        u = polar_unitary(a)
        u_oracle, _ = scipy.linalg.polar(a)
        assert op_norm(u - u_oracle) <= 1e-9


def test_polar_contraction_near_identity_bound(rng):
    # singular values in [0.95, 1]: the unitary factor sits within 0.05
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        w1 = haar_unitary(dim, rng)
        w2 = haar_unitary(dim, rng)
        sing = rng.uniform(0.95, 1.0, size=dim)
        a = w1 @ np.diag(sing) @ w2
        assert op_norm(a - polar_unitary(a)) < 0.05


def test_polar_unitarity_property(rng):
    for dim in (2, 4, 7, 11):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a + 2.5 * np.eye(dim)
        u = polar_unitary(a)
        assert op_norm(dagger(u) @ u - identity(dim)) <= 1e-10 * dim


def test_polar_rejects_singular():
    with pytest.raises(NotInvertible):
        polar_unitary(np.diag([1.0, SINGULARITY_TOL / 2.0]))


def test_polar_of_a_stack_is_bitwise_per_matrix(rng):
    stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    us = polar_unitaries(as_matrices(stack, "abcde"))
    assert not us.flags.writeable
    for a, u in zip(stack, us):
        assert u.tobytes() == polar_unitary(a).tobytes()


def test_polar_of_a_stack_refuses_its_first_singular_matrix():
    singular = np.diag([1.0, SINGULARITY_TOL / 2.0])
    stack = as_matrices(np.stack([np.eye(2), singular, np.zeros((2, 2))]), "abc")
    with pytest.raises(NotInvertible) as info:
        polar_unitaries(stack)
    assert info.value.measured == pytest.approx(SINGULARITY_TOL / 2.0)


def test_polar_reconstructs_input(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 2.0 * np.eye(5)
    u = polar_unitary(a)
    pos = scipy.linalg.sqrtm(dagger(a) @ a)
    assert op_norm(a - u @ pos) <= 1e-8


# ---------------------------------------------------------------------------
# spectral_split / spectral_projection
# ---------------------------------------------------------------------------


def test_spectral_split_reconstructs(rng):
    a = random_hermitian(7, rng, norm=2.0)
    lam, above, below = spectral_split(a, 0.3, 0.0)
    assert list(lam) == sorted(lam)
    assert above.shape[1] == int(np.sum(np.linalg.eigvalsh(a) > 0.3))
    vectors = np.hstack([below, above])
    reconstructed = (vectors * lam) @ dagger(vectors)
    assert op_norm(reconstructed - a) <= spectral_tol(7)
    assert op_norm(dagger(vectors) @ vectors - identity(7)) <= spectral_tol(7)


def test_spectral_projection_rejects_skew():
    with pytest.raises(NotHermitian) as exc_info:
        spectral_projection(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.5, 0.05)
    assert exc_info.value.measured == pytest.approx(2.0, abs=1e-14)  # ||a - a*||


def test_spectral_projection_diag_example():
    p = spectral_projection(np.diag([0.1, 0.9]), 0.5, 0.05)
    assert np.allclose(p, np.diag([0.0, 1.0]), atol=1e-14)


def test_spectral_projection_fixes_projections(rng):
    q = random_projection(6, 2, rng)
    p = spectral_projection(q, 0.5, 0.05)
    assert op_norm(p - q) <= spectral_tol(6)


def test_spectral_projection_gap_gate():
    with pytest.raises(SpectralGapViolation) as exc_info:
        spectral_projection(np.diag([0.5 + 0.01, 1.0]), 0.5, 0.05)
    assert exc_info.value.eigenvalue == pytest.approx(0.51)
    assert exc_info.value.cut == 0.5
    assert exc_info.value.measured == pytest.approx(0.01, abs=1e-15)  # distance to the cut


@pytest.mark.parametrize(
    "cut, gap_tol",
    [(0.5, math.nan), (0.5, -1.0), (math.nan, 0.05), (math.inf, 0.05), (-math.inf, 0.05)],
)
def test_spectral_projection_refuses_tolerances_that_switch_the_gate_off(cut, gap_tol):
    # each pair switches the gap gate off; unrefused, a projection would come back
    with pytest.raises(BoundViolation):
        spectral_projection(np.diag([1.0, 0.4]), cut, gap_tol)


def test_spectral_projection_boundary_eigenvalue_passes():
    # distance exactly gap_tol is admissible (the gate is strict inequality);
    # dyadic values keep the comparison exact in floating point
    p = spectral_projection(np.diag([0.375, 0.625]), 0.5, 0.125)
    assert np.allclose(p, np.diag([0.0, 1.0]), atol=1e-14)


@given(dim=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_spectral_projection_is_projection_and_commutes(dim, seed):
    gen = derive_rng(seed, 3)
    a = random_hermitian(dim, gen, norm=1.0)
    lam = np.linalg.eigvalsh(a)
    cut = 0.1
    if np.abs(lam - cut).min() < 0.02:
        return  # precondition not met; nothing to assert
    p = spectral_projection(a, cut, 0.02)
    assert op_norm(p @ p - p) <= 1e-10 * dim
    assert op_norm(p - dagger(p)) <= 1e-10 * dim
    assert op_norm(commutator(p, a)) <= 1e-9
    # rank equals the eigenvalue count above the cut
    assert int(round(np.real(np.trace(p)))) == int(np.sum(lam > cut))


def test_gap_lemma_commutator_bound(rng):
    # spectrum avoiding (delta, 1-delta) makes chi Lipschitz with constant
    # 1/(1-2*delta) against commutators
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        delta = float(rng.uniform(0.05, 0.45))
        w = haar_unitary(dim, rng)
        low = rng.uniform(-0.3, delta, size=dim // 2)
        high = rng.uniform(1.0 - delta, 1.3, size=dim - dim // 2)
        a = w @ np.diag(np.concatenate([low, high])) @ dagger(w)
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b /= op_norm(b)
        chi = spectral_projection(a, 0.5, (0.5 - delta) * 0.99)
        lhs = op_norm(commutator(chi, b))
        rhs = op_norm(commutator(a, b)) / (1.0 - 2.0 * delta) + 1e-9
        assert lhs <= rhs


# ---------------------------------------------------------------------------
# unitarity / projection gates
# ---------------------------------------------------------------------------


def passes_unitarity(a, tol=UNITARITY_TOL):
    """Whether ``a`` alone passes the family gate :func:`require_unitary`."""
    try:
        require_unitary((a,), tol, ("a",))
    except NotUnitary:
        return False
    return True


def test_require_unitary_accepts_and_rejects(rng):
    w = haar_unitary(4, rng)
    assert passes_unitarity(w)
    assert not passes_unitarity(w * 1.01)


def test_not_unitary_carries_the_measured_distance(rng):
    # (2w)*(2w) - 1 = 3: the refusal carries the value its message prints
    with pytest.raises(NotUnitary, match=r"= 3\.000e\+00 >") as exc_info:
        require_unitary((2.0 * haar_unitary(5, rng),), UNITARITY_TOL, ("a",))
    assert exc_info.value.measured == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("dim", [5, SVD_NORM_DIM_LIMIT + 4], ids=["svd", "gram"])
def test_unitarity_gate_refuses_the_first_failing_member(dim, rng):
    # one call proves the family; the refusal names the first member that
    # fails, with the exact norm of its own residue
    w = haar_unitary(dim, rng)
    family = (w, 1.01 * w, 2.0 * w)
    calls = []
    screen = matcore.screened_norms
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matcore, "screened_norms", lambda *a: calls.append(1) or screen(*a))
        with pytest.raises(NotUnitary, match="member 1 is not unitary") as exc_info:
            require_unitary(family, UNITARITY_TOL, [f"member {i}" for i in range(3)])
    assert len(calls) == 1
    residue = family[1].conj().T @ family[1] - np.eye(dim)
    assert exc_info.value.measured == op_norms(residue[None]).item()


def test_unitarity_screen_falls_back_to_the_exact_norm():
    # ||a*a - 1|| = 0.9 tol, but its Frobenius norm is sqrt(400) * 0.9 tol
    dim = 400
    diag = np.full(dim, np.sqrt(1.0 + 0.9 * UNITARITY_TOL))
    a = np.diag(diag)
    assert np.linalg.norm(a.conj().T @ a - np.eye(dim)) > UNITARITY_TOL
    assert passes_unitarity(a)
    diag[0] = np.sqrt(1.0 + 1.1 * UNITARITY_TOL)
    a = np.diag(diag)
    with pytest.raises(NotUnitary, match="1.100e-08"):
        require_unitary((a,), UNITARITY_TOL, ("a",))


@pytest.mark.parametrize("dim", [2, SVD_NORM_DIM_LIMIT + 4], ids=["svd", "gram"])
def test_unitarity_gate_refuses_tiny_defects_and_nan_tolerances(dim):
    # unscaled, the squares of 1e-170 flush to zero and the screen would pass
    a = np.eye(dim)
    a[0, 1] = 1e-170
    assert not passes_unitarity(a, tol=0.0)
    # exact norm 1e-170, Frobenius norm 1.41e-170
    assert passes_unitarity(a, tol=1.2e-170)
    assert not passes_unitarity(a, tol=0.5e-170)
    assert passes_unitarity(identity(3), tol=0.0)
    assert not passes_unitarity(identity(3), tol=float("nan"))
    assert not passes_unitarity(a, tol=float("nan"))


# ---------------------------------------------------------------------------
# the bound screen
# ---------------------------------------------------------------------------


def _member(gen, dim: int, kind: str) -> np.ndarray:
    if kind == "rank-1":
        x = gen.normal(size=(dim, 1)) + 1j * gen.normal(size=(dim, 1))
        return x @ (gen.normal(size=(1, dim)) + 1j * gen.normal(size=(1, dim)))
    if kind == "diagonal":
        return np.diag(gen.normal(size=dim) + 1j * gen.normal(size=dim))
    return gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))


def _svd_norm(a) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


@given(
    dim=st.integers(1, 20),
    count=st.integers(0, 5),
    kind=st.sampled_from(["dense", "rank-1", "diagonal"]),
    exponent=st.integers(-170, 150),
    factor=st.sampled_from([1.0 - 1e-12, 1.0 + 1e-12, 0.5, 2.0]),
    tiny_row=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=150)
def test_screen_never_clears_a_matrix_above_its_bound(dim, count, kind, exponent, factor,
                                                      tiny_row, seed):
    # dims 1-20 cover both sides of SVD_NORM_DIM_LIMIT; each member is scaled
    # to its bound times 1 +- 1e-12 (or 1/2, 2), entries from 1e-170 to 1e150
    gen = derive_rng(seed, 11)
    bounds = [10.0 ** exponent] * count + [1e-200] * tiny_row
    mats = []
    for bound in bounds:
        a = _member(gen, dim, kind)
        mats.append(a * (bound * factor / _svd_norm(a)))
    stack = np.array(mats, dtype=np.complex128).reshape(-1, dim, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = screened_norms(stack, np.array(bounds))
        streamed = screened_norms(iter(mats), np.array(bounds))
    for i, (a, bound) in enumerate(zip(stack, bounds)):
        if i not in norms:
            assert _svd_norm(a) <= bound and op_norms(a[None]).item() <= bound
        else:
            assert norms[i] == op_norms(a[None]).item()
        if factor > 1.0:  # every member is above its bound
            assert i in norms
    assert streamed == norms


@pytest.mark.parametrize("dim", [3, SVD_NORM_DIM_LIMIT + 4], ids=["stacked", "streamed"])
@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan, 1e200])
def test_screen_never_clears_a_non_finite_matrix(dim, poison):
    # 1e200 is finite, but its square overflows
    stack = np.array([1e-20 * np.eye(dim), 1e-20 * np.eye(dim)], dtype=np.complex128)
    stack[1, 0, -1] = poison
    if np.isfinite(poison):
        stack[1, -1, 0] = np.inf  # op_norms refuses what the screen would not clear
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matcore._screen(stack, 1.0).tolist() == [True, False]
        assert matcore._screen(stack, np.inf).tolist() == [True, False]
        with pytest.raises(InvalidMatrix, match="^matrix has non-finite entries$"):
            screened_norms(stack, 1.0)


@pytest.mark.parametrize(
    "empty", [[], (), iter(()), np.empty((0, 3, 3))], ids=["list", "tuple", "generator", "ndarray"]
)
def test_screen_of_nothing_clears_everything(empty):
    assert screened_norms(empty, 1.0) == {}


@pytest.mark.parametrize("dim", [3, SVD_NORM_DIM_LIMIT + 4], ids=["stacked", "streamed"])
def test_screen_takes_no_negative_or_nan_bound(dim):
    # the screen adds the underflow of its products, so it clears zero against
    # a tiny bound and leaves a zero bound to the exact norm, which passes; a
    # negative or NaN bound refuses even the zero matrix
    zero = np.zeros((1, dim, dim), dtype=np.complex128)
    assert matcore._screen(zero, 1e-150).tolist() == [True]
    assert matcore._screen(zero, 0.0).tolist() == [False]
    assert screened_norms(zero, 0.0) == {}
    for bound in (-1e-300, -1.0, np.nan):
        assert matcore._screen(zero, bound).tolist() == [False]
        assert screened_norms(zero, bound) == {0: 0.0}


# a member's bound over its exact norm: refused, just refused, passing with
# nothing to spare, just passing, passing
_BOUND_OVER_NORM = (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("per_member", [False, True], ids=["scalar", "per-member"])
@pytest.mark.parametrize("form", ["stack", "iterator"])
@pytest.mark.parametrize("dim", [4, SVD_NORM_DIM_LIMIT + 4], ids=["stacked", "streamed"])
def test_screened_norms_returns_exactly_the_members_above_their_bound(dim, form, per_member,
                                                                      seed):
    gen = derive_rng(seed, 13)
    factors = gen.permutation(np.array(_BOUND_OVER_NORM * 2))
    kinds = gen.choice(["dense", "rank-1", "diagonal"], len(factors))
    mats = np.array([_member(gen, dim, kind) for kind in kinds])
    if per_member:
        bound = op_norms(mats) * factors
        bounds = bound.tolist()
    else:  # member i's norm is about 1 / factors[i], and one member is at the bound
        mats = mats / (factors * op_norms(mats))[:, None, None]
        bound = op_norms(mats)[factors.tolist().index(1.0)].item()
        bounds = [bound] * len(mats)
    want = {i: n for i, n in enumerate(op_norms(mats).tolist()) if not n <= bounds[i]}
    assert set(want) == {i for i, f in enumerate(factors) if f < 1.0}
    got = screened_norms(mats if form == "stack" else iter(list(mats)), bound)
    assert list(got.items()) == list(want.items())


def test_screen_leaves_the_overflowing_pairing_residue_to_the_norm_kernel(tmp_path, capsys):
    # (e + b)^2 of b = 1e200 * 1 overflows: exit 1, and no RuntimeWarning on the way
    path = tmp_path / "overflow.json"
    b, q = matrix_to_json(1e200 * np.eye(2)), matrix_to_json(np.eye(1))
    path.write_text(json.dumps({"N": 1, "k": 1, "b": b, "q": q}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pairing", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: matrix has non-finite entries\n")


def test_require_projection_gate(rng):
    q = random_projection(5, 3, rng)
    require_projection(q)
    with pytest.raises(NotProjection) as exc_info:
        require_projection(q + 0.001 * np.eye(5))
    # hermitian, so ||a^2 - a|| = 0.001 + 1e-6 on the range of q is the larger residue
    assert exc_info.value.measured == pytest.approx(1.001e-3, abs=1e-12)
    skew = np.diag([1.0, 0.0]).astype(np.complex128)
    skew[0, 1] = 0.5  # idempotent, but ||a - a*|| = 0.5
    with pytest.raises(NotProjection) as exc_info:
        require_projection(skew)
    assert exc_info.value.measured == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# block sums
# ---------------------------------------------------------------------------


def test_block_sum_norm_is_max(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert op_norm(scipy.linalg.block_diag(a, b)) == pytest.approx(
        max(op_norm(a), op_norm(b)), abs=1e-12
    )


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_matrix_json_round_trip_exact(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(back, as_matrix(a))
    # bit for bit, the sign of a zero included
    signed = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [-1.5, 2j]])
    obj = matrix_to_json(signed)
    assert obj["entries"][0] == [[-0.0, 0.0], [0.0, -0.0]]
    assert math.copysign(1.0, obj["entries"][0][0][0]) == -1.0
    assert np.array_equal(matrix_from_json(obj).view(np.uint64), signed.view(np.uint64))
    # booleans are numbers, as complex(True, False) takes them
    flags = {"dim": 2, "entries": [[[True, False], [False, False]], [[0, 0], [False, True]]]}
    assert np.array_equal(matrix_from_json(flags), np.diag([1.0, 1j]))


def test_matrix_json_malformed():
    with pytest.raises(InvalidMatrix):
        matrix_from_json({"dim": 2, "entries": [[[1.0, 0.0]]]})
    with pytest.raises(InvalidMatrix):
        matrix_from_json({"entries": []})
    for entries in (
        [[["1", 0]]],  # a string
        [[[None, 0]]],
        [[[1.0, 0.0, 0.0]]],  # (dim, dim, 3)
        [[[1.0]]],  # (dim, dim, 1)
        [[[1.0, [0.0]]]],  # ragged
        [[[[1.0, 0.0], [0.0, 0.0]]]],  # nested one level too deep
    ):
        with pytest.raises(InvalidMatrix):
            matrix_from_json({"dim": 1, "entries": entries})
    for dim in (1.9, 1.0, True, "1", None):  # int() used to make 1 of the first four
        with pytest.raises(InvalidMatrix, match="matrix dim must be int"):
            matrix_from_json({"dim": dim, "entries": [[[1.0, 0.0]]]})


def test_require_indexable_refuses_only_what_numpy_refuses():
    assert require_indexable((3, 3)) == (3, 3)
    # the smallest square complex128 shape past the index range: numpy
    # refuses it too, so the check turns away nothing numpy could build
    n = math.isqrt(np.iinfo(np.intp).max // 16) + 1
    for shape in ((n, n), (10**20, 10**20)):
        with pytest.raises(InvalidSize, match="too large"):
            require_indexable(shape)
        with pytest.raises((ValueError, OverflowError)):
            np.empty(shape, dtype=np.complex128)


@pytest.mark.parametrize("dim", range(1, 41))
def test_random_rotation_matches_the_expm_oracle(dim):
    # exp(i angle h) for the norm-one matrix random_hermitian draws from the same stream
    for angle in (0.3, -2.5):
        h = random_hermitian(dim, derive_rng(17, dim), norm=1.0)
        rot = random_rotation(dim, derive_rng(17, dim), angle)
        assert np.abs(rot - scipy.linalg.expm(1j * angle * h)).max() <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_random_rotation_of_an_angle_array_is_bitwise_per_angle(dim):
    angles = np.linspace(-1.0, 2.0, 6)
    stack = random_rotation(dim, derive_rng(18, dim), angles)
    assert stack.shape == (6, dim, dim) and not stack.flags.writeable
    for angle, rot in zip(angles, stack):
        assert rot.tobytes() == random_rotation(dim, derive_rng(18, dim), angle).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_rotations_of_a_stack_are_bitwise_the_random_rotations_of_one_stream(dim):
    # draw k hermitians from one stream and rotate them as one stack; the
    # same stream drawn rotation by rotation must give the same bytes
    rng, ref = derive_rng(19, dim), derive_rng(19, dim)
    angles = np.linspace(-1.0, 2.0, 5)
    stack = rotations(np.array([gaussian_hermitian(dim, rng) for _ in angles]), angles)
    assert stack.shape == (5, dim, dim) and not stack.flags.writeable
    for angle, rot in zip(angles, stack):
        assert rot.tobytes() == random_rotation(dim, ref, angle).tobytes()
    assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "draw", [haar_unitary, random_hermitian, lambda dim, rng: random_rotation(dim, rng, 0.1)],
    ids=["haar_unitary", "random_hermitian", "random_rotation"],
)
def test_seeding_refuses_an_oversized_dimension_before_drawing(draw):
    rng = derive_rng(16, 1)
    with pytest.raises(InvalidSize, match="too large"):
        draw(10**20, rng)
    assert rng.random() == derive_rng(16, 1).random()

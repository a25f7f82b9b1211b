"""Projection toolkit: connecting unitaries, chains, the index pairing."""

import re

import numpy as np
import pytest

from obstructkit.errors import (
    BoundViolation,
    HypothesisViolation,
    InvalidMatrix,
    InvalidSize,
    NotProjection,
    NumericalInconsistency,
    ParseError,
    SpectralGapViolation,
    SubdivisionTooCoarse,
)
from obstructkit import projops
from obstructkit.matcore import (
    commutator,
    coordinate_projection,
    dagger,
    op_norm,
    require_projection,
)
from obstructkit.projops import (
    chain_conjugation,
    compatibility_probe,
    connecting_unitary,
    pairing,
    pairing_block_sum,
    pairing_input,
    pairing_input_from_json,
    pairing_input_to_json,
    pairing_operand,
)
from obstructkit.quasirep import compress, honest_commuting_rep
from obstructkit.seeding import derive_rng, haar_unitary, random_projection, random_rotation
from obstructkit.words import free_abelian_presentation

Z2 = free_abelian_presentation(2)


def plane_rotated_projection(p0_rank, dim, theta, basis):
    """Rotate each range axis against a kernel axis by theta: moves sin(theta)."""
    r = np.eye(dim, dtype=np.complex128)
    c, s = np.cos(theta), np.sin(theta)
    for i in range(min(p0_rank, dim - p0_rank)):
        j = p0_rank + i
        r[i, i] = c
        r[j, j] = c
        r[i, j] = -s
        r[j, i] = s
    p0 = np.zeros((dim, dim), dtype=np.complex128)
    p0[:p0_rank, :p0_rank] = np.eye(p0_rank)
    w = basis
    return (
        w @ p0 @ dagger(w),
        w @ r @ p0 @ r.T @ dagger(w),
    )


# ---------------------------------------------------------------------------
# connecting_unitary
# ---------------------------------------------------------------------------


def test_connecting_equal_projections(rng):
    p = random_projection(5, 2, rng)
    x_ops = [haar_unitary(5, rng) for _ in range(3)]
    u, audit = connecting_unitary(p, p, x_ops)
    assert op_norm(u @ p @ dagger(u) - p) <= 1e-9
    assert audit.worst_ratio <= 1.0
    assert audit.conjugation_error <= 1e-9


def test_connecting_rank_one_dim_two_angle():
    theta = 0.2  # sin(0.2) < 1/4
    p = np.diag([1.0, 0.0]).astype(complex)
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    q = r @ p @ r.T
    u, audit = connecting_unitary(p, q, [np.eye(2)])
    assert op_norm(u @ p @ dagger(u) - q) <= 1e-9
    assert max(audit.commutator_norms) == 0.0  # identity commutes exactly


def test_connecting_randomized_postconditions(rng):
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim))
        theta = float(rng.uniform(0.0, 0.2))  # sin(theta) < 1/4 always
        basis = haar_unitary(dim, rng)
        p, q = plane_rotated_projection(rank, dim, theta, basis)
        x_ops = [haar_unitary(dim, rng) for _ in range(3)]
        u, audit = connecting_unitary(p, q, x_ops)
        assert op_norm(dagger(u) @ u - np.eye(dim)) <= 1e-10 * dim
        assert op_norm(u @ p @ dagger(u) - q) <= 1e-9
        for x, measured in zip(x_ops, audit.commutator_norms):
            assert op_norm(commutator(u, x)) <= measured + 1e-12
            assert measured <= 28.0 * audit.eps + 1e-9


def test_connecting_gate_far_projections():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)  # distance 1
    with pytest.raises(HypothesisViolation):
        connecting_unitary(p, q, [np.eye(2)])


def test_commutator_refusal_carries_the_first_failing_norm():
    with pytest.raises(NumericalInconsistency, match="commutator bound failed") as info:
        projops._commutator_worst([0.01, 0.5, 0.7], 0.1, "bound")
    assert info.value.measured == 0.5


def _norm_passes(monkeypatch) -> list:
    """``(kernel name, stack)`` of every ``op_norms`` and ``screened_norms``
    call projops makes from here on."""
    passes = []
    for name in ("op_norms", "screened_norms"):
        def recorded(mats, *args, kernel=getattr(projops, name), name=name):
            passes.append((name, np.array(mats)))
            return kernel(mats, *args)

        monkeypatch.setattr(projops, name, recorded)
    return passes


def _step_instance(seed):
    """A two-point path 0.1 apart in 5 dims and three unitary test operators."""
    gen = derive_rng(seed, 55)
    p, q = plane_rotated_projection(2, 5, 0.1, haar_unitary(5, gen))
    return p, q, [haar_unitary(5, gen) for _ in range(3)]


@pytest.mark.parametrize("seed", range(4))
def test_connecting_unitary_norms_each_residue_family_once(seed, monkeypatch):
    # the one step gates on the exact norms its audit reports; a chain, which
    # reports none of them, proves the same gates by the screen
    p, q, x_ops = _step_instance(seed)
    _, conj, comm = projops._step_unitaries(*projops._path_and_test_ops((p, q), x_ops))
    passes = _norm_passes(monkeypatch)
    _, audit = connecting_unitary(p, q, x_ops)
    for residues in (conj, comm):
        assert [name for name, mats in passes if np.array_equal(mats, residues)] == ["op_norms"]
    assert audit.conjugation_error == op_norm(conj[0])
    path, ops = projops._path_and_test_ops((p, q, p), x_ops)
    passes.clear()
    chain_conjugation(path, ops)
    for residues in projops._step_unitaries(path, ops)[1:]:
        names = [name for name, mats in passes if np.array_equal(mats, residues)]
        assert names == ["screened_norms"]


def test_connecting_unitary_refuses_its_conjugation_before_its_commutators(monkeypatch):
    # each step unitary scaled by 1 + 1e-6 misses q by about 1e-6, and eps cut
    # by 1e-6 puts 28 eps + 1e-9 below every commutator
    p, q, x_ops = _step_instance(0)
    step_unitaries, commutator_norms = projops._step_unitaries, projops._commutator_norms

    def scaled(path, ops):
        us = step_unitaries(path, ops)[0] * (1.0 + 1e-6)
        conj = us @ path[:-1] @ us.conj().transpose(0, 2, 1) - path[1:]
        return us, conj, projops._commutators(us, ops)

    monkeypatch.setattr(projops, "_commutator_norms", lambda *a: 1e-6 * commutator_norms(*a))
    u, _ = connecting_unitary(p, q, [])
    with pytest.raises(NumericalInconsistency, match="commutator bound failed") as info:
        connecting_unitary(p, q, x_ops)
    first = op_norm(commutator(u, x_ops[0]))
    assert info.value.measured == first
    assert f"||[u,x]|| = {first:.3e} > 28*eps + 1e-9 = " in str(info.value)
    monkeypatch.setattr(projops, "_step_unitaries", scaled)
    with pytest.raises(NumericalInconsistency, match="conjugation identity failed") as info:
        connecting_unitary(p, q, x_ops)
    conj_err = op_norm((1.0 + 1e-6) ** 2 * u @ p @ dagger(u) - q)
    assert info.value.measured == pytest.approx(conj_err, rel=1e-6)
    measured = info.value.measured
    assert str(info.value) == f"conjugation identity failed: ||u p u* - q|| = {measured:.3e}"


def test_context_rejects_non_projection(rng):
    with pytest.raises(NotProjection):
        connecting_unitary(0.5 * np.eye(3), np.eye(3), [])


def test_pair_names_the_failing_path_position(rng):
    p = random_projection(3, 1, rng)
    with pytest.raises(NotProjection, match="path projection 1 "):
        connecting_unitary(p, 0.5 * np.eye(3), [np.eye(3)])


def test_pair_of_two_dimensions_is_refused(rng):
    with pytest.raises(InvalidSize, match="^path projection 1 must be 2 x 2, got 3$"):
        connecting_unitary(random_projection(2, 1, rng), random_projection(3, 1, rng), [])


def test_pair_refuses_test_operators_before_the_gap():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)  # distance 1
    with pytest.raises(InvalidSize, match="test operator"):
        connecting_unitary(p, q, [np.eye(3)])


def test_chain_refuses_test_operators_before_the_gap(rng):
    basis = haar_unitary(4, rng)
    p0, p_far = plane_rotated_projection(2, 4, 0.6, basis)  # sin(0.6) > 1/4
    with pytest.raises(InvalidSize, match="^test operator 0 must be 4 x 4, got 3$"):
        chain_conjugation([p0, p_far], [np.eye(3)])


# ---------------------------------------------------------------------------
# chain_conjugation
# ---------------------------------------------------------------------------


def test_chain_constant_path(rng):
    p = random_projection(4, 2, rng)
    path = [p] * 6
    x_ops = [haar_unitary(4, rng)]
    u, report = chain_conjugation(path, x_ops)
    assert op_norm(u @ p @ dagger(u) - p) <= 1e-8 * (len(path) - 1)
    assert report.worst_ratio <= 1.0
    assert report.steps == 5


def test_chain_sixty_five_step_rotation(rng):
    # rank-1 projection carried through angle pi/3 in 65 steps
    steps = 65
    dim = 3
    basis = haar_unitary(dim, rng)
    total = np.pi / 3.0
    path = []
    for j in range(steps + 1):
        _, pj = plane_rotated_projection(1, dim, total * j / steps, basis)
        path.append(pj)
    x_ops = [np.eye(dim), basis @ np.diag([np.exp(0.05j), 1.0, 1.0]) @ dagger(basis)]
    u, report = chain_conjugation(path, x_ops)
    assert report.steps == steps
    assert op_norm(u @ path[0] @ dagger(u) - path[-1]) <= report.conjugation_bound
    eps_path = max(
        op_norm(commutator(pj, x)) for pj in path for x in x_ops
    )
    assert report.eps_path == pytest.approx(eps_path, abs=1e-12)
    for measured in report.commutator_norms:
        assert measured <= 28.0 * eps_path * steps + 1e-8
    assert report.worst_ratio <= 1.0


def test_chain_two_step_equals_composition(rng):
    dim = 4
    basis = haar_unitary(dim, rng)
    p0, p1 = plane_rotated_projection(2, dim, 0.15, basis)
    _, p2 = plane_rotated_projection(2, dim, 0.3, basis)
    x_ops = [haar_unitary(dim, rng)]
    u_chain, _ = chain_conjugation([p0, p1, p2], x_ops)
    u1, _ = connecting_unitary(p0, p1, x_ops)
    u2, _ = connecting_unitary(p1, p2, x_ops)
    assert np.array_equal(u_chain, u2 @ u1)


def test_chain_refuses_a_non_projection_before_a_coarse_gap(rng):
    basis = haar_unitary(4, rng)
    p0, p1 = plane_rotated_projection(2, 4, 0.05, basis)
    _, p_far = plane_rotated_projection(2, 4, 0.7, basis)  # gap >= 1/4 at index 1
    path = [p0, p1, p_far, p_far, 0.5 * np.eye(4), p_far]
    with pytest.raises(NotProjection, match="path projection 4 "):
        chain_conjugation(path, [np.eye(4)])


def test_chain_path_refuses_shapes_in_path_order_before_projections(rng):
    p3 = random_projection(3, 1, rng)
    p4 = random_projection(4, 2, rng)
    with pytest.raises(InvalidSize, match="^path projection 1 must be 3 x 3, got 4$"):
        chain_conjugation([p3, p4, 0.5 * np.eye(3), np.full((3, 3), np.nan)], [])
    with pytest.raises(InvalidMatrix, match="non-finite"):
        chain_conjugation([p3, 0.5 * np.eye(3), np.full((3, 3), np.nan), p4], [])
    with pytest.raises(NotProjection, match="path projection 1 "):
        chain_conjugation([p3, 0.5 * np.eye(3), p3], [])


def test_chain_on_an_ndarray_path_matches_the_list_path_and_leaves_it_writable():
    rng = derive_rng(23, 1)
    for dim, steps in [(3, 5), (6, 40)]:
        rots = random_rotation(dim, rng, 0.9 * np.arange(steps + 1) / steps)
        path = rots @ coordinate_projection(dim, 1) @ rots.conj().transpose(0, 2, 1)
        kept = path.copy()
        ops = random_rotation(dim, rng, np.array([0.02, 0.03]))
        u_list, report_list = chain_conjugation(list(path), list(ops))
        u_stack, report_stack = chain_conjugation(path, ops)
        assert u_stack.tobytes() == u_list.tobytes()
        assert repr(report_stack) == repr(report_list)  # repr keeps every float bit
        assert path.flags.writeable and path.tobytes() == kept.tobytes()
    # the stack gate refuses with the texts of the member loop
    nan_path = np.stack([np.eye(3), np.full((3, 3), np.nan)])
    for path in (nan_path, np.zeros((2, 3, 4))):
        with pytest.raises(InvalidMatrix) as from_list:
            chain_conjugation(list(path), [])
        with pytest.raises(InvalidMatrix, match=f"^{re.escape(str(from_list.value))}$"):
            chain_conjugation(path, [])
    with pytest.raises(InvalidSize, match="^chain_conjugation needs a nonempty path$"):
        chain_conjugation(np.zeros((0, 3, 3)), [])
    with pytest.raises(InvalidSize, match="^test operator 0 must be 3 x 3, got 2$"):
        chain_conjugation(np.stack([np.eye(3)] * 2), np.stack([np.eye(2)]))


def test_chain_coarse_subdivision_rejected(rng):
    basis = haar_unitary(4, rng)
    p0, p_far = plane_rotated_projection(2, 4, 0.6, basis)  # sin(0.6) > 1/4
    with pytest.raises(SubdivisionTooCoarse) as exc_info:
        chain_conjugation([p0, p_far], [np.eye(4)])
    assert exc_info.value.index == 0
    assert exc_info.value.measured == pytest.approx(op_norm(p0 - p_far), abs=1e-12)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_zero_b(rng):
    n, k = 3, 2
    q = random_projection(n * k, 4, rng)
    inp = pairing_input(np.zeros((2 * n, 2 * n)), q, n, k)
    result = pairing(inp)
    assert result.index == 0
    assert result.rank == n * k
    assert result.margin == pytest.approx(0.5, abs=1e-12)
    e_big = np.zeros((2 * n * k, 2 * n * k))
    e_big[: n * k, : n * k] = np.eye(n * k)
    assert op_norm(result.projection - e_big) <= 1e-10


def test_pairing_conjugated_corner_same_rank(rng):
    n, k = 3, 2
    w = haar_unitary(2 * n, rng)
    e = np.zeros((2 * n, 2 * n), dtype=complex)
    e[:n, :n] = np.eye(n)
    b = w @ e @ dagger(w) - e
    inp = pairing_input(b, np.eye(n * k), n, k)
    result = pairing(inp)
    assert result.index == 0
    assert result.rank == n * k


def test_pairing_rank_shift_instance(rng):
    # e + b = conjugate of a coordinate projection of rank N + s by a unitary
    # commuting with a rank-r coordinate q: index = s * r
    n, k, s, r = 3, 3, 2, 2
    w_small = haar_unitary(2 * n, rng)
    shifted = np.zeros((2 * n, 2 * n), dtype=complex)
    shifted[: n + s, : n + s] = np.eye(n + s)
    e = np.zeros((2 * n, 2 * n), dtype=complex)
    e[:n, :n] = np.eye(n)
    b = w_small @ shifted @ dagger(w_small) - e

    q0 = np.diag([1.0] * r + [0.0] * (k - r))
    q = np.kron(np.eye(n), q0)
    inp = pairing_input(b, q, n, k)
    result = pairing(inp)
    assert result.index == s * r
    # brute-force eigenvalue-count oracle on an independently built operand
    e_big = np.kron(e, np.eye(k))
    q_big = np.kron(np.eye(2), q)
    operand = e_big + q_big @ np.kron(b, np.eye(k)) @ q_big
    oracle_rank = int(np.sum(np.linalg.eigvalsh((operand + operand.conj().T) / 2) > 0.5))
    assert result.rank == oracle_rank


def test_pairing_conjugation_invariance(rng):
    from obstructkit.audit import random_pairing_instance

    for _ in range(25):
        inp, expected = random_pairing_instance(rng)
        assert pairing(inp).index == expected
        w = haar_unitary(inp.n_dim, rng)
        w2 = np.kron(np.eye(2), w)
        wk = np.kron(w, np.eye(inp.k_dim))
        conj = pairing_input(
            w2 @ inp.b @ dagger(w2),
            wk @ inp.q @ dagger(wk),
            inp.n_dim,
            inp.k_dim,
            inp.gap_tol,
        )
        assert pairing(conj).index == expected


def test_pairing_block_sum_additivity(rng):
    from obstructkit.audit import random_pairing_instance

    for _ in range(15):
        a, ia = random_pairing_instance(rng)
        b, ib = random_pairing_instance(rng)
        if a.k_dim != b.k_dim:
            continue
        total = pairing_block_sum(a, b)
        assert pairing(total).index == ia + ib


def test_pairing_block_sum_bytes_equal_the_block_loop(rng):
    from obstructkit.audit import random_pairing_instance

    # reference: the 2 x 2 loop over the N-blocks of b, written out
    checked = 0
    while checked < 6:
        a, _ = random_pairing_instance(rng)
        b, _ = random_pairing_instance(rng)
        if a.k_dim != b.k_dim:
            continue
        n1, n2 = a.n_dim, b.n_dim
        n = n1 + n2
        bb = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                bb[i * n:i * n + n1, j * n:j * n + n1] = a.b[
                    i * n1:(i + 1) * n1, j * n1:(j + 1) * n1
                ]
                bb[i * n + n1:(i + 1) * n, j * n + n1:(j + 1) * n] = b.b[
                    i * n2:(i + 1) * n2, j * n2:(j + 1) * n2
                ]
        total = pairing_block_sum(a, b)
        assert total.b.tobytes() == bb.tobytes()
        checked += 1


def test_pairing_gap_gate():
    # Rotate coordinate 1 of e against coordinate 3 by pi/3 while q mixes the
    # two N-coordinates evenly: the operand spectrum is exactly {0, 1/4, 3/4, 1},
    # so the margin is 0.25 -- inside a 0.3 gate, outside the 0.05 default.
    n, k = 2, 1
    phi = np.pi / 3.0
    r1 = np.eye(2 * n)
    r1[0, 0] = r1[2, 2] = np.cos(phi)
    r1[0, 2] = -np.sin(phi)
    r1[2, 0] = np.sin(phi)
    e = np.diag([1.0, 1.0, 0.0, 0.0])
    b = r1 @ e @ r1.T - e
    q = 0.5 * np.ones((2, 2))
    loose = pairing(pairing_input(b, q, n, k))
    assert loose.margin == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(SpectralGapViolation) as exc_info:
        pairing(pairing_input(b, q, n, k, gap_tol=0.3))
    assert abs(exc_info.value.eigenvalue - 0.5) == pytest.approx(0.25, abs=1e-9)


def test_pairing_input_validation(rng):
    n, k = 2, 2
    with pytest.raises(NotProjection):
        pairing_input(0.3 * np.eye(2 * n), np.eye(n * k), n, k)
    with pytest.raises(InvalidSize):
        pairing_input(np.zeros((3, 3)), np.eye(n * k), n, k)
    with pytest.raises(InvalidSize):
        pairing_input(np.zeros((2 * n, 2 * n)), np.eye(5), n, k)
    with pytest.raises(BoundViolation):
        pairing_input(np.zeros((2 * n, 2 * n)), np.eye(n * k), n, k, gap_tol=0.7)
    # below the rounding floor of the inertia certificate (1.7e-12 at width 8)
    with pytest.raises(BoundViolation, match="gap_tol") as exc_info:
        pairing_input(np.zeros((2 * n, 2 * n)), np.eye(n * k), n, k, gap_tol=1e-12)
    assert exc_info.value.measured == 1e-12


@pytest.mark.parametrize(
    "field, value",
    [("N", 2.7), ("N", True), ("k", "2"), ("k", 2.0), ("gap_tol", "0.1"), ("gap_tol", False)],
)
def test_pairing_json_refuses_coercible_fields(field, value, rng):
    from obstructkit.audit import random_pairing_instance

    inp, _ = random_pairing_instance(rng)
    obj = pairing_input_to_json(inp)
    pairing_input_from_json(dict(obj))  # the unedited input loads
    with pytest.raises(ParseError, match=f"{field} must be"):
        pairing_input_from_json({**obj, field: value})


def test_pairing_json_round_trip(rng):
    from obstructkit.audit import random_pairing_instance

    inp, expected = random_pairing_instance(rng)
    back = pairing_input_from_json(pairing_input_to_json(inp))
    assert back.n_dim == inp.n_dim
    assert back.k_dim == inp.k_dim
    assert np.array_equal(back.b, inp.b)
    assert np.array_equal(back.q, inp.q)
    assert pairing(back).index == expected


# ---------------------------------------------------------------------------
# compatibility_probe
# ---------------------------------------------------------------------------


def _coordinate_probe(rng, big_dim=4, rank=2):
    big = honest_commuting_rep(Z2, big_dim, rng)
    p = np.diag([1.0] * rank + [0.0] * (big_dim - rank))
    rep = compress(big.images, p, Z2)
    return rep


def test_probe_trivial_projections_pass(rng):
    probe = _coordinate_probe(rng)
    dim = 8  # multiple of the probe's big dimension (4)
    report0 = compatibility_probe(np.zeros((dim, dim)), [probe], eps=0.01)
    report1 = compatibility_probe(np.eye(dim), [probe], eps=0.01)
    assert report0.passed and report1.passed
    assert report0.entries[0].eigenvalues == tuple([0.0] * 4)


def test_probe_commuting_tensor_passes(rng):
    probe = _coordinate_probe(rng, big_dim=4, rank=2)
    p0 = np.diag([1.0, 0.0, 1.0, 0.0])  # commutes with the coordinate corner
    q0 = np.diag([1.0, 0.0])
    q = np.kron(p0, q0)
    report = compatibility_probe(q, [probe], eps=1e-9)
    assert report.passed


def test_probe_split_eigenvector_fails(rng):
    probe = _coordinate_probe(rng, big_dim=2, rank=1)
    # projection onto (e1 + e2)/sqrt(2): compressed eigenvalue is exactly 1/2
    q = 0.5 * np.ones((2, 2))
    report = compatibility_probe(q, [probe], eps=1e-9)
    assert not report.passed
    assert report.entries[0].worst_violation == pytest.approx(0.25, abs=1e-9)
    assert any(abs(lam - 0.5) <= 1e-9 for lam in report.entries[0].eigenvalues)


def test_probe_requires_compression(rng):
    phi = honest_commuting_rep(Z2, 4, rng)
    with pytest.raises(ParseError, match="^probe 0 is not a compression quasi-representation$"):
        compatibility_probe(np.eye(4), [phi], eps=0.01)


def _old_probe_entry(eigs, eps):
    """The per-eigenvalue loop ``compatibility_probe`` used before its array pass."""
    worst = 0.0
    ok = True
    for lam in eigs:
        lam = float(lam)
        if lam < -eps or lam > 1.0 + eps:
            ok = False
            worst = max(worst, min(abs(lam), abs(lam - 1.0)))
        elif 0.25 <= lam <= 0.75:
            ok = False
            worst = max(worst, min(lam - 0.25, 0.75 - lam) + 0.0)
    return tuple(float(x) for x in eigs), ok, worst


def test_probe_entries_match_the_per_eigenvalue_loop(rng):
    eps = 1e-3
    edges = [0.25, 0.75, -eps, 1.0 + eps, np.nextafter(-eps, -1.0), np.nextafter(1.0 + eps, 2.0),
             0.0, 1.0, -0.0, 0.5, 0.2499999, 0.7500001]
    cases = [np.sort(np.array(edges))]
    for _ in range(200):
        pool = np.concatenate([rng.uniform(-0.1, 1.1, 6), rng.choice(edges, 3)])
        cases.append(np.sort(rng.choice(pool, rng.integers(1, 8), replace=False)))
    for eigs in cases:
        entry = projops._probe_entry(eigs, eps)
        old = _old_probe_entry(eigs, eps)
        assert (entry.eigenvalues, entry.passed) == old[:2]
        assert np.float64(entry.worst_violation).tobytes() == np.float64(old[2]).tobytes()
    # and through the probe itself, on random projections and probes
    for seed in range(20):
        r = derive_rng(seed, 41)
        probe = compress(honest_commuting_rep(Z2, 3, r).images, random_projection(3, 2, r), Z2)
        q = random_projection(6, int(r.integers(0, 7)), r)
        entry = compatibility_probe(q, [probe], eps).entries[0]
        assert (entry.eigenvalues, entry.passed, entry.worst_violation) == _old_probe_entry(
            np.array(entry.eigenvalues), eps
        )


def test_probe_checks_every_probe_before_the_projection_gate(rng):
    probe = _coordinate_probe(rng, big_dim=2, rank=1)
    with pytest.raises(InvalidSize, match="^probe 1 dimension 4 does not divide 6$"):
        compatibility_probe(0.5 * np.eye(6), [probe, _coordinate_probe(rng)], eps=0.01)
    with pytest.raises(ParseError, match="^probe 1 is not a compression"):
        compatibility_probe(0.5 * np.eye(4), [probe, honest_commuting_rep(Z2, 4, rng)], eps=0.01)

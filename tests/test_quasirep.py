"""Quasi-representations: defects, unitarization, compressions, generators.

The unitarization factor 6 and the square-root multiplicativity bound are
asserted with their literal constants.  Oracles are direct norm evaluations
on independently constructed matrices.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructkit.errors import (
    AsymmetricSet,
    BoundViolation,
    HypothesisViolation,
    InvalidSize,
    NotInvertible,
    NotProjection,
    NotUnitary,
    ParseError,
)
from obstructkit.matcore import (
    UNITARITY_TOL,
    commutator,
    dagger,
    identity,
    matrix_to_json,
    op_norm,
    op_norms,
    polar_unitary,
    require_unitary,
    spectral_tol,
)
from obstructkit.quasirep import (
    QuasiRep,
    _block_size,
    _evaluated,
    _product_norms,
    _unitarity_defect,
    approx_mult_audit,
    clock_shift,
    commutation_defect,
    compress,
    defect,
    defect_report_to_json,
    honest_commuting_rep,
    perturbed_honest_rep,
    quasirep_from_json,
    quasirep_to_json,
    require_honest,
    symmetrized_generators,
    ucp_gram_check,
    unitarize,
    unitary_pair_rep,
    voiculescu_pair,
)
from obstructkit.seeding import (
    derive_rng,
    haar_unitary,
    random_hermitian,
    random_projection,
    random_rotation,
)
from obstructkit.words import (
    GroupWord,
    IDENTITY_WORD,
    baumslag_solitar_presentation,
    canonical_form,
    free_abelian_presentation,
    free_presentation,
    generator,
    surface_presentation,
    word_from_text,
)

Z2 = free_abelian_presentation(2)
A, B = generator(0), generator(1)


def unitary_rotation(dim, angle, gen):
    """exp(i * angle * H) for a random norm-one hermitian H."""
    h = random_hermitian(dim, gen, norm=1.0)
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(1j * angle * lam)) @ vec.conj().T


# ---------------------------------------------------------------------------
# defect
# ---------------------------------------------------------------------------


def test_defect_of_honest_rep_is_tiny(rng):
    phi = honest_commuting_rep(Z2, 6, rng)
    report = defect(phi, symmetrized_generators(Z2))
    assert report.max_defect <= 1e-10 * 6
    assert report.unitarity_defect <= 1e-10 * 6


def test_defect_clock_shift_value():
    n = 8
    phi = unitary_pair_rep(*clock_shift(n))
    S = [A, B, A * B, B * A]
    report = defect(phi, S)
    expected = 2.0 * math.sin(math.pi / n)
    assert report.max_defect == pytest.approx(expected, abs=1e-12)
    # the defect is realized on the out-of-order pair: phi evaluates group
    # elements, so phi(ba) = phi(ab) and the (b,a) pair measures ||vu - uv||
    assert report.pair_defects[(B, A)] == pytest.approx(expected, abs=1e-12)
    assert report.pair_defects[(A, B)] <= 1e-12
    # oracle: |omega - 1|
    assert expected == pytest.approx(abs(np.exp(2j * np.pi / n) - 1.0), abs=1e-15)


def test_defect_of_tabulated_perturbation_triangle_bound(rng):
    # perturb the value on every needed group element independently by a
    # rotation of angle <= eta: pure triangle inequality gives 3*eta + eta^2
    S = symmetrized_generators(Z2)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        eta = float(rng.uniform(1e-8, 1e-5))
        base = honest_commuting_rep(Z2, dim, rng)
        needed = {}
        for s in S:
            needed.setdefault(canonical_form(s, Z2).letters, canonical_form(s, Z2))
            for t in S:
                k = canonical_form(s * t, Z2)
                needed.setdefault(k.letters, k)
        table = {}
        for lk, w in needed.items():
            if not lk:
                continue
            table[lk] = unitary_rotation(dim, eta, rng) @ base.evaluate(w)
        images = [table[canonical_form(g, Z2).letters] for g in (A, B)]
        phi = QuasiRep(Z2, tuple(images), flavor="general", word_table=table)
        report = defect(phi, S)
        assert report.max_defect <= 3.0 * eta + 1e-9


def test_defect_invariant_under_joint_conjugation(rng):
    phi = perturbed_honest_rep(Z2, symmetrized_generators(Z2), 0.1, 5, rng)
    w = haar_unitary(5, rng)
    conj_table = {k: w @ v @ dagger(w) for k, v in phi.word_table.items()}
    conj = QuasiRep(
        Z2,
        tuple(w @ m @ dagger(w) for m in phi.images),
        flavor="general",
        word_table=conj_table,
    )
    S = symmetrized_generators(Z2)
    assert defect(conj, S).max_defect == pytest.approx(
        defect(phi, S).max_defect, abs=1e-10 * 5
    )


def test_defect_streams_large_residues():
    # dim 189: above SVD_NORM_DIM_LIMIT the 16 residues are normed one at a
    # time, so the peak stays a few matrices, not the whole set of residues
    phi = unitary_pair_rep(*voiculescu_pair(0.1, 3))
    S = symmetrized_generators(Z2)
    matrix_bytes = phi.dim ** 2 * 16
    defect(phi, S)
    tracemalloc.start()
    try:
        defect(phi, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phi.dim == 189
    assert peak < 10 * matrix_bytes


def test_wrong_size_refusal_comes_before_the_unit_ball():
    table = {canonical_form(A * B, Z2).letters: identity(3)}
    with pytest.raises(InvalidSize, match=r"^table value for .* must be 2 x 2, got 3$"):
        QuasiRep(Z2, (2.0 * identity(2), identity(2)), word_table=table)
    with pytest.raises(InvalidSize, match="table value"):
        QuasiRep(Z2, (identity(2), identity(2)), word_table=table)
    with pytest.raises(HypothesisViolation, match="image of generator 0 leaves") as exc_info:
        QuasiRep(Z2, (2.0 * identity(2), identity(2)))
    assert exc_info.value.measured == pytest.approx(2.0)


def test_defect_report_json_shape():
    phi = unitary_pair_rep(*clock_shift(4))
    S = [A, B]
    obj = defect_report_to_json(defect(phi, S), Z2)
    assert set(obj) == {"pair_defects", "max_defect", "unitarity_defect"}
    assert len(obj["pair_defects"]) == 4
    assert obj["pair_defects"][0]["s"] == "a"


# ---------------------------------------------------------------------------
# unitarize
# ---------------------------------------------------------------------------


def test_unitarize_fixes_honest_unitary_rep(rng):
    phi = honest_commuting_rep(Z2, 5, rng)
    S = symmetrized_generators(Z2)
    sigma = unitarize(phi, S, 1e-6)
    assert sigma.flavor == "unitary"
    for s in S:
        assert op_norm(sigma.evaluate(s) - phi.evaluate(s)) <= spectral_tol(5)
    assert defect(sigma, S).max_defect <= 6.0 * 1e-6


def test_unitarize_clock_shift_postconditions():
    n = 16
    eps = 2.0 * math.sin(math.pi / n) + 1e-6
    phi = unitary_pair_rep(*clock_shift(n))
    S = [A, A.inverse(), B, B.inverse()]
    sigma = unitarize(phi, S, eps)
    require_unitary([sigma.evaluate(s) for s in S], UNITARITY_TOL, S)
    for s in S:
        assert op_norm(sigma.evaluate(s) - phi.evaluate(s)) < eps
    assert defect(sigma, S).max_defect < 6.0 * eps


def test_unitarize_randomized_triple(rng):
    S = symmetrized_generators(Z2)
    for eps in (0.01, 0.1):
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            phi = perturbed_honest_rep(Z2, S, eps, dim, rng)
            sigma = unitarize(phi, S, eps)
            for s in S:
                assert op_norm(dagger(sigma.evaluate(s)) @ sigma.evaluate(s) - identity(dim)) <= 1e-10
                assert op_norm(sigma.evaluate(s) - phi.evaluate(s)) < eps
            assert defect(sigma, S).max_defect < 6.0 * eps


def test_unitarize_is_identity_off_the_set(rng):
    phi = perturbed_honest_rep(Z2, symmetrized_generators(Z2), 0.05, 4, rng)
    sigma = unitarize(phi, symmetrized_generators(Z2), 0.05)
    far = GroupWord(((0, 1), (0, 1), (0, 1)))  # a^3: outside S and S*S
    assert np.allclose(sigma.evaluate(far), np.eye(4))


def test_unitarized_surface_rep_refuses_a_generator_it_lacks(rng):
    # off the table this rep is the identity, which once hid the bad letter
    p = surface_presentation(2)
    S = symmetrized_generators(p)
    sigma = unitarize(perturbed_honest_rep(p, S, 0.05, 3, rng), S, 0.05)
    with pytest.raises(ParseError, match="^word uses generator 9 but only 4 are declared$"):
        sigma.evaluate(GroupWord(((9, 1),)))


def test_unitarized_rep_json_round_trip_keeps_default_to_identity(rng):
    S = symmetrized_generators(Z2)
    sigma = unitarize(perturbed_honest_rep(Z2, S, 0.05, 3, rng), S, 0.05)
    text = json.dumps(quasirep_to_json(sigma))
    back = quasirep_from_json(json.loads(text))
    assert back.default_to_identity and back.flavor == "unitary"
    assert json.dumps(quasirep_to_json(back)) == text
    far = GroupWord(((0, 1), (0, 1), (0, 1)))
    assert np.array_equal(back.evaluate(far), np.eye(3))


def _old_perturbed_table(p, S, eps, dim, rng):
    """The per-entry loop ``perturbed_honest_rep`` ran before its stacked solve:
    one rotation, one product and one contraction per table entry."""
    base = honest_commuting_rep(p, dim, rng)
    eta = eps / 4.0
    table = {}
    for w in [*S, *(s * t for s in S for t in S)]:
        k = canonical_form(w, p)
        if not k.letters or k.letters in table:
            continue
        rot = random_rotation(dim, rng, rng.uniform(0.0, eta))
        shrink = rng.uniform(0.0, eta / 4.0)
        table[k.letters] = (1.0 - shrink) * (rot @ base.evaluate(k))
    return table


@pytest.mark.parametrize(
    "p", [free_abelian_presentation(1), Z2, free_abelian_presentation(3), surface_presentation(2)],
    ids=["Z", "Z2", "Z3", "surface-2"],
)
def test_perturbed_table_is_bitwise_the_per_entry_loop(p):
    S = symmetrized_generators(p)
    for seed, dim, eps in [(0, 1, 0.3), (1, 2, 0.05), (2, 5, 0.01), (3, 8, 0.9), (4, 13, 0.2)]:
        phi = perturbed_honest_rep(p, S, eps, dim, derive_rng(seed, 77))
        old = _old_perturbed_table(p, S, eps, dim, derive_rng(seed, 77))
        assert list(phi.word_table) == list(old)
        for key, value in old.items():
            assert phi.word_table[key].tobytes() == value.tobytes()
            assert not phi.word_table[key].flags.writeable


def test_perturbed_table_and_unitarize_of_the_identity_alone(rng):
    phi = perturbed_honest_rep(Z2, [IDENTITY_WORD], 0.1, 3, rng)
    assert phi.word_table == {}
    sigma = unitarize(phi, [IDENTITY_WORD], 0.1)
    assert sigma.word_table == {}
    assert np.array_equal(sigma.evaluate(A), np.eye(3))


def test_unitarize_values_on_s_are_bitwise_the_per_key_polar_factors(rng):
    S = symmetrized_generators(surface_presentation(2))
    phi = perturbed_honest_rep(surface_presentation(2), S, 0.05, 6, rng)
    sigma = unitarize(phi, S, 0.05)
    for s in S:
        key = canonical_form(s, phi.presentation).letters
        assert sigma.word_table[key].tobytes() == polar_unitary(phi.evaluate(s)).tobytes()


def test_unitarize_keys_a_non_canonical_member_by_its_element(rng):
    # "ba" and "BA" name the elements of "ab" and "AB" on Z^2
    S = [A, A.inverse(), B, B.inverse(), B * A, B.inverse() * A.inverse()]
    phi = perturbed_honest_rep(Z2, S, 0.05, 3, rng)
    sigma = unitarize(phi, S, 0.05)
    key = canonical_form(A * B, Z2).letters
    assert sigma.word_table[key].tobytes() == polar_unitary(phi.evaluate(B * A)).tobytes()
    assert np.array_equal(sigma.evaluate(B * A), sigma.evaluate(A * B))


@pytest.mark.parametrize("eps", [1.0, 1e300])
def test_perturbed_honest_rep_refuses_eps_of_one_or_more(eps):
    # the contraction factor 1 - shrink turned negative; a bound parameter
    # out of range is refused as one (exit 1), before anything is drawn
    rng = derive_rng(16, 2)
    with pytest.raises(BoundViolation, match="below 1"):
        perturbed_honest_rep(Z2, symmetrized_generators(Z2), eps, 3, rng)
    assert rng.random() == derive_rng(16, 2).random()


def test_unitarize_validation_gates(rng):
    phi = honest_commuting_rep(Z2, 3, rng)
    S = symmetrized_generators(Z2)
    with pytest.raises(BoundViolation):
        unitarize(phi, S, 1.0)
    with pytest.raises(BoundViolation):
        unitarize(phi, S, 0.0)
    with pytest.raises(BoundViolation):
        unitarize(phi, S, float("nan"))
    with pytest.raises(AsymmetricSet):
        unitarize(phi, [A, B], 0.1)
    noisy = perturbed_honest_rep(Z2, S, 0.2, 3, rng)
    measured = defect(noisy, S).max_defect
    with pytest.raises(HypothesisViolation):
        unitarize(noisy, S, measured / 2.0)


# ---------------------------------------------------------------------------
# ucp gram check
# ---------------------------------------------------------------------------


def test_gram_check_honest_rep(rng):
    phi = honest_commuting_rep(Z2, 4, rng)
    F = [IDENTITY_WORD, A, B, A * B, A.inverse() * B]
    assert ucp_gram_check(phi, F) >= -1e-10


def test_gram_check_half_identity_closed_form():
    p1 = free_presentation(1)
    half = 0.5 * np.eye(2)
    phi = QuasiRep(
        p1,
        (half,),
        flavor="general",
        word_table={((0, 1),): half, ((0, -1),): half},
    )
    low = ucp_gram_check(phi, [IDENTITY_WORD, A])
    assert low == pytest.approx(0.5, abs=1e-12)


def test_gram_check_compression_is_psd(rng):
    big = honest_commuting_rep(Z2, 8, rng)
    h = random_hermitian(8, rng)
    lam, vec = np.linalg.eigh(h)
    p = vec[:, :5] @ vec[:, :5].conj().T
    rep = compress(big.images, p, Z2)
    for _ in range(20):
        size = int(rng.integers(1, 7))
        F = []
        for _ in range(size):
            letters = tuple(
                (int(rng.integers(0, 2)), int(rng.choice((1, -1))))
                for _ in range(int(rng.integers(0, 4)))
            )
            F.append(GroupWord(letters))
        assert ucp_gram_check(rep, F) >= -1e-9


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------


def test_compress_by_identity_is_original(rng):
    phi = honest_commuting_rep(Z2, 4, rng)
    rep = compress(phi.images, np.eye(4), Z2)
    assert defect(rep, symmetrized_generators(Z2)).max_defect <= 1e-10
    # isometry spans the full space, so images agree up to a basis rotation
    for small, big in zip(rep.images, phi.images):
        assert sorted(np.round(np.linalg.eigvals(small), 8)) == pytest.approx(
            sorted(np.round(np.linalg.eigvals(big), 8))
        )


def test_compress_by_commuting_projector_is_subrep(rng):
    r1 = honest_commuting_rep(Z2, 3, rng)
    r2 = honest_commuting_rep(Z2, 2, rng)
    big = [scipy.linalg.block_diag(a, b) for a, b in zip(r1.images, r2.images)]
    p = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    rep = compress(big, p, Z2)
    assert defect(rep, symmetrized_generators(Z2)).max_defect <= 1e-10
    # an honest subrepresentation, equal to r1 up to the basis the range
    # isometry picked for range(p)
    require_honest(QuasiRep(Z2, rep.images, flavor="unitary"))
    for small, orig in zip(rep.images, r1.images):
        assert np.linalg.eigvals(small) == pytest.approx(
            np.linalg.eigvals(orig), abs=1e-9
        ) or sorted(np.angle(np.linalg.eigvals(small))) == pytest.approx(
            sorted(np.angle(np.linalg.eigvals(orig))), abs=1e-9
        )


def test_compress_rotated_coordinate_projection_defect(rng):
    # rotate each range/kernel plane by theta: ||p - p0|| = sin(theta), and
    # the generator defect is at most 2*theta
    for _ in range(25):
        theta = float(rng.uniform(0.01, 0.3))
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=4))
        pi_a = np.diag(phases)
        c, s = np.cos(theta), np.sin(theta)
        r = np.array(
            [
                [c, 0.0, -s, 0.0],
                [0.0, c, 0.0, -s],
                [s, 0.0, c, 0.0],
                [0.0, s, 0.0, c],
            ]
        )
        p0 = np.diag([1.0, 1.0, 0.0, 0.0])
        p = r @ p0 @ r.T
        p1 = free_presentation(1)
        report = defect(compress([pi_a], p, p1), symmetrized_generators(p1))
        assert report.max_defect <= 2.0 * theta + 1e-9
        assert report.max_defect <= op_norm(commutator(p, pi_a)) + 1e-9


def test_compress_rejects_non_projection(rng):
    phi = honest_commuting_rep(Z2, 3, rng)
    with pytest.raises(NotProjection):
        compress(phi.images, 0.5 * np.eye(3), Z2)


def test_require_honest_rejects_defective(rng):
    phi = perturbed_honest_rep(Z2, symmetrized_generators(Z2), 0.3, 4, rng)
    # a general-flavor rep has no gated adjoint table to fold relators over
    with pytest.raises(ParseError, match="unitary flavor or compression data"):
        require_honest(phi)
    with pytest.raises(NotUnitary):
        QuasiRep(Z2, phi.images, flavor="unitary")
    # unitary but not commuting: the relator aba*b* is omega, not the identity
    clock = unitary_pair_rep(*clock_shift(5))
    with pytest.raises(HypothesisViolation, match="not an honest representation") as exc_info:
        require_honest(clock)
    assert exc_info.value.measured == pytest.approx(2.0 * math.sin(math.pi / 5), abs=1e-12)


def test_require_honest_and_compress_refuse_mismatched_image_sizes():
    images = [np.eye(2), np.eye(3)]
    with pytest.raises(InvalidSize, match="^image of generator 1 must be 2 x 2, got 3$"):
        QuasiRep(Z2, images, flavor="unitary")
    with pytest.raises(InvalidSize, match="^compressed image of generator 1 must be 2 x 2, got 3$"):
        compress(images, np.eye(2), Z2)
    with pytest.raises(InvalidSize, match="^compression projection must be 2 x 2, got 3$"):
        compress([np.eye(2), np.eye(2)], np.eye(3), Z2)
    with pytest.raises(InvalidSize, match="^one image per generator required$"):
        compress([np.eye(2)], np.eye(2), Z2)


def test_require_honest_gates_unitarity_at_the_quasirep_tolerance(rng):
    # ||a*a - 1|| ~ 1.1e-8: above UNITARITY_TOL = 1e-8 but below the
    # 1e-10 * dim relator tolerance at dim 120, which must not widen the gate;
    # the norm 1 + 5.5e-9 also leaves the 1e-10 unit ball, so the gate has to
    # come first for the refusal to say NotUnitary
    scaled = haar_unitary(120, rng) * (1.0 + 5.5e-9)
    with pytest.raises(NotUnitary, match=r"^image of generator 0 .* = 1\.1"):
        require_honest(QuasiRep(free_presentation(1), (scaled,), flavor="unitary"))
    with pytest.raises(NotUnitary, match=r"^compressed image of generator 0 .* = 1\.1"):
        compress([scaled], np.eye(120), free_presentation(1))
    honest = QuasiRep(free_presentation(1), (haar_unitary(120, rng),), flavor="unitary")
    assert require_honest(honest) is honest


def test_honest_constructions_gate_each_image_once(rng, unitarity_checks):
    phi = honest_commuting_rep(free_abelian_presentation(2), 6, rng)
    assert unitarity_checks == [(6, 6), (6, 6)]
    unitarity_checks.clear()
    compress(phi.images, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), Z2)
    assert unitarity_checks == [(6, 6), (6, 6)]


@pytest.mark.parametrize("genus", [1, 2, 3, 13])
def test_honest_commuting_rep_signs_match_the_involution_construction(genus):
    # reference: commuting involutions (w * signs) @ w* in one Haar basis w,
    # with the draws in the same order, built inline here
    pres = surface_presentation(genus, orientable=False)
    for dim in (1, 2, 5, 9):
        for seed in (0, 3, 11):
            rep = honest_commuting_rep(pres, dim, derive_rng(seed, 31))
            rng = derive_rng(seed, 31)
            w = haar_unitary(dim, rng)
            for image in rep.images:
                signs = np.where(rng.integers(0, 2, size=dim) == 0, 1.0, -1.0)
                assert image.tobytes() == ((w * signs) @ w.conj().T).tobytes()
            assert rep.flavor == "unitary" and len(rep.images) == genus


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_honest_commuting_rep_refuses_a_relator_signs_cannot_satisfy(seed):
    # a b a^-1 b^-2 has an odd exponent sum in b, so it evaluates to b^-1 on
    # commuting involutions: 2 away from the identity unless b = 1
    with pytest.raises(HypothesisViolation, match="not an honest representation") as exc_info:
        honest_commuting_rep(baumslag_solitar_presentation(1, 2), 6, derive_rng(seed, 31))
    assert exc_info.value.measured == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# approx_mult_audit
# ---------------------------------------------------------------------------


def test_mult_audit_honest_compression(rng):
    phi = honest_commuting_rep(Z2, 5, rng)
    rep = compress(phi.images, np.eye(5), Z2)
    S = symmetrized_generators(Z2)
    audit = approx_mult_audit(rep, S, [A * B, B.inverse() * A])
    assert audit.passed
    assert all(entry[3] <= 1e-9 for entry in audit.entries)  # measured defects


def test_mult_audit_commuting_projector(rng):
    r1 = honest_commuting_rep(Z2, 3, rng)
    r2 = honest_commuting_rep(Z2, 3, rng)
    big = [scipy.linalg.block_diag(a, b) for a, b in zip(r1.images, r2.images)]
    rep = compress(big, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), Z2)
    audit = approx_mult_audit(rep, symmetrized_generators(Z2), [A, A * B])
    assert audit.passed
    assert audit.eps <= 1e-10


def test_mult_audit_sqrt_bound_randomized(rng):
    S = symmetrized_generators(Z2)
    for _ in range(60):
        dim = int(rng.integers(5, 10))
        rank = int(rng.integers(dim // 2 + 1, dim))
        big = honest_commuting_rep(Z2, dim, rng)
        h = random_hermitian(dim, rng)
        lam, vec = np.linalg.eigh(h)
        p = vec[:, :rank] @ vec[:, :rank].conj().T
        rep = compress(big.images, p, Z2)
        words = []
        for _ in range(3):
            letters = tuple(
                (int(rng.integers(0, 2)), int(rng.choice((1, -1))))
                for _ in range(int(rng.integers(1, 4)))
            )
            words.append(GroupWord(letters))
        audit = approx_mult_audit(rep, S, words)
        assert audit.passed, f"sqrt bound failed at ratio {audit.worst_ratio}"
        assert audit.worst_ratio <= 1.0


def test_mult_audit_eps_is_the_unitarity_defect(rng):
    big = honest_commuting_rep(Z2, 7, rng)
    rep = compress(big.images, random_projection(7, 4, rng), Z2)
    S = symmetrized_generators(Z2)
    assert approx_mult_audit(rep, S, [A * B]).eps == defect(rep, S).unitarity_defect


@pytest.mark.parametrize("dim, rank", [(8, 5), (30, 20)], ids=["svd-route", "gram-route"])
def test_mult_audit_measures_the_residue_formed_inline(dim, rank, rng):
    # bitwise: each entry is the norm of phi(gs) - phi(g) phi(s), or of
    # phi(sg) - phi(s) phi(g), formed here one matrix at a time
    big = honest_commuting_rep(Z2, dim, rng)
    rep = compress(big.images, random_projection(dim, rank, rng), Z2)
    ev = rep.evaluate
    audit = approx_mult_audit(rep, symmetrized_generators(Z2), [A * B, B.inverse(), A * A])
    assert len(audit.entries) == 24
    for g, s, order, measured, *_ in audit.entries:
        x, y = (g, s) if order == "left" else (s, g)
        assert measured == op_norms((ev(x * y) - ev(x) @ ev(y))[None]).item()


@pytest.mark.parametrize("pres", [Z2, surface_presentation(2)], ids=["z2", "genus-2"])
def test_unitarize_refusal_measures_the_product_defect(pres, rng):
    S = symmetrized_generators(pres)
    phi = perturbed_honest_rep(pres, S, 0.1, 4, rng)
    worst = defect(phi, S).max_defect
    with pytest.raises(HypothesisViolation, match="is not below eps") as exc_info:
        unitarize(phi, S, worst)
    assert exc_info.value.measured == worst


def _distinct_elements(p, words):
    """How many elements the words name, counted from their canonical forms."""
    return len({canonical_form(w, p).letters for w in words})


def _counted_evaluations(monkeypatch):
    calls = []
    evaluate = QuasiRep.evaluate
    monkeypatch.setattr(QuasiRep, "evaluate", lambda self, w: calls.append(w) or evaluate(self, w))
    return calls


@pytest.mark.parametrize("pres", [Z2, surface_presentation(2)], ids=["z2", "genus-2"])
def test_unitarize_evaluates_each_member_of_s_once(pres, rng, monkeypatch):
    # the defect gate's values feed the polar factors: phi once per element
    # of S and of S.S, nothing more
    S = symmetrized_generators(pres)
    phi = perturbed_honest_rep(pres, S, 0.05, 3, rng)
    calls = _counted_evaluations(monkeypatch)
    unitarize(phi, S, 0.05)
    assert len(calls) == _distinct_elements(pres, [*S, *(s * t for s in S for t in S)])


@pytest.mark.parametrize("pres", [Z2, surface_presentation(2)], ids=["z2", "genus-2"])
def test_defect_evaluates_each_element_once(pres, rng, monkeypatch):
    S = [*symmetrized_generators(pres), B * A, A * B]
    phi = perturbed_honest_rep(pres, S, 0.05, 3, rng)
    calls = _counted_evaluations(monkeypatch)
    defect(phi, S)
    assert len(calls) == _distinct_elements(pres, [*S, *(s * t for s in S for t in S)])


def test_mult_audit_evaluates_each_element_once(rng, monkeypatch):
    big = honest_commuting_rep(Z2, 6, rng)
    rep = compress(big.images, random_projection(6, 4, rng), Z2)
    S = symmetrized_generators(Z2)
    g_sample = [A * B, B * A, A.inverse(), IDENTITY_WORD]
    calls = _counted_evaluations(monkeypatch)
    approx_mult_audit(rep, S, g_sample)
    products = [w for g in g_sample for s in S for w in (g * s, s * g)]
    assert len(calls) == _distinct_elements(Z2, [*S, *g_sample, *products])


# ---------------------------------------------------------------------------
# stacked paths against the per-word loop they replace
# ---------------------------------------------------------------------------


def _hexes(a) -> list:
    return [float.hex(x) for x in np.asarray(a, dtype=complex).view(float).ravel()]


def _reference_product_norms(phi, pairs) -> list:
    """The per-pair loop: phi(s) phi(t) - phi(st), one residue per pair."""
    ev = phi.evaluate
    return op_norms(ev(s) @ ev(t) - ev(s * t) for s, t in pairs).tolist()


def _reference_unitarity_defect(phi, S) -> float:
    eye = identity(phi.dim)
    values = [phi.evaluate(s) for s in S]
    residues = (r for v in values for r in (v.conj().T @ v - eye, v @ v.conj().T - eye))
    return max([0.0, *op_norms(residues).tolist()])


def _reference_unitarize_table(phi, S) -> dict:
    """Polar factors per key, then one product per new element, in word order."""
    p = phi.presentation
    keys = {}
    for s in S:
        k = canonical_form(s, p)
        if k.letters:
            keys.setdefault(k.letters, k)
    table = {lk: polar_unitary(phi.evaluate(k)) for lk, k in keys.items()}
    order = sorted(keys.values(), key=lambda w: (len(w), [(g, e != 1) for g, e in w.letters]))
    for left in order:
        for right in order:
            pk = canonical_form(left * right, p).letters
            if pk and pk not in table:
                table[pk] = table[left.letters] @ table[right.letters]
    return table


_PRESENTATIONS = {
    "Z2": Z2,
    "Z3": free_abelian_presentation(3),
    "genus-2": surface_presentation(2),
    "non-orientable-3": surface_presentation(3, orientable=False),
    "BS(1,2)": baumslag_solitar_presentation(1, 2),
}


def _honest_images(p, dim, gen):
    """Unitary images satisfying every relator of ``p``."""
    if p is _PRESENTATIONS["BS(1,2)"]:  # a b a^-1 b^-2 = 1 with b = 1
        return (haar_unitary(dim, gen), identity(dim))
    return honest_commuting_rep(p, dim, gen).images


def _perturbed_table(p, dim, gen) -> dict:
    """An honest value on each element of S and S.S (S the symmetrized
    generators), rotated and shrunk a little."""
    honest = QuasiRep(p, _honest_images(p, dim, gen), flavor="unitary")
    S = symmetrized_generators(p)
    table = {}
    for w in [*S, *(s * t for s in S for t in S)]:
        k = canonical_form(w, p)
        if k.letters and k.letters not in table:
            rot = random_rotation(dim, gen, gen.uniform(0.0, 0.05))
            table[k.letters] = (1.0 - gen.uniform(0.0, 0.01)) * (rot @ honest.evaluate(k))
    return table


def _rep_of_flavor(flavor, p, dim, gen):
    if flavor == "general":
        return QuasiRep(p, tuple(0.9 * haar_unitary(dim, gen) for _ in range(p.num_generators)))
    if flavor in ("general-table", "default-to-identity"):
        table = _perturbed_table(p, dim, gen)
        images = tuple(table[canonical_form(generator(g), p).letters]
                       for g in range(p.num_generators))
        return QuasiRep(p, images, word_table=table,
                        default_to_identity=flavor == "default-to-identity")
    if flavor == "unitary":
        return QuasiRep(p, tuple(haar_unitary(dim, gen) for _ in range(p.num_generators)),
                        flavor="unitary")
    extra = int(gen.integers(1, 4))
    big = _honest_images(p, dim + extra, gen)
    return compress(big, random_projection(dim + extra, dim, gen), p)


def _word_set(p, spellings):
    """The symmetrized generators, with ab, ba, AB, BA and aA when asked: on
    Z^n, ba and BA spell the elements of ab and AB, and aA the identity."""
    S = symmetrized_generators(p)
    if spellings:
        S += [word_from_text(t, p) for t in ("ab", "ba", "AB", "BA", "aA")]
    return S


_FLAVORS = ["general-table", "general", "default-to-identity", "unitary", "compression"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_PRESENTATIONS)), st.sampled_from(_FLAVORS),
       st.integers(1, 20), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_residues_are_bitwise_the_per_word_loop(name, flavor, dim, spellings, seed):
    p = _PRESENTATIONS[name]
    phi = _rep_of_flavor(flavor, p, dim, derive_rng(seed, 32))
    S = _word_set(p, spellings)
    pairs = [(s, t) for s in S for t in S]
    expected = _reference_product_norms(phi, pairs)
    value = {}
    keys = _evaluated(phi, S, value)
    got = _product_norms(phi, value, [(a, b) for a in keys for b in keys])
    assert list(map(float.hex, got)) == list(map(float.hex, expected))
    unitarity = _reference_unitarity_defect(phi, S)
    assert float.hex(_unitarity_defect(phi, [phi.evaluate(s) for s in S])) == float.hex(unitarity)
    # defect takes the unitarity defect from the pair norms where it may
    report = defect(phi, S)
    assert [float.hex(report.pair_defects[st]) for st in pairs] == list(map(float.hex, expected))
    assert float.hex(report.unitarity_defect) == float.hex(unitarity)
    assert float.hex(report.max_defect) == float.hex(max([0.0, *expected]))
    # the square-root audit: eps from the unitarity residues, both orders of each pair
    g_sample = [word_from_text(t, p) for t in ("", "ab", "Ba", "aab")]
    if unitarity < 1.0:
        audit = approx_mult_audit(phi, S, g_sample)
        cases = [(g, s) if order == "left" else (s, g)
                 for g in g_sample for s in S for order in ("left", "right")]
        assert float.hex(audit.eps) == float.hex(unitarity)
        assert [float.hex(e[3]) for e in audit.entries] == list(
            map(float.hex, _reference_product_norms(phi, cases)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_PRESENTATIONS)), st.sampled_from(_FLAVORS),
       st.integers(1, 20), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_unitarize_is_bitwise_the_per_key_loop(name, flavor, dim, spellings, seed):
    p = _PRESENTATIONS[name]
    phi = _rep_of_flavor(flavor, p, dim, derive_rng(seed, 33))
    S = _word_set(p, spellings)
    measured = max([0.0, *_reference_product_norms(phi, [(s, t) for s in S for t in S])])
    eps = 0.5
    if measured >= eps:
        with pytest.raises(HypothesisViolation) as exc_info:
            unitarize(phi, S, eps)
        assert float.hex(exc_info.value.measured) == float.hex(measured)
        return
    sigma = unitarize(phi, S, eps)
    expected = _reference_unitarize_table(phi, S)
    assert list(sigma.word_table) == list(expected)
    for key, value in expected.items():
        assert _hexes(sigma.word_table[key]) == _hexes(value)


# BS(1, 2) is left out: honest_commuting_rep's signs cannot satisfy its relator
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(set(_PRESENTATIONS) - {"BS(1,2)"})), st.integers(1, 20),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_perturbed_table_is_bitwise_the_per_entry_loop(name, dim, spellings, seed):
    p = _PRESENTATIONS[name]
    S = _word_set(p, spellings)
    phi = perturbed_honest_rep(p, S, 0.1, dim, derive_rng(seed, 34))
    old = _old_perturbed_table(p, S, 0.1, dim, derive_rng(seed, 34))
    assert list(phi.word_table) == list(old)
    for key, value in old.items():
        assert _hexes(phi.word_table[key]) == _hexes(value)


# ---------------------------------------------------------------------------
# example families
# ---------------------------------------------------------------------------


def test_clock_shift_n2_hand_values():
    u, v = clock_shift(2)
    assert np.allclose(u, np.diag([1.0, -1.0]))
    assert np.allclose(v, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert commutation_defect(u, v) == pytest.approx(2.0, abs=1e-12)


def test_commutation_defect_refuses_a_pair_of_two_sizes():
    with pytest.raises(InvalidSize, match="^v must be 2 x 2, got 3$"):
        commutation_defect(np.eye(2), np.eye(3))


def test_clock_shift_relation_and_defect():
    for n in (3, 4, 7):
        u, v = clock_shift(n)
        omega = np.exp(2j * np.pi / n)
        assert op_norm(u @ v - omega * (v @ u)) <= 1e-12
        assert commutation_defect(u, v) == pytest.approx(
            2.0 * math.sin(math.pi / n), abs=1e-12
        )
    with pytest.raises(InvalidSize):
        clock_shift(1)


def test_clock_shift_bytes_equal_the_column_construction():
    for n in (2, 5, 13):
        u, v = clock_shift(n)
        shift = np.zeros((n, n), dtype=np.complex128)
        for j in range(n):
            shift[(j + 1) % n, j] = 1.0
        assert u.tobytes() == np.diag(np.exp(2j * np.pi * np.arange(n) / n)).tobytes()
        assert v.tobytes() == shift.tobytes()


def test_voiculescu_pair_defect_and_sizes():
    u, v = voiculescu_pair(0.5, -1)
    assert u.shape[0] == 13  # smallest n with 2 sin(pi/n) < 0.5
    assert commutation_defect(u, v) < 0.5

    u0, v0 = voiculescu_pair(0.1, 0)
    assert u0.shape[0] == 1
    assert commutation_defect(u0, v0) == 0.0

    u2, v2 = voiculescu_pair(0.5, 2)
    assert u2.shape[0] == 26
    assert commutation_defect(u2, v2) < 0.5


def test_voiculescu_block_size_matches_the_search():
    def search(delta):
        n = 2
        while 2.0 * math.sin(math.pi / n) >= delta:
            n += 1
        return n

    boundaries = [2.0 * math.sin(math.pi / m) for m in range(2, 400)]
    deltas = [0.5, 0.1, 0.01, 1e-3, 1e-5, 2.0, 2.5, *boundaries]
    deltas += [np.nextafter(d, side) for d in boundaries for side in (0.0, 3.0)]
    for delta in deltas:
        assert _block_size(float(delta)) == search(delta), delta


def test_voiculescu_pair_bytes_equal_the_block_sum():
    for delta, k in ((0.5, 3), (0.25, -2), (0.1, 1)):
        u1, v1 = clock_shift(_block_size(delta))
        if k > 0:
            u1, v1 = v1, u1
        u, v = voiculescu_pair(delta, k)
        assert u.tobytes() == scipy.linalg.block_diag(*[u1] * abs(k)).tobytes()
        assert v.tobytes() == scipy.linalg.block_diag(*[v1] * abs(k)).tobytes()
        assert not u.flags.writeable and not v.flags.writeable


def test_voiculescu_pair_refuses_oversized_before_building():
    # 1.3e8-square at k = 1e7 is past the 128 TB address space; the sizes at
    # delta = 1e-9 (n about 6.3e9) and 5e-324 are refused by numpy or by the
    # size arithmetic itself, all before any block exists
    with pytest.raises(MemoryError):
        voiculescu_pair(0.5, 10**7)
    for delta in (1e-9, 5e-324):
        with pytest.raises(InvalidSize, match="too large"):
            voiculescu_pair(delta, 1)


def test_voiculescu_positive_k_swaps():
    um, vm = voiculescu_pair(0.25, -1)
    up, vp = voiculescu_pair(0.25, 1)
    assert np.array_equal(up, vm)
    assert np.array_equal(vp, um)


def test_voiculescu_defect_grid():
    for delta in (0.5, 0.25, 0.1):
        for k in range(-3, 4):
            u, v = voiculescu_pair(delta, k)
            assert commutation_defect(u, v) < delta


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_quasirep_json_round_trip(rng):
    phi = perturbed_honest_rep(Z2, symmetrized_generators(Z2), 0.05, 3, rng)
    back = quasirep_from_json(quasirep_to_json(phi))
    assert back.presentation == phi.presentation
    assert back.flavor == phi.flavor
    for a, b in zip(back.images, phi.images):
        assert np.array_equal(a, b)
    assert set(back.word_table) == set(phi.word_table)


@pytest.mark.parametrize(
    "field, value",
    [("default_to_identity", "false"), ("default_to_identity", 0), ("flavor", 1)],
)
def test_quasirep_json_refuses_coercible_fields(field, value, rng):
    # bool("false") is True: the string used to reverse its own meaning
    obj = quasirep_to_json(honest_commuting_rep(Z2, 3, rng))
    with pytest.raises(ParseError, match=f"{field} must be"):
        quasirep_from_json({**obj, field: value})


@pytest.mark.parametrize(
    "p, texts",
    [(Z2, ("ab", "ba")), (free_presentation(2), ("b", "aAb"))],
    ids=["abelian-ab-ba", "free-b-aAb"],
)
def test_quasirep_json_refuses_two_texts_of_one_element(p, texts):
    # the second text used to overwrite the first without a word
    obj = quasirep_to_json(QuasiRep(p, (np.eye(2), np.eye(2))))
    obj["word_table"] = {t: matrix_to_json(0.5 * np.eye(2)) for t in texts}
    with pytest.raises(ParseError, match="names an element already in the table"):
        quasirep_from_json(obj)


def test_quasirep_json_compression_round_trip(rng):
    big = honest_commuting_rep(Z2, 5, rng)
    h = random_hermitian(5, rng)
    lam, vec = np.linalg.eigh(h)
    p = vec[:, :3] @ vec[:, :3].conj().T
    rep = compress(big.images, p, Z2)
    back = quasirep_from_json(quasirep_to_json(rep))
    assert back.flavor == "ucp-compression"
    S = symmetrized_generators(Z2)
    for s in S:
        assert op_norm(back.evaluate(s) - rep.evaluate(s)) <= 1e-9


@pytest.mark.parametrize("flavor", ["general", "unitary"])
def test_compression_data_need_the_compression_flavor(flavor, rng):
    # such a rep evaluated through its compression, and its own JSON then failed to load
    rep = compress(honest_commuting_rep(Z2, 4, rng).images, np.diag([1.0, 1.0, 0.0, 0.0]), Z2)
    with pytest.raises(ParseError, match="ucp-compression flavor"):
        QuasiRep(Z2, rep.images, flavor=flavor, compression=rep.compression)
    with pytest.raises(ParseError, match="ucp-compression flavor"):
        QuasiRep(Z2, rep.images, flavor="ucp-compression")


def test_compression_images_must_be_the_corners_of_its_data(rng):
    # a rank-3 compression of a dim-6 rep: the images evaluate never reads
    # must still be its V* pi(g) V, the rule quasirep_from_json applies
    big = honest_commuting_rep(Z2, 6, rng)
    rep = compress(big.images, random_projection(6, 3, rng), Z2)
    with pytest.raises(ParseError, match="^images differ from the compression V"):
        QuasiRep(Z2, (0.5 * np.eye(3), 0.5 * np.eye(3)), "ucp-compression",
                 compression=rep.compression)
    with pytest.raises(ParseError, match="^images differ from the compression V"):
        QuasiRep(Z2, rep.images[::-1], "ucp-compression", compression=rep.compression)
    again = QuasiRep(Z2, tuple(np.array(m) for m in rep.images), "ucp-compression",
                     compression=rep.compression)
    assert json.dumps(quasirep_to_json(again)) == json.dumps(quasirep_to_json(rep))


@pytest.mark.parametrize("letter", [(True, 1), (1.0, 1), (1, True)],
                         ids=["bool", "float", "bool-sign"])
def test_a_table_key_of_non_int_letters_is_refused_warm_or_cold(letter):
    p = free_abelian_presentation(2)
    table = {(letter,): 0.5 * np.eye(2)}
    with pytest.raises(ParseError, match="a letter is a"):
        QuasiRep(p, (np.eye(2), np.eye(2)), word_table=table)
    canonical_form(B, p)  # ((1, 1),) is held now, and equals the key
    with pytest.raises(ParseError, match="a letter is a"):
        QuasiRep(p, (np.eye(2), np.eye(2)), word_table=table)


@pytest.mark.parametrize("table, default", [(True, False), (False, True), (True, True)],
                         ids=["table", "default", "both"])
def test_compression_data_take_no_table_or_default(table, default, rng):
    # evaluate reads neither, and quasirep_from_json refuses a JSON with both
    big = honest_commuting_rep(Z2, 6, rng)
    rep = compress(big.images, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), Z2)
    word_table = {canonical_form(A * B, Z2).letters: 0.5 * np.eye(3)} if table else {}
    with pytest.raises(ParseError, match="^compression data take no word_table"):
        QuasiRep(Z2, rep.images, "ucp-compression", word_table, rep.compression,
                 default_to_identity=default)


# ---------------------------------------------------------------------------
# Validation boundary
# ---------------------------------------------------------------------------


def test_construction_leaves_caller_word_table_untouched():
    p1 = free_presentation(1)
    value = [[0.5, 0.0], [0.0, 0.5]]
    table = {((0, 1),): value}
    phi = QuasiRep(p1, (np.eye(2),), flavor="general", word_table=table)
    assert phi.word_table is not table
    assert list(table) == [((0, 1),)]
    assert table[((0, 1),)] is value
    assert value == [[0.5, 0.0], [0.0, 0.5]]
    assert np.array_equal(phi.evaluate(A), 0.5 * np.eye(2))


def test_adjoint_evaluation_of_non_unitary_general_rep_raises():
    p1 = free_presentation(1)
    m = np.diag([0.5, 0.5])
    # adjoint evaluation belongs to the unitary flavor, which refuses the image
    with pytest.raises(NotUnitary):
        QuasiRep(p1, (m,), flavor="unitary")
    # the general flavor inverts, and positive letters stay available
    phi = QuasiRep(p1, (m,), flavor="general")
    assert np.allclose(phi.evaluate(A.inverse()), 2.0 * np.eye(2))
    assert np.allclose(phi.evaluate(A), 0.5 * np.eye(2))


def test_unitarity_refusals_name_the_image(rng):
    u = haar_unitary(3, rng)
    bad = np.diag([1.0, 1.0, 0.5])
    refusal = r"^image of generator 1 is not unitary: \|\|a\*a - 1\|\| = 7\.500e-01 > "
    with pytest.raises(NotUnitary, match=refusal):
        QuasiRep(Z2, (u, bad), flavor="unitary")
    with pytest.raises(NotUnitary, match=r"^compressed image of generator 0 is not unitary"):
        compress([bad, u], np.eye(3), Z2)
    comp = compress([u, u], np.diag([1.0, 0.0, 0.0]), Z2).compression
    with pytest.raises(NotUnitary, match=r"^compressed image of generator 1 is not unitary"):
        QuasiRep(Z2, (np.eye(1), np.eye(1)), flavor="ucp-compression",
                 compression=replace(comp, big_images=(u, bad)))


def test_general_rep_refuses_inverse_letter_of_singular_image():
    phi = QuasiRep(free_presentation(1), (np.diag([1.0, 0.0]),))
    assert np.array_equal(phi.evaluate(A), np.diag([1.0, 0.0]))
    with pytest.raises(NotInvertible, match="image of generator 0 is singular"):
        phi.evaluate(A.inverse())


def non_unitary_compression_json(rng):
    big = honest_commuting_rep(Z2, 4, rng)
    p = np.diag([1.0, 1.0, 0.0, 0.0])
    rep = compress(big.images, p, Z2)
    obj = quasirep_to_json(rep)
    obj["compression"]["big_images"][0] = matrix_to_json(np.diag([0.5, 1.0, 1.0, 1.0]))
    return obj


def test_json_compression_with_non_unitary_big_image_is_refused(rng):
    with pytest.raises(NotUnitary):
        quasirep_from_json(non_unitary_compression_json(rng))


def compression_json(rng):
    big = honest_commuting_rep(Z2, 4, rng)
    return quasirep_to_json(compress(big.images, np.diag([1.0, 1.0, 0.0, 0.0]), Z2))


def test_json_compression_re_emits_byte_identically(rng):
    text = json.dumps(compression_json(rng))
    back = quasirep_from_json(json.loads(text))
    assert back.flavor == "ucp-compression"
    assert json.dumps(quasirep_to_json(back)) == text


def test_json_compression_of_a_non_representation_is_refused(rng):
    # the 4-dim clock-and-shift pair is unitary, but u v u* v* = i, not 1
    obj = compression_json(rng)
    obj["compression"]["big_images"] = [matrix_to_json(m) for m in clock_shift(4)]
    with pytest.raises(HypothesisViolation, match="not an honest representation") as exc_info:
        quasirep_from_json(obj)
    assert exc_info.value.exit_code == 2
    assert exc_info.value.measured == pytest.approx(math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj["images"].reverse(),
        lambda obj: obj["images"].pop(),
        lambda obj: obj.update(flavor="unitary"),
        lambda obj: obj.update(default_to_identity=True),
        lambda obj: obj.update(word_table={"a": obj["images"][0]}),
    ],
    ids=["swapped-images", "missing-image", "unitary-flavor", "default-to-identity", "word-table"],
)
def test_json_compression_fields_must_match_the_rebuilt_compression(edit, rng):
    obj = compression_json(rng)
    edit(obj)
    with pytest.raises(ParseError, match="differ from the compression"):
        quasirep_from_json(obj)

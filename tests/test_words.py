"""Word calculus: reduction, exponent sums, commutator rewriting, evaluation."""

import itertools
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obstructkit.errors import (
    InvalidSize,
    NotInCommutatorSubgroup,
    NotInvertible,
    NotUnitary,
    ParseError,
)
from obstructkit.matcore import as_matrix, op_norm
from obstructkit.seeding import derive_rng, haar_unitary
from obstructkit.words import (
    CANONICAL_MEMO_SIZE,
    IDENTITY_WORD,
    GroupWord,
    Presentation,
    adjoints,
    baumslag_solitar_presentation,
    canonical_form,
    commutator_decompose,
    exponent_sums,
    fold_word,
    free_abelian_presentation,
    free_presentation,
    generator,
    inverses,
    is_free_abelian,
    presentation_from_json,
    presentation_to_json,
    reduce,
    surface_presentation,
    word_from_text,
    word_to_text,
)

A, B = generator(0), generator(1)


def commutator_word(a, b):
    return a * b * a.inverse() * b.inverse()


letters_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=30
).map(tuple)


def random_zero_sum_word(gen, max_len=40, n_gens=4):
    """Arbitrary element of [F, F]: random letters plus per-generator balancing."""
    length = int(gen.integers(0, max_len - n_gens * (max_len // (2 * n_gens))))
    letters = [
        (int(gen.integers(0, n_gens)), int(gen.choice((1, -1))))
        for _ in range(length)
    ]
    sums = [0] * n_gens
    for g, e in letters:
        sums[g] += e
    for g, s in enumerate(sums):
        letters.extend([(g, -1 if s > 0 else 1)] * abs(s))
    w = GroupWord(tuple(letters))
    assert not any(exponent_sums(w, n_gens))
    return w


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_cancels_inverse_pair():
    assert reduce(A * A.inverse()) == IDENTITY_WORD
    assert (A * A.inverse()).is_identity()


def test_reduce_inner_cancellation():
    w = A * B * B.inverse() * A
    assert reduce(w) == A * A


def test_surface_relator_already_reduced():
    p = surface_presentation(2)
    rel = p.relators[0]
    assert reduce(rel) == rel
    assert len(rel) == 8


@given(letters_strategy)
def test_reduce_idempotent(letters):
    w = GroupWord(letters)
    assert reduce(reduce(w)) == reduce(w)


@given(letters_strategy)
def test_a_reduced_word_is_its_own_reduction(letters):
    r = reduce(GroupWord(letters))
    assert reduce(r) is r


@given(letters_strategy)
def test_reduce_has_no_adjacent_cancellation(letters):
    r = reduce(GroupWord(letters))
    for (g0, e0), (g1, e1) in zip(r.letters, r.letters[1:]):
        assert not (g0 == g1 and e0 == -e1)


@given(letters_strategy)
def test_word_times_inverse_reduces_to_identity(letters):
    w = GroupWord(letters)
    assert reduce(w * w.inverse()) == IDENTITY_WORD


# ---------------------------------------------------------------------------
# exponent sums
# ---------------------------------------------------------------------------


def test_exponent_sums_torus_relator():
    assert exponent_sums(commutator_word(A, B), 2) == (0, 0)


def test_exponent_sums_klein_relator():
    klein = A * B * A.inverse() * B
    assert exponent_sums(klein, 2) == (0, 2)


@pytest.mark.parametrize("n,m", [(2, 3), (1, 1), (3, -3), (-2, 5)])
def test_exponent_sums_bs_relator(n, m):
    p = baumslag_solitar_presentation(n, m)
    assert exponent_sums(p.relators[0], 2) == (0, n - m)


def test_exponent_sums_out_of_range_generator():
    with pytest.raises(ParseError):
        exponent_sums(GroupWord(((5, 1),)), 2)


# ---------------------------------------------------------------------------
# commutator decomposition
# ---------------------------------------------------------------------------


def test_decompose_single_commutator():
    dec = commutator_decompose(commutator_word(A, B))
    assert dec.pairs == ((A, B),)


def test_decompose_identity():
    dec = commutator_decompose(IDENTITY_WORD)
    assert dec.pairs == ()
    assert dec.witness_product == IDENTITY_WORD


def test_decompose_product_of_two_commutators():
    w = commutator_word(A, B) * commutator_word(A, B)
    dec = commutator_decompose(w)
    assert len(dec.pairs) == 2
    reassembled = IDENTITY_WORD
    for a, b in dec.pairs:
        reassembled = reassembled * commutator_word(a, b)
    assert reduce(reassembled) == reduce(w)


def test_decompose_rejects_nonzero_sums():
    with pytest.raises(NotInCommutatorSubgroup):
        commutator_decompose(A * B)


def test_decompose_round_trip_bulk():
    gen = derive_rng(99, 40)
    for _ in range(1000):
        w = random_zero_sum_word(gen)
        dec = commutator_decompose(w)
        reassembled = IDENTITY_WORD
        for a, b in dec.pairs:
            reassembled = reassembled * commutator_word(a, b)
        assert reduce(reassembled) == reduce(w)
        assert dec.witness_product == reduce(reassembled)


# ---------------------------------------------------------------------------
# fold_word over adjoint and inverse tables
# ---------------------------------------------------------------------------


def fold_adjoint(w, images):
    """``w`` on unitaries: inverse letters read the :func:`adjoints` table."""
    mats = [as_matrix(m) for m in images]
    return fold_word(w, mats, adjoints(mats, "image of generator"))


def fold_inverse(w, images):
    """``w`` on invertible matrices: inverse letters read :func:`inverses`."""
    mats = [as_matrix(m) for m in images]
    return fold_word(w, mats, inverses(mats))


def test_fold_word_identity_word(rng):
    u = haar_unitary(3, rng)
    assert np.allclose(fold_adjoint(IDENTITY_WORD, [u]), np.eye(3))


def test_fold_word_commuting_unitaries(rng):
    q = haar_unitary(4, rng)
    d1 = q @ np.diag(np.exp(2j * np.pi * rng.uniform(size=4))) @ q.conj().T
    d2 = q @ np.diag(np.exp(2j * np.pi * rng.uniform(size=4))) @ q.conj().T
    out = fold_adjoint(commutator_word(A, B), [d1, d2])
    assert op_norm(out - np.eye(4)) <= 1e-12


def test_fold_word_clock_shift_relation():
    n = 5
    omega = np.exp(2j * np.pi / n)
    u = np.diag(omega ** np.arange(n))
    v = np.zeros((n, n), dtype=complex)
    for j in range(n):
        v[(j + 1) % n, j] = 1.0
    out = fold_adjoint(commutator_word(A, B), [u, v])
    assert op_norm(out - omega * np.eye(n)) <= 1e-12


def test_fold_word_respects_concatenation(rng):
    u, v = haar_unitary(3, rng), haar_unitary(3, rng)
    w1 = A * B.inverse() * A
    w2 = B * A.inverse()
    # appending one letter reuses the identical left fold: bitwise equal
    lhs_single = fold_adjoint(w1 * B, [u, v])
    rhs_single = fold_adjoint(w1, [u, v]) @ v
    assert np.array_equal(lhs_single, rhs_single)
    # longer tails regroup the fold; only float associativity error remains
    lhs = fold_adjoint(w1 * w2, [u, v])
    rhs = fold_adjoint(w1, [u, v]) @ fold_adjoint(w2, [u, v])
    assert op_norm(lhs - rhs) <= 1e-14


def test_fold_word_det_multiplicativity(rng):
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    for _ in range(25):
        length = int(rng.integers(0, 12))
        letters = tuple(
            (int(rng.integers(0, 2)), int(rng.choice((1, -1)))) for _ in range(length)
        )
        w = GroupWord(letters)
        sums = exponent_sums(w, 2)
        expected = np.linalg.det(u) ** sums[0] * np.linalg.det(v) ** sums[1]
        got = np.linalg.det(fold_adjoint(w, [u, v]))
        assert abs(got - expected) <= 1e-10 * 4


def test_fold_word_commutator_word_has_unit_det(rng):
    u, v = haar_unitary(5, rng), haar_unitary(5, rng)
    w = commutator_word(A, B)
    det = np.linalg.det(fold_adjoint(w, [u, v]))
    assert abs(det - 1.0) <= 1e-10 * 5


def test_adjoints_require_unitary():
    with pytest.raises(NotUnitary):
        fold_adjoint(A.inverse(), [np.diag([0.5, 0.5])])


def test_adjoints_gate_runs_without_inverse_letters():
    # the gate checks every image before the fold, so a positive word on a
    # non-unitary image is refused too, naming the image
    with pytest.raises(NotUnitary, match="image of generator 0 is not unitary"):
        fold_adjoint(A, [np.diag([0.5, 0.5])])


def test_fold_word_over_true_inverses():
    m = np.diag([2.0, 4.0])
    out = fold_inverse(A.inverse(), [m])
    assert np.allclose(out, np.diag([0.5, 0.25]))
    with pytest.raises(NotInvertible, match="image of generator 1 is singular"):
        fold_inverse(A * B.inverse(), [m, np.zeros((2, 2))])
    # a singular image is fine while no inverse letter needs it
    assert np.allclose(fold_inverse(B, [m, np.zeros((2, 2))]), 0.0)


# ---------------------------------------------------------------------------
# presentations, canonical forms, text formats
# ---------------------------------------------------------------------------


def test_free_abelian_presentation_shape():
    p = free_abelian_presentation(3)
    assert p.num_generators == 3
    assert len(p.relators) == 3  # one commutator per generator pair


def test_surface_presentations():
    orient = surface_presentation(2)
    assert orient.num_generators == 4
    klein_like = surface_presentation(2, orientable=False)
    assert klein_like.num_generators == 2
    assert exponent_sums(klein_like.relators[0], 2) == (2, 2)
    with pytest.raises(InvalidSize):
        surface_presentation(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: surface_presentation(10**20),
        lambda: surface_presentation(10**20, orientable=False),
        lambda: free_abelian_presentation(3000),
        lambda: free_abelian_presentation(10**20),
    ],
    ids=["surface-huge-genus", "non-orientable-huge-genus", "abelian-rank-3000",
         "abelian-huge-rank"],
)
def test_presentations_refuse_the_generator_count_before_any_word(build):
    # the relators of these would take minutes or overflow itertools; the
    # 26-letter alphabet refuses them first
    with pytest.raises(InvalidSize, match="at most 26"):
        build()


def test_bs_presentation_rejects_zero():
    with pytest.raises(InvalidSize):
        baumslag_solitar_presentation(0, 3)


def test_is_free_abelian_recognition():
    assert is_free_abelian(free_abelian_presentation(2))
    assert is_free_abelian(free_abelian_presentation(4))
    # genus-1 orientable surface group is Z^2
    assert is_free_abelian(surface_presentation(1))
    assert not is_free_abelian(surface_presentation(2))
    assert not is_free_abelian(baumslag_solitar_presentation(2, 3))
    assert not is_free_abelian(free_presentation(2))


def reference_commutator_pair(w):
    """The rotation-and-inverse search the one-pattern test replaced: the
    generator pair when the reduced word w is a commutator of two generators."""
    if len(w.letters) != 4:
        return None
    for cand in (w, w.inverse()):
        for shift in range(4):
            rot = cand.letters[shift:] + cand.letters[:shift]
            (g0, e0), (g1, e1), (g2, e2), (g3, e3) = rot
            if (
                g0 == g2 and g1 == g3 and g0 != g1
                and e0 == 1 and e1 == 1 and e2 == -1 and e3 == -1
            ):
                return frozenset((g0, g1))
    return None


def test_commutator_pattern_agrees_with_the_rotation_search():
    """Every word of up to 6 letters over 3 generators, beside the commutators
    of two generator pairs: Z^3 exactly when the search finds the third pair."""
    z3 = free_abelian_presentation(3)
    pairs = {frozenset(g for g, _ in r.letters): r for r in z3.relators}
    letters = [(g, e) for g in range(3) for e in (1, -1)]
    agreed = 0
    for length in range(7):
        for spelled in itertools.product(letters, repeat=length):
            w = GroupWord(spelled)
            found = reference_commutator_pair(reduce(w))
            for pair in pairs:
                others = tuple(r for q, r in pairs.items() if q != pair)
                p = Presentation(3, z3.generator_names, (w, *others))
                assert is_free_abelian(p) == (found == pair), (spelled, pair)
            agreed += 1
    assert agreed == 55987


@pytest.mark.parametrize(
    "relator, z2",
    [("abAB", True), ("bABa", True), ("ABab", True), ("BabA", True),
     ("baBA", True), ("aBAb", True), ("BAba", True), ("AbaB", True),
     ("abAb", False), ("abBA", False), ("aabb", False), ("abABab", False)],
)
def test_rotated_or_inverted_commutator_presents_z2(relator, z2):
    p = presentation_from_json({"generators": ["a", "b"], "relators": [relator]})
    assert is_free_abelian(p) is z2
    ab, ba = (canonical_form(word_from_text(t, p), p) for t in ("ab", "ba"))
    assert (ab == ba) is z2


def test_canonical_form_sorts_abelian_words():
    p = free_abelian_presentation(2)
    w1 = B * A * B * A.inverse()
    w2 = B * B
    assert canonical_form(w1, p) == canonical_form(w2, p)
    assert canonical_form(w1, p) == GroupWord(((1, 1), (1, 1)))


def test_canonical_form_nonabelian_is_reduction():
    p = free_presentation(2)
    w = A * B * B.inverse()
    assert canonical_form(w, p) == A


def test_word_text_round_trip():
    p = free_presentation(2)
    w = word_from_text("abAB", p)
    assert w == commutator_word(A, B)
    assert word_to_text(w, p) == "abAB"
    with pytest.raises(ParseError):
        word_from_text("xyz", p)
    with pytest.raises(ParseError, match="generator 2 outside the presentation"):
        word_to_text(generator(2), p)


def test_presentation_json_round_trip():
    p = surface_presentation(2)
    obj = presentation_to_json(p)
    assert obj["generators"] == ["a", "b", "c", "d"]
    assert obj["relators"] == ["abABcdCD"]
    back = presentation_from_json(json.loads(json.dumps(obj)))
    assert back == p


@pytest.mark.parametrize(
    "obj",
    [
        {"generators": "ab", "relators": []},  # used to read as ["a", "b"]
        {"generators": ["a", 1]},
        {"generators": ["a", "b"], "relators": "abAB"},
        {"generators": ["a", "b"], "relators": [["a"]]},
    ],
)
def test_presentation_json_refuses_what_it_would_coerce(obj):
    with pytest.raises(ParseError):
        presentation_from_json(obj)


def test_presentation_validation():
    with pytest.raises(ParseError):
        Presentation(2, ("a", "a"))
    with pytest.raises(ParseError, match="one name per generator required"):
        Presentation(2, ("a",))
    with pytest.raises(ParseError):
        Presentation(1, ("A",))
    with pytest.raises(InvalidSize):
        Presentation(0, ())
    with pytest.raises(ParseError):
        Presentation(1, ("a",), (GroupWord(((3, 1),)),))


def test_group_word_validation():
    with pytest.raises(ParseError):
        GroupWord(((0, 2),))
    with pytest.raises(ParseError):
        GroupWord(((-1, 1),))


@pytest.mark.parametrize(
    "letters",
    [(1, 2), ((1,),), ((0, 1, 1),), "ab", ((0.0, 1),), 5, ((0, 1.0),), ((True, 1),)],
    ids=["flat-pair", "one-tuple", "triple", "text", "float-generator", "integer",
         "float-exponent", "bool-generator"],
)
def test_group_word_refuses_what_is_not_a_tuple_of_letter_pairs(letters):
    # these used to escape as a raw TypeError or ValueError, or build a word
    with pytest.raises(ParseError):
        GroupWord(letters)


@pytest.mark.parametrize(
    "p",
    [free_abelian_presentation(2), surface_presentation(2), free_presentation(2),
     baumslag_solitar_presentation(2, 3)],
    ids=["abelian", "surface", "free", "baumslag-solitar"],
)
def test_canonical_form_refuses_a_generator_outside_the_presentation(p):
    with pytest.raises(ParseError, match=r"^word uses generator 9 but only \d+ are declared$"):
        canonical_form(GroupWord(((0, 1), (9, 1))), p)


def _words_up_to(n_generators, length):
    letters = [(g, e) for g in range(n_generators) for e in (1, -1)]
    for k in range(length + 1):
        yield from (GroupWord(w) for w in itertools.product(letters, repeat=k))


@pytest.mark.parametrize("p", [free_abelian_presentation(2), surface_presentation(2)],
                         ids=["abelian", "surface"])
def test_a_warm_memo_refuses_what_a_cold_one_refuses(p):
    bad = ((0, 1), (9, 1))
    with pytest.raises(ParseError) as cold:
        canonical_form(GroupWord(bad), p)
    for w in _words_up_to(2, 3):
        canonical_form(w, p)
    assert p._forms
    for word in (GroupWord(bad), bad):
        with pytest.raises(ParseError) as warm:
            canonical_form(word, p)
        assert str(warm.value) == str(cold.value)
    assert bad not in p._forms


def test_a_memo_hit_builds_no_word(monkeypatch):
    p = free_abelian_presentation(3)
    word = word_from_text("cabA", p)
    form = canonical_form(word, p)
    built = []
    init = GroupWord.__post_init__
    monkeypatch.setattr(GroupWord, "__post_init__", lambda self: built.append(self) or init(self))
    assert canonical_form(word.letters, p) is form
    assert canonical_form(form.letters, p) is form
    assert built == []


def test_the_memo_never_passes_its_cap():
    p = free_presentation(3)
    for i, w in enumerate(_words_up_to(3, 5)):
        canonical_form(w, p)
        assert len(p._forms) <= CANONICAL_MEMO_SIZE
    assert i + 1 > 2 * CANONICAL_MEMO_SIZE


def test_threads_sharing_a_presentation_keep_its_memo_under_the_cap():
    p = free_presentation(3)
    words = list(_words_up_to(3, 5))
    expected = [reduce(w) for w in words]
    sizes, results, interval = [], {}, sys.getswitchinterval()

    def work(k):
        got = []
        for w in words[k::2] + words[::-1]:
            got.append(canonical_form(w, p))
            sizes.append(len(p._forms))
        results[k] = got

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert max(sizes) <= CANONICAL_MEMO_SIZE
    for k, got in results.items():
        assert got == expected[k::2] + expected[::-1]


@pytest.mark.parametrize("make", [lambda: free_abelian_presentation(3),
                                  lambda: surface_presentation(2)], ids=["abelian", "surface"])
def test_an_equal_fresh_presentation_gives_equal_forms(make):
    warm = make()
    words = list(_words_up_to(3, 3))
    forms = [canonical_form(w, warm) for w in words]
    fresh = make()
    assert fresh == warm and hash(fresh) == hash(warm) and not fresh._forms
    assert [canonical_form(w, fresh) for w in words] == forms

"""Exact integer homology: SNF, mapping-torus H2, obstruction counts."""

import operator
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import obstructkit.homology as homology_module
from obstructkit.errors import (
    BoundViolation,
    InvalidFamily,
    InvalidMatrix,
    InvalidSize,
    NotAnAutomorphism,
    NumericalInconsistency,
)
from obstructkit.homology import (
    AbelianGroup,
    IntMatrix,
    _eliminate,
    _verify_snf,
    abelian_group_to_json,
    abelian_group_to_text,
    int_text,
    exact_determinant,
    free_by_cyclic_h2,
    int_matmul,
    int_matrix,
    int_matrix_to_json,
    mapping_torus_surface_h2,
    obstruction_count,
    smith_normal_form,
    symplectic_check,
)
from obstructkit.words import exponent_sums, surface_presentation

# Genus-2 mapping-torus fixture: a symplectic block matrix composed with an
# orientation-reversing swap of the two handle planes.
B_BLOCK = [[5, 3], [3, 2]]
A_SYMPL = int_matrix(
    [[5, 3, 0, 0], [3, 2, 0, 0], [0, 0, 5, 3], [0, 0, 3, 2]]
)
J_FORM = int_matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
R_SWAP = int_matrix([[0, 0, -1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 0]])
PHI_STAR = int_matmul(R_SWAP, A_SYMPL)

int_entries = st.integers(min_value=-30, max_value=30)


def int_identity(n):
    return int_matrix([[int(i == j) for j in range(n)] for i in range(n)])


def small_matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(int_entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


# ---------------------------------------------------------------------------
# IntMatrix plumbing
# ---------------------------------------------------------------------------


def test_int_matrix_validation():
    with pytest.raises(InvalidMatrix):
        int_matrix([])
    with pytest.raises(InvalidMatrix):
        int_matrix([[]])
    with pytest.raises(InvalidMatrix):
        int_matrix([[1, 2], [3]])
    with pytest.raises(InvalidMatrix):
        int_matrix([[1.5]])
    with pytest.raises(InvalidMatrix):
        int_matrix([[True]])
    with pytest.raises(InvalidMatrix):
        int_matrix(7)


def test_int_matrix_accepts_numpy_integers():
    a = int_matrix(np.array([[1, -2], [3, 4]], dtype=np.int64))
    assert a.entries == ((1, -2), (3, 4))
    assert isinstance(a.entries[0][0], int)
    with pytest.raises(InvalidMatrix):
        int_matrix(np.array([[1.0, 2.0]]))


def test_int_matrix_accepts_numpy_integer_scalars_in_lists():
    a = int_matrix([[np.int64(-7), 2], [np.uint8(200), np.int32(0)]])
    assert a.entries == ((-7, 2), (200, 0))
    assert all(type(x) is int for row in a.entries for x in row)


@pytest.mark.parametrize("entry", [True, np.bool_(True), 1.0, Fraction(1)])
def test_int_matrix_refuses_inexact_entries(entry):
    with pytest.raises(InvalidMatrix, match="exact ints"):
        int_matrix([[1, entry]])


@pytest.mark.parametrize("entry", [True, 1.0])
def test_int_matrix_constructor_still_refuses(entry):
    # products the library builds skip the entry check; IntMatrix itself
    # stays a gate for outside input
    with pytest.raises(InvalidMatrix, match="exact ints"):
        IntMatrix(((entry,),))


def test_smith_normal_form_checks_no_entry_twice(monkeypatch):
    a = int_matrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    checks = []
    original = IntMatrix.__post_init__
    monkeypatch.setattr(IntMatrix, "__post_init__", lambda m: checks.append(original(m)))
    u, d, v = smith_normal_form(a)
    assert checks == []
    assert int_matmul(int_matmul(u, a), v) == d
    assert d.diagonal() == (2, 6, 12)
    assert all(type(x) is int for m in (u, d, v) for row in m.entries for x in row)


def test_int_matrix_json_round_trip():
    payload = int_matrix_to_json(PHI_STAR)
    assert payload["rows"] == 4 and payload["cols"] == 4
    assert int_matrix(payload["entries"]).entries == PHI_STAR.entries


def test_int_ops_shape_gates():
    a = int_matrix([[1, 2]])
    with pytest.raises(InvalidSize):
        int_matmul(a, a)


# ---------------------------------------------------------------------------
# Exact determinant
# ---------------------------------------------------------------------------


def test_determinant_examples():
    assert exact_determinant(int_identity(5)) == 1
    assert exact_determinant(int_matrix(B_BLOCK)) == 1
    assert exact_determinant(int_matrix([[2, 4], [1, 2]])) == 0
    assert exact_determinant(int_matrix([[-7]])) == -7
    assert exact_determinant(int_matrix([[0, 1], [1, 0]])) == -1
    assert exact_determinant(int_matrix([[0, 2], [0, 3]])) == 0
    assert exact_determinant(int_matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    with pytest.raises(InvalidSize):
        exact_determinant(int_matrix([[1, 2]]))


@given(small_matrices())
def test_determinant_matches_sympy(rows):
    if len(rows) != len(rows[0]):
        return
    a = int_matrix(rows)
    assert exact_determinant(a) == int(sympy.Matrix(rows).det())


@given(small_matrices(max_dim=5))
def test_eliminate_rank_matches_sympy(rows):
    rank, det = _eliminate(int_matrix(rows).entries)
    assert rank == sympy.Matrix(rows).rank()
    if len(rows) != len(rows[0]):
        assert det == 0


def test_eliminate_refuses_an_inexact_division():
    # integer input always divides exactly; a fractional entry exposes the check
    with pytest.raises(NumericalInconsistency):
        _eliminate(((2, 1, 1), (1, 1, 0), (1, 0, Fraction(1, 3))))


def test_determinant_huge_entries_exact():
    big = 10**30
    a = int_matrix([[big, big - 1], [big + 1, big]])
    # ad - bc = big^2 - (big^2 - 1) = 1: catastrophic for floats, exact here
    assert exact_determinant(a) == 1


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def assert_snf_contract(a):
    u, d, v = smith_normal_form(a)
    assert int_matmul(int_matmul(u, a), v).entries == d.entries
    assert abs(exact_determinant(u)) == 1
    assert abs(exact_determinant(v)) == 1
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    # off-diagonal entries vanish
    for i, row in enumerate(d.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_snf_diag_two_three():
    # diag(4, 6) and diag(6, 4) need the chain fold; a zero pivot goes last
    for rows, diagonal in [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0], [0, 6]], (2, 12)),
        ([[6, 0], [0, 4]], (2, 12)),
        ([[0, 0], [0, 5]], (5, 0)),
    ]:
        assert assert_snf_contract(int_matrix(rows)) == diagonal, rows


def test_snf_zero_matrix():
    # a Smith form is its own normal form, reached with U = V = I
    for rows in [
        [[0, 0], [0, 0]],
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 0]],
        [[3, 0, 0]],
        [[3], [0], [0]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 0]],
    ]:
        a = int_matrix(rows)
        u, d, v = smith_normal_form(a)
        assert d.entries == a.entries, rows
        assert u.entries == int_identity(a.rows).entries, rows
        assert v.entries == int_identity(a.cols).entries, rows


def test_snf_fixture_kernel_trivial():
    one = int_identity(4).entries
    one_minus = [[a - b for a, b in zip(*rows)] for rows in zip(one, PHI_STAR.entries)]
    d = smith_normal_form(int_matrix(one_minus))[1].diagonal()
    assert all(x != 0 for x in d)


def test_snf_rectangular():
    d = assert_snf_contract(int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert d == (2, 2, 156)  # sympy-verified invariant factors


def assert_snf_matches_sympy(rows):
    diag = assert_snf_contract(int_matrix(rows))
    oracle = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    got = sorted(abs(x) for x in diag if x)
    want = sorted(
        abs(int(oracle[i, i])) for i in range(min(oracle.rows, oracle.cols)) if oracle[i, i]
    )
    assert got == want


@settings(max_examples=60)
@given(small_matrices())
def test_snf_matches_sympy_invariant_factors(rows):
    assert_snf_matches_sympy(rows)


@st.composite
def low_rank_matrices(draw):
    """L R with L r x k and R k x c, k from 0 to min(r, c), up to 7 x 9 and
    9 x 7; some columns of R are zeroed, so A has zero columns between the
    columns that carry pivots."""
    r = draw(st.integers(min_value=1, max_value=9))
    c = draw(st.integers(min_value=1, max_value=9 if r <= 7 else 7))
    k = draw(st.integers(min_value=0, max_value=min(r, c)))
    small = st.integers(min_value=-4, max_value=4)
    left = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=r, max_size=r))
    right = draw(st.lists(st.lists(small, min_size=c, max_size=c), min_size=k, max_size=k))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=c - 1), max_size=c // 2))
    return [
        [0 if j in zero_cols else sum(left[i][l] * right[l][j] for l in range(k)) for j in range(c)]
        for i in range(r)
    ]


@settings(max_examples=80)
@given(low_rank_matrices())
def test_snf_rank_deficient_matches_sympy(rows):
    assert_snf_matches_sympy(rows)


def elementary_product(n, steps, rng):
    """Product of ``steps`` elementary row additions, multipliers +-1 or +-2."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def scrambled_diagonal(n, steps, tail, seed=None):
    """A = P diag(1, ..., 1, tail) Q with random unimodular P, Q drawn from
    ``random.Random(seed)`` (default: n); returns (A, the diagonal)."""
    rng = random.Random(n if seed is None else seed)
    diagonal = [1] * (n - len(tail)) + list(tail)
    p = elementary_product(n, steps, rng)
    q = elementary_product(n, steps, rng)
    scaled = int_matrix([[x * d for x, d in zip(row, diagonal)] for row in p])
    return int_matmul(scaled, int_matrix(q)), diagonal


@pytest.mark.parametrize(
    "n, steps, tail",
    [(40, 160, ()), (30, 120, (2, 10, 20, 2400))],
    ids=["unimodular-40", "chain-30"],
)
def test_snf_transforms_stay_small(n, steps, tail):
    # Column operations on the unreduced matrix grow these transforms to
    # 164-852 bits.
    a, diagonal = scrambled_diagonal(n, steps, tail)
    assert list(assert_snf_contract(a)) == diagonal
    u, _, v = smith_normal_form(a)
    for transform in (u, v):
        assert max(abs(x).bit_length() for row in transform.entries for x in row) <= 64


@pytest.mark.parametrize(
    "a, u, v, d",
    [
        ([[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 1]], [[1, 0], [0, 2]]),
        ([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 2]]),
        ([[1, 0], [0, 0]], [[1, 0], [0, 2]], [[1, 0], [0, 1]], [[1, 0], [0, 0]]),
    ],
    ids=["u-side-full-rank", "v-side-full-rank", "determinant-fallback"],
)
def test_verify_snf_refuses_a_non_unimodular_transform(a, u, v, d):
    # U A V = D holds, D is a Smith form, and det = 2 on one side: full rank
    # reads the inverse (A V) D^-1 or D^-1 (U A), which has a half entry;
    # short rank takes the determinant
    with pytest.raises(NumericalInconsistency, match="not unimodular"):
        _verify_snf(*map(int_matrix, (a, u, d, v)))


@pytest.mark.parametrize(
    "a, d, text",
    [
        ([[1, 0], [0, 1]], [[1, 0], [0, 2]], "factorization failed to verify"),
        ([[1, 1], [0, 1]], [[1, 1], [0, 1]], "normal form is not diagonal"),
        ([[0, 0], [0, 1]], [[0, 0], [0, 1]], "zero diagonal entry precedes a nonzero one"),
        ([[2, 0], [0, 3]], [[2, 0], [0, 3]], "diagonal divisibility chain broken"),
    ],
    ids=["d-is-not-uav", "off-diagonal", "zero-first", "2-does-not-divide-3"],
)
def test_verify_snf_refuses_a_false_normal_form(a, d, text):
    # U = V = I, so U A V = A: the first D differs from it, the others are A
    # itself and fail one Smith-form rule each
    eye = int_matrix([[1, 0], [0, 1]])
    with pytest.raises(NumericalInconsistency, match=text):
        _verify_snf(int_matrix(a), eye, int_matrix(d), eye)


def test_verify_snf_refuses_a_negative_diagonal_entry():
    # U A V = D holds and U is unimodular, so only the sign rule of a Smith
    # form catches the -1 a Hermite step that skips its sign fix leaves
    eye = int_matrix([[1, 0], [0, 1]])
    flip = int_matrix([[1, 0], [0, -1]])
    with pytest.raises(NumericalInconsistency, match="negative diagonal entry"):
        _verify_snf(eye, flip, flip, eye)


@pytest.mark.parametrize(
    "a, determinants",
    [
        (scrambled_diagonal(40, 160, ())[0], 0),
        (int_matrix([[1, 2], [3, 4], [5, 6]]), 1),
        (int_matrix([[2, 4, 6], [4, 8, 12]]), 2),
    ],
    ids=["unimodular-40", "short-row-rank", "short-both-ranks"],
)
def test_snf_takes_a_determinant_only_on_a_side_of_short_rank(monkeypatch, a, determinants):
    calls = []

    def spy(m):
        calls.append(m)
        return exact_determinant(m)

    monkeypatch.setattr(homology_module, "exact_determinant", spy)
    smith_normal_form(a)
    assert len(calls) == determinants


def test_snf_huge_entries():
    a = int_matrix([[10**20, 1], [1, 10**20]])
    d = assert_snf_contract(a)
    assert d == (1, 10**40 - 1)


# The Hermite routine and the product as they were before the cached row
# minima, the single-pass Euclid rounds and the sparse columns.  The faster
# code must choose every pivot, row and column as these do, so U, D and V
# must agree entry for entry.


def _reference_int_matmul(a, b):
    bt = list(zip(*b.entries))
    return IntMatrix(tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a.entries))


def _reference_hermite(m, width, partner):
    rows = len(m)
    for t in range(min(rows, width)):
        best, pos = 0, None
        for i in range(t, rows):
            val = min(map(abs, filter(None, m[i][t:width])), default=0)
            if val and (not best or val < best):
                best, pos = val, i
        if pos is None:
            return t
        m[t], m[pos] = m[pos], m[t]
        j = next(j for j in range(t, width) if abs(m[t][j]) == best)
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
            partner[t], partner[j] = partner[j], partner[t]
        while True:
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
            top = m[t][t:]
            pivot = top[0]
            for i in range(t + 1, rows):
                row = m[i]
                k = (2 * row[t] + pivot) // (2 * pivot)
                if k:
                    row[t:] = [x - k * y for x, y in zip(row[t:], top)]
            leftover = [i for i in range(t + 1, rows) if m[i][t]]
            if not leftover:
                break
            low = min(leftover, key=lambda i: abs(m[i][t]))
            m[t], m[low] = m[low], m[t]
        for i in range(t):
            row = m[i]
            k = row[t] // pivot
            if k:
                row[t:] = [x - k * y for x, y in zip(row[t:], top)]
    return min(rows, width)


def assert_snf_matches_reference(a):
    got = smith_normal_form(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology_module, "_hermite", _reference_hermite)
        mp.setattr(homology_module, "int_matmul", _reference_int_matmul)
        want = smith_normal_form(a)
    for g, w in zip(got, want):
        assert g.entries == w.entries


@st.composite
def oracle_matrices(draw):
    """1-12 x 1-12, rank 0 to full, entries up to about 2**72, with some rows
    and columns zeroed."""
    r = draw(st.integers(min_value=1, max_value=12))
    c = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=0, max_value=min(r, c)))
    entry = st.one_of(st.integers(min_value=-3, max_value=3),
                      st.integers(min_value=-(2**70), max_value=2**70))
    left = draw(st.lists(st.lists(st.integers(min_value=-2, max_value=2), min_size=k, max_size=k),
                         min_size=r, max_size=r))
    right = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    rows = [[sum(x * y for x, y in zip(lrow, col)) for col in zip(*right)] if k else [0] * c
            for lrow in left]
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=r - 1), max_size=r))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=c - 1), max_size=c))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


@settings(max_examples=150)
@given(oracle_matrices())
def test_snf_transforms_match_the_reference_bit_for_bit(rows):
    assert_snf_matches_reference(int_matrix(rows))


@pytest.mark.parametrize(
    "n, steps, tail",
    [(20, 120, ()), (40, 160, ()), (30, 120, (2, 6, 30, 2100)), (30, 120, (3, 15, 45, 1260))],
    ids=["unimodular-20", "unimodular-40", "chain-30-a", "chain-30-b"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_snf_transforms_match_the_reference_on_workload_inputs(n, steps, tail, seed):
    assert_snf_matches_reference(scrambled_diagonal(n, steps, tail, seed)[0])


@st.composite
def sparse_column_products(draw):
    """(A, B) where each column of B is zero, a lone +-1, at most a quarter
    nonzero, or dense."""
    r = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=12))
    c = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.integers(min_value=-5, max_value=5),
                      st.integers(min_value=-(2**70), max_value=2**70))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    cols = []
    for _ in range(c):
        kind = draw(st.sampled_from(["zero", "lone", "sparse", "dense"]))
        col = [0] * k
        if kind == "lone":
            col[draw(st.integers(min_value=0, max_value=k - 1))] = draw(st.sampled_from([1, -1]))
        elif kind == "sparse":
            for p in draw(st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k // 4)):
                col[p] = draw(entry)
        elif kind == "dense":
            col = draw(st.lists(entry, min_size=k, max_size=k))
        cols.append(col)
    return a, [list(row) for row in zip(*cols)]


@settings(max_examples=200)
@given(sparse_column_products())
def test_int_matmul_is_the_triple_sum(ab):
    a, b = ab
    want = tuple(
        tuple(sum(a[i][p] * b[p][j] for p in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )
    assert int_matmul(int_matrix(a), int_matrix(b)).entries == want


# ---------------------------------------------------------------------------
# Homology of the two group families
# ---------------------------------------------------------------------------


def test_free_by_cyclic_examples():
    assert free_by_cyclic_h2(int_matrix([[1]])) == AbelianGroup(free_rank=1)
    assert free_by_cyclic_h2(int_matrix([[-1]])) == AbelianGroup(free_rank=0)
    # companion matrix of x^2 - 3x + 1: no eigenvalue 1, checked against the
    # characteristic polynomial evaluated at 1
    companion = int_matrix([[0, -1], [1, 3]])
    assert free_by_cyclic_h2(companion).free_rank == 0
    poly = sympy.Matrix([[0, -1], [1, 3]]).charpoly()
    assert poly.eval(1) != 0


def test_free_by_cyclic_rank_is_kernel_dimension():
    # shear: eigenvalue 1 with algebraic multiplicity 2 but a 1-dim kernel
    # of I - phi; the homology exact sequence sees the kernel
    shear = int_matrix([[1, 1], [0, 1]])
    assert free_by_cyclic_h2(shear).free_rank == 1
    assert free_by_cyclic_h2(int_identity(3)).free_rank == 3


@st.composite
def unimodular_matrices(draw, sizes=st.integers(min_value=1, max_value=6)):
    """A product of elementary row operations on the identity, sometimes
    block-summed with an identity block so that the eigenvalue 1 has
    geometric multiplicity above 1."""
    n = draw(sizes)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        if kind == "add" and i != j:
            k = draw(st.integers(min_value=-3, max_value=3))
            m[j] = [y + k * x for x, y in zip(m[i], m[j])]
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    extra = draw(st.sampled_from((0, 0, 1, 2)))
    if extra:
        m = [row + [0] * extra for row in m] + [
            [0] * n + [int(i == j) for j in range(extra)] for i in range(extra)
        ]
    return m


def rational_corank_of_one_minus(rows):
    n = len(rows)
    return n - (sympy.eye(n) - sympy.Matrix(rows)).rank()


@settings(max_examples=80)
@given(unimodular_matrices())
def test_free_by_cyclic_rank_matches_sympy(rows):
    assert free_by_cyclic_h2(int_matrix(rows)).free_rank == rational_corank_of_one_minus(rows)


@settings(max_examples=60)
@given(unimodular_matrices(st.sampled_from((2, 4, 6))).filter(lambda m: len(m) % 2 == 0))
def test_mapping_torus_rank_matches_sympy(rows):
    corank = rational_corank_of_one_minus(rows)
    m = int_matrix(rows)
    assert mapping_torus_surface_h2(1, m) == AbelianGroup(free_rank=corank + 1)
    assert mapping_torus_surface_h2(-1, m) == AbelianGroup(free_rank=corank, torsion=(2,))


def test_free_by_cyclic_gates():
    with pytest.raises(NotAnAutomorphism):
        free_by_cyclic_h2(int_matrix([[2, 0], [0, 1]]))
    with pytest.raises(InvalidSize):
        free_by_cyclic_h2(int_matrix([[1, 0]]))


def test_mapping_torus_fixture_z2():
    got = mapping_torus_surface_h2(-1, PHI_STAR)
    assert got == AbelianGroup(free_rank=0, torsion=(2,))
    assert abelian_group_to_text(got) == "Z/2"


def test_mapping_torus_trivial_class():
    # identity gluing: product of the surface with a circle
    got = mapping_torus_surface_h2(1, int_identity(4))
    assert got == AbelianGroup(free_rank=5)
    # genus 1 cross-check: the 3-torus has second homology of rank 3
    assert mapping_torus_surface_h2(1, int_identity(2)) == AbelianGroup(free_rank=3)


def test_mapping_torus_reversing_with_fixed_vector():
    got = mapping_torus_surface_h2(-1, int_matrix([[1, 0], [0, -1]]))
    assert got == AbelianGroup(free_rank=1, torsion=(2,))


def test_mapping_torus_gates():
    with pytest.raises(BoundViolation):
        mapping_torus_surface_h2(0, int_identity(2))
    with pytest.raises(InvalidSize):
        mapping_torus_surface_h2(1, int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotAnAutomorphism):
        mapping_torus_surface_h2(1, int_matrix([[2, 0], [0, 1]]))


def test_symplectic_check():
    assert symplectic_check(int_identity(4), J_FORM)
    assert symplectic_check(A_SYMPL, J_FORM)
    assert not symplectic_check(
        int_matrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), J_FORM
    )
    with pytest.raises(InvalidSize):
        symplectic_check(int_identity(2), J_FORM)


# ---------------------------------------------------------------------------
# Obstruction counts
# ---------------------------------------------------------------------------


def test_obstruction_count_table():
    assert obstruction_count("surface", genus=2, orientable=True) == 1
    assert obstruction_count("surface", genus=7, orientable=True) == 1
    assert obstruction_count("surface", genus=3, orientable=False) == 0
    assert obstruction_count("fbc", phi_star=int_matrix([[1]])) == 1
    assert obstruction_count("fbc", phi_star=int_matrix([[-1]])) == 0
    assert obstruction_count("bs", n=3, m=3) == 1
    assert obstruction_count("bs", n=3, m=-3) == 0
    assert obstruction_count("bs", n=2, m=3) == 0


def test_obstruction_count_matches_relator_exponent_sums():
    # the count for surfaces equals the number of relators all of whose
    # generator exponent sums vanish
    for genus in (1, 2, 4):
        for orientable in (True, False):
            pres = surface_presentation(genus if orientable else genus + 1, orientable)
            vanishing = sum(
                1
                for rel in pres.relators
                if all(s == 0 for s in exponent_sums(rel, pres.num_generators))
            )
            assert obstruction_count(
                "surface", genus=genus, orientable=orientable
            ) == vanishing


def test_obstruction_count_gates():
    with pytest.raises(InvalidFamily):
        obstruction_count("fbc")
    with pytest.raises(InvalidFamily) as exc_info:
        obstruction_count("fbc", phi_star=int_matrix([[3]]))
    assert isinstance(exc_info.value.__cause__, NotAnAutomorphism)
    with pytest.raises(InvalidFamily):
        obstruction_count("surface", genus=0, orientable=True)
    with pytest.raises(InvalidFamily):
        obstruction_count("surface", genus=2)
    with pytest.raises(InvalidFamily):
        obstruction_count("bs", n=0, m=3)
    with pytest.raises(InvalidFamily):
        obstruction_count("bs", n=2)
    with pytest.raises(InvalidFamily):
        obstruction_count("dihedral")


# ---------------------------------------------------------------------------
# AbelianGroup formatting and validation
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(st.integers(min_value=-(10**4299), max_value=10**4299))
def test_int_text_matches_str_under_the_cap(n):
    assert int_text(n) == str(n)


@pytest.mark.parametrize("digits", [1000, 1001, 2000, 4299])
def test_int_text_at_powers_of_ten(digits):
    # zero runs straddle the split points and must survive the padding
    for n in (10**digits - 1, 10**digits, 10**digits + 1, -(10**digits)):
        assert int_text(n) == str(n)


def test_int_text_past_the_cap():
    assert int_text(10**5000 + 7) == "1" + "0" * 4999 + "7"
    assert int_text(-(10**9000)) == "-1" + "0" * 9000


def test_abelian_group_text():
    assert abelian_group_to_text(AbelianGroup(0)) == "0"
    assert abelian_group_to_text(AbelianGroup(1)) == "Z"
    assert abelian_group_to_text(AbelianGroup(3)) == "Z^3"
    assert abelian_group_to_text(AbelianGroup(0, (2,))) == "Z/2"
    assert abelian_group_to_text(AbelianGroup(2, (2, 6))) == "Z^2 ⊕ Z/2 ⊕ Z/6"
    # past the interpreter's 4300-digit cap on int-to-text conversion
    assert abelian_group_to_text(AbelianGroup(0, (10**5000,))) == "Z/1" + "0" * 5000


def test_abelian_group_json():
    assert abelian_group_to_json(AbelianGroup(1, (4,))) == {
        "free_rank": 1,
        "torsion": [4],
        "text": "Z ⊕ Z/4",
    }


def test_abelian_group_validation():
    with pytest.raises(BoundViolation):
        AbelianGroup(-1)
    with pytest.raises(BoundViolation):
        AbelianGroup(0, (1,))
    with pytest.raises(BoundViolation):
        AbelianGroup(0, (2, 3))  # 3 is not a multiple of 2
    AbelianGroup(0, (2, 4, 12))  # valid chain

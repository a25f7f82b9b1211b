"""Exact integer homology computations behind the winding obstruction counts.

Everything here runs over Python's arbitrary-precision integers, so the
exact-arithmetic mandate is discharged structurally: no intermediate value
can overflow or wrap.  The pieces:

* one fraction-free (Bareiss) row-echelon elimination, every division
  checked exact, giving determinants and the ranks behind the H2 free ranks;
* Smith normal form with tracked unimodular row/column transforms, self-
  verified by exact products: at full row rank U (A V) = D makes
  (A V) D^-1 the inverse of U, so U is unimodular exactly when that is
  integral (det U det U^-1 = 1), and V likewise from D^-1 (U A); only a
  side of short rank takes a determinant.  The certificate does one dense
  product, U A; the products with V read each column of V through its
  nonzeros, and V is 2-11 % nonzero on 20- to 40-wide inputs.  It serves
  ``smith_normal_form``
  and ``homology snf``, where the transforms and torsion are part of the
  answer.  One Hermite routine, run on the rows and then on the columns in
  turn until the matrix is diagonal, does all the elimination; reducing
  above every pivot keeps the transforms near the input's size: under 50
  bits from 15- to 24-bit inputs up to 40 wide, where column operations on
  the unreduced matrix reached 1500;
* second homology of free-by-cyclic groups (rank = multiplicity of the
  eigenvalue one of the inducing automorphism's abelianization);
* second homology of surface mapping tori from the orientation sign and the
  induced map on first homology;
* symplectic congruence checks and the obstruction-count table for the
  supported group families.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    BoundViolation,
    InvalidFamily,
    InvalidMatrix,
    InvalidSize,
    NotAnAutomorphism,
    NumericalInconsistency,
)


_STR_SAFE_DIGITS = 1000


def int_text(n: int) -> str:
    """Decimal text of an int of any length.

    ``str`` refuses ints beyond 4300 digits (Python 3.11+) so that parsing
    untrusted text stays cheap, and exact results outgrow that cap
    legitimately.  This splits at a power of ten near the square root until
    the pieces are short enough for ``str``, and leaves the interpreter-wide
    cap alone.
    """
    if n < 0:
        return "-" + int_text(-n)
    if n < 10 ** _STR_SAFE_DIGITS:
        return str(n)
    # 10**half <= 2**((bit_length - 1) / 2) <= sqrt(n), so the high part is
    # nonzero and its text carries no leading zeros
    half = (n.bit_length() - 1) * 30102 // 200000
    high, low = divmod(n, 10 ** half)
    return int_text(high) + int_text(low).zfill(half)


# ---------------------------------------------------------------------------
# Exact integer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular matrix of exact integers."""

    entries: tuple

    def __post_init__(self):
        if not isinstance(self.entries, tuple) or not self.entries:
            raise InvalidMatrix("integer matrix needs at least one row")
        for row in self.entries:
            if not isinstance(row, tuple) or not row:
                raise InvalidMatrix("integer matrix rows must be nonempty tuples")
            if len(row) != len(self.entries[0]):
                raise InvalidMatrix("integer matrix rows must share one length")
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise InvalidMatrix(
                        f"integer matrix entries must be exact ints; got {x!r}"
                    )

    @classmethod
    def _trusted(cls, entries) -> IntMatrix:
        """The matrix of ``entries``, a nonempty rectangular tuple of tuples
        of ints that the library built from validated ones, without the
        entry-by-entry check: outside input goes through ``IntMatrix`` or
        ``int_matrix``."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def diagonal(self):
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def _exact_int(x):
    """``x`` as an int when its type is an integer type (``__index__``), such
    as numpy's; anything else, bool included, is left for IntMatrix to refuse."""
    if isinstance(x, int):
        return x
    try:
        return operator.index(x)
    except TypeError:
        return x


def int_matrix(rows) -> IntMatrix:
    """Build an IntMatrix from any nested iterable of exact integers."""
    try:
        data = tuple(tuple(map(_exact_int, row)) for row in rows)
    except TypeError as exc:
        raise InvalidMatrix(f"cannot build an integer matrix from {rows!r}") from exc
    return IntMatrix(data)


def int_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product A B, one column of B at a time.

    A column with at most a quarter of its entries nonzero is read through
    those entries, and a lone 1 is a copy of a column of A, so a sparse
    right factor costs O(nnz(B) rows(A)) instead of O(rows(A) cols(A) cols(B)).
    Integer sums are exact in any order, so every entry is the triple sum's.
    """
    if a.cols != b.rows:
        raise InvalidSize(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols = []
    for col in zip(*b.entries):
        nz = [p for p, x in enumerate(col) if x]
        if 4 * len(nz) > len(col):
            cols.append([sum(map(operator.mul, row, col)) for row in a.entries])
        elif len(nz) == 1 and col[nz[0]] == 1:
            cols.append([row[nz[0]] for row in a.entries])
        else:
            vals = [col[p] for p in nz]
            cols.append([sum(map(operator.mul, map(row.__getitem__, nz), vals))
                         for row in a.entries])
    return IntMatrix._trusted(tuple(zip(*cols)))


def _eliminate(rows) -> tuple[int, int]:
    """Fraction-free (Bareiss) row echelon form: (rank over Q, determinant or 0).

    Columns without a pivot are skipped.  Each division by the previous pivot
    is exact by Sylvester's identity; a remainder means corrupted arithmetic."""
    m = [list(row) for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank, sign, prev = 0, 1, 1
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        for i in range(rank + 1, n_rows):
            row = m[i]
            lead = row[col]
            for j in range(col + 1, n_cols):
                row[j], rem = divmod(row[j] * pivot - lead * top[j], prev)
                if rem:
                    raise NumericalInconsistency("fraction-free elimination left a remainder")
        prev = pivot
        rank += 1
    return rank, sign * prev if rank == n_rows == n_cols else 0


def exact_determinant(a: IntMatrix) -> int:
    """Fraction-free (Bareiss) determinant; every division is exact."""
    if not a.is_square():
        raise InvalidSize("determinant needs a square matrix")
    return _eliminate(a.entries)[1]


def int_matrix_to_json(a: IntMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols, "entries": [list(row) for row in a.entries]}


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _hermite(m, width, partner):
    """Bring the first ``width`` columns of the rows ``m`` to Hermite form in
    place, by row operations on whole rows; return the rank.

    The columns past ``width`` ride along, so they collect the row
    transform.  Each pivot is the smallest nonzero entry of the remaining
    block, and the column swap that brings it into place is recorded by
    swapping the same two rows of ``partner``, the other side's transform
    with its rows indexed by these columns.  Euclid with nearest-integer
    quotients clears the column below the pivot, the pivot is made positive,
    and the entries above it are reduced modulo it.  Those reductions change
    only columns right of the pivot, and later swaps only columns right of
    later pivots, so every reduced column stays reduced.

    The pivot search reads ``mins``: each row's smallest nonzero |entry|
    over its first ``width`` columns (0 for a zero row), recomputed only
    for the rows a phase changed.  That is the minimum over the remaining
    block, because a row below the pivot is zero left of it, and a column
    swap stays inside the block, so it permutes the row's entries there
    without changing their minimum.  Negating a row keeps it too.
    """
    rows = len(m)
    mins = [min(map(abs, filter(None, row[:width])), default=0) for row in m]
    for t in range(min(rows, width)):
        best, pos = 0, None
        for i in range(t, rows):
            val = mins[i]
            if val and (not best or val < best):
                best, pos = val, i
        if pos is None:
            return t
        m[t], m[pos] = m[pos], m[t]
        mins[t], mins[pos] = mins[pos], mins[t]
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
            # nearest-integer quotients: each remainder is at most pivot / 2;
            # the same pass finds the first row of least nonzero remainder
            low, least = None, 0
            for i in range(t + 1, rows):
                row = m[i]
                x = row[t]
                if not x:
                    continue
                k = (2 * x + pivot) // (2 * pivot)
                if k:
                    row[t:] = [x - k * y for x, y in zip(row[t:], top)]
                    mins[i] = None
                    x = row[t]
                    if not x:
                        continue
                if low is None or abs(x) < least:
                    low, least = i, abs(x)
            if low is None:
                break
            m[t], m[low] = m[low], m[t]
            mins[t], mins[low] = mins[low], mins[t]
        for i in range(t):
            row = m[i]
            k = row[t] // pivot
            if k:
                row[t:] = [x - k * y for x, y in zip(row[t:], top)]
        for i in range(t + 1, rows):
            if mins[i] is None:
                mins[i] = min(map(abs, filter(None, m[i][t + 1:width])), default=0)
    return min(rows, width)


def smith_normal_form(a: IntMatrix):
    """Exact Smith normal form: returns (U, D, V) with U*A*V = D.

    D is diagonal with nonnegative entries forming a divisibility chain
    d1 | d2 | ..., its zeros last; U and V are unimodular.  One Hermite
    routine serves both sides (Kannan & Bachem; Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4): a row phase on [A | U]
    and a column phase on the transpose [A^T | V^T] alternate until the
    matrix is diagonal.  When it is diagonal but some d_i does not divide
    d_(i+1), row i+1 is added to row i, and the next column phase replaces
    d_i by their gcd.

    Why the loop ends: a phase's first pivot is the gcd of the column that
    holds the smallest nonzero entry, so it is at most the previous phase's
    first pivot, and equal only when that pivot divides its whole row,
    which the phase then clears; the same holds for the pivots of the
    remaining block in turn.  So each phase either ends with a diagonal
    matrix or makes the pivot sequence lexicographically smaller, and so
    does each chain fold; a sequence of rank-many positive integers cannot
    decrease forever.  Reducing above every pivot keeps the entries of U
    and V near the size of the input's.  U A V = D is re-verified exactly
    before returning, and it certifies the transforms: at full row rank
    (A V) D^-1 is U's inverse, so U is unimodular exactly when that is
    integral (det U det U^-1 = 1); V likewise from D^-1 (U A) at full
    column rank.  A side of short rank takes a Bareiss determinant.
    """
    r, c = a.rows, a.cols
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(a.entries)]
    vt = [[int(i == j) for j in range(c)] for i in range(c)]
    while True:
        rank = _hermite(m, c, vt)
        if not any(x for i, row in enumerate(m) for j, x in enumerate(row[:c]) if i != j):
            i = next((i for i in range(rank - 1) if m[i + 1][i + 1] % m[i][i]), None)
            if i is None:
                break
            m[i] = [x + y for x, y in zip(m[i], m[i + 1])]
        u = [row[c:] for row in m]
        mt = [list(col) + row for col, row in zip(zip(*(row[:c] for row in m)), vt)]
        _hermite(mt, r, u)
        vt = [row[r:] for row in mt]
        m = [list(row) + u_row for row, u_row in zip(zip(*(row[:r] for row in mt)), u)]

    uu = IntMatrix._trusted(tuple(tuple(row[c:]) for row in m))
    dd = IntMatrix._trusted(tuple(tuple(row[:c]) for row in m))
    vv = IntMatrix._trusted(tuple(zip(*vt)))
    _verify_snf(a, uu, dd, vv)
    return uu, dd, vv


def _verify_snf(a, u, d, v):
    """U A V = D, D a Smith form, U and V unimodular.  The chain check puts
    the rho nonzero d_j first, so (A V) D^-1 is integral when column j < rho
    of A V is divisible by d_j, and D^-1 (U A) when row i < rho of U A is
    divisible by d_i; a short or non-square side takes the determinant.
    U A is the one dense product: ``int_matmul`` reads the sparse columns
    of V through their nonzeros, so (U A) V and A V cost O(nnz(V) n)."""
    ua = int_matmul(u, a)
    if int_matmul(ua, v).entries != d.entries:
        raise NumericalInconsistency("normal form factorization failed to verify")
    diag = d.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and d.entries[i][j]:
                raise NumericalInconsistency("normal form is not diagonal")
    if min(diag, default=0) < 0:
        raise NumericalInconsistency("negative diagonal entry")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise NumericalInconsistency("zero diagonal entry precedes a nonzero one")
        if x and y % x:
            raise NumericalInconsistency("diagonal divisibility chain broken")
    rho = len(diag) - diag.count(0)
    if rho == a.rows == u.rows:
        av = int_matmul(a, v).entries
        u_ok = all(x % dj == 0 for row in av for x, dj in zip(row, diag))
    else:
        u_ok = abs(exact_determinant(u)) == 1
    if rho == a.cols == v.cols:
        v_ok = all(x % di == 0 for row, di in zip(ua.entries, diag) for x in row)
    else:
        v_ok = abs(exact_determinant(v)) == 1
    if not (u_ok and v_ok):
        raise NumericalInconsistency("normal form transforms are not unimodular")


# ---------------------------------------------------------------------------
# Abelian groups and the homology computations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^free_rank plus cyclic torsion.

    Torsion entries are the invariant factors d1 | d2 | ..., each at least 2.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if not isinstance(self.free_rank, int) or self.free_rank < 0:
            raise BoundViolation(f"free rank must be a nonnegative int; got {self.free_rank!r}",
                                 measured=self.free_rank)
        tor = tuple(self.torsion)
        object.__setattr__(self, "torsion", tor)
        for d in tor:
            if not isinstance(d, int) or d < 2:
                raise BoundViolation(f"torsion coefficients must be ints >= 2; got {d!r}",
                                     measured=d)
        for x, y in zip(tor, tor[1:]):
            if y % x:
                raise BoundViolation(f"torsion coefficients must form a divisibility chain; got {tor}",
                                     measured=y)


def abelian_group_to_text(g: AbelianGroup) -> str:
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z/{int_text(d)}" for d in g.torsion)
    return " ⊕ ".join(parts) if parts else "0"


def abelian_group_to_json(g: AbelianGroup) -> dict:
    return {
        "free_rank": g.free_rank,
        "torsion": list(g.torsion),
        "text": abelian_group_to_text(g),
    }


def _corank_of_one_minus(m: IntMatrix) -> int:
    one_minus = [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(m.entries)]
    return m.rows - _eliminate(one_minus)[0]


def _require_unimodular(m: IntMatrix, consequence: str) -> None:
    det = exact_determinant(m)
    if abs(det) != 1:
        raise NotAnAutomorphism(
            f"determinant {int_text(det)} is not ±1; {consequence}"
        )


def free_by_cyclic_h2(phi_star: IntMatrix) -> AbelianGroup:
    """Second homology of F semidirect Z for the automorphism inducing phi_star.

    The group is free abelian of rank equal to the multiplicity of the
    eigenvalue one of phi_star, i.e. the corank of I - phi_star over the
    rationals.  phi_star must be unimodular, being induced by an automorphism
    of the free group.
    """
    if not phi_star.is_square():
        raise InvalidSize("induced map must be square")
    _require_unimodular(phi_star, "the matrix is not induced by a free-group automorphism")
    return AbelianGroup(free_rank=_corank_of_one_minus(phi_star))


def mapping_torus_surface_h2(orientation_sign: int, m: IntMatrix) -> AbelianGroup:
    """Second homology of the mapping torus of a surface diffeomorphism.

    Inputs: the ±1 action of the gluing map on top homology and its matrix
    on first homology (2g x 2g, unimodular).  The homology long exact
    sequence splits as coker(1 - sign) plus the fixed lattice of m, the
    latter being free:

    * sign +1: Z plus Z^corank(I - m);
    * sign -1: Z/2 plus Z^corank(I - m).
    """
    if orientation_sign not in (1, -1):
        raise BoundViolation(f"orientation sign must be +1 or -1; got {orientation_sign!r}",
                             measured=orientation_sign)
    if not m.is_square():
        raise InvalidSize("surface homology action must be square")
    if m.rows % 2:
        raise InvalidSize(f"surface homology action must be even-dimensional; got {m.rows}")
    _require_unimodular(m, "the matrix does not act on the homology of a closed surface")
    corank = _corank_of_one_minus(m)
    if orientation_sign == 1:
        return AbelianGroup(free_rank=corank + 1)
    return AbelianGroup(free_rank=corank, torsion=(2,))


def symplectic_check(a: IntMatrix, j: IntMatrix) -> bool:
    """Exact test of the symplectic congruence: transpose(A) J A == J."""
    if not a.is_square() or not j.is_square() or a.rows != j.rows:
        raise InvalidSize("symplectic check needs square matrices of one size")
    at = IntMatrix._trusted(tuple(zip(*a.entries)))
    return int_matmul(int_matmul(at, j), a).entries == j.entries


# ---------------------------------------------------------------------------
# Obstruction counts by family
# ---------------------------------------------------------------------------

FAMILIES = ("fbc", "surface", "bs")


def obstruction_count(
    family: str,
    *,
    phi_star: IntMatrix | None = None,
    genus: int | None = None,
    orientable: bool | None = None,
    n: int | None = None,
    m: int | None = None,
) -> int:
    """Number of independent winding-number obstructions for a group family.

    This is the free rank of the group's second integral homology:

    * ``fbc`` (free-by-cyclic, keyword phi_star): rank of free_by_cyclic_h2;
    * ``surface`` (keywords genus, orientable): 1 when orientable —
      the single defining relator is a product of commutators — else 0;
    * ``bs`` (one-relator ascending family, keywords n, m): 1 when n == m,
      else 0.  For n != m with |n| == |m| the count is still well-defined
      even though approximation theorems need residual finiteness.
    """
    if family == "fbc":
        if phi_star is None:
            raise InvalidFamily("free-by-cyclic family needs phi_star")
        try:
            return free_by_cyclic_h2(phi_star).free_rank
        except NotAnAutomorphism as exc:
            raise InvalidFamily(str(exc)) from exc
    if family == "surface":
        if genus is None or orientable is None:
            raise InvalidFamily("surface family needs genus and orientable")
        if not isinstance(genus, int) or genus < 1:
            raise InvalidFamily(f"surface genus must be a positive int; got {genus!r}")
        return 1 if orientable else 0
    if family == "bs":
        if n is None or m is None:
            raise InvalidFamily("bs family needs the two torsion-free exponents n, m")
        if not isinstance(n, int) or not isinstance(m, int) or n == 0 or m == 0:
            raise InvalidFamily(f"bs exponents must be nonzero ints; got n={n!r}, m={m!r}")
        return 1 if n == m else 0
    raise InvalidFamily(f"unknown family {family!r}; expected one of {FAMILIES}")

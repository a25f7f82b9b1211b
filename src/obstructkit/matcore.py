"""Dense complex linear algebra with operator-norm semantics.

Every matrix in this library is a square, finite ``numpy`` array of
``complex128``.  All norms are operator norms: the largest singular value,
from one SVD up to ``SVD_NORM_DIM_LIMIT`` and above it, without an SVD, as
``s sqrt(lambda_max(b*b))`` for ``b = a / s`` (see :func:`_gram_norm`).
:func:`op_norms` is the one norm kernel: up to ``SVD_NORM_DIM_LIMIT`` it reads
the norms of many equal-size matrices off one stacked SVD call, which is
bitwise equal to per-matrix calls; above it it streams the matrices one at a
time, so a generator of large residues never holds more than one of them.
:func:`spectral_split` is every split of a hermitian matrix at a cut, and
:func:`range_projection` every projection built from orthonormal columns.
Functions here are pure: inputs are never mutated and returned arrays are
read-only, so values can be shared freely between threads.

Validate once: the public names (:func:`op_norm`, :func:`polar_unitary`,
:func:`spectral_projection`, :func:`commutator`, :func:`dagger` and every
module's entry points) gate the caller's matrices through :func:`as_matrix`
or :func:`as_matrices`; kernels take arrays a gate passed or the library
computed and trust them.  The norm kernel :func:`op_norms` keeps one check,
finiteness, as a residue of finite matrices can overflow.

Prove gates, norm what is read: a gate whose norms are only compared with a
bound (unitarity, the unit ball, projections, path gaps, relators, the
defect below ``eps``, each step of a chain of connecting unitaries) raises
on what one :func:`screened_norms` call per family, the one pass/fail rule,
returns.  A screen clears members through a rounding-safe upper bound, the
Frobenius norm or Gershgorin on the Gram matrix, and only when the exact
norm passes too; only the rest pay an exact :func:`op_norms` value, and
only those above their bound come back, each refusal with its class,
message, ``measured`` value and first member in order.  A gate on norms a
report carries (a lone connecting unitary's step) reads those, once;
:func:`op_norms` stays the one exact kernel.

Shape before value: :func:`as_matrices` checks that a named family of
matrices is square, finite and of one size, naming its first malformed
member, and every entry point runs it on each family before its first value
gate (unitarity, the unit ball, projections, gaps), so malformed input exits 1.

Read-only policy
----------------
:func:`as_matrix` and :func:`as_matrices` are the only code that copies: they
copy an array that may be the caller's, so a caller's array is never
modified or frozen.  Every freshly computed result is marked read-only in
place by :func:`sealed`, without a copy or a change of dtype or layout.

Tolerances
----------
``spectral_tol(dim)``
    backward-error scale ``1e-10 * dim`` used for hermiticity checks,
    projection checks and reconstruction bounds.
``SINGULARITY_TOL``
    smallest singular value accepted before a matrix counts as singular.
``UNITARITY_TOL``
    default tolerance for "unitary within tolerance" gates.
``SVD_NORM_DIM_LIMIT``
    largest dimension whose operator norm comes from one SVD call (stacked
    in :func:`op_norms`); above it the scaled Gram route is cheaper.
"""

from __future__ import annotations

import itertools
import math
import numpy as np

from .errors import (
    BoundViolation,
    HypothesisViolation,
    InvalidMatrix,
    InvalidSize,
    NotHermitian,
    NotInvertible,
    NotProjection,
    NotUnitary,
    ParseError,
    SpectralGapViolation,
)

SPECTRAL_TOL_SCALE = 1e-10
SINGULARITY_TOL = 1e-12
UNITARITY_TOL = 1e-8
# measured crossover with OpenBLAS: the SVD is 1.04-1.9x cheaper at dims 2-16,
# the Gram route is as fast or faster from dim 24 up
SVD_NORM_DIM_LIMIT = 16
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0
_SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))


def spectral_tol(dim: int) -> float:
    """Per-dimension backward-error tolerance."""
    return SPECTRAL_TOL_SCALE * dim


def sealed(a: np.ndarray) -> np.ndarray:
    """Mark a freshly computed array read-only in place and return it.

    Never pass it an array the caller may hold: that is :func:`as_matrix`'s
    job, which copies.
    """
    a.setflags(write=False)
    return a


def require_indexable(shape: tuple) -> tuple:
    """``shape``, refused with :class:`InvalidSize` (numpy would raise
    ``ValueError`` or ``OverflowError``) past the index range of ``complex128``."""
    if math.prod(shape) * 16 > np.iinfo(np.intp).max:
        raise InvalidSize(f"shape {shape} is too large: past numpy's index range")
    return shape


def as_matrix(a) -> np.ndarray:
    """Validate and normalize a square complex matrix.

    Accepts anything ``np.asarray`` accepts.  Raises :class:`InvalidMatrix`
    for input numpy cannot convert, non-square shapes, empty matrices, or
    non-finite entries.
    """
    arr = _converted(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise InvalidMatrix("matrix dimension must be positive")
    return _owned(a, _finite(arr))


def _converted(a) -> np.ndarray:
    """``np.asarray(a, dtype=complex128)``; what numpy cannot convert (ragged
    or textual input, integers past ``float``) is :class:`InvalidMatrix`."""
    try:
        return np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidMatrix(f"not a complex matrix: {exc}") from exc


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return arr


def _owned(a, arr: np.ndarray) -> np.ndarray:
    """``arr``, converted from ``a``, sealed, and copied first if ``a`` may own it."""
    # np.asarray may have returned the caller's own array, unless it converted
    # a list, a tuple or an ndarray into new memory, which is ours to seal
    shared = arr.flags.writeable and not (isinstance(a, (list, tuple)) or (
        isinstance(a, np.ndarray) and not np.may_share_memory(a, arr)))
    if shared or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
    return sealed(arr)


class Labels:
    """Names of a family's members, each built only when a refusal reads it:
    ``Labels(label)[i]`` is ``label(i)``."""

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __getitem__(self, i: int) -> str:
        return self.label(i)


def as_matrices(mats, whats, dim: int | None = None):
    """A family through :func:`as_matrix`, as a tuple (large members are not
    stacked into a copy); the first member not ``dim`` x ``dim`` (default: the
    first member's size) raises :class:`InvalidSize` named ``whats[i]``
    (a sequence or :class:`Labels`, read only by a refusal).
    A ``(k, n, n)`` ndarray is gated whole, with the same refusals, by one
    check of member 0 and one finiteness pass, and returned as a sealed stack.
    """
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        arr = _converted(mats)
        if len(arr):  # the members share member 0's shape: it decides every shape refusal
            as_matrices((arr[0],), whats, dim)
        return _owned(mats, _finite(arr))
    out = []
    for i, a in enumerate(mats):
        arr = as_matrix(a)
        dim = arr.shape[0] if dim is None else dim
        if arr.shape[0] != dim:
            raise InvalidSize(f"{whats[i]} must be {dim} x {dim}, got {arr.shape[0]}")
        out.append(arr)
    return tuple(out)


def identity(dim: int) -> np.ndarray:
    return sealed(np.eye(dim, dtype=np.complex128))


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix :func:`as_matrix` validates."""
    return sealed(as_matrix(a).conj().T)


def commutator(a, b) -> np.ndarray:
    """``ab - ba`` of two equal-size matrices :func:`as_matrices` validates."""
    a, b = as_matrices((a, b), ("a", "b"))
    return sealed(a @ b - b @ a)


def _entry_scale(a: np.ndarray) -> float:
    """Largest magnitude of a real or imaginary part.

    Unlike ``max |a_ij|`` it cannot overflow on finite entries.
    """
    return float(np.abs(a.view(np.float64)).max())


def op_norm(a) -> float:
    """Operator norm, the largest singular value, of a matrix :func:`as_matrix`
    validates: :func:`op_norms` of it alone, so never power iteration, and
    repeated runs report identical values.  Sub-multiplicative and invariant
    under multiplication by unitaries on either side.
    """
    return op_norms(as_matrix(a)[None]).item()


def op_norms(mats) -> np.ndarray:
    """Operator norms of a stack or an iterable of equal-size square matrices.

    The one norm kernel: it trusts its input, arrays a gate passed or the
    library computed.  Up to ``SVD_NORM_DIM_LIMIT``, where call overhead
    dominates, every norm comes from one stacked ``np.linalg.svd`` call,
    which returns the same bits as one call per matrix (an ndarray stack is
    not copied).  Above it the matrices are taken one at a time by
    :func:`_gram_norm`, so a generator input never holds more than one large
    matrix.  Its one check is finiteness, as a residue of finite matrices
    can overflow: a non-finite matrix raises :class:`InvalidMatrix`, where
    the SVD would raise ``LinAlgError`` and an ``inf`` would give a NaN norm
    that passes every ``>`` gate.  An empty input gives an empty array.
    """
    dim, mats = _sized(mats)
    if dim is None:
        return np.empty(0)
    if dim > SVD_NORM_DIM_LIMIT:
        return np.array([_gram_norm(_finite(a)) for a in mats], dtype=float)
    stack = np.asarray(mats if isinstance(mats, np.ndarray) else list(mats), dtype=np.complex128)
    return np.linalg.svd(_finite(stack), compute_uv=False)[:, 0]


def _sized(mats):
    """``(dim, mats)``: the size of the members, None when there are none, and
    the members, an ndarray as given, else an iterator that alone holds each."""
    if isinstance(mats, np.ndarray):
        return (mats.shape[-1] if len(mats) else None), mats
    mats = iter(mats)
    first = next(mats, None)
    if first is None:
        return None, mats
    return first.shape[-1], itertools.chain((first,), mats)


def _gram_norm(a: np.ndarray) -> float:
    """The operator norm of a finite matrix as ``s sqrt(lambda_max(b*b))``
    with ``b = a / s``, ``s`` the largest entry part magnitude and
    ``lambda_max`` from ``eigvalsh``.

    After the division the Gram matrix ``b*b`` has entries of magnitude at
    most ``2 dim`` and largest eigenvalue at least 1, so it neither
    overflows nor underflows for any finite input.  Rounding in the Gram
    product and the symmetric eigensolve moves ``lambda_max`` by at most
    about ``dim eps ||b||_F^2 <= dim rank eps ||b||^2``, so the result keeps
    a relative error of order ``dim eps`` times at most ``rank / 2``, the
    order of an SVD's; the zero matrix gives 0.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    scale = _entry_scale(a)
    if scale == 0.0:
        return 0.0
    b = a / scale
    return scale * math.sqrt(float(np.linalg.eigvalsh(b.conj().T @ b)[-1]))


def screened_norms(mats, bound) -> dict:
    """``{index: op_norms value}``, in order, of the members of a stack or an
    iterable of equal-size square matrices whose norm is not at most
    ``bound`` (a float or one per member): the members a gate refuses.

    Only members :func:`_screen` cannot clear pay an exact norm.  A NaN or
    negative bound refuses every member, and an overflowed residue, which
    the screen never clears, raises :class:`InvalidMatrix`.  Above
    ``SVD_NORM_DIM_LIMIT`` the members are taken one at a time.
    """
    bounds = np.asarray(bound, dtype=float)
    dim, mats = _sized(mats)
    if dim is None:
        return {}
    if dim > SVD_NORM_DIM_LIMIT:
        norms = ((i, _gram_norm(_finite(a))) for i, a in enumerate(mats)
                 if not _screen(a[None], bounds if bounds.ndim == 0 else bounds[i])[0])
    else:
        stack = np.asarray(mats if isinstance(mats, np.ndarray) else list(mats))
        cleared = _screen(stack, bounds)
        if cleared.all():
            return {}
        rest = np.flatnonzero(~cleared)
        norms = zip(rest.tolist(), op_norms(stack[rest]).tolist())
    return {i: n for i, n in norms if not n <= (bounds if bounds.ndim == 0 else bounds[i])}


def _screen(stack: np.ndarray, bounds) -> np.ndarray:
    """Which members of a nonempty ``(k, d, d)`` stack provably have an
    :func:`op_norms` value at most ``bounds`` (a float or one per member).

    A member clears when an upper bound on ``||a||^2`` is at most the
    :func:`_squared_limits` of its bound: first ``||a||_F^2``, O(d^2), for
    residues that should be tiny; then, for the members left,
    ``max_i sum_j |(a* a)_ij|`` (Gershgorin on one batched Gram product),
    for matrices near the unit ball and path gaps.

    Rounding moves the first by at most ``gamma_{2d^2}`` relatively, the
    second by ``sqrt(2) d gamma_{d+2} ||a||^2`` (Higham section 3.6 for a
    complex dot product, and row sums of ``|a|* |a|`` at most
    ``||a||_1 ||a||_inf <= d ||a||^2``) plus ``gamma_d``, and
    :func:`op_norms` errs by ``O(d u)`` (SVD) or about ``d^2 u / 2``
    (:func:`_gram_norm`): the limit's factor covers these and its own
    roundings.  An underflowed product errs by at most half the smallest
    subnormal, which the limit's ``8 d^2`` subnormals cover, so squares that
    flushed to zero clear nothing.  A non-finite member, or one whose
    squares overflow, has a NaN or infinite upper bound and never clears.
    No RuntimeWarning is raised.
    """
    k, d = len(stack), stack.shape[-1]
    limits = _squared_limits(bounds, d)
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    flat = stack.reshape(k, -1).view(np.float64)
    # einsum raises no floating-point warnings: an overflow is an infinite bound
    cleared = np.einsum("ij,ij->i", flat, flat) <= limits
    if not cleared.all():
        rest = np.flatnonzero(~cleared)
        a = stack if len(rest) == k else stack[rest]
        with np.errstate(all="ignore"):  # a non-finite member only fails its comparison
            rows = np.abs(a.conj().transpose(0, 2, 1) @ a).sum(axis=2).max(axis=1)
        cleared[rest] = rows <= (limits if np.ndim(limits) == 0 else limits[rest])
    return cleared


def _squared_limits(bounds, d: int):
    """``(bound^2 - 8 d^2 s) / (1 + 16 (d + 2)^2 u)``, ``s`` the smallest
    subnormal: the largest upper bound on ``||a||^2`` of a ``d`` x ``d``
    member that :func:`_screen` clears against ``bound``; a float for one
    bound, an array for one per member.  A bound above ``2^500`` counts as
    ``2^500``, so the limit stays finite and an infinite upper bound never
    clears; a negative or NaN bound gives a negative limit, which nothing
    clears."""
    underflow = 8.0 * d * d * _SMALLEST_SUBNORMAL
    slack = 1.0 + 16.0 * (d + 2) ** 2 * UNIT_ROUNDOFF
    if np.ndim(bounds) == 0:  # Python floats: most gates have one bound
        bound = min(float(bounds), 2.0**500)  # a NaN bound stays NaN
        return ((bound * bound if bound >= 0.0 else -1.0) - underflow) / slack
    bounds = np.minimum(bounds, 2.0**500)
    return (np.where(bounds >= 0.0, bounds * bounds, -1.0) - underflow) / slack


def require_unitary(mats, tol: float, whats) -> None:
    """Check ``||a*a - 1|| <= tol`` for equal-size matrices :func:`as_matrices`
    validated, proved by one :func:`screened_norms` call over their residues,
    formed inside it, so a NaN ``tol`` accepts nothing; the first above
    raises :class:`NotUnitary` named ``whats[i]``, with its exact norm."""
    with np.errstate(over="ignore", invalid="ignore"):  # op_norms refuses an overflow
        failed = screened_norms((a.conj().T @ a - np.eye(a.shape[0]) for a in mats), tol)
    for i, delta in failed.items():
        raise NotUnitary(
            f"{whats[i]} is not unitary: ||a*a - 1|| = {delta:.3e} > {tol:.1e}", measured=delta
        )


def require_unit_ball(mats, tol: float, whats) -> None:
    """Check ``||a|| <= 1 + tol`` for equal-size matrices :func:`as_matrices`
    validated, proved by :func:`screened_norms`; the first above raises
    :class:`HypothesisViolation` named ``whats[i]``, with its exact norm."""
    for i, norm in screened_norms(mats, 1.0 + tol).items():
        raise HypothesisViolation(
            f"{whats[i]} leaves the unit ball: norm {norm:.12f}", measured=norm
        )


def require_projection(a: np.ndarray, what: str = "matrix") -> None:
    """Check ``a = a* = a^2`` within ``spectral_tol(dim)``."""
    require_projections(a[None], (what,))


def require_projections(stack: np.ndarray, whats) -> None:
    """:func:`require_projection` for every matrix of a validated stack.

    Both residues of every matrix are proved by one :func:`screened_norms`
    call; the first matrix in stack order that fails raises
    :class:`NotProjection` named ``whats[i]``, with the exact norms of both.
    """
    tol, k = spectral_tol(stack.shape[1]), len(stack)
    with np.errstate(over="ignore", invalid="ignore"):  # op_norms refuses an overflow
        residues = np.concatenate([stack - stack.conj().transpose(0, 2, 1), stack @ stack - stack])
    failed = [j % k for j in screened_norms(residues, tol)]
    if failed:
        i = min(failed)
        herm, idem = op_norms(residues[[i, k + i]]).tolist()
        raise NotProjection(
            f"{whats[i]} is not a projection: ||a-a*|| = {herm:.3e}, ||a^2-a|| = {idem:.3e}",
            measured=max(herm, idem),
        )


def polar_unitary(a) -> np.ndarray:
    """Unitary factor of the polar decomposition ``a = u (a*a)^(1/2)``.

    Requires the smallest singular value to exceed ``SINGULARITY_TOL``.
    When ``||a|| <= 1`` and the smallest singular value is at least
    ``1 - eps``, the factor satisfies ``||a - u|| < eps``: the positive part
    has spectrum inside ``(1 - eps, 1]``, so it sits within ``eps`` of the
    identity.
    """
    return polar_unitaries(as_matrix(a)[None])[0]


def polar_unitaries(stack: np.ndarray) -> np.ndarray:
    """:func:`polar_unitary` of every matrix of a validated stack, from one SVD
    call; the first singular matrix in stack order raises :class:`NotInvertible`."""
    w, s, vh = np.linalg.svd(stack)
    for smallest in s[:, -1].tolist():
        if smallest <= SINGULARITY_TOL:
            raise NotInvertible(
                f"smallest singular value {smallest:.3e} <= {SINGULARITY_TOL:.1e}",
                measured=smallest,
            )
    return sealed(w @ vh)


def spectral_split(herm: np.ndarray, cut: float, gap_tol: float):
    """One ``eigh`` of a bitwise hermitian matrix, split at ``cut``: the ascending
    eigenvalues and the eigenvector columns above the cut and at or below it.
    An eigenvalue closer than ``gap_tol`` to the cut raises
    :class:`SpectralGapViolation` carrying the offender.
    """
    lam, vecs = np.linalg.eigh(herm)
    dist = np.abs(lam - cut)
    if float(dist.min()) < gap_tol:
        offender = float(lam[int(dist.argmin())])
        raise SpectralGapViolation(
            f"eigenvalue {offender:.6f} within gap_tol {gap_tol} of cut {cut}",
            eigenvalue=offender,
            cut=cut,
            measured=float(dist.min()),
        )
    return sealed(lam), sealed(vecs[:, lam > cut]), sealed(vecs[:, lam <= cut])


def range_projection(cols: np.ndarray) -> np.ndarray:
    """``V V*``, symmetrized: the projection onto the span of orthonormal columns ``V``."""
    proj = cols @ cols.conj().T
    return sealed((proj + proj.conj().T) / 2.0)


def spectral_projection(a, cut: float, gap_tol: float) -> np.ndarray:
    """Spectral projection onto eigenvalues above ``cut``.

    Applies the characteristic function of ``(cut, oo)`` to ``(a + a*)/2``
    through :func:`spectral_split`, so no eigenvalue may lie within
    ``gap_tol`` of the cut.  Asymmetry ``||a - a*||`` above ``spectral_tol(dim)``
    raises :class:`NotHermitian` rather than silently discarding the skew part.

    The output commutes with ``a`` and satisfies ``||P^2 - P||`` and
    ``||P - P*||`` below ``spectral_tol(dim)``.  A non-finite ``cut`` or a
    NaN or negative ``gap_tol``, which would switch the gate off, raises
    :class:`BoundViolation` before the eigensolve.
    """
    if not (math.isfinite(cut) and gap_tol >= 0.0):
        raise BoundViolation(f"spectral cut {cut} must be finite and gap_tol {gap_tol} >= 0",
                             measured=gap_tol if math.isfinite(cut) else cut)
    arr = as_matrix(a)
    tol = spectral_tol(arr.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # op_norms refuses an overflow
        skew = (arr - arr.conj().T)[None]
    for asym in screened_norms(skew, tol).values():
        raise NotHermitian(
            f"||a - a*|| = {asym:.3e} exceeds {tol:.3e}; refusing to symmetrize",
            measured=asym,
        )
    return range_projection(spectral_split((arr + arr.conj().T) / 2.0, cut, gap_tol)[1])


def coordinate_projection(dim: int, rank: int) -> np.ndarray:
    """The projection onto the first ``rank`` coordinates of ``C^dim``."""
    return sealed(np.diag((np.arange(dim) < rank).astype(np.complex128)))


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def json_value(value, kinds: tuple, what: str):
    """``value`` if it is an instance of one of ``kinds``, else :class:`ParseError`.

    JSON decoders pass every scalar field through here, so a float, string or
    boolean is refused where an integer is due instead of being coerced; a
    ``bool`` passes only where ``bool`` is one of ``kinds``.
    """
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ParseError(f"{what} must be {names}, got {type(value).__name__}")
    return value


def matrix_to_json(a) -> dict:
    """Encode as ``{"dim": n, "entries": [[[re, im], ...], ...]}`` row-major."""
    arr = as_matrix(a)
    n = arr.shape[0]
    return {"dim": int(n), "entries": arr.view(np.float64).reshape(n, n, 2).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Decode :func:`matrix_to_json` output bit for bit.  ``"dim"`` must be an
    integer; entries must be numbers, booleans included, within a machine
    integer; anything else is :class:`InvalidMatrix`."""
    try:
        dim = json_value(obj["dim"], (int,), "matrix dim")
        entries = obj["entries"]
        # check the shape before allocating: "dim" alone must not size an array
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ValueError(f"entries are not {dim} rows of {dim}")
        parts = np.asarray(entries)
        if parts.dtype.kind not in "biuf" or parts.shape != (dim, dim, 2):
            raise ValueError(f"entries are not {dim} x {dim} pairs of numbers")
        # a view keeps every bit, the sign of -0.0 included; re + 1j*im would not
        data = parts.astype(np.float64).view(np.complex128).reshape(dim, dim)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, ParseError) as exc:
        raise InvalidMatrix(f"malformed matrix JSON: {exc}") from exc
    return as_matrix(sealed(data))  # fresh, so validated without a copy

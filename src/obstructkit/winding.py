"""Winding numbers of determinant paths attached to almost-commuting unitaries.

For a unitary ``W`` with ``||W - 1|| < 1`` the path ``t -> det(t + (1-t)W)``
on [0, 1] is closed (when ``det W = 1``) and avoids the origin, so it has a
winding number.  Two algorithms compute it and must agree:

* eigenvalue method — minus the sum of the eigenphases over 2 pi, which must
  round to an integer.  The phases are read off the Hermitian part
  ``S = (W - W*)/2i`` as ``arcsin(eigvalsh(S))``, certified while
  ``n tau <= HERMITIAN_PHASE_BUDGET`` (``n`` the dimension, ``tau`` the
  unitarity tolerance): the input check gives ``||W*W - 1|| <= tau``, so by
  the polar decomposition ``W`` lies within ``tau`` of a unitary ``U``;
  ``||W - 1|| < 1`` keeps every eigenphase of ``U`` within ``2 tau`` of
  (-pi/3, pi/3), where for ``tau <= 1e-3`` ``arcsin`` inverts ``sin`` with
  Lipschitz constant below 2.02; and Weyl's inequality moves each eigenvalue
  of ``S`` by at most ``||W - U|| <= tau``.  Each phase is thus off by at
  most ``2.02 tau`` and the winding sum by ``2.02 n tau / 2 pi < n tau / 3``,
  so the residue gate allows ``EIG_RESIDUE_TOL + n tau / 3`` and the
  integer is certified with room to spare;
* path method — ``-Phi(W) / 2 pi``, ``Phi(W)`` the sum of the arguments of
  the pivots of the LU factorization of ``W`` without pivoting, up to
  ``PIVOT_DIM_LIMIT``: stacked solves and Schur products, each level gated
  by its measured residual, and no eigensolve (``_pivot_argument_sum``,
  which proves the sum within the same residue tolerance).  So up to the
  limit a Hermitian eigensolve and an LU elimination of ``W`` are
  cross-checked.  Above it there is no independent second method yet
  (ROADMAP item 3): the path method sums the eigenvalue method's own phases.
  An eigensolver-free path (a Householder reduction to Hessenberg form and
  Hyman's recurrence) is kept in ``tests/test_winding.py`` as the oracle of
  the pivot route.

At every dimension the reported clearance is the exact minimum of ``|det|``
along ``t -> prod_j (t + (1-t) exp(i theta_j))``, the path of the unitary
with the eigenvalue method's phases ``theta_j``: ``prod_j cos(theta_j / 2)``,
reached at ``t = 1/2`` (``_clearance``).

Above the budget (a defect of 1e-2 at dim 400 can move the Hermitian sum
past 1/2) both methods run on the polar factor ``U`` of ``W = UP``
(Higham 1986), gated at ``UNITARITY_TOL`` and at ``||U - 1|| < 1``.
``W_s = (1 - s)W + sU = U((1 - s)P + s)`` has ``||W_s - 1|| < 1`` by
convexity and ``det((1 - s)P + s) > 0``, so the argument increment of
``det(t + (1-t)W_s)`` does not depend on ``s``: ``U`` has the winding of
``W`` at any ``tau``.  As ``||U - W|| = ||P - 1|| <= tau``, ``U`` can fail
the distance gate only if ``||W - 1|| >= 1 - tau``.

Sign convention: the reported winding is counterclockwise-positive for the
path ``t + (1-t)W`` as written.  Under it the clock-and-shift pair winds to
-1.  Reports for commutator products of homology decompositions are
normalized to this same orientation and flagged, since the class pairing is
conventionally written with the reversed path ``(1-t) + tW``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoundViolation,
    HypothesisViolation,
    NotUnitary,
    NumericalInconsistency,
    OpenPath,
)
from .matcore import (
    UNIT_ROUNDOFF,
    UNITARITY_TOL,
    as_matrices,
    as_matrix,
    identity,
    op_norm,
    polar_unitaries,
    require_unitary,
    sealed,
)
from .seeding import haar_unitary

DET_TOL = 1e-8
EIG_RESIDUE_TOL = 1e-6
# Largest dim * tau for which the Hermitian eigenphases are certified.
HERMITIAN_PHASE_BUDGET = 1e-3
# Up to this dimension the path method sums the arguments of the LU pivots
# of W (_pivot_argument_sum); above it, the eigenvalue method's phases.
PIVOT_DIM_LIMIT = 160
# Largest matrix _pivot_argument_sum eliminates entry by entry.
PIVOT_LEAF = 12


@dataclass(frozen=True)
class WindingReport:
    """Result of a dual-method winding computation.

    ``agreement`` is always True on a returned report (disagreement raises).
    ``eigenvalue_method`` is the integer of the Hermitian eigenphases;
    ``path_method`` that of the LU pivot arguments up to ``PIVOT_DIM_LIMIT``
    and of the same eigenphases above it.  ``min_clearance`` is the exact
    minimum over ``t`` of ``|det|`` along the path of the unitary with the
    eigenvalue method's phases, ``prod_j cos(theta_j / 2)`` at ``t = 1/2``,
    at every dimension, and ``samples_used`` is 1: the one point at which
    the path is evaluated.  ``source_path_reversed`` marks reports
    normalized from the reversed-orientation convention used for
    homology-class pairings.
    """

    winding: int
    min_clearance: float
    samples_used: int
    eigenvalue_method: int
    path_method: int
    agreement: bool
    orientation: str = "basic"
    source_path_reversed: bool = False


def _rounded_winding(phase_sum: float, residue_tol: float, error, what: str) -> int:
    """The winding ``-phase_sum / 2 pi``, refused with ``error`` carrying the
    distance unless it lies within ``residue_tol`` of an integer."""
    total = -phase_sum / (2.0 * np.pi)
    nearest = float(np.rint(total))
    if not abs(total - nearest) <= residue_tol:
        raise error(f"{what} argument sum {total!r} does not round to an integer",
                    measured=abs(total - nearest))
    return int(nearest)


def _clearance(theta: np.ndarray) -> float:
    """Exact smallest ``|det|`` of ``t -> prod_j (t + (1-t) exp(i theta_j))``.

    ``|t + (1-t) exp(i theta)|^2 = 1 - 2t(1-t)(1 - cos theta)`` is smallest at
    ``t = 1/2`` for every factor at once, where it is
    ``(1 + cos theta) / 2 = cos(theta / 2)^2``.
    """
    return math.exp(0.5 * float(np.sum(np.log((1.0 + np.cos(theta)) / 2.0))))


def _distance_below_one(w: np.ndarray, tol: float) -> bool:
    """Whether a Cholesky factorization proves ``||W - 1|| < 1``.

    True when ``A = Re W - ((1 + tau)/2 + mu)`` factors, ``Re W = (W + W*)/2``,
    ``tau = tol`` and ``mu = 4 (1 + tau)(n + 1)^2 u`` (``u`` the unit
    roundoff); ``W`` must have passed ``require_unitary`` at ``tau``.  False
    proves nothing.  Proof: ``(W - 1)*(W - 1) = (W*W - 1) + 2(1 - Re W)``,
    so ``||W - 1||^2 <= ||W*W - 1|| + 2 - 2 lambda_min(Re W)``.

    * The unitarity check measured ``||W*W - 1|| <= tau`` on a rounded Gram
      product, so the exact norm is at most ``tau + g`` with
      ``g <= 2 n (n + 1) u ||W||^2`` and ``||W||^2 <= (1 + tau)(1 + g)``.
    * A Cholesky factorization that runs to the end gives ``R`` with
      ``R*R = A + E`` and ``|E| <= gamma_{n+1} |R*||R|`` (Demmel 1989;
      Higham, Accuracy and Stability, Theorem 10.3), doubled for complex
      arithmetic.  As ``R*R`` is positive definite, ``lambda_min(A) > -||E||``,
      and ``||E|| <= 2 gamma_{n+1} ||R||_F^2 <= 2.01 n (n + 1) u max a_jj``
      with ``a_jj < ||W|| <= 1 + tau``.
    * Forming ``A`` in floating point moves it by at most
      ``(2 sqrt(n) + 2) u (1 + tau)``.

    So ``lambda_min(Re W) > (1 + tau)/2 + mu - e`` with
    ``2e <= (1 + tau) u (4.02 n (n + 1) + 4 sqrt(n) + 4)``, and
    ``||W - 1||^2 < 1 - 2 mu + g + 2e``, where ``g + 2e`` stays below
    ``8 (1 + tau)(n + 1)^2 u = 2 mu`` at every ``n >= 1``.  One factorization
    costs ``n^3/3`` against the Gram product and eigensolve of
    :func:`op_norm`.
    """
    dim = w.shape[0]
    margin = 4.0 * (1.0 + tol) * (dim + 1) ** 2 * UNIT_ROUNDOFF
    shifted = w + w.conj().T
    shifted *= 0.5
    shifted.flat[:: dim + 1] -= (1.0 + tol) / 2.0 + margin
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _require_distance_below_one(w: np.ndarray, tol: float, what: str) -> None:
    """Refuse ``||W - 1|| >= 1``.  One Cholesky factorization proves the gate
    when it can (:func:`_distance_below_one`); only inputs it cannot prove pay
    the exact norm, so every refusal reports the measured distance."""
    if not _distance_below_one(w, tol):
        dist = op_norm(w - identity(w.shape[0]))
        if dist >= 1.0:
            raise HypothesisViolation(
                f"{what} = {dist:.6f} >= 1; the determinant path may hit zero",
                measured=dist,
            )


def _eigenphases(w: np.ndarray, tol: float):
    """Eigenphases ``arcsin(eigvalsh((W - W*)/2i))`` and the residue their sum
    is certified to (module docstring)."""
    theta = np.arcsin(np.linalg.eigvalsh((w - w.conj().T) / 2j))
    return theta, EIG_RESIDUE_TOL + w.shape[0] * tol / 3.0


def _eliminate(a: np.ndarray) -> np.ndarray:
    """The pivots of the LU factorizations without pivoting of a stack of
    matrices, one entry at a time: each step divides the column under the
    pivot by it and subtracts the outer product with the pivot's row."""
    pivots = np.empty(a.shape[:-1], dtype=np.complex128)
    for j in range(a.shape[-1] - 1):
        pivots[..., j] = a[..., 0, 0]
        a = a[..., 1:, 1:] - a[..., 1:, :1] / a[..., :1, :1] * a[..., :1, 1:]
    pivots[..., -1] = a[..., 0, 0]
    return pivots


def _pivot_argument_sum(w: np.ndarray) -> float:
    """``Phi(W)``, the sum of the arguments of the pivots of the LU
    factorization of ``W`` without pivoting; the path method's winding up to
    ``PIVOT_DIM_LIMIT`` is ``-Phi(W) / 2 pi``.

    ``W`` is padded with an identity block to ``N = b 2^L``,
    ``b <= PIVOT_LEAF``, in a one-member stack (a copy of ``W`` when
    ``L = 0``); the padding adds pivots 1.  Each of ``L`` levels replaces
    every ``M`` of a stack by its leading half ``M11`` and ``fl(M22 - M21 X^)``,
    ``X^`` from one stacked ``np.linalg.solve`` of ``M11 X = M12``; the
    ``2^L`` leaves are then eliminated together.  No growth factor of the
    solves is assumed: a level whose computed residuals ``M11 X^ - M12``
    have a Frobenius norm ``rho_l`` above ``EIG_RESIDUE_TOL / n`` over the
    stack is refused with :class:`NumericalInconsistency` carrying it.

    Let ``W`` have passed the gates of :func:`winding_of_unitary` at
    ``tau = tol <= 1e-3`` (``n`` the dimension, ``u`` the unit roundoff),
    ``U`` be its polar factor with eigenphases ``phi_j``, ``H(A)`` the
    Hermitian part ``(A + A*)/2`` and ``K(g)`` the matrices with
    ``H(A) >= g`` and ``H(A^{-1}) >= g``.

    * ``W`` lies in ``K(c)``, ``c = cos(pi/3 + 2 tau) - tau/(1 - tau) > 0.497``:
      ``|phi_j| < pi/3 + 2 tau`` (module docstring) gives
      ``H(U) = H(U*) >= cos(pi/3 + 2 tau)``, and ``||W - U|| <= tau``,
      ``||W^{-1} - U*|| <= tau/(1 - tau)``.  The padding stays in ``K(c)``.
    * ``A`` in ``K(g)`` has ``||A||, ||A^{-1}|| <= 1/g``, as
      ``|x* A x| >= g |x|^2``.  Its leading block ``A11`` and the Schur
      complement ``S = A22 - A21 A11^{-1} A12`` lie in ``K(g)``:
      ``x* S x = z* A z`` for ``z = (-A11^{-1} A12 x, x)``, ``|z| >= |x|``;
      ``S^{-1}`` is the trailing block of ``A^{-1}``, and ``A11^{-1}`` the
      Schur complement of it in ``A^{-1}``.  So the pivots exist, have real
      parts at least ``g``, and are those of ``A11`` followed by those of
      ``S``.  For ``||E|| <= e < g``, ``A + E`` lies in
      ``K(g - e/(g(g - e)))`` and ``|Phi(A + E) - Phi(A)|`` is at most
      ``||E||_* / (g - e)`` (``||.||_*`` the nuclear norm): along ``A + sE``
      the pivots keep positive real parts, so ``Phi`` is a continuous
      argument of ``det``, with derivative ``Im tr((A + sE)^{-1} E)``.
    * The Hermitian parts of ``t + (1-t)W`` and ``(1 - s)W + sU`` are at
      least ``c`` for ``s, t`` in [0, 1].  Along the second, ``det`` is
      ``det U det((1 - s)P + s)``, of constant argument, so ``Phi`` is
      constant.  Along ``t + (1-t)U``, ``Phi`` and
      ``sum_j arg(t + (1-t) exp(i phi_j))`` are continuous arguments of one
      ``det`` that both reach 0 at ``t = 1``.  So ``Phi(W) = sum_j phi_j``:
      ``-Phi(W) / 2 pi`` is the sum the eigenvalue method certifies, within
      ``|arg det W| / 2 pi < 1.6e-9`` of the winding.
    * A level makes ``S^ = fl(M22 - M21 X^)`` exactly the Schur complement
      of ``M + E``, ``E = [[0, R], [0, F]]``, ``R = M11 X^ - M12``,
      ``F = S^ - (M22 - M21 X^)``; an elimination step makes
      ``S^ = fl(B22 - l^ B12)``, ``l^ = fl(B21 / B11)``, that of ``B + E``,
      ``E = [[0, 0], [B11 l^ - B21, F]]``.  Neither touches the leading
      block, so ``Phi(M + E) = Phi(M11) + Phi(S^)``, and the computed
      pivots' arguments sum to ``Phi(W)`` plus each step's
      ``Phi(M + E) - Phi(M)``.
    * By induction down the steps every matrix formed lies in ``K(0.4969)``:
      along any chain of steps the ``||E||`` sum to under
      ``L (EIG_RESIDUE_TOL / n + 2e-11) + 1e-13 < 8.1e-8``, as
      ``n >= 6 * 2^L + 1`` when ``L >= 1``, which costs ``K`` under
      ``3.3e-7``.  So every
      ``M``, ``M11^{-1}`` and ``B11^{-1}`` has norm at most 2.02, and
      ``X^`` and ``l^`` under 4.1.  With ``h`` columns in ``M11``,
      ``7 <= h <= 80``, the computed residual misses ``R`` by at most
      ``sqrt(2) gamma_{h+3} (||M11||_F ||X^||_F + ||M12||_F)`` in the
      Frobenius norm, and ``F`` is as small (complex inner products; Higham,
      Accuracy and Stability, section 3.6): ``||E - [[0, R^], [0, 0]]||_*``
      is under ``37 h^{5/2} u``.  In a step, numpy's complex quotient
      (Smith's algorithm, whose denominator cannot cancel) is within a
      relative ``12 u``, each product within ``sqrt(2) gamma_2`` and each
      difference within ``u``, so ``||E||_F < 90 u`` and
      ``||E||_* < 300 u``.
    * A level's ``E`` have rank at most ``h``, and ``2^l h = N/2`` at level
      ``l``, so by Cauchy-Schwarz their residual parts' nuclear norms sum to
      at most ``sqrt(N/2) rho_l``, with the computed ``rho_l`` (a relative
      ``N^2 u`` off).  In all, with under ``N`` steps, ``Phi(W)`` misses the
      returned sum by at most
      ``(sqrt(N/2) sum_l rho_l + 60 (N/2)^{5/2} u + 300 N u) / 0.4969``
      plus ``2 N (N + 2) u`` for the ``Arg`` and their sum.  As
      ``N < 7n/6``, the residuals move the winding by under
      ``L sqrt(7/12n) EIG_RESIDUE_TOL / (2 pi 0.4969) < 1.05e-7`` and the
      rest by under ``2e-10`` at ``n <= PIVOT_DIM_LIMIT``.

    So the path's total lies within ``1.1e-7`` of the winding the eigenvalue
    method certifies, inside the residue tolerance: the dual-method gate
    cannot fire on an input that passes the gates.
    """
    n = w.shape[0]
    levels = ((n - 1) // PIVOT_LEAF).bit_length()
    size = -(-n >> levels) << levels
    a = np.eye(size, dtype=np.complex128)[None]
    a[0, :n, :n] = w
    limit = EIG_RESIDUE_TOL / n
    for _ in range(levels):
        h = a.shape[-1] // 2
        top, right = a[:, :h, :h], a[:, :h, h:]
        x = np.linalg.solve(top, right)
        residual = top @ x
        residual -= right
        rho = float(np.linalg.norm(residual))
        if not rho <= limit:
            raise NumericalInconsistency(
                f"pivot level residual {rho:.3e} exceeds {limit:.3e}; "
                "the path sum is not certified",
                measured=rho,
            )
        a = np.concatenate((top, a[:, h:, h:] - a[:, h:, :h] @ x))
    return float(np.sum(np.angle(_eliminate(a))))


def _unitarity_tol(value) -> float:
    """``float(value)``, refused as :class:`BoundViolation` when NaN or
    negative, which would blame the matrix; ``inf`` routes to the polar factor."""
    tol = float(value)
    if not tol >= 0.0:
        raise BoundViolation(f"unitarity_tol {tol} must be >= 0", measured=tol)
    return tol


def winding_of_unitary(
    w,
    unitarity_tol: float = UNITARITY_TOL,
    _distance: str = "||W - 1||",
) -> WindingReport:
    """Winding of ``t -> det(t + (1-t)W)`` by both methods, which must agree.

    Requires ``W`` unitary within tolerance, ``||W - 1|| < 1`` (the path then
    cannot meet the origin) and ``|det W - 1| <= 1e-8`` (the path is closed).
    The Hermitian eigenphases are certified only once the first two checks
    pass, so they run first.  Beyond ``HERMITIAN_PHASE_BUDGET`` both methods
    run on the polar factor ``U`` of ``W``, which must pass the same two
    checks at ``UNITARITY_TOL`` (module docstring).  A NaN or negative
    ``unitarity_tol`` is :class:`BoundViolation` before any gate.
    """
    tol = _unitarity_tol(unitarity_tol)
    w = as_matrix(w)
    require_unitary((w,), tol, ("winding input",))
    _require_distance_below_one(w, tol, _distance)
    det = complex(np.linalg.det(w))
    if abs(det - 1.0) > DET_TOL:
        raise OpenPath(
            f"det(W) = {det:.12g} sits {abs(det - 1.0):.3e} from 1; path not closed",
            measured=abs(det - 1.0),
        )
    if w.shape[0] * tol > HERMITIAN_PHASE_BUDGET:
        tol = UNITARITY_TOL
        w = polar_unitaries(w[None])[0]
        require_unitary((w,), tol, ("polar factor of the winding input",))
        _require_distance_below_one(w, tol, "||U - 1|| (U the polar factor of W)")
    theta, residue_tol = _eigenphases(w, tol)
    theta_sum = float(np.sum(theta))
    w_eig = _rounded_winding(theta_sum, residue_tol, OpenPath, "eigenvalue")
    path_sum = _pivot_argument_sum(w) if w.shape[0] <= PIVOT_DIM_LIMIT else theta_sum
    w_path = _rounded_winding(path_sum, residue_tol, NumericalInconsistency, "path")
    if w_path != w_eig:
        raise NumericalInconsistency(
            f"winding methods disagree: eigenvalue {w_eig}, path {w_path}",
            measured=(w_eig, w_path),
        )
    return WindingReport(winding=w_eig, min_clearance=_clearance(theta), samples_used=1,
                         eigenvalue_method=w_eig, path_method=w_path, agreement=True)


def _commutator_winding(pairs, dim: int, tol: float) -> WindingReport:
    """Winding of ``W = prod a b a* b*`` over the ``tol``-almost-unitary pairs
    read once from ``pairs`` (none: ``W = 1``), checked at ``5 tol max(1, m)``
    for ``m`` pairs.  For unitaries ``aba*b* - 1 = (ab - ba) a*b*``, so on one
    pair the distance gate measures ``||ab - ba||``."""
    w, m = identity(dim), 0
    for m, (a, b) in enumerate(pairs, 1):
        c = a @ b @ a.conj().T @ b.conj().T
        w = c if m == 1 else w @ c
    return winding_of_unitary(w, unitarity_tol=5.0 * tol * max(1, m), _distance=(
        "||W - 1|| (W the commutator product; ||uv - vu|| for one pair)"))


def winding_pair(u, v, unitarity_tol: float = UNITARITY_TOL) -> WindingReport:
    """Winding of the multiplicative commutator ``u v u* v*``.

    Defined when ``||uv - vu|| < 1`` (:func:`_commutator_winding`).  Swapping
    the pair inverts the commutator and so negates the winding.  Both shapes
    are checked (:class:`InvalidSize`) before either unitarity gate, and
    ``unitarity_tol`` as in :func:`winding_of_unitary` before both.
    """
    tol = _unitarity_tol(unitarity_tol)
    u, v = as_matrices((u, v), ("first of the pair", "second of the pair"))
    require_unitary((u, v), tol, ("first of the pair", "second of the pair"))
    return _commutator_winding([(u, v)], u.shape[0], tol)


def winding_class(phi, decomp) -> WindingReport:
    """Winding attached to a commutator decomposition of a homology class.

    ``W`` is the product of the commutators of the values of ``phi`` on the
    decomposition's word pairs (:func:`_commutator_winding`, which refuses
    ``||W - 1|| >= 1`` with :class:`HypothesisViolation`).
    The defining convention for class pairings runs the path in reverse;
    the report is normalized to the basic orientation and flagged, so the
    value here for the one-pair decomposition equals ``winding_pair`` on the
    corresponding images.
    """
    if phi.flavor != "unitary":
        raise NotUnitary(
            "winding_class needs a unitary-valued quasi-representation; "
            "unitarize first"
        )
    values = ((phi.evaluate(a), phi.evaluate(b)) for a, b in decomp.pairs)
    return replace(_commutator_winding(values, phi.dim, UNITARITY_TOL), source_path_reversed=True)


# ---------------------------------------------------------------------------
# Admissible test instances
# ---------------------------------------------------------------------------

MAX_MEAN_PHASE = 0.8
JITTER = 0.1


def max_winding_for_dim(dim: int) -> int:
    """Largest winding magnitude the admissible generator can realize."""
    return int(math.floor(MAX_MEAN_PHASE * dim / (2.0 * math.pi)))


def random_admissible_unitary(dim: int, rng, winding: int | None = None):
    """Random unitary with ``det = 1``, ``||W - 1|| < 1`` and known winding.

    Eigenphases are a common offset ``2 pi k / dim`` plus mean-adjusted
    jitter, so their principal arguments stay below 1.0 in magnitude and sum
    to exactly ``2 pi k``; conjugating by a Haar unitary hides the eigenbasis.
    Returns ``(W, expected_winding)`` with ``expected_winding = -k``.
    """
    cap = max_winding_for_dim(dim)
    if winding is None:
        k = -int(rng.integers(-cap, cap + 1))
    else:
        k = -int(winding)
        if abs(k) > cap:
            raise HypothesisViolation(
                f"winding {winding} not realizable admissibly in dimension {dim}; "
                f"|winding| must be <= {cap}"
            )
    jitter = rng.uniform(-JITTER, JITTER, size=dim)
    jitter -= jitter.mean()
    theta = 2.0 * np.pi * k / dim + jitter
    q = haar_unitary(dim, rng)
    w = (q * np.exp(1j * theta)) @ q.conj().T
    return sealed(w), -k

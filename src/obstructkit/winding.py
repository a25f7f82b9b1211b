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
* path method — the same winding read off the path
  ``prod_j (t + (1-t) exp(i theta'_j))``, which is ``det(t + (1-t)W)`` when
  the ``theta'_j`` are the eigenphases of ``W``: minus the phase sum, and the
  exact minimum of ``|det|``, both in closed form (``_path_winding``).  Up to
  ``CAYLEY_DIM_LIMIT`` the ``theta'`` are the phases of the Cayley transform
  ``i(1 - W)(1 + W)^{-1}``: one ``np.linalg.solve``, checked by its residual,
  and a second Hermitian eigensolve on a different matrix, certified to keep
  the path's sum within the same residue tolerance (``_cayley_phases``).
  Above it there is no independent second method yet (ROADMAP item 3): the
  ``theta'`` are the eigenvalue method's own phases.  An eigensolver-free
  path (a Householder reduction to Hessenberg form and Hyman's recurrence)
  is kept in ``tests/test_winding.py`` as the oracle of the Cayley route.

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
# Up to this dimension the path method takes its phases from the Cayley
# transform of W (_cayley_phases); above it, from the eigenvalue method.
CAYLEY_DIM_LIMIT = 160


@dataclass(frozen=True)
class WindingReport:
    """Result of a dual-method winding computation.

    ``agreement`` is always True on a returned report (disagreement raises);
    ``min_clearance`` is the exact minimum over ``t`` of ``|det|`` along the
    path of the unitary with the path method's phases ``theta'``, reached at
    ``t = 1/2``, and ``samples_used`` is 1: the one point at which the path is
    evaluated.  ``source_path_reversed`` marks reports normalized from the
    reversed-orientation convention used for homology-class pairings.
    """

    winding: int
    min_clearance: float
    samples_used: int
    eigenvalue_method: int
    path_method: int
    agreement: bool
    orientation: str = "basic"
    source_path_reversed: bool = False


def _path_winding(theta: np.ndarray, residue_tol: float):
    """Winding and exact smallest ``|det|`` of ``t -> prod_j (t + (1-t) exp(i theta_j))``.

    A factor with ``theta_j`` in (-pi, pi) runs along the chord from
    ``exp(i theta_j)`` to 1, its argument from ``theta_j`` to 0, so the
    winding is ``-sum theta_j / 2 pi``, which the phases keep within
    ``residue_tol`` of an integer: the eigenvalue method's above
    ``CAYLEY_DIM_LIMIT``, the Cayley phases up to it (:func:`_cayley_phases`).
    ``|t + (1-t) exp(i theta)|^2 = 1 - 2t(1-t)(1 - cos theta)`` is smallest at
    ``t = 1/2`` for every factor at once, where it is
    ``(1 + cos theta) / 2 = cos(theta / 2)^2``: exactly 0 for a phase at pi, a
    path through the origin, which is refused before the sum is read.
    """
    with np.errstate(divide="ignore"):
        clearance = math.exp(0.5 * float(np.sum(np.log((1.0 + np.cos(theta)) / 2.0))))
    if not clearance > 0.0:
        raise NumericalInconsistency(
            "determinant magnitude reached zero at t = 1/2; path not conclusive",
            measured=clearance,
        )
    total = -float(np.sum(theta)) / (2.0 * np.pi)
    winding = int(round(total))
    if abs(total - winding) > residue_tol:
        raise NumericalInconsistency(
            f"path argument sum {total!r} does not close to an integer winding",
            measured=abs(total - winding),
        )
    return winding, clearance


def _distance_below_one(w: np.ndarray, tol: float) -> bool:
    """Whether a Cholesky factorization proves ``||W - 1|| < 1``.

    True when ``A = Re W - ((1 + tau)/2 + mu)`` factors, ``Re W = (W + W*)/2``,
    ``tau = tol`` and ``mu = 4 (1 + tau)(n + 1)^2 u`` (``u`` the unit
    roundoff); ``W`` must have passed ``require_unitary(W, tau)``.  False
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


def _cayley_phases(w: np.ndarray, tol: float) -> np.ndarray:
    """The path method's phases up to ``CAYLEY_DIM_LIMIT``: ``2 arctan`` of
    ``eigvalsh`` of the Hermitian part ``H`` of ``iX^``, ``X^`` the computed
    solution ``X`` of ``(1 + W) X = 1 - W``.

    For a unitary ``U`` without eigenvalue -1, ``A_U = i(1 - U)(1 + U)^{-1}``
    is Hermitian with eigenvalues ``tan(phi_j / 2)``, ``phi_j`` the
    eigenphases of ``U`` in (-pi, pi), which ``2 arctan`` returns.  Let ``W``
    have passed the gates of :func:`winding_of_unitary` at ``tau = tol``
    (so ``tau <= 1e-3``), ``U`` be its polar factor, ``n`` the dimension, ``u``
    the unit roundoff and ``rho`` the Frobenius norm of the computed residual
    ``(1 + W) X^ - (1 - W)``.  Then the sorted phases returned lie within
    ``4 tau / (c (c - tau)) + 2 rho / (c - tau) + 30 n (n + 3) u`` of the
    sorted ``phi_j``, ``c = 2 cos(pi/6 + tau)``:

    * ``||W - U|| <= ||W*W - 1|| <= tau`` (module docstring) and
      ``||U - 1|| < 1 + tau``, so ``|phi_j| < 2 arcsin((1 + tau)/2)
      < pi/3 + 2 tau``, ``||(1 + U)^{-1}|| <= 1/c`` and, as
      ``1 + W = (1 + U) + (W - U)``, ``||(1 + W)^{-1}|| <= 1/(c - tau)``.
    * ``(1 - Y)(1 + Y)^{-1} = 2(1 + Y)^{-1} - 1`` gives
      ``A_W - A_U = 2i (1 + W)^{-1} (U - W)(1 + U)^{-1}``, so ``A_W = iX``
      lies within ``2 tau / (c (c - tau))`` of ``A_U``, and so does its
      Hermitian part, ``A_U`` being Hermitian.
    * No growth factor of the LU solve is assumed:
      ``X^ - X = (1 + W)^{-1} R`` with ``R = (1 + W) X^ - (1 - W)``.  Forming
      ``1 + W``, ``1 - W``, the product and the difference moves the computed
      residual from ``R`` by ``g <= 3 n (n + 3) u`` in the Frobenius norm
      (complex inner products as in Higham, Accuracy and Stability,
      section 3.6, with ``||1 + W||_F <= 2.01 sqrt(n)`` and
      ``||X^||_F < 0.6 sqrt(n)``), so ``||X^ - X|| <= (rho + g)/(c - tau)``.
      A ``rho`` above ``EIG_RESIDUE_TOL / n`` is refused with
      :class:`NumericalInconsistency` carrying ``rho``.
    * Forming ``H`` moves it by at most ``u ||X^||_F``, and ``eigvalsh``
      returns the exact spectrum of ``H + E`` with ``||E|| <= 20 n^2 u ||H||``
      (Golub & Van Loan section 8.3, their modest constant taken at most 20).
    * By Weyl's inequality (Golub & Van Loan chapter 8) no sorted eigenvalue
      moves by more than the sum of these norms, and ``2 arctan`` (``arctan``
      is Lipschitz with constant 1) at most doubles it, adding ``2 pi u`` of
      its own; the rounding terms, doubled, stay below ``30 n (n + 3) u``.

    With ``c (c - tau) > 2.9948`` the phase sum over 2 pi then moves by under
    ``0.2126 n tau`` for the first term, ``1.84e-7`` below the refused
    residual and ``2.2e-9`` for rounding at ``n <= CAYLEY_DIM_LIMIT``.  The
    ``phi_j`` sum to ``arg det W`` (``|det W - 1| <= DET_TOL``, so under
    ``1.6e-9`` turns) minus 2 pi times the winding of ``U``, the winding of
    ``W``.  So the path's sum lies within ``n tau / 3 + 2e-7`` of the
    winding the eigenvalue method certifies: inside the residue tolerance,
    and the dual-method gate cannot fire on an input that passes the gates.
    """
    n = w.shape[0]
    plus = w.copy()
    plus.flat[:: n + 1] += 1.0
    minus = -w
    minus.flat[:: n + 1] += 1.0
    x = np.linalg.solve(plus, minus)
    residual = plus @ x
    residual -= minus
    rho = float(np.linalg.norm(residual))
    if not rho <= EIG_RESIDUE_TOL / n:
        raise NumericalInconsistency(
            f"Cayley solve residual {rho:.3e} exceeds {EIG_RESIDUE_TOL / n:.3e}; "
            "the path phases are not certified",
            measured=rho,
        )
    h = x - x.conj().T
    h *= 0.5j
    return 2.0 * np.arctan(np.linalg.eigvalsh(h))


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
    checks at ``UNITARITY_TOL`` (module docstring).
    """
    tol = float(unitarity_tol)
    w = require_unitary(as_matrix(w), tol=tol, what="winding input")
    _require_distance_below_one(w, tol, _distance)
    det = complex(np.linalg.det(w))
    if abs(det - 1.0) > DET_TOL:
        raise OpenPath(
            f"det(W) = {det:.12g} sits {abs(det - 1.0):.3e} from 1; path not closed",
            measured=abs(det - 1.0),
        )
    if w.shape[0] * tol > HERMITIAN_PHASE_BUDGET:
        tol = UNITARITY_TOL
        w = require_unitary(polar_unitaries(w[None])[0], tol, "polar factor of the winding input")
        _require_distance_below_one(w, tol, "||U - 1|| (U the polar factor of W)")
    theta, residue_tol = _eigenphases(w, tol)
    total = -float(np.sum(theta)) / (2.0 * np.pi)
    w_eig = int(round(total))
    if abs(total - w_eig) > residue_tol:
        raise OpenPath(
            f"eigenvalue argument sum {total!r} does not round to an integer",
            measured=abs(total - w_eig),
        )
    path_theta = _cayley_phases(w, tol) if w.shape[0] <= CAYLEY_DIM_LIMIT else theta
    w_path, clearance = _path_winding(path_theta, residue_tol)
    if w_path != w_eig:
        raise NumericalInconsistency(
            f"winding methods disagree: eigenvalue {w_eig}, path {w_path}",
            measured=(w_eig, w_path),
        )
    return WindingReport(winding=w_eig, min_clearance=clearance, samples_used=1,
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
    are checked (:class:`InvalidSize`) before either unitarity gate.
    """
    tol = float(unitarity_tol)
    u, v = as_matrices((u, v), ("first of the pair", "second of the pair"))
    u = require_unitary(u, tol=tol, what="first of the pair")
    v = require_unitary(v, tol=tol, what="second of the pair")
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

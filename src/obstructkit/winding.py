"""Winding numbers of determinant paths attached to almost-commuting unitaries.

For a unitary ``W`` with ``||W - 1|| < 1`` the path ``t -> det(t + (1-t)W)``
on [0, 1] is closed (when ``det W = 1``) and avoids the origin, so it has a
winding number.  Two algorithms compute it and must agree:

* eigenvalue method — minus the sum of the eigenphases over 2 pi, which must
  round to an integer.  When ``n tau <= HERMITIAN_PHASE_BUDGET`` (``n`` the
  dimension, ``tau`` the unitarity tolerance) the phases are read off the
  Hermitian part ``S = (W - W*)/2i`` as ``arcsin(eigvalsh(S))``.  This is
  certified: the input check gives ``||W*W - 1|| <= tau``, so by the polar
  decomposition ``W`` lies within ``tau`` of a unitary ``U``;
  ``||W - 1|| < 1`` keeps every eigenphase of ``U`` within ``2 tau`` of
  (-pi/3, pi/3), where for ``tau <= 1e-3`` ``arcsin`` inverts ``sin`` with
  Lipschitz constant below 2.02; and Weyl's inequality moves each eigenvalue
  of ``S`` by at most ``||W - U|| <= tau``.  Each phase is thus off by at
  most ``2.02 tau`` and the winding sum by ``2.02 n tau / 2 pi < n tau / 3``,
  so the residue gate allows ``EIG_RESIDUE_TOL + n tau / 3`` and the
  integer is certified with room to spare.  Looser tolerances void that
  bound (a defect of 1e-2 at dim 400 can move the sum by more than 1/2), so
  they take the phases as the arguments of ``np.linalg.eigvals(W)``, whose
  sum follows ``arg det W`` to rounding;
* path method — the wrapped argument increments of the determinant summed
  over one batch of samples on the grid of ``_certified_intervals(theta)``
  intervals, on which no true increment reaches pi/2; a wrapped jump at or
  above pi/2 is refused, not refined (proof in ``_path_winding``).  Up to
  ``DENSE_DET_DIM_LIMIT`` the samples are dense LU determinants, independent
  of the eigensolve; above it they are products over the eigenphases, so
  the path method there cross-checks the summation and the grid, not the
  phases.

Sign convention: the reported winding is counterclockwise-positive for the
path ``t + (1-t)W`` as written.  Under it the clock-and-shift pair winds to
-1.  Reports for commutator products of homology decompositions are
normalized to this same orientation and flagged, since the class pairing is
conventionally written with the reversed path ``(1-t) + tW``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    HypothesisViolation,
    NotUnitary,
    NumericalInconsistency,
    OpenPath,
)
from .matcore import (
    UNITARITY_TOL,
    as_matrix,
    dagger,
    identity,
    op_norm,
    require_unitary,
)
from .seeding import haar_unitary

DET_TOL = 1e-8
EIG_RESIDUE_TOL = 1e-6
# Largest dim * tau for which the Hermitian eigenphases are certified.
HERMITIAN_PHASE_BUDGET = 1e-3
INITIAL_INTERVALS = 64
# Above this dimension the path samples the determinant through the spectral
# factorization instead of dense LU factorizations (see _sample_path).
DENSE_DET_DIM_LIMIT = 160
# Dense samples per LU stack: 13 MB at dim 160, however many the grid asks for.
DET_BATCH = 32


@dataclass(frozen=True)
class WindingReport:
    """Result of a dual-method winding computation.

    ``agreement`` is always True on a returned report (disagreement raises);
    ``min_clearance`` is the smallest sampled ``|det|`` along the path, so a
    positive value witnesses that the path misses the origin on the sample
    set.  ``source_path_reversed`` marks reports normalized from the
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


def winding_report_to_json(r: WindingReport) -> dict:
    return asdict(r)


def _sample_path(w: np.ndarray, theta: np.ndarray, ts: np.ndarray):
    """Magnitude and wrapped argument of ``det(t + (1-t)W)`` at each ``t``.

    Dense LU determinants up to ``DENSE_DET_DIM_LIMIT``; above it, where one
    O(dim^3) factorization per sample would dominate, products of the factors
    ``t + (1-t) exp(i theta_j)`` (``t + (1-t)W`` shares eigenvectors with ``W``).
    """
    dim = w.shape[0]
    if dim <= DENSE_DET_DIM_LIMIT:
        diag = np.arange(dim)
        z = np.empty(len(ts), dtype=np.complex128)
        for lo in range(0, len(ts), DET_BATCH):
            t = ts[lo : lo + DET_BATCH]
            # one allocation per batch: t on the diagonal of (1 - t) W has the
            # bits of t I + (1 - t) W, as t * 0 + x == x and addition commutes
            stack = (1.0 - t)[:, None, None] * w
            stack[:, diag, diag] += t[:, None]
            z[lo : lo + DET_BATCH] = np.linalg.det(stack)
        return np.abs(z), np.angle(z)
    factors = ts[:, None] + np.outer(1.0 - ts, np.exp(1j * theta))
    mag = np.exp(np.sum(np.log(np.abs(factors)), axis=1))
    ang = np.angle(np.exp(1j * np.sum(np.angle(factors), axis=1)))
    return mag, ang


def _certified_intervals(theta: np.ndarray) -> int:
    """Grid size on which no true increment of the sampled argument reaches pi/2.

    Along ``t -> t + (1-t) lam`` the argument moves monotonically at speed
    ``|Im lam| / |t + (1-t) lam|^2``.  For ``lam = exp(i theta)`` the chord
    stays at least ``cos(theta / 2)`` from the origin, so that speed is at
    most ``2 |tan(theta / 2)|`` and ``speed = sum_j 2 |tan(theta_j / 2)|``
    bounds ``|d/dt arg det|``.  On ``N = ceil(2 speed / pi) + 1`` intervals,
    factors whose top speeds sum to less than ``speed + pi/2`` move the
    argument by less than ``(speed + pi/2) / N <= pi/2`` per interval (the
    slack ``_path_winding`` spends on the dense branch).  With
    ``|theta_j| < pi/2`` (``||W - 1|| < 1``) that is under ``1.28 dim + 1``
    intervals, and under ``0.74 dim + 1`` on the Hermitian route;
    ``INITIAL_INTERVALS`` is the floor.
    """
    speed = 2.0 * float(np.sum(np.abs(np.tan(theta / 2.0))))
    return max(INITIAL_INTERVALS, math.ceil(2.0 * speed / math.pi) + 1)


def _path_winding(w: np.ndarray, theta: np.ndarray, residue_tol: float):
    """Path winding from one batch of ``_certified_intervals(theta) + 1`` samples.

    A wrapped jump at or above pi/2 raises :class:`NumericalInconsistency`
    carrying the jump, since on a valid input no true increment reaches pi/2.
    Proof: let ``E`` bound how far the sampled factors' top speeds sum past
    ``speed`` (``_certified_intervals``); ``E < pi/2`` suffices.

    * Above ``DENSE_DET_DIM_LIMIT`` the factors are the ``exp(i theta_j)``
      themselves, so ``E = 0``.
    * Up to it the samples are ``prod_j (t + (1-t) lam_j)`` over the
      eigenvalues ``lam = r e^{i phi}`` of ``W``.  The unitarity check puts
      ``W`` within ``tau`` of its polar factor ``U``, so by Bauer-Fike
      ``|r - 1| <= tau``, and ``|lam - 1| <= ||W - 1|| < 1`` keeps each chord
      off the origin.  A chord's top speed ``r |sin phi| / d^2`` (``d`` its
      distance from 0) exceeds ``2 |tan(phi / 2)|`` by
      ``(r - 1)^2 / (r |sin phi|)`` with ``sin^2 phi >= |1 - r^2| / max(1, r^2)``
      when its nearest point to 0 is interior, and by at most
      ``|r - 1| |sin phi| / min(1, r)`` with ``sin^2 phi < 2 tau`` when that
      point is an endpoint: either way by at most
      ``sqrt(2) tau^{3/2} / (1 - tau)``.  On the ``eigvals`` route
      ``theta_j = phi_j``, so ``E <= sqrt(2) n tau^{3/2} / (1 - tau)``, below
      pi/2 whenever ``n tau^{3/2} <= 1`` and ``tau <= 0.09``: every
      ``tau <= 0.033`` at dim 160.  On the Hermitian route (``n tau <= 1e-3``)
      ``theta`` is within ``2.02 tau`` of the phases of ``U`` (module
      docstring), and the eigenvalues of ``W`` pair with those of ``U`` within
      ``2 n tau`` (each lies within ``tau`` of the spectrum of ``U``, and by
      continuity from ``U`` every connected union of those ``tau``-discs holds
      as many of either), so their arguments within ``pi n tau``; as
      ``2 tan(phi / 2)`` has slope at most 2 for ``|phi| < pi/2``,
      ``E <= 2 pi n^2 tau + 4.04 n tau + sqrt(2) n tau^{3/2} / (1 - tau)``,
      under 1.02 at ``n <= 160``.

    The sum of the increments must lie within ``residue_tol`` of an integer:
    on the eigenvalue-factor branch it equals minus the phase sum over 2 pi,
    so it carries the same certified error as the eigenvalue method.
    """
    intervals = _certified_intervals(theta)
    mag, ang = _sample_path(w, theta, np.linspace(0.0, 1.0, intervals + 1))
    jumps = np.angle(np.exp(1j * np.diff(ang)))
    worst = float(np.max(np.abs(jumps)))
    if worst >= np.pi / 2.0:
        raise NumericalInconsistency(
            f"wrapped path jump {worst:.6f} reaches pi/2 on the certified grid "
            f"of {intervals} intervals; the samples do not follow the phases",
            measured=worst,
        )
    total = float(np.sum(jumps)) / (2.0 * np.pi)
    winding = int(round(total))
    if abs(total - winding) > residue_tol:
        raise NumericalInconsistency(
            f"path argument sum {total!r} does not close to an integer winding"
        )
    clearance = float(mag.min())
    if not clearance > 0.0:
        raise NumericalInconsistency(
            "sampled determinant magnitude reached zero; path not conclusive"
        )
    return winding, clearance, intervals + 1


def winding_of_unitary(
    w,
    unitarity_tol: float | None = None,
    _source_reversed: bool = False,
    _distance: str = "||W - 1||",
) -> WindingReport:
    """Winding of ``t -> det(t + (1-t)W)`` by both methods, which must agree.

    Requires ``W`` unitary within tolerance, ``||W - 1|| < 1`` (the path then
    cannot meet the origin) and ``|det W - 1| <= 1e-8`` (the path is closed).
    The Hermitian eigenphases are certified only once the first two checks
    pass, so they run first.
    """
    tol = UNITARITY_TOL if unitarity_tol is None else float(unitarity_tol)
    w = require_unitary(w, tol=tol, what="winding input")
    dim = w.shape[0]
    dist = op_norm(w - identity(dim))
    if dist >= 1.0:
        raise HypothesisViolation(
            f"{_distance} = {dist:.6f} >= 1; the determinant path may hit zero",
            measured=dist,
        )
    det = complex(np.linalg.det(w))
    if abs(det - 1.0) > DET_TOL:
        raise OpenPath(
            f"det(W) = {det:.12g} sits {abs(det - 1.0):.3e} from 1; path not closed"
        )
    if dim * tol <= HERMITIAN_PHASE_BUDGET:
        theta = np.arcsin(np.linalg.eigvalsh((w - dagger(w)) / 2j))
        residue_tol = EIG_RESIDUE_TOL + dim * tol / 3.0
    else:
        theta = np.angle(np.linalg.eigvals(w))
        residue_tol = EIG_RESIDUE_TOL
    total = -float(np.sum(theta)) / (2.0 * np.pi)
    w_eig = int(round(total))
    if abs(total - w_eig) > residue_tol:
        raise OpenPath(
            f"eigenvalue argument sum {total!r} does not round to an integer"
        )
    w_path, clearance, samples = _path_winding(w, theta, residue_tol)
    if w_path != w_eig:
        raise NumericalInconsistency(
            f"winding methods disagree: eigenvalue {w_eig}, path {w_path}"
        )
    return WindingReport(
        winding=w_eig,
        min_clearance=clearance,
        samples_used=samples,
        eigenvalue_method=w_eig,
        path_method=w_path,
        agreement=True,
        source_path_reversed=_source_reversed,
    )


def winding_pair(u, v, unitarity_tol: float | None = None) -> WindingReport:
    """Winding of the multiplicative commutator ``u v u* v*``.

    Defined when ``||uvu*v* - 1|| < 1``, the gate ``winding_of_unitary``
    measures; for unitaries ``uvu*v* - 1 = (uv - vu) u*v*`` makes that norm
    ``||uv - vu||``, so it is measured once.  Swapping the pair inverts the
    commutator and so negates the winding.
    """
    tol = UNITARITY_TOL if unitarity_tol is None else float(unitarity_tol)
    u = require_unitary(u, tol=tol, what="first of the pair")
    v = require_unitary(v, tol=tol, what="second of the pair")
    if u.shape != v.shape:
        raise NotUnitary("pair must share one dimension")
    w = u @ v @ dagger(u) @ dagger(v)
    # the product of four tol-almost-unitaries is only (4 tol)-almost-unitary
    return winding_of_unitary(
        w, unitarity_tol=5.0 * tol, _distance="||uvu*v* - 1|| (= ||uv - vu|| for unitaries)"
    )


def winding_class(phi, decomp) -> WindingReport:
    """Winding attached to a commutator decomposition of a homology class.

    Evaluates ``W`` as the product of matrix commutators of the values of
    ``phi`` on the decomposition's word pairs; ``winding_of_unitary`` refuses
    ``||W - 1|| >= 1`` with :class:`HypothesisViolation`.
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
    w = identity(phi.dim)
    for a_word, b_word in decomp.pairs:
        av = phi.evaluate(a_word, "adjoint")
        bv = phi.evaluate(b_word, "adjoint")
        w = w @ (av @ bv @ dagger(av) @ dagger(bv))
    # each commutator factor multiplies four almost-unitaries
    tol = 5.0 * UNITARITY_TOL * max(1, len(decomp.pairs))
    return winding_of_unitary(w, unitarity_tol=tol, _source_reversed=True)


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
    return as_matrix(w), -k

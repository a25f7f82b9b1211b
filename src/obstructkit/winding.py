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
* path method — sampling of the determinant along the path, accumulating
  wrapped argument increments until every consecutive jump is below pi/2.
  Above ``DENSE_DET_DIM_LIMIT`` the first grid is already fine enough that
  no jump can alias (see ``_path_winding``).

Sign convention: the reported winding is counterclockwise-positive for the
path ``t + (1-t)W`` as written.  Under it the clock-and-shift pair winds to
-1.  Reports for commutator products of homology decompositions are
normalized to this same orientation and flagged, since the class pairing is
conventionally written with the reversed path ``(1-t) + tW``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
MAX_PATH_SAMPLES = 2 ** 20
# Above this dimension the path samples the determinant through the spectral
# factorization instead of dense LU factorizations (see _PathSampler).
DENSE_DET_DIM_LIMIT = 160


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
    return {
        "winding": r.winding,
        "min_clearance": r.min_clearance,
        "samples_used": r.samples_used,
        "eigenvalue_method": r.eigenvalue_method,
        "path_method": r.path_method,
        "agreement": r.agreement,
        "orientation": r.orientation,
        "source_path_reversed": r.source_path_reversed,
    }


class _PathSampler:
    """Evaluates magnitude and wrapped argument of ``det(t + (1-t)W)``.

    Small dimensions use dense LU determinants, a route independent of the
    eigensolve.  Large dimensions would pay O(dim^3) per sample, so they
    evaluate the product of the factors ``t + (1-t) exp(i theta_j)`` over the
    eigenphases ``theta`` of ``W`` (exact up to the phase error bounded in the
    module docstring, since ``t + (1-t)W`` shares eigenvectors with ``W``);
    the path method then still differs from the eigenvalue method in
    everything downstream of the eigensolve — wrapped per-sample arguments
    and continuation over a certified grid instead of phase summation.
    """

    def __init__(self, w: np.ndarray, theta: np.ndarray):
        self._w = w
        self._lam = np.exp(1j * theta)
        self._dim = w.shape[0]
        self.dense = self._dim <= DENSE_DET_DIM_LIMIT

    def __call__(self, ts: np.ndarray):
        if self.dense:
            stack = ts[:, None, None] * np.eye(self._dim) + (1.0 - ts)[
                :, None, None
            ] * self._w
            z = np.linalg.det(stack)
            return np.abs(z), np.angle(z)
        factors = ts[:, None] + np.outer(1.0 - ts, self._lam)
        mag = np.exp(np.sum(np.log(np.abs(factors)), axis=1))
        ang = np.angle(np.exp(1j * np.sum(np.angle(factors), axis=1)))
        return mag, ang


def _wrap_angle_diff(angles: np.ndarray) -> np.ndarray:
    return np.angle(np.exp(1j * np.diff(angles)))


def _certified_intervals(theta: np.ndarray) -> int:
    """First-grid size on which the eigenvalue-factor path cannot alias.

    The sampler's factor ``t + (1-t) exp(i theta_j)`` runs along a chord of
    the unit circle, so its argument moves monotonically from ``theta_j`` to
    0 at speed ``|Im((1 - e^{i theta}) / (t + (1-t) e^{i theta}))|``, at most
    ``2 |sin(theta_j / 2)| / cos(theta_j / 2)``: the chord stays at least
    ``cos(theta_j / 2)`` from the origin.  ``speed = sum_j 2 |tan(theta_j/2)|``
    thus bounds ``|d/dt arg det|`` for what is sampled, and on
    ``ceil(2 speed / pi) + 1`` intervals each true increment is below pi/2,
    so no wrapped jump can alias a true one above 3 pi/2.  With
    ``|theta_j| < pi/2`` (``||W - 1|| < 1``) that is under ``1.28 dim + 1``
    intervals, and under ``0.74 dim + 1`` on the Hermitian route.
    """
    speed = 2.0 * float(np.sum(np.abs(np.tan(theta / 2.0))))
    return max(INITIAL_INTERVALS, math.ceil(2.0 * speed / math.pi) + 1)


def _path_winding(w: np.ndarray, theta: np.ndarray, residue_tol: float):
    """Path winding, refining the grid until every wrapped jump is below pi/2.

    The eigenvalue-factor branch starts from ``_certified_intervals(theta)``;
    the dense branch keeps the adaptive refinement from
    ``INITIAL_INTERVALS``.  The sum of the increments must lie within
    ``residue_tol`` of an integer: on the eigenvalue-factor branch it equals
    minus the phase sum over 2 pi, so it carries the same certified error as
    the eigenvalue method.
    """
    sample = _PathSampler(w, theta)
    intervals = INITIAL_INTERVALS
    if not sample.dense:
        intervals = _certified_intervals(theta)
    ts = np.linspace(0.0, 1.0, intervals + 1)
    mag, ang = sample(ts)
    while True:
        jumps = _wrap_angle_diff(ang)
        bad = np.abs(jumps) >= (np.pi / 2.0)
        if not bad.any():
            break
        mids = (ts[:-1][bad] + ts[1:][bad]) / 2.0
        if len(ts) + len(mids) > MAX_PATH_SAMPLES:
            raise NumericalInconsistency(
                f"path refinement exceeded {MAX_PATH_SAMPLES} samples; "
                "determinant path too wild to continue"
            )
        mmag, mang = sample(mids)
        idx = np.searchsorted(ts, mids)
        ts = np.insert(ts, idx, mids)
        mag = np.insert(mag, idx, mmag)
        ang = np.insert(ang, idx, mang)
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
    return winding, clearance, len(ts)


def winding_of_unitary(
    w, unitarity_tol: float | None = None, _source_reversed: bool = False
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
            f"||W - 1|| = {dist:.6f} >= 1; the determinant path may hit zero",
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

    Defined when ``||uv - vu|| < 1``; for unitaries that norm equals
    ``||uvu*v* - 1||``.  Swapping the pair inverts the commutator and so
    negates the winding.
    """
    tol = UNITARITY_TOL if unitarity_tol is None else float(unitarity_tol)
    u = require_unitary(u, tol=tol, what="first of the pair")
    v = require_unitary(v, tol=tol, what="second of the pair")
    if u.shape != v.shape:
        raise NotUnitary("pair must share one dimension")
    defect = op_norm(u @ v - v @ u)
    if defect >= 1.0:
        raise HypothesisViolation(
            f"||uv - vu|| = {defect:.6f} >= 1; winding of the pair undefined",
            measured=defect,
        )
    w = u @ v @ dagger(u) @ dagger(v)
    # the product of four tol-almost-unitaries is only (4 tol)-almost-unitary
    return winding_of_unitary(w, unitarity_tol=5.0 * tol)


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

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
* path method — the wrapped argument increments of the determinant summed
  over one batch of samples on the grid of ``_certified_intervals(theta)``
  intervals, on which no true increment reaches pi/2; a wrapped jump at or
  above pi/2 is refused, not refined (proof in ``_path_winding``).  Up to
  ``DENSE_DET_DIM_LIMIT`` the samples come from one Householder reduction
  of ``W`` to Hessenberg form and Hyman's recurrence, O(dim^2) per sample
  and independent of the eigensolve; above it they are products over the
  eigenphases, so the path method there cross-checks the summation and the
  grid, not the phases.

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
INITIAL_INTERVALS = 64
# Above this dimension the path samples the determinant through the spectral
# factorization instead of Hyman's recurrence (see _sample_path).
DENSE_DET_DIM_LIMIT = 160
# Columns per blocked Householder update in _hessenberg: at dim 160 on a
# 2-core x86-64 VM, blocks of 32 took 9.0 ms, of 8-16 11.6-11.7 ms and of
# 64 15.7 ms.
HESSENBERG_BLOCK = 32
# Hyman's recurrence rescales before max |x| can pass exp(HYMAN_LOG_LIMIT).
HYMAN_LOG_LIMIT = 600.0


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


def _hessenberg(w: np.ndarray) -> np.ndarray:
    """Upper Hessenberg ``H = Q* W Q`` by blocked Householder reflections.

    Column ``j`` is reduced by ``P = 1 - beta v v*``, which maps
    ``x = H[j+1:, j]`` to ``-e^{i arg x_0} ||x|| e_1``; ``v`` is built from
    ``x`` scaled by its largest entry, so tiny columns neither underflow nor
    divide by zero.  A column that is already reduced (``x[1:] = 0``: every
    column of a diagonal ``W``, and the block edges of a block-diagonal one)
    gets no reflection, so its zero subdiagonal stays exactly zero.  The
    reflections of ``HESSENBERG_BLOCK`` columns are gathered as
    ``1 - V T V*`` with ``Y = A V T`` (``A`` the matrix at the block's
    start); each column of the block is brought up to date from them just
    before it is reduced, and the rest of the matrix once per block by two
    matrix products, ``A <- (1 - V T* V*)(A - Y V*)``: the compact WY form of
    LAPACK's ``zgehrd`` (Golub & Van Loan section 7.4).  ``T*`` is stored.
    Entries below the subdiagonal are returned as zeros; ``Q`` is not kept.
    """
    a = np.array(w, dtype=np.complex128)
    n = a.shape[0]
    for j0 in range(0, n - 2, HESSENBERG_BLOCK):
        j1 = min(j0 + HESSENBERG_BLOCK, n - 2)
        v_all = np.zeros((n, j1 - j0), dtype=np.complex128)
        vh_all = np.zeros((j1 - j0, n), dtype=np.complex128)
        y_all = np.zeros((n, j1 - j0), dtype=np.complex128)
        th_all = np.zeros((j1 - j0, j1 - j0), dtype=np.complex128)
        for c, j in enumerate(range(j0, j1)):
            col = a[:, j]
            col -= y_all[:, :c] @ vh_all[:c, j]
            col -= v_all[:, :c] @ (th_all[:c, :c] @ (vh_all[:c] @ col))
            x = col[j + 1 :]
            if not x[1:].any():
                continue
            scale = np.abs(x).max()
            v = x / scale
            alpha = math.sqrt(np.vdot(v, v).real)
            head = abs(v[0])
            phase = v[0] / head if head > 0.0 else 1.0
            v[0] = phase * (head + alpha)
            beta = 1.0 / (alpha * (alpha + head))  # 2 / ||v||^2
            x[0] = -phase * alpha * scale
            x[1:] = 0.0
            v_all[j + 1 :, c] = v
            vh = np.conjugate(v, out=vh_all[c, j + 1 :])
            vv = vh_all[:c, j + 1 :] @ v
            th_all[c, :c] = -beta * (vh @ v_all[j + 1 :, :c]) @ th_all[:c, :c]
            th_all[c, c] = beta
            y_all[:, c] = beta * (a[:, j + 1 :] @ v - y_all[:, :c] @ vv)
        a[:, j1:] -= y_all @ vh_all[:, j1:]
        rows = a[j0 + 1 :, j1:]
        rows -= v_all[j0 + 1 :] @ (th_all @ (vh_all[:, j0 + 1 :] @ rows))
    return a


def _hyman_log_det(h: np.ndarray, ts: np.ndarray):
    """``log |det M_t|`` and ``arg det M_t`` (unwrapped) for ``M_t = t + (1-t)H``.

    ``H`` is upper Hessenberg.  ``t = 1`` gives ``det 1 = 1`` and is set, not
    computed; for ``t < 1``, ``M_t = (1-t)(rho + H)`` with ``rho = t/(1-t)``.
    A subdiagonal entry at most ``u ||H||_F`` (``u`` the unit roundoff, so
    every exact zero) splits ``H`` into diagonal blocks whose determinants
    multiply; dropping it moves ``W`` by at most ``u ||W||_F``.  In each
    block Hyman's recurrence runs from its last row up, for the whole batch
    of ``rho`` at once: ``x`` with last entry 1 solves every row but the
    first of ``(rho + H) x = r e_1``, row ``i`` giving
    ``x_{i-1} = -(rho x_i + H[i, i:] x) / h_{i,i-1}`` (one gemv), and the
    block's determinant is ``(-1)^{m-1} r prod h_{i,i-1}`` (Cramer's rule
    for the last entry of ``x``): O(n^2) per sample.  No row grows ``max |x|``
    by more than ``(rho + ||H[i]||_1) / |h_{i,i-1}|``, so ``x`` is scaled by
    a power of two to ``max |x| < 1`` before that bound reaches
    ``exp(HYMAN_LOG_LIMIT)``, and nothing overflows.  Every factor enters
    the logarithm as ``log m + k log 2`` with ``m`` in [1/2, 1) and the
    integer exponents summed exactly: a plain sum of the factors' logarithms
    (hundreds each way at dim 160) was off by up to 1e-12 against ``det``.
    """
    n = h.shape[0]
    log_mag = np.zeros(len(ts))
    ang = np.zeros(len(ts))
    inner = ts < 1.0
    t = ts[inner]
    rho = t / (1.0 - t)
    sub = np.diagonal(h, -1)
    split = np.abs(sub) <= UNIT_ROUNDOFF * np.linalg.norm(h)
    kept = sub[~split]
    grow = np.log(rho.max(initial=0.0) + np.abs(h[1:][~split]).sum(axis=1))
    grow -= np.log(np.abs(kept))
    every = max(1, int(HYMAN_LOG_LIMIT // max(grow.max(initial=1.0), 1.0)))
    mantissa, exponent = np.frexp(1.0 - t)
    log_small = n * np.log(mantissa)
    powers = n * exponent
    mantissa, exponent = np.frexp(np.abs(kept))
    log_small += np.log(mantissa).sum()
    powers += exponent.sum()
    dets = []
    x = np.empty((n, len(t)), dtype=np.complex128)
    x[-1] = 1.0
    hi, rows = n, 0
    for i in range(n - 1, -1, -1):
        r = h[i, i:hi] @ x[i:hi]
        r += rho * x[i]
        if i == 0 or split[i - 1]:
            dets.append(r)
            hi, rows = i, 0
            x[i - 1] = 1.0  # the next block's last entry (at i = 0, unread)
            continue
        np.multiply(r, -1.0 / sub[i - 1], out=x[i - 1])
        rows += 1
        if rows == every:
            exponent = np.frexp(np.abs(x[i - 1 : hi]).max(axis=0))[1]
            x[i - 1 : hi] *= np.ldexp(1.0, -exponent)
            powers += exponent
            rows = 0
    dets = np.array(dets)
    mantissa, exponent = np.frexp(np.abs(dets))
    log_small += np.log(mantissa).sum(axis=0)
    powers += exponent.sum(axis=0)
    log_mag[inner] = log_small + powers * math.log(2.0)
    ang[inner] = np.angle(dets).sum(axis=0) + np.angle(kept).sum() + np.pi * len(kept)
    return log_mag, ang


def _sample_path(w: np.ndarray, theta: np.ndarray, ts: np.ndarray):
    """Magnitude and argument (mod 2 pi) of ``det(t + (1-t)W)`` at each ``t``.

    Up to ``DENSE_DET_DIM_LIMIT``: one Householder reduction ``H = Q* W Q``
    (:func:`_hessenberg`) and Hyman's recurrence on ``t + (1-t)H`` for the
    whole batch (:func:`_hyman_log_det`), O(dim^2) per sample; neither
    reads ``theta``.  Above it, where the O(dim^3) reduction in numpy would
    dominate, products of the factors ``t + (1-t) exp(i theta_j)``
    (``t + (1-t)W`` shares eigenvectors with ``W``).
    """
    if w.shape[0] <= DENSE_DET_DIM_LIMIT:
        log_mag, ang = _hyman_log_det(_hessenberg(w), ts)
        return np.exp(log_mag), ang
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
    slack ``_path_winding`` spends on the dense branch).  With every
    ``theta_j`` within ``2 tau`` of (-pi/3, pi/3) (module docstring) that is
    under ``0.74 dim + 1`` intervals; ``INITIAL_INTERVALS`` is the floor.
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
      ``sqrt(2) tau^{3/2} / (1 - tau)``.  As ``n tau <= 1e-3``, ``theta``
      is within ``2.02 tau`` of the phases of ``U`` (module docstring), and
      the eigenvalues of ``W`` pair with those of ``U`` within ``2 n tau``
      (each lies within ``tau`` of the spectrum of ``U``, and by continuity
      from ``U`` every connected union of those ``tau``-discs holds as many
      of either), so their arguments within ``pi n tau``; as
      ``2 tan(phi / 2)`` has slope at most 2 for ``|phi| < pi/2``,
      ``E <= 2 pi n^2 tau + 4.04 n tau + sqrt(2) n tau^{3/2} / (1 - tau)``,
      under 1.02 at ``n <= 160``.

    Those are the exact determinants; the dense samples are computed ones.
    The Householder reduction is backward stable: ``H`` is exactly unitarily
    similar to ``W + dW`` with ``||dW||_F <= c n^2 u ||W||_F`` (``u`` the unit
    roundoff, ``c`` a modest constant; Golub & Van Loan section 7.4), and
    the splits at subdiagonals of at most ``u ||H||_F`` add ``u ||W||_F``.
    Hyman's recurrence, like back substitution, is exact for a perturbation
    of each row of ``t + (1-t)H`` below ``gamma_{2n}`` times its entries
    (Wilkinson, The Algebraic Eigenvalue Problem, 1965), and its exact
    power-of-two bookkeeping adds a relative error below ``4 n u``.  So each
    sample is ``det(M + D)`` to within that factor, with ``M = t + (1-t)W``
    and ``||D|| <= d = (c + 2) n^{5/2} u (1 + tau)``.  For unit ``x``,
    ``||Wx||^2 >= 1 - tau`` and ``||(W - 1)x|| < 1`` give
    ``Re <Wx, x> > (1 - tau)/2``, so ``||M^{-1}|| <= 2/(1 - tau)`` and
    ``det(M + D) = det M det(1 + M^{-1}D)``, whose second factor has ``n``
    eigenvalues within ``r = 2d/(1 - tau)`` of 1: it moves the argument by
    at most ``n arcsin r`` and the log-modulus by at most
    ``n |log(1 - r)|``, both under ``2 n r < 5e-7`` at ``n <= 160`` for
    ``c <= 20``.  Each wrapped jump is then off by under ``4 n r + 8 n u``,
    far inside the room the grid leaves below pi/2
    (``(pi/2)(pi/2 - E)/(speed + pi/2)``, above 4e-3 at ``n <= 160``), and
    the increments' sum by under ``2 n r + 4 n u`` (``t = 1`` is exact), far
    inside ``EIG_RESIDUE_TOL``.

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
            f"path argument sum {total!r} does not close to an integer winding",
            measured=abs(total - winding),
        )
    clearance = float(mag.min())
    if not clearance > 0.0:
        raise NumericalInconsistency(
            "sampled determinant magnitude reached zero; path not conclusive",
            measured=clearance,
        )
    return winding, clearance, intervals + 1


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


def winding_of_unitary(
    w,
    unitarity_tol: float | None = None,
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
    tol = UNITARITY_TOL if unitarity_tol is None else float(unitarity_tol)
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
    w_path, clearance, samples = _path_winding(w, theta, residue_tol)
    if w_path != w_eig:
        raise NumericalInconsistency(
            f"winding methods disagree: eigenvalue {w_eig}, path {w_path}",
            measured=(w_eig, w_path),
        )
    return WindingReport(winding=w_eig, min_clearance=clearance, samples_used=samples,
                         eigenvalue_method=w_eig, path_method=w_path, agreement=True)


def winding_pair(u, v, unitarity_tol: float | None = None) -> WindingReport:
    """Winding of the multiplicative commutator ``u v u* v*``.

    Defined when ``||uvu*v* - 1|| < 1``, the gate ``winding_of_unitary``
    measures; for unitaries ``uvu*v* - 1 = (uv - vu) u*v*`` makes that norm
    ``||uv - vu||``, so it is measured once.  Swapping the pair inverts the
    commutator and so negates the winding.  Both shapes are checked
    (:class:`InvalidSize`) before either unitarity gate.
    """
    tol = UNITARITY_TOL if unitarity_tol is None else float(unitarity_tol)
    u, v = as_matrices((u, v), ("first of the pair", "second of the pair"))
    u = require_unitary(u, tol=tol, what="first of the pair")
    v = require_unitary(v, tol=tol, what="second of the pair")
    w = u @ v @ u.conj().T @ v.conj().T
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
        av = phi.evaluate(a_word)
        bv = phi.evaluate(b_word)
        w = w @ (av @ bv @ av.conj().T @ bv.conj().T)
    # each commutator factor multiplies four almost-unitaries
    tol = 5.0 * UNITARITY_TOL * max(1, len(decomp.pairs))
    return replace(winding_of_unitary(w, unitarity_tol=tol), source_path_reversed=True)


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

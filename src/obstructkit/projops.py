"""Almost-commuting projection toolkit and the finite-dimensional index pairing.

Two circles of ideas live here.  First, projections that are close in norm
are unitarily conjugate, and when both nearly commute with a family of test
operators the conjugating unitary can be chosen to nearly commute with them
too — with the explicit constant 28 against the measured commutator scale.
Chaining such steps along a path of projections multiplies the bound by the
number of steps.  Second, an almost-commuting pair of projections (one of
block form ``diag(1, 0) + b``, one living on a tensor factor) pairs to an
integer: the rank shift of a spectral projection with a protected gap at
one half.  Finite dimensions collapse the K-class difference to that rank
difference, certified by Sylvester's law of inertia in :func:`_certify_inertia`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolation,
    HypothesisViolation,
    InvalidSize,
    NumericalInconsistency,
    ParseError,
    SubdivisionTooCoarse,
)
from .matcore import (
    UNIT_ROUNDOFF,
    as_matrices,
    as_matrix,
    coordinate_projection,
    identity,
    json_value,
    matrix_from_json,
    matrix_to_json,
    op_norms,
    polar_unitaries,
    range_projection,
    require_projection,
    require_projections,
    require_unit_ball,
    sealed,
    spectral_split,
)

CONJUGATION_EXACTNESS = 1e-9
COMMUTATOR_CONSTANT = 28.0
CHAIN_EXACTNESS = 1e-8
DEFAULT_GAP_TOL = 0.05


@dataclass(frozen=True)
class ConjugationAudit:
    """Measured guarantees of a connecting unitary.

    ``conjugation_error`` is ``||u p u* - q||`` (at most 1e-9);
    ``commutator_norms`` lists ``||[u, x]||`` per test operator, each at most
    ``28 * eps + 1e-9``; ``worst_ratio`` is the largest measured/bound ratio.
    """

    conjugation_error: float
    commutator_norms: tuple
    eps: float
    commutator_bound: float
    worst_ratio: float


def connecting_unitary(p, q, test_ops):
    """Unitary with ``u p u* = q`` that almost commutes with the test family.

    ``(p, q)`` and the test family are validated as a two-point path of
    :func:`chain_conjugation`, every shape before any value, and only then is
    ``||p - q|| < 1/4`` required.  The unitary is the polar factor of
    ``v = q p + (1 - q)(1 - p)``; since ``v p = q v`` and ``v* v`` commutes
    with ``p``, the conjugation identity holds exactly, and
    ``||[u, x]|| <= 28 eps`` for every test operator, where ``eps`` is the
    largest ``||[p, x]||`` or ``||[q, x]||``.  Both facts are asserted, with
    1e-9 slack for floating point, before returning.
    """
    path, ops = _path_and_test_ops((p, q), test_ops)
    gap = op_norms((path[0] - path[1])[None]).item()
    if gap >= 0.25:
        raise HypothesisViolation(
            f"||p - q|| = {gap:.6f} >= 1/4; no controlled conjugation", measured=gap
        )
    comm = _commutator_norms(path, ops)
    us, audits = _connecting_unitaries(path, ops, [float(comm.max(initial=0.0))])
    return us[0], audits[0]


def _path_and_test_ops(path, test_ops):
    """Both as sealed stacks, checked in order: path shapes, test-operator
    shapes, path projections, the test operators' unit ball (1e-8 slack).
    An ndarray stack is gated whole by :func:`as_matrices`, not member by member."""
    path, test_ops = (a if isinstance(a, np.ndarray) else list(a) for a in (path, test_ops))
    names = [f"path projection {i}" for i in range(len(path))]
    path = as_matrices(path, names)
    if not len(path):
        raise InvalidSize("chain_conjugation needs a nonempty path")
    n = path[0].shape[0]
    whats = [f"test operator {i}" for i in range(len(test_ops))]
    ops = as_matrices(test_ops, whats, n)
    path = sealed(np.asarray(path))
    require_projections(path, names)
    require_unit_ball(ops, 1e-8, whats)
    return path, sealed(np.asarray(ops, dtype=np.complex128).reshape(-1, n, n))


def _commutator_norms(mats: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``comm[i, j] = ||[mats[i], ops[j]]||`` from one :func:`op_norms` call."""
    n, x = mats.shape[1], mats[:, None]
    return op_norms((x @ ops - ops @ x).reshape(-1, n, n)).reshape(len(mats), len(ops))


def _connecting_unitaries(path: np.ndarray, ops: np.ndarray, step_eps):
    """The connecting unitaries of every step ``path[i] -> path[i + 1]``.

    ``path`` is a stack of projections with consecutive gaps below 1/4 and
    ``step_eps[i]`` the commutator scale of step ``i``.  All polar factors
    come from one :func:`polar_unitaries` call, which refuses the first
    singular step, and all conjugation and commutator norms from one
    :func:`op_norms` call each; the guarantees of :func:`connecting_unitary`
    are then checked in step order, so the first failing step raises.
    Returns the unitaries as a stack and one :class:`ConjugationAudit` per step.
    """
    p, q = path[:-1], path[1:]
    n = path.shape[1]
    eye = identity(n)
    us = polar_unitaries(q @ p + (eye - q) @ (eye - p))
    conj = op_norms(us @ p @ us.conj().transpose(0, 2, 1) - q).tolist()
    comm = _commutator_norms(us, ops)
    audits = []
    for i, eps in enumerate(step_eps):
        if conj[i] > CONJUGATION_EXACTNESS:
            raise NumericalInconsistency(
                f"conjugation identity failed: ||u p u* - q|| = {conj[i]:.3e}",
                measured=conj[i],
            )
        bound = COMMUTATOR_CONSTANT * eps + 1e-9
        norms = comm[i].tolist()
        worst = _commutator_worst(norms, bound, "28*eps + 1e-9")
        audits.append(ConjugationAudit(conj[i], tuple(norms), eps, bound, worst))
    return us, audits


def _commutator_worst(norms, bound: float, label: str) -> float:
    """The worst ratio of ``||[u, x]||`` to ``bound``; refuses the first norm above it."""
    for n in norms:
        if n > bound:
            raise NumericalInconsistency(
                f"commutator bound failed: ||[u,x]|| = {n:.3e} > {label} = {bound:.3e}",
                measured=n,
            )
    return max([0.0, *(n / bound for n in norms)])


@dataclass(frozen=True)
class ChainReport:
    """Guarantees for a chained conjugation along a projection path."""

    steps: int
    eps_path: float
    conjugation_error: float
    conjugation_bound: float
    commutator_norms: tuple
    commutator_bound: float
    worst_ratio: float


def chain_conjugation(path, test_ops):
    """Conjugate the first projection of a path to the last, step by step.

    Each consecutive gap must be below 1/4 (otherwise
    :class:`SubdivisionTooCoarse` reports the offending index).  With
    ``eps_path = max_i max_x ||[p_i, x]||`` and ``m`` steps, the product of
    the per-step connecting unitaries satisfies ``||u p_0 u* - p_m|| <=
    1e-8 m`` and ``||[u, x]|| <= 28 eps_path m + 1e-8`` — the telescoping
    sum of the per-step guarantees.  As in :func:`connecting_unitary`, every
    shape is validated before any value, and both before the gap rule.
    """
    path, ops = _path_and_test_ops(path, test_ops)
    m, dim = len(path) - 1, path.shape[1]
    for i, gap in enumerate(op_norms(path[:-1] - path[1:]).tolist()):
        if gap >= 0.25:
            raise SubdivisionTooCoarse(
                f"gap {gap:.6f} >= 1/4 between path positions {i} and {i + 1}",
                index=i,
                measured=gap,
            )
    # ||[p_i, x]||, measured once: eps_path and each step's eps are maxima of these
    comm = _commutator_norms(path, ops)
    eps_path = float(comm.max(initial=0.0))
    step_eps = np.maximum(comm[:-1], comm[1:]).max(axis=1, initial=0.0).tolist()
    step_us, _ = _connecting_unitaries(path, ops, step_eps)
    u = identity(dim)
    for step_u in step_us:
        u = step_u @ u

    conj_err = op_norms((u @ path[0] @ u.conj().T - path[-1])[None]).item()
    conj_bound = CHAIN_EXACTNESS * max(m, 1)
    if conj_err > conj_bound:
        raise NumericalInconsistency(
            f"chained conjugation drift {conj_err:.3e} exceeds {conj_bound:.3e}",
            measured=conj_err,
        )
    comm_bound = COMMUTATOR_CONSTANT * eps_path * m + CHAIN_EXACTNESS
    norms = op_norms(u @ ops - ops @ u).tolist()
    worst = _commutator_worst(norms, comm_bound, "28*eps*m + 1e-8")
    report = ChainReport(m, eps_path, conj_err, conj_bound, tuple(norms), comm_bound, worst)
    return sealed(u), report


# ---------------------------------------------------------------------------
# Index pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingInput:
    """Data of the index pairing.

    ``b`` is a 2N x 2N hermitian block such that ``e + b`` is a projection,
    where ``e = diag(1_N, 0_N)``; ``q`` is a projection on the N*k-dimensional
    tensor space (N factor first, k factor second); ``gap_tol`` protects the
    spectral cut at one half.
    """

    b: np.ndarray
    q: np.ndarray
    n_dim: int
    k_dim: int
    gap_tol: float = DEFAULT_GAP_TOL


def pairing_input(b, q, n_dim: int, k_dim: int, gap_tol: float = DEFAULT_GAP_TOL) -> PairingInput:
    """Validate the data of a pairing: sizes and the ``gap_tol`` bounds (exit 1)
    before the projection gates on ``e + b`` and ``q``."""
    if n_dim < 1 or k_dim < 1:
        raise InvalidSize("tensor factors must have positive dimension")
    (b,) = as_matrices((b,), ("b",), 2 * n_dim)
    (q,) = as_matrices((q,), ("q",), n_dim * k_dim)
    floor = 4.0 * _inertia_shift(2 * n_dim * k_dim, 2 * n_dim * k_dim)
    if not floor < gap_tol < 0.5:
        raise BoundViolation(f"gap_tol {gap_tol} not in ({floor:.1e}, 1/2)", measured=gap_tol)
    require_projection(coordinate_projection(2 * n_dim, n_dim) + b, what="e + b")
    require_projection(q, what="pairing projection q")
    return PairingInput(b, q, n_dim, k_dim, gap_tol)


@dataclass(frozen=True)
class PairingResult:
    """Spectral projection of the pairing operand and its integer index.

    ``index = rank - N*k`` is the finite-dimensional stand-in for the
    K-class difference against ``diag(1, 0)``, with ``rank`` certified by
    inertia; ``margin`` is the distance from the computed spectrum to one half.
    """

    projection: np.ndarray
    index: int
    rank: int
    margin: float


def pairing_operand(inp: PairingInput) -> np.ndarray:
    """The hermitian operand ``e (x) 1 + (1 (x) q)(b (x) 1)(1 (x) q)``."""
    e_big = np.kron(coordinate_projection(2 * inp.n_dim, inp.n_dim), np.eye(inp.k_dim))
    q_big = np.kron(np.eye(2), inp.q)
    b_big = np.kron(inp.b, np.eye(inp.k_dim))
    operand = e_big + q_big @ b_big @ q_big
    return sealed((operand + operand.conj().T) / 2.0)


def pairing(inp: PairingInput) -> PairingResult:
    """Pair an almost-commuting projection against block data of index type.

    The operand's spectrum must keep ``gap_tol`` clear of one half; the number
    of eigenvector columns above it, certified by :func:`_certify_inertia`, is
    the rank, and the rank minus ``N*k`` is the integer index.
    """
    operand = pairing_operand(inp)
    lam, above, below = spectral_split(operand, 0.5, inp.gap_tol)
    _certify_inertia(operand, above, below, inp.gap_tol)
    rank = above.shape[1]
    margin = float(np.min(np.abs(lam - 0.5)))
    return PairingResult(range_projection(above), rank - inp.n_dim * inp.k_dim, rank, margin)


def _inertia_shift(width: int, frob2: float) -> float:
    return 10.0 * (width + 2) * (width**0.5 + 2.0) * UNIT_ROUNDOFF * frob2


def _certify_inertia(operand, above, below, gap_tol: float) -> None:
    """Prove that ``operand`` has exactly ``above.shape[1]`` eigenvalues above
    one half, by Sylvester's law of inertia, or raise.

    Let ``A`` be the operand (``n`` wide, exactly hermitian), ``g = gap_tol``,
    ``c+- = 1/2 +- g/2``, ``V`` the columns of one side (``s`` of them, no
    orthonormality assumed), ``M = A - c+`` above the cut and ``M = c- - A``
    below it, ``K = ||V||_F^2`` as measured, ``u`` the unit roundoff and
    ``mu = 10 (n + 2)(sqrt(n) + 2) u K`` (:func:`_inertia_shift`).  Each side
    factors ``B = V* (M V) - mu`` by Cholesky; a failure raises
    :class:`NumericalInconsistency` naming the side.

    Claim: if ``B`` factors, ``V* M V`` is positive definite.  Then ``V x != 0``
    and ``(Vx)* M (Vx) > 0`` for every ``x != 0``, so ``M`` is positive
    definite on an ``s``-dimensional subspace, and by Courant-Fischer ``A`` has
    at least ``r`` eigenvalues above ``c+`` (``r`` columns above) and at least
    ``n - r`` below ``c-`` (``n - r`` below).  Together: exactly ``r`` above
    one half, none in ``[c-, c+]`` (rounded, ``c+-`` stay on their side of
    one half).  Proof of the claim, with ``||M|| <= 4`` as ``||A|| <= 3``
    once ``pairing_input`` validated ``e + b`` and ``q`` as projections:

    * forming ``M`` rounds only its diagonal, by at most ``4u``, which moves
      ``V* M V`` by at most ``4 u K``;
    * a complex product of length ``n`` errs by at most ``sqrt(2) gamma_{n+2}``
      times the product of the moduli (Higham, Accuracy and Stability,
      section 3.6), and ``|| |M| || <= sqrt(n) ||M||``, so the computed
      ``V* (M V)`` is within ``5.8 (n + 2)(sqrt(n) + 1) u K`` of the exact
      one in Frobenius norm; subtracting ``mu`` rounds the diagonal by at
      most ``u (4.1 K + mu)``;
    * Cholesky reads one triangle, so it factors the hermitian ``H`` built
      from it, within ``sqrt(2)`` times the above of ``V* M V - mu``; run to
      the end it gives ``R*R = H + E`` with ``R*R`` positive definite and
      ``||E|| <= 2 gamma_{s+1} ||R||_F^2 <= 8.2 (n + 1) u K`` (Higham,
      Theorem 10.3, doubled for complex arithmetic), so
      ``lambda_min(H) > -||E||``.

    Summed, ``lambda_min(V* M V) > mu - e`` with
    ``e <= (8.2 (n + 2)(sqrt(n) + 1) + 8.2 (n + 1) + 10) u K + 2 u mu``, below
    ``mu`` at every ``n >= 1``.  On an exact eigensolve the gap gate leaves
    ``V* M V`` a least eigenvalue of at least ``g/2``, which must cover the
    shift ``mu`` and the error ``e``; so ``pairing_input`` refuses
    ``g <= 4 mu`` at ``K = n``, the largest ``K`` of orthonormal columns.
    """
    for side, cols, sign in (("above", above, 1.0), ("below", below, -1.0)):
        shifted = sign * operand - (sign * 0.5 + gap_tol / 2.0) * np.eye(len(operand))
        mu = _inertia_shift(len(operand), float(np.vdot(cols, cols).real))
        try:
            np.linalg.cholesky(cols.conj().T @ (shifted @ cols) - mu * np.eye(cols.shape[1]))
        except np.linalg.LinAlgError:
            raise NumericalInconsistency(
                f"inertia certificate failed {side} the cut at one half", measured=side
            ) from None


def pairing_block_sum(a: PairingInput, b: PairingInput) -> PairingInput:
    """Direct sum of two pairing inputs sharing the same k factor.

    The N factors concatenate; the 2x2 block structure of ``b`` and the
    (N, k) tensor structure of ``q`` are interleaved accordingly, so the
    index of the sum is the sum of the indices.
    """
    if a.k_dim != b.k_dim:
        raise InvalidSize("block sum needs matching k factors")
    n1, n2, k = a.n_dim, b.n_dim, a.k_dim
    n = n1 + n2
    bb = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    bb.reshape(2, n, 2, n)[:, :n1, :, :n1] = a.b.reshape(2, n1, 2, n1)
    bb.reshape(2, n, 2, n)[:, n1:, :, n1:] = b.b.reshape(2, n2, 2, n2)
    qq = np.zeros((n * k, n * k), dtype=np.complex128)
    qq.reshape(n, k, n, k)[:n1, :, :n1, :] = a.q.reshape(n1, k, n1, k)
    qq.reshape(n, k, n, k)[n1:, :, n1:, :] = b.q.reshape(n2, k, n2, k)
    gap = min(a.gap_tol, b.gap_tol)
    return pairing_input(sealed(bb), sealed(qq), n, k, gap)


def pairing_input_to_json(inp: PairingInput) -> dict:
    return {
        "N": inp.n_dim,
        "k": inp.k_dim,
        "b": matrix_to_json(inp.b),
        "q": matrix_to_json(inp.q),
        "gap_tol": inp.gap_tol,
    }


def pairing_input_from_json(obj) -> PairingInput:
    try:
        b, q = matrix_from_json(obj["b"]), matrix_from_json(obj["q"])
        n_dim = json_value(obj["N"], (int,), "pairing N")
        k_dim = json_value(obj["k"], (int,), "pairing k")
        gap_tol = json_value(obj.get("gap_tol", DEFAULT_GAP_TOL), (int, float), "gap_tol")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed pairing JSON: {exc}") from exc
    return pairing_input(b, q, n_dim, k_dim, gap_tol)


# ---------------------------------------------------------------------------
# Compatibility probing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeEntry:
    eigenvalues: tuple
    passed: bool
    worst_violation: float


@dataclass(frozen=True)
class CompatibilityReport:
    """Per-probe spectra of the compressed projection against the gap window.

    Passing means every eigenvalue lies in ``[0, 1/4) U (3/4, 1]`` (with
    ``eps`` slack at the outer edges).  This samples a necessary condition:
    it can refute compatibility, never certify it over all ucp maps.
    """

    entries: tuple
    passed: bool


def compatibility_probe(q, probes, eps: float) -> CompatibilityReport:
    """Check the spectral window of ``(probe (x) id)(q)`` for each probe.

    Probes are compression quasi-representations; only their compression
    isometry is used, as the ucp map ``a -> V* a V`` applied to the first
    tensor factor of ``q``.  The k factor is inferred from the dimensions.
    Every probe's kind and size is checked before ``q``'s projection gate; a
    probe without compression data is malformed input (:class:`ParseError`).
    """
    q = as_matrix(q)
    probes = list(probes)
    for i, probe in enumerate(probes):
        if probe.compression is None:
            raise ParseError(f"probe {i} is not a compression quasi-representation")
        n = probe.compression.isometry.shape[0]
        if q.shape[0] % n != 0:
            raise InvalidSize(f"probe {i} dimension {n} does not divide {q.shape[0]}")
    require_projection(q, what="probed projection")
    entries = []
    for probe in probes:
        v = probe.compression.isometry
        v_big = np.kron(v, np.eye(q.shape[0] // v.shape[0]))
        compressed = v_big.conj().T @ q @ v_big
        eigs = np.linalg.eigvalsh((compressed + compressed.conj().T) / 2.0)
        entries.append(_probe_entry(eigs, eps))
    return CompatibilityReport(tuple(entries), all(e.passed for e in entries))


def _probe_entry(eigs: np.ndarray, eps: float) -> ProbeEntry:
    """Each eigenvalue outside ``[-eps, 1 + eps]`` violates by its distance to
    {0, 1}, each one in ``[1/4, 3/4]`` by its distance to the window's edge."""
    outside = (eigs < -eps) | (eigs > 1.0 + eps)
    inside = eigs[~outside & (eigs >= 0.25) & (eigs <= 0.75)]
    out = eigs[outside]
    excess = np.concatenate([
        np.minimum(np.abs(out), np.abs(out - 1.0)),
        np.minimum(inside - 0.25, 0.75 - inside) + 0.0,
    ])
    return ProbeEntry(tuple(eigs.tolist()), excess.size == 0, float(excess.max(initial=0.0)))

"""Winding numbers: dual-algorithm agreement, additivity, stability.

Three independent oracles: plain dense sampling of t -> det(t + (1-t)W) on
a fixed fine uniform grid, which shares no code path with the library's
certified grid; the nonsymmetric eigensolver ``np.linalg.eigvals``, which
the library's Hermitian eigenphases replace; and, up to dim 160, a path
sampled with no eigensolve at all (a Householder reduction to Hessenberg
form and Hyman's recurrence), which the library's Cayley phases replace.
"""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructkit import winding
from obstructkit.errors import (
    HypothesisViolation,
    NotUnitary,
    NumericalInconsistency,
    ObstructkitError,
    OpenPath,
)
from obstructkit.matcore import UNIT_ROUNDOFF, UNITARITY_TOL, dagger, is_unitary, op_norm
from obstructkit.quasirep import (
    clock_shift,
    honest_commuting_rep,
    unitary_pair_rep,
    voiculescu_pair,
)
from obstructkit.seeding import derive_rng, haar_unitary, random_hermitian
from obstructkit.winding import (
    INITIAL_INTERVALS,
    WindingReport,
    max_winding_for_dim,
    random_admissible_unitary,
    winding_class,
    winding_of_unitary,
    winding_pair,
)
from obstructkit.words import (
    CommutatorDecomposition,
    commutator_decompose,
    generator,
    surface_presentation,
)

A, B = generator(0), generator(1)


def brute_force_winding(w, samples=20001):
    """Uniform-grid path-sampling oracle; returns (winding, min |f|)."""
    n = w.shape[0]
    ts = np.linspace(0.0, 1.0, samples)
    eye = np.eye(n)
    dets = np.array([np.linalg.det(t * eye + (1.0 - t) * w) for t in ts])
    jumps = np.angle(np.exp(1j * np.diff(np.angle(dets))))
    total = float(np.sum(jumps))
    winding = int(round(total / (2.0 * np.pi)))
    assert abs(total / (2.0 * np.pi) - winding) < 1e-4
    return winding, float(np.min(np.abs(dets)))


def torus_pair_phase_matrix(k, dim, gen):
    """Unitary with phases summing to 2*pi*k, all small: admissible, det 1."""
    phases = np.full(dim, 2.0 * np.pi * k / dim)
    jitter = gen.uniform(-0.05, 0.05, size=dim)
    phases = phases + jitter - jitter.mean()
    q = haar_unitary(dim, gen)
    return q @ np.diag(np.exp(1j * phases)) @ dagger(q)


# ---------------------------------------------------------------------------
# winding_of_unitary
# ---------------------------------------------------------------------------


def test_identity_has_zero_winding():
    report = winding_of_unitary(np.eye(4))
    assert report.winding == 0
    assert report.min_clearance == pytest.approx(1.0)
    assert report.agreement
    assert report.eigenvalue_method == report.path_method == 0


@pytest.mark.parametrize("n", [7, 9, 12])
def test_scalar_root_of_unity_winds_once(n):
    w = np.exp(2j * np.pi / n) * np.eye(n)
    report = winding_of_unitary(w)
    assert report.winding == -1
    oracle, _ = brute_force_winding(w)
    assert oracle == -1


def test_scalar_case_small_n_violates_hypothesis():
    # 2 sin(pi/4) >= 1: the ||W - 1|| < 1 gate fires before any winding
    w = np.exp(2j * np.pi / 4) * np.eye(4)
    with pytest.raises(HypothesisViolation):
        winding_of_unitary(w)


@pytest.mark.parametrize("k", [-3, -1, 0, 2, 5])
def test_voiculescu_commutator_winding(k):
    u, v = voiculescu_pair(0.5, k)
    w = u @ v @ dagger(u) @ dagger(v)
    report = winding_of_unitary(w)
    assert report.winding == k
    assert report.agreement
    oracle, oracle_min = brute_force_winding(w)
    assert oracle == k
    assert report.min_clearance >= oracle_min - 0.05
    assert report.min_clearance > 0


def test_open_path_rejected():
    w = np.diag(np.exp(1j * np.array([0.3, -0.1, 0.0])))
    with pytest.raises(OpenPath):
        winding_of_unitary(w)


def test_open_path_carries_the_distance_of_det_from_one():
    with pytest.raises(OpenPath) as info:
        winding_of_unitary(np.diag([np.exp(0.1j), 1.0]))
    assert info.value.measured == pytest.approx(abs(np.exp(0.1j) - 1.0), rel=1e-12)


def test_phase_residue_refusal_carries_the_distance_to_an_integer(monkeypatch):
    eigenphases = winding._eigenphases

    def nudged(w, tol):
        theta, residue_tol = eigenphases(w, tol)
        return theta + 0.3 * (np.arange(len(theta)) == 0), residue_tol

    monkeypatch.setattr(winding, "_eigenphases", nudged)
    w, _ = random_admissible_unitary(8, derive_rng(3, 8), winding=1)
    with pytest.raises(OpenPath) as info:
        winding_of_unitary(w)
    assert info.value.measured == pytest.approx(0.3 / (2.0 * np.pi), abs=1e-9)


def test_non_unitary_rejected():
    with pytest.raises(NotUnitary):
        winding_of_unitary(np.diag([0.9, 1.0]))


def test_nan_tolerance_refuses():
    w, _ = random_admissible_unitary(8, derive_rng(3, 8), winding=1)
    with pytest.raises(NotUnitary):
        winding_of_unitary(w, unitarity_tol=float("nan"))


def test_report_json_fields():
    obj = asdict(winding_of_unitary(np.eye(3)))
    assert obj["winding"] == 0
    assert obj["agreement"] is True
    assert obj["orientation"] == "basic"
    assert obj["source_path_reversed"] is False
    assert obj["samples_used"] >= 65
    assert obj["min_clearance"] > 0


# ---------------------------------------------------------------------------
# randomized admissible unitaries
# ---------------------------------------------------------------------------


def test_random_admissible_respects_requested_winding(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 41))
        cap = max_winding_for_dim(dim)
        target = int(rng.integers(-cap, cap + 1))
        w, claimed = random_admissible_unitary(dim, rng, winding=target)
        assert claimed == target
        assert op_norm(w - np.eye(dim)) < 1.0
        report = winding_of_unitary(w)
        assert report.winding == target
        assert report.agreement


def test_random_admissible_unrealizable_winding(rng):
    cap = max_winding_for_dim(8)
    with pytest.raises(HypothesisViolation):
        random_admissible_unitary(8, rng, winding=cap + 1)


def test_dual_methods_agree_on_random_batch(rng):
    for _ in range(200):
        dim = int(rng.integers(2, 41))
        w, _ = random_admissible_unitary(dim, rng)
        report = winding_of_unitary(w)
        assert report.agreement
        assert report.eigenvalue_method == report.path_method
        assert report.min_clearance > 0


def test_winding_matches_oracle_on_random_batch(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 30))
        w, claimed = random_admissible_unitary(dim, rng)
        oracle, _ = brute_force_winding(w)
        assert winding_of_unitary(w).winding == oracle == claimed


def eigvals_winding(w):
    """Nonsymmetric-eigensolver oracle: minus the summed eigenvalue arguments."""
    return -float(np.sum(np.angle(np.linalg.eigvals(w)))) / (2.0 * np.pi)


def with_unitarity_defect(w, defect, gen):
    """``W (1 + F)`` with ``F`` traceless and ``||F + F*|| = defect``.

    ``F`` is not normal, so the result is not normal either; ``det`` moves by
    O(dim ||F||^2) only, far inside the closed-path tolerance.
    """
    dim = w.shape[0]
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    g -= (np.trace(g) / dim) * np.eye(dim)
    f = defect * g / op_norm(g + dagger(g))
    return w @ (np.eye(dim) + f)


@settings(max_examples=20)
@given(
    dim=st.integers(8, 400),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.booleans(),
)
def test_hermitian_phases_match_eigvals_oracle(dim, seed, perturb):
    gen = derive_rng(seed, dim)
    w, claimed = random_admissible_unitary(dim, gen)
    if perturb:
        w = with_unitarity_defect(w, 0.5 * UNITARITY_TOL, gen)
        defect = op_norm(dagger(w) @ w - np.eye(dim))
        assert 0.4 * UNITARITY_TOL < defect < 0.6 * UNITARITY_TOL
    oracle = eigvals_winding(w)
    assert abs(oracle - claimed) < 1e-6
    report = winding_of_unitary(w)
    assert report.winding == report.eigenvalue_method == report.path_method == claimed


@pytest.mark.parametrize("theta", [np.pi / 2 - 1e-6, np.pi / 2, np.pi / 2 + 1e-6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_distance_gate_fires_before_phases_near_quarter_turn(theta, sign, rng):
    # eigenphases near +-pi/2 put eigenvalues of (W - W*)/2i at or just past
    # +-1 once W carries a unitarity defect; the ||W - 1|| >= 1 gate must
    # refuse the input before arcsin could see them
    scale = 1.0 + 0.25 * UNITARITY_TOL
    phases = sign * np.array([theta, -theta, 0.1, -0.1])
    radii = np.array([scale, 1.0 / scale, 1.0, 1.0])
    q = haar_unitary(4, rng)
    w = (q * (radii * np.exp(1j * phases))) @ dagger(q)
    with np.errstate(invalid="raise"), pytest.raises(HypothesisViolation) as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == pytest.approx(2.0 * np.sin(theta / 2.0), abs=1e-6)


def certified_sample_count(w):
    """Samples of the certified grid, on the Cayley and spectral branches alike.

    Each factor ``t + (1-t) e^{i theta}`` turns at most ``2 |tan(theta/2)|``;
    the phases come from the ``eigvals`` oracle.  One interval of slack
    covers the phases' ``2 tau`` distance from the library's.
    """
    theta = np.angle(np.linalg.eigvals(w))
    speed = 2.0 * float(np.sum(np.abs(np.tan(theta / 2.0))))
    return max(INITIAL_INTERVALS, math.ceil(2.0 * speed / math.pi) + 2) + 1


@pytest.mark.parametrize(
    "dim, k",
    [
        (120, 15), (160, 20), (160, -20),
        (200, 25), (400, 48), (600, 54), (600, 63), (600, 72), (800, 101), (800, -101),
    ],
)
def test_large_windings_do_not_alias(dim, k):
    # a true jump above 3 pi/2 between samples wraps to a small one; from a
    # 64-interval grid the inputs above dim 200 used to report path windings
    # 12, -10, -1, 8, -1 and 1 and be refused as a method disagreement.  Dims
    # 120 and 160 take the Cayley phases' samples on their own certified grid.
    w, claimed = random_admissible_unitary(dim, derive_rng(7, dim, abs(k)), winding=k)
    report = winding_of_unitary(w)
    assert report.winding == report.path_method == claimed == k
    assert report.samples_used <= certified_sample_count(w)


def test_coarse_grid_refuses_on_dense_branch(monkeypatch):
    # four intervals at dim 160 are far below the certified count; the
    # samples of the Cayley branch must then be refused, never read as a
    # winding: at k = 15 one wrapped jump reaches pi/2, at k = +-20 every
    # jump aliases to a small one and the path reads 0 against the
    # eigenvalue method's +-20
    certified = winding._certified_intervals
    monkeypatch.setattr(
        winding, "_certified_intervals", lambda th: 4 if len(th) == 160 else certified(th)
    )

    def coarse(k):
        w, _ = random_admissible_unitary(160, derive_rng(7, 160, abs(k)), winding=k)
        with pytest.raises(NumericalInconsistency) as exc_info:
            winding_of_unitary(w)
        return exc_info.value

    jump = coarse(15)
    assert "reaches pi/2" in str(jump)
    assert jump.measured == pytest.approx(2.108, abs=1e-3)
    for k in (20, -20):
        assert "methods disagree" in str(coarse(k))


def test_distance_near_one_above_dense_dims(rng):
    # ||W - 1|| = 1 - 1e-9: the eigenvalues +-pi/3 turn at most 2 tan(pi/6)
    # each along the sampled chords, so the certified grid stays at 64
    # intervals however close the distance sits to 1
    theta = 2.0 * np.arcsin((1.0 - 1e-9) / 2.0)
    phases = np.zeros(170)
    phases[:2] = theta, -theta
    q = haar_unitary(170, rng)
    w = (q * np.exp(1j * phases)) @ dagger(q)
    report = winding_of_unitary(w)
    assert report.winding == report.path_method == 0
    assert report.samples_used == INITIAL_INTERVALS + 1


def structured_defect_unitary(dim, tol, theta, rng):
    """Normal ``W`` with ``det W = 1`` and ``||W*W - 1|| = 0.99 tol``.

    Half the eigenvalues sit at ``r e^{i theta}``, half at ``e^{-i theta}/r``.
    ``arcsin`` of their imaginary parts overshoots each phase by about
    ``(r - 1) tan(theta)`` with one sign, so the errors add up instead of
    cancelling: the Hermitian phase sum misses its integer by about
    ``dim (r - 1) tan(theta) / 2 pi``.
    """
    r = math.sqrt(1.0 + 0.99 * tol)
    half = dim // 2
    lam = np.concatenate([
        np.full(half, r * np.exp(1j * theta)),
        np.full(half, np.exp(-1j * theta) / r),
    ])
    q = haar_unitary(dim, rng)
    return (q * lam) @ dagger(q)


@pytest.mark.parametrize(
    "dim, tol",
    [(800, UNITARITY_TOL), (160, 5.0 * UNITARITY_TOL)],
    ids=["spectral-branch", "dense-branch-pair-tolerance"],
)
def test_residue_gate_follows_phase_certificate(dim, tol, rng):
    # the phase sums miss 0 by about 1.07e-6, past a flat 1e-6 gate but
    # well inside the certified n tau / 3
    w = structured_defect_unitary(dim, tol, 1.04, rng)
    residue = -float(np.sum(np.arcsin(np.linalg.eigvalsh((w - dagger(w)) / 2j))))
    assert 1.05e-6 < abs(residue) / (2.0 * np.pi) < dim * tol / 3.0
    report = winding_of_unitary(w, unitarity_tol=tol)
    assert report.winding == report.eigenvalue_method == report.path_method == 0


def test_loose_tolerance_takes_the_polar_factor(rng):
    # at tau = 1.1e-2 and dim 400 the Hermitian phases of W would sum to about
    # -0.59 turns and round to a wrong winding; beyond the phase budget both
    # methods run on the polar factor of W instead
    w = structured_defect_unitary(400, 1.1e-2, 1.04, rng)
    hermitian = -float(np.sum(np.arcsin(np.linalg.eigvalsh((w - dagger(w)) / 2j))))
    assert round(hermitian / (2.0 * np.pi)) != 0
    report = winding_of_unitary(w, unitarity_tol=1.1e-2)
    assert report.winding == report.eigenvalue_method == report.path_method == 0


def test_loose_tolerance_dense_branch_off_circle(rng):
    # tau = 1e-2 at dim 160 takes the polar factor and the Cayley phases'
    # samples.  A third of the eigenvalues sit at (1 - tau/2) e^{+-1.04 i},
    # inside the circle, and the rest on the positive axis at the radius that
    # restores |det W| = 1: the chords of W leave the circle the grid is
    # certified for, and those of its polar factor lie on it
    tol, dim, inner = 1e-2, 160, 27
    rho = 1.0 - tol / 2.0
    lam = np.concatenate([
        np.full(inner, rho * np.exp(1.04j)),
        np.full(inner, rho * np.exp(-1.04j)),
        np.full(dim - 2 * inner, rho ** (-2.0 * inner / (dim - 2 * inner))),
    ])
    q = haar_unitary(dim, rng)
    w = (q * lam) @ dagger(q)
    report = winding_of_unitary(w, unitarity_tol=tol)
    assert report.winding == report.eigenvalue_method == report.path_method == 0
    assert report.samples_used <= certified_sample_count(w)


def test_loose_tolerance_winds_the_polar_factor_of_a_non_normal_input(monkeypatch):
    # W = U0 P with U0 unitary of winding 2, ||U0 - 1|| < 0.37, and P = exp(H)
    # positive, det P = 1, not commuting with U0: W is not normal, its defect
    # ||W*W - 1|| = ||P^2 - 1|| is about 0.22 and ||W - 1|| < 1 - tau.  At
    # tau = 0.5 both methods must run on the polar factor U0, at UNITARITY_TOL
    gen = derive_rng(16, 40)
    u0 = torus_pair_phase_matrix(-2, 40, gen)
    h = random_hermitian(40, gen, norm=0.1)
    h = h - (np.trace(h).real / 40) * np.eye(40)
    lam, vecs = np.linalg.eigh(h)
    w = u0 @ ((vecs * np.exp(lam)) @ dagger(vecs))
    assert op_norm(w @ dagger(w) - dagger(w) @ w) > 1e-3
    assert 0.1 < op_norm(dagger(w) @ w - np.eye(40)) < 0.5
    assert op_norm(w - np.eye(40)) < 0.5
    seen = []
    eigenphases = winding._eigenphases

    def spy(v, tol):
        seen.append((op_norm(v - u0), tol))
        return eigenphases(v, tol)

    monkeypatch.setattr(winding, "_eigenphases", spy)
    report = winding_of_unitary(w, unitarity_tol=0.5)
    assert report.winding == report.eigenvalue_method == report.path_method == 2
    assert len(seen) == 1 and seen[0][0] < 1e-12 and seen[0][1] == UNITARITY_TOL


def test_polar_factor_outside_the_unit_ball_is_refused():
    # normal W, dim 10: eigenvalues 0.9 e^{+-1.05 i} and eight on the positive
    # axis at the radius giving det W = 1.  tau = ||W*W - 1|| = 0.19 and
    # ||W - 1|| = 0.956, but the polar factor has ||U - 1|| = 2 sin(0.525)
    # = 1.0024, so its path may meet the origin and nothing is certified
    lam = np.concatenate([0.9 * np.exp([1.05j, -1.05j]), np.full(8, 0.81 ** (-1.0 / 8.0))])
    w = np.diag(lam)
    assert op_norm(dagger(w) @ w - np.eye(10)) == pytest.approx(0.19)
    assert op_norm(w - np.eye(10)) == pytest.approx(0.956, abs=1e-3)
    with pytest.raises(HypothesisViolation, match="polar factor") as exc_info:
        winding_of_unitary(w, unitarity_tol=0.2)
    assert exc_info.value.measured == pytest.approx(2.0 * np.sin(0.525), abs=1e-12)


# ---------------------------------------------------------------------------
# the eigensolver-free oracle: Householder + Hyman against slogdet
# ---------------------------------------------------------------------------

# A path with no eigensolve: det(t + (1-t)W) sampled through one Householder
# reduction of W to Hessenberg form and Hyman's recurrence, O(dim^2) per
# sample.  Up to winding.CAYLEY_DIM_LIMIT the library's Cayley-phase path is
# compared with it (_route_through_oracle); _reference_hessenberg and
# _reference_hyman_log_det below check it in turn.

# Columns per blocked Householder update in _hessenberg (the fastest of 8 to
# 64 at dims 8-160; the tests below straddle its block edges).
HESSENBERG_BLOCK = 24
# _hessenberg sums ||x||^2 without scaling x strictly between these.
_SQUARES_LO = 2.0**-900
_SQUARES_HI = 2.0**900
# Hyman's recurrence rescales before max |x| can pass exp(HYMAN_LOG_LIMIT).
HYMAN_LOG_LIMIT = 600.0
# From this dim on, _hyman_log_det takes the finished rows' share of the
# next HYMAN_BLOCK rows from one matrix product (faster from about dim 128
# at 65 samples).
HYMAN_BLOCK = 32
HYMAN_BLOCK_MIN_DIM = 144


def _hessenberg(w: np.ndarray) -> np.ndarray:
    """Upper Hessenberg ``H = Q* W Q`` by blocked Householder reflections.

    Column ``j`` is reduced by ``P = 1 - u u*``, which maps
    ``x = H[j+1:, j]`` to ``-e^{i arg x_0} ||x|| e_1``: ``u`` is ``x`` with
    ``x_0`` replaced by ``e^{i arg x_0} (|x_0| + ||x||)``, times
    ``(||x|| (||x|| + |x_0|))^{-1/2}``, so ``||u||^2 = 2`` however small
    ``x`` is.  Its scalars are Python floats.  ``||x||^2`` is summed as it
    stands when it lies in ``(_SQUARES_LO, _SQUARES_HI)``: no square there
    overflows, and squares that underflow move it by a relative ``n 2^-174``
    at most.  Outside that range, or when the squares of a nonzero tail all
    underflow, ``x`` is first scaled exactly by the power of two that puts its
    largest entry in [1/2, 1), so tiny columns neither underflow nor divide
    by zero, and a subnormal one is not divided by its subnormal largest
    entry (whose reciprocal overflows).  A column that is already reduced
    (``x[1:] = 0``: every column of a diagonal ``W``, and the block edges of a
    block-diagonal one) gets no reflection, so its zero subdiagonal stays
    exactly zero.

    The reflections of ``HESSENBERG_BLOCK`` columns are gathered as
    ``1 - U T U*`` (``T`` upper triangular with unit diagonal), with
    ``Y = A U T`` (``A`` the matrix at the block's start) and ``M = T* U*``;
    a column of ``Y`` or a row of ``M`` is final once written.  Each column
    of the block is brought up to date just before it is reduced, by
    ``col - Y U*[:, j]`` and then ``col - U (M col)``, and the rest of the
    matrix once per block by two matrix products,
    ``A <- (1 - U M)(A - Y U*)``: the compact WY form of LAPACK's ``zgehrd``
    (Golub & Van Loan section 7.4).  With ``z = U* u`` over the earlier
    reflections, the new row of ``M`` is ``u* - z* M`` and the new column of
    ``Y`` is ``A u - Y z``, one product: ``Y`` sits right of ``A`` in one
    column-major work array, and ``-z`` right of ``u`` in the row that keeps
    ``u``.  Entries below the subdiagonal are returned as zeros; ``Q`` is not
    kept.
    """
    n = w.shape[0]
    work = np.zeros((n, n + min(HESSENBERG_BLOCK, max(n - 2, 0))), dtype=np.complex128, order="F")
    a = work[:, :n]
    a[...] = w
    for j0 in range(0, n - 2, HESSENBERG_BLOCK):
        j1 = min(j0 + HESSENBERG_BLOCK, n - 2)
        b = j1 - j0
        y = work[:, n : n + b]
        y[...] = 0.0
        uz = np.zeros((b, n + b), dtype=np.complex128)  # row c: u, then -z
        ut = uz[:, :n]
        uh = np.zeros((b, n), dtype=np.complex128)
        m = np.zeros((b, n), dtype=np.complex128)
        for c, j in enumerate(range(j0, j1)):
            col = a[:, j]
            if c:
                col -= np.dot(y[:, :c], uh[:c, j])
                col -= np.dot(np.dot(m[:c], col), ut[:c])
            x = col[j + 1 :]
            tail = float(np.vdot(x[1:], x[1:]).real)
            x0 = complex(x[0])
            head = abs(x0)
            v, scale, norm2 = x, 1.0, head * head + tail
            if not (tail and _SQUARES_LO < norm2 < _SQUARES_HI):
                if not x[1:].any():
                    continue
                power = math.frexp(float(np.abs(x).max()))[1]
                v = np.ldexp(x.real, -power) + 1j * np.ldexp(x.imag, -power)
                scale = math.ldexp(1.0, power)
                x0 = complex(v[0])
                head = abs(x0)
                norm2 = float(np.vdot(v, v).real)
            alpha = math.sqrt(norm2)
            phase = x0 / head if head else 1.0
            root = 1.0 / math.sqrt(alpha * (alpha + head))
            k = n - j - 1
            u = uz[c, j + 1 : n + c]
            np.multiply(v, root, out=u[:k])
            u[0] = phase * (head + alpha) * root
            x[0] = -phase * alpha * scale
            x[1:] = 0.0
            uc = np.conjugate(u[:k], out=uh[c, j + 1 :])
            if c:
                z = np.dot(uh[:c, j + 1 :], u[:k], out=u[k:])
                np.negative(z, out=z)
                np.dot(z.conj(), m[:c], out=m[c])
            m[c, j + 1 :] += uc
            np.dot(work[:, j + 1 : n + c], u, out=y[:, c])
        a[:, j1:] -= y @ uh[:, j1:]
        rows = a[j0 + 1 :, j1:]
        rows -= ut[:, j0 + 1 :].T @ (m[:, j0 + 1 :] @ rows)
    return np.ascontiguousarray(a)


def _hyman_log_det(h: np.ndarray, ts: np.ndarray):
    """``log |det M_t|`` and ``arg det M_t`` (unwrapped) for ``M_t = t + (1-t)H``.

    ``H`` is upper Hessenberg.  ``t = 1`` gives ``det 1 = 1`` and is set, not
    computed; for ``t < 1``, ``M_t = (1-t)(rho + H)`` with ``rho = t/(1-t)``.
    A subdiagonal entry at most ``u ||H||_F`` (``u`` the unit roundoff, so
    every exact zero) splits ``H`` into diagonal blocks whose determinants
    multiply; dropping it moves ``W`` by at most ``u ||W||_F``.  In each
    block Hyman's recurrence runs from its last row up, for the whole batch
    of ``rho`` at once: ``x`` with last entry 1 solves every row but the
    first of ``(rho + H) x = r e_1``, and the block's determinant is
    ``(-1)^{m-1} r prod h_{i,i-1}`` (Cramer's rule for the last entry of
    ``x``): O(n^2) per sample.  The split flags and the reciprocals
    ``-1 / h_{i,i-1}`` are taken once, as ``G = -H[i] / h_{i,i-1}`` and
    ``R = -rho / h_{i,i-1}`` row by row, so row ``i`` gives
    ``x_{i-1} = G[i, i:] x + R[i] x_i`` in one vector-matrix product, one
    multiply and one add; a block's first row gives ``r`` from ``H`` itself.
    From ``HYMAN_BLOCK_MIN_DIM`` on, the share of the finished entries of
    ``x`` in the next ``HYMAN_BLOCK`` rows, when none of them is a block's
    first row, is one matrix product, written where those rows put their
    ``x_{i-1}``, and each row adds the rest.  No row grows ``max |x|`` by more than
    ``(rho + ||H[i]||_1) / |h_{i,i-1}|``, so ``x`` (with any such partial
    sums) is scaled by a power of two to ``max |x| < 1`` before that bound
    reaches ``exp(HYMAN_LOG_LIMIT)``, and nothing overflows.  Every factor
    enters the logarithm as ``log m + k log 2`` with ``m`` in [1/2, 1) and
    the integer exponents summed exactly: a plain sum of the factors'
    logarithms (hundreds each way at dim 160) was off by up to 1e-12
    against ``det``.
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
    recip = np.zeros(n, dtype=np.complex128)
    np.divide(-1.0, sub, out=recip[1:], where=~split)
    g = h * recip[:, None]
    r = np.multiply.outer(recip, rho)
    first = [True, *split.tolist()]  # row i is the first row of its block
    chunked = n >= HYMAN_BLOCK_MIN_DIM
    dets = []
    x = np.empty((n, len(t)), dtype=np.complex128)
    x[-1] = 1.0
    hi, rows, lo, top = n, 0, n, n
    for i in range(n - 1, -1, -1):
        if first[i]:
            d = h[i, i:hi] @ x[i:hi]
            d += rho * x[i]
            dets.append(d)
            hi, rows = i, 0
            x[i - 1] = 1.0  # the next block's last entry (at i = 0, unread)
            continue
        xi = x[i - 1]
        if lo <= i < top:  # x_{i-1} holds the share of x[top:hi]
            xi += np.dot(g[i, i:top], x[i:top])
        elif chunked and i > 1 and not any(first[max(i - HYMAN_BLOCK + 1, 1) : i]):
            lo, top = max(i - HYMAN_BLOCK + 1, 1), i
            np.dot(g[lo : i + 1, i:hi], x[i:hi], out=x[lo - 1 : i])
        else:
            np.dot(g[i, i:hi], x[i:hi], out=xi)
        xi += r[i] * x[i]
        rows += 1
        if rows == every:
            start = lo - 1 if lo < i else i - 1
            exponent = np.frexp(np.abs(x[start:hi]).max(axis=0))[1]
            x[start:hi] *= np.ldexp(1.0, -exponent)
            powers += exponent
            rows = 0
    dets = np.array(dets)
    mantissa, exponent = np.frexp(np.abs(dets))
    log_small += np.log(mantissa).sum(axis=0)
    powers += exponent.sum(axis=0)
    log_mag[inner] = log_small + powers * math.log(2.0)
    ang[inner] = np.angle(dets).sum(axis=0) + np.angle(kept).sum() + np.pi * len(kept)
    return log_mag, ang


def dense_test_matrix(kind, dim, gen):
    """Admissible-looking ``W`` whose Hessenberg form has the named structure.

    ``diagonal`` gives an all-zero subdiagonal, ``blocks`` exact zeros at
    the block edges, ``tiny`` a 1e-200 entry coupling two blocks at the
    edge (``W[k+1, k]``), ``dense`` none of these.
    """
    if kind == "diagonal" or dim == 1:
        return np.diag(np.exp(1j * gen.uniform(-1.0, 1.0, size=dim)))
    if kind == "dense":
        return np.array(random_admissible_unitary(dim, gen)[0])
    cut = int(gen.integers(1, dim))
    w = np.array(scipy.linalg.block_diag(
        random_admissible_unitary(cut, gen)[0], random_admissible_unitary(dim - cut, gen)[0]
    ))
    if kind == "tiny":
        w[cut, cut - 1] = 1e-200
    return w


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 160),
    kind=st.sampled_from(["dense", "diagonal", "blocks", "tiny"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hyman_samples_match_slogdet(dim, kind, seed):
    gen = derive_rng(seed, dim)
    w = dense_test_matrix(kind, dim, gen)
    ts = np.concatenate([np.linspace(0.0, 1.0, 9), 1.0 - np.logspace(-12.0, -1.0, 5)])
    h = _hessenberg(w)
    assert np.all(np.tril(h, -2) == 0.0)
    if kind == "diagonal":
        assert np.all(np.diagonal(h, -1) == 0.0)
    log_mag, ang = _hyman_log_det(h, ts)
    assert np.all(np.isfinite(log_mag)) and np.all(np.isfinite(ang))
    stack = ts[:, None, None] * np.eye(dim) + (1.0 - ts)[:, None, None] * w
    sign, logabs = np.linalg.slogdet(stack)
    assert np.max(np.abs(log_mag - logabs)) < 1e-10
    assert np.max(np.abs(np.angle(np.exp(1j * ang) / sign))) < 1e-10
    at_one = ts == 1.0
    assert np.all(log_mag[at_one] == 0.0) and np.all(ang[at_one] == 0.0)


@pytest.mark.parametrize("dim, k", [(40, 2), (40, -2), (160, 10), (160, -10)])
def test_dense_path_never_reads_the_phases(dim, k, monkeypatch):
    # moving every eigenphase by 2 pi / dim shifts the eigenvalue method by
    # one turn; the Cayley phases, and the grid and samples taken from them,
    # must keep the true winding, and the dual gate must fire
    eigenphases = winding._eigenphases

    def shifted(w, tol):
        theta, residue_tol = eigenphases(w, tol)
        return theta - math.copysign(2.0 * np.pi / len(theta), k), residue_tol

    monkeypatch.setattr(winding, "_eigenphases", shifted)
    w, _ = random_admissible_unitary(dim, derive_rng(7, dim, abs(k)), winding=k)
    with pytest.raises(NumericalInconsistency, match="methods disagree") as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == (k + int(math.copysign(1, k)), k)  # (eigenvalue, path)


# The Householder reduction and Hyman's recurrence as they were before the
# lean column and row loops: one product per term, the reflector built from
# x divided by its largest entry, T* stored and -1/h_{i,i-1} applied row by
# row.  The faster code does the same reduction and recurrence in another
# order of rounding, so it must agree with these within the bounds below.


def _reference_hessenberg(w):
    a = np.array(w, dtype=np.complex128)
    n = a.shape[0]
    for j0 in range(0, n - 2, 32):
        j1 = min(j0 + 32, n - 2)
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
            beta = 1.0 / (alpha * (alpha + head))
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


def _reference_hyman_log_det(h, ts):
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
    every = max(1, int(600.0 // max(grow.max(initial=1.0), 1.0)))
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
            x[i - 1] = 1.0
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


DENSE_KINDS = ("dense", "diagonal", "blocks", "tiny")
# both sides of the first two HESSENBERG_BLOCK edges (n - 2 columns are
# reduced) and of HYMAN_BLOCK_MIN_DIM, up to CAYLEY_DIM_LIMIT
REFERENCE_DIMS = sorted(
    {1, 2, 3, 4, 5, 8, 13, 40, 80, 101, 120, 159, 160}
    | {k * HESSENBERG_BLOCK + d for k in (1, 2) for d in (1, 2, 3)}
    | {HYMAN_BLOCK_MIN_DIM + d for d in (-1, 0, 1)}
)
SAMPLE_TS = np.concatenate([np.linspace(0.0, 1.0, 9), 1.0 - np.logspace(-12.0, -1.0, 5)])


def assert_samples_agree(h, ref_h, ts=SAMPLE_TS):
    """log |det| and arg det (mod 2 pi) within 1e-12 of the reference's on
    the reference's own H, and on each side's H."""
    ref_log, ref_ang = _reference_hyman_log_det(ref_h, ts)
    for log_mag, ang in (_hyman_log_det(ref_h, ts), _hyman_log_det(h, ts)):
        assert np.max(np.abs(log_mag - ref_log)) < 1e-12
        assert np.max(np.abs(np.angle(np.exp(1j * (ang - ref_ang))))) < 1e-12


def assert_samples_match_slogdet(h, w, tol, ts=SAMPLE_TS):
    """log |det| and arg det from Hyman's recurrence on ``h`` within ``tol``
    of ``np.linalg.slogdet`` of ``t + (1-t)W``."""
    log_mag, ang = _hyman_log_det(h, ts)
    stack = ts[:, None, None] * np.eye(w.shape[0]) + (1.0 - ts)[:, None, None] * w
    sign, logabs = np.linalg.slogdet(stack)
    assert np.max(np.abs(log_mag - logabs)) < tol
    assert np.max(np.abs(np.angle(np.exp(1j * ang) / sign))) < tol


@pytest.mark.parametrize("kind", DENSE_KINDS)
@pytest.mark.parametrize("dim", REFERENCE_DIMS)
def test_hessenberg_matches_the_reference(dim, kind):
    # Both reductions are backward stable, and while no subdiagonal is tiny
    # H is fixed by W and the phase rule (the implicit Q theorem), so they
    # differ by about as much as the reference's own H moves when W moves by
    # a random relative perturbation of one unit roundoff.  The bound is 100
    # times that, plus 100 n u: over 200 random inputs of each kind the
    # largest ratio was 13.  Exact zeros stay exact: a diagonal W is returned
    # bit for bit, and the subdiagonal zero pattern is the reference's.  For
    # "tiny" the reduction meets a subdiagonal far below roundoff at the
    # block edge and restarts from a direction set by rounding there, so
    # past the edge any Hessenberg form is as valid and only the leading
    # columns and the determinants are compared.
    gen = derive_rng(11, dim, DENSE_KINDS.index(kind))
    w = dense_test_matrix(kind, dim, gen)
    h, ref_h = _hessenberg(w), _reference_hessenberg(w)
    assert np.all(np.tril(h, -2) == 0.0)
    assert np.array_equal(np.diagonal(h, -1) == 0.0, np.diagonal(ref_h, -1) == 0.0)
    if kind == "diagonal":
        assert np.array_equal(h, ref_h)
    lead = dim
    if kind == "tiny" and dim > 1:
        lead = next(k for k in range(1, dim) if w[k, k - 1] == 1e-200)
    noise = (gen.standard_normal(w.shape) + 1j * gen.standard_normal(w.shape)) * np.abs(w)
    moved = _reference_hessenberg(w + UNIT_ROUNDOFF * noise)
    own = np.max(np.abs(moved - ref_h)[: lead + 1, :lead], initial=0.0)
    gap = np.max(np.abs(h - ref_h)[: lead + 1, :lead], initial=0.0)
    assert gap <= 100.0 * (own + dim * UNIT_ROUNDOFF)
    assert_samples_agree(h, ref_h)


@pytest.mark.parametrize("tiny", (1e-310, 1e-160, 1e-140, 1e300))
def test_hessenberg_scales_columns_outside_the_safe_range(tiny):
    # a column tail whose squares underflow (or overflow) is scaled by a
    # power of two first; the reference divides by the largest entry, whose
    # reciprocal overflows when it is subnormal, and returns NaNs there
    w = np.diag(np.exp(1j * np.linspace(-0.5, 0.5, 6)))
    w[2:5, 0] = [tiny, -2.0 * tiny, 1j * tiny]
    h = _hessenberg(w)
    assert np.all(np.isfinite(h)) and np.all(np.tril(h, -2) == 0.0)
    assert abs(h[1, 0]) == pytest.approx(math.sqrt(6.0) * tiny, rel=1e-15)
    if tiny > 1e-300:
        assert np.max(np.abs(h - _reference_hessenberg(w))) <= 1e-14 * max(1.0, tiny)
    if tiny < 1.0:  # above, ||H||_F overflows: far outside Hyman's domain
        assert_samples_match_slogdet(h, w, 1e-12)


@pytest.mark.parametrize("kind", DENSE_KINDS)
@pytest.mark.parametrize("dim", (1, 2, 3, 5, 7, 12, 30))
def test_hyman_row_blocks_match_the_reference(dim, kind, monkeypatch):
    # three-row blocks from dim 1 on, and a rescale at every row, so that
    # blocks meet splits and rescales meet partial sums at small dims
    monkeypatch.setitem(globals(), "HYMAN_BLOCK", 3)
    monkeypatch.setitem(globals(), "HYMAN_BLOCK_MIN_DIM", 1)
    monkeypatch.setitem(globals(), "HYMAN_LOG_LIMIT", 1.0)
    w = dense_test_matrix(kind, dim, derive_rng(12, dim, DENSE_KINDS.index(kind)))
    h = _hessenberg(w)
    assert_samples_agree(h, _reference_hessenberg(w))
    assert_samples_match_slogdet(h, w, 1e-10)


def _winding_outcome(w):
    """The report's integers and clearance, or the refusal's class, text and
    measured value."""
    try:
        report = winding_of_unitary(w)
    except ObstructkitError as exc:
        return type(exc), str(exc), exc.measured
    return report.winding, report.samples_used, report.path_method, report.min_clearance


def _reference_input(seed, monkeypatch):
    """A seeded dense-path input of one of five families: admissible, block
    diagonal, block diagonal with a 1e-200 coupling, admissible with every
    eigenphase shifted by 2 pi / dim (methods disagree) and admissible on a
    two-interval grid (a wrapped jump reaches pi/2)."""
    gen = derive_rng(13, seed)
    dim = int(gen.integers(1, 161))
    family = seed % 5
    if family in (1, 2):
        return dense_test_matrix(("blocks", "tiny")[family - 1], dim, gen)
    w = random_admissible_unitary(dim, gen)[0]
    if family == 3:
        eigenphases = winding._eigenphases

        def shifted(w, tol):
            theta, residue_tol = eigenphases(w, tol)
            return theta + 2.0 * np.pi / len(theta), residue_tol

        monkeypatch.setattr(winding, "_eigenphases", shifted)
    if family == 4:
        monkeypatch.setattr(winding, "_certified_intervals", lambda theta: 2)
    return w


def _route_through_oracle(monkeypatch, hessenberg=_hessenberg, hyman_log_det=_hyman_log_det):
    """Build the path up to ``CAYLEY_DIM_LIMIT`` with no second eigensolve:
    the grid from the eigenvalue method's phases and the samples from
    ``hyman_log_det`` on ``hessenberg(W)``, neither reading a phase."""
    inputs = []

    def grid_phases(w, tol):
        inputs.append(w)
        return winding._eigenphases(w, tol)[0]

    def samples(theta, ts):
        log_mag, ang = hyman_log_det(hessenberg(inputs[-1]), ts)
        return np.exp(log_mag), ang

    monkeypatch.setattr(winding, "_cayley_phases", grid_phases)
    monkeypatch.setattr(winding, "_sample_path", samples)


@pytest.mark.parametrize("seed", range(210))
def test_winding_matches_the_reference_path(seed, monkeypatch):
    # the oracle's lean Householder and Hyman loops against the reference's
    w = _reference_input(seed, monkeypatch)
    _route_through_oracle(monkeypatch)
    got = _winding_outcome(w)
    _route_through_oracle(monkeypatch, _reference_hessenberg, _reference_hyman_log_det)
    want = _winding_outcome(w)
    assert got[:-1] == want[:-1]
    assert got[-1] == pytest.approx(want[-1], rel=1e-9)


@pytest.mark.parametrize("seed", range(210, 420))
def test_cayley_path_matches_the_hyman_oracle(seed, monkeypatch):
    # the eigensolver-free cross-check: on the five families the Cayley
    # route returns the oracle path's winding and sample count, or refuses
    # with the oracle's class and text
    w = _reference_input(seed, monkeypatch)
    got = _winding_outcome(w)
    _route_through_oracle(monkeypatch)
    want = _winding_outcome(w)
    kept = 2 if isinstance(want[0], type) else 3
    assert got[:kept] == want[:kept]
    if kept == 3:
        assert got[-1] == pytest.approx(want[-1], rel=1e-9)


def near_unit_distance_matrix(dim, offset, defect, gen):
    """``W`` with ``||W - 1||`` within about ``offset`` of 1 and ``||W*W - 1||`` near ``defect``.

    One eigenvalue sits at ``r e^{i phi}`` with ``|e^{i phi} - 1| = 1 + offset``,
    the rest at random phases below 0.9 and radii within ``defect / 4`` of 1;
    a non-normal factor ``1 + F`` with ``||F|| = defect / 4`` follows.
    """
    phases = gen.uniform(-0.9, 0.9, size=dim)
    phases[0] = math.copysign(2.0 * math.asin((1.0 + offset) / 2.0), phases[0])
    radii = 1.0 + gen.uniform(-0.25, 0.25, size=dim) * defect
    q = haar_unitary(dim, gen)
    w = (q * (radii * np.exp(1j * phases))) @ dagger(q)
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return w @ (np.eye(dim) + 0.25 * defect * g / op_norm(g))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 60),
    offset=st.floats(-1e-9, 1e-9),
    tau_exp=st.floats(-12.0, -8.0),
    defect_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_distance_screen_accepts_only_below_one(dim, offset, tau_exp, defect_frac, seed):
    tau = 10.0**tau_exp
    w = near_unit_distance_matrix(dim, offset, defect_frac * tau, derive_rng(seed, dim))
    if not is_unitary(w, tau):
        return
    if winding._distance_below_one(w, tau):
        assert np.linalg.svd(w - np.eye(dim), compute_uv=False)[0] < 1.0


def test_distance_screen_decides_near_one(rng):
    # 1e-9 below 1 with tau = 1e-12 the screen proves the gate; 1e-9 above,
    # and 1e-9 below at the default tau, it cannot and the norm is measured
    below = near_unit_distance_matrix(40, -1e-9, 0.0, rng)
    above = near_unit_distance_matrix(40, 1e-9, 0.0, rng)
    assert winding._distance_below_one(below, 1e-12)
    assert not winding._distance_below_one(below, UNITARITY_TOL)
    assert not winding._distance_below_one(above, 1e-12)


def cayley_phase_bound(w, tau):
    """The per-phase bound of ``winding._cayley_phases``:
    ``4 tau / (c (c - tau)) + 2 rho / (c - tau) + 30 n (n + 3) u`` with
    ``c = 2 cos(pi/6 + tau)`` and ``rho`` the Frobenius norm of the solve's
    computed residual."""
    n = w.shape[0]
    plus, minus = np.eye(n) + w, np.eye(n) - w
    rho = np.linalg.norm(plus @ np.linalg.solve(plus, minus) - minus)
    c = 2.0 * math.cos(math.pi / 6.0 + tau)
    return 4.0 * tau / (c * (c - tau)) + 2.0 * rho / (c - tau) + 30.0 * n * (n + 3) * UNIT_ROUNDOFF


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 160),
    offset=st.floats(-0.5, -1e-9),
    tau_frac=st.floats(0.0, 1.0),
    defect_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cayley_phases_lie_within_their_bound(dim, offset, tau_frac, defect_frac, seed):
    # tau from 1e-12 up to the phase budget, on a log scale, and non-normal W
    # near the ||W - 1|| < 1 edge; the oracle is eigvals of the polar factor
    # from an SVD, whose own error the bound's rounding term covers again
    top = math.log10(winding.HERMITIAN_PHASE_BUDGET / dim)
    tau = 10.0 ** (-12.0 + tau_frac * (top + 12.0))
    w = near_unit_distance_matrix(dim, offset, defect_frac * tau, derive_rng(seed, dim))
    if not is_unitary(w, tau) or op_norm(w - np.eye(dim)) >= 1.0:
        return
    left, _, right = np.linalg.svd(w)
    phi = np.sort(np.angle(np.linalg.eigvals(left @ right)))
    theta = winding._cayley_phases(w, tau)
    oracle_error = 30.0 * dim * (dim + 3) * UNIT_ROUNDOFF
    assert np.max(np.abs(theta - phi)) <= cayley_phase_bound(w, tau) + oracle_error


# ---------------------------------------------------------------------------
# algebraic invariants
# ---------------------------------------------------------------------------


def test_block_sum_additivity(rng):
    for _ in range(20):
        d1, d2 = int(rng.integers(2, 15)), int(rng.integers(2, 15))
        w1, k1 = random_admissible_unitary(d1, rng)
        w2, k2 = random_admissible_unitary(d2, rng)
        report = winding_of_unitary(scipy.linalg.block_diag(w1, w2))
        assert report.winding == k1 + k2


def test_conjugation_invariance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 20))
        w, k = random_admissible_unitary(dim, rng)
        g = haar_unitary(dim, rng)
        assert winding_of_unitary(g @ w @ dagger(g)).winding == k


def test_homotopy_invariance_along_phase_paths(rng):
    # linear interpolation of two small phase vectors with equal total phase
    # stays admissible with det = 1; the winding must not move
    for _ in range(10):
        dim = int(rng.integers(8, 20))
        cap = max_winding_for_dim(dim)
        k = int(rng.integers(-cap, cap + 1))
        gen0 = derive_rng(int(rng.integers(0, 2**32)), 0)
        phases0 = np.full(dim, 2.0 * np.pi * k / dim) + (
            lambda j: j - j.mean()
        )(gen0.uniform(-0.05, 0.05, size=dim))
        phases1 = np.full(dim, 2.0 * np.pi * k / dim) + (
            lambda j: j - j.mean()
        )(gen0.uniform(-0.05, 0.05, size=dim))
        q = haar_unitary(dim, gen0)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            mix = (1.0 - s) * phases0 + s * phases1
            w = q @ np.diag(np.exp(1j * mix)) @ dagger(q)
            assert winding_of_unitary(w).winding == -k


def test_perturbation_stability(rng):
    for _ in range(15):
        dim = int(rng.integers(4, 16))
        w, k = random_admissible_unitary(dim, rng)
        report = winding_of_unitary(w)
        h = random_hermitian(dim, rng, norm=1.0)
        h = h - (np.trace(h) / dim) * np.eye(dim)  # keep det(e^{i d h}) = 1
        h /= max(op_norm(h), 1e-12)
        delta = min(report.min_clearance / 8.0, 0.05)
        lam, vec = np.linalg.eigh(h)
        wiggle = (vec * np.exp(1j * delta * lam)) @ vec.conj().T
        w2 = w @ wiggle
        if op_norm(w2 - np.eye(dim)) >= 1.0:
            continue
        assert winding_of_unitary(w2).winding == k


# ---------------------------------------------------------------------------
# winding_pair
# ---------------------------------------------------------------------------


def test_commuting_pair_zero(rng):
    q = haar_unitary(5, rng)
    u = q @ np.diag(np.exp(1j * rng.uniform(-1, 1, 5))) @ dagger(q)
    v = q @ np.diag(np.exp(1j * rng.uniform(-1, 1, 5))) @ dagger(q)
    assert winding_pair(u, v).winding == 0


@pytest.mark.parametrize("n", [7, 10, 13])
def test_clock_shift_pair_winds_minus_one(n):
    u, v = clock_shift(n)
    assert winding_pair(u, v).winding == -1


def test_clock_shift_small_n_hypothesis_gate():
    u, v = clock_shift(3)  # defect 2 sin(pi/3) > 1
    with pytest.raises(HypothesisViolation) as exc_info:
        winding_pair(u, v)
    assert exc_info.value.measured == pytest.approx(2 * np.sin(np.pi / 3), abs=1e-9)


def test_swap_antisymmetry():
    for k in (-2, -1, 1, 3):
        u, v = voiculescu_pair(0.4, k)
        assert winding_pair(u, v).winding == k
        assert winding_pair(v, u).winding == -k


@pytest.mark.parametrize("k", [-1, 1])
def test_voiculescu_small_delta_pair(k):
    # delta = 0.01 takes clock-and-shift blocks of size 629
    u, v = voiculescu_pair(0.01, k)
    assert u.shape == (629, 629)
    assert winding_pair(u, v).winding == k


def test_pair_block_additivity():
    u1, v1 = voiculescu_pair(0.5, 2)
    u2, v2 = voiculescu_pair(0.5, -1)
    report = winding_pair(scipy.linalg.block_diag(u1, u2), scipy.linalg.block_diag(v1, v2))
    assert report.winding == 1


def test_pair_dimension_mismatch():
    u, _ = voiculescu_pair(0.5, 1)
    _, v = voiculescu_pair(0.5, 0)
    with pytest.raises(Exception):
        winding_pair(u, v)


# ---------------------------------------------------------------------------
# winding_class
# ---------------------------------------------------------------------------


def test_winding_class_honest_surface_rep(rng):
    sigma2 = surface_presentation(2)
    phi = honest_commuting_rep(sigma2, 6, rng)
    decomp = commutator_decompose(sigma2.relators[0])
    report = winding_class(phi, decomp)
    assert report.winding == 0
    assert report.source_path_reversed is True
    assert report.orientation == "basic"


def test_winding_class_genus_one_clock_shift():
    phi = unitary_pair_rep(*clock_shift(9))
    decomp = CommutatorDecomposition(((A, B),), A * B * A.inverse() * B.inverse())
    assert winding_class(phi, decomp).winding == -1


def test_winding_class_voiculescu_three():
    phi = unitary_pair_rep(*voiculescu_pair(0.1, 3))
    decomp = CommutatorDecomposition(((A, B),), A * B * A.inverse() * B.inverse())
    report = winding_class(phi, decomp)
    assert report.winding == 3
    assert report.source_path_reversed is True


def test_winding_class_rejects_large_commutator():
    phi = unitary_pair_rep(*clock_shift(4))  # defect sqrt(2) >= 1
    decomp = CommutatorDecomposition(((A, B),), A * B * A.inverse() * B.inverse())
    with pytest.raises(HypothesisViolation) as exc_info:
        winding_class(phi, decomp)
    assert exc_info.value.measured is not None


ONE_PAIR = CommutatorDecomposition(((A, B),), A * B * A.inverse() * B.inverse())
PAIRS = {
    "clock-shift-9": lambda: clock_shift(9),
    "voiculescu-0.5-2": lambda: voiculescu_pair(0.5, 2),
    "voiculescu-0.25--3": lambda: voiculescu_pair(0.25, -3),
    "voiculescu-0.1-3": lambda: voiculescu_pair(0.1, 3),
}


@pytest.mark.parametrize("pair", PAIRS)
def test_winding_class_of_one_pair_is_winding_pair(pair):
    # one commutator routine serves both: the one-pair class report is the
    # pair's, bit for bit, apart from the orientation flag
    u, v = PAIRS[pair]()
    report = winding_class(unitary_pair_rep(u, v), ONE_PAIR)
    assert report.source_path_reversed is True
    assert replace(report, source_path_reversed=False) == winding_pair(u, v)


def test_winding_class_and_winding_pair_refuse_one_pair_alike():
    u, v = clock_shift(4)  # ||uv - vu|| = sqrt(2)
    with pytest.raises(HypothesisViolation, match="uv - vu") as by_pair:
        winding_pair(u, v)
    with pytest.raises(HypothesisViolation, match="uv - vu") as by_class:
        winding_class(unitary_pair_rep(u, v), ONE_PAIR)
    assert by_class.value.measured == by_pair.value.measured == pytest.approx(math.sqrt(2.0))


def test_winding_class_rejects_non_unitary_flavor(rng):
    from obstructkit.quasirep import perturbed_honest_rep, symmetrized_generators
    from obstructkit.words import free_abelian_presentation

    z2 = free_abelian_presentation(2)
    phi = perturbed_honest_rep(z2, symmetrized_generators(z2), 0.05, 4, rng)
    decomp = CommutatorDecomposition(((A, B),), A * B * A.inverse() * B.inverse())
    with pytest.raises(NotUnitary):
        winding_class(phi, decomp)

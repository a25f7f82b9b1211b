"""Winding numbers: dual-algorithm agreement, additivity, stability.

Three independent oracles: plain dense sampling of t -> det(t + (1-t)W) on
a fixed fine uniform grid, which shares no code path with the library's
closed-form phase sum; the nonsymmetric eigensolver ``np.linalg.eigvals``,
which the library's Hermitian eigenphases replace; and, up to dim 160, a
path sampled with no eigensolve at all (a Householder reduction to
Hessenberg form and Hyman's recurrence), which the library's LU pivot
argument sum replaces.
"""

import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructkit import winding
from obstructkit.errors import (
    BoundViolation,
    HypothesisViolation,
    NotUnitary,
    NumericalInconsistency,
    OpenPath,
)
from obstructkit.matcore import UNIT_ROUNDOFF, UNITARITY_TOL, dagger, op_norm, require_unitary
from obstructkit.quasirep import (
    clock_shift,
    honest_commuting_rep,
    unitary_pair_rep,
    voiculescu_pair,
)
from obstructkit.seeding import derive_rng, haar_unitary, random_hermitian
from obstructkit.winding import (
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


def assert_exact_clearance(report, u):
    """``samples_used`` is 1, and ``min_clearance`` is the exact minimum of
    ``|det(t + (1-t)U)|``, ``U`` the unitary the path method ran on: within
    1e-12 relative of ``|det((1 + U)/2)|`` from ``slogdet``, and at most the
    magnitude at 33 evenly spaced ``t``, plus 1e-12 relative."""
    assert report.samples_used == 1
    ts = np.linspace(0.0, 1.0, 33)
    stack = ts[:, None, None] * np.eye(u.shape[0]) + (1.0 - ts)[:, None, None] * u
    _, logabs = np.linalg.slogdet(np.concatenate([stack, (np.eye(u.shape[0]) + u)[None] / 2.0]))
    assert report.min_clearance == pytest.approx(math.exp(logabs[-1]), rel=1e-12)
    assert report.min_clearance <= np.exp(logabs[:-1]).min() * (1.0 + 1e-12)


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
    with pytest.raises(BoundViolation, match="unitarity_tol nan") as exc_info:
        winding_of_unitary(w, unitarity_tol=float("nan"))
    assert math.isnan(exc_info.value.measured)


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, -math.inf], ids=["nan", "negative", "minus-inf"])
@pytest.mark.parametrize("entry", ["winding_of_unitary", "winding_pair"])
def test_bad_unitarity_tolerance_is_a_bound_violation(entry, tol):
    # the tolerance is refused before any gate, even on a matrix that would
    # fail one: NotUnitary (exit 2) would blame the matrix for the tolerance
    far = np.diag([2.0, 1.0, 0.5])
    call = winding_of_unitary if entry == "winding_of_unitary" else (
        lambda a, unitarity_tol: winding_pair(a, a, unitarity_tol=unitarity_tol))
    with pytest.raises(BoundViolation) as exc_info:
        call(far, unitarity_tol=tol)
    assert exc_info.value.exit_code == 1
    measured = exc_info.value.measured
    assert measured == tol or (math.isnan(tol) and math.isnan(measured))


def test_infinite_tolerance_takes_the_polar_factor():
    # inf stays legal: n tau is past the phase budget, so both methods run
    # on the polar factor at UNITARITY_TOL
    w, expected = random_admissible_unitary(8, derive_rng(3, 8), winding=1)
    assert winding_of_unitary(w, unitarity_tol=math.inf).winding == expected
    u, v = voiculescu_pair(0.5, 2)
    assert winding_pair(u, v, unitarity_tol=math.inf).winding == 2


def test_report_json_fields():
    # only what can differ between two inputs is a field; agreement and
    # samples_used hold on every report, so they are class constants
    assert [f.name for f in fields(WindingReport)] == [
        "winding", "min_clearance", "source_path_reversed"]
    report = winding_of_unitary(np.eye(3))
    assert report.agreement is True and report.samples_used == 1
    obj = asdict(report)
    assert sorted(obj) == ["min_clearance", "source_path_reversed", "winding"]
    assert obj["winding"] == 0
    assert obj["source_path_reversed"] is False
    assert obj["min_clearance"] > 0
    assert_exact_clearance(winding_of_unitary(np.eye(3)), np.eye(3))


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
        w, expected = random_admissible_unitary(dim, rng)
        report = winding_of_unitary(w)
        assert report.agreement
        assert report.winding == expected
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
    assert report.winding == claimed


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


@pytest.mark.parametrize(
    "dim, k",
    [
        (120, 15), (160, 20), (160, -20),
        (200, 25), (400, 48), (600, 54), (600, 63), (600, 72), (800, 101), (800, -101),
    ],
)
def test_large_windings_do_not_alias(dim, k):
    # windings near the admissible cap, where a sampled path would need its
    # finest grid not to alias; dims 120 and 160 take the pivot argument sum
    w, claimed = random_admissible_unitary(dim, derive_rng(7, dim, abs(k)), winding=k)
    report = winding_of_unitary(w)
    assert report.winding == claimed == k
    assert_exact_clearance(report, w)


@pytest.mark.parametrize("dim", [8, 40, 159, 160, 161, 400, 800])
def test_clearance_has_one_source_at_every_dimension(dim, monkeypatch):
    # min_clearance is prod cos(theta_j / 2) over the eigenvalue method's
    # phases on both sides of PIVOT_DIM_LIMIT; only dims up to it run the
    # pivot route and round a second sum, so above it no sum is rounded twice
    w, expected = random_admissible_unitary(dim, derive_rng(11, dim), winding=1)
    rounded, pivot_sum, calls = winding._rounded_winding, winding._pivot_argument_sum, []

    def spy_rounding(phase_sum, residue_tol, error, what):
        calls.append((what, phase_sum))
        return rounded(phase_sum, residue_tol, error, what)

    def spy_pivot_sum(v):
        calls.append(("pivot sum", pivot_sum(v)))
        return calls[-1][1]

    monkeypatch.setattr(winding, "_rounded_winding", spy_rounding)
    monkeypatch.setattr(winding, "_pivot_argument_sum", spy_pivot_sum)
    report = winding_of_unitary(w)
    assert report.winding == expected
    _, logabs = np.linalg.slogdet((np.eye(dim) + w) / 2.0)
    assert report.min_clearance == pytest.approx(math.exp(logabs), rel=1e-12)
    if dim <= winding.PIVOT_DIM_LIMIT:
        assert [what for what, _ in calls] == ["eigenvalue", "pivot sum", "path"]
        assert calls[2][1] is calls[1][1]  # the path rounds the pivot sum
    else:
        assert [what for what, _ in calls] == ["eigenvalue"]


def test_distance_near_one_above_dense_dims(rng):
    # ||W - 1|| = 1 - 1e-9: the eigenvalues at +-pi/3 keep the path at least
    # cos(pi/6)^2 = 3/4 from the origin, however close the distance sits to 1
    theta = 2.0 * np.arcsin((1.0 - 1e-9) / 2.0)
    phases = np.zeros(170)
    phases[:2] = theta, -theta
    q = haar_unitary(170, rng)
    w = (q * np.exp(1j * phases)) @ dagger(q)
    report = winding_of_unitary(w)
    assert report.winding == 0
    assert_exact_clearance(report, w)
    assert report.min_clearance == pytest.approx(0.75, rel=1e-8)


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
    assert report.winding == 0


def test_loose_tolerance_takes_the_polar_factor(rng):
    # at tau = 1.1e-2 and dim 400 the Hermitian phases of W would sum to about
    # -0.59 turns and round to a wrong winding; beyond the phase budget both
    # methods run on the polar factor of W instead
    w = structured_defect_unitary(400, 1.1e-2, 1.04, rng)
    hermitian = -float(np.sum(np.arcsin(np.linalg.eigvalsh((w - dagger(w)) / 2j))))
    assert round(hermitian / (2.0 * np.pi)) != 0
    report = winding_of_unitary(w, unitarity_tol=1.1e-2)
    assert report.winding == 0


def test_loose_tolerance_dense_branch_off_circle(rng):
    # tau = 1e-2 at dim 160 takes the polar factor and its pivot sum.  A
    # third of the eigenvalues sit at (1 - tau/2) e^{+-1.04 i}, inside the
    # circle, and the rest on the positive axis at the radius that restores
    # |det W| = 1: the clearance is the polar factor's, not that of W
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
    assert report.winding == 0
    left, _, right = np.linalg.svd(w)
    assert_exact_clearance(report, left @ right)


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
    assert report.winding == 2
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
# sample.  Its Hessenberg form is checked against LAPACK's, its samples
# against np.linalg.slogdet and its windings against np.linalg.eigvals; up
# to winding.PIVOT_DIM_LIMIT the library's pivot-argument path is compared
# with the winding they give (_oracle_path_winding).  The oracle only has to be
# right, not fast: one product per term, the reflector built from x divided
# by its largest entry, T* stored and -1/h_{i,i-1} applied row by row.


def _hessenberg(w):
    """Upper Hessenberg ``H = Q* W Q`` (``Q`` not kept, zeros below the
    subdiagonal) by Householder reflections, 32 columns to a block in the
    compact WY form of LAPACK's ``zgehrd`` (Golub & Van Loan section 7.4).
    Each reflector is built from its column's tail divided by the tail's
    largest entry; an already reduced tail gets none, so exact zeros on the
    subdiagonal stay exact.  A subnormal column (largest entry below
    ``2^-1024``) yields NaN, as the division overflows: no oracle input has
    one, and a NaN fails the oracle's ``< pi/2`` jump assertion instead of
    returning a wrong integer.
    """
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


def _hyman_log_det(h, ts):
    """``log |det M_t|`` and unwrapped ``arg det M_t``, ``M_t = t + (1-t)H``,
    for upper Hessenberg ``H``, by Hyman's recurrence run from the last row
    up for all ``rho = t/(1-t)`` at once: O(n^2) per sample.  ``t = 1`` is
    set, not computed; a subdiagonal entry at most ``u ||H||_F`` splits
    ``H`` into blocks whose determinants multiply; ``x`` is rescaled by
    powers of two before it can overflow, and the exponents are summed
    exactly.  A kept subnormal subdiagonal entry (only when ``||H||_F`` is
    below about 5e-293) yields NaN, as ``-1 / h_{i,i-1}`` overflows: no
    oracle input has one.
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


def assert_hyman_matches_slogdet(h, w, ts, tol):
    """Hyman's log |det| and arg det of ``t + (1-t)H`` within ``tol`` of
    ``np.linalg.slogdet`` of ``t + (1-t)W``."""
    log_mag, ang = _hyman_log_det(h, ts)
    sign, logabs = np.linalg.slogdet(ts[:, None, None] * np.eye(len(w)) + (1.0 - ts)[:, None, None] * w)
    assert np.max(np.abs(log_mag - logabs)) < tol
    assert np.max(np.abs(np.angle(np.exp(1j * ang) / sign))) < tol


DENSE_KINDS = ("dense", "diagonal", "blocks", "tiny")


@pytest.mark.parametrize("kind", DENSE_KINDS)
# both sides of the first two 32-column block edges (n - 2 columns are
# reduced), up to PIVOT_DIM_LIMIT
@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5, 8, 13, 33, 34, 35, 40, 66, 67, 68, 80, 101, 100, 120, 130, 144, 159, 160))
def test_hessenberg_matches_lapack(dim, kind):
    # LAPACK's zgehrd (scipy.linalg.hessenberg) also fixes Q e_1 = e_1, so
    # while no subdiagonal is tiny both H are fixed by W up to a diagonal
    # unitary similarity (the implicit Q theorem), which keeps every |h_ij|:
    # they differ by about as much as LAPACK's H moves when W moves by a
    # random relative perturbation of one unit roundoff, and the bound is
    # 100 times that, plus 100 n u.  Past a 1e-200 coupling ("tiny") any
    # Hessenberg form is as valid, so only the leading columns are compared.
    # Exact zeros stay exact: a diagonal W comes back bit for bit, and a
    # block edge keeps its zero subdiagonal.  Hyman's samples on either H
    # match slogdet on W.
    gen = derive_rng(11, dim, DENSE_KINDS.index(kind))
    w = dense_test_matrix(kind, dim, gen)
    h, lapack_h = _hessenberg(w), scipy.linalg.hessenberg(w)
    assert np.all(np.tril(h, -2) == 0.0)
    if kind == "diagonal":
        assert np.array_equal(h, w)
    lead = dim
    if kind in ("blocks", "tiny") and dim > 1:
        cut = next(k for k in range(1, dim) if np.abs(w[k:, :k]).max() <= 1e-200)
        if kind == "blocks":
            assert h[cut, cut - 1] == 0.0
        else:
            lead = cut
    noise = (gen.standard_normal(w.shape) + 1j * gen.standard_normal(w.shape)) * np.abs(w)
    moved = np.abs(scipy.linalg.hessenberg(w + UNIT_ROUNDOFF * noise))
    own = np.max(np.abs(moved - np.abs(lapack_h))[: lead + 1, :lead], initial=0.0)
    gap = np.max(np.abs(np.abs(h) - np.abs(lapack_h))[: lead + 1, :lead], initial=0.0)
    assert gap <= 100.0 * (own + dim * UNIT_ROUNDOFF)
    ts = np.concatenate([np.linspace(0.0, 1.0, 9), 1.0 - np.logspace(-12.0, -1.0, 5)])
    assert_hyman_matches_slogdet(h, w, ts, 1e-10)
    assert_hyman_matches_slogdet(lapack_h, w, ts, 1e-10)


@pytest.mark.parametrize("tiny", (1e-310, 1e-160, 1e-140, 1e300))
def test_hessenberg_reflects_tiny_and_huge_columns(tiny):
    # the reflector comes from the tail divided by its largest entry, so a
    # tail whose squares underflow or overflow is reduced as a unit one is;
    # below 2^-1024 that entry's reciprocal overflows and the result is NaN
    w = np.diag(np.exp(1j * np.linspace(-0.5, 0.5, 6)))
    w[2:5, 0] = [tiny, -2.0 * tiny, 1j * tiny]
    if tiny < 2.0**-1024:
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(_hessenberg(w)).any()
        return
    h = _hessenberg(w)
    assert np.all(np.isfinite(h)) and np.all(np.tril(h, -2) == 0.0)
    assert abs(h[1, 0]) == pytest.approx(math.sqrt(6.0) * tiny, rel=1e-15)
    if tiny < 1.0:  # above, ||H||_F overflows: far outside Hyman's domain
        ts = np.concatenate([np.linspace(0.0, 1.0, 9), 1.0 - np.logspace(-12.0, -1.0, 5)])
        assert_hyman_matches_slogdet(h, w, ts, 1e-12)


@pytest.mark.parametrize("kind", DENSE_KINDS)
@pytest.mark.parametrize("dim", (1, 2, 3, 5, 7, 12, 30))
def test_hyman_rescales_every_row_of_a_scaled_hessenberg(dim, kind):
    # H scaled by 2^-960 puts every kept subdiagonal entry below 1e-289, so
    # a row may grow x by more than exp(600) and x is rescaled at every
    # row; samples at t near 2^-960 weigh t against H
    scale = 2.0**-960
    w = scale * dense_test_matrix(kind, dim, derive_rng(12, dim, DENSE_KINDS.index(kind)))
    ts = np.concatenate([scale * np.array([0.0, 0.25, 1.0, 4.0]), np.linspace(0.25, 1.0, 4), 1.0 - np.logspace(-12.0, -1.0, 3)])
    assert_hyman_matches_slogdet(_hessenberg(w), w, ts, 1e-10)


@pytest.mark.parametrize("dim, k", [(40, 2), (40, -2), (160, 10), (160, -10)])
def test_dense_path_never_reads_the_phases(dim, k, monkeypatch):
    # moving every eigenphase by 2 pi / dim shifts the eigenvalue method by
    # one turn; the pivot argument sum, and the path winding taken from it, must
    # keep the true winding, and the dual gate must fire
    eigenphases = winding._eigenphases

    def shifted(w, tol):
        theta, residue_tol = eigenphases(w, tol)
        return theta - math.copysign(2.0 * np.pi / len(theta), k), residue_tol

    monkeypatch.setattr(winding, "_eigenphases", shifted)
    w, _ = random_admissible_unitary(dim, derive_rng(7, dim, abs(k)), winding=k)
    with pytest.raises(NumericalInconsistency, match="methods disagree") as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == (k + int(math.copysign(1, k)), k)  # (eigenvalue, path)


def _oracle_path_winding(w):
    """Winding and smallest sampled ``|det|`` of ``t -> det(t + (1-t)W)``
    with no Hermitian eigensolve: :func:`_hyman_log_det` on :func:`_hessenberg`,
    sampled on a grid on which no true argument increment reaches pi/2, its
    wrapped increments summed and rounded; ``None`` for a path that does not
    close to within 1e-6 of an integer turn.

    Along ``t -> t + (1-t) e^{i theta}`` the argument turns at speed at most
    ``2 |tan(theta / 2)|``, so on ``N > 2 speed / pi`` intervals, ``speed``
    summed over the phases, no increment reaches pi/2.  The phases come from
    ``np.linalg.eigvals``, and one interval of slack covers their distance
    from the exact ones; ``N`` is at least 64 and even, so the grid holds
    ``t = 1/2``, where every factor is smallest.
    """
    theta = np.angle(np.linalg.eigvals(w))
    speed = 2.0 * float(np.sum(np.abs(np.tan(theta / 2.0))))
    intervals = max(64, math.ceil(2.0 * speed / math.pi) + 2)
    intervals += intervals % 2
    log_mag, ang = _hyman_log_det(_hessenberg(w), np.linspace(0.0, 1.0, intervals + 1))
    jumps = np.angle(np.exp(1j * np.diff(ang)))
    assert np.max(np.abs(jumps)) < np.pi / 2.0
    total = float(np.sum(jumps)) / (2.0 * np.pi)
    closed = abs(total - round(total)) < 1e-6
    return round(total) if closed else None, float(np.exp(log_mag.min()))


def _oracle_input(seed):
    """A seeded input up to ``PIVOT_DIM_LIMIT`` and its family, one of five:
    admissible, block diagonal, block diagonal with a 1e-200 coupling, and
    twice admissible, for the shifted eigenphases and the shifted pivot sum
    of :func:`test_cayley_path_matches_the_hyman_oracle`."""
    gen = derive_rng(13, seed)
    dim = int(gen.integers(1, 161))
    family = seed % 5
    if family in (1, 2):
        return dense_test_matrix(("blocks", "tiny")[family - 1], dim, gen), family
    return random_admissible_unitary(dim, gen)[0], family


@pytest.mark.parametrize("seed", range(210, 420))
def test_cayley_path_matches_the_hyman_oracle(seed, monkeypatch):
    # the eigensolver-free cross-check of the pivot route (the test is named
    # for the Cayley route it checked first).  Families 0-2: the pivot route
    # returns the oracle path's winding, and its clearance is the oracle's
    # sample at t = 1/2, or it refuses an open path (a 1 x 1 block diagonal
    # input) as the oracle does.  Family 3: every eigenphase moved by 2 pi / n
    # moves the eigenvalue method, and not the path, one turn down.  Family 4:
    # the pivot sum moved by one turn moves the path method, and not the other.
    w, family = _oracle_input(seed)
    oracle, oracle_min = _oracle_path_winding(w)
    if family == 3:
        eigenphases = winding._eigenphases

        def shifted(w, tol):
            theta, residue_tol = eigenphases(w, tol)
            return theta + 2.0 * np.pi / len(w), residue_tol

        monkeypatch.setattr(winding, "_eigenphases", shifted)
        measured = (oracle - 1, oracle)  # (eigenvalue, path)
    elif family == 4:
        pivot_sum = winding._pivot_argument_sum
        monkeypatch.setattr(winding, "_pivot_argument_sum", lambda w: pivot_sum(w) + 2.0 * np.pi)
        measured = (oracle, oracle - 1)
    elif oracle is None:
        with pytest.raises(OpenPath):
            winding_of_unitary(w)
        return
    else:
        report = winding_of_unitary(w)
        assert report.winding == oracle
        assert report.min_clearance == pytest.approx(oracle_min, rel=1e-9)
        return
    with pytest.raises(NumericalInconsistency, match="methods disagree") as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == measured


@pytest.mark.parametrize("seed", range(210))
def test_hyman_oracle_matches_the_eigenvalues(seed):
    # the oracle itself against np.linalg.eigvals, on 210 other inputs of
    # the same five families: its winding is minus the summed eigenvalue
    # arguments over 2 pi (None where that sum is no integer turn), and its
    # smallest sample is the one at t = 1/2, prod |cos(theta / 2)|, where
    # every factor |t + (1-t) e^{i theta}| is smallest
    w, _ = _oracle_input(seed)
    oracle, oracle_min = _oracle_path_winding(w)
    theta = np.angle(np.linalg.eigvals(w))
    turns = -math.fsum(theta) / (2.0 * np.pi)
    assert oracle == (round(turns) if abs(turns - round(turns)) < 1e-6 else None)
    assert oracle_min == pytest.approx(np.prod(np.abs(np.cos(theta / 2.0))), rel=1e-9)


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


def passes_unitarity(w, tol):
    """Whether ``w`` alone passes the library's unitarity gate at ``tol``."""
    try:
        require_unitary((w,), tol, ("w",))
    except NotUnitary:
        return False
    return True


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
    if not passes_unitarity(w, tau):
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


def pivot_sum_bound(size, residuals):
    """The proven miss of ``winding._pivot_argument_sum`` from the eigenphase
    sum of the polar factor, in radians:
    ``(sqrt(N/2) sum_l rho_l + 60 (N/2)^{5/2} u + 300 N u) / 0.4969 + 2 N (N + 2) u``,
    ``N`` the padded size and ``rho_l`` the levels' residual norms."""
    u, half = UNIT_ROUNDOFF, size / 2.0
    return ((math.sqrt(half) * math.fsum(residuals) + 60.0 * half**2.5 * u + 300.0 * size * u)
            / 0.4969 + 2.0 * size * (size + 2) * u)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 160),
    offset=st.floats(-0.5, -1e-9),
    tau_frac=st.floats(0.0, 1.0),
    defect_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pivot_argument_sum_lies_within_its_bound(dim, offset, tau_frac, defect_frac, seed):
    # tau from 1e-12 up to the phase budget, on a log scale, and non-normal W
    # near the ||W - 1|| < 1 edge; the oracle is the eigenphase sum of the
    # polar factor from an SVD, whose own error 30 n (n + 3) u covers.  The
    # bound has no tau term: the pivot sum of W is that of its polar factor
    top = math.log10(winding.HERMITIAN_PHASE_BUDGET / dim)
    tau = 10.0 ** (-12.0 + tau_frac * (top + 12.0))
    w = near_unit_distance_matrix(dim, offset, defect_frac * tau, derive_rng(seed, dim))
    if not passes_unitarity(w, tau) or op_norm(w - np.eye(dim)) >= 1.0:
        return
    left, _, right = np.linalg.svd(w)
    phi_sum = math.fsum(np.angle(np.linalg.eigvals(left @ right)))
    solve, sizes, residuals = np.linalg.solve, [dim], []

    def spy(a, b):
        x = solve(a, b)
        sizes.append(2 * a.shape[-1])
        residuals.append(float(np.linalg.norm(a @ x - b)))
        return x

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", spy)
        total = winding._pivot_argument_sum(w)
    oracle_error = 30.0 * dim * (dim + 3) * UNIT_ROUNDOFF
    assert abs(total - phi_sum) <= pivot_sum_bound(max(sizes), residuals) + oracle_error


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

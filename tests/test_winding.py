"""Winding numbers: dual-algorithm agreement, additivity, stability.

Two independent oracles: plain dense sampling of t -> det(t + (1-t)W) on a
fixed fine uniform grid, which shares no code path with the library's
certified grid; and the nonsymmetric eigensolver ``np.linalg.eigvals``,
which the library's Hermitian eigenphases replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructkit import winding
from obstructkit.errors import (
    HypothesisViolation,
    NotUnitary,
    NumericalInconsistency,
    OpenPath,
)
from obstructkit.matcore import UNITARITY_TOL, block_sum, dagger, is_unitary, op_norm
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
    winding_report_to_json,
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


def test_non_unitary_rejected():
    with pytest.raises(NotUnitary):
        winding_of_unitary(np.diag([0.9, 1.0]))


def test_nan_tolerance_refuses():
    w, _ = random_admissible_unitary(8, derive_rng(3, 8), winding=1)
    with pytest.raises(NotUnitary):
        winding_of_unitary(w, unitarity_tol=float("nan"))


def test_report_json_fields():
    obj = winding_report_to_json(winding_of_unitary(np.eye(3)))
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
    """Samples of the certified grid, on the dense-LU and spectral branches alike.

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
    # 120 and 160 take the dense-LU samples on the same certified grid.
    w, claimed = random_admissible_unitary(dim, derive_rng(7, dim, abs(k)), winding=k)
    report = winding_of_unitary(w)
    assert report.winding == report.path_method == claimed == k
    assert report.samples_used <= certified_sample_count(w)


def test_coarse_grid_refuses_on_dense_branch(monkeypatch):
    # four intervals at dim 160 are far below the certified count; the dense
    # samples must then be refused, never read as a winding: at k = 15 one
    # wrapped jump reaches pi/2, at k = +-20 every jump aliases to a small
    # one and the path reads 0 against the eigenvalue method's +-20
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


def test_loose_tolerance_takes_nonsymmetric_phases(rng):
    # at tau = 1.1e-2 and dim 400 the Hermitian phases would sum to about
    # -0.59 turns and round to a wrong winding; beyond the phase budget the
    # eigenvalue method reads the arguments of eigvals instead
    w = structured_defect_unitary(400, 1.1e-2, 1.04, rng)
    hermitian = -float(np.sum(np.arcsin(np.linalg.eigvalsh((w - dagger(w)) / 2j))))
    assert round(hermitian / (2.0 * np.pi)) != 0
    report = winding_of_unitary(w, unitarity_tol=1.1e-2)
    assert report.winding == report.eigenvalue_method == report.path_method == 0


def test_loose_tolerance_dense_branch_off_circle(rng):
    # tau = 1e-2 at dim 160 takes the eigvals phases and the dense-LU samples;
    # a third of the eigenvalues sit at (1 - tau/2) e^{+-1.04 i}, inside the
    # circle, and the rest on the positive axis at the radius that restores
    # |det W| = 1, so the chords leave the circle the grid was certified for
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


# ---------------------------------------------------------------------------
# dense path samples: Householder + Hyman against slogdet
# ---------------------------------------------------------------------------


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
    w = np.array(block_sum(
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
    h = winding._hessenberg(w)
    assert np.all(np.tril(h, -2) == 0.0)
    if kind == "diagonal":
        assert np.all(np.diagonal(h, -1) == 0.0)
    log_mag, ang = winding._hyman_log_det(h, ts)
    assert np.all(np.isfinite(log_mag)) and np.all(np.isfinite(ang))
    stack = ts[:, None, None] * np.eye(dim) + (1.0 - ts)[:, None, None] * w
    sign, logabs = np.linalg.slogdet(stack)
    assert np.max(np.abs(log_mag - logabs)) < 1e-10
    assert np.max(np.abs(np.angle(np.exp(1j * ang) / sign))) < 1e-10
    at_one = ts == 1.0
    assert np.all(log_mag[at_one] == 0.0) and np.all(ang[at_one] == 0.0)


@pytest.mark.parametrize("dim, k", [(40, 2), (40, -2), (160, 10), (160, -10)])
def test_dense_path_never_reads_the_phases(dim, k, monkeypatch):
    # moving every eigenphase by 2 pi / dim (away from 0, so the grid only
    # gets finer) shifts the eigenvalue method by one turn; the Hessenberg
    # samples must keep the true winding, and the dual gate must fire
    eigenphases = winding._eigenphases

    def shifted(w, tol):
        theta, residue_tol = eigenphases(w, tol)
        return theta - math.copysign(2.0 * np.pi / len(theta), k), residue_tol

    monkeypatch.setattr(winding, "_eigenphases", shifted)
    w, _ = random_admissible_unitary(dim, derive_rng(7, dim, abs(k)), winding=k)
    with pytest.raises(NumericalInconsistency, match="methods disagree"):
        winding_of_unitary(w)


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


# ---------------------------------------------------------------------------
# algebraic invariants
# ---------------------------------------------------------------------------


def test_block_sum_additivity(rng):
    for _ in range(20):
        d1, d2 = int(rng.integers(2, 15)), int(rng.integers(2, 15))
        w1, k1 = random_admissible_unitary(d1, rng)
        w2, k2 = random_admissible_unitary(d2, rng)
        report = winding_of_unitary(block_sum(w1, w2))
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
    report = winding_pair(block_sum(u1, u2), block_sum(v1, v2))
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


def test_winding_class_rejects_non_unitary_flavor(rng):
    from obstructkit.quasirep import perturbed_honest_rep, symmetrized_generators
    from obstructkit.words import free_abelian_presentation

    z2 = free_abelian_presentation(2)
    phi = perturbed_honest_rep(z2, symmetrized_generators(z2), 0.05, 4, rng)
    decomp = CommutatorDecomposition(((A, B),), A * B * A.inverse() * B.inverse())
    with pytest.raises(NotUnitary):
        winding_class(phi, decomp)

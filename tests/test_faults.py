"""Fault table: an injected fault in one stage of a reported integer must end
in a refusal, never in a different integer.

Each row monkeypatches one stage on an input whose integer is known by
construction, then asserts the exception.  The Smith-form rows are
``tests/test_homology.py::test_verify_snf_refuses_a_non_unimodular_transform``,
which doubles a transform row,
``tests/test_homology.py::test_verify_snf_refuses_a_false_normal_form`` and
``tests/test_homology.py::test_verify_snf_refuses_a_negative_diagonal_entry``;
each expects ``_verify_snf`` to refuse.  The H2 ranks come from exact arithmetic
checked against sympy, so they need no row.  The connecting unitaries carry
no integer, but their certificates are refusals too, so they have rows here.
Gates whose norms the bound screen proves (``matcore.screened_norms``) must
refuse a fault as the exact norms alone do: the same class, message and
``measured`` as with a screen that clears nothing.
"""

import numpy as np
import pytest

from obstructkit import matcore, projops, winding
from obstructkit.audit import random_pairing_instance, run_trial
from obstructkit.errors import NotProjection, NumericalInconsistency, ObstructkitError
from obstructkit.matcore import coordinate_projection
from obstructkit.projops import chain_conjugation, pairing
from obstructkit.seeding import derive_rng, random_rotation
from obstructkit.winding import random_admissible_unitary, winding_of_unitary


def _patch_eigh(monkeypatch, fault):
    """Route ``np.linalg.eigh`` through ``fault(lam, vecs)``."""
    eigh = np.linalg.eigh

    def faulty(a):
        lam, vecs = eigh(a)
        return fault(lam.copy(), vecs.copy())

    monkeypatch.setattr(np.linalg, "eigh", faulty)


def _flip_nearest_half(lam, vecs):
    i = int(np.abs(lam - 0.5).argmin())
    lam[i] = 1.0 - lam[i]
    return lam, vecs


def _duplicate_a_column_above(lam, vecs):
    above = np.flatnonzero(lam > 0.5)
    vecs[:, above[0]] = vecs[:, above[-1]]
    return lam, vecs


def test_pairing_flip_is_refused(monkeypatch):
    inp, expected = random_pairing_instance(derive_rng(1, 2))
    assert expected == -1 and pairing(inp).index == expected
    _patch_eigh(monkeypatch, _flip_nearest_half)
    with pytest.raises(NumericalInconsistency):
        pairing(inp)


def test_pairing_rank_loss_is_refused_above_the_cut(monkeypatch):
    inp, _ = random_pairing_instance(derive_rng(1, 2))
    _patch_eigh(monkeypatch, _duplicate_a_column_above)
    with pytest.raises(NumericalInconsistency, match="above") as exc_info:
        pairing(inp)
    assert exc_info.value.measured == "above"


def _shift_every_phase(monkeypatch):
    """Shift every eigenphase by ``2 pi / n``: the phase sum, and so the
    eigenvalue winding, moves by one."""
    eigenphases = winding._eigenphases

    def shifted(w, tol):
        theta, residue_tol = eigenphases(w, tol)
        return theta + 2.0 * np.pi / w.shape[0], residue_tol

    monkeypatch.setattr(winding, "_eigenphases", shifted)


@pytest.mark.parametrize(
    "dim",
    [
        40,
        160,
        pytest.param(
            200,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 3: above PIVOT_DIM_LIMIT the path method sums the "
                "eigenvalue method's own phases, so the fault returns winding 0 for 1",
            ),
        ),
    ],
)
def test_winding_phase_shift_is_refused(monkeypatch, dim):
    w, expected = random_admissible_unitary(dim, derive_rng(1, dim), winding=1)
    assert expected == 1 and winding_of_unitary(w).winding == expected
    _shift_every_phase(monkeypatch)
    with pytest.raises(NumericalInconsistency):
        winding_of_unitary(w)


def _patch_pivot_sum(monkeypatch, fault):
    """Route the sum of ``winding._pivot_argument_sum`` through ``fault``."""
    pivot_sum = winding._pivot_argument_sum
    monkeypatch.setattr(winding, "_pivot_argument_sum", lambda w: fault(pivot_sum(w)))


@pytest.mark.parametrize("dim", [8, 40, 160])
def test_cayley_phase_shift_is_refused(monkeypatch, dim):
    # the pivot argument sum moved by one turn moves the path method, and
    # not the eigenvalue method, by one turn (the name is the Cayley route's,
    # which this row covered before the pivot sum replaced it)
    w, expected = random_admissible_unitary(dim, derive_rng(1, dim), winding=1)
    assert expected == 1 and winding_of_unitary(w).winding == expected
    _patch_pivot_sum(monkeypatch, lambda total: total + 2.0 * np.pi)
    with pytest.raises(NumericalInconsistency, match="methods disagree") as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == (1, 0)  # (eigenvalue, path)


def _faulted_solve(monkeypatch, members):
    """Add 1e-6 to every entry of the stacked solves of ``members`` systems,
    and return the list the expected residual norms are appended to."""
    solve, expected = np.linalg.solve, []

    def faulted(a, b):
        x = solve(a, b)
        if len(a) != members:
            return x
        expected.append(np.linalg.norm(a @ np.full_like(b, 1e-6)))
        return x + 1e-6

    monkeypatch.setattr(np.linalg, "solve", faulted)
    return expected


def test_cayley_solve_fault_is_refused_by_its_residual(monkeypatch):
    # the first level's solve + 1e-6 leaves the residual W11 1e-6 J, and the
    # level gate refuses it (the name is the Cayley route's, as above)
    w, expected = random_admissible_unitary(40, derive_rng(1, 40), winding=1)
    assert winding_of_unitary(w).winding == expected
    _faulted_solve(monkeypatch, 1)
    with pytest.raises(NumericalInconsistency, match="pivot level residual") as exc_info:
        winding_of_unitary(w)
    residual = w[:20, :20] @ np.full((20, 20), 1e-6)
    assert exc_info.value.measured == pytest.approx(np.linalg.norm(residual), rel=1e-9)


@pytest.mark.parametrize("members", [2, 8])
def test_pivot_level_fault_is_refused_by_its_residual(monkeypatch, members):
    # a fault in a deeper level's stacked solve (levels 1 and 3 of four at
    # dim 160) is refused by that level's gate, carrying its stacked residual
    w, expected = random_admissible_unitary(160, derive_rng(1, 160), winding=1)
    assert winding_of_unitary(w).winding == expected
    residuals = _faulted_solve(monkeypatch, members)
    with pytest.raises(NumericalInconsistency, match="pivot level residual") as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == pytest.approx(residuals[0], rel=1e-6)


@pytest.mark.parametrize("dim", [8, 160])
def test_pivot_leaf_fault_is_refused(monkeypatch, dim):
    # 1e-3 added below the first pivot of every leaf moves the pivot sum off
    # its integer; the path method refuses what no level gate sees
    w, expected = random_admissible_unitary(dim, derive_rng(1, dim), winding=1)
    assert winding_of_unitary(w).winding == expected
    eliminate, sums = winding._eliminate, []

    def faulted(a):
        a = a + 1e-3 * (np.arange(a.shape[-1]) == 1)[:, None] * (np.arange(a.shape[-1]) == 0)
        pivots = eliminate(a)
        sums.append(float(np.sum(np.angle(pivots))))
        return pivots

    monkeypatch.setattr(winding, "_eliminate", faulted)
    with pytest.raises(NumericalInconsistency, match="path argument sum") as exc_info:
        winding_of_unitary(w)
    total = -sums[0] / (2.0 * np.pi)
    assert exc_info.value.measured == pytest.approx(abs(total - round(total)), rel=1e-9)
    assert exc_info.value.measured > winding.EIG_RESIDUE_TOL


@pytest.mark.parametrize("drift", [0.3], ids=["argument-drift"])
def test_winding_path_fault_is_refused(monkeypatch, drift):
    # the pivot sum moved by 0.3, not a whole turn, no longer rounds
    w, expected = random_admissible_unitary(40, derive_rng(1, 40), winding=1)
    assert winding_of_unitary(w).winding == expected
    _patch_pivot_sum(monkeypatch, lambda total: total + drift)
    with pytest.raises(NumericalInconsistency, match="path argument sum") as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == pytest.approx(drift / (2.0 * np.pi), rel=1e-9, abs=0.0)


def test_connecting_unitary_conjugation_fault_is_refused(monkeypatch):
    # the complex conjugate of each polar factor no longer carries p to q
    assert max(run_trial("path_uni", 7, 0).values()) <= 1.0
    polar_unitaries = projops.polar_unitaries
    monkeypatch.setattr(projops, "polar_unitaries", lambda a: polar_unitaries(a).conj())
    with pytest.raises(NumericalInconsistency, match="conjugation identity failed"):
        run_trial("path_uni", 7, 0)


def test_chain_drift_is_refused(monkeypatch):
    # each step's unitary scaled by 1.0001: the product drifts off p_m
    assert max(run_trial("chain", 7, 0).values()) <= 1.0
    connecting_unitaries = projops._connecting_unitaries

    def scaled(*args):
        return connecting_unitaries(*args) * 1.0001

    monkeypatch.setattr(projops, "_connecting_unitaries", scaled)
    with pytest.raises(NumericalInconsistency, match="chained conjugation drift"):
        run_trial("chain", 7, 0)


def _refusal(call) -> tuple:
    with pytest.raises(ObstructkitError) as exc_info:
        call()
    return type(exc_info.value), str(exc_info.value), exc_info.value.measured


def _screened_and_exact_refusals(monkeypatch, call) -> tuple:
    """The refusal of ``call``, then its refusal with a screen that clears
    nothing, so that every gate norms every member exactly."""
    screened = _refusal(call)
    monkeypatch.setattr(matcore, "_screen", lambda stack, bounds: np.zeros(len(stack), bool))
    return screened, _refusal(call)


def test_chain_step_commutator_fault_is_refused(monkeypatch):
    # ||[u, x]|| is about eps / 60 here: each step's scale cut by 1e-5 puts
    # 28 eps + 1e-9 below it
    connecting_unitaries = projops._connecting_unitaries

    def shrunk(path, ops, step_eps):
        return connecting_unitaries(path, ops, [1e-5 * eps for eps in step_eps])

    monkeypatch.setattr(projops, "_connecting_unitaries", shrunk)
    screened, exact = _screened_and_exact_refusals(monkeypatch, lambda: run_trial("chain", 7, 0))
    assert screened == exact
    kind, text, measured = screened
    assert kind is NumericalInconsistency and text.startswith("commutator bound failed")
    assert f"{measured:.3e}" in text


def test_chain_projection_off_by_a_millionth_is_refused(monkeypatch):
    gen = derive_rng(7, 33)
    rots = random_rotation(5, gen, 0.05 * np.arange(8))
    path = rots @ coordinate_projection(5, 2) @ rots.conj().transpose(0, 2, 1)
    path[3] += 1e-6 * np.eye(5)  # hermitian still: only ||a^2 - a|| fails
    ops = [random_rotation(5, gen, 0.01) for _ in range(2)]
    screened, exact = _screened_and_exact_refusals(
        monkeypatch, lambda: chain_conjugation(path, ops))
    assert screened == exact
    kind, text, measured = screened
    assert kind is NotProjection and text.startswith("path projection 3 is not a projection")
    assert measured == pytest.approx(1e-6, rel=1e-3)

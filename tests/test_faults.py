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
                reason="ROADMAP item 3: above CAYLEY_DIM_LIMIT the path method sums the "
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


@pytest.mark.parametrize("dim", [8, 40, 160])
def test_cayley_phase_shift_is_refused(monkeypatch, dim):
    # every Cayley phase moved by 2 pi / n moves the path method, and not the
    # eigenvalue method, by one turn
    w, expected = random_admissible_unitary(dim, derive_rng(1, dim), winding=1)
    assert expected == 1 and winding_of_unitary(w).winding == expected
    cayley_phases = winding._cayley_phases
    monkeypatch.setattr(
        winding, "_cayley_phases", lambda w, tol: cayley_phases(w, tol) + 2.0 * np.pi / len(w))
    with pytest.raises(NumericalInconsistency, match="methods disagree") as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == (1, 0)  # (eigenvalue, path)


def test_cayley_solve_fault_is_refused_by_its_residual(monkeypatch):
    # 1e-6 added to every entry of X leaves the residual (1 + W) 1e-6 J
    w, expected = random_admissible_unitary(40, derive_rng(1, 40), winding=1)
    assert winding_of_unitary(w).winding == expected
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(NumericalInconsistency, match="Cayley solve residual") as exc_info:
        winding_of_unitary(w)
    residual = (np.eye(40) + w) @ np.full((40, 40), 1e-6)
    assert exc_info.value.measured == pytest.approx(np.linalg.norm(residual), rel=1e-9)


def _patch_cayley_phases(monkeypatch, fault):
    """Route the phases of ``winding._cayley_phases`` through ``fault(theta)``."""
    cayley_phases = winding._cayley_phases
    monkeypatch.setattr(winding, "_cayley_phases", lambda w, tol: fault(cayley_phases(w, tol)))


def _drift_every_phase(theta):
    return theta + 0.3 / len(theta)  # the phase sum moves by 0.3, not a whole turn


def _one_phase_at_pi(theta):
    theta[0] = np.pi  # an eigenvalue at -1: the path meets the origin at t = 1/2
    return theta


@pytest.mark.parametrize(
    "fault, text, measured",
    [
        (_drift_every_phase, "does not close to an integer winding", 0.3 / (2.0 * np.pi)),
        (_one_phase_at_pi, "reached zero", 0.0),
    ],
    ids=["argument-drift", "zero-clearance"],
)
def test_winding_path_fault_is_refused(monkeypatch, fault, text, measured):
    w, expected = random_admissible_unitary(40, derive_rng(1, 40), winding=1)
    assert winding_of_unitary(w).winding == expected
    _patch_cayley_phases(monkeypatch, fault)
    with pytest.raises(NumericalInconsistency, match=text) as exc_info:
        winding_of_unitary(w)
    assert exc_info.value.measured == pytest.approx(measured, rel=1e-9, abs=0.0)


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

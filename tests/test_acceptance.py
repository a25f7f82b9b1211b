"""Acceptance gate: the eight headline guarantees, each with its CPU-time budget.

Run with ``pytest -v tests/test_acceptance.py``: each criterion is one test,
so the verbose listing shows one PASS/FAIL line per criterion.  Every test
also prints its measured CPU time against the budget (visible with ``-s`` or
in failure output).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from obstructkit.audit import random_pairing_instance, run_suite
from obstructkit.homology import (
    AbelianGroup,
    free_by_cyclic_h2,
    int_matrix,
    mapping_torus_surface_h2,
    obstruction_count,
    symplectic_check,
)
from obstructkit.eta import CharacterTwist, eta_character_abel, eta_character_closed
from obstructkit.matcore import dagger, op_norm
from obstructkit.projops import pairing, pairing_block_sum, pairing_input
from obstructkit.quasirep import commutation_defect, voiculescu_pair
from obstructkit.seeding import derive_rng, random_projection
from obstructkit.winding import random_admissible_unitary, winding_of_unitary, winding_pair

ACCEPT_SEED = 20240819


@contextmanager
def budget(criterion: int, label: str, seconds: float):
    # CPU time of this process, BLAS threads included: other load on the
    # host slows the wall clock, not this count
    start = time.process_time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {criterion} ({label}): FAIL")
        raise
    elapsed = time.process_time() - start
    print(
        f"[acceptance] criterion {criterion} ({label}): PASS "
        f"in {elapsed:.2f}s CPU (budget {seconds:.0f}s)"
    )
    assert elapsed < seconds, f"criterion {criterion} took {elapsed:.2f}s CPU >= {seconds}s"


def test_criterion_1_voiculescu_realization():
    with budget(1, "voiculescu pairs realize every winding", 5.0):
        for delta in (0.5, 0.25, 0.1):
            for k in range(-5, 6):
                u, v = voiculescu_pair(delta, k)
                assert commutation_defect(u, v) < delta
                report = winding_pair(u, v)
                assert report.winding == k
                assert report.agreement


def test_criterion_2_dual_method_agreement():
    with budget(2, "10000 random unitaries, both algorithms agree", 60.0):
        rng = derive_rng(ACCEPT_SEED, 2)
        for _ in range(10_000):
            dim = int(rng.integers(2, 41))
            w, expected = random_admissible_unitary(dim, rng)
            report = winding_of_unitary(w)
            assert report.winding == expected
            assert report.agreement
            assert report.min_clearance > 0.0


def test_criterion_3_unitarization_bound():
    with budget(3, "1000 unitarizations stay within the 6-eps bound", 120.0):
        result = run_suite("unitarize", ACCEPT_SEED, 1000)
        assert result.passed, result.failures[:3]
        assert result.failures == ()
        assert result.worst_ratios["defect"] <= 1.0
        assert result.worst_ratios["closeness"] <= 1.0
        assert result.worst_ratios["unitarity"] <= 1.0


def test_criterion_4_almost_projection_constants():
    with budget(4, "gap-lemma and path-to-unitary constants, 10000 trials each", 120.0):
        gap = run_suite("alm_proj", ACCEPT_SEED, 10_000)
        assert gap.passed, gap.failures[:3]
        assert gap.worst_ratios["commutator"] <= 1.0
        path = run_suite("path_uni", ACCEPT_SEED, 10_000)
        assert path.passed, path.failures[:3]
        assert path.worst_ratios["conjugation"] <= 1.0
        assert path.worst_ratios["commutator"] <= 1.0


def test_criterion_5_eta_closed_form():
    with budget(5, "rho = -q exactly and Abel eta within 1e-6", 10.0):
        for j in range(1, 200):
            q = j / 200.0
            assert eta_character_closed(CharacterTwist(q)).rho_mod_Z == (-q) % 1.0
            res = eta_character_abel(CharacterTwist(q))
            assert abs(res.eta - (1.0 - 2.0 * q)) <= 1e-6


def test_criterion_6_homology_fixtures():
    with budget(6, "homology fixtures exact", 1.0):
        assert free_by_cyclic_h2(int_matrix([[1]])) == AbelianGroup(free_rank=1)
        assert free_by_cyclic_h2(int_matrix([[-1]])) == AbelianGroup(free_rank=0)
        a = int_matrix([[5, 3, 0, 0], [3, 2, 0, 0], [0, 0, 5, 3], [0, 0, 3, 2]])
        j = int_matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        phi = int_matrix([[0, 0, -5, -3], [0, 0, 3, 2], [-5, -3, 0, 0], [3, 2, 0, 0]])
        assert mapping_torus_surface_h2(-1, phi) == AbelianGroup(0, (2,))
        assert symplectic_check(a, j)


def test_criterion_7_pairing_sanity():
    with budget(7, "index pairing: zero case, additivity, idempotency", 60.0):
        rng = derive_rng(ACCEPT_SEED, 7)
        # b = 0 pairs to index 0 whatever the projection
        for _ in range(20):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            q = random_projection(n * k, int(rng.integers(1, n * k)), rng)
            result = pairing(pairing_input(np.zeros((2 * n, 2 * n)), q, n, k))
            assert result.index == 0
            p = result.projection
            assert op_norm(p @ p - p) <= 1e-10
            assert op_norm(p - dagger(p)) <= 1e-10
        # block-sum additivity over 500 composable instances
        done = 0
        while done < 500:
            a, ia = random_pairing_instance(rng)
            b, ib = random_pairing_instance(rng)
            if a.k_dim != b.k_dim:
                continue  # only equal corner sizes compose
            combined = pairing(pairing_block_sum(a, b))
            assert combined.index == ia + ib
            p = combined.projection
            assert op_norm(p @ p - p) <= 1e-10
            done += 1


def test_criterion_8_obstruction_count_table():
    with budget(8, "obstruction counts match the case table", 5.0):
        for genus in (1, 2, 3, 9):
            assert obstruction_count("surface", genus=genus, orientable=True) == 1
            assert obstruction_count("surface", genus=genus, orientable=False) == 0
        for n in (1, 2, 5):
            assert obstruction_count("bs", n=n, m=n) == 1
            assert obstruction_count("bs", n=n, m=-n) == 0
        assert obstruction_count("bs", n=2, m=3) == 0
        assert obstruction_count("fbc", phi_star=int_matrix([[1]])) == 1
        assert obstruction_count("fbc", phi_star=int_matrix([[-1]])) == 0
        shear = int_matrix([[1, 1], [0, 1]])
        assert obstruction_count("fbc", phi_star=shear) == 1

"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from obstructkit.errors import ObstructkitError  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [9, 12] (runs past the root's end); a has a child [2, 3].
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert tracer.self_times(parent, start, end) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_tracer_summary_counts_calls_and_self_time():
    rec = tracer.Tracer()
    leaf = rec.wrap("lapack.svd", lambda: None)
    outer = rec.wrap("matcore.op_norm", lambda: (leaf(), leaf()))
    outer()
    outer()
    summary = rec.summary()
    assert summary["matcore.op_norm"][0] == 2
    assert summary["lapack.svd"][0] == 4
    # self times of a properly nested tree add up to the roots' durations
    roots = sum(e - s for p, s, e in zip(rec.parent, rec.start, rec.end) if p < 0)
    assert summary["matcore.op_norm"][1] + summary["lapack.svd"][1] == pytest.approx(roots)


def test_install_patches_every_binding_and_uninstalls():
    import numpy as np

    import obstructkit
    from obstructkit import matcore, winding

    original = matcore.op_norm
    rec = tracer.Tracer()
    uninstall = tracer.install(rec)
    try:
        assert winding.op_norm is matcore.op_norm is obstructkit.op_norm
        assert matcore.op_norm is not original
        np.linalg.svd(np.eye(2))  # outside any obstructkit span: not recorded
        obstructkit.op_norm(np.eye(3))
    finally:
        uninstall()
    assert winding.op_norm is original
    names = [rec.names[i] for i in rec.name]
    assert names.count("lapack.svd") == 1
    assert "matcore.op_norm" in names and "matcore.as_matrix" in names


def test_answer_check_rejects_corrupted_expected_value():
    rng = workloads._rng(5, 1)
    w, expected = workloads.ok.random_admissible_unitary(24, rng, winding=2)
    good = workloads._unitary_op(24, w, expected)
    bad = workloads._unitary_op(24, w, expected + 1)
    report = good.run(None)
    assert good.check(report)
    assert not bad.check(report)

    rows, diagonal = workloads.snf_input(6, 10, rng, [2, 6])
    op = workloads._snf_op(rows, diagonal)
    result = op.run(None)
    assert op.check(result)
    assert not workloads._snf_op(rows, diagonal[:-1] + [12]).check(result)

    assert workloads.eta_ok(1.0 - 2.0 * 0.25, 0.25)
    assert not workloads.eta_ok(1.0 - 2.0 * 0.25 + 1e-5, 0.25)


def test_rational_corank_matches_construction():
    rng = workloads._rng(3, 1)
    m, corank = workloads.automorphism_matrix(6, 10, rng)
    assert workloads.ok.free_by_cyclic_h2(workloads.ok.int_matrix(m)).free_rank == corank
    assert workloads.rational_corank([[1, 2], [2, 4]]) == 1


def _digest(seed):
    wl = workloads.HomologyEta()
    runner = run.Runner(wl.generate(seed), (ObstructkitError,))
    win = runner.window(2)
    assert not win.wrong
    assert win.attempted == 2 * len(runner.ops)
    return runner.digest.hexdigest()


def test_same_seed_gives_same_digest_in_process(monkeypatch):
    # a small round of every homology-eta op kind
    monkeypatch.setattr(workloads, "SNF_UNIMODULAR", ((8, 20, 1), (12, 30, 1)))
    monkeypatch.setattr(workloads, "SNF_DET", (10, 30, 1))
    monkeypatch.setattr(workloads, "AUTOMORPHISMS", ((8, 20), (10, 20)))
    monkeypatch.setattr(workloads, "ETA_POINTS", 5)
    assert _digest(11) == _digest(11)
    assert _digest(11) != _digest(12)


def test_round_count_is_fixed_by_seconds():
    assert run.rounds_for(workloads.WindingSweep(), 20) == 2
    assert run.rounds_for(workloads.WindingSweep(), 1) == 1


def test_timings_are_scaled_by_the_reference_slowdown():
    win = run.Window()
    win.samples = [(0, "g", 0.010), (1, "g", 0.030)]
    win.busy = 0.040
    win.reference = [run.REFERENCE_S * 1.5, run.REFERENCE_S * 2.5]
    assert win.slowdowns() == pytest.approx([2.0, 2.0])
    scaled = run.timings(win, 3.0, win.slowdowns())
    assert scaled["setup_s"]["value"] == pytest.approx(1.5)
    assert scaled["ops_per_s"]["value"] == pytest.approx(100.0)
    assert scaled["op_p50_ms"]["value"] == pytest.approx(10.0)
    wall = run.wall_clock(win, 3.0)
    assert wall["wall.ops_per_s"]["value"] == pytest.approx(50.0)
    assert wall["machine.reference_job_ms"]["value"] == pytest.approx(1e3 * run.REFERENCE_S * 2)


def test_slowdown_follows_the_neighbouring_reference_jobs():
    k = run.REFERENCE_NEIGHBOURS
    win = run.Window()
    win.reference = [run.REFERENCE_S] * (2 * k + 1) + [3 * run.REFERENCE_S] * (2 * k + 1)
    factors = win.slowdowns()
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(3.0)
    assert factors[2 * k] == pytest.approx((k + 1 + 3 * k) / (2 * k + 1))


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([0.0, 10.0], 90) == pytest.approx(9.0)

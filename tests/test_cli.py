"""End-to-end CLI coverage: subcommands, exit codes, JSON determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obstructkit.audit import run_trial
from obstructkit.cli import _json_text, main
from obstructkit.homology import int_text
from obstructkit.matcore import matrix_to_json
from obstructkit.projops import pairing_input, pairing_input_to_json
from obstructkit.quasirep import (
    compress,
    honest_commuting_rep,
    quasirep_to_json,
    voiculescu_pair,
)
from obstructkit.seeding import derive_rng, random_projection
from obstructkit.words import free_abelian_presentation, presentation_to_json


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


# ---------------------------------------------------------------------------
# gen -> invariants round trips
# ---------------------------------------------------------------------------


def test_gen_voiculescu_round_trip(tmp_path, capsys):
    witness = tmp_path / "pair.json"
    code, out, err = run_cli(
        ["gen", "voiculescu", "--delta", "0.5", "--k", "2", "--out", str(witness)],
        capsys,
    )
    assert code == 0
    assert out == ""  # --out diverts everything away from stdout
    payload = run_json(["invariants", str(witness)], capsys)
    assert payload["input"] == "quasirep"
    assert payload["winding"]["winding"] == 2
    assert sorted(payload["winding"]) == ["min_clearance", "source_path_reversed", "winding"]
    assert payload["defect"]["max_defect"] < 0.5


def test_gen_voiculescu_k_zero_commutes(tmp_path, capsys):
    witness = tmp_path / "pair.json"
    run_cli(["gen", "voiculescu", "--k", "0", "--out", str(witness)], capsys)
    payload = run_json(["invariants", str(witness)], capsys)
    assert payload["winding"]["winding"] == 0
    assert payload["defect"]["max_defect"] <= 1e-12


def test_gen_clock_shift(tmp_path, capsys):
    witness = tmp_path / "cs.json"
    run_cli(["gen", "clock-shift", "--n", "9", "--out", str(witness)], capsys)
    payload = run_json(["invariants", str(witness)], capsys)
    assert payload["winding"]["winding"] == -1
    assert payload["defect"]["max_defect"] == pytest.approx(
        2.0 * np.sin(np.pi / 9.0), abs=1e-12
    )


def test_gen_surface_honest(tmp_path, capsys):
    witness = tmp_path / "surf.json"
    run_cli(
        ["gen", "surface", "--genus", "2", "--out", str(witness)], capsys
    )
    payload = run_json(["invariants", str(witness)], capsys)
    assert payload["defect"]["max_defect"] <= 1e-10
    assert payload["winding"]["winding"] == 0


def test_gen_abelian_perturbed_skips_winding(tmp_path, capsys):
    witness = tmp_path / "ab.json"
    run_cli(
        ["gen", "abelian", "--rank", "2", "--eps", "0.1", "--out", str(witness)],
        capsys,
    )
    payload = run_json(["invariants", str(witness)], capsys)
    assert payload["flavor"] == "general"
    assert 0 < payload["defect"]["max_defect"] < 0.1
    assert "skipped" in payload["winding"]
    # asking for a winding anyway is a hypothesis failure, not a crash
    code, _, err = run_cli(["invariants", str(witness), "--pairs", "a,b"], capsys)
    assert code == 2
    assert "unitarize" in err


def test_invariants_refuses_a_pair_chunk_without_a_comma(tmp_path, capsys):
    witness = tmp_path / "z2.json"
    run_cli(["gen", "abelian", "--rank", "2", "--dim", "3", "--out", str(witness)], capsys)
    code, out, err = run_cli(["invariants", str(witness), "--pairs", "a"], capsys)
    assert_clean_refusal(code, out, err)
    assert "bad chunk 'a'" in err


def test_invariants_skips_the_winding_without_a_balanced_relator(tmp_path, capsys):
    # the relator aabb of the non-orientable genus-2 surface has exponent sums (2, 2)
    witness = tmp_path / "klein.json"
    argv = ["gen", "surface", "--genus", "2", "--non-orientable", "--out", str(witness)]
    assert run_cli(argv, capsys)[0] == 0
    payload = run_json(["invariants", str(witness)], capsys)
    assert payload["winding"] == {
        "skipped": "no relator with vanishing exponent sums; pass --pairs"
    }


# sha256 of stdout, recorded while each perturbed table entry was still
# rotated on its own: drawing per entry and solving the whole table as one
# stack must keep every byte
GEN_EPS_SHA256 = {
    "gen abelian --rank 2 --eps 0.01 --seed 5":
        "e9516d82d26699bd80980a48a7a5dcd9677046f71ea350302bcb0725cba8843f",
    "gen surface --genus 2 --eps 0.05 --dim 6 --seed 5":
        "204960285aaf344448fe01c626108121525e875699c8df6fcfff75e74f4009db",
}


@pytest.mark.parametrize("argv", GEN_EPS_SHA256)
def test_gen_perturbed_tables_keep_their_bytes(argv, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_EPS_SHA256[argv]


def test_gen_surface_eps_conflicts_with_non_orientable(capsys):
    code, _, err = run_cli(
        ["gen", "surface", "--genus", "2", "--non-orientable", "--eps", "0.1"], capsys
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "abelian", "--rank", "2", "--eps", "nan"],
        ["gen", "abelian", "--rank", "2", "--eps", "inf"],
        ["gen", "surface", "--genus", "2", "--eps", "inf", "--dim", "8"],
        ["gen", "surface", "--genus", "2", "--eps", "nan", "--dim", "8"],
        ["gen", "voiculescu", "--delta", "nan", "--k", "2"],
        ["gen", "voiculescu", "--delta", "inf", "--k", "2"],
        ["gen", "voiculescu", "--delta", "-1"],
        ["gen", "abelian", "--eps", "-1"],
    ],
    ids=["abelian-eps-nan", "abelian-eps-inf", "surface-eps-inf", "surface-eps-nan",
         "voiculescu-delta-nan", "voiculescu-delta-inf", "voiculescu-delta-negative",
         "abelian-eps-negative"],
)
def test_gen_non_finite_bound_exit_two(argv, capsys):
    # NaN passed the old `<= 0` checks: eps reached rng.uniform (OverflowError
    # traceback) and delta = nan built a pair of defect 2.  An out-of-range
    # bound is unusable input, so it exits 1 (the name predates that).
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be positive" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# invariants on raw pairs
# ---------------------------------------------------------------------------


def raw_pair_json(u, v):
    return json.dumps({"u": matrix_to_json(u), "v": matrix_to_json(v)})


def test_invariants_raw_pair_stdin(capsys, monkeypatch):
    rng = derive_rng(5, 1)
    theta = 2.0 * np.pi / 16.0
    u = np.diag(np.exp(1j * theta * np.arange(3)))
    v = np.eye(3, dtype=complex)
    monkeypatch.setattr(sys, "stdin", io.StringIO(raw_pair_json(u, v)))
    payload = run_json(["invariants", "-"], capsys)
    assert payload["input"] == "unitary-pair"
    assert payload["winding"]["winding"] == 0
    assert payload["commutation_defect"] <= 1e-15


def test_invariants_loose_unitarity_tolerance_keeps_the_winding(tmp_path, capsys):
    # any finite --tol.unitarity is accepted; past the Hermitian phase budget
    # the winding is computed on the polar factor, so 1e300 still certifies 2
    path = tmp_path / "raw.json"
    path.write_text(raw_pair_json(*voiculescu_pair(0.5, 2)))
    for tol in ("0.5", "1e300"):
        payload = run_json(["invariants", str(path), "--tol.unitarity", tol], capsys)
        assert payload["winding"]["winding"] == 2


def test_invariants_anticommuting_pair_exit_two(tmp_path, capsys):
    u = np.diag([1.0, -1.0]).astype(complex)
    v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    path = tmp_path / "anti.json"
    path.write_text(raw_pair_json(u, v))
    code, _, err = run_cli(["invariants", str(path)], capsys)
    assert code == 2
    assert "uv - vu" in err and ">= 1" in err


def test_invariants_missing_file_exit_one(capsys):
    code, _, err = run_cli(["invariants", "/nonexistent/x.json"], capsys)
    assert code == 1


def test_invariants_malformed_json_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run_cli(["invariants", str(path)], capsys)
    assert code == 1


def test_invariants_huge_dim_exit_one_without_allocating(tmp_path, capsys):
    # a dim with no entries behind it must be refused before any allocation
    huge = {"dim": 1000000, "entries": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"u": huge, "v": huge}))
    code, out, err = run_cli(["invariants", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_gen_out_of_memory_exit_one(monkeypatch, capsys):
    # `gen voiculescu --delta 0.5 --k 100000` asks numpy for a 24.6 TiB
    # matrix; the allocator's MemoryError is raised here without allocating
    import obstructkit.quasirep as quasirep

    def refuse(delta, k):
        raise MemoryError("Unable to allocate 24.6 TiB for an array")

    monkeypatch.setattr(quasirep, "voiculescu_pair", refuse)
    code, out, err = run_cli(["gen", "voiculescu", "--delta", "0.5", "--k", "100000"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "24.6 TiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "--q", "0.3", "--method", "abel", "--ladder", "0.4,0.2,0.1,0.05,1e-300"],
        ["eta", "--q", "0.3", "--method", "abel", "--ladder", "0.4,0.2,0.1,0.05,1e-7"],
        ["gen", "voiculescu", "--delta", "1e-9"],
        ["gen", "voiculescu", "--delta", "0.5", "--k", "10000000"],
    ],
    ids=["ladder-1e-300", "ladder-1e-7", "voiculescu-delta-1e-9", "voiculescu-k-1e7"],
)
def test_oversized_requests_exit_one_before_allocating(argv, capsys):
    # each used to run for minutes, raise a traceback or exhaust memory; the
    # k = 1e7 pair (1.3e8 square) is past the address space, so the
    # allocator refuses it at once
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 10.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_gen_non_orientable_surface_gates_each_image_once(tmp_path, capsys, unitarity_checks):
    witness = tmp_path / "surf.json"
    argv = ["gen", "surface", "--genus", "2", "--non-orientable", "--out", str(witness)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert unitarity_checks == [(8, 8), (8, 8)]


def test_invariants_non_unitary_compression_exit_two(tmp_path, capsys):
    pres = free_abelian_presentation(2)
    big = honest_commuting_rep(pres, 4, derive_rng(5, 1))
    rep = compress(big.images, np.diag([1.0, 1.0, 0.0, 0.0]), pres)
    obj = quasirep_to_json(rep)
    obj["compression"]["big_images"][0] = matrix_to_json(np.diag([0.5, 1.0, 1.0, 1.0]))
    path = tmp_path / "comp.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["invariants", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "not unitary" in err


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_small_run_green(capsys):
    payload = run_json(["audit", "--trials", "2", "--seed", "7"], capsys)
    assert payload["all_passed"] is True
    assert [s["suite"] for s in payload["suites"]] == [
        "unitarize",
        "sqrt_mult",
        "alm_proj",
        "path_uni",
        "chain",
    ]
    for entry in payload["suites"]:
        assert "seconds" not in entry


def test_audit_repeated_suite_runs_once(capsys):
    payload = run_json(
        ["audit", "--trials", "1", "--suite", "chain", "--suite", "alm_proj",
         "--suite", "chain"],
        capsys,
    )
    assert [s["suite"] for s in payload["suites"]] == ["chain", "alm_proj"]


def test_audit_unknown_suite_exits_one_before_any_trial(capsys, monkeypatch):
    import obstructkit.audit as audit_mod

    calls = []
    real = audit_mod.run_trial
    monkeypatch.setattr(
        audit_mod, "run_trial", lambda *replay: calls.append(replay) or real(*replay)
    )
    argv = ["audit", "--trials", "1", "--suite", "chain", "--suite", "nonsense"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == "" and calls == []
    assert "unknown audit suite 'nonsense'" in err


def test_audit_zero_trials(capsys):
    payload = run_json(["audit", "--trials", "0"], capsys)
    assert payload["all_passed"] is True
    assert all(s["trials"] == 0 for s in payload["suites"])


def test_audit_byte_identical_reruns(capsys):
    argv = ["audit", "--trials", "2", "--seed", "3", "--suite", "unitarize"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_audit_timings_flag(capsys):
    payload = run_json(
        ["audit", "--trials", "1", "--suite", "chain", "--timings"], capsys
    )
    assert "seconds" in payload["suites"][0]


def test_audit_replay_matches_direct_run(capsys):
    spec = json.dumps({"suite": "alm_proj", "master_seed": 3, "trial": 17})
    payload = run_json(["audit", "--replay", spec], capsys)
    assert payload["ratios"] == run_trial("alm_proj", 3, 17)


def test_audit_replay_from_file(tmp_path, capsys):
    spec = tmp_path / "replay.json"
    spec.write_text(json.dumps({"suite": "chain", "master_seed": 1, "trial": 0}))
    payload = run_json(["audit", "--replay", f"@{spec}"], capsys)
    assert payload["suite"] == "chain"
    assert all(v <= 1.0 for v in payload["ratios"].values())


def test_audit_replay_bad_inputs(capsys):
    code, _, _ = run_cli(["audit", "--replay", "{not json"], capsys)
    assert code == 1
    code, _, _ = run_cli(["audit", "--replay", '{"suite": "chain"}'], capsys)
    assert code == 1
    code, _, _ = run_cli(
        ["audit", "--replay", '{"suite": "zzz", "master_seed": 0, "trial": 0}'], capsys
    )
    assert code == 1


def test_audit_replay_violation_exits_four(capsys, monkeypatch):
    import obstructkit.audit as audit_mod

    monkeypatch.setattr(audit_mod, "run_trial", lambda s, m, t: {"defect": 1.5})
    spec = json.dumps({"suite": "unitarize", "master_seed": 0, "trial": 0})
    code, out, err = run_cli(["audit", "--replay", spec], capsys)
    assert code == 4
    assert "fails" in err
    assert json.loads(out)["ratios"] == {"defect": 1.5}


def test_audit_failure_exits_four(capsys, monkeypatch):
    import obstructkit.audit as audit_mod

    real = audit_mod.run_trial

    def sabotaged(suite, master_seed, trial):
        ratios = dict(real(suite, master_seed, trial))
        if suite == "chain":
            ratios = {k: 2.0 for k in ratios}
        return ratios

    monkeypatch.setattr(audit_mod, "run_trial", sabotaged)
    code, out, err = run_cli(["audit", "--trials", "1", "--seed", "5"], capsys)
    assert code == 4
    assert "chain" in err
    payload = json.loads(out)
    assert payload["all_passed"] is False
    failing = [s for s in payload["suites"] if not s["passed"]]
    assert [s["suite"] for s in failing] == ["chain"]
    assert failing[0]["failures"][0]["trial"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "alm_proj", "--trials", "2", "--seed", "5"],
        ["--replay", '{"suite": "alm_proj", "master_seed": 5, "trial": 0}'],
    ],
    ids=["run", "replay"],
)
def test_audit_violation_carries_the_first_failure(capsys, monkeypatch, argv):
    import obstructkit.audit as audit_mod
    from obstructkit.cli import build_parser, cmd_audit
    from obstructkit.errors import AuditViolation

    monkeypatch.setattr(audit_mod, "run_trial", lambda s, m, t: {"commutator": 2.0})
    with pytest.raises(AuditViolation) as exc_info:
        cmd_audit(build_parser().parse_args(["audit", *argv]))
    assert exc_info.value.measured == {
        "suite": "alm_proj", "master_seed": 5, "trial": 0, "ratios": {"commutator": 2.0}
    }
    capsys.readouterr()


SUITE_RUN = ["--suite", "path_uni", "--trials", "1", "--seed", "5"]
REPLAY = ["--replay", '{"suite": "path_uni", "master_seed": 5, "trial": 0}']


def _violation_and_stdout(argv, capsys):
    from obstructkit.cli import build_parser, cmd_audit
    from obstructkit.errors import AuditViolation

    with pytest.raises(AuditViolation) as exc_info:
        cmd_audit(build_parser().parse_args(["audit", *argv]))
    return exc_info.value.measured, json.loads(capsys.readouterr().out)


def test_replay_and_suite_run_report_one_failure_record(capsys, monkeypatch):
    import obstructkit.audit as audit_mod

    ratios = {"commutator": 2.0, "conjugation": 0.5}
    monkeypatch.setattr(audit_mod, "run_trial", lambda s, m, t: dict(ratios))
    run_measured, report = _violation_and_stdout(SUITE_RUN, capsys)
    replay_measured, replayed = _violation_and_stdout(REPLAY, capsys)
    record = {"suite": "path_uni", "master_seed": 5, "trial": 0, "ratios": {"commutator": 2.0}}
    assert run_measured == replay_measured == record
    assert report["suites"][0]["failures"] == [record]
    # the replay prints every ratio; only the record keeps to those above 1
    assert replayed == {**record, "ratios": ratios}


def test_replay_and_suite_run_report_one_error_record(capsys, monkeypatch):
    import obstructkit.audit as audit_mod
    from obstructkit.errors import NotUnitary

    def refused(suite, master_seed, trial):
        raise NotUnitary("image 0 is not unitary")

    monkeypatch.setattr(audit_mod, "run_trial", refused)
    run_measured, report = _violation_and_stdout(SUITE_RUN, capsys)
    replay_measured, replayed = _violation_and_stdout(REPLAY, capsys)
    record = {"suite": "path_uni", "master_seed": 5, "trial": 0,
              "error": "NotUnitary: image 0 is not unitary"}
    assert run_measured == replay_measured == replayed == record
    assert report["suites"][0]["failures"] == [record]


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------


def test_eta_closed(capsys):
    payload = run_json(["eta", "--q", "0.25"], capsys)
    assert payload["rho_mod_Z"] == 0.75
    assert payload["method"] == "closed-form"


def test_eta_abel_with_ladder(capsys):
    payload = run_json(
        ["eta", "--q", "0.25", "--method", "abel", "--ladder", "0.4,0.2,0.1,0.05,0.025"],
        capsys,
    )
    assert payload["method"] == "abel-regularized"
    assert payload["eta"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize(
    "ladder, text",
    [("", "t ladder is empty"), (",", "t ladder is empty"), ("0.5,2", "t ladder entry 2.0 must lie"),
     ("0.4,x", "--ladder must be comma-separated numbers")],
    ids=["empty", "comma", "above-one", "not-a-number"],
)
def test_eta_ladder_refusal_names_the_entry(ladder, text, capsys):
    code, out, err = run_cli(["eta", "--q", "0.3", "--method", "abel", "--ladder", ladder], capsys)
    assert_clean_refusal(code, out, err)
    assert text in err


def test_eta_phases(capsys):
    payload = run_json(["eta", "--phases", "0.25,0.5,0.125"], capsys)
    assert payload["rho_loop"] == 0.125


def test_eta_argument_exclusivity(capsys):
    code, _, _ = run_cli(["eta"], capsys)
    assert code == 1
    code, _, _ = run_cli(["eta", "--q", "0.1", "--phases", "0.2"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "--q", "0.3", "--method", "abel", "--order", "0"],
        ["eta", "--phases", "0.5,nan"],
        ["eta", "--q", "1.5"],
        # the Abel method alone reads --ladder and --order
        ["eta", "--q", "0.3", "--ladder", "0.4,x"],
        ["eta", "--q", "0.3", "--order", "-5"],
        ["eta", "--phases", "0.1", "--order", "3"],
        ["eta", "--phases", "0.1", "--method", "abel"],
        ["eta", "--phases", "0.1", "--method", "abel", "--ladder", "garbage"],
    ],
    ids=["abel-order-zero", "phases-nan", "q-out-of-range", "ladder-closed", "order-closed",
         "order-phases", "abel-phases", "abel-phases-ladder"],
)
def test_eta_unusable_flag_exit_one(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


FLOOR_LADDER = "0.0016,0.0008,0.0004,0.0002,0.0001"


def test_eta_floor_ladder_passes_the_cross_check(capsys):
    # exited 3 while the error bar left out the rounding of the series terms
    payload = run_json(["eta", "--q", "0.3", "--method", "abel", "--ladder", FLOOR_LADDER], capsys)
    assert abs(payload["eta"] - 0.4) <= payload["extrapolation_error"]


@pytest.mark.parametrize(
    "ladder", ["0.4,0.2,0.1,0.05,0.025", FLOOR_LADDER], ids=["default", "floor"]
)
def test_eta_offset_series_exit_three(monkeypatch, ladder, capsys):
    from obstructkit import eta

    values = eta._abel_values
    monkeypatch.setattr(eta, "_abel_values", lambda q, t: [y + 1e-10 for y in values(q, t)])
    code, out, err = run_cli(["eta", "--q", "0.3", "--method", "abel", "--ladder", ladder], capsys)
    assert code == 3 and out == ""
    assert "misses the exact limit" in err


def test_eta_zero_mode_exit_two(capsys):
    code, _, err = run_cli(["eta", "--q", "0.0", "--method", "abel"], capsys)
    assert code == 2
    assert "closed" in err


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def test_homology_fbc(capsys):
    payload = run_json(["homology", "fbc", "--matrix", "[[1]]"], capsys)
    assert payload["h2"]["text"] == "Z"
    assert payload["obstruction_count"] == 1


def test_homology_mapping_torus_fixture(capsys):
    m = "[[0,0,-5,-3],[0,0,3,2],[-5,-3,0,0],[3,2,0,0]]"
    payload = run_json(["homology", "mapping-torus", "--sign", "-1", "--matrix", m], capsys)
    assert payload["h2"]["text"] == "Z/2"


def test_homology_surface_and_bs(capsys):
    surf = run_json(["homology", "surface", "--genus", "2"], capsys)
    assert surf["obstruction_count"] == 1
    nonor = run_json(["homology", "surface", "--genus", "3", "--non-orientable"], capsys)
    assert nonor["obstruction_count"] == 0
    same = run_json(["homology", "bs", "--n", "3", "--m", "3"], capsys)
    assert same["obstruction_count"] == 1 and "caveat" not in same
    diff = run_json(["homology", "bs", "--n", "2", "--m", "3"], capsys)
    assert diff["obstruction_count"] == 0 and "caveat" in diff
    asc = run_json(["homology", "bs", "--n", "1", "--m", "5"], capsys)
    assert "caveat" not in asc


def test_homology_snf(capsys):
    payload = run_json(["homology", "snf", "--matrix", "[[2,4],[6,8]]"], capsys)
    assert payload["diagonal"] == [2, 4]
    assert payload["U"]["rows"] == 2 and payload["V"]["cols"] == 2


def test_homology_bad_matrix_exit_one(capsys):
    code, _, _ = run_cli(["homology", "fbc", "--matrix", "[[1.5]]"], capsys)
    assert code == 1
    code, _, _ = run_cli(["homology", "fbc", "--matrix", "nonsense"], capsys)
    assert code == 1


def test_homology_non_automorphism_exit_two(capsys):
    # det 0 matrix is not induced by any automorphism: hypothesis failure
    code, _, err = run_cli(["homology", "fbc", "--matrix", "[[0]]"], capsys)
    assert code == 2
    assert "automorphism" in err.lower()


def test_homology_huge_exact_results_exit_cleanly(capsys):
    # 3000-digit entries parse under the interpreter's 4300-digit cap, but
    # the determinant and the Smith diagonal run to about 6000 digits
    big = 10**2999 + 1
    cap = sys.get_int_max_str_digits()
    matrix = f"[[{big},{big}],[{big},1]]"
    code, out, err = run_cli(["homology", "fbc", "--matrix", matrix], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"determinant -{int_text(big * big - big)} is not ±1" in err
    code, out, err = run_cli(["homology", "snf", "--matrix", matrix], capsys)
    assert code == 0, err
    payload = json.loads(out, parse_int=str)
    assert payload["diagonal"] == ["1", int_text(big * big - big)]
    assert sys.get_int_max_str_digits() == cap


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def pairing_fixture_path(tmp_path):
    rng = derive_rng(99, 0)
    n, k = 3, 2
    q = random_projection(n * k, 4, rng)
    inp = pairing_input(np.zeros((2 * n, 2 * n)), q, n, k)
    path = tmp_path / "pairing.json"
    path.write_text(json.dumps(pairing_input_to_json(inp)))
    return path


def test_pairing_zero_b(tmp_path, capsys):
    path = pairing_fixture_path(tmp_path)
    payload = run_json(["pairing", str(path)], capsys)
    assert payload["index"] == 0
    assert payload["rank"] == 6
    assert payload["margin"] == pytest.approx(0.5, abs=1e-12)
    assert "projection" not in payload
    full = run_json(["pairing", str(path), "--full"], capsys)
    assert full["projection"]["dim"] == 12


def test_pairing_gap_override(tmp_path, capsys):
    path = pairing_fixture_path(tmp_path)
    payload = run_json(["--tol.gap", "0.01", "pairing", str(path)], capsys)
    assert payload["gap_tol"] == 0.01


def test_tolerance_after_the_subcommand(tmp_path, capsys):
    path = str(pairing_fixture_path(tmp_path))
    before = run_cli(["--tol.gap", "0.01", "pairing", path], capsys)
    after = run_cli(["pairing", path, "--tol.gap", "0.01"], capsys)
    assert before[0] == 0 and before == after
    assert json.loads(after[1])["gap_tol"] == 0.01
    assert run_cli(["pairing", path, "--tol.gap=0.01"], capsys) == before
    # the later of two values wins, wherever each stands
    assert run_cli(["--tol.gap", "0.3", "pairing", path, "--tol.gap", "0.01"], capsys) == before
    plain = run_cli(["gen", "voiculescu", "--k", "2"], capsys)
    assert plain[0] == 0
    for argv in (
        ["gen", "voiculescu", "--k", "2", "--tol.unitarity", "1e-6"],
        ["gen", "--tol.gap=0.2", "voiculescu", "--k", "2"],
        ["--tol.unitarity", "1e-6", "gen", "voiculescu", "--tol.gap", "0.2", "--k", "2"],
    ):
        assert run_cli(argv, capsys) == plain
    code, _, err = run_cli(["gen", "voiculescu", "--tol.unitarity", "-1"], capsys)
    assert code == 1 and "finite and non-negative" in err


@pytest.mark.parametrize(
    "flags, gap_in_json",
    [
        (["--tol.gap", "0.7"], None),
        (["--tol.gap", "0"], None),
        (["--tol.gap", "1e-300"], None),
        ([], "NaN"),
    ],
    ids=["flag-above-half", "flag-zero", "flag-below-floor", "json-nan"],
)
def test_pairing_gap_out_of_range_exit_one(tmp_path, capsys, flags, gap_in_json):
    path = pairing_fixture_path(tmp_path)
    if gap_in_json is not None:
        path.write_text(path.read_text().replace('"gap_tol": 0.05', f'"gap_tol": {gap_in_json}'))
        assert gap_in_json in path.read_text()
    code, out, err = run_cli(["pairing", str(path), *flags], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "gap_tol" in err


def _write_doubly_bad_input(kind, path):
    """Input files with a size, bound or flag fault and a value fault together."""
    if kind == "raw-pair":
        path.write_text(raw_pair_json(np.eye(2), np.eye(3)))
    elif kind == "non-unitary-raw-pair":  # --pairs reads words, which a raw pair lacks
        path.write_text(raw_pair_json(np.diag([0.5, 1.0]), np.eye(2)))
    elif kind == "unitary-flavor":
        rep = honest_commuting_rep(free_abelian_presentation(2), 2, derive_rng(0, 1))
        obj = quasirep_to_json(rep)
        obj["images"] = [matrix_to_json(np.eye(2)), matrix_to_json(2.0 * np.eye(3))]
        path.write_text(json.dumps(obj))
    else:  # e + b = 1/2 on the diagonal is no projection
        b, q = matrix_to_json(np.diag([-0.5, 0.5])), matrix_to_json(np.eye(1))
        path.write_text(json.dumps({"N": 1, "k": 1, "b": b, "q": q, "gap_tol": 0.05}))


@pytest.mark.parametrize(
    "kind, argv, text",
    [
        ("raw-pair", ["invariants"], "second of the pair must be 2 x 2, got 3"),
        ("non-unitary-raw-pair", ["invariants", "--pairs", "zz"],
         "--pairs needs a quasi-representation file"),
        ("unitary-flavor", ["invariants"], "image of generator 1 must be 2 x 2, got 3"),
        (None, ["eta", "--q", "0", "--method", "abel", "--ladder", ""], "t ladder is empty"),
        ("pairing", ["pairing", "--tol.gap", "1e-300"], "gap_tol 1e-300 not in"),
    ],
    ids=["raw-pair-of-two-sizes", "pairs-on-a-non-unitary-raw-pair", "unitary-flavor-of-two-sizes",
         "abel-q-zero-empty-ladder", "non-projection-below-the-gap-floor"],
)
def test_malformed_input_exits_one_before_any_hypothesis(kind, argv, text, tmp_path, capsys):
    if kind is not None:
        path = tmp_path / "in.json"
        _write_doubly_bad_input(kind, path)
        argv = [argv[0], str(path), *argv[1:]]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and text in err


def _one_line_refusal_input(kind, path):
    if kind == "overflow-pair":  # (e + b)^2 overflows in the projection residue
        b, q = matrix_to_json(1e200 * np.eye(2)), matrix_to_json(np.eye(1))
        path.write_text(json.dumps({"N": 1, "k": 1, "b": b, "q": q}))
    else:  # "ab" and "ba" name one element of Z^2
        obj = quasirep_to_json(honest_commuting_rep(free_abelian_presentation(2), 2,
                                                    derive_rng(0, 1)))
        obj["word_table"] = {t: matrix_to_json(0.5 * np.eye(2)) for t in ("ab", "ba")}
        path.write_text(json.dumps(obj))


@pytest.mark.parametrize(
    "kind, command, text",
    [
        ("overflow-pair", "pairing", "matrix has non-finite entries"),
        ("duplicate-table", "invariants", "word_table text 'ba' names an element already in the table"),
    ],
)
def test_a_refusal_writes_only_its_error_line(kind, command, text, tmp_path, fresh_python):
    # a fresh interpreter with numpy's default warnings: nothing but the error line
    path = tmp_path / "in.json"
    _one_line_refusal_input(kind, path)
    proc = fresh_python("import sys; from obstructkit.cli import main; sys.exit(main())",
                        command, str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {text}\n")


def test_pairing_gap_violation_exit_two(tmp_path, capsys):
    # operand spectrum {0, 1/4, 3/4, 1}: a 0.3 gate must trip
    phi = np.pi / 3.0
    r1 = np.eye(4)
    r1[0, 0] = r1[2, 2] = np.cos(phi)
    r1[0, 2] = -np.sin(phi)
    r1[2, 0] = np.sin(phi)
    e = np.diag([1.0, 1.0, 0.0, 0.0])
    b = r1 @ e @ r1.T - e
    inp = pairing_input(b, 0.5 * np.ones((2, 2)), 2, 1)
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(pairing_input_to_json(inp)))
    assert run_json(["pairing", str(path)], capsys)["margin"] == pytest.approx(0.25)
    code, _, err = run_cli(["--tol.gap", "0.3", "pairing", str(path)], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# global flag handling
# ---------------------------------------------------------------------------


def test_tolerance_flag_forms(capsys):
    a = run_json(["eta", "--q", "0.25"], capsys)
    b = run_json(["--tol.unitarity", "1e-6", "eta", "--q", "0.25"], capsys)
    c = run_json(["--tol.unitarity=1e-6", "eta", "--q", "0.25"], capsys)
    assert a == b == c  # irrelevant overrides do not perturb output


def test_tolerance_flag_errors(capsys):
    code, _, err = run_cli(["--tol.bogus", "0.1", "eta", "--q", "0.2"], capsys)
    assert code == 1
    code, _, _ = run_cli(["--tol.gap", "abc", "eta", "--q", "0.2"], capsys)
    assert code == 1
    code, _, _ = run_cli(["--tol.gap"], capsys)
    assert code == 1
    # a NaN or infinite tolerance would switch its gate off, a negative one
    # would refuse every input
    for value in ("nan", "inf", "-1"):
        code, _, err = run_cli(["--tol.gap", value, "eta", "--q", "0.2"], capsys)
        assert code == 1 and "finite and non-negative" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli([], capsys)[0] == 1
    assert run_cli(["frobnicate"], capsys)[0] == 1
    assert run_cli(["gen"], capsys)[0] == 1
    assert run_cli(["gen", "voiculescu", "--k", "x"], capsys)[0] == 1
    assert run_cli(["homology", "mapping-torus", "--sign", "2", "--matrix", "[[1]]"], capsys)[0] == 1


# A fresh interpreter runs the command through cli.main, then reports on stderr
# its exit code and whether numpy was loaded.
NUMPY_PROBE = """
import json, sys
from obstructkit.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["homology", "snf", "--matrix", "[[2,4],[6,8]]"], False),
        (["homology", "fbc", "--matrix", "[[1,1],[1,2]]"], False),
        (["eta", "--q", "0.25"], False),
        (["eta", "--phases", "0.1,0.2"], False),
        (["eta", "--q", "0.25", "--method", "abel"], False),
        (["eta", "--q", "0.3", "--method", "abel", "--ladder", FLOOR_LADDER], False),
    ],
    ids=["homology-snf", "homology-fbc", "eta-closed", "eta-phases", "eta-abel", "eta-abel-floor"],
)
def test_startup_imports_by_subcommand(argv, loads_numpy, fresh_python):
    proc = fresh_python(NUMPY_PROBE, *argv)
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, loads_numpy], proc.stderr


def test_out_file_byte_identical_to_stdout(tmp_path, capsys):
    _, stdout_text, _ = run_cli(["eta", "--q", "0.3"], capsys)
    out = tmp_path / "eta.json"
    code, silent, _ = run_cli(["eta", "--q", "0.3", "--out", str(out)], capsys)
    assert code == 0 and silent == ""
    assert out.read_text() == stdout_text


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(payload, sort_keys=True, indent=2), byte for byte
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def witness_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("witnesses")
    files = {"pair": root / "pair.json", "rep": root / "rep.json"}
    assert main(["gen", "voiculescu", "--delta", "0.5", "--k", "2",
                 "--out", str(files["pair"])]) == 0
    assert main(["gen", "surface", "--genus", "2", "--dim", "4",
                 "--out", str(files["rep"])]) == 0
    files["pairing"] = pairing_fixture_path(root)
    files["out"] = root / "out.json"
    return files


@pytest.mark.parametrize(
    "command",
    [
        "gen voiculescu --delta 0.5 --k 2",
        "gen clock-shift --n 5",
        "gen surface --genus 2 --dim 4",
        "gen surface --genus 2 --non-orientable --dim 4 --seed 5",
        "gen surface --genus 2 --eps 0.05 --dim 6 --seed 5",
        "gen abelian --rank 2 --dim 3 --out {out}",
        "gen abelian --rank 2 --eps 0.01 --seed 5",
        "invariants {pair}",
        "invariants {rep}",
        "pairing {pairing}",
        "pairing {pairing} --full",
        "homology snf --matrix [[2,4,6],[4,8,12]]",
        "homology fbc --matrix [[2,1],[1,1]]",
        "eta --q 0.3",
        "eta --q 0.3 --method abel",
        "audit --trials 5 --seed 7",
    ],
)
def test_every_subcommand_writes_json_dumps_of_its_output(command, witness_files, capsys):
    code, text, err = run_cli(command.format(**witness_files).split(), capsys)
    assert code == 0, err
    if "--out" in command:
        assert text == ""
        text = witness_files["out"].read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# every leaf json writes through a repr of its own: a float subclass, a bool
# and the non-finite floats differ from %r, and strings hold the characters
# of the writer's templates and separators
tricky_strings = st.sampled_from(['", "', "%r", "%s%%", "a\nb", "é☃", ": ", ""])
plain_numbers = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e30, 10**30])
    | st.floats(min_value=-1e-307, max_value=1e-307)
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
)
numbers = plain_numbers | st.booleans() | st.floats().map(np.float64)
leaves = st.none() | numbers | st.text(max_size=4) | tricky_strings
# numeric tables, equal-width (the writer's template) and ragged
tables = st.sampled_from([plain_numbers, numbers]).flatmap(
    lambda entry: st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(entry, min_size=width, max_size=width), max_size=4)
    )
    | st.lists(st.lists(entry, max_size=3), max_size=4)
)
json_trees = st.recursive(
    # a flatmap, so the tables are half the base draws, not one branch in twelve
    st.booleans().flatmap(lambda table: tables if table else leaves),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3) | tricky_strings, children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=16,
)


@settings(max_examples=400)
@given(json_trees)
@example([[math.nan, 1.0], [math.inf, -math.inf]])
@example([[-0.0, 5e-324], [1e30, 10**30]])
@example([[True, 1.0], [False, 0]])
@example([[np.float64(0.5), 1.0]])
@example([[1.0], [2.0, 3.0]])
@example([[]])
@example({"a, b": [[1, 2]], "%r": {"%s": "x, y\né"}})
@example({1: [[1.0]], 10: [[2.0]], 2: ()})
def test_json_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# malformed input never escapes as a traceback
# ---------------------------------------------------------------------------


def assert_clean_refusal(code, out, err):
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


DEEP = "[" * 50000
LONG_INT = "9" * 5001
# one key written twice; kept as its last value, each file runs to exit 0
EYE2 = json.dumps(matrix_to_json(np.eye(2)))
REPEATED_TABLE_KEY = (
    f'{{"presentation": {json.dumps(presentation_to_json(free_abelian_presentation(2)))}, '
    f'"images": [{EYE2}, {EYE2}], "word_table": {{"ab": {EYE2}, "ab": {EYE2}}}}}'
)
REPEATED_N = (
    f'{{"N": 2, "N": 1, "k": 1, "b": {json.dumps(matrix_to_json(np.zeros((2, 2))))}, '
    f'"q": {json.dumps(matrix_to_json(np.eye(1)))}}}'
)


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "snf", "--matrix", DEEP],
        ["audit", "--replay", DEEP],
        ["homology", "fbc", "--matrix", f"[[{LONG_INT}]]"],
        ["audit", "--replay", '{"suite": "chain", "master_seed": 1e400, "trial": 0}'],
        ["gen", "abelian", "--seed", "-1"],
        ["audit", "--seed", "-1", "--trials", "1"],
        ["audit", "--replay", '{"suite": "chain", "master_seed": -1, "trial": 0}'],
        ["audit", "--replay", '{"suite": "chain", "master_seed": 1, "trial": -5}'],
        ["gen", "abelian", "--dim", "-1"],
        ["gen", "surface", "--genus", "1", "--non-orientable", "--dim", "-2"],
        ["audit", "--trials", "-1"],
        ["audit", "--suite", "zzz"],
        ["gen", "clock-shift", "--n", "99999999999999999999"],
        ["gen", "surface", "--genus", "100000000000000000000"],
        ["gen", "abelian", "--rank", "3000", "--dim", "2"],
        ["gen", "abelian", "--rank", "100000000000000000000"],
        ["gen", "abelian", "--rank", "2", "--eps", "1e300"],
        ["gen", "surface", "--genus", "2", "--dim", "100000000000000000000"],
        ["gen", "abelian", "--rank", "2", "--dim", "100000000000000000000", "--eps", "0.1"],
        ["gen", "voiculescu", "--delta", "1e-300", "--k", "-1"],
        ["audit", "--replay", '{"suite":"alm_proj","master_seed":7.9,"trial":"3"}'],
        ["audit", "--replay", '{"suite":"alm_proj","master_seed":7.9,"trial":3}'],
        ["audit", "--replay", '{"suite":"alm_proj","master_seed":true,"trial":3}'],
        ["audit", "--replay", '{"suite":["alm_proj"],"master_seed":7,"trial":3}'],
        ["eta", "--q", "0.3", "--method", "abel", "--ladder", ""],
        ["audit", "--replay", '{"suite":"nonsense","suite":"chain","master_seed":7,"trial":3}'],
    ],
    ids=["snf-deep", "replay-deep", "fbc-long-int", "replay-infinite-seed",
         "gen-negative-seed", "audit-negative-seed", "replay-negative-seed",
         "replay-negative-trial", "gen-negative-dim", "gen-non-orientable-negative-dim",
         "audit-negative-trials", "audit-unknown-suite", "gen-clock-shift-huge-n",
         "gen-surface-huge-genus", "gen-abelian-rank-3000", "gen-abelian-huge-rank",
         "gen-abelian-eps-1e300", "gen-surface-huge-dim", "gen-abelian-huge-dim",
         "gen-voiculescu-delta-1e-300", "replay-float-seed-string-trial",
         "replay-float-seed", "replay-bool-seed", "replay-list-suite", "eta-empty-ladder",
         "replay-repeated-key"],
)
def test_malformed_inline_json_exit_one(argv, capsys):
    assert_clean_refusal(*run_cli(argv, capsys))


@pytest.mark.parametrize(
    "command, text",
    [
        ("invariants", '{"u": ' + LONG_INT + "}"),
        ("invariants", '{"u": {"dim": 1e400, "entries": []}, "v": {}}'),
        ("invariants", b"\xff\xfe"),
        ("pairing", "[]"),
        ("pairing", '{"N": 1}'),
        ("invariants", REPEATED_TABLE_KEY),
        ("pairing", REPEATED_N),
    ],
    ids=["invariants-long-int", "invariants-infinite-dim", "invariants-not-utf8",
         "pairing-list", "pairing-missing-fields", "invariants-repeated-key",
         "pairing-repeated-key"],
)
def test_malformed_json_file_exit_one(command, text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert_clean_refusal(*run_cli([command, str(path)], capsys))


FIELD_NAMES = ("u", "v", "dim", "entries", "b", "q", "N", "k", "gap_tol",
               "presentation", "generators", "relators", "images", "flavor")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150)
@given(json_values)
def test_arbitrary_json_gets_an_exit_code(value):
    text = json.dumps(value)
    for argv in (["invariants", "-"], ["pairing", "-"], ["homology", "fbc", f"--matrix={text}"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            old_stdin, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                code = main(argv)
            finally:
                sys.stdin = old_stdin
        assert isinstance(code, int), argv
        assert "Traceback" not in err.getvalue()


# every numeric flag of the generating and exact subcommands, per command
NUMERIC_FLAGS = {
    ("gen", "voiculescu"): ("--delta", "--k"),
    ("gen", "clock-shift"): ("--n",),
    ("gen", "surface"): ("--genus", "--dim", "--eps", "--seed"),
    ("gen", "abelian"): ("--rank", "--dim", "--eps", "--seed"),
    ("homology", "bs"): ("--n", "--m"),
    ("homology", "surface"): ("--genus",),
    ("eta",): ("--q", "--order"),
    ("audit", "--trials", "1"): ("--seed",),
}
EXTREME_NUMBERS = ("0", "-1", "1", str(2**63), str(10**20), "1e-300", "1e300", "nan", "inf")
CHILD_ADDRESS_SPACE = 2 << 30


def _cap_address_space():
    """Runs in the forked child only: a huge allocation fails there, not here."""
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extreme_numeric_flags_get_an_exit_code(data):
    command = data.draw(st.sampled_from(list(NUMERIC_FLAGS)), label="command")
    argv = [*command]
    for flag in NUMERIC_FLAGS[command]:
        argv.append(f"{flag}={data.draw(st.sampled_from(EXTREME_NUMBERS), label=flag)}")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = subprocess.run(
        [sys.executable, "-m", "obstructkit.cli", *argv], env=env, capture_output=True,
        text=True, timeout=10, preexec_fn=_cap_address_space, check=False,
    )
    assert child.returncode in (0, 1, 2), (argv, child.returncode, child.stderr)
    assert "Traceback" not in child.stderr, (argv, child.stderr)

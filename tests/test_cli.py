"""End-to-end CLI coverage: subcommands, exit codes, JSON determinism."""

import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructkit.audit import run_trial
from obstructkit.cli import main
from obstructkit.homology import int_text
from obstructkit.matcore import matrix_to_json
from obstructkit.projops import pairing_input, pairing_input_to_json
from obstructkit.quasirep import compress, honest_commuting_rep, quasirep_to_json
from obstructkit.seeding import derive_rng, random_projection
from obstructkit.words import free_abelian_presentation


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
    assert payload["winding"]["agreement"]
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
    ],
    ids=["abelian-eps-nan", "abelian-eps-inf", "surface-eps-inf", "surface-eps-nan",
         "voiculescu-delta-nan", "voiculescu-delta-inf"],
)
def test_gen_non_finite_bound_exit_two(argv, capsys):
    # NaN passed the old `<= 0` checks: eps reached rng.uniform (OverflowError
    # traceback) and delta = nan built a pair of defect 2
    code, out, err = run_cli(argv, capsys)
    assert code == 2
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
    import obstructkit.cli as cli

    def refuse(delta, k):
        raise MemoryError("Unable to allocate 24.6 TiB for an array")

    monkeypatch.setattr(cli, "voiculescu_pair", refuse)
    code, out, err = run_cli(["gen", "voiculescu", "--delta", "0.5", "--k", "100000"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "24.6 TiB" in err
    assert "Traceback" not in err


def test_invariants_non_unitary_compression_exit_two(tmp_path, capsys):
    pres = free_abelian_presentation(2)
    big = honest_commuting_rep(pres, 4, derive_rng(5, 1))
    rep, _ = compress(big.images, np.diag([1.0, 1.0, 0.0, 0.0]), pres)
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


def test_eta_phases(capsys):
    payload = run_json(["eta", "--phases", "0.25,0.5,0.125"], capsys)
    assert payload["rho_loop"] == 0.125


def test_eta_argument_exclusivity(capsys):
    code, _, _ = run_cli(["eta"], capsys)
    assert code == 1
    code, _, _ = run_cli(["eta", "--q", "0.1", "--phases", "0.2"], capsys)
    assert code == 1


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


def test_out_file_byte_identical_to_stdout(tmp_path, capsys):
    _, stdout_text, _ = run_cli(["eta", "--q", "0.3"], capsys)
    out = tmp_path / "eta.json"
    code, silent, _ = run_cli(["eta", "--q", "0.3", "--out", str(out)], capsys)
    assert code == 0 and silent == ""
    assert out.read_text() == stdout_text


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
    ],
    ids=["snf-deep", "replay-deep", "fbc-long-int", "replay-infinite-seed",
         "gen-negative-seed", "audit-negative-seed", "replay-negative-seed",
         "replay-negative-trial"],
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
    ],
    ids=["invariants-long-int", "invariants-infinite-dim", "invariants-not-utf8",
         "pairing-list", "pairing-missing-fields"],
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

"""Randomized bound-audit suites: determinism, aggregation, JSON stability."""

import json

import pytest

from obstructkit.audit import (
    BOUND_LABELS,
    SUITES,
    audit_outcome_to_json,
    judge_trial,
    random_pairing_instance,
    run_audit,
    run_suite,
    run_trial,
)
from obstructkit.errors import InvalidSize, ObstructkitError, ParseError
from obstructkit.projops import pairing
from obstructkit.seeding import derive_rng, random_projection

MASTER = 20240817

# float.hex of every ratio of trials 0 and 1 of each suite at master seed 7,
# recorded before the audit norms were stacked (unitarize, path_uni and chain
# again once each random rotation came from one eigh): any drift of even one
# ulp in a norm, a polar factor or the order of a product fails the test below
GOLDEN_SEED = 7
GOLDEN_RATIOS = {
    ("unitarize", 0): {
        "closeness": "0x1.fdba0dd05b276p-5",
        "defect": "0x1.dda65b97c5a58p-5",
        "unitarity": "0x1.635818cdc0a0ep-17",
    },
    ("unitarize", 1): {
        "closeness": "0x1.fefe1655937cep-5",
        "defect": "0x1.270e3e50697f7p-5",
        "unitarity": "0x1.145fc8e92bdfdp-17",
    },
    ("sqrt_mult", 0): {"multiplicativity": "0x1.fd0470af115f7p-1"},
    ("sqrt_mult", 1): {"multiplicativity": "0x1.d24320bb6e81ep-1"},
    ("alm_proj", 0): {"commutator": "0x1.2c8352b15880cp-1"},
    ("alm_proj", 1): {"commutator": "0x1.df5823ba1d901p-3"},
    ("path_uni", 0): {
        "commutator": "0x1.24db0069ebfc3p-5",
        "conjugation": "0x1.87a55ab372466p-20",
    },
    ("path_uni", 1): {
        "commutator": "0x1.24edcf0203929p-5",
        "conjugation": "0x1.57583bd0d4d0ep-21",
    },
    ("chain", 0): {
        "commutator": "0x1.1eccd5007b5cdp-11",
        "conjugation": "0x1.607aa5faa07afp-30",
    },
    ("chain", 1): {
        "commutator": "0x1.9b9c98b84096ep-10",
        "conjugation": "0x1.23ed0ae38dc28p-24",
    },
}


def test_suite_catalogue():
    assert SUITES == ("unitarize", "sqrt_mult", "alm_proj", "path_uni", "chain")
    assert set(BOUND_LABELS) == set(SUITES)


@pytest.mark.parametrize("suite, trial", sorted(GOLDEN_RATIOS, key=str))
def test_run_trial_ratios_are_bit_exact(suite, trial):
    ratios = run_trial(suite, GOLDEN_SEED, trial)
    assert {k: float(v).hex() for k, v in ratios.items()} == GOLDEN_RATIOS[(suite, trial)]


# matrices np.linalg.svd receives over trials 0-99 at seed 7: the polar
# factors and the norms a report carries (chain: eps_path and the final
# conjugation and commutators; unitarize: the output's defect, unitarity and
# closeness).  The projection, unit-ball, gap, relator, defect < eps and step
# gates are proved by the screen, and a change that norms one of them again
# fails here (before the screen: chain 34902, unitarize 18334).
SVD_MATRICES = {"chain": 11834, "unitarize": 6208}


@pytest.mark.parametrize("suite", sorted(SVD_MATRICES))
def test_gates_leave_the_svd_to_reported_norms(suite, svd_matrices):
    for trial in range(100):
        run_trial(suite, GOLDEN_SEED, trial)
    assert sum(svd_matrices) == SVD_MATRICES[suite]


@pytest.mark.parametrize("suite", SUITES)
def test_run_trial_replay_is_deterministic(suite):
    first = run_trial(suite, MASTER, 3)
    second = run_trial(suite, MASTER, 3)
    assert first == second  # bit-for-bit, not approximately
    assert set(first) == set(BOUND_LABELS[suite])
    different = run_trial(suite, MASTER, 4)
    assert different != first  # distinct trials draw distinct instances


@pytest.mark.parametrize("suite", SUITES)
def test_judge_trial_passes_a_trial_within_its_bounds(suite):
    assert judge_trial(suite, MASTER, 3) == (run_trial(suite, MASTER, 3), None)


@pytest.mark.parametrize("suite", SUITES)
def test_run_suite_small_batch_passes(suite):
    result = run_suite(suite, MASTER, 4)
    assert result.suite == suite
    assert result.trials == 4
    assert result.passed
    assert result.failures == ()
    assert result.bounds == BOUND_LABELS[suite]
    assert set(result.worst_ratios) == set(BOUND_LABELS[suite])
    for ratio in result.worst_ratios.values():
        assert 0.0 <= ratio <= 1.0
    assert result.seconds >= 0.0


def test_worst_ratio_is_max_over_trials():
    trials = 5
    result = run_suite("alm_proj", MASTER, trials)
    replayed = [run_trial("alm_proj", MASTER, t) for t in range(trials)]
    for name in result.worst_ratios:
        assert result.worst_ratios[name] == max(r[name] for r in replayed)


def test_zero_trials_is_vacuously_green():
    result = run_suite("chain", MASTER, 0)
    assert result.passed
    assert result.trials == 0
    assert all(v == 0.0 for v in result.worst_ratios.values())


def test_negative_trials_rejected():
    with pytest.raises(InvalidSize):
        run_suite("chain", MASTER, -1)


def test_negative_master_seed_rejected_before_any_trial():
    with pytest.raises(InvalidSize):
        run_trial("chain", -1, 0)
    with pytest.raises(InvalidSize):
        run_suite("chain", -1, 3)  # refused, not recorded as three failed trials
    with pytest.raises(InvalidSize):
        run_trial("chain", MASTER, -1)


def test_seeding_refusals_are_library_errors():
    with pytest.raises(InvalidSize):
        derive_rng(-1)
    with pytest.raises(InvalidSize):
        derive_rng(0, 2, -3)
    with pytest.raises(InvalidSize):
        random_projection(3, 5, derive_rng(0))


def test_unknown_suite_rejected():
    with pytest.raises(ObstructkitError):
        run_trial("nonsense", 0, 0)
    with pytest.raises(ObstructkitError):
        run_suite("nonsense", 0, 1)


def test_unknown_suite_is_malformed_input_and_runs_no_trial(monkeypatch):
    import obstructkit.audit as audit_mod

    calls = []
    monkeypatch.setattr(audit_mod, "run_trial", lambda *replay: calls.append(replay) or {})
    with pytest.raises(ParseError, match="unknown audit suite 'nonsense'") as exc_info:
        run_audit(0, 1, ["chain", "nonsense"])
    assert exc_info.value.exit_code == 1
    assert calls == []  # chain, named first, did not run either
    for unknown in (lambda: run_trial("nonsense", 0, 0), lambda: run_suite("nonsense", 0, 1)):
        with pytest.raises(ParseError):
            unknown()


def test_run_audit_aggregates_in_order():
    outcome = run_audit(MASTER, 2)
    assert tuple(r.suite for r in outcome.suites) == SUITES
    assert outcome.all_passed
    assert outcome.master_seed == MASTER and outcome.trials == 2
    partial = run_audit(MASTER, 2, suites=("chain", "unitarize"))
    assert tuple(r.suite for r in partial.suites) == ("chain", "unitarize")


def test_run_audit_runs_a_repeated_suite_once():
    outcome = run_audit(MASTER, 1, suites=["chain", "alm_proj", "chain"])
    assert tuple(r.suite for r in outcome.suites) == ("chain", "alm_proj")
    once = run_suite("chain", MASTER, 1)
    assert outcome.suites[0].worst_ratios == once.worst_ratios


def test_json_reruns_byte_identical():
    blobs = [
        json.dumps(audit_outcome_to_json(run_audit(11, 3)), sort_keys=True)
        for _ in range(2)
    ]
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    for entry in payload["suites"]:
        assert "seconds" not in entry  # timings stay out of the stable payload


def test_json_timings_opt_in():
    outcome = run_audit(11, 1, suites=("sqrt_mult",))
    timed = audit_outcome_to_json(outcome, include_timings=True)
    assert "seconds" in timed["suites"][0]
    assert timed["suites"][0]["seconds"] >= 0.0


def test_random_pairing_instances_have_the_promised_index():
    rng = derive_rng(MASTER, 77)
    for _ in range(30):
        inp, expected = random_pairing_instance(rng)
        assert pairing(inp).index == expected

"""Randomized bound-audit suites: determinism, aggregation, JSON stability."""

import json

import pytest

from obstructkit.audit import (
    BOUND_LABELS,
    SUITES,
    audit_outcome_to_json,
    random_pairing_instance,
    run_audit,
    run_suite,
    run_trial,
)
from obstructkit.errors import ObstructkitError
from obstructkit.projops import pairing
from obstructkit.seeding import derive_rng

MASTER = 20240817


def test_suite_catalogue():
    assert SUITES == ("unitarize", "sqrt_mult", "alm_proj", "path_uni", "chain")
    assert set(BOUND_LABELS) == set(SUITES)


@pytest.mark.parametrize("suite", SUITES)
def test_run_trial_replay_is_deterministic(suite):
    first = run_trial(suite, MASTER, 3)
    second = run_trial(suite, MASTER, 3)
    assert first == second  # bit-for-bit, not approximately
    assert set(first) == set(BOUND_LABELS[suite])
    different = run_trial(suite, MASTER, 4)
    assert different != first  # distinct trials draw distinct instances


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


def test_unknown_suite_rejected():
    with pytest.raises(ObstructkitError):
        run_trial("nonsense", 0, 0)
    with pytest.raises(ObstructkitError):
        run_suite("nonsense", 0, 1)


def test_run_audit_aggregates_in_order():
    outcome = run_audit(MASTER, 2)
    assert tuple(r.suite for r in outcome.suites) == SUITES
    assert outcome.all_passed
    assert outcome.master_seed == MASTER and outcome.trials == 2
    partial = run_audit(MASTER, 2, suites=("chain", "unitarize"))
    assert tuple(r.suite for r in partial.suites) == ("chain", "unitarize")


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
    for _ in range(10):
        inp, expected = random_pairing_instance(rng, with_twist=False)
        result = pairing(inp)
        assert result.index == expected
        assert result.margin == pytest.approx(0.5, abs=1e-9)

"""Randomized audit suites for every quantitative bound the library promises.

Each suite draws instances from a counter-based generator seeded by
``(master_seed, suite index, trial index)``, so any single trial can be
replayed bit-for-bit from the triple alone.  A trial measures one or more
ratios of the form measured/bound; the suite passes when every ratio over
every trial stays at or below 1.

Suites and their bounds:

* ``unitarize``   — output defect below ``6 * eps``, closeness below ``eps``,
                    output unitarity at the 1e-10 scale;
* ``sqrt_mult``   — compressions multiply to within ``sqrt(eps)`` against
                    arbitrary group elements;
* ``alm_proj``    — spectral flattening amplifies commutators by at most
                    ``1 / (1 - 2 delta)`` across a protected gap;
* ``path_uni``    — the connecting unitary of two nearby projections
                    conjugates exactly (1e-9) and almost commutes with test
                    operators within ``28 * eps``;
* ``chain``       — the same guarantees telescoped along a projection path,
                    linearly in the number of steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize, ObstructkitError, ParseError
from .matcore import (
    coordinate_projection,
    op_norms,
    range_projection,
    spectral_split,
)
from .projops import (
    CONJUGATION_EXACTNESS,
    connecting_unitary,
    chain_conjugation,
    pairing_input,
)
from .quasirep import (
    approx_mult_audit,
    compress,
    defect,
    honest_commuting_rep,
    perturbed_honest_rep,
    symmetrized_generators,
    unitarize,
)
from .seeding import derive_rng, haar_unitary, random_projection, random_rotation
from .words import GroupWord, free_abelian_presentation, surface_presentation

_PLANE = free_abelian_presentation(2)
_SURFACE2 = surface_presentation(2, orientable=True)

BOUND_LABELS = {
    "unitarize": {
        "defect": "6 * eps",
        "closeness": "eps",
        "unitarity": "1e-10",
    },
    "sqrt_mult": {"multiplicativity": "sqrt(eps) + 1e-9"},
    "alm_proj": {"commutator": "||[a, b]|| / (1 - 2 delta) + 1e-12"},
    "path_uni": {
        "conjugation": "1e-9",
        "commutator": "28 * eps + 1e-9",
    },
    "chain": {
        "conjugation": "1e-8 * steps",
        "commutator": "28 * eps * steps + 1e-8",
    },
}


# ---------------------------------------------------------------------------
# Per-suite trials (each returns {ratio name: measured/bound})
# ---------------------------------------------------------------------------


def _trial_unitarize(rng) -> dict:
    pres = (_PLANE, _SURFACE2)[int(rng.integers(0, 2))]
    dim = int(rng.integers(2, 9))
    eps = (0.01, 0.1)[int(rng.integers(0, 2))]
    S = symmetrized_generators(pres)
    phi = perturbed_honest_rep(pres, S, eps, dim, rng)
    sigma = unitarize(phi, S, eps)
    out = defect(sigma, S)
    closeness = float(op_norms(sigma.evaluate(s) - phi.evaluate(s) for s in S).max())
    return {
        "defect": out.max_defect / (6.0 * eps),
        "closeness": closeness / eps,
        "unitarity": out.unitarity_defect / 1e-10,
    }


def _random_word(rng, n_generators: int) -> GroupWord:
    length = int(rng.integers(0, 4))  # up to three letters
    letters = tuple(
        (int(rng.integers(0, n_generators)), (1, -1)[int(rng.integers(0, 2))])
        for _ in range(length)
    )
    return GroupWord(letters)


def _trial_sqrt_mult(rng) -> dict:
    dim = int(rng.integers(6, 13))
    rank = int(rng.integers(max(1, dim // 2), dim))
    base = honest_commuting_rep(_PLANE, dim, rng)
    proj = random_projection(dim, rank, rng)
    rep = compress(base.images, proj, _PLANE)
    g_sample = [_random_word(rng, 2) for _ in range(3)]
    audit = approx_mult_audit(rep, symmetrized_generators(_PLANE), g_sample)
    return {"multiplicativity": audit.worst_ratio}


def _trial_alm_proj(rng) -> dict:
    dim = int(rng.integers(2, 13))
    delta = float(rng.uniform(0.02, 0.45))
    n_low = int(rng.integers(1, dim))
    low = rng.uniform(-0.5, delta, size=n_low)
    high = rng.uniform(1.0 - delta, 1.5, size=dim - n_low)
    low[0] = delta  # pin the spectrum to both edges of the forbidden band
    high[0] = 1.0 - delta
    vals = np.concatenate([low, high])
    v = haar_unitary(dim, rng)
    a = (v * vals) @ v.conj().T
    a = (a + a.conj().T) / 2.0  # bitwise hermitian: spectral_split takes it as is
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = g / op_norms(g[None]).item()
    chi = range_projection(spectral_split(a, 0.5, (0.5 - delta) * 0.99)[1])
    ab, chib = op_norms((a @ b - b @ a, chi @ b - b @ chi)).tolist()
    return {"commutator": chib / (ab / (1.0 - 2.0 * delta) + 1e-12)}


def _trial_path_uni(rng) -> dict:
    dim = int(rng.integers(4, 13))
    rank = int(rng.integers(1, dim))
    w = haar_unitary(dim, rng)
    p0 = coordinate_projection(dim, rank)
    g = random_rotation(dim, rng, rng.uniform(0.005, 0.1))
    p = w @ p0 @ w.conj().T
    q = w @ (g @ p0 @ g.conj().T) @ w.conj().T
    # Test operators diagonal in the hidden basis: they commute with p
    # exactly and with q up to the rotation scale, so the 28x bound is
    # exercised at a meaningful epsilon.
    test_ops = [(w * np.exp(1j * rng.uniform(-np.pi, np.pi, size=dim))) @ w.conj().T
                for _ in range(2)]
    _, audit = connecting_unitary(p, q, test_ops)
    return {
        "conjugation": audit.conjugation_error / CONJUGATION_EXACTNESS,
        "commutator": audit.worst_ratio,
    }


def _trial_chain(rng) -> dict:
    dim = int(rng.integers(3, 9))
    steps = int(rng.integers(5, 66))
    rank = int(rng.integers(1, dim))
    p0 = coordinate_projection(dim, rank)
    total_angle = float(rng.uniform(0.3, min(2.5, 0.12 * steps)))
    rots = random_rotation(dim, rng, total_angle * np.arange(steps + 1) / steps)
    path = rots @ p0 @ rots.conj().transpose(0, 2, 1)
    test_ops = [random_rotation(dim, rng, rng.uniform(0.001, 0.05)) for _ in range(2)]
    _, report = chain_conjugation(path, test_ops)
    return {
        "conjugation": report.conjugation_error / report.conjugation_bound,
        "commutator": report.worst_ratio,
    }


_TRIALS = {
    "unitarize": _trial_unitarize,
    "sqrt_mult": _trial_sqrt_mult,
    "alm_proj": _trial_alm_proj,
    "path_uni": _trial_path_uni,
    "chain": _trial_chain,
}
SUITES = tuple(_TRIALS)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one audit suite: worst measured/bound ratio per guarantee."""

    suite: str
    trials: int
    passed: bool
    worst_ratios: dict
    bounds: dict
    failures: tuple
    seconds: float


@dataclass(frozen=True)
class AuditOutcome:
    """Aggregate of all requested suites under one master seed."""

    master_seed: int
    trials: int
    suites: tuple
    all_passed: bool


def require_suites(names) -> None:
    """Refuse an unknown suite name as malformed input, before any trial runs."""
    for name in names:
        if name not in _TRIALS:
            raise ParseError(f"unknown audit suite {name!r}; expected one of {SUITES}")


def run_trial(suite: str, master_seed: int, trial: int) -> dict:
    """Replay a single audit instance; returns its measured ratios."""
    require_suites([suite])
    rng = derive_rng(master_seed, SUITES.index(suite), trial)
    return _TRIALS[suite](rng)


def run_suite(suite: str, master_seed: int, trials: int) -> SuiteResult:
    """Run one suite; collects the worst ratio per bound and any failures.

    A failure is a trial whose ratio exceeds 1 or that raises a library
    error; each failure records (master_seed, suite, trial) so it can be
    replayed exactly with :func:`run_trial`.
    """
    require_suites([suite])
    if trials < 0:
        raise InvalidSize(f"trials must be non-negative, got {trials}")
    if master_seed < 0:
        raise InvalidSize(f"master seed must be non-negative, got {master_seed}")
    start = time.perf_counter()
    worst = {name: 0.0 for name in sorted(BOUND_LABELS[suite])}
    failures = []
    for trial in range(trials):
        replay = {"suite": suite, "master_seed": master_seed, "trial": trial}
        try:
            ratios = run_trial(suite, master_seed, trial)
        except ObstructkitError as exc:
            failures.append({**replay, "error": f"{type(exc).__name__}: {exc}"})
            continue
        bad = {k: v for k, v in ratios.items() if v > 1.0}
        for k, v in ratios.items():
            if v > worst[k]:
                worst[k] = v
        if bad:
            failures.append({**replay, "ratios": bad})
    return SuiteResult(
        suite=suite,
        trials=trials,
        passed=not failures,
        worst_ratios=worst,
        bounds=dict(BOUND_LABELS[suite]),
        failures=tuple(failures),
        seconds=time.perf_counter() - start,
    )


def run_audit(master_seed: int, trials: int, suites=None) -> AuditOutcome:
    """Run each named suite once, in the order first given (default: all).
    Every name is checked before the first suite runs."""
    chosen = dict.fromkeys(suites if suites is not None else SUITES)
    require_suites(chosen)
    results = tuple(run_suite(name, master_seed, trials) for name in chosen)
    return AuditOutcome(
        master_seed=master_seed,
        trials=trials,
        suites=results,
        all_passed=all(r.passed for r in results),
    )


def audit_outcome_to_json(outcome: AuditOutcome, include_timings: bool = False) -> dict:
    suites = []
    for r in outcome.suites:
        entry = {
            "suite": r.suite,
            "trials": r.trials,
            "passed": r.passed,
            "worst_ratios": r.worst_ratios,
            "bounds": r.bounds,
            "failures": list(r.failures),
        }
        if include_timings:
            entry["seconds"] = r.seconds
        suites.append(entry)
    return {
        "master_seed": outcome.master_seed,
        "trials": outcome.trials,
        "all_passed": outcome.all_passed,
        "suites": suites,
    }


# ---------------------------------------------------------------------------
# Pairing instances with a known index
# ---------------------------------------------------------------------------


def random_pairing_instance(rng, with_twist: bool = True):
    """Pairing input with a provable index: returns (input, expected index).

    Construction: ``q`` is (a small twist of) ``1_N (x) q0`` with ``q0`` of
    rank ``r``, and ``e + b`` is a Haar-rotated projection of rank ``N + s``.
    In the untwisted product form the pairing operand splits as
    ``e (x) (1 - q0) + (e + b) (x) q0``, whose spectral projection above one
    half has rank ``N k + s r`` — index ``s r``.  A twist of angle at most
    0.01 moves the operand by at most 0.04, which cannot close the unit gap
    or change the integer.
    """
    n_dim = int(rng.integers(2, 5))
    k_dim = int(rng.integers(2, 5))
    r = int(rng.integers(1, k_dim))
    s = int(rng.integers(-n_dim, n_dim + 1))
    q0 = random_projection(k_dim, r, rng)
    q = np.kron(np.eye(n_dim), q0)
    if with_twist:
        u = random_rotation(n_dim * k_dim, rng, rng.uniform(0.0, 0.01))
        q = u @ q @ u.conj().T
    e_plus_b = random_projection(2 * n_dim, n_dim + s, rng)
    e = coordinate_projection(2 * n_dim, n_dim)
    b = e_plus_b - e
    return pairing_input(b, q, n_dim, k_dim), s * r

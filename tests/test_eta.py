"""Twisted-circle eta invariants: closed form, Abel regularization, rho."""

import functools
import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obstructkit import eta
from obstructkit.errors import BoundViolation, NumericalInconsistency, ZeroMode
from obstructkit.eta import (
    DEFAULT_T_LADDER,
    T_MIN,
    CharacterTwist,
    EtaResult,
    abel_series_value,
    eta_character_abel,
    eta_character_closed,
    rho_loop,
)

GRID = [j / 200.0 for j in range(1, 200)]
FLOOR_LADDER = (0.0016, 0.0008, 0.0004, 0.0002, 0.0001)
U = 2.0**-53

# dyadic phases make every mod-1 sum float-exact
dyadic_phase = st.integers(min_value=0, max_value=1023).map(lambda k: k / 1024.0)


# ---------------------------------------------------------------------------
# the series summed term by term: an oracle for the closed form
# ---------------------------------------------------------------------------

# Omitted-tail bound for the series at each point.
TAIL_TOL = 1e-14


def _truncation_count(t: float) -> int:
    # Window half-width N with the omitted geometric tail below TAIL_TOL:
    # the tail of sum e^{-t n} past N is e^{-t(N+1)} / (1 - e^{-t}).
    return int(math.ceil((33.0 - math.log1p(-math.exp(-t))) / t)) + 1


# the rounding-bound rows and the mpmath rows share their phases' sums, which
# take about 0.3 s per phase on the floor ladder
@functools.lru_cache(maxsize=None)
def _list_fsum_series(q, t):
    """The series at ``t``, truncated to ``|n| <= N(t)`` and summed as
    ``math.fsum`` of its terms, and the ``math.fsum`` ``S`` of the absolute
    values of its terms.

    A term is formed with two roundings, in ``n + q`` and in ``t |n + q|``,
    which ``exp`` turns into a relative error of at most ``2u y`` (to first
    order, ``u = 2**-53``, ``y = t |n + q|``), and ``exp`` adds its own,
    assumed within one ulp (``2u``).  Under the weights ``e^{-y}`` the mean
    of ``y`` over a window is below ``1 + t``, so a point's terms are off by
    at most ``(4 + 2t) u S`` in all, and ``math.fsum`` rounds their exact
    sum ``E`` once (``u |E|``; Shewchuk, DCG 18, 1997).
    """
    n_max = _truncation_count(t)
    lam = np.arange(-n_max, n_max + 1, dtype=np.float64) + q
    terms = np.exp(-t * np.abs(lam))
    return math.fsum((np.sign(lam) * terms).tolist()), math.fsum(terms.tolist())


SERIES_PHASES = [0.001, 0.05, 0.3, 1.0 / 3.0, 0.5, 0.501, 0.7, 0.999]


@pytest.mark.parametrize("q", SERIES_PHASES)
@pytest.mark.parametrize("ladder", [DEFAULT_T_LADDER, FLOOR_LADDER], ids=["default", "floor"])
def test_series_sum_is_within_its_rounding_bound_of_the_closed_form(ladder, q):
    # the truncated series misses E(t) by its terms' rounding (4 + 2t) u S,
    # its own rounding u |E| and the omitted tails, each side below
    # e^{-33 - 2t}; the closed form misses it by at most 12 u |E|
    for t in ladder:
        y, s = _list_fsum_series(q, t)
        value = abel_series_value(q, t)
        bound = (4.0 + 2.0 * t) * U * s + 13.0 * U * abs(value) + math.exp(-33.0 - 2.0 * t)
        assert abs(y - value) <= bound


def _mp_series(q, t):
    """``E(t)`` at the floats ``q`` and ``t`` as its two geometric series,
    ``(e^{-tq} - e^{-t(1-q)}) / (1 - e^{-t})``, in the working precision."""
    q, t = mpmath.mpf(q), mpmath.mpf(t)
    return (mpmath.exp(-t * q) - mpmath.exp(-t * (1 - q))) / -mpmath.expm1(-t)


@pytest.mark.parametrize("q", [*SERIES_PHASES, 1e-9, 0.1, 0.9, 1.0 - 2.0**-40])
def test_series_and_closed_form_are_within_their_bounds_of_mpmath(q):
    # each bound apart, against a 50-digit third value: the oracle's
    # (4 + 2t) u S + u |E| and both tails, and the 12 u |E| that
    # abel_series_value's docstring claims, which the combined 13 u |E|
    # above is too loose to check
    for t in DEFAULT_T_LADDER + FLOOR_LADDER:
        y, s = _list_fsum_series(q, t)
        value = abel_series_value(q, t)
        with mpmath.workdps(50):
            exact, t = _mp_series(q, t), mpmath.mpf(t)
            tails = 2 * mpmath.exp(-33 - 2 * t)
            assert abs(y - exact) <= (4 + 2 * t) * U * s + U * abs(exact) + tails
            assert abs(value - exact) <= 12 * U * abs(exact)


def geometric_series_oracle(q, t):
    """The series as its two geometric series, over n + q > 0 and n + q < 0."""
    return (math.exp(-t * q) - math.exp(-t * (1.0 - q))) / -math.expm1(-t)


def test_series_matches_geometric_oracle():
    for q in (0.05, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.995):
        for t in DEFAULT_T_LADDER + (1.0, 0.7):
            assert abel_series_value(q, t) == pytest.approx(
                geometric_series_oracle(q, t), abs=1e-12
            )


@pytest.mark.parametrize("q, t", [(0.0, 0.4), (1.0, 0.4), (-0.2, 0.4), (float("nan"), 0.4)])
def test_series_value_refuses_a_phase_outside_the_open_interval(q, t):
    # the closed form is the series only for q in (0, 1); at q = 0 the
    # series has a zero eigenvalue and no sign for it
    with pytest.raises(BoundViolation, match=r"must lie in \(0, 1\)"):
        abel_series_value(q, t)


def _neville_at_zero(xs, ys):
    """Polynomial extrapolation to 0 by Neville's scheme."""
    tab = list(ys)
    m = len(xs) - 1
    for k in range(1, m + 1):
        for i in range(m - k + 1):
            tab[i] = (xs[i] * tab[i + 1] - xs[i + k] * tab[i]) / (xs[i] - xs[i + k])
    return tab[0]


def _weights(xs):
    return [math.prod(xj / (xj - xi) for j, xj in enumerate(xs) if j != i)
            for i, xi in enumerate(xs)]


def _reference_abel(q, t_ladder=DEFAULT_T_LADDER, order=4):
    """Abel eta by a second route: each series summed term by term, then
    extrapolated by Neville's scheme.  Returns the estimate and a bound on
    its distance from the polynomial through the exact values E(t_i): the
    series' rounding and tails under the weights, plus Neville's rounding,
    4m roundings on every path of its tableau, whose paths to one value
    share the sign of its weight."""
    window = list(t_ladder)[-(order + 1) :]
    xs = [t * t for t in window]
    ys, mass = zip(*(_list_fsum_series(q, t) for t in window))
    values = sum(
        abs(w) * ((4.0 + 2.0 * t) * U * s + (1.0 + 4.5 * order) * U * abs(y)
                  + 2.0 * math.exp(-33.0 - 2.0 * t))
        for w, t, s, y in zip(_weights(xs), window, mass, ys)
    )
    return _neville_at_zero(xs, ys), values


def _assert_matches_the_reference(q, ladder=DEFAULT_T_LADDER, order=4):
    got = eta_character_abel(CharacterTwist(q), t_ladder=ladder, richardson_order=order)
    reference, spread = _reference_abel(q, ladder, order)
    # both routes lie within their bounds of one polynomial's value at 0
    assert abs(got.eta - reference) <= got.extrapolation_error + spread
    assert got.kernel_dim == 0 and got.method == "abel-regularized"
    assert got.rho_mod_Z == (got.eta - 1.0) / 2.0 % 1.0


def test_abel_matches_the_reference_on_the_grid():
    for q in GRID:
        _assert_matches_the_reference(q)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "ladder",
    [(0.9, 0.5, 0.3, 0.2, 0.15), (0.05, 0.02, 0.01, 0.005, 0.002), (0.4, 0.2, 0.1, 0.05, 0.025)],
)
def test_abel_matches_the_reference_on_custom_ladders(ladder, order):
    for q in (0.005, 0.25, 1.0 / 3.0, 0.5, 0.77, 0.995):
        _assert_matches_the_reference(q, ladder, order)


def test_default_ladder_error_is_the_documented_bound():
    # the remainder prod x / prod (R - x) with |E| <= 1 on |x| = R, plus
    # u sum |w| ((14 + 3m) |y| + 1) for the rounding, m = 4
    xs = [t * t for t in DEFAULT_T_LADDER]
    weights = _weights(xs)
    remainder = math.prod(xs) / math.prod(eta._RADIUS - x for x in xs)
    assert eta._RADIUS <= math.pi**2 and remainder < 1.1e-15
    for q in GRID:
        ys = [abel_series_value(q, t) for t in DEFAULT_T_LADDER]
        rounding = U * sum(abs(w) * (26.0 * abs(y) + 1.0) for w, y in zip(weights, ys))
        got = eta_character_abel(CharacterTwist(q)).extrapolation_error
        assert got == pytest.approx(remainder + rounding, rel=1e-12)
        assert got < 1e-14


@pytest.mark.parametrize(
    "ladder", [(0.004, 0.002, 0.001, 0.0005, 0.00025), FLOOR_LADDER], ids=["to-0.00025", "to-floor"]
)
def test_small_t_ladders_pass_the_cross_check(ladder):
    # the bound holds for every ladder in [T_MIN, 1]; a fixed 1e-13 floor
    # once refused q = 0.3 on the floor ladder; every sixth grid point
    for q in GRID[::6]:
        res = eta_character_abel(CharacterTwist(q), t_ladder=ladder)
        assert abs(res.eta - (1.0 - 2.0 * q)) <= res.extrapolation_error < 1e-14


@pytest.mark.parametrize("ladder", [DEFAULT_T_LADDER, FLOOR_LADDER], ids=["default", "floor"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_the_bound_holds_on_a_random_sweep(ladder, order):
    # 2000 seeded phases and both ends of (0, 1): the bound is a proof, so
    # no valid phase may trip it
    rng = np.random.default_rng(37)
    for q in [1e-9, 1.0 - 1e-12, 0.5 - 2.0**-54, *rng.random(2000).tolist()]:
        res = eta_character_abel(CharacterTwist(q), t_ladder=ladder, richardson_order=order)
        assert abs(math.fsum((res.eta, -1.0, 2.0 * q))) <= res.extrapolation_error


@pytest.mark.parametrize("ladder", [DEFAULT_T_LADDER, FLOOR_LADDER], ids=["default", "floor"])
@pytest.mark.parametrize(
    "point, delta",
    [(0, 1e-8), (1, 1e-8), (2, 1e-12), (3, 1e-12), (4, 1e-12)],
    ids=["t0", "t1", "t2", "t3", "t4"],
)
def test_one_faulted_value_is_refused(monkeypatch, ladder, point, delta):
    # a fault delta at point i moves the estimate by |w_i| delta: weights
    # 1.4e-6, -4.7e-4, 0.032, -0.48 and 1.45 from the largest t down
    values = eta._abel_values

    def faulted(q, window):
        ys = values(q, window)
        ys[point] += delta
        return ys

    monkeypatch.setattr(eta, "_abel_values", faulted)
    with pytest.raises(NumericalInconsistency, match="misses the exact limit") as exc_info:
        eta_character_abel(CharacterTwist(0.3), t_ladder=ladder)
    weight = _weights([t * t for t in ladder])[point]
    assert exc_info.value.measured == pytest.approx(abs(weight) * delta, rel=0.05)


def test_abel_floor_ladder_runs_in_under_a_millisecond():
    # the closed form costs the same at every t; best of 5 batches of 20
    import timeit

    run = lambda: eta_character_abel(CharacterTwist(0.3), t_ladder=FLOOR_LADDER)  # noqa: E731
    assert min(timeit.repeat(run, number=20, repeat=5)) / 20 < 1e-3


def test_closed_form_values():
    half = eta_character_closed(CharacterTwist(0.5))
    assert half.eta == 0.0 and half.kernel_dim == 0
    quarter = eta_character_closed(CharacterTwist(0.25))
    assert quarter.eta == 0.5
    zero = eta_character_closed(CharacterTwist(0.0))
    assert zero.eta == 0.0 and zero.kernel_dim == 1 and zero.rho_mod_Z == 0.0
    assert quarter.method == "closed-form"
    assert quarter.extrapolation_error == 0.0


def test_abel_pinned_values():
    quarter = eta_character_abel(CharacterTwist(0.25))
    assert quarter.eta == pytest.approx(0.5, abs=1e-6)
    assert quarter.kernel_dim == 0
    assert quarter.method == "abel-regularized"
    high = eta_character_abel(CharacterTwist(0.9))
    assert high.eta == pytest.approx(-0.8, abs=1e-6)


def test_abel_matches_closed_on_grid():
    for q in GRID:
        res = eta_character_abel(CharacterTwist(q))
        exact = 1.0 - 2.0 * q
        assert abs(res.eta - exact) <= 1e-6
        assert abs(res.eta - exact) <= res.extrapolation_error
        assert res.extrapolation_error > 0.0


def test_reflection_symmetry():
    for q in (0.1, 0.23, 0.4, 0.45):
        closed = eta_character_closed(CharacterTwist(q)).eta
        closed_ref = eta_character_closed(CharacterTwist(1.0 - q)).eta
        assert closed + closed_ref == pytest.approx(0.0, abs=1e-12)
        abel = eta_character_abel(CharacterTwist(q)).eta
        abel_ref = eta_character_abel(CharacterTwist(1.0 - q)).eta
        assert abel + abel_ref == pytest.approx(0.0, abs=1e-6)


def test_richardson_order_ladder_monotone():
    for q in (0.05, 0.25, 0.5, 0.8):
        errs = [
            eta_character_abel(CharacterTwist(q), richardson_order=k).extrapolation_error
            for k in (1, 2, 3, 4)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse


def test_custom_ladder():
    res = eta_character_abel(
        CharacterTwist(0.3), t_ladder=(0.5, 0.25, 0.125, 0.0625), richardson_order=3
    )
    assert res.eta == pytest.approx(0.4, abs=1e-4)


def test_abel_inconsistency_carries_the_miss(monkeypatch):
    # a series stuck at 0 extrapolates to 0, with zero correction, against
    # the exact limit 1 - 2q = 0.5
    monkeypatch.setattr(eta, "_abel_values", lambda q, window: [0.0] * len(window))
    with pytest.raises(NumericalInconsistency, match="misses the exact limit") as exc_info:
        eta_character_abel(CharacterTwist(0.25))
    assert exc_info.value.measured == 0.5


def test_abel_zero_mode():
    with pytest.raises(ZeroMode):
        eta_character_abel(CharacterTwist(0.0))


def test_ladder_validation():
    tw = CharacterTwist(0.3)
    with pytest.raises(BoundViolation):
        eta_character_abel(tw, t_ladder=())
    with pytest.raises(BoundViolation):
        eta_character_abel(tw, t_ladder=(0.4, 0.2, 0.0, 0.05, 0.025))
    with pytest.raises(BoundViolation):
        eta_character_abel(tw, t_ladder=(1.5, 0.4, 0.2, 0.1, 0.05))
    with pytest.raises(BoundViolation):
        eta_character_abel(tw, t_ladder=(0.1, 0.2, 0.3, 0.4, 0.5))
    with pytest.raises(BoundViolation):
        eta_character_abel(tw, richardson_order=0)
    with pytest.raises(BoundViolation):
        eta_character_abel(tw, t_ladder=(0.4, 0.2), richardson_order=4)


@pytest.mark.parametrize("t", [1e-300, 1e-7, 0.99e-4, float("nan"), 0.0, -1.0, 1.5])
def test_abel_parameter_floor_refuses_before_allocating(t):
    # series values and ladders live in [T_MIN, 1], the domain of the
    # documented bound; NaN fails every comparison
    with pytest.raises(BoundViolation, match="at least 0.0001"):
        abel_series_value(0.3, t)
    with pytest.raises(BoundViolation, match=r"must lie in \[0.0001, 1\]"):
        eta_character_abel(CharacterTwist(0.3), t_ladder=(0.4, 0.2, 0.1, 0.05, t))


@pytest.mark.parametrize(
    "ladder, text, measured",
    [
        ((), "t ladder is empty", 0),
        ((0.5, 2.0), "t ladder entry 2.0 must lie", 2.0),
        ((0.4, 0.2, 0.0, 0.05, 1.5), "t ladder entry 0.0 must lie", 0.0),
    ],
    ids=["empty", "above-one", "first-of-two"],
)
def test_ladder_refusal_names_the_entry(ladder, text, measured):
    with pytest.raises(BoundViolation, match=text) as exc_info:
        eta_character_abel(CharacterTwist(0.3), t_ladder=ladder)
    assert exc_info.value.measured == measured


def test_abel_parameter_floor_is_accepted():
    assert abel_series_value(0.3, T_MIN) == pytest.approx(0.4, abs=1e-7)


def test_twist_phase_domain():
    with pytest.raises(BoundViolation):
        CharacterTwist(1.0)
    with pytest.raises(BoundViolation):
        CharacterTwist(-0.1)
    with pytest.raises(BoundViolation):
        CharacterTwist(float("nan"))


def test_rho_character_values():
    assert eta_character_closed(CharacterTwist(0.0)).rho_mod_Z == 0.0
    assert eta_character_closed(CharacterTwist(0.25)).rho_mod_Z == 0.75
    assert eta_character_closed(CharacterTwist(0.5)).rho_mod_Z == 0.5


def test_rho_exact_negation_on_grid():
    for q in GRID:
        assert eta_character_closed(CharacterTwist(q)).rho_mod_Z == (-q) % 1.0


def test_rho_loop_basic():
    assert rho_loop([]) == 0.0
    assert rho_loop([0.0, 0.0, 0.0]) == 0.0
    for q in (0.125, 0.3, 0.9):
        assert rho_loop([q]) == eta_character_closed(CharacterTwist(q)).rho_mod_Z


def test_rho_loop_third_multiplicity_three():
    # -3 * (1/3) is an integer, so the loop invariant lands on 0 mod 1
    got = rho_loop([1.0 / 3.0] * 3)
    assert min(got, 1.0 - got) <= 1e-12
    # independent oracle: additivity of eta under direct sums, eta estimated
    # by the regularized series at each summand
    eta_each = eta_character_abel(CharacterTwist(1.0 / 3.0)).eta
    merged = ((3.0 * eta_each) - 3.0) / 2.0 % 1.0
    diff = abs(merged - got) % 1.0
    assert min(diff, 1.0 - diff) <= 1e-5


@given(
    st.lists(dyadic_phase, max_size=6),
    st.lists(dyadic_phase, max_size=6),
)
def test_rho_loop_homomorphism(a, b):
    assert rho_loop(a + b) == (rho_loop(a) + rho_loop(b)) % 1.0


def test_rho_loop_phase_domain():
    with pytest.raises(BoundViolation):
        rho_loop([0.2, 1.0])
    with pytest.raises(BoundViolation):
        rho_loop([-0.5])


@pytest.mark.parametrize("bad", [1.0, -0.5, float("nan"), float("inf")])
def test_rho_loop_refuses_each_phase_as_a_character_twist(bad):
    with pytest.raises(BoundViolation, match=r"character phase must lie in \[0, 1\)"):
        rho_loop([0.2, bad])


def test_result_json_shape():
    payload = asdict(eta_character_closed(CharacterTwist(0.25)))
    assert payload == {
        "eta": 0.5,
        "kernel_dim": 0,
        "rho_mod_Z": 0.75,
        "method": "closed-form",
        "extrapolation_error": 0.0,
    }
    abel = asdict(eta_character_abel(CharacterTwist(0.25)))
    assert abel["method"] == "abel-regularized"
    assert 0.0 < abel["extrapolation_error"] < 1e-6

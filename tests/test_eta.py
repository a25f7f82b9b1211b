"""Twisted-circle eta invariants: closed form, Abel regularization, rho."""

import math
import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings
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

# dyadic phases make every mod-1 sum float-exact
dyadic_phase = st.integers(min_value=0, max_value=1023).map(lambda k: k / 1024.0)


def sinh_series_oracle(q, t):
    """Independent closed form of the regularized sum: two geometric series."""
    return math.sinh((0.5 - q) * t) / math.sinh(0.5 * t)


def test_series_matches_geometric_oracle():
    for q in (0.05, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.995):
        for t in DEFAULT_T_LADDER + (1.0, 0.7):
            assert abel_series_value(q, t) == pytest.approx(
                sinh_series_oracle(q, t), abs=1e-12
            )


def _list_fsum_series(q, t):
    """The series summed as ``fsum`` of a list of Python floats."""
    import numpy as np

    n_max = eta._truncation_count(t)
    lam = np.arange(-n_max, n_max + 1, dtype=np.float64) + q
    return math.fsum((np.sign(lam) * np.exp(-t * np.abs(lam))).tolist())


def test_series_sum_is_bitwise_the_list_fsum():
    # the same floats, summed exactly and rounded once, as fsum rounds
    for q in GRID:
        for t in DEFAULT_T_LADDER:
            assert abel_series_value(q, t).hex() == _list_fsum_series(q, t).hex()


FLOOR_LADDER = (0.0016, 0.0008, 0.0004, 0.0002, 0.0001)


def _reference_abel(q, t_ladder=DEFAULT_T_LADDER, order=4):
    """Abel eta a point at a time: each series and its absolute mass summed
    by ``fsum`` over a list of Python floats, then ``_neville_at_zero`` and
    the documented error estimate."""
    import numpy as np

    window = list(t_ladder)[-(order + 1) :]
    ys, mass = [], []
    for t in window:
        n_max = eta._truncation_count(t)
        lam = np.arange(-n_max, n_max + 1, dtype=np.float64) + q
        terms = np.sign(lam) * np.exp(-t * np.abs(lam))
        ys.append(math.fsum(terms.tolist()))
        mass.append(math.fsum(np.abs(terms).tolist()))
    xs = [t * t for t in window]
    estimate, correction = eta._neville_at_zero(xs, ys)
    rounding = 0.0
    for i, (t, s, y) in enumerate(zip(window, mass, ys)):
        w = math.prod(xj / (xj - xs[i]) for j, xj in enumerate(xs) if j != i)
        rounding += abs(w) * ((4.0 + 2.0 * t) * s + abs(y))
    return EtaResult(
        eta=estimate,
        kernel_dim=0,
        rho_mod_Z=(estimate - 1.0) / 2.0 % 1.0,
        method="abel-regularized",
        extrapolation_error=2.0 * correction + max(eta.ERROR_FLOOR, 2.0**-53 * rounding),
    )


def test_abel_matches_the_reference_on_the_grid():
    for q in GRID:
        assert eta_character_abel(CharacterTwist(q)) == _reference_abel(q)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "ladder",
    [(0.9, 0.5, 0.3, 0.2, 0.15), (0.05, 0.02, 0.01, 0.005, 0.002), (0.4, 0.2, 0.1, 0.05, 0.025)],
)
def test_abel_matches_the_reference_on_custom_ladders(ladder, order):
    for q in (0.005, 0.25, 1.0 / 3.0, 0.5, 0.77, 0.995):
        got = eta_character_abel(CharacterTwist(q), t_ladder=ladder, richardson_order=order)
        assert got == _reference_abel(q, ladder, order)


def test_default_ladder_error_is_the_parents():
    # on the default ladder the series rounding stays under ERROR_FLOOR, so
    # the reported error is twice the last correction plus the floor
    for q in GRID:
        window = list(DEFAULT_T_LADDER)
        ys = [abel_series_value(q, t) for t in window]
        _, correction = eta._neville_at_zero([t * t for t in window], ys)
        got = eta_character_abel(CharacterTwist(q)).extrapolation_error
        assert got == 2.0 * correction + eta.ERROR_FLOOR


@pytest.mark.parametrize(
    "ladder", [(0.004, 0.002, 0.001, 0.0005, 0.00025), FLOOR_LADDER], ids=["to-0.00025", "to-floor"]
)
def test_small_t_ladders_pass_the_cross_check(ladder):
    # the terms' rounding grows like 1/t; a fixed 1e-13 floor refused
    # q = 0.3 on the floor ladder (miss 2.9e-13); every sixth grid point
    for q in GRID[::6]:
        res = eta_character_abel(CharacterTwist(q), t_ladder=ladder)
        assert abs(res.eta - (1.0 - 2.0 * q)) <= res.extrapolation_error < 1e-10


def _exact_fsum(values):
    """The exact kernel on one segment, and fsum of its parts."""
    import numpy as np

    (parts,) = eta._exact_parts(np.array(values, dtype=np.float64), [0])
    return math.fsum(parts)


# every exponent up to 2**1000, subnormals and zeros included: the kernel
# takes terms below 2**(1023 - s) for 2**s >= 2 len(x)
finite = st.floats(min_value=-(2.0**1000), max_value=2.0**1000)


@given(st.lists(finite, min_size=1, max_size=20))
def test_exact_sum_is_fsum(values):
    assert _exact_fsum(values).hex() == math.fsum(values).hex()


@given(st.lists(finite, min_size=1, max_size=10).flatmap(
    lambda xs: st.permutations(xs + [-x for x in xs])
))
def test_exact_sum_of_cancelling_terms_is_zero(values):
    # the q = 0.5 series cancels exactly; fsum returns +0.0 then, as here
    assert _exact_fsum(values).hex() == math.fsum(values).hex() == "0x0.0p+0"


@given(
    st.lists(finite, min_size=3, max_size=30),
    st.lists(st.integers(min_value=1, max_value=29), max_size=4),
)
def test_exact_parts_split_segments(values, cuts):
    import numpy as np

    starts = sorted({0, *(c for c in cuts if c < len(values))})
    segments = eta._exact_parts(np.array(values), starts)
    for start, end, parts in zip(starts, [*starts[1:], len(values)], segments):
        assert math.fsum(parts).hex() == math.fsum(values[start:end]).hex()


def test_exact_sum_at_extremes():
    tiny, big = 5e-324, 2.0**1000
    for values in (
        [tiny],
        [-tiny, 0.0, -0.0],
        [tiny] * 3 + [1.0, -1.0],
        [big, -big, tiny],
        [big, big, big, -tiny],
        [2.0**-1022, -(2.0**-1022) + tiny],
        [1.0, 2.0**-53, 2.0**-105],  # one above the half-way point: rounds up
        [1.0, 2.0**-53],  # half way: to even, down
    ):
        assert _exact_fsum(values).hex() == math.fsum(values).hex()


def test_exact_parts_refuse_terms_too_large():
    with pytest.raises(OverflowError):
        _exact_fsum([sys.float_info.max / 2, 1.0])


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([eta._CHUNK - 1, eta._CHUNK, eta._CHUNK + 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([-1074, -60, 0, 960]),
)
def test_exact_sum_around_one_chunk(length, seed, low):
    # random signs, and exponents from 2**low up
    import numpy as np

    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], length)
    values = np.ldexp(signs * rng.random(length), rng.integers(low, low + 40, length))
    assert _exact_fsum(values).hex() == math.fsum(values.tolist()).hex()


def test_exact_sum_of_a_long_array():
    # 2**19 terms in [1, 2): a pass keeps 32 bits, and the sum passes 2**19
    import numpy as np

    values = 1.0 + np.random.default_rng(7).random(2**19)
    assert _exact_fsum(values).hex() == math.fsum(values.tolist()).hex()


def test_series_at_the_floor_is_the_list_fsum():
    # 844,245 terms in 26 blocks
    assert abel_series_value(0.3, T_MIN).hex() == _list_fsum_series(0.3, T_MIN).hex()


def test_abel_window_memory_stays_streamed():
    # the window is summed in blocks of _CHUNK terms per point: before, one
    # point at t = 1e-4 peaked at 32.2 MB and the floor ladder at 38.0 MB
    import tracemalloc

    abel_series_value(0.3, 0.4)  # numpy's own first-call allocations
    for run, bound in (
        (lambda: abel_series_value(0.3, T_MIN), 32.2e6),
        (lambda: eta_character_abel(CharacterTwist(0.3), t_ladder=FLOOR_LADDER), 38.0e6),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


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
    monkeypatch.setattr(eta, "_abel_sums", lambda q, window: ([0.0] * len(window),) * 2)
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


@pytest.mark.parametrize("t", [1e-300, 1e-7, 0.99e-4, float("nan"), 0.0, -1.0])
def test_abel_parameter_floor_refuses_before_allocating(t):
    # below T_MIN the window grows like 1/t: 1e-7 would need two 8 GB arrays
    # and 1e-300 overflows the window arithmetic itself
    with pytest.raises(BoundViolation, match="at least 0.0001"):
        abel_series_value(0.3, t)
    with pytest.raises(BoundViolation, match=r"must lie in \[0.0001, 1\]"):
        eta_character_abel(CharacterTwist(0.3), t_ladder=(0.4, 0.2, 0.1, 0.05, t))


@pytest.mark.parametrize(
    "ladder, text, measured",
    [
        ((), "t ladder is empty", None),
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

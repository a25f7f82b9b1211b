"""Twisted-circle eta invariants: closed form, Abel regularization, rho."""

import math
import sys
from dataclasses import asdict

import numpy as np
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
FLOOR_LADDER = (0.0016, 0.0008, 0.0004, 0.0002, 0.0001)
U = 2.0**-53

# dyadic phases make every mod-1 sum float-exact
dyadic_phase = st.integers(min_value=0, max_value=1023).map(lambda k: k / 1024.0)


# ---------------------------------------------------------------------------
# the series summed term by term: an oracle for the closed form
# ---------------------------------------------------------------------------

# Omitted-tail bound for the series at each point.
TAIL_TOL = 1e-14
# Terms per point in one block of the series window: bounds peak memory.
_CHUNK = 1 << 15


def _truncation_count(t: float) -> int:
    # Window half-width N with the omitted geometric tail below TAIL_TOL:
    # the tail of sum e^{-t n} past N is e^{-t(N+1)} / (1 - e^{-t}).
    return int(math.ceil((33.0 - math.log1p(-math.exp(-t))) / t)) + 1


def _exact_parts(x, starts):
    """Split the exact sum of each segment ``x[starts[i]:starts[i + 1]]`` of
    a finite float64 array into a few floats: the floats of segment ``i``
    add up exactly to its terms.  ``x`` is overwritten; segments are
    nonempty; every term is below ``2**(1023 - s)`` in size, ``2**s`` the
    first power of two at least ``2 len(x)`` (a larger one makes
    ``math.ldexp`` raise OverflowError).

    Each pass takes the bits of every term from ``2**(k - 53)`` up, for
    ``sigma = 2**k`` at least ``2 len(x)`` times every term's size, by
    error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): ``q = (sigma + x) - sigma`` is exact, a multiple of
    ``2**(k - 53)``, and so is ``x - q``, below ``2**(k - 53)`` in size.
    The ``q`` of a segment then add up in floating point with no rounding,
    since every partial sum is a multiple of ``2**(k - 53)`` below
    ``sigma``.  The next pass starts from ``2**(k - 53)``, and passes go on
    until no bit is left: about ``53 - s`` bits of exponent range per pass,
    so three or four for a series window.  Each pass is thus one exponent
    bin of every term (Malcolm, CACM 14, 1971), and its sum is exact.
    """
    spread = (2 * len(x) - 1).bit_length()
    size = max(float(x.max()), -float(x.min()))
    q = np.empty_like(x)
    levels = []
    while size:
        k = math.frexp(size)[1] + spread
        sigma = math.ldexp(1.0, k)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        levels.append(np.add.reduceat(q, starts).tolist())
        if not x.any():
            break
        size = math.ldexp(1.0, k - 53)
    return list(zip(*levels)) if levels else [()] * len(starts)


def _abel_sums(q, window):
    """The series at each ``t`` of ``window``, truncated to ``|n| <= N(t)``
    and summed exactly, and the sum ``S`` of the absolute values of its
    terms there.

    A term is formed with two roundings, in ``n + q`` and in ``t |n + q|``,
    which ``exp`` turns into a relative error of at most ``2u y`` (to first
    order, ``u = 2**-53``, ``y = t |n + q|``), and ``exp`` adds its own,
    assumed within one ulp (``2u``).  Under the weights ``e^{-y}`` the mean
    of ``y`` over a window is below ``1 + t``, so a point's terms are off by
    at most ``(4 + 2t) u S`` in all, and its sum ``E`` is then rounded once
    (``u |E|``).

    One pass over ``n`` in blocks of ``_CHUNK``: a block forms ``n + q``
    once, then ``e^{-t |n + q|}``, the same floats as one point at a time,
    for every point whose window meets it.  Each point's terms are
    exact-summed in three segments, ``n + q`` negative, zero and positive,
    and ``math.fsum`` of a point's exact parts rounds their total once: bit
    for bit what ``math.fsum`` returns on the terms (Shewchuk, DCG 18, 1997).
    """
    reach = [_truncation_count(t) for t in window]
    top = max(reach)
    totals = [[] for _ in window]  # exact parts of each point's sum
    mass = [[] for _ in window]
    for a in range(-top, top + 1, _CHUNK):
        lam = np.arange(a, min(a + _CHUNK, top + 1), dtype=np.float64)
        lam += q
        # n + q < 0 before index zero and > 0 from index pos on; a float sum
        # is 0 only for exact opposites, so at most lam[zero] is 0
        zero = int(np.searchsorted(lam, 0.0))
        pos = zero + int(zero < len(lam) and lam[zero] == 0.0)
        dist = np.abs(lam, out=lam)
        spans = [(p, max(-n - a, 0), min(n + 1 - a, len(lam))) for p, n in enumerate(reach)]
        spans = [(p, lo, hi) for p, lo, hi in spans if lo < hi]
        terms = np.concatenate([dist[lo:hi] for _, lo, hi in spans])
        pieces = []  # (point, sign, first index in terms)
        offset = 0
        for p, lo, hi in spans:
            terms[offset : offset + hi - lo] *= -window[p]
            cuts = [lo, min(max(zero, lo), hi), min(max(pos, lo), hi), hi]
            for sign, i, j in zip((-1, 0, 1), cuts, cuts[1:]):
                if i < j:
                    pieces.append((p, sign, offset + i - lo))
            offset += hi - lo
        np.exp(terms, out=terms)
        for (p, sign, _), parts in zip(pieces, _exact_parts(terms, [i for _, _, i in pieces])):
            if sign:
                totals[p] += parts if sign > 0 else [-v for v in parts]
                mass[p] += parts
    return [math.fsum(parts) for parts in totals], [math.fsum(parts) for parts in mass]


def _list_fsum_series(q, t):
    """The series summed as ``fsum`` of a list of Python floats."""
    n_max = _truncation_count(t)
    lam = np.arange(-n_max, n_max + 1, dtype=np.float64) + q
    return math.fsum((np.sign(lam) * np.exp(-t * np.abs(lam))).tolist())


def test_series_sum_is_bitwise_the_list_fsum():
    # the same floats, summed exactly and rounded once, as fsum rounds
    for q in GRID:
        ys, _ = _abel_sums(q, DEFAULT_T_LADDER)
        for t, y in zip(DEFAULT_T_LADDER, ys):
            assert y.hex() == _list_fsum_series(q, t).hex()


@pytest.mark.parametrize("q", [0.001, 0.05, 0.3, 1.0 / 3.0, 0.5, 0.501, 0.7, 0.999])
@pytest.mark.parametrize("ladder", [DEFAULT_T_LADDER, FLOOR_LADDER], ids=["default", "floor"])
def test_series_sum_is_within_its_rounding_bound_of_the_closed_form(ladder, q):
    # the truncated series misses E(t) by its terms' rounding (4 + 2t) u S,
    # its own rounding u |E| and the omitted tails, each side below
    # e^{-33 - 2t}; the closed form misses it by at most 12 u |E|
    ys, mass = _abel_sums(q, ladder)
    for t, y, s in zip(ladder, ys, mass):
        value = abel_series_value(q, t)
        bound = (4.0 + 2.0 * t) * U * s + 13.0 * U * abs(value) + math.exp(-33.0 - 2.0 * t)
        assert abs(y - value) <= bound


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
    ys, mass = _abel_sums(q, window)
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


def _exact_fsum(values):
    """The exact kernel on one segment, and fsum of its parts."""
    (parts,) = _exact_parts(np.array(values, dtype=np.float64), [0])
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
    starts = sorted({0, *(c for c in cuts if c < len(values))})
    segments = _exact_parts(np.array(values), starts)
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
    st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([-1074, -60, 0, 960]),
)
def test_exact_sum_around_one_chunk(length, seed, low):
    # random signs, and exponents from 2**low up
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], length)
    values = np.ldexp(signs * rng.random(length), rng.integers(low, low + 40, length))
    assert _exact_fsum(values).hex() == math.fsum(values.tolist()).hex()


def test_exact_sum_of_a_long_array():
    # 2**19 terms in [1, 2): a pass keeps 32 bits, and the sum passes 2**19
    values = 1.0 + np.random.default_rng(7).random(2**19)
    assert _exact_fsum(values).hex() == math.fsum(values.tolist()).hex()


def test_series_at_the_floor_is_the_list_fsum():
    # 844,245 terms in 26 blocks
    (y,), _ = _abel_sums(0.3, (T_MIN,))
    assert y.hex() == _list_fsum_series(0.3, T_MIN).hex()


def test_abel_window_memory_stays_streamed():
    # the oracle sums its window in blocks of _CHUNK terms per point: summed
    # at once, one point at t = 1e-4 peaked at 32.2 MB and the floor ladder
    # at 38.0 MB
    import tracemalloc

    _abel_sums(0.3, (0.4,))  # numpy's own first-call allocations
    for window, bound in (((T_MIN,), 32.2e6), (FLOOR_LADDER, 38.0e6)):
        tracemalloc.start()
        try:
            _abel_sums(0.3, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


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

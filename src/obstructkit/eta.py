"""Spectral asymmetry (eta) invariants for circle operators twisted by a phase.

The operator ``i d/dx`` on the circle, twisted by the character sending the
generating loop to ``e^{2 pi i q}``, has spectrum ``{n + q : n integer}``.
Its eta invariant — the regularized signed count of that spectrum — is
computed two ways:

* ``eta_character_closed`` returns the exact values (``1 - 2q`` for
  ``q`` in (0, 1), zero with a one-dimensional kernel at ``q = 0``);
* ``eta_character_abel`` sums the Abel-regularized series
  ``E(t) = sum sign(n+q) e^{-t|n+q|}`` at a ladder of ``t`` values and
  Richardson-extrapolates ``t -> 0``.  ``E`` is even in ``t``, so the
  extrapolation runs in the variable ``t^2``.

The series is summed exactly and rounded once, so each value is the
correctly rounded sum of its floating-point terms: bit for bit what
``math.fsum`` returns on them (Shewchuk, DCG 18, 1997).  A few numpy passes
split the terms, by exponent range, into exact partial sums (see
``_exact_parts``), and ``math.fsum`` of those few floats rounds once,
instead of ``fsum`` stepping through every term.

Both report ``rho_mod_Z``, the eta data of the character reduced against the
untwisted operator: ``((kernel + eta) - (1 + 0)) / 2`` mod 1, which is ``-q``
mod 1.  ``rho_loop`` sums that invariant over a whole list of eigenphases of a
unitary at a loop, producing the numerical conjugation invariant in R/Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundViolation, NumericalInconsistency, ZeroMode

DEFAULT_T_LADDER = (0.4, 0.2, 0.1, 0.05, 0.025)
DEFAULT_RICHARDSON_ORDER = 4
# Omitted-tail bound for the Abel series at each ladder point.
TAIL_TOL = 1e-14
# Smallest accepted t: a window of about 8.4e5 series terms, growing like 1/t.
T_MIN = 1e-4
# Floor on the reported extrapolation error: covers the omitted tails and
# the rounding of the extrapolation itself, after amplification by its
# weights.  The rounding of the series terms is estimated per call.
ERROR_FLOOR = 1e-13
# Terms per point in one block of the series window: bounds peak memory.
_CHUNK = 1 << 15


@dataclass(frozen=True)
class CharacterTwist:
    """Phase ``q`` of a circle character (generator maps to ``e^{2 pi i q}``)."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (math.isfinite(q) and 0.0 <= q < 1.0):
            raise BoundViolation(f"character phase must lie in [0, 1); got {self.q!r}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class EtaResult:
    """Eta invariant of a twisted circle operator plus its reduction mod Z.

    ``rho_mod_Z`` is ``((kernel_dim + eta) - 1) / 2`` reduced mod 1 — the
    comparison of this operator's half-count against the untwisted one,
    whose kernel is one-dimensional with vanishing eta.
    ``extrapolation_error`` is zero for closed-form results and an estimated
    bound (twice the last extrapolation correction plus the larger of a
    noise floor and the rounding of the series terms) for Abel-regularized
    ones.
    """

    eta: float
    kernel_dim: int
    rho_mod_Z: float
    method: str
    extrapolation_error: float


def eta_character_closed(tw: CharacterTwist) -> EtaResult:
    """Exact eta of the twisted circle operator.

    The spectrum ``{n + q}`` has a zero eigenvalue exactly at ``q = 0``
    (kernel dimension 1, eta 0 by symmetry); for ``q`` in (0, 1) the
    asymmetry evaluates to ``1 - 2q``.
    """
    if tw.q == 0.0:
        eta, kernel, rho = 0.0, 1, 0.0
    else:
        # rho = ((0 + (1 - 2q)) - 1) / 2 mod 1 simplifies to -q mod 1;
        # evaluating the reduced form avoids a 1-ulp double rounding when
        # q < 1/4 (where 1 - 2q is no longer exact in floating point).
        eta, kernel, rho = 1.0 - 2.0 * tw.q, 0, (-tw.q) % 1.0
    return EtaResult(
        eta=eta,
        kernel_dim=kernel,
        rho_mod_Z=rho,
        method="closed-form",
        extrapolation_error=0.0,
    )


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
    import numpy as np

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
    """The Abel series at each ``t`` of ``window``, and the sum of the
    absolute values of its terms there.

    One pass over ``n`` in blocks of ``_CHUNK``: a block forms ``n + q``
    once, then ``e^{-t |n + q|}``, the same floats as one point at a time,
    for every point whose window ``|n| <= N(t)`` meets it.  Each point's
    terms are exact-summed in three segments, ``n + q`` negative, zero and
    positive: the series ``sum sign(n + q) e^{-t |n + q|}`` is the positive
    sum less the negative one, and the absolute sum is the two added.
    ``math.fsum`` of a point's exact parts rounds their exact total once.
    """
    import numpy as np  # here, so the closed form and rho_loop start without numpy

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


def abel_series_value(q: float, t: float) -> float:
    """Truncated ``sum over n of sign(n+q) e^{-t|n+q|}`` (tail below 1e-14).

    The terms are summed exactly and rounded once, so the value is the
    correctly rounded sum of the floating-point terms: the float
    ``math.fsum`` returns on them, bit for bit.  It is ``_abel_sums`` on a
    one-point window, the code ``eta_character_abel`` runs.
    """
    if not t >= T_MIN:  # NaN fails the comparison
        raise BoundViolation(f"Abel parameter t must be at least {T_MIN}, got {t!r}")
    return _abel_sums(q, (t,))[0][0]


def _neville_at_zero(xs, ys):
    """Polynomial extrapolation to 0; returns (value, last diagonal correction)."""
    tab = list(ys)
    m = len(xs) - 1
    for k in range(1, m + 1):
        prev = tab[0]
        for i in range(m - k + 1):
            tab[i] = (xs[i] * tab[i + 1] - xs[i + k] * tab[i]) / (xs[i] - xs[i + k])
    return tab[0], abs(tab[0] - prev)


def eta_character_abel(
    tw: CharacterTwist,
    t_ladder=DEFAULT_T_LADDER,
    richardson_order: int = DEFAULT_RICHARDSON_ORDER,
) -> EtaResult:
    """Abel-regularized eta: series values on a ``t`` ladder, extrapolated to 0.

    The ladder must be a descending sequence in [T_MIN, 1] with at least
    ``richardson_order + 1`` entries; the extrapolation uses its last
    ``richardson_order + 1`` points.  Only then is ``q = 0`` refused
    (ZeroMode): its zero eigenvalue makes the signed series ambiguous, and
    the closed form should be used.  The result is cross-checked against
    the exact limit and must agree within the reported error estimate.

    That estimate is twice the last extrapolation correction plus the
    larger of ``ERROR_FLOOR`` and a rounding term for the series terms.  A
    term is formed with two roundings, in ``n + q`` and in ``t |n + q|``,
    which ``exp`` turns into a relative error of at most ``2u y`` (to first
    order, ``u = 2**-53``, ``y = t |n + q|``), and ``exp`` adds its own,
    assumed within one ulp (``2u``).  Under the weights ``e^{-y}`` the mean
    of ``y`` over a window is below ``1 + t`` (on each side ``y = t(k + c)``
    with ``0 < c <= 1``, mean ``tc + t / (e^t - 1)``), so a point's terms
    are off by at most ``(4 + 2t) u S`` in all, ``S`` the sum of their
    absolute values (about ``2 / t``), and its sum ``E`` is then rounded
    once (``u |E|``).  The extrapolated value is the Lagrange combination
    ``sum w_i E(t_i)`` at 0, so the term is
    ``u sum |w_i| ((4 + 2 t_i) S_i + |E_i|)``: about 6e-14 on the default
    ladder, under the floor, and 1.5e-11 on 0.0016, 0.0008, ..., 0.0001.
    """
    ladder = [float(t) for t in t_ladder]
    if not ladder:
        raise BoundViolation("t ladder is empty")
    bad = next((t for t in ladder if not (T_MIN <= t <= 1.0)), None)
    if bad is not None:
        raise BoundViolation(f"t ladder entry {bad!r} must lie in [{T_MIN}, 1]", measured=bad)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise BoundViolation("t ladder must be strictly descending")
    order = int(richardson_order)
    if order < 1:
        raise BoundViolation("richardson_order must be at least 1")
    if len(ladder) < order + 1:
        raise BoundViolation(
            f"t ladder has {len(ladder)} points; order {order} needs {order + 1}"
        )
    if tw.q == 0.0:
        raise ZeroMode(
            "spectrum contains 0 at phase q = 0; the regularized series does "
            "not determine the sign — use eta_character_closed"
        )
    window = ladder[-(order + 1) :]
    xs = [t * t for t in window]  # the series is even in t
    ys, mass = _abel_sums(tw.q, window)
    estimate, correction = _neville_at_zero(xs, ys)
    weights = [math.prod(xj / (xj - xi) for xj in xs if xj != xi) for xi in xs]
    rounding = 2.0**-53 * sum(
        abs(w) * ((4.0 + 2.0 * t) * s + abs(y)) for w, t, s, y in zip(weights, window, mass, ys)
    )
    err = 2.0 * correction + max(ERROR_FLOOR, rounding)
    exact = 1.0 - 2.0 * tw.q
    if abs(estimate - exact) > err:
        raise NumericalInconsistency(
            f"extrapolated eta {estimate!r} misses the exact limit {exact!r} "
            f"by more than the estimated error {err:.3e}",
            measured=abs(estimate - exact),
        )
    return EtaResult(
        eta=estimate,
        kernel_dim=0,
        rho_mod_Z=(estimate - 1.0) / 2.0 % 1.0,
        method="abel-regularized",
        extrapolation_error=err,
    )


def rho_loop(phases) -> float:
    """Summed invariant of a list of eigenphases: ``(-sum q_j)`` mod 1.

    Characters add under direct sum, so the invariant of a unitary at a loop
    is the sum over its eigenphases; this closed form accepts any phases in
    [0, 1), whether or not the representation factors through a finite
    quotient.
    """
    qs = [CharacterTwist(q).q for q in phases]  # refuses a phase outside [0, 1)
    return (-math.fsum(qs)) % 1.0

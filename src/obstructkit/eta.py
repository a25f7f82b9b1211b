"""Spectral asymmetry (eta) invariants for circle operators twisted by a phase.

The operator ``i d/dx`` on the circle, twisted by the character sending the
generating loop to ``e^{2 pi i q}``, has spectrum ``{n + q : n integer}``.
Its eta invariant — the regularized signed count of that spectrum — is
computed two ways:

* ``eta_character_closed`` returns the exact values (``1 - 2q`` for
  ``q`` in (0, 1), zero with a one-dimensional kernel at ``q = 0``);
* ``eta_character_abel`` evaluates the Abel-regularized series
  ``E(t) = sum sign(n+q) e^{-t|n+q|}`` at a ladder of ``t`` values and
  extrapolates polynomially to ``t -> 0``, with a proved error bound.  ``E``
  is even in ``t``, so the extrapolation runs in the variable ``t^2``.

For ``q`` in (0, 1) the series is two geometric series, over ``n + q > 0``
and over ``n + q < 0``, so each value comes from their closed form
``E(t) = (e^{-tq} - e^{-t(1-q)}) / (1 - e^{-t}) = sinh(t(1/2 - q)) / sinh(t/2)``.

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
# Smallest accepted t: ladders and series values live in [T_MIN, 1].
T_MIN = 1e-4
# Radius of the circle in x = t^2 on which the remainder bound takes |E| <= 1;
# the proof needs it at most pi^2 (see eta_character_abel).
_RADIUS = 9.8696


@dataclass(frozen=True)
class CharacterTwist:
    """Phase ``q`` of a circle character (generator maps to ``e^{2 pi i q}``)."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (math.isfinite(q) and 0.0 <= q < 1.0):
            raise BoundViolation(f"character phase must lie in [0, 1); got {self.q!r}", measured=q)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class EtaResult:
    """Eta invariant of a twisted circle operator plus its reduction mod Z.

    ``rho_mod_Z`` is ``((kernel_dim + eta) - 1) / 2`` reduced mod 1 — the
    comparison of this operator's half-count against the untwisted one,
    whose kernel is one-dimensional with vanishing eta.
    ``extrapolation_error`` is zero for closed-form results and, for
    Abel-regularized ones, a proved bound on the distance of ``eta`` from
    the exact ``1 - 2q``: the interpolation remainder plus the rounding of
    the series values and of the extrapolation.
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


def _abel_values(q, window):
    """``E(t) = sinh(t(1/2 - q)) / sinh(t/2)`` at each ``t`` of ``window``."""
    s = 0.5 - q
    return [math.sinh(s * t) / math.sinh(0.5 * t) for t in window]


def abel_series_value(q: float, t: float) -> float:
    """``sum over n of sign(n+q) e^{-t|n+q|}`` for ``q`` in (0, 1) and ``t``
    in [T_MIN, 1], from its closed form: within ``12u |E|`` of the sum's
    value, ``u = 2**-53`` (see ``eta_character_abel``).
    """
    if not T_MIN <= t <= 1.0:  # NaN fails the comparison
        raise BoundViolation(f"Abel parameter t must be at least {T_MIN} and at most 1, got {t!r}",
                             measured=t)
    if not 0.0 < q < 1.0:
        raise BoundViolation(f"series phase q must lie in (0, 1), got {q!r}", measured=q)
    return _abel_values(q, (t,))[0]


def eta_character_abel(
    tw: CharacterTwist,
    t_ladder=DEFAULT_T_LADDER,
    richardson_order: int = DEFAULT_RICHARDSON_ORDER,
) -> EtaResult:
    """Abel-regularized eta: series values on a ``t`` ladder, extrapolated to 0.

    The ladder must be a strictly descending sequence in [T_MIN, 1] with at
    least ``m + 1`` entries, ``m = richardson_order``; the extrapolation uses its
    last ``m + 1`` points.  Only then is ``q = 0`` refused (ZeroMode): its
    zero eigenvalue makes the signed series ambiguous, and the closed form
    should be used.

    The estimate is ``p(0) = sum w_i y_i`` for the polynomial ``p`` of
    degree ``m`` through the points ``(x_i, y_i)``: ``x_i`` is ``t_i^2``
    rounded, ``y_i`` the computed ``E(t_i)`` and
    ``w_i = prod_{j != i} x_j / (x_j - x_i)`` its Lagrange weight at 0.
    ``extrapolation_error`` bounds ``|p(0) - (1 - 2q)|`` in two parts.

    The remainder.  With ``s = 1/2 - q``, ``f(x) = E(sqrt x)
    = sinh(s sqrt x) / sinh(sqrt x / 2)`` is analytic for ``|x| < 4 pi^2``
    (its poles are at ``x = -4 pi^2 k^2``) and ``f(0) = 1 - 2q``.  By the
    Hermite integral formula (Trefethen, Approximation Theory and
    Approximation Practice, 2013, ch. 11) the interpolant ``P`` of ``f`` at
    the nodes has ``|f(0) - P(0)| <= M prod x_i / prod (R - x_i)``, ``M`` the
    largest ``|f|`` on ``|x| = R`` and ``R`` above every node.  Take ``R``
    at most ``pi^2``.  For ``sqrt x = a + ib``, ``|sinh(a + ib)|^2
    = sinh^2 a + sin^2 b``, so ``|sinh(s sqrt x)|^2 = sinh^2(sa) + sin^2(sb)
    <= sinh^2(a / 2) + sin^2(b / 2) = |sinh(sqrt x / 2)|^2``: ``|s| < 1/2``
    and ``|b| <= pi``, where ``sin^2`` increases in ``|b| / 2``.  So
    ``M = 1``, and the remainder is about 1.1e-15 on the default ladder and
    1e-39 on 0.0016, 0.0008, ..., 0.0001.

    The rounding, ``u = 2**-53``.  The argument ``s t`` carries at most two
    roundings, which ``sinh`` turns into a relative error of at most
    ``cosh(1/2) 2u < 2.3u`` since ``|s t| < 1/2``; ``t / 2`` is exact; each
    ``sinh`` is assumed within 2 ulps (``4u``), glibc's published bound; the
    division adds ``u``.  So ``|y_i - E(t_i)| <= 12u |E(t_i)|``.  Rounding
    ``t_i^2`` to ``x_i`` moves ``f`` by at most ``u x_i`` times
    ``|f'| <= R M / (R - 1)^2 < 0.13``.  Each computed weight is ``3m - 1``
    roundings from ``w_i``, its product with ``y_i`` one more, and
    ``math.fsum`` rounds the exact sum once (``u |p(0)|``).  With the
    constants rounded up, to cover second-order terms and the arithmetic of
    the bound itself, the rounding part is
    ``u sum |w_i| ((14 + 3m) |y_i| + 1)``: about 2.5e-15 at ``q = 0.3`` on
    either ladder.

    A fault ``delta`` in one value moves the estimate by ``|w_i| delta``:
    the weights are 1.45, -0.48, 0.032, -4.7e-4 and 1.4e-6 on a halving
    ladder, from its smallest ``t`` up.  An estimate that misses ``1 - 2q``
    by more than the bound is refused (NumericalInconsistency).
    """
    ladder = [float(t) for t in t_ladder]
    if not ladder:
        raise BoundViolation("t ladder is empty", measured=0)
    bad = next((t for t in ladder if not (T_MIN <= t <= 1.0)), None)
    if bad is not None:
        raise BoundViolation(f"t ladder entry {bad!r} must lie in [{T_MIN}, 1]", measured=bad)
    bad = next((b for a, b in zip(ladder, ladder[1:]) if b >= a), None)
    if bad is not None:
        raise BoundViolation("t ladder must be strictly descending", measured=bad)
    order = int(richardson_order)
    if order < 1:
        raise BoundViolation("richardson_order must be at least 1", measured=order)
    if len(ladder) < order + 1:
        raise BoundViolation(
            f"t ladder has {len(ladder)} points; order {order} needs {order + 1}",
            measured=len(ladder),
        )
    if tw.q == 0.0:
        raise ZeroMode(
            "spectrum contains 0 at phase q = 0; the regularized series does "
            "not determine the sign — use eta_character_closed"
        )
    window = ladder[-(order + 1) :]
    xs = [t * t for t in window]  # the series is even in t
    ys = _abel_values(tw.q, window)
    weights = [math.prod(xj / (xj - xi) for xj in xs if xj != xi) for xi in xs]
    estimate = math.fsum(w * y for w, y in zip(weights, ys))
    remainder = math.prod(xs) / math.prod(_RADIUS - x for x in xs)
    rounding = 2.0**-53 * sum(
        abs(w) * ((14 + 3 * order) * abs(y) + 1.0) for w, y in zip(weights, ys)
    )
    err = remainder + rounding
    # the miss from 1 - 2q, exact and rounded once: no rounding of its own
    # can carry it past err
    miss = abs(math.fsum((estimate, -1.0, 2.0 * tw.q)))
    if miss > err:
        raise NumericalInconsistency(
            f"extrapolated eta {estimate!r} misses the exact limit {1.0 - 2.0 * tw.q!r} "
            f"by more than its error bound {err:.3e}",
            measured=miss,
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

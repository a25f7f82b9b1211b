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
# Floor on the reported extrapolation error: covers truncation and rounding
# noise after amplification by the extrapolation weights.
ERROR_FLOOR = 1e-13


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
    bound (twice the last extrapolation correction plus a noise floor) for
    Abel-regularized ones.
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


def abel_series_value(q: float, t: float) -> float:
    """Truncated ``sum over n of sign(n+q) e^{-t|n+q|}`` (tail below 1e-14)."""
    if not t >= T_MIN:  # NaN fails the comparison
        raise BoundViolation(f"Abel parameter t must be at least {T_MIN}, got {t!r}")
    import numpy as np  # here, so the closed form and rho_loop start without numpy

    n_max = _truncation_count(t)
    ns = np.arange(-n_max, n_max + 1, dtype=np.float64)
    lam = ns + q
    terms = np.sign(lam) * np.exp(-t * np.abs(lam))
    # fsum reads the float64 buffer directly, without a list of floats
    return math.fsum(memoryview(terms))


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
    ys = [abel_series_value(tw.q, t) for t in window]
    estimate, correction = _neville_at_zero(xs, ys)
    err = 2.0 * correction + ERROR_FLOOR
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

"""The arithmetic of the library's docstring proofs, checked against the
module constants at every parameter the code admits, so that a constant
moved past its proof fails a test.

Exact arithmetic throughout: ``fractions.Fraction`` for rational steps, and
mpmath's interval context, with ``u = 2**-53``, where a square root, a cosine
or pi enters; an inequality holds when the upper end of its left side lies
below the lower end of its right side.
"""

import itertools
from fractions import Fraction

import mpmath

from obstructkit.winding import (
    EIG_RESIDUE_TOL,
    HERMITIAN_PHASE_BUDGET,
    PIVOT_DIM_LIMIT,
    PIVOT_LEAF,
)

iv = mpmath.iv


def _below(x, bound: str) -> bool:
    """Whether every point of the interval ``x`` lies below the decimal ``bound``."""
    return x.b < iv.mpf(bound).a


def _pivot_levels(n: int) -> tuple[int, int]:
    """``(L, N)``: the levels of ``winding._pivot_argument_sum`` at dimension
    ``n`` and the size it pads to, from ``PIVOT_LEAF`` as it computes them."""
    levels = ((n - 1) // PIVOT_LEAF).bit_length()
    return levels, -(-n >> levels) << levels


def _pivot_hypotheses(n: int) -> dict:
    """Each hypothesis and sum of ``_pivot_argument_sum``'s proof at dimension
    ``n``, keyed by the docstring text it checks: True where it holds."""
    L, N = _pivot_levels(n)
    # the level gate compares each rho_l with this float, as the code forms it
    limit = EIG_RESIDUE_TOL / n
    residual = L * iv.sqrt(iv.mpf(7 * n) / 12) * iv.mpf(limit) / (2 * iv.pi * iv.mpf("0.4969"))
    half, u = iv.mpf(N) / 2, iv.mpf(2.0**-53)
    rounding = ((60 * half**2 * iv.sqrt(half) + 300 * N) * u / iv.mpf("0.4969")
                + 2 * N * (N + 2) * u) / (2 * iv.pi)
    return {
        "7 <= h <= 80": all(7 <= (N >> level) // 2 <= 80 for level in range(L)),
        "n >= 6 * 2^L + 1 when L >= 1": L == 0 or n >= 6 * 2**L + 1,
        "N < 7n/6": Fraction(N) < Fraction(7 * n, 6),
        "L (EIG_RESIDUE_TOL / n + 2e-11) + 1e-13 < 8.1e-8":
            L * (Fraction(limit) + Fraction("2e-11")) + Fraction("1e-13") < Fraction("8.1e-8"),
        "L sqrt(7/12n) EIG_RESIDUE_TOL / (2 pi 0.4969) < 1.05e-7": _below(residual, "1.05e-7"),
        "the rest by under 2e-10": _below(rounding, "2e-10"),
    }


def test_pivot_argument_sum_proof_covers_every_dim_up_to_the_limit():
    # "cos(pi/3 + 2 tau) - tau/(1 - tau) > 0.497" at the largest tau the
    # eigenvalue gates admit, HERMITIAN_PHASE_BUDGET at n = 1 (c falls as tau
    # grows), and "which costs K under 3.3e-7": a perturbation below 8.1e-8
    # keeps K(g - e/(g(g - e))) within K(0.4969)
    tau = iv.mpf(HERMITIAN_PHASE_BUDGET)
    c = iv.cos(iv.pi / 3 + 2 * tau) - tau / (1 - tau)
    assert c.a > iv.mpf("0.497").b
    g, e = Fraction("0.497"), Fraction("8.1e-8")
    assert e / (g * (g - e)) < Fraction("3.3e-7") and g - Fraction("3.3e-7") > Fraction("0.4969")
    for n in range(1, PIVOT_DIM_LIMIT + 1):
        failed = [text for text, holds in _pivot_hypotheses(n).items() if not holds]
        assert not failed, f"n = {n}: {failed}"
    # "So the path's total lies within 1.1e-7 of the winding the eigenvalue
    # method certifies, inside the residue tolerance": 1.05e-7 + 2e-10 and
    # |arg det W| / 2 pi < 1.6e-9
    total = Fraction("1.05e-7") + Fraction("2e-10") + Fraction("1.6e-9")
    assert total < Fraction("1.1e-7") < Fraction(EIG_RESIDUE_TOL)


def test_pivot_argument_sum_proof_stops_at_161():
    # n = 161 is the first dimension the proof does not cover: its first
    # level's leading block has h = 88 columns, past the 80 of gamma_{h+3}'s
    # budget, so PIVOT_DIM_LIMIT may not pass 160
    first = next(n for n in itertools.count(1) if not all(_pivot_hypotheses(n).values()))
    assert first == 161 and _pivot_levels(161) == (4, 176)
    assert [text for text, holds in _pivot_hypotheses(161).items() if not holds] == ["7 <= h <= 80"]

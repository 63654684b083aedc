"""Empirical contraction studies for the round-based policy synthesis."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .localized import ExtensionDefaults, synthesize
from .mdp import DEFAULT_BUDGET, GlobalMdp, backward_induction, evaluate_policy


@dataclass(frozen=True)
class GapCurve:
    gaps: np.ndarray      # (rounds+1,) J(pi^r) - J*, r = 0 is the pre-improvement policy
    j_star: float
    j_rounds: np.ndarray  # (rounds+1,)
    gamma: float
    hops: int


def gap_curve(mdp: GlobalMdp, *, hops: int, gamma: float, rounds: int,
              s1=None, defaults: ExtensionDefaults | None = None,
              budget: int = DEFAULT_BUDGET) -> GapCurve:
    """Exact optimality gap after each improvement round.

    Round 0 is the initialization (softmax response assuming default neighbor
    behavior); rounds 1..R are simultaneous-update improvements. Gaps are
    computed with the exact product-form evaluator against the optimal cost
    from full backward induction, so the curve carries no sampling noise.
    """
    sol = backward_induction(mdp, budget=budget)
    j_star = sol.expected_cost(s1)
    snaps = synthesize(mdp, hops=hops, gamma=gamma, rounds=rounds,
                       defaults=defaults, snapshot_rounds=range(rounds + 1))
    j_rounds = np.zeros(rounds + 1)
    for r in range(rounds + 1):
        j_rounds[r] = evaluate_policy(mdp, snaps[r], s1)
    return GapCurve(gaps=j_rounds - j_star, j_star=j_star, j_rounds=j_rounds,
                    gamma=gamma, hops=hops)


class InsufficientData(ValueError):
    """Too few positive gap points to fit a geometric rate."""


@dataclass(frozen=True)
class RateFit:
    c: float       # gap(R) ~ c * d_hat**R
    d_hat: float
    r_squared: float
    points: int    # how many leading entries entered the fit


def fit_rate(gaps, *, tol: float = 1e-14) -> RateFit:
    """Least-squares geometric rate gap(R) ~ C * D^R from a gap sequence.

    Fits log g_r = log C + r log D over the longest positive prefix of the
    series (entries at or below tol end the prefix; exact policies can reach
    numerical zero after few rounds). Raises InsufficientData when the prefix
    has fewer than four points. A constant series has zero explainable
    variance and reports R^2 = 1 (the flat fit is exact) with D = 1.
    """
    g = np.asarray(gaps, dtype=float)
    n = 0
    while n < g.size and g[n] > tol:
        n += 1
    if n < 4:
        raise InsufficientData(
            f"need >= 4 positive gap points to fit a rate, got {n}")
    y = np.log(g[:n])
    x = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = intercept + slope * x
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot < 1e-24 else 1.0 - ss_res / ss_tot
    return RateFit(c=float(np.exp(intercept)), d_hat=float(np.exp(slope)),
                   r_squared=float(r2), points=n)


def contraction_coefficient(gamma: float, m: int, lipschitz: float,
                            grad_bound: float, n_joint_actions: int) -> float:
    """D = 32 gamma m (L + 1) G^2 |P|^2 for the round-update contraction."""
    return 32.0 * gamma * m * (lipschitz + 1.0) * grad_bound ** 2 * n_joint_actions ** 2


def temperature_cap(m: int, lipschitz: float, grad_bound: float,
                    n_joint_actions: int) -> float:
    """Largest gamma with a certified contraction, i.e. where D reaches 1."""
    return 1.0 / (32.0 * m * (lipschitz + 1.0) * grad_bound ** 2 * n_joint_actions ** 2)


@dataclass(frozen=True)
class ContractionReport:
    """The measured gap curve beside its geometric fit and the analytic coefficient."""

    curve: GapCurve
    fit: RateFit | None     # None when the curve is too short to fit (InsufficientData)
    d_bound: float | None   # analytic D; None without declared constants

    @property
    def certified(self) -> bool:
        return self.d_bound is not None and self.d_bound <= 1.0


def contraction_study(mdp: GlobalMdp, *, hops: int, gamma: float, rounds: int, s1=None,
                      defaults: ExtensionDefaults | None = None,
                      declared: tuple[float, float] | None = None,
                      budget: int = DEFAULT_BUDGET) -> ContractionReport:
    """Pair the measured gap curve and its rate fit with the analytic coefficient.

    `declared` is (lipschitz, grad_bound); without it the report has no D.
    """
    curve = gap_curve(mdp, hops=hops, gamma=gamma, rounds=rounds, s1=s1,
                      defaults=defaults, budget=budget)
    try:
        fit = fit_rate(curve.gaps)
    except InsufficientData:
        fit = None
    d_bound = None
    if declared is not None:
        d_bound = contraction_coefficient(gamma, mdp.m, *declared, mdp.n_actions)
    return ContractionReport(curve=curve, fit=fit, d_bound=d_bound)

"""Distribution fitting and fairness scoring for simulation output.

The protocol's block streams should look exponential and reward shares should
track power shares.  Fitting uses the maximum-likelihood exponential rate
(1 / sample mean) and goodness of fit uses the one-sample Kolmogorov-Smirnov
statistic against the fitted CDF, compared to the asymptotic critical value
``c(alpha) / sqrt(n)`` (1.63 at the 1% level).  Monte Carlo win rates carry a
Wilson score interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

# Asymptotic Kolmogorov distribution quantiles by significance level.
KS_COEFFICIENTS: Dict[float, float] = {0.01: 1.63, 0.05: 1.36, 0.10: 1.22}

MIN_FIT_SAMPLES = 30


@dataclass(frozen=True, slots=True)
class FitResult:
    rate: float
    ks_statistic: float
    sample_count: int
    mean: float
    std: float


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """One-sample KS critical value at level ``alpha`` for ``n`` samples."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    return KS_COEFFICIENTS[alpha] / np.sqrt(n)


def two_sample_ks_critical(n: int, m: int, alpha: float = 0.01) -> float:
    if n <= 0 or m <= 0:
        raise ValueError("sample counts must be positive")
    return KS_COEFFICIENTS[alpha] * np.sqrt((n + m) / (n * m))


def _ks_against_cdf(sorted_samples: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(sorted_samples)
    upper = np.arange(1, n + 1) / n - cdf_values
    lower = cdf_values - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def exponential_ks(samples: Sequence[float], rate: float) -> float:
    """One-sample KS distance between ``samples`` and Exp(rate)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    xs = np.sort(np.asarray(samples, dtype=float))
    return _ks_against_cdf(xs, 1.0 - np.exp(-rate * xs))


def uniform_ks(samples: Sequence[float]) -> float:
    """One-sample KS distance between ``samples`` and Uniform(0, 1)."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if len(xs) and (xs[0] < 0.0 or xs[-1] > 1.0):
        raise ValueError("samples must lie in [0, 1]")
    return _ks_against_cdf(xs, xs)


def two_sample_ks(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample KS distance between empirical CDFs."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if len(xa) == 0 or len(xb) == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / len(xa)
    fb = np.searchsorted(xb, grid, side="right") / len(xb)
    return float(np.abs(fa - fb).max())


def fit_exponential(samples: Sequence[float]) -> FitResult:
    """MLE exponential fit plus KS distance against the fitted law.

    Requires at least ``MIN_FIT_SAMPLES`` strictly positive samples.
    """
    xs = np.asarray(samples, dtype=float)
    if len(xs) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples, got {len(xs)}")
    if not (xs > 0).all():
        raise ValueError("samples must be strictly positive")
    mean = float(xs.mean())
    rate = 1.0 / mean
    return FitResult(
        rate=rate,
        ks_statistic=exponential_ks(xs, rate),
        sample_count=len(xs),
        mean=mean,
        std=float(xs.std()),
    )


def proportionality_score(
    power: Sequence[float],
    reward: Sequence[float],
    min_share: float = 0.03,
) -> float:
    """Worst relative deviation of reward share from power share.

    Participants below ``min_share`` of total power are too noisy to score
    and are skipped.  A perfectly proportional split scores 0.
    """
    if len(power) != len(reward):
        raise ValueError("power and reward vectors must have equal length")
    p = np.asarray(power, dtype=float)
    r = np.asarray(reward, dtype=float)
    if p.sum() <= 0 or r.sum() <= 0:
        raise ValueError("power and reward totals must be positive")
    p_share = p / p.sum()
    r_share = r / r.sum()
    worst = 0.0
    for ps, rs in zip(p_share, r_share):
        if ps >= min_share:
            worst = max(worst, abs(rs - ps) / ps)
    return worst


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial rate; ``z`` = 1.96 gives 95 %.

    Unlike the normal approximation it stays inside [0, 1] and keeps a
    non-zero width at 0 or ``trials`` successes, which is where decisive
    Monte Carlo attack rates land.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    if not (math.isfinite(z) and z > 0):
        raise ValueError("z must be positive and finite")
    p = successes / trials
    z2 = z * z / trials
    center = (p + z2 / 2) / (1 + z2)
    half = z / (1 + z2) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials))
    # At 0 or ``trials`` successes the bound is exactly 0 or 1; rounding
    # could leave it just inside.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high

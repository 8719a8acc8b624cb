"""KS machinery, exponential fitting, and reward proportionality scoring."""

import math

import numpy as np
import pytest

from powpos import stats


def test_ks_critical_values():
    assert stats.ks_critical(10_000) == pytest.approx(1.63 / 100.0)
    assert stats.ks_critical(400, alpha=0.05) == pytest.approx(1.36 / 20.0)
    assert stats.ks_critical(400, alpha=0.10) == pytest.approx(1.22 / 20.0)
    with pytest.raises(ValueError):
        stats.ks_critical(0)
    with pytest.raises(KeyError):
        stats.ks_critical(100, alpha=0.2)


def test_two_sample_ks_critical():
    n, m = 400, 100
    assert stats.two_sample_ks_critical(n, m) == pytest.approx(
        1.63 * math.sqrt((n + m) / (n * m))
    )
    with pytest.raises(ValueError):
        stats.two_sample_ks_critical(0, 10)


def test_uniform_ks_exact_small_case():
    # ECDF vs identity: both gaps are 0.25 for this pair.
    assert stats.uniform_ks([0.25, 0.75]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        stats.uniform_ks([-0.1, 0.5])
    with pytest.raises(ValueError):
        stats.uniform_ks([0.5, 1.1])


def test_uniform_ks_statistics():
    rng = np.random.default_rng(1)
    good = rng.random(20_000)
    assert stats.uniform_ks(good) < stats.ks_critical(len(good))
    skewed = good**2
    assert stats.uniform_ks(skewed) > 5 * stats.ks_critical(len(skewed))


def test_exponential_ks_detects_wrong_rate():
    rng = np.random.default_rng(2)
    samples = rng.exponential(scale=2.0, size=20_000)
    assert stats.exponential_ks(samples, 0.5) < stats.ks_critical(len(samples))
    assert stats.exponential_ks(samples, 1.0) > 5 * stats.ks_critical(len(samples))
    with pytest.raises(ValueError):
        stats.exponential_ks(samples, 0.0)


def test_two_sample_ks_bounds_and_symmetry():
    a = [1.0, 2.0, 3.0]
    assert stats.two_sample_ks(a, a) == 0.0
    assert stats.two_sample_ks(a, [10.0, 11.0]) == 1.0  # disjoint supports
    rng = np.random.default_rng(3)
    x = rng.exponential(2.0, 5000)
    y = rng.exponential(2.0, 3000)
    d = stats.two_sample_ks(x, y)
    assert d == stats.two_sample_ks(y, x)
    assert d < stats.two_sample_ks_critical(len(x), len(y))
    z = rng.exponential(2.6, 3000)
    assert stats.two_sample_ks(x, z) > stats.two_sample_ks_critical(len(x), len(z))
    with pytest.raises(ValueError):
        stats.two_sample_ks([], a)


def test_fit_exponential_recovers_rate():
    rng = np.random.default_rng(4)
    samples = rng.exponential(scale=20.0, size=50_000)
    fit = stats.fit_exponential(samples)
    assert fit.sample_count == 50_000
    assert fit.rate == pytest.approx(0.05, rel=0.02)
    assert fit.mean == pytest.approx(1.0 / fit.rate, rel=1e-12)
    assert abs(fit.std - fit.mean) / fit.mean < 0.02
    assert fit.ks_statistic < stats.ks_critical(fit.sample_count)


def test_fit_exponential_guards():
    with pytest.raises(ValueError, match="at least 30"):
        stats.fit_exponential([1.0] * 29)
    with pytest.raises(ValueError, match="strictly positive"):
        stats.fit_exponential([1.0] * 29 + [0.0])


def test_proportionality_score_exact():
    # Shares 0.6/0.3/0.1 vs 0.5/0.4/0.1: worst relative gap is 1/3.
    score = stats.proportionality_score([6.0, 3.0, 1.0], [5.0, 4.0, 1.0], min_share=0.03)
    assert score == pytest.approx(1.0 / 3.0)


def test_proportionality_score_skips_small_shares():
    power, reward = [97.0, 3.0], [99.0, 1.0]
    assert stats.proportionality_score(power, reward, min_share=0.03) == pytest.approx(
        (2.0 / 100.0) / 0.03
    )
    assert stats.proportionality_score(power, reward, min_share=0.05) == pytest.approx(
        (2.0 / 100.0) / 0.97
    )


def test_proportionality_score_perfect_and_errors():
    assert stats.proportionality_score([1.0, 2.0], [3.0, 6.0]) == 0.0
    with pytest.raises(ValueError):
        stats.proportionality_score([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        stats.proportionality_score([0.0, 0.0], [1.0, 1.0])


def test_wilson_interval_known_values():
    assert stats.wilson_interval(0, 200) == (0.0, pytest.approx(0.01885, abs=5e-6))
    low, high = stats.wilson_interval(200, 200)
    assert high == 1.0 and low == pytest.approx(1 - 0.01885, abs=5e-6)
    # 50/100 at 95 %: the textbook 0.4038-0.5962.
    assert stats.wilson_interval(50, 100) == (pytest.approx(0.4038, abs=5e-5),
                                              pytest.approx(0.5962, abs=5e-5))
    # A wider z widens the interval.
    assert stats.wilson_interval(5, 20, z=2.576)[0] < stats.wilson_interval(5, 20)[0]


def test_wilson_interval_bounds_and_errors():
    for trials in (1, 2, 7, 20, 50, 200, 10_000):
        for successes in [*range(0, trials, max(1, trials // 13)), trials]:
            low, high = stats.wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0
    for successes, trials in ((0, 0), (-1, 10), (11, 10)):
        with pytest.raises(ValueError):
            stats.wilson_interval(successes, trials)
    with pytest.raises(ValueError):
        stats.wilson_interval(1, 10, z=math.nan)

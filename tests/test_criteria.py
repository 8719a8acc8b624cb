"""Each acceptance criterion on synthetic input just inside and just outside
each of its thresholds, so that every clause is seen to fail."""

from dataclasses import replace

import numpy as np
import pytest

from powpos import criteria
from powpos.attacks import SplitStakeReport
from powpos.simnet import WARMUP_BLOCKS


def two_point(mean, std_ratio=1.0):
    """1,000 gaps alternating ``mean -/+ std``: that mean and std exactly."""
    return [mean * (1 - std_ratio), mean * (1 + std_ratio)] * 500


def weibull_quantiles(n, shape):
    """Evenly spaced quantiles of a unit Weibull law; shape 1 is the exponential."""
    u = (np.arange(n) + 0.5) / n
    return list((-np.log1p(-u)) ** (1.0 / shape))


@pytest.mark.parametrize("pow_blocks, passed", [(5049, True), (5050, False), (4950, False)])
def test_pow_pos_balance(quick_report, pow_blocks, passed):
    report = replace(quick_report, pow_blocks=pow_blocks, pos_blocks=10_000 - pow_blocks,
                     total_blocks=10_000)  # 0.98 %, then 1.00 % either way
    assert criteria.pow_pos_balance(report)[0] is passed


@pytest.mark.parametrize("cls, mean, std_ratio, passed", [
    ("all", 9.81, 1.0, True), ("all", 9.79, 1.0, False),
    ("all", 10.89, 1.0, True), ("all", 10.91, 1.0, False),
    ("pow", 19.71, 1.0, True), ("pow", 19.69, 1.0, False),
    ("pos", 21.79, 1.0, True), ("pos", 21.81, 1.0, False),
    ("pos", 20.0, 0.91, True), ("pos", 20.0, 0.89, False),
    ("all", 10.0, 1.09, True), ("all", 10.0, 1.11, False),
])
def test_interarrival_moments(cls, mean, std_ratio, passed):
    gaps = {"all": two_point(10.0), "pow": two_point(20.0), "pos": two_point(20.0)}
    gaps[cls] = two_point(mean, std_ratio)
    assert criteria.interarrival_moments(gaps)[0] is passed


@pytest.mark.parametrize("n, passed, pos", [
    (620, True, "pos 0.06458<0.06546"), (640, False, "pos 0.06455>=0.06443")])
def test_exponential_gaps(n, passed, pos):
    # Shape 1.2 sits a KS distance of about 0.0646 from its fitted
    # exponential at any n; the 1 % critical value 1.63/sqrt(n) falls past
    # it between n = 620 and n = 640.
    exponential = weibull_quantiles(1000, 1.0)
    verdict, detail = criteria.exponential_gaps(
        {"all": exponential, "pow": exponential, "pos": weibull_quantiles(n, 1.2)})
    assert verdict is passed and detail.endswith(pos)


EVEN, PAID = ((2, 1.0), (3, 1.0)), {0: 1.0, 1: 1.0}


@pytest.mark.parametrize("miners, rewards_pow, rewards_pos, passed", [
    (EVEN, {2: 1.049, 3: 0.951}, PAID, True),  # 4.9 % off
    (EVEN, {2: 1.051, 3: 0.949}, PAID, False),  # 5.1 % off
    (EVEN, {2: 1.0, 3: 1.0}, {0: 1.049, 1: 0.951}, True),
    (EVEN, {2: 1.0, 3: 1.0}, {0: 1.051, 1: 0.949}, False),
    # Miner 4 earns a third of its power share: skipped below a 3 % share.
    (((2, 48.55), (3, 48.55), (4, 2.9)), {2: 49.5, 3: 49.5, 4: 1.0}, PAID, True),
    (((2, 48.45), (3, 48.45), (4, 3.1)), {2: 49.5, 3: 49.5, 4: 1.0}, PAID, False),
    (EVEN, {2: 0.0, 3: 0.0}, PAID, False),  # an unrewarded class
])
def test_reward_proportionality(quick_report, miners, rewards_pow, rewards_pos, passed):
    config = replace(quick_report.config, stakers=((0, 1.0), (1, 1.0)), miners=miners)
    report = replace(quick_report, config=config, rewards_pow=rewards_pow,
                     rewards_pos=rewards_pos)
    assert criteria.reward_proportionality(report)[0] is passed


@pytest.mark.parametrize("ratio, band_w, band_s, passed", [
    (8.51, (0.71, 1.39), (0.71, 1.39), True),
    (11.49, (0.8, 1.2), (0.8, 1.2), True),
    (8.49, (0.8, 1.2), (0.8, 1.2), False),
    (11.51, (0.8, 1.2), (0.8, 1.2), False),
    (10.0, (0.69, 1.2), (0.8, 1.2), False),
    (10.0, (0.8, 1.41), (0.8, 1.2), False),
    (10.0, (0.8, 1.2), (0.69, 1.2), False),
    (10.0, (0.8, 1.2), (0.8, 1.41), False),
    (None, (0.8, 1.2), (0.8, 1.2), False),  # warm-up never ended
])
def test_difficulty_equilibrium(quick_report, ratio, band_w, band_s, passed):
    # Post-warm-up extremes at band_* times the equilibria; the warm-up's
    # values lie far outside and are skipped.
    d_w, d_s = quick_report.config.equilibrium_difficulties
    report = replace(quick_report, ratio_samples=[] if ratio is None else [ratio],
                     difficulty_trace_w=[1.0] * WARMUP_BLOCKS + [d_w * f for f in band_w],
                     difficulty_trace_s=[1.0] * WARMUP_BLOCKS + [d_s * f for f in band_s])
    assert criteria.difficulty_equilibrium(report)[0] is passed


@pytest.mark.parametrize("ks_two, ks_model, passed, detail", [
    (0.069, 0.049, True, "0.06900 < 0.07000 over 1000 rounds, model KS 0.04900 < 0.05000"),
    (0.071, 0.049, False, "0.07100 >= 0.07000 over 1000 rounds, model KS 0.04900 < 0.05000"),
    (0.069, 0.051, False, "0.06900 < 0.07000 over 1000 rounds, model KS 0.05100 >= 0.05000"),
])
def test_stake_splitting(ks_two, ks_model, passed, detail):
    nas = SplitStakeReport(
        rounds=1000, k_splits=5, ks_two_sample=ks_two, ks_two_sample_critical=0.07,
        ks_single_vs_model=0.0, ks_split_vs_model=ks_model, ks_model_critical=0.05,
        indistinguishable=ks_two < 0.07, single_mean=1.0, split_mean=1.0)
    assert criteria.stake_splitting(nas) == (passed, "two-sample KS " + detail)


def test_honest_negatives():
    assert criteria.honest_negatives([0] * 20) == (True, "evidence over 20 honest seeds: 0")
    assert criteria.honest_negatives([0]) == (True, "evidence over 1 honest seed: 0")
    assert criteria.honest_negatives([0, 1, 0]) == (False, "evidence over 3 honest seeds: 1")

"""Adversarial scenarios: double spends, long-range replays, withholding,
stake splitting, and the future-timestamp game."""

import dataclasses
import json
import math
import os
import random
import statistics
import warnings

import pytest

from powpos import attacks
from powpos.attacks import (
    AttackSetup,
    double_spend_feasible,
    double_spend_win_rate,
    lra_omega_bound,
    run_future_mining_game,
    run_long_range_attack,
    run_private_double_spend,
    run_selfish_mining,
    run_split_stake_nas,
    selfish_mining_comparison,
    selfish_mining_reference_share,
    write_attack_report,
)
from powpos.simnet import baseline_config
from powpos.slashing import StakerPolicy, run_public_double_spend


def make_setup(**overrides):
    base = dict(
        attacker_hash=8.0,
        attacker_stake=80.0,
        honest_hash=30.0,
        honest_stake=300.0,
        td_wc=1000.0,
        td_sc=10_000.0,
        horizon=3600.0,
    )
    base.update(overrides)
    return AttackSetup(**base)


class ScriptedRng:
    """Returns scripted delays and records the rate of every draw."""

    def __init__(self, delays):
        self.delays = list(delays)
        self.rates = []

    def expovariate(self, rate):
        self.rates.append(rate)
        return self.delays.pop(0)


# -- race kernel -----------------------------------------------------------


def test_race_kernel_ties_zero_rates_and_strict_horizon():
    # Round 1 ties at 1.5 (lowest index wins); round 2 lands exactly on the
    # horizon, which still fires; round 3 would pass it and ends the race.
    rng = ScriptedRng([1.5, 1.5, 4.0, 0.5, 1.0, 1.0])
    events = list(attacks._race(rng, [2.0, 0.0, 3.0], horizon=2.0))
    assert events == [(1.5, 0), (2.0, 2)]
    # The zero-rate stream never draws; the others draw once per round.
    assert rng.rates == [2.0, 3.0] * 3
    assert rng.delays == []
    assert list(attacks._race(ScriptedRng([]), [0.0, 0.0], horizon=100.0)) == []


def test_race_kernel_reads_rates_between_events():
    rng = ScriptedRng([0.5, 0.25, 1.0])
    rates = [1.0]
    race = attacks._race(rng, rates, horizon=5.0, now=4.0)
    assert next(race) == (4.5, 0)
    rates[0] = 7.0
    assert next(race) == (4.75, 0)
    assert list(race) == []
    assert rng.rates == [1.0, 7.0, 7.0]


# -- setup and feasibility -------------------------------------------------


def test_attack_setup_validation():
    with pytest.raises(ValueError, match="attacker_hash"):
        make_setup(attacker_hash=-1.0)
    with pytest.raises(ValueError, match="total hash"):
        make_setup(attacker_hash=0.0, honest_hash=0.0)
    with pytest.raises(ValueError, match="total stake"):
        make_setup(attacker_stake=0.0, honest_stake=0.0)
    with pytest.raises(ValueError, match="horizon"):
        make_setup(horizon=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    "attacker_hash", "attacker_stake", "honest_hash", "honest_stake",
    "td_wc", "td_sc", "horizon", "selfish", "selfish-config", "public",
])
def test_attack_lab_rejects_non_finite_inputs(entry, value):
    # A non-finite horizon never reaches the race's cut: the call would hang.
    with pytest.raises(ValueError, match="must be finite"):
        if entry == "selfish":
            run_selfish_mining(baseline_config(), 0.3, duration=value)
        elif entry == "selfish-config":
            run_selfish_mining(baseline_config(duration=value), 0.3)
        elif entry == "public":
            run_public_double_spend(baseline_config(), StakerPolicy.HONEST_ONLY,
                                    duration=value)
        else:
            make_setup(**{entry: value})


def test_double_spend_feasible_exact_arithmetic():
    setup = make_setup(
        attacker_hash=3.0, attacker_stake=2.0, honest_hash=1.0, honest_stake=1.0,
        td_wc=10.0, td_sc=5.0, horizon=7.0,
    )
    lhs, feasible = double_spend_feasible(setup)
    # td_sc (a - c) + td_wc (b - d) + (ab - cd) horizon
    assert lhs == pytest.approx(5.0 * 2.0 + 10.0 * 1.0 + 5.0 * 7.0)
    assert feasible


def test_double_spend_tie_is_infeasible():
    setup = make_setup(attacker_hash=30.0, attacker_stake=300.0)
    lhs, feasible = double_spend_feasible(setup)
    assert lhs == 0.0
    assert not feasible  # exact ties lose to the first-seen honest chain


# -- private double spend --------------------------------------------------


def test_private_double_spend_is_deterministic():
    config = baseline_config()
    setup = make_setup()
    a = run_private_double_spend(config, setup, rng_seed=11)
    b = run_private_double_spend(config, setup, rng_seed=11)
    c = run_private_double_spend(config, setup, rng_seed=12)
    assert a.final_attacker_product == b.final_attacker_product
    assert a.final_honest_product == b.final_honest_product
    assert a.max_product_ratio == b.max_product_ratio
    assert c.final_attacker_product != a.final_attacker_product
    assert a.meta["attack"] == "private_double_spend"
    assert a.meta["feasible"] == (a.meta["lhs"] > 0)


def test_private_double_spend_extremes():
    config = baseline_config()
    strong = make_setup(
        attacker_hash=34.0, attacker_stake=340.0, honest_hash=4.0, honest_stake=40.0
    )
    weak = make_setup(
        attacker_hash=4.0, attacker_stake=40.0, honest_hash=34.0, honest_stake=340.0
    )
    won = run_private_double_spend(config, strong, rng_seed=1)
    lost = run_private_double_spend(config, weak, rng_seed=1)
    assert won.attacker_won and won.crossing_time is not None
    assert won.max_product_ratio > 1.0
    assert not lost.attacker_won
    assert lost.final_attacker_product < lost.final_honest_product
    assert 0 < len(won.weight_trajectories) <= 2048
    times = [p[0] for p in won.weight_trajectories]
    assert times == sorted(times)


def test_private_double_spend_regression_pins():
    # Exact values for one seed, frozen and live difficulty; any drift in the
    # race kernel or the RNG layout shows up here.
    setup = make_setup(attacker_hash=20.0, attacker_stake=200.0,
                       honest_hash=18.0, honest_stake=180.0)
    pins = {
        False: (58102272000.0, 40159584000.0, 4.4352),
        True: (58112926070.23554, 40122429896.13559, 4.448576),
    }
    for live, (attacker, honest, ratio) in pins.items():
        outcome = run_private_double_spend(baseline_config(), setup, rng_seed=11,
                                           live_difficulty=live)
        assert outcome.final_attacker_product == pytest.approx(attacker, rel=1e-12)
        assert outcome.final_honest_product == pytest.approx(honest, rel=1e-12)
        assert outcome.crossing_time == pytest.approx(6.902330650517997, rel=1e-9)
        assert outcome.max_product_ratio == pytest.approx(ratio, rel=1e-9)
        assert outcome.attacker_won


def test_win_rate_grows_with_power():
    config = baseline_config()
    strong = make_setup(
        attacker_hash=26.6, attacker_stake=266.0, honest_hash=11.4,
        honest_stake=114.0, horizon=1200.0,
    )
    weak = make_setup(
        attacker_hash=11.4, attacker_stake=114.0, honest_hash=26.6,
        honest_stake=266.0, horizon=1200.0,
    )
    rate_strong, outcomes = double_spend_win_rate(config, strong, trials=30, rng_seed=3)
    rate_weak, _ = double_spend_win_rate(config, weak, trials=30, rng_seed=3)
    assert len(outcomes) == 30
    assert rate_strong > rate_weak
    assert rate_strong >= 0.9
    assert rate_weak <= 0.1
    with pytest.raises(ValueError):
        double_spend_win_rate(config, weak, trials=0)


# -- frozen-difficulty win rate: the Poisson-count kernel -------------------


def test_win_rate_is_seeded():
    config = baseline_config()
    setup = make_setup(horizon=600.0)
    rate, outcomes = double_spend_win_rate(config, setup, trials=100, rng_seed=5)
    again, repeat = double_spend_win_rate(config, setup, trials=100, rng_seed=5)
    _, other = double_spend_win_rate(config, setup, trials=100, rng_seed=6)
    assert rate == again
    assert [dataclasses.asdict(o) for o in outcomes] == [dataclasses.asdict(o) for o in repeat]
    assert [o.meta["blocks"] for o in other] != [o.meta["blocks"] for o in outcomes]
    assert rate == sum(o.attacker_won for o in outcomes) / 100
    for outcome in outcomes:
        assert outcome.crossing_time is None and outcome.weight_trajectories == []
        assert outcome.meta["attack"] == "private_double_spend"
        assert outcome.meta["live_difficulty"] is False


def test_win_rate_stakeless_attacker_forges_no_pos():
    setup = make_setup(attacker_stake=0.0)
    rate, outcomes = double_spend_win_rate(baseline_config(), setup, trials=300, rng_seed=2)
    assert all(o.meta["blocks"][1] == 0 for o in outcomes)
    assert any(o.meta["blocks"][0] > 0 for o in outcomes)
    for o in outcomes:
        n_w = o.meta["blocks"][0]
        assert o.final_attacker_product == (setup.td_wc + n_w * o.meta["d_w"]) * setup.td_sc
    assert rate == 0.0


def test_win_rate_tie_at_a_near_zero_horizon_loses():
    rate, outcomes = double_spend_win_rate(
        baseline_config(), make_setup(horizon=1e-9), trials=200, rng_seed=1)
    assert rate == 0.0
    assert all(o.final_attacker_product == o.final_honest_product == 1e7
               for o in outcomes)
    assert all(o.max_product_ratio == 1.0 for o in outcomes)


def test_win_rate_zero_honest_product_gives_infinite_ratio():
    # No honest hash and no fork-point work: the honest td_w stays 0.
    setup = make_setup(honest_hash=0.0, td_wc=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate, outcomes = double_spend_win_rate(baseline_config(), setup, trials=50)
    assert all(o.final_honest_product == 0.0 for o in outcomes)
    assert all(o.max_product_ratio == math.inf for o in outcomes)
    assert rate == sum(o.final_attacker_product > 0 for o in outcomes) / 50


@pytest.mark.parametrize("setup", [
    AttackSetup(12.0, 250.0, 30.0, 150.0, td_wc=5000.0, td_sc=2000.0, horizon=400.0),
    AttackSetup(10.0, 300.0, 30.0, 100.0, td_wc=100.0, td_sc=20_000.0, horizon=300.0),
], ids=["hash-heavy-fork-point", "stake-heavy-fork-point"])
def test_win_rate_matches_the_frozen_event_loop(setup):
    # Per-kind block counts and the win rate of the Poisson-count kernel
    # against the frozen-difficulty event loop, each over 3000 races.
    trials = 3000
    config = baseline_config()
    d_w, d_s = attacks._race_difficulties(setup, config.t)
    rng = random.Random(1)
    loop_counts, loop_wins = [], 0
    for _ in range(trials):
        sides = []
        for hash_power, stake in ((setup.attacker_hash, setup.attacker_stake),
                                  (setup.honest_hash, setup.honest_stake)):
            side = attacks._ChainGrowth(setup.td_wc, setup.td_sc, d_w, d_s,
                                        hash_power, stake)
            side.run(setup.horizon, rng)
            sides.append(side)
        loop_wins += sides[0].product > sides[1].product
        # In the kernel's order: attacker PoW, attacker PoS, honest PoW, honest PoS.
        loop_counts.append([count for side in sides for count in (
            round((side.weights[0] - setup.td_wc) / d_w),
            round((side.weights[1] - setup.td_sc) / d_s))])
    rate, outcomes = double_spend_win_rate(config, setup, trials=trials, rng_seed=1)
    for column in range(4):
        ours = [o.meta["blocks"][column] for o in outcomes]
        theirs = [row[column] for row in loop_counts]
        sigma = math.sqrt((statistics.pvariance(ours) + statistics.pvariance(theirs)) / trials)
        assert abs(statistics.fmean(ours) - statistics.fmean(theirs)) <= 4 * sigma
    pooled = (rate + loop_wins / trials) / 2
    sigma = math.sqrt(pooled * (1 - pooled) * 2 / trials)
    assert 0 < pooled < 1
    assert abs(rate - loop_wins / trials) <= 4 * sigma


# -- long-range replay -----------------------------------------------------


def test_lra_omega_bound_arithmetic():
    assert lra_omega_bound(100, 50, 740.0) == pytest.approx(1480.0)
    assert lra_omega_bound(0, 50, 740.0) == 0.0
    with pytest.raises(ValueError):
        lra_omega_bound(100, 0, 740.0)
    with pytest.raises(ValueError):
        lra_omega_bound(-1, 50, 740.0)


def test_long_range_replay_never_beats_final_weight(quick_report):
    config = quick_report.config
    depth = quick_report.total_blocks // 2
    for seed in range(6):
        outcome = run_long_range_attack(
            config, depth, attacker_stake_share=1.0, rng_seed=seed,
            report=quick_report,
        )
        assert not outcome.attacker_won
        assert outcome.final_attacker_product < outcome.final_honest_product
        assert outcome.max_product_ratio < 1.0
        assert outcome.meta["blocks_forged"] > 0
        assert outcome.meta["omega_bound"] > 0


def test_long_range_depth_zero_is_a_stake_only_race(quick_report):
    outcome = run_long_range_attack(
        quick_report.config, 0, attacker_stake_share=1.0, rng_seed=5,
        report=quick_report,
    )
    assert outcome.meta["attack"] == "long_range"
    assert outcome.meta["depth"] == 0
    assert not outcome.attacker_won


def test_long_range_regression_pins(quick_report):
    # Exact replays at half depth on the quick chain; the replay's live
    # difficulty controller and horizon cut both show up in these numbers.
    depth = quick_report.total_blocks // 2
    pins = {0: (912, 0.19543191930284515), 1: (876, 0.19695942341415684),
            2: (916, 0.18095182185196254)}
    for seed, (forged, ratio) in pins.items():
        outcome = run_long_range_attack(
            quick_report.config, depth, attacker_stake_share=1.0, rng_seed=seed,
            report=quick_report,
        )
        assert outcome.meta["blocks_forged"] == forged
        assert outcome.max_product_ratio == pytest.approx(ratio, rel=1e-9)


def test_long_range_input_validation(quick_report):
    config = quick_report.config
    with pytest.raises(ValueError, match="attacker_stake_share"):
        run_long_range_attack(config, 1, 1.5, report=quick_report)
    with pytest.raises(ValueError, match="depth"):
        run_long_range_attack(config, -1, 0.5, report=quick_report)
    with pytest.raises(ValueError, match="exceeds chain length"):
        run_long_range_attack(
            config, quick_report.total_blocks + 10, 0.5, report=quick_report
        )


# -- selfish mining --------------------------------------------------------


def test_reference_share_closed_form_values():
    assert selfish_mining_reference_share(0.0) == 0.0
    assert selfish_mining_reference_share(1.0 / 3.0) == pytest.approx(1.0 / 3.0)
    assert selfish_mining_reference_share(0.45) == pytest.approx(0.6518, abs=2e-4)
    # Honest hashrate siding with the attacker only helps the attacker.
    assert selfish_mining_reference_share(0.3, 0.5) > selfish_mining_reference_share(0.3, 0.0)
    assert selfish_mining_reference_share(0.2, 1.0) > 0.2
    with pytest.raises(ValueError):
        selfish_mining_reference_share(0.5)
    with pytest.raises(ValueError):
        selfish_mining_reference_share(0.3, gamma=1.5)


def test_stakerless_control_matches_closed_form():
    config = baseline_config(stakers=())
    report = run_selfish_mining(config, 0.4, rng_seed=7, duration=2_000_000.0)
    expected = selfish_mining_reference_share(0.4)
    assert report.revenue_share == pytest.approx(expected, abs=0.02)
    assert report.honest_canonical_pos == 0
    assert report.pos_interleave_losses == 0


def test_stakerless_control_with_sympathetic_hashrate():
    config = baseline_config(stakers=())
    report = run_selfish_mining(config, 0.35, rng_seed=3, duration=500_000.0, gamma=1.0)
    expected = selfish_mining_reference_share(0.35, gamma=1.0)
    assert report.revenue_share == pytest.approx(expected, abs=0.04)


def test_selfish_mining_regression_pins():
    # Exact values for two shares on a fixed seed; any drift in the event
    # loop or RNG layout shows up here first.
    config = baseline_config()
    pair_third = selfish_mining_comparison(config, 1.0 / 3.0, rng_seed=42,
                                           duration=200_000.0)
    pair_forty = selfish_mining_comparison(config, 0.4, rng_seed=42,
                                           duration=200_000.0)
    assert pair_third["hybrid"].revenue_share == pytest.approx(
        0.24535271687321258, rel=1e-9
    )
    assert pair_third["pow_only"].revenue_share == pytest.approx(
        0.3493710284009856, rel=1e-9
    )
    assert pair_forty["hybrid"].revenue_share == pytest.approx(
        0.29511254819052357, rel=1e-9
    )
    assert pair_forty["pow_only"].revenue_share == pytest.approx(
        0.5072714182865371, rel=1e-9
    )


def test_staker_presence_suppresses_withholding():
    config = baseline_config()
    for share in (1.0 / 3.0, 0.4):
        pair = selfish_mining_comparison(config, share, rng_seed=42, duration=200_000.0)
        hybrid, control = pair["hybrid"], pair["pow_only"]
        assert hybrid.revenue_share < control.revenue_share
        assert hybrid.pos_interleave_losses > 0
        assert hybrid.honest_canonical_pos > 0
        assert hybrid.meta["stake"] == 380.0


def test_selfish_mining_input_validation():
    config = baseline_config()
    with pytest.raises(ValueError):
        run_selfish_mining(config, 1.5)
    with pytest.raises(ValueError):
        run_selfish_mining(config, 0.3, gamma=-0.1)
    with pytest.raises(ValueError, match="miners"):
        run_selfish_mining(baseline_config(miners=()), 0.3)


# -- split-stake eligibility invariance ------------------------------------


def test_split_stake_delays_are_indistinguishable():
    report = run_split_stake_nas(baseline_config(), k_splits=4, rounds=30_000,
                                 rng_seed=3)
    assert report.indistinguishable
    assert report.ks_two_sample < report.ks_two_sample_critical
    assert report.ks_single_vs_model < report.ks_model_critical
    assert report.ks_split_vs_model < report.ks_model_critical
    # Both means sit at d_s / V = 7600 / 160.
    assert report.single_mean == pytest.approx(47.5, rel=0.02)
    assert report.split_mean == pytest.approx(47.5, rel=0.02)


def test_split_stake_uneven_weights_change_nothing():
    report = run_split_stake_nas(
        baseline_config(), k_splits=3, rounds=30_000,
        split_weights=[80.0, 40.0, 40.0], rng_seed=4,
    )
    assert report.indistinguishable
    assert report.split_mean == pytest.approx(report.single_mean, rel=0.05)


def test_split_stake_input_validation():
    config = baseline_config()
    with pytest.raises(ValueError):
        run_split_stake_nas(config, k_splits=0)
    with pytest.raises(ValueError, match="k positive values"):
        run_split_stake_nas(config, k_splits=2, rounds=10, split_weights=[160.0])
    with pytest.raises(ValueError, match="sum to the staker's power"):
        run_split_stake_nas(config, k_splits=2, rounds=10, split_weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="staker"):
        run_split_stake_nas(baseline_config(stakers=()), k_splits=2, rounds=10)


# -- future-timestamp game -------------------------------------------------


def test_future_mining_game_weights_balance():
    transcript = run_future_mining_game(baseline_config())
    assert transcript.all_checks_pass
    assert transcript.t_x < min(transcript.t_a, transcript.t_b)
    assert transcript.t_b > transcript.t_x + baseline_config().t_future
    terms = transcript.weight_terms
    assert terms["W(chain_c)@t_a"] == pytest.approx(terms["W(chain_d)@t_a"])
    assert terms["additive_gap@t_x"] == pytest.approx(terms["d_s"])
    assert transcript.checks["seed_conflict_blocks_reparent"]


# -- reporting -------------------------------------------------------------


def test_attack_report_writer(tmp_path):
    outcome = run_private_double_spend(baseline_config(), make_setup(), rng_seed=2)
    payload = dataclasses.asdict(outcome) | {"weight_trajectories": None}
    outdir = str(tmp_path / "attack")
    paths = write_attack_report(outdir, payload, outcome.weight_trajectories)
    assert [os.path.basename(p) for p in paths] == ["attack_report.json", "trajectories.csv"]
    with open(paths[0], encoding="utf-8") as fh:
        assert json.load(fh) == json.loads(json.dumps(payload))
    with pytest.raises(FileExistsError):
        write_attack_report(outdir, payload)
    write_attack_report(outdir, payload, force=True)

"""Misbehavior detectors, dunkle settlements, and the public fork game."""

import json

import pytest

import powpos
from powpos.simnet import baseline_config, quick_config
from powpos.slashing import (
    EvidenceKind,
    StakerPolicy,
    detect_all,
    detect_double_production,
    detect_weight_timestamp_violation,
    dunkle_n_bound,
    dunkle_settlement,
    load_rows,
    public_double_spend_win_rate,
    run_public_double_spend,
    split_canonical,
)


def row(id, parent, kind, producer, timestamp, height, td_w, td_s):
    return {
        "id": id, "parent": parent, "kind": kind, "difficulty": 1.0,
        "timestamp": timestamp, "height": height, "producer": producer,
        "td_w": td_w, "td_s": td_s,
    }


# -- detectors -------------------------------------------------------------


def test_double_production_detector_on_constructed_rows():
    rows = [
        row("g", None, "genesis", -1, 0.0, 0, 1.0, 1.0),
        row("p1", "g", "pos", 5, 10.0, 1, 1.0, 8.0),
        row("p2", "g", "pos", 5, 11.0, 1, 1.0, 8.0),  # same staker, same height
        row("p3", "g", "pos", 6, 12.0, 1, 1.0, 8.0),  # different staker is fine
        row("p4", "p1", "pos", 5, 30.0, 2, 1.0, 15.0),  # next height is fine
    ]
    evidence = detect_double_production(rows)
    assert len(evidence) == 1
    e = evidence[0]
    assert e.kind is EvidenceKind.DOUBLE_PRODUCTION
    assert e.staker == 5
    assert e.blocks == ("p1", "p2")
    assert e.details == {"height": 1, "block_ids": ["p1", "p2"]}


def test_double_production_groups_three_blocks_into_one_evidence():
    rows = [
        row("g", None, "genesis", -1, 0.0, 0, 1.0, 1.0),
        row("a", "g", "pos", 9, 1.0, 1, 1.0, 2.0),
        row("b", "g", "pos", 9, 2.0, 1, 1.0, 2.0),
        row("c", "g", "pos", 9, 3.0, 1, 1.0, 2.0),
    ]
    evidence = detect_double_production(rows)
    assert len(evidence) == 1
    assert evidence[0].details["block_ids"] == ["a", "b", "c"]


def test_weight_timestamp_detector_flags_lighter_later_extension():
    rows = [
        row("g", None, "genesis", -1, 0.0, 0, 1.0, 1.0),
        row("a", "g", "pow", 1, 5.0, 1, 21.0, 1.0),   # product 21
        row("b", "g", "pow", 2, 6.0, 1, 11.0, 1.0),   # lighter side branch
        row("p1", "a", "pos", 7, 30.0, 2, 21.0, 9.0),
        row("p2", "b", "pos", 7, 40.0, 2, 11.0, 9.0),  # later, on lighter parent
    ]
    evidence = detect_weight_timestamp_violation(rows)
    assert len(evidence) == 1
    e = evidence[0]
    assert e.kind is EvidenceKind.WEIGHT_TIMESTAMP
    assert e.staker == 7
    assert e.blocks == ("p1", "p2")
    assert e.details == {"w1": 21.0, "t1": 30.0, "w2": 11.0, "t2": 40.0}


def test_weight_timestamp_detector_accepts_heavier_chains():
    rows = [
        row("g", None, "genesis", -1, 0.0, 0, 1.0, 1.0),
        row("a", "g", "pow", 1, 5.0, 1, 21.0, 1.0),
        row("p1", "g", "pos", 7, 10.0, 1, 1.0, 9.0),    # parent product 1
        row("p2", "a", "pos", 7, 30.0, 2, 21.0, 9.0),   # parent product 21: fine
    ]
    assert detect_weight_timestamp_violation(rows) == []
    # Extending an equal-weight parent later is still a violation.
    rows.append(row("b", "g", "pow", 2, 6.0, 1, 21.0, 1.0))
    rows.append(row("p3", "b", "pos", 7, 50.0, 2, 21.0, 9.0))
    evidence = detect_weight_timestamp_violation(rows)
    assert [e.blocks for e in evidence] == [("p2", "p3")]


def test_honest_run_produces_no_evidence(quick_report):
    rows = list(quick_report.tree.dump_rows())
    assert detect_all(rows) == []


# -- settlement ------------------------------------------------------------


FORK_ROWS = [
    row("g", None, "genesis", -1, 0.0, 0, 1.0, 1.0),
    row("a1", "g", "pos", 1, 10.0, 1, 1.0, 10.0),
    row("a2", "a1", "pow", 3, 20.0, 2, 20.0, 10.0),   # product 200: canonical tip
    row("b1", "g", "pos", 2, 11.0, 1, 1.0, 10.0),     # product 10: side leaf
]


def test_split_canonical_walks_back_from_heaviest_leaf():
    canonical, side = split_canonical(FORK_ROWS)
    assert [r["id"] for r in canonical] == ["g", "a1", "a2"]
    assert [r["id"] for r in side] == ["b1"]
    assert split_canonical([]) == ([], [])
    # Settled over the split: b1's producer pays n*R.
    assert dunkle_settlement(canonical, side, reward=1.0, n=3.0) == {1: 1.0, 2: -3.0}


def test_split_canonical_breaks_ties_first_seen():
    rows = [
        row("g", None, "genesis", -1, 0.0, 0, 1.0, 1.0),
        row("x", "g", "pos", 1, 5.0, 1, 1.0, 11.0),
        row("y", "g", "pos", 2, 6.0, 1, 1.0, 11.0),  # equal product, seen later
    ]
    canonical, side = split_canonical(rows)
    assert [r["id"] for r in canonical] == ["g", "x"]
    assert [r["id"] for r in side] == ["y"]


def test_dunkle_settlement_exact_arithmetic():
    canonical = [
        row("c1", None, "pos", 1, 0.0, 1, 1.0, 1.0),
        row("c2", None, "pos", 1, 0.0, 2, 1.0, 1.0),
        row("c3", None, "pos", 1, 0.0, 3, 1.0, 1.0),
        row("c4", None, "pow", 9, 0.0, 4, 1.0, 1.0),  # mining is out of scope
    ]
    side = [
        row("s1", None, "pos", 1, 0.0, 1, 1.0, 1.0),
        row("s2", None, "pos", 2, 0.0, 1, 1.0, 1.0),
        row("s3", None, "pos", 2, 0.0, 2, 1.0, 1.0),
    ]
    net = dunkle_settlement(canonical, side, reward=2.0, n=4.0)
    assert net == {1: 3 * 2.0 - 4.0 * 2.0, 2: -2 * 4.0 * 2.0}
    with pytest.raises(ValueError):
        dunkle_settlement(canonical, side, reward=2.0, n=0.0)


def test_dunkle_n_bound_values_and_domain():
    assert dunkle_n_bound(0.5) == pytest.approx(1.0)
    assert dunkle_n_bound(0.1013) == pytest.approx(8.8717, abs=1e-3)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            dunkle_n_bound(bad)


def test_engine_dunkle_mode_on_honest_run_is_pure_reward():
    report = powpos.run(quick_config(duration=1800.0, slashing="dunkle:2"))
    assert report.evidence == []
    assert report.dunkle_net is not None
    assert all(v > 0 for v in report.dunkle_net.values())
    assert report.dunkle_net == pytest.approx(
        {a: v for a, v in report.rewards_pos.items() if v > 0}
    )


# -- public double spend ---------------------------------------------------


def test_staker_policy_decides_the_public_fork():
    config = baseline_config()
    honest = run_public_double_spend(
        config, StakerPolicy.HONEST_ONLY, 0.6, rng_seed=1, duration=200_000.0
    )
    both = run_public_double_spend(
        config, StakerPolicy.SUPPORT_BOTH, 0.6, rng_seed=1, duration=200_000.0
    )
    follow = run_public_double_spend(
        config, StakerPolicy.FOLLOW_HASH_POWER, 0.6, rng_seed=1, duration=200_000.0
    )
    assert not honest.attacker_won
    assert honest.pos_on_attacker == 0
    assert both.attacker_won
    assert both.pos_on_attacker == both.pos_on_honest
    assert follow.attacker_won
    assert honest.final_honest_product > honest.final_attacker_product


def test_public_double_spend_regression_pins():
    # Exact counts, products and settlements per policy on one seed; the
    # three streams (attacker PoW, honest PoW, PoS) share one draw sequence.
    config = baseline_config()
    stake_weighted = {0: 480.0, 1: 167.0, 2: 80.0, 3: 60.0, 4: 40.0}
    stake_weighted.update({account: 20.0 for account in range(5, 10)})
    pins = {
        StakerPolicy.SUPPORT_BOTH: (3212618701201.0, 1948991449841.0, 927, 927,
                                    {a: -v for a, v in stake_weighted.items()}),
        StakerPolicy.HONEST_ONLY: (456001.0, 1948991449841.0, 0, 927, stake_weighted),
        StakerPolicy.FOLLOW_HASH_POWER: (3191825055601.0, 12615106241.0, 921, 6,
                                         {**stake_weighted, 0: 462.0}),
    }
    for policy, (attacker, honest, pos_att, pos_hon, net) in pins.items():
        outcome = run_public_double_spend(config, policy, 0.6, rng_seed=3,
                                          duration=20_000.0, dunkle_n=2.0)
        assert (outcome.attacker_pow, outcome.honest_pow) == (600, 364)
        assert (outcome.pos_on_attacker, outcome.pos_on_honest) == (pos_att, pos_hon)
        assert outcome.final_attacker_product == attacker
        assert outcome.final_honest_product == honest
        assert outcome.crossing_time == pytest.approx(9.594935153354523, rel=1e-9)
        assert outcome.dunkle_net == net


def test_public_fork_win_rates_are_decisive():
    config = baseline_config()
    rate_honest, outcomes = public_double_spend_win_rate(
        config, StakerPolicy.HONEST_ONLY, 0.6, trials=20, duration=100_000.0
    )
    rate_both, _ = public_double_spend_win_rate(
        config, StakerPolicy.SUPPORT_BOTH, 0.6, trials=20, duration=100_000.0
    )
    assert rate_honest == 0.0
    assert rate_both == 1.0
    assert len(outcomes) == 20
    with pytest.raises(ValueError):
        public_double_spend_win_rate(config, StakerPolicy.HONEST_ONLY, trials=0)


def test_support_both_settlement_is_a_net_loss_for_stakers():
    config = baseline_config()
    outcome = run_public_double_spend(
        config, StakerPolicy.SUPPORT_BOTH, 0.6, rng_seed=2,
        duration=100_000.0, dunkle_n=4.0,
    )
    assert outcome.attacker_won
    net = outcome.dunkle_net
    assert net and all(v < 0 for v in net.values())
    # Support-both signs every slot twice, so each account nets c*R*(1 - n).
    expected_total = (1.0 - 4.0) * config.block_reward * outcome.pos_on_honest
    assert sum(net.values()) == pytest.approx(expected_total)


def test_honest_only_settlement_never_penalizes(quick_report):
    config = baseline_config()
    outcome = run_public_double_spend(
        config, StakerPolicy.HONEST_ONLY, 0.6, rng_seed=2,
        duration=100_000.0, dunkle_n=4.0,
    )
    assert not outcome.attacker_won
    assert outcome.dunkle_net
    assert all(v >= 0 for v in outcome.dunkle_net.values())


def test_public_double_spend_validation():
    config = baseline_config()
    with pytest.raises(ValueError):
        run_public_double_spend(config, StakerPolicy.HONEST_ONLY, 1.2)
    with pytest.raises(ValueError, match="miners"):
        run_public_double_spend(baseline_config(miners=()), StakerPolicy.HONEST_ONLY)
    for dunkle_n in (0.0, -1.0):
        with pytest.raises(ValueError, match="penalty multiple n must be positive"):
            run_public_double_spend(config, StakerPolicy.HONEST_ONLY, duration=1_000.0,
                                    dunkle_n=dunkle_n)


# -- serialization ---------------------------------------------------------


def test_load_rows_reads_jsonl(tmp_path):
    path = tmp_path / "blocks.jsonl"
    path.write_text(json.dumps(FORK_ROWS[0]) + "\n\n" + json.dumps(FORK_ROWS[1]) + "\n")
    rows = load_rows(str(path))
    assert [r["id"] for r in rows] == ["g", "a1"]


@pytest.mark.parametrize("lines", [
    [FORK_ROWS[0], FORK_ROWS[0]],                     # id seen before
    [FORK_ROWS[1], FORK_ROWS[0]],                     # child before parent
    [FORK_ROWS[0], dict(FORK_ROWS[1], parent=["g"])],  # parent not an id
    [FORK_ROWS[0], dict(FORK_ROWS[1], id=7)],          # id not a string
    [{k: v for k, v in FORK_ROWS[0].items() if k != "td_s"}],
    ["g"],
])
def test_load_rows_rejects_rows_a_dump_cannot_hold(tmp_path, lines):
    path = tmp_path / "blocks.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(ValueError, match="line"):
        load_rows(str(path))

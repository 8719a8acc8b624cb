"""Config parsing, the event-driven run loop, and report artifacts."""

import csv
import hashlib
import heapq
import json
import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import powpos
from powpos import criteria, forging, simnet, stats
from powpos.simnet import (
    ConfigError,
    LatencyModel,
    SimConfig,
    baseline_config,
    canonical_series,
    interarrival_summary,
    orphan_proxy,
    parse_config_file,
    poisson_collision_fraction,
    quick_config,
    write_artifacts,
)


# -- configuration ---------------------------------------------------------


def test_baseline_participant_totals():
    config = baseline_config()
    assert config.total_hash == 38.0
    assert config.total_stake == 380.0
    assert config.equilibrium_difficulties == (760.0, 7600.0)
    assert len(config.miners) == len(config.stakers) == 10
    assert config.duration == 30 * 86400.0


def test_quick_config_only_shortens_duration():
    quick = quick_config()
    base = baseline_config()
    assert quick.duration == 6 * 3600.0
    assert quick == baseline_config(duration=quick.duration)
    assert quick_config(duration=60.0).duration == 60.0
    assert base.difficulty_params.target_gap == 2.0 * base.t


def test_validate_collects_all_problems():
    config = SimConfig(t=-1.0, duration=0.0, stakers=((1, 5.0), (1, 3.0)))
    with pytest.raises(ConfigError) as err:
        config.validate()
    message = str(err.value)
    assert "t must be positive" in message
    assert "duration must be positive" in message
    assert "accounts must be unique" in message


def test_validate_rejects_bad_slashing_specs():
    with pytest.raises(ConfigError, match="unknown slashing mode"):
        baseline_config(slashing="sometimes").validate()
    with pytest.raises(ConfigError, match="dunkle:N"):
        baseline_config(slashing="dunkle").validate()
    with pytest.raises(ConfigError, match="dunkle:N"):
        baseline_config(slashing="dunkle:-2").validate()
    baseline_config(slashing="dunkle:4").validate()
    baseline_config(slashing="evidence").validate()


NON_FINITE_OR_ZERO_DUNKLE = {
    "t-nan": {"t": math.nan},
    "alpha-nan": {"alpha": math.nan},
    "duration-inf": {"duration": math.inf},
    "t_future-nan": {"t_future": math.nan},
    "block_reward-inf": {"block_reward": math.inf},
    "d_min-inf": {"d_min": math.inf},
    "stake-nan": {"stakers": ((0, math.nan),)},
    "hash-inf": {"miners": ((10, math.inf),)},
    "fixed-nan": {"latency": LatencyModel.parse("fixed:nan")},
    "fixed-inf": {"latency": LatencyModel.parse("fixed:inf")},
    "uniform-inf": {"latency": LatencyModel.parse("uniform:0:inf")},
    "dunkle-0": {"slashing": "dunkle:0"},
    "dunkle-inf": {"slashing": "dunkle:inf"},
    "dunkle-nan": {"slashing": "dunkle:nan"},
}


@pytest.mark.parametrize("overrides", list(NON_FINITE_OR_ZERO_DUNKLE.values()),
                         ids=list(NON_FINITE_OR_ZERO_DUNKLE))
def test_validate_rejects_non_finite_values_and_zero_dunkle(overrides):
    with pytest.raises(ConfigError):
        baseline_config(**overrides).validate()


def test_latency_model_parse_and_spec_round_trip():
    for spec, model in [
        ("perfect", LatencyModel.perfect()),
        ("fixed:2", LatencyModel.fixed(2.0)),
        ("uniform:0.5:3", LatencyModel.uniform(0.5, 3.0)),
    ]:
        parsed = LatencyModel.parse(spec)
        assert parsed == model
        assert LatencyModel.parse(parsed.spec_string()) == parsed
    for bad in ["sometimes", "fixed", "fixed:a", "uniform:1", "perfect:0"]:
        with pytest.raises(ConfigError):
            LatencyModel.parse(bad)
    with pytest.raises(ConfigError):
        LatencyModel.uniform(3.0, 1.0).validate()


def test_latency_model_sampling():
    import random

    rng = random.Random(1)
    assert LatencyModel.perfect().sample(rng) == 0.0
    assert LatencyModel.fixed(2.5).sample(rng) == 2.5
    draws = [LatencyModel.uniform(1.0, 4.0).sample(rng) for _ in range(200)]
    assert all(1.0 <= d <= 4.0 for d in draws)
    assert min(draws) < 2.0 < max(draws)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# comment line
t = 5.0          # trailing comment
duration = 1200
stakers = 100 50:7.5
miners = 2 1
latency = uniform:0.1:0.9
slashing = evidence
rng_seed = 9
"""
    )
    config = parse_config_file(str(path))
    assert config.t == 5.0
    assert config.duration == 1200.0
    assert config.stakers == ((0, 100.0), (50, 7.5))
    # Miner accounts continue after the highest staker account.
    assert config.miners == ((51, 2.0), (52, 1.0))
    assert config.latency == LatencyModel.uniform(0.1, 0.9)
    assert config.slashing == "evidence"
    assert config.rng_seed == 9


def test_parse_config_file_errors(tmp_path):
    cases = {
        "unknown.cfg": ("mystery = 1\nminers = 1\n", "unknown config key"),
        "dup.cfg": ("t = 5\nt = 6\nminers = 1\n", "duplicate key"),
        "noeq.cfg": ("t 5\n", "expected key = value"),
        "badval.cfg": ("t = fast\nminers = 1\n", "bad value"),
    }
    for name, (text, match) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            parse_config_file(str(p))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "absent.cfg"))


# -- run loop invariants ---------------------------------------------------


def test_perfect_latency_run_has_no_orphans(quick_report):
    r = quick_report
    assert r.orphan_count == 0
    assert r.stored_blocks == r.total_blocks
    assert r.canonical_height == r.total_blocks
    assert r.pow_blocks + r.pos_blocks == r.total_blocks
    assert r.pow_blocks > 0 and r.pos_blocks > 0


def test_rewards_account_for_every_canonical_block(quick_report):
    r = quick_report
    reward = r.config.block_reward
    assert sum(r.rewards_pow.values()) == pytest.approx(r.pow_blocks * reward)
    assert sum(r.rewards_pos.values()) == pytest.approx(r.pos_blocks * reward)
    assert set(r.rewards_pow) == {a for a, _ in r.config.miners}
    assert set(r.rewards_pos) == {a for a, _ in r.config.stakers}
    assert sum(r.rewards.values()) == pytest.approx(r.total_blocks * reward)


def test_ledger_snapshot_holds_stakes_plus_rewards(quick_report):
    r = quick_report
    snap = r.ledger_snapshot
    total = sum(
        acct["liquid"]
        + acct["active"]
        + sum(a for a, _ in acct["maturing"])
        + sum(a for a, _ in acct["withdrawing"])
        for acct in snap.values()
    )
    expected = r.config.total_stake + r.total_blocks * r.config.block_reward
    assert total == pytest.approx(expected)
    # Genesis stake stays active; rewards stay liquid.
    assert snap["0"]["active"] == 160.0
    assert snap["0"]["liquid"] == pytest.approx(r.rewards_pos.get(0, 0.0))


def test_interarrival_and_histogram_consistency(quick_report):
    r = quick_report
    assert len(r.interarrival_all) == r.total_blocks - 1
    assert len(r.interarrival_pow) == r.pow_blocks - 1
    assert len(r.interarrival_pos) == r.pos_blocks - 1
    assert all(g >= 0 for g in r.interarrival_all)
    # seconds_histogram maps blocks-per-occupied-second to slot counts.
    assert sum(k * v for k, v in r.seconds_histogram.items()) == r.total_blocks
    assert all(k >= 1 for k in r.seconds_histogram)


def test_difficulty_traces_cover_each_kind(quick_report):
    r = quick_report
    assert len(r.difficulty_trace_w) == r.pow_blocks
    assert len(r.difficulty_trace_s) == r.pos_blocks
    assert all(d >= r.config.d_min for d in r.difficulty_trace_w)
    chain = r.tree.canonical_chain()
    assert chain[0].timestamp == 0.0
    assert [b.height for b in chain] == list(range(len(chain)))


def test_same_seed_reproduces_report_json(quick_report):
    again = powpos.run(quick_config())
    assert again.to_json() == quick_report.to_json()
    other = powpos.run(quick_config(rng_seed=quick_report.config.rng_seed + 1))
    assert other.to_json() != quick_report.to_json()
    assert other.total_blocks != 0


def test_fixed_latency_run_orphans_blocks():
    # Small cast and equilibrium start: per-view trees make latency runs dear.
    report = powpos.run(
        quick_config(
            duration=3600.0,
            latency=LatencyModel.fixed(2.0),
            rng_seed=5,
            stakers=((0, 100.0), (1, 50.0), (2, 50.0)),
            miners=((10, 10.0), (11, 5.0), (12, 5.0)),
            d_genesis_w=20.0 * 20.0,
            d_genesis_s=200.0 * 20.0,
        )
    )
    assert report.orphan_count > 0
    assert report.stored_blocks == report.total_blocks + report.orphan_count
    assert orphan_proxy(report) == report.orphan_count / report.stored_blocks
    # Canonical structure stays sound under delivery delay.
    chain = report.tree.canonical_chain()
    assert [b.height for b in chain] == list(range(len(chain)))


# -- golden digests --------------------------------------------------------
# sha256 of SimReport.to_json().  A change that moves one on purpose says why
# and records the new value.


def report_sha256(report):
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


def test_quick_golden_digest(quick_report):
    assert report_sha256(quick_report) == (
        "04aab6406e650f0ceeb454ab3413291c9d3a29a7083b2e4036893966fb918165")


def test_flagship_golden_digest(baseline_report):
    assert report_sha256(baseline_report) == (
        "2c5b73d07403f97516b81388e4c323de348e120dda4f8c058016a0bb3409deaf")


def equilibrium_hour(**overrides):
    """One hour of the flagship cast from equilibrium difficulty."""
    d_w, d_s = baseline_config().equilibrium_difficulties
    return baseline_config(duration=3600.0, d_genesis_w=d_w, d_genesis_s=d_s, **overrides)


def test_latency_golden_digest():
    # One hour of fixed:2 latency from equilibrium difficulty: per-replica
    # trees with side chains and reorgs, so the digest pins fork choice.
    report = powpos.run(equilibrium_hour(
        latency=LatencyModel.fixed(2.0), slashing="evidence"))
    assert report_sha256(report) == (
        "6e114262e2e7a4c6325fe3ffd3fcfa8ae7422fd8c557b94c8076e4a4911e01e4")


def test_dunkle_golden_digest():
    # The same hour under dunkle:3: side PoS blocks debit their producers,
    # so the digest pins which rows the settlement counts as canonical.
    report = powpos.run(equilibrium_hour(
        latency=LatencyModel.fixed(2.0), slashing="dunkle:3"))
    assert min(report.dunkle_net.values()) < 0
    assert report_sha256(report) == (
        "6fc6d02bb1eb60d13abe044f9e72b9dd872d713c4f5dd80f0307fab4b7e0b21f")


def test_uniform_latency_golden_digest():
    # The same hour under uniform:0:5: each replica gets its own arrival
    # instant, so the digest pins delivery order where delays differ.
    report = powpos.run(equilibrium_hour(
        latency=LatencyModel.uniform(0.0, 5.0), slashing="evidence"))
    assert report.orphan_count > 0
    assert report_sha256(report) == (
        "179dd9cbee496a8426e08cf86b77ca0103fdf1343b0fc41731b4bb2323390e8d")


QUICK_ARTIFACT_SHA256 = {
    "report.json": "04aab6406e650f0ceeb454ab3413291c9d3a29a7083b2e4036893966fb918165",
    "interarrivals.csv": "c1bb635e89fec343875839bfe5bbb85044d54734f9e5f72b7b5cdd7237d7cb26",
    "rewards.csv": "6148832f1b310a215103e6aec240722f42bd7da479b98e89e8a475a502cea3e9",
    "difficulty.csv": "1c961d87c2ac6f37a383ecc11842047eff6e0460dea8d23df8b8e655467377a1",
    "blocks.jsonl": "8b782a59f074d10f07743fbff9b4d4df24bfbb81beed556084dfdbd339d82be7",
}


def test_quick_artifact_digests(tmp_path, quick_report):
    digests = {}
    for path in write_artifacts(quick_report, str(tmp_path)):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == QUICK_ARTIFACT_SHA256


# -- event engine ----------------------------------------------------------
# One hour each of the quick cast under perfect latency (one shared view)
# and of the flagship cast under fixed:2 (a view per producer).

ENGINE_HOURS = {
    "perfect": lambda: quick_config(duration=3600.0),
    "fixed2": lambda: equilibrium_hour(latency=LatencyModel.fixed(2.0)),
}


@pytest.mark.parametrize("name", sorted(ENGINE_HOURS))
def test_heap_holds_one_live_production_event_per_view(monkeypatch, name):
    engine = simnet._Engine(ENGINE_HOURS[name]())

    def checked_heappop(heap):
        live = set()
        for at, seq, tag, payload in heap:
            if tag != "produce" or payload[1] != engine.views[payload[0]].epoch:
                continue
            view, _epoch, index = payload
            assert view not in live, "two live production events for one view"
            live.add(view)
            # The view's earliest pending producer, under its own draw's key.
            p = engine.producers[index]
            assert (at, seq) == (p.due, p.seq) == engine.views[view].armed
            assert p is min(engine.by_view[view], key=lambda q: (q.due, q.seq))
        if heap[0][0] <= engine.config.duration:
            assert live == {p.view for p in engine.producers if p.due < math.inf}
        return heapq.heappop(heap)

    monkeypatch.setattr(simnet, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heappop=checked_heappop))
    engine.run()
    assert engine.produced > 100


@pytest.mark.parametrize("name", sorted(ENGINE_HOURS))
def test_pos_block_from_reused_slot_equals_recomputed(monkeypatch, name):
    engine = simnet._Engine(ENGINE_HOURS[name]())
    checked = []

    # Keyword-only: the engine forges from the slot and passes no power.
    def checked_forge(oracle, tree, parent_id, staker, *, now, slot):
        block = forging.forge_pos_block(oracle, tree, parent_id, staker,
                                        now=now, slot=slot)
        fresh_power = engine.ledger.voting_power(staker.account, tree.block(parent_id).height)
        assert block == forging.forge_pos_block(oracle, tree, parent_id, staker,
                                                fresh_power, now=now)
        # The reused slot keeps the honest check that its instant has come.
        early = math.nextafter(slot.eligible_at, -math.inf)
        with pytest.raises(forging.EligibilityError):
            forging.forge_pos_block(oracle, tree, parent_id, staker,
                                    now=early, slot=slot)
        checked.append(block)
        return block

    monkeypatch.setattr(simnet, "forge_pos_block", checked_forge)
    engine.run()
    assert len(checked) > 50


def test_voting_power_is_read_once_per_staker(monkeypatch):
    reads = []
    original = powpos.Ledger.voting_power

    def counted(self, account, height):
        reads.append(account)
        return original(self, account, height)

    monkeypatch.setattr(powpos.Ledger, "voting_power", counted)
    config = quick_config(duration=3600.0)
    report = simnet.run(config)
    assert report.pos_blocks > 50
    assert sorted(reads) == sorted(account for account, _ in config.stakers)


def test_oracle_digests_per_stored_block_pinned(monkeypatch):
    # Every digest the oracle computes: one per ``hash`` call and two per key
    # of a ``sign_seeds`` batch (the signature and its unit's hash).
    digests = [0]
    hash_, sign_seeds = powpos.HashOracle.hash, powpos.HashOracle.sign_seeds

    def counted_hash(self, *parts):
        digests[0] += 1
        return hash_(self, *parts)

    def counted_sign_seeds(self, prev, sks):
        digests[0] += 2 * len(sks)
        return sign_seeds(self, prev, sks)

    monkeypatch.setattr(powpos.HashOracle, "hash", counted_hash)
    monkeypatch.setattr(powpos.HashOracle, "sign_seeds", counted_sign_seeds)
    report = simnet.run(quick_config(duration=3600.0))
    # Recorded when each staker's slot was two ``hash`` calls.
    assert (digests[0], report.stored_blocks) == (22483, 1840)


# -- derived metrics -------------------------------------------------------


def test_poisson_collision_fraction_closed_form():
    rate = 0.1
    expected = (rate - (1.0 - math.exp(-rate))) / rate
    assert poisson_collision_fraction(rate) == pytest.approx(expected)
    assert poisson_collision_fraction(rate) == pytest.approx(0.04837, abs=5e-5)
    assert poisson_collision_fraction(1e-9) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        poisson_collision_fraction(0.0)


def test_orphan_proxy_matches_histogram_arithmetic(quick_report):
    r = quick_report
    extra = sum((k - 1) * v for k, v in r.seconds_histogram.items())
    assert r.same_second_excess == extra
    assert orphan_proxy(r) == pytest.approx(extra / r.total_blocks)


def test_canonical_series_one_pass(monkeypatch):
    monkeypatch.setattr(simnet, "WARMUP_BLOCKS", 1)
    series = canonical_series([
        ("pow", 5.0, 1.0), ("pos", 3.0, 10.0), ("pow", 9.0, 2.0),
        ("pos", 12.0, 30.0), ("pos", 14.0, 40.0),
    ])
    assert series.timestamps == {"all": [5.0, 3.0, 9.0, 12.0, 14.0],
                                 "pow": [5.0, 9.0], "pos": [3.0, 12.0, 14.0]}
    assert series.traces == {"pow": [1.0, 2.0], "pos": [10.0, 30.0, 40.0]}
    # Gaps come from sorted timestamps; chain order need not be time order.
    assert series.gaps("all") == [2.0, 4.0, 3.0, 2.0]
    assert series.gaps("pow") == [4.0]
    assert canonical_series([("pos", 1.0, 1.0)]).gaps("pos") == []
    # Sampled once both kinds have more than WARMUP_BLOCKS blocks.
    assert series.ratio_samples == [15.0, 20.0]


def test_interarrival_summary_fits_from_min_samples():
    few = [1.0] * (stats.MIN_FIT_SAMPLES - 1)
    assert interarrival_summary(few) == {"count": len(few)}
    assert interarrival_summary([]) == {"count": 0}
    gaps = [0.5 + i for i in range(stats.MIN_FIT_SAMPLES)]
    fit = stats.fit_exponential(gaps)
    assert interarrival_summary(gaps) == {
        "count": len(gaps), "mean": fit.mean, "std": fit.std, "rate": fit.rate,
        "ks": fit.ks_statistic, "ks_critical_1pct": stats.ks_critical(len(gaps)),
    }


def test_fairness_rows_and_scores(tmp_path, quick_report):
    # rewards.csv holds one row per participant of each rewarded class.
    write_artifacts(quick_report, str(tmp_path))
    with open(tmp_path / "rewards.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for cls, participants, rewards in (
        ("pos", quick_report.config.stakers, quick_report.rewards_pos),
        ("pow", quick_report.config.miners, quick_report.rewards_pow),
    ):
        class_rows = [r for r in rows if r["class"] == cls]
        assert [(int(r["account"]), float(r["power"])) for r in class_rows] == list(participants)
        assert [float(r["reward"]) for r in class_rows] == [rewards[a] for a, _ in participants]
    scores = criteria.fairness_scores(quick_report)
    assert set(scores) == {"pos", "pow"}
    assert all(0.0 <= s < 0.5 for s in scores.values())


# -- artifacts -------------------------------------------------------------


def test_write_artifacts_and_force_semantics(tmp_path, quick_report):
    outdir = str(tmp_path / "out")
    paths = write_artifacts(quick_report, outdir)
    assert [os.path.basename(p) for p in paths] == list(simnet.ARTIFACT_NAMES)
    assert all(os.path.exists(p) for p in paths)
    with pytest.raises(FileExistsError, match="artifacts already present"):
        write_artifacts(quick_report, outdir)
    write_artifacts(quick_report, outdir, force=True)

    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload == quick_report.to_summary_dict()
    assert payload["blocks"]["total"] == quick_report.total_blocks

    with open(os.path.join(outdir, "blocks.jsonl"), encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == quick_report.stored_blocks + 1  # genesis included
    kinds = {json.loads(line)["kind"] for line in lines}
    assert kinds == {"genesis", "pow", "pos"}

    with open(os.path.join(outdir, "interarrivals.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "class,gap_seconds"


def test_summary_dict_reports_fit_blocks(quick_report):
    summary = quick_report.to_summary_dict()
    for cls in ("all", "pow", "pos"):
        block = summary["interarrivals"][cls]
        assert block["count"] >= stats.MIN_FIT_SAMPLES
        assert block["count"] == len(quick_report.interarrivals[cls])
        assert block["ks_critical_1pct"] == pytest.approx(
            stats.ks_critical(block["count"])
        )
    fits = summary["interarrivals"]
    assert fits["pow"]["mean"] > fits["all"]["mean"]
    assert summary["config"] == quick_report.config.summary_dict()
    assert "runtime" not in json.dumps(summary)


def test_ratio_mean_is_the_reported_mean(quick_report):
    assert quick_report.to_summary_dict()["difficulty"]["ratio_mean_post_warmup"] == (
        quick_report.ratio_mean)
    assert replace(quick_report, ratio_samples=[9.5, 10.0, 11.0]).ratio_mean == (
        float(np.mean([9.5, 10.0, 11.0])))
    assert replace(quick_report, ratio_samples=[]).ratio_mean is None

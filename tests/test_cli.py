"""Command-line entry points: exit codes, printed summaries, artifacts."""

import json
import os

import pytest

from powpos import cli, criteria, simnet, stats
from powpos.chain import BlockTree


SMALL_CFG = """
t = 10.0
duration = 1800
stakers = 100 50 50
miners = 10 5 5
d_genesis_w = 400
d_genesis_s = 4000
rng_seed = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def write_cfg(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return str(path)


STAKERS_ONLY = "t = 10\nduration = 600\nstakers = 100 50\n"
MINERS_ONLY = "t = 10\nduration = 600\nminers = 10 5\n"


def test_simulate_prints_summary_and_writes_artifacts(tmp_path, cfg_path, capsys):
    outdir = str(tmp_path / "artifacts")
    assert cli.main(["simulate", "--config", cfg_path, "--out", outdir]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "blocks      total=" in out
    assert "difficulty  d_w=" in out
    assert "runtime" in out
    assert f"artifacts   {outdir} (5 files)" in out
    for name in ("report.json", "blocks.jsonl"):
        assert os.path.exists(os.path.join(outdir, name))


def test_simulate_fits_each_class_once(tmp_path, cfg_path, monkeypatch):
    # The printed summary and report.json read the same fits.
    fitted = []
    fit = stats.fit_exponential
    monkeypatch.setattr(stats, "fit_exponential", lambda gaps: fitted.append(gaps) or fit(gaps))
    outdir = str(tmp_path / "artifacts")
    assert cli.main(["simulate", "--config", cfg_path, "--out", outdir]) == cli.EXIT_OK
    assert len(fitted) == 3


def test_simulate_refuses_to_clobber_artifacts(tmp_path, cfg_path, capsys):
    outdir = str(tmp_path / "artifacts")
    assert cli.main(["simulate", "--config", cfg_path, "--out", outdir]) == cli.EXIT_OK
    assert cli.main(["simulate", "--config", cfg_path, "--out", outdir]) == cli.EXIT_IO
    assert "artifact error" in capsys.readouterr().err
    assert (
        cli.main(["simulate", "--config", cfg_path, "--out", outdir, "--force"])
        == cli.EXIT_OK
    )


def test_simulate_reports_are_byte_identical_per_seed(tmp_path, cfg_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["simulate", "--config", cfg_path, "--out", out_a]) == cli.EXIT_OK
    assert cli.main(["simulate", "--config", cfg_path, "--out", out_b]) == cli.EXIT_OK
    with open(os.path.join(out_a, "report.json"), "rb") as fh:
        payload_a = fh.read()
    with open(os.path.join(out_b, "report.json"), "rb") as fh:
        payload_b = fh.read()
    assert payload_a == payload_b


def test_simulate_missing_config_is_a_config_error(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_simulate_cli_overrides(tmp_path, cfg_path, capsys):
    code = cli.main([
        "simulate", "--config", cfg_path, "--seed", "9",
        "--latency", "fixed:0.5", "--slashing", "evidence",
    ])
    assert code == cli.EXIT_OK
    assert "slashing    mode=evidence  evidence=0" in capsys.readouterr().out
    assert (
        cli.main(["simulate", "--config", cfg_path, "--latency", "warp"])
        == cli.EXIT_CONFIG
    )


@pytest.mark.parametrize("text, kind", [(STAKERS_ONLY, "pow"), (MINERS_ONLY, "pos")],
                         ids=["stakers-only", "miners-only"])
def test_simulate_single_kind_config(tmp_path, capsys, text, kind):
    outdir = str(tmp_path / "artifacts")
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, text), "--out", outdir])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert ("d_w=n/a" if kind == "pow" else "d_s=n/a") in out
    assert f"gap [{kind}]" not in out
    with open(os.path.join(outdir, "rewards.csv"), encoding="utf-8") as fh:
        assert all(f",{kind}," not in line for line in fh)


def test_simulate_rejects_zero_dunkle_multiple(tmp_path, cfg_path, capsys):
    code = cli.main(["simulate", "--config", cfg_path, "--slashing", "dunkle:0",
                     "--out", str(tmp_path / "artifacts")])
    assert code == cli.EXIT_CONFIG
    assert "dunkle:N" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "artifacts")


HUGE_POWERS = {
    "hash-1e308": {"stakers": ((0, 10.0),), "miners": ((1, 1e308),)},
    "two-hashes-1e307": {"miners": ((0, 1e307), (1, 1e307))},
    "stake-1e308": {"stakers": ((0, 1e308),), "miners": ((1, 1.0),)},
    "product-1e160": {"stakers": ((0, 1e160),), "miners": ((1, 1e160),)},
}


@pytest.mark.parametrize("participants", list(HUGE_POWERS.values()), ids=list(HUGE_POWERS))
def test_overflowing_chain_weight_is_a_config_error(tmp_path, capsys, participants):
    # The equilibrium difficulty power * 2t, or the product of the two kinds'
    # chain weights, overflows: fork choice could not rank chains.
    with pytest.raises(simnet.ConfigError, match="would overflow"):
        simnet.run(simnet.SimConfig(**participants))
    text = "".join(f"{kind} = {' '.join(f'{a}:{v!r}' for a, v in pairs)}\n"
                   for kind, pairs in participants.items())
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "artifacts")])
    assert code == cli.EXIT_CONFIG
    assert "would overflow" in capsys.readouterr().err


def test_stats_recomputes_from_dump(tmp_path, cfg_path, capsys):
    outdir = str(tmp_path / "artifacts")
    cli.main(["simulate", "--config", cfg_path, "--out", outdir])
    capsys.readouterr()
    blocks = os.path.join(outdir, "blocks.jsonl")
    assert cli.main(["stats", blocks]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "rows" in out and "canonical" in out
    assert "gap [all]" in out
    assert "difficulty  pow:" in out


@pytest.mark.parametrize("latency", ["perfect", "fixed:2"])
def test_stats_prints_the_gap_lines_of_simulate(tmp_path, cfg_path, capsys, latency):
    outdir = str(tmp_path / "artifacts")
    assert cli.main(["simulate", "--config", cfg_path, "--latency", latency,
                     "--out", outdir]) == cli.EXIT_OK
    simulated = capsys.readouterr().out
    assert cli.main(["stats", os.path.join(outdir, "blocks.jsonl")]) == cli.EXIT_OK
    restated = capsys.readouterr().out

    def gap_lines(text):
        return [line for line in text.splitlines() if line.startswith("gap [")]

    assert len(gap_lines(simulated)) == 3
    assert gap_lines(restated) == gap_lines(simulated)
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        blocks = json.load(fh)["blocks"]
    if latency != "perfect":
        assert blocks["orphaned"] > 0
    assert (f"rows        {blocks['stored'] + 1} total, {blocks['total']} canonical, "
            f"{blocks['orphaned']} side") in restated


def test_stats_io_errors(tmp_path, capsys):
    assert cli.main(["stats", str(tmp_path / "absent.jsonl")]) == cli.EXIT_IO
    assert "cannot read" in capsys.readouterr().err
    mangled = tmp_path / "bad.jsonl"
    mangled.write_text("{not json}\n")
    assert cli.main(["stats", str(mangled)]) == cli.EXIT_IO
    assert "malformed dump" in capsys.readouterr().err

    genesis = {"id": "g", "parent": None, "kind": "genesis", "difficulty": 1.0,
               "timestamp": 0.0, "height": 0, "producer": -1, "td_w": 1.0, "td_s": 1.0}
    no_id = {k: v for k, v in genesis.items() if k != "id"}
    # a and b name each other as parent; c, the heaviest leaf, walks into them.
    cycle = [genesis, dict(genesis, id="a", parent="b", kind="pos"),
             dict(genesis, id="b", parent="a", kind="pos"),
             dict(genesis, id="c", parent="a", kind="pos", td_w=5.0)]
    for lines in ([genesis, no_id], [genesis, [1, 2]], cycle):
        mangled.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert cli.main(["stats", str(mangled)]) == cli.EXIT_IO
        assert "malformed dump" in capsys.readouterr().err


def pow_chain_dump(path, count=40, **last):
    """Write a genesis row and ``count`` PoW rows 10 s apart; ``last``
    overrides fields of the final, canonical row."""
    rows = [{"id": "g", "parent": None, "kind": "genesis", "difficulty": 1.0,
             "timestamp": 0.0, "height": 0, "producer": None, "td_w": 1.0, "td_s": 1.0}]
    for i in range(1, count + 1):
        rows.append(dict(rows[0], id=f"b{i}", parent=rows[-1]["id"], kind="pow",
                         timestamp=10.0 * i, height=i, producer=1, td_w=1.0 + i))
    rows[-1].update(last)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("last", [
    {"kind": "pox"},
    {"kind": ["pow"]},
    {"td_w": "41"},
    {"td_s": None},
    {"difficulty": float("nan")},
    {"timestamp": float("inf")},
    {"timestamp": True},
    {"timestamp": 390.0},  # the previous block's: a zero canonical gap
], ids=["unknown-kind", "list-kind", "string-td_w", "null-td_s", "nan-difficulty",
        "inf-timestamp", "bool-timestamp", "zero-gap"])
def test_stats_rejects_bad_field_values(tmp_path, capsys, last):
    assert cli.main(["stats", pow_chain_dump(tmp_path / "ok.jsonl")]) == cli.EXIT_OK
    assert "gap [all]   n=39  mean=10.000s" in capsys.readouterr().out
    dump = pow_chain_dump(tmp_path / "bad.jsonl", **last)
    assert cli.main(["stats", dump]) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert "malformed dump" in captured.err and captured.out == ""


def test_attack_future_mining_passes(capsys):
    assert cli.main(["attack", "future-mining"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "future-mining checks: pass" in out
    assert "Bob publishes PoS block" in out


def test_attack_future_mining_names_failing_checks(tmp_path, capsys, monkeypatch):
    # An import that ignores the clock lets Charlie take Bob's early block.
    # The failing game still leaves its report for inspection.
    import_block = BlockTree.import_block
    monkeypatch.setattr(BlockTree, "import_block",
                        lambda tree, block, *clock: import_block(tree, block))
    outdir = str(tmp_path / "attack")
    assert cli.main(["attack", "future-mining", "--out", outdir]) == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "future-mining checks: FAIL, failing: ['charlie_rejects_future_block']" in out
    with open(os.path.join(outdir, "attack_report.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["checks"]["charlie_rejects_future_block"] is False


def test_attack_selfish_matches_pinned_numbers(capsys):
    assert cli.main(["attack", "selfish", "--seed", "42"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "hybrid=0.2454" in out
    assert "pow-only=0.3494" in out


def test_attack_split_stake_writes_report(tmp_path, capsys):
    outdir = str(tmp_path / "attack")
    code = cli.main(["attack", "split-stake", "--trials", "5000", "--out", outdir])
    assert code == cli.EXIT_OK
    assert "indistinguishable=True" in capsys.readouterr().out
    with open(os.path.join(outdir, "attack_report.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["attack"] == "split-stake"
    assert payload["rounds"] == 5000
    code = cli.main(["attack", "split-stake", "--trials", "5000", "--out", outdir])
    assert code == cli.EXIT_IO
    code = cli.main(["attack", "split-stake", "--trials", "5000", "--out", outdir,
                     "--force"])
    assert code == cli.EXIT_OK


def test_attack_double_spend_reports_trials_and_interval(tmp_path, capsys):
    outdir = str(tmp_path / "attack")
    code = cli.main(["attack", "double-spend", "--trials", "200", "--out", outdir])
    assert code == cli.EXIT_OK
    assert "win_rate=1.000 over 200 trials (95% CI 0.981-1.000)" in capsys.readouterr().out
    with open(os.path.join(outdir, "attack_report.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["trials"] == 200 and payload["win_rate"] == 1.0
    low, high = payload["win_rate_ci95"]
    assert low == pytest.approx(1 - 0.01885, abs=5e-6) and high == 1.0


def test_attack_long_range_writes_report_and_trajectories(tmp_path, cfg_path, capsys):
    outdir = str(tmp_path / "attack")
    code = cli.main(["attack", "long-range", "--config", cfg_path, "--trials", "3",
                     "--out", outdir])
    assert code == cli.EXIT_OK
    assert "attacker_won=False" in capsys.readouterr().out
    with open(os.path.join(outdir, "attack_report.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["attack"] == "long-range" and payload["trials"] == 3
    assert payload["any_attacker_won"] is False
    assert os.path.getsize(os.path.join(outdir, "trajectories.csv")) > 0


def test_attack_public_double_spend_reports_intervals(tmp_path, capsys):
    outdir = str(tmp_path / "attack")
    code = cli.main(["attack", "public-double-spend", "--trials", "20", "--out", outdir])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("over 20 trials (95% CI ") == 3
    with open(os.path.join(outdir, "attack_report.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["trials"] == 20
    assert set(payload["win_rates_ci95"]) == set(payload["win_rates"])
    for policy, (low, high) in payload["win_rates_ci95"].items():
        assert 0.0 <= low <= payload["win_rates"][policy] <= high <= 1.0


@pytest.mark.parametrize("trials", ["0", "-3", "many"])
def test_attack_trials_must_be_a_positive_integer(capsys, trials):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["attack", "double-spend", "--trials", trials])
    assert exit_info.value.code == cli.EXIT_CONFIG
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("selfish", STAKERS_ONLY),
    ("public-double-spend", STAKERS_ONLY),
    ("split-stake", MINERS_ONLY),
], ids=["selfish", "public-double-spend", "split-stake"])
def test_attack_precondition_is_a_config_error(tmp_path, capsys, name, text):
    code = cli.main(["attack", name, "--config", write_cfg(tmp_path, text), "--trials", "2"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_attack_rejects_unknown_name():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["attack", "teleport"])
    assert exit_info.value.code == 2


# poisson-merge and difficulty-convergence judge a whole report through criteria.
@pytest.mark.parametrize("suite", ["split-stake", "poisson-merge", "difficulty-convergence"])
def test_check_split_stake_suite(capsys, suite):
    assert cli.main(["check", suite]) == cli.EXIT_OK
    assert f"ok   {suite}" in capsys.readouterr().out


def test_check_failure_names_the_suite(monkeypatch, capsys):
    monkeypatch.setattr(simnet, "run", lambda config: None)  # no 5-day run
    monkeypatch.setattr(criteria, "reward_proportionality", lambda report: (False, "pow 0.06"))
    assert cli.main(["check", "fairness"]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert out == "FAIL fairness: pow 0.06\n"
    assert err == "failed suites: fairness\n"


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit) as exit_info:
        cli.main([])
    assert exit_info.value.code == 2

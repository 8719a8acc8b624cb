"""Command-line front end: run simulations, attack scenarios, and checks.

Subcommands:

* ``simulate``: run a config file to its horizon and optionally emit the
  artifact set (report.json, interarrivals.csv, rewards.csv,
  difficulty.csv, blocks.jsonl).
* ``attack``: run a named adversary scenario and emit attack_report.json.
* ``check``: reduced-scale invariant suites for quick health checks.  Each
  suite in ``CHECKS`` runs at its own scale and pinned seed and judges the
  result only through ``criteria``, which the acceptance tests call too.
* ``stats``: recompute summary statistics from a blocks.jsonl dump, through
  the same ``simnet`` summary code and gap lines as ``simulate``.

Exit codes: 0 success, 1 failed check assertion, 2 bad configuration or
arguments, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from typing import List, Optional

from . import attacks, criteria, simnet, slashing, stats
from .chain import BlockKind


ATTACK_NAMES = (
    "double-spend",
    "long-range",
    "selfish",
    "split-stake",
    "future-mining",
    "public-double-spend",
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_config(args) -> simnet.SimConfig:
    config = simnet.parse_config_file(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["rng_seed"] = args.seed
    if getattr(args, "latency", None) is not None:
        overrides["latency"] = simnet.LatencyModel.parse(args.latency)
    if getattr(args, "slashing", None) is not None:
        overrides["slashing"] = args.slashing
    if overrides:
        config = replace(config, **overrides)
        config.validate()
    return config


def _print_gaps(interarrivals: dict) -> None:
    """One line per class with gaps, from its ``simnet.interarrival_summary``."""
    for cls, info in interarrivals.items():
        if not info["count"]:
            continue
        line = f"gap [{cls:>3}]   n={info['count']}"
        if "mean" in info:
            line += (f"  mean={info['mean']:.3f}s  std={info['std']:.3f}s  "
                     f"ks={info['ks']:.5f} (1% crit {info['ks_critical_1pct']:.5f})")
        print(line)


def _print_summary(report: simnet.SimReport) -> None:
    summary = report.to_summary_dict()
    blocks = summary["blocks"]
    print(f"blocks      total={blocks['total']}  pow={blocks['pow']}  "
          f"pos={blocks['pos']}  orphaned={blocks['orphaned']}")
    _print_gaps(summary["interarrivals"])
    diff = {k: "n/a" if v is None else f"{v:.3f}" for k, v in summary["difficulty"].items()}
    print(f"difficulty  d_w={diff['final_w']}  d_s={diff['final_s']}  "
          f"ratio(post-warmup)={diff['ratio_mean_post_warmup']}")
    print(f"orphans     proxy={summary['orphan_proxy'] * 100:.2f}%")
    top = sorted(report.rewards.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    shares = "  ".join(f"{a}:{v:.0f}" for a, v in top)
    print(f"rewards     top {shares}")
    if "slashing" in summary:
        print(f"slashing    mode={summary['slashing']['mode']}  "
              f"evidence={summary['slashing']['evidence_count']}")
    print(f"runtime     {report.runtime_seconds:.2f}s")


def cmd_simulate(args) -> int:
    try:
        config = _load_config(args)
    except simnet.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = simnet.run(config)
    _print_summary(report)
    if args.out:
        try:
            paths = simnet.write_artifacts(report, args.out, force=args.force)
        except (OSError, FileExistsError) as exc:
            print(f"artifact error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"artifacts   {args.out} ({len(paths)} files)")
    return EXIT_OK


def cmd_attack(args) -> int:
    try:
        return _run_attack(args)
    except ValueError as exc:  # a ConfigError, or a scenario's precondition
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run_attack(args) -> int:
    config = simnet.parse_config_file(args.config) if args.config else simnet.quick_config()
    seed = args.seed if args.seed is not None else 1
    name = args.name
    payload: dict = {"attack": name, "rng_seed": seed}
    trajectories, failing = None, []

    if name == "double-spend":
        trials = args.trials or 200
        setup = attacks.AttackSetup(
            attacker_hash=60.0, attacker_stake=60.0,
            honest_hash=40.0, honest_stake=40.0,
            td_wc=100.0, td_sc=100.0, horizon=10_000.0,
        )
        lhs, feasible = attacks.double_spend_feasible(setup)
        rate, _ = attacks.double_spend_win_rate(config, setup, trials, seed)
        low, high = stats.wilson_interval(round(rate * trials), trials)
        sample = attacks.run_private_double_spend(config, setup, rng_seed=seed)
        trajectories = sample.weight_trajectories
        payload.update({
            "setup": asdict(setup),
            "lhs": lhs, "feasible": feasible,
            "trials": trials, "win_rate": rate, "win_rate_ci95": [low, high],
            "sample_outcome": asdict(sample) | {"weight_trajectories": None},
        })
        print(f"double-spend  lhs={lhs:.1f} feasible={feasible}  "
              f"win_rate={rate:.3f} over {trials} trials "
              f"(95% CI {low:.3f}-{high:.3f})")
    elif name == "long-range":
        trials = args.trials or 100
        report = simnet.run(config)
        depth = max(1, report.total_blocks // 2)
        outcomes = [
            attacks.run_long_range_attack(
                config, depth, attacker_stake_share=1.0,
                rng_seed=seed + i, report=report,
            )
            for i in range(trials)
        ]
        max_ratio = max(o.max_product_ratio for o in outcomes)
        any_won = any(o.attacker_won for o in outcomes)
        trajectories = outcomes[0].weight_trajectories
        payload.update({
            "depth": depth, "attacker_stake_share": 1.0, "trials": trials,
            "any_attacker_won": any_won, "max_product_ratio": max_ratio,
            "omega_bound": outcomes[0].meta["omega_bound"],
        })
        print(f"long-range  depth={depth} stake=100%  attacker_won={any_won}  "
              f"max_ratio={max_ratio:.6f}  omega_bound={outcomes[0].meta['omega_bound']:.3f}")
    elif name == "selfish":
        share = 1.0 / 3.0
        pair = attacks.selfish_mining_comparison(config, share, rng_seed=seed,
                                                 duration=200_000.0)
        hybrid, control = pair["hybrid"], pair["pow_only"]
        reference = attacks.selfish_mining_reference_share(share)
        payload.update({
            "attacker_hash_share": share,
            "hybrid_revenue_share": hybrid.revenue_share,
            "pow_only_revenue_share": control.revenue_share,
            "reference_share_gamma0": reference,
            "pos_interleave_losses": hybrid.pos_interleave_losses,
        })
        print(f"selfish  share={share:.3f}  hybrid={hybrid.revenue_share:.4f}  "
              f"pow-only={control.revenue_share:.4f}  reference={reference:.4f}")
    elif name == "split-stake":
        rounds = args.trials or 100_000
        result = attacks.run_split_stake_nas(config, k_splits=10, rounds=rounds,
                                             rng_seed=seed)
        payload.update({key: getattr(result, key) for key in (
            "rounds", "k_splits", "ks_two_sample", "ks_two_sample_critical",
            "indistinguishable")})
        print(f"split-stake  k=10 rounds={rounds}  ks={result.ks_two_sample:.5f} "
              f"(crit {result.ks_two_sample_critical:.5f})  "
              f"indistinguishable={result.indistinguishable}")
    elif name == "future-mining":
        transcript = attacks.run_future_mining_game(config, rng_seed=seed)
        payload.update(asdict(transcript))
        for line in transcript.events:
            print(line)
        failing = [check for check, ok in transcript.checks.items() if not ok]
        status = f"FAIL, failing: {failing}" if failing else "pass"
        print(f"future-mining checks: {status}")
    else:  # public-double-spend; argparse admits only ATTACK_NAMES
        trials = args.trials or 50
        results, intervals = {}, {}
        for policy in slashing.StakerPolicy:
            rate, outcomes = slashing.public_double_spend_win_rate(
                config, policy, attacker_hash_share=0.6, trials=trials,
                rng_seed=seed, duration=20_000.0,
            )
            low, high = stats.wilson_interval(sum(o.attacker_won for o in outcomes), trials)
            results[policy.value] = rate
            intervals[policy.value] = [low, high]
            print(f"public-double-spend  policy={policy.value:<17} "
                  f"win_rate={rate:.3f} over {trials} trials "
                  f"(95% CI {low:.3f}-{high:.3f})")
        payload.update({"attacker_hash_share": 0.6, "trials": trials,
                        "win_rates": results, "win_rates_ci95": intervals})

    if args.out:
        try:
            attacks.write_attack_report(args.out, payload, trajectories,
                                        force=args.force)
        except (OSError, FileExistsError) as exc:
            print(f"artifact error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_CHECK_FAILED if failing else EXIT_OK


# ---------------------------------------------------------------------------
# Check suites: each runs at its own reduced scale and pinned seed, and judges
# only through ``criteria``, the functions the acceptance tests call.


def _check_poisson_merge() -> List[criteria.Verdict]:
    # From equilibrium difficulty the whole run is stationary, so the merge
    # law is judged on the whole chain's gaps.  A week: over one day the
    # PoW/PoS split spreads about 1 %, as wide as its limit.
    d_w, d_s = simnet.baseline_config().equilibrium_difficulties
    report = simnet.run(simnet.baseline_config(
        duration=7 * 86_400.0, d_genesis_w=d_w, d_genesis_s=d_s))
    return [criteria.pow_pos_balance(report),
            criteria.interarrival_moments(report.interarrivals),
            criteria.exponential_gaps(report.interarrivals)]


def _check_fairness() -> List[criteria.Verdict]:
    report = simnet.run(simnet.baseline_config(duration=5 * 86_400.0))
    return [criteria.reward_proportionality(report)]


def _check_difficulty_convergence() -> List[criteria.Verdict]:
    report = simnet.run(simnet.baseline_config(duration=2 * 86_400.0))
    return [criteria.difficulty_equilibrium(report)]


def _check_split_stake() -> List[criteria.Verdict]:
    result = attacks.run_split_stake_nas(simnet.quick_config(), k_splits=10, rounds=20_000)
    return [criteria.stake_splitting(result)]


def _check_slashing_negatives() -> List[criteria.Verdict]:
    config = simnet.baseline_config(duration=7_200.0)
    rows = list(simnet.run(config).tree.dump_rows())
    # The detectors must also stay blind to deliberate stake splitting.
    split = attacks.run_split_stake_nas(config, k_splits=5, rounds=1_000)
    return [criteria.honest_negatives([len(slashing.detect_all(rows))]),
            criteria.stake_splitting(split)]


CHECKS = {
    "poisson-merge": _check_poisson_merge,
    "fairness": _check_fairness,
    "difficulty-convergence": _check_difficulty_convergence,
    "split-stake": _check_split_stake,
    "slashing-negatives": _check_slashing_negatives,
}


def cmd_check(args) -> int:
    suites = list(CHECKS) if args.suite == "all" else [args.suite]
    failed = []
    for suite in suites:
        failures = [detail for passed, detail in CHECKS[suite]() if not passed]
        if failures:
            failed.append(suite)
            for reason in failures:
                print(f"FAIL {suite}: {reason}")
        else:
            print(f"ok   {suite}")
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_stats(args) -> int:
    try:
        rows = slashing.load_rows(args.blocks)
    except OSError as exc:
        print(f"cannot read {args.blocks}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # includes json.JSONDecodeError
        print(f"malformed dump {args.blocks}: {exc}", file=sys.stderr)
        return EXIT_IO
    canonical, side = slashing.split_canonical(rows)
    produced = [r for r in canonical if r["kind"] != BlockKind.GENESIS.value]
    series = simnet.canonical_series(
        (r["kind"], r["timestamp"], r["difficulty"]) for r in produced)
    gaps = {cls: series.gaps(cls) for cls in series.timestamps}
    if 0.0 in gaps["all"]:  # no interarrival fit takes a zero gap
        print(f"malformed dump {args.blocks}: two canonical blocks share a timestamp",
              file=sys.stderr)
        return EXIT_IO
    print(f"rows        {len(rows)} total, {len(produced)} canonical, "
          f"{len(side)} side")
    _print_gaps({cls: simnet.interarrival_summary(g) for cls, g in gaps.items()})
    for kind, trace in series.traces.items():
        if trace:
            print(f"difficulty  {kind}: first={trace[0]:.3f} last={trace[-1]:.3f}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    if int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powpos",
        description="Hybrid PoW/PoS chain simulator and attack lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configuration to its horizon")
    sim.add_argument("--config", required=True, help="key = value config file")
    sim.add_argument("--seed", type=int, help="override rng_seed")
    sim.add_argument("--out", help="artifact output directory")
    sim.add_argument("--force", action="store_true",
                     help="overwrite existing artifacts")
    sim.add_argument("--latency", help="perfect | fixed:SECS | uniform:LO:HI")
    sim.add_argument("--slashing", help="off | evidence | dunkle:N")
    sim.set_defaults(func=cmd_simulate)

    atk = sub.add_parser("attack", help="run an adversary scenario")
    atk.add_argument("name", choices=ATTACK_NAMES)
    atk.add_argument("--config", help="base network config (default: quick)")
    atk.add_argument("--trials", type=_positive_int, help="Monte Carlo trial count")
    atk.add_argument("--seed", type=int, help="base rng seed")
    atk.add_argument("--out", help="attack report output directory")
    atk.add_argument("--force", action="store_true",
                     help="overwrite existing reports")
    atk.set_defaults(func=cmd_attack)

    chk = sub.add_parser("check", help="run reduced-scale invariant suites")
    chk.add_argument("suite", choices=[*CHECKS, "all"])
    chk.set_defaults(func=cmd_check)

    st = sub.add_parser("stats", help="recompute statistics from a dump")
    st.add_argument("blocks", help="path to blocks.jsonl")
    st.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

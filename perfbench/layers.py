"""Per-layer metrics of one traced operation.

The layers are the powpos modules.  Every value covers one whole op (all of
its simulation runs).  Times named ``*.self_s`` are self times (span
duration minus traced children); the other ``*_s`` times are whole calls.
Counts per block divide by the blocks the op stored; on attack-lab, which
stores none, they read 0.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

from typing import Tuple

from powpos.chain import ImportResult

PRIVATE_TRIAL = "attacks.private_double_spend"


def _percentile(ordered, q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_values(out, trace) -> Tuple[dict, dict]:
    """Returns ``(metric values, exact counts that must repeat across ops)``."""
    calls, counts = trace.calls, trace.counts
    self_s = lambda key: trace.self_s.get(key, 0.0)
    total_s = lambda key: trace.total_s.get(key, 0.0)
    blocks = out.blocks
    per_block = lambda key: calls[key] / blocks if blocks else 0.0
    imports = calls["chain.import"]
    armed = counts["forging.armed"]
    trials = sorted(trace.durations.get(PRIVATE_TRIAL, []))
    reports = [run.report for run in out.runs]

    values = {
        "crypto.hash.calls": calls["crypto.hash"],
        "crypto.hash.calls_per_block": per_block("crypto.hash"),
        "crypto.hash.self_s": self_s("crypto.hash"),
        "difficulty.expected.calls_per_block": per_block("difficulty.expected"),
        "difficulty.expected.self_s": self_s("difficulty.expected"),
        "forging.pow_solve.calls_per_block": per_block("forging.pow_solve"),
        "forging.pos_eligibility.calls_per_block": per_block("forging.pos_eligibility"),
        "forging.pos_eligibility.self_s": self_s("forging.pos_eligibility"),
        "forging.build.self_s": self_s("forging.build"),
        "forging.useful_ratio": blocks / armed if armed else 0.0,
        "ledger.voting_power.calls_per_block": per_block("ledger.voting_power"),
        "ledger.voting_power.self_s": self_s("ledger.voting_power"),
        "chain.import.calls_per_block": per_block("chain.import"),
        "chain.import.self_s": self_s("chain.import"),
        "chain.fork_choice.tips_scanned_per_import":
            counts["chain.fork_choice.tips_scanned"] / imports if imports else 0.0,
        "chain.canonical_share":
            sum(r.total_blocks for r in reports) / blocks if blocks else 0.0,
        "chain.tips_final": sum(len(r.tree.tips) for r in reports),
        "simnet.run.self_s": self_s("simnet.run"),
        "simnet.write_artifacts_s": total_s("simnet.write_artifacts"),
        "simnet.artifact_bytes": out.artifact_bytes,
        "slashing.detect_all_s": total_s("slashing.detect_all"),
        "slashing.rows": counts["slashing.rows"],
        "slashing.evidence_count": counts["slashing.evidence"],
        "cli.stats_s": total_s("cli.stats"),
        "stats.fit_exponential_s": self_s("stats.fit_exponential"),
        "stats.ks_s": self_s("stats.ks"),
        "attacks.private_double_spend.p50_us": _percentile(trials, 0.50) * 1e6,
        "attacks.private_double_spend.p99_us": _percentile(trials, 0.99) * 1e6,
        "attacks.split_stake_s": total_s("attacks.split_stake"),
        "attacks.selfish_s": total_s("attacks.selfish"),
        "attacks.public_double_spend_s": total_s("attacks.public_double_spend"),
        "attacks.long_range_s": total_s("attacks.long_range"),
        "trace.spans": trace.span_count,
    }
    for result in ImportResult:
        name = "chain.import.result." + result.value
        values[name] = counts[name]
    exact = {**trace.exact_counts(), "blocks": blocks,
             "tips_final": values["chain.tips_final"],
             "artifact_bytes": out.artifact_bytes}
    return values, exact

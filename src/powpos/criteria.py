"""The acceptance criteria, judged alike by the pytest gate and ``powpos check``.

Each function judges the data it is handed (gap samples per class ``"all"``,
``"pow"``, ``"pos"``; a ``SimReport``; a ``SplitStakeReport``; or evidence
counts) and returns ``(passed, detail)``, the one-line verdict that the
acceptance summary and a failed check print.  Every threshold is written
here once, as a literal; a run's scale and seed belong to its caller.  The
gap bands assume the flagship combined target ``t = 10`` s.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from . import stats
from .attacks import SplitStakeReport
from .simnet import WARMUP_BLOCKS, SimReport

Verdict = Tuple[bool, str]


def _below(value: float, limit: float, sep: str = " ") -> str:
    return f"{value:.5f}{sep}{'<' if value < limit else '>='}{sep}{limit:.5f}"


def pow_pos_balance(report: SimReport) -> Verdict:
    """Criterion 1's split clause: PoW and PoS block counts within 1 %."""
    imbalance = abs(report.pos_blocks - report.pow_blocks) / max(report.total_blocks, 1)
    return imbalance < 0.01, f"pow/pos imbalance {imbalance:.3%}"


def interarrival_moments(gaps: Mapping[str, Sequence[float]]) -> Verdict:
    """Criterion 2: mean gaps near ``t`` combined and ``2t`` per kind, each
    class's std within 10 % of its mean (the exponential signature)."""
    means = {cls: float(np.mean(g)) for cls, g in gaps.items()}
    spreads = {cls: abs(float(np.std(g)) - means[cls]) / means[cls] for cls, g in gaps.items()}
    passed = (
        9.8 <= means["all"] <= 10.9
        and all(19.7 <= means[cls] <= 21.8 for cls in ("pow", "pos"))
        and all(s < 0.10 for s in spreads.values())
    )
    return passed, (f"mean all {means['all']:.3f}s pow {means['pow']:.3f}s "
                    f"pos {means['pos']:.3f}s, worst std/mean gap {max(spreads.values()):.3%}")


def exponential_gaps(gaps: Mapping[str, Sequence[float]]) -> Verdict:
    """Criterion 3: each class passes a 1 %-level KS test against its fitted exponential."""
    fits = {cls: stats.fit_exponential(g) for cls, g in gaps.items()}
    margins = {cls: (f.ks_statistic, stats.ks_critical(f.sample_count)) for cls, f in fits.items()}
    return (all(ks < crit for ks, crit in margins.values()),
            "  ".join(f"{cls} {_below(ks, crit, '')}" for cls, (ks, crit) in margins.items()))


def fairness_scores(report: SimReport) -> Dict[str, float]:
    """Worst relative reward deviation per class, over participants holding
    at least 3 % of their class's power."""
    return {
        cls: stats.proportionality_score(
            [v for _, v in participants], [rewards.get(a, 0.0) for a, _ in participants],
            min_share=0.03)
        for cls, participants, rewards in report.rewarded_classes()
    }


def reward_proportionality(report: SimReport) -> Verdict:
    """Criterion 4: both classes rewarded, each within 5 % of proportional."""
    scores = fairness_scores(report)
    return (set(scores) == {"pow", "pos"} and all(s < 0.05 for s in scores.values()),
            "worst deviation " + " ".join(f"{c} {scores[c]:.4f}" for c in ("pow", "pos")
                                          if c in scores))


def difficulty_equilibrium(report: SimReport) -> Verdict:
    """Criterion 5: post-warm-up ``d_s/d_w`` mean in [8.5, 11.5], and both
    difficulties within [0.7, 1.4] of their equilibria after warm-up."""
    tail_w = report.difficulty_trace_w[WARMUP_BLOCKS:]
    tail_s = report.difficulty_trace_s[WARMUP_BLOCKS:]
    ratio = report.ratio_mean
    if ratio is None or not tail_w or not tail_s:
        return False, "run too short to pass warm-up"
    target_w, target_s = report.config.equilibrium_difficulties
    exc_w = [d / target_w for d in tail_w]
    exc_s = [d / target_s for d in tail_s]
    passed = (
        8.5 <= ratio <= 11.5
        and 0.7 <= min(exc_w) and max(exc_w) <= 1.4
        and 0.7 <= min(exc_s) and max(exc_s) <= 1.4
    )
    return passed, (
        f"d_s/d_w mean {ratio:.3f}, d_w in [{min(exc_w):.3f}, {max(exc_w):.3f}]x"
        f"{target_w:.0f}, d_s in [{min(exc_s):.3f}, {max(exc_s):.3f}]x{target_s:.0f}")


def stake_splitting(nas: SplitStakeReport) -> Verdict:
    """Criterion 9's delay clause: split and single delays indistinguishable,
    and the split set's delays fitting the pooled-rate model, both at 1 %."""
    return (nas.indistinguishable and nas.ks_split_vs_model < nas.ks_model_critical,
            f"two-sample KS {_below(nas.ks_two_sample, nas.ks_two_sample_critical)} "
            f"over {nas.rounds} rounds, "
            f"model KS {_below(nas.ks_split_vs_model, nas.ks_model_critical)}")


def honest_negatives(evidence_counts: Sequence[int]) -> Verdict:
    """Criterion 12's negative clause: honest runs yield no evidence."""
    runs, total = len(evidence_counts), sum(evidence_counts)
    return total == 0, f"evidence over {runs} honest seed{'s' * (runs != 1)}: {total}"

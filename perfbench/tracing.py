"""Call tracing for the benchmark's traced runs.

The tracer wraps public functions and methods of the powpos modules at the
place where their callers look them up (a module attribute for names that
are imported by name, a class attribute for methods), so nothing in the
package is edited.  Wrappers are installed for one operation and removed
afterwards; untraced operations and the correctness checks run on the
original code.

Every wrapped call records a span ``[key, start, end, parent, op_id,
child_time]``.  A span's self time is its duration minus the time its child
spans cover.  Observers attached to a few targets add exact counts that only
the call site can see (import results, tips scanned, detector rows).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# Span record fields.
KEY, START, END, PARENT, OP, CHILD = range(6)

Observer = Callable[[Counter, tuple, object], None]


def _count_import(counts: Counter, args: tuple, result) -> None:
    counts["chain.import.result." + result.value] += 1


def _count_tips(counts: Counter, args: tuple, result) -> None:
    counts["chain.fork_choice.tips_scanned"] += len(args[0].tips)


def _count_armed(counts: Counter, args: tuple, result) -> None:
    counts["forging.armed"] += 1


def _count_detector(counts: Counter, args: tuple, result) -> None:
    counts["slashing.rows"] += len(args[0])
    counts["slashing.evidence"] += len(result)


def powpos_targets() -> List[tuple]:
    """``(owner, attribute, span key, observer)`` for every traced call site."""
    from powpos import (attacks, chain, cli, crypto, difficulty, forging, ledger,
                        simnet, slashing, stats)

    return [
        (crypto.HashOracle, "hash", "crypto.hash", None),
        (difficulty.AdaptiveRule, "expected", "difficulty.expected", None),
        (difficulty.FrozenRule, "expected", "difficulty.expected", None),
        # simnet imports the forging entry points by name; forge_pos_block
        # reaches pos_eligibility through the forging module itself.
        (simnet, "pow_solve_time", "forging.pow_solve", _count_armed),
        (simnet, "pos_eligibility", "forging.pos_eligibility", _count_armed),
        (forging, "pos_eligibility", "forging.pos_eligibility", None),
        (simnet, "build_pow_block", "forging.build", None),
        (simnet, "forge_pos_block", "forging.build", None),
        (ledger.Ledger, "voting_power", "ledger.voting_power", None),
        (chain.BlockTree, "import_block", "chain.import", _count_import),
        (chain.BlockTree, "fork_choice", "chain.fork_choice", _count_tips),
        (simnet, "run", "simnet.run", None),
        (simnet, "write_artifacts", "simnet.write_artifacts", None),
        (slashing, "detect_all", "slashing.detect_all", _count_detector),
        (cli, "cmd_stats", "cli.stats", None),
        (stats, "fit_exponential", "stats.fit_exponential", None),
        (stats, "exponential_ks", "stats.ks", None),
        (stats, "two_sample_ks", "stats.ks", None),
        (attacks, "double_spend_win_rate", "attacks.double_spend_win_rate", None),
        (attacks, "run_private_double_spend", "attacks.private_double_spend", None),
        (attacks, "run_split_stake_nas", "attacks.split_stake", None),
        (attacks, "selfish_mining_comparison", "attacks.selfish", None),
        (slashing, "public_double_spend_win_rate", "attacks.public_double_spend", None),
        (attacks, "run_long_range_attack", "attacks.long_range", None),
    ]


class OpTrace:
    """Aggregates of one traced operation."""

    def __init__(self, spans: List[list], counts: Counter):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        for span in spans:
            key = span[KEY]
            duration = span[END] - span[START]
            self.calls[key] += 1
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - span[CHILD]
            # Inclusive time; read only for keys that never nest in themselves.
            self.total_s[key] = self.total_s.get(key, 0.0) + duration
            self.durations.setdefault(key, []).append(duration)
        self.counts = counts
        self.span_count = len(spans)

    def exact_counts(self) -> dict:
        """Everything in this trace that must repeat exactly across ops."""
        return {**self.calls, **self.counts}


class Tracer:
    def __init__(self, targets: List[tuple]):
        self.targets = targets
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.op_id: Optional[int] = None

    def _wrap(self, key: str, fn, observe: Optional[Observer]):
        spans = self.spans
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [key, clock(), 0.0, parent, tracer.op_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[END] = end
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one operation; the yielded list receives its ``OpTrace``."""
        saved = []
        for owner, attr, key, observe in self.targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(key, original, observe))
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.op_id = op_id
        root = ["op", time.perf_counter(), 0.0, -1, op_id, 0.0]
        self.stack.append(0)
        self.spans.append(root)
        result: List[OpTrace] = []
        try:
            yield result
        finally:
            root[END] = time.perf_counter()
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            result.append(OpTrace(self.spans, Counter(self.counts)))
            self.spans.clear()
            self.stack.clear()
            self.op_id = None

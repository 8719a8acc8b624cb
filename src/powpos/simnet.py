"""Deterministic discrete-event simulation of the hybrid chain network.

Miners and stakers produce blocks against their current view of the chain.
Under perfect latency every participant shares one view, which the engine
exploits by keeping a single block tree.  Under a latency model each
participant gets its own replica fed by per-message delivery events, plus an
omniscient observer replica used only for metrics.

Everything runs off one virtual clock and one run seed.  Event ties are
broken by sequence number, taken in order by every production draw and
every delivery, mining solve times come from one RNG stream per view, and
forging delays are pure functions of chain state, so a run is a
deterministic function of its configuration.

Scale note: each view holds at most one pool per block kind: one of each
under perfect latency, a pool of one per replica under a latency model.  A
mining pool is one Poisson stream, one exponential wait at its summed hash
power, redrawn only when it fired or ``d_w`` moved (by memorylessness a
pending wait survives any other tip change); when it fires, the winner is
drawn by hash share.  A staking pool reruns ``pos_winner`` only when its
seed anchor or ``d_s`` moves: every staker still signs every anchor, but
only the earliest slot is kept, and the winner forges from that very
``PosEligibility``.  Each view holds one live production event, for its
earliest pending pool and under the ``(instant, sequence number)`` key of
that pool's draw, so under perfect latency a stored block costs about one
draw and one heap push.  Voting power is read once per staker and run, and
expected difficulty is memoised per block.  The flagship configuration (ten
miners, ten stakers, thirty days, a quarter million blocks) takes about
twenty seconds.

Under a latency model the replicas are made with ``BlockTree.replica`` from
the observer's tree, and the observer imports every block first, so each
block's node (weight, anchors and expected-difficulty memos) is stored once
and every replica holds the observer's node.  Delivery takes one event per
arrival instant, carrying every view that receives the block then: one event
per block under ``fixed:``, one per replica under ``uniform:``.  A block
still costs one validated import per replica, and the cost per stored block
does not grow with the horizon.

Reports and ``powpos stats`` summarise a canonical chain through
``canonical_series`` and ``interarrival_summary``, so they agree; ``criteria``
judges the reports that ``powpos check`` and the acceptance tests run.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import stats
from .chain import POS, POW, REJECTED_FUTURE, Block, BlockTree, ImportResult, make_genesis
from .crypto import HashOracle, KeyPair
from .difficulty import AdaptiveRule, DifficultyParams
from .forging import (
    MinerContext,
    PosEligibility,
    StakerContext,
    build_pow_block,
    forge_pos_block,
    pos_eligibility,  # unused here; call tracers look the forging names up on simnet
    pos_winner,
    pow_solve_time,
)
from .ledger import Ledger

# Same-kind block count treated as controller warm-up in convergence metrics.
WARMUP_BLOCKS = 2000

# The import results that store the block.
_STORED = (ImportResult.EXTENDED_CANONICAL, ImportResult.SIDE_CHAIN, ImportResult.REORG)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Per-message delivery delay: none, a constant, or a uniform range."""

    kind: str = "perfect"
    lo: float = 0.0
    hi: float = 0.0

    @classmethod
    def perfect(cls) -> "LatencyModel":
        return cls("perfect")

    @classmethod
    def fixed(cls, delay: float) -> "LatencyModel":
        return cls("fixed", delay, delay)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "LatencyModel":
        return cls("uniform", lo, hi)

    @classmethod
    def parse(cls, spec: str) -> "LatencyModel":
        parts = spec.strip().split(":")
        try:
            if parts[0] == "perfect" and len(parts) == 1:
                return cls.perfect()
            if parts[0] == "fixed" and len(parts) == 2:
                return cls.fixed(float(parts[1]))
            if parts[0] == "uniform" and len(parts) == 3:
                return cls.uniform(float(parts[1]), float(parts[2]))
        except ValueError:
            pass
        raise ConfigError(
            f"bad latency spec {spec!r}; expected perfect, fixed:SECS or uniform:LO:HI"
        )

    @property
    def is_perfect(self) -> bool:
        return self.kind == "perfect"

    def validate(self) -> None:
        if self.kind not in ("perfect", "fixed", "uniform"):
            raise ConfigError(f"unknown latency kind {self.kind!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("latency bounds must be finite")
        if self.lo < 0 or self.hi < self.lo:
            raise ConfigError("latency bounds must satisfy 0 <= lo <= hi")

    def sample(self, rng) -> float:
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi)
        return self.lo

    def spec_string(self) -> str:
        if self.kind == "perfect":
            return "perfect"
        if self.kind == "fixed":
            return f"fixed:{self.lo:g}"
        return f"uniform:{self.lo:g}:{self.hi:g}"


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Run parameters.

    ``t`` is the combined block-time target in seconds; each kind then aims
    for one block per ``2t``.  ``stakers`` and ``miners`` are (account,
    power) pairs; stake is granted at genesis and never moves.
    """

    t: float = 10.0
    alpha: float = 0.01
    duration: float = 3600.0
    stakers: Tuple[Tuple[int, float], ...] = ()
    miners: Tuple[Tuple[int, float], ...] = ()
    t_future: float = 10.0
    latency: LatencyModel = LatencyModel("perfect")
    block_reward: float = 1.0
    rng_seed: int = 1
    d_genesis_w: float = 1.0
    d_genesis_s: float = 1.0
    d_min: float = 1e-9
    slashing: str = "off"

    def validate(self) -> None:
        # NaN fails every comparison below, so non-finite values are caught
        # first and explicitly.
        problems = [
            f"{name} must be finite"
            for name in ("t", "alpha", "duration", "t_future", "block_reward",
                         "d_genesis_w", "d_genesis_s", "d_min")
            if not math.isfinite(getattr(self, name))
        ]
        if not all(math.isfinite(v) for _, v in self.stakers + self.miners):
            problems.append("stakes and hash powers must be finite")
        elif self.t > 0:  # fork choice ranks chains by td_w * td_s: keep it finite to the horizon
            n = self.duration / (2.0 * self.t)
            d_w, d_s = self.equilibrium_difficulties
            if not math.isfinite((1.0 + d_w * n) * (1.0 + d_s * n)):
                problems.append("chain weight td_w * td_s would overflow before the horizon")
        if self.t <= 0:
            problems.append("t must be positive")
        if self.alpha <= 0:
            problems.append("alpha must be positive")
        if self.duration <= 0:
            problems.append("duration must be positive")
        if not self.stakers and not self.miners:
            problems.append("at least one staker or miner is required")
        accounts = [a for a, _ in self.stakers] + [a for a, _ in self.miners]
        if len(set(accounts)) != len(accounts):
            problems.append("participant accounts must be unique")
        if any(v <= 0 for _, v in self.stakers):
            problems.append("stakes must be positive")
        if any(v <= 0 for _, v in self.miners):
            problems.append("hash powers must be positive")
        if self.t_future < 0:
            problems.append("t_future must be non-negative")
        if self.block_reward < 0:
            problems.append("block_reward must be non-negative")
        if self.d_genesis_w <= 0 or self.d_genesis_s <= 0:
            problems.append("genesis difficulties must be positive")
        if self.d_min <= 0:
            problems.append("d_min must be positive")
        try:
            self.latency.validate()
        except ConfigError as exc:
            problems.append(str(exc))
        mode = self.slashing.split(":")[0]
        if mode not in ("off", "evidence", "dunkle"):
            problems.append(f"unknown slashing mode {self.slashing!r}")
        elif mode == "dunkle":
            parts = self.slashing.split(":")
            try:
                if len(parts) != 2 or not 0 < float(parts[1]) < math.inf:
                    raise ValueError
            except ValueError:
                problems.append("dunkle slashing needs a finite positive multiple, dunkle:N")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def difficulty_params(self) -> DifficultyParams:
        return DifficultyParams(
            target_gap=2.0 * self.t,
            alpha=self.alpha,
            d_min=self.d_min,
            d_genesis_w=self.d_genesis_w,
            d_genesis_s=self.d_genesis_s,
        )

    @property
    def total_stake(self) -> float:
        return sum(v for _, v in self.stakers)

    @property
    def total_hash(self) -> float:
        return sum(v for _, v in self.miners)

    @property
    def equilibrium_difficulties(self) -> Tuple[float, float]:
        """``(d_w, d_s)`` at which each kind's total power yields one block per ``2t``."""
        return self.total_hash * 2.0 * self.t, self.total_stake * 2.0 * self.t

    def summary_dict(self) -> dict:
        return {
            "t": self.t,
            "alpha": self.alpha,
            "duration": self.duration,
            "stakers": [[a, v] for a, v in self.stakers],
            "miners": [[a, v] for a, v in self.miners],
            "t_future": self.t_future,
            "latency": self.latency.spec_string(),
            "block_reward": self.block_reward,
            "rng_seed": self.rng_seed,
            "d_genesis_w": self.d_genesis_w,
            "d_genesis_s": self.d_genesis_s,
            "d_min": self.d_min,
            "slashing": self.slashing,
        }


def baseline_config(**overrides) -> SimConfig:
    """The flagship 30-day configuration: ten stakers against ten miners."""
    stakes = [160.0, 80.0, 40.0, 30.0, 20.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    hashes = [16.0, 8.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    cfg = SimConfig(
        t=10.0,
        alpha=0.01,
        duration=30 * 86400.0,
        stakers=tuple((i, s) for i, s in enumerate(stakes)),
        miners=tuple((10 + i, h) for i, h in enumerate(hashes)),
        rng_seed=2,
    )
    return replace(cfg, **overrides) if overrides else cfg


def quick_config(**overrides) -> SimConfig:
    """A six-hour variant of the baseline for demos and determinism checks."""
    overrides.setdefault("duration", 6 * 3600.0)
    return baseline_config(**overrides)


def _parse_participants(raw: str, auto_start: int) -> Tuple[Tuple[int, float], ...]:
    entries = raw.replace(",", " ").split()
    out = []
    next_account = auto_start
    for entry in entries:
        if ":" in entry:
            acct_text, amount_text = entry.split(":", 1)
            account = int(acct_text)
            amount = float(amount_text)
        else:
            account = next_account
            amount = float(entry)
        next_account = max(next_account, account + 1)
        out.append((account, amount))
    return tuple(out)


def parse_config_file(path: str) -> SimConfig:
    """Read a flat key = value file into a :class:`SimConfig`.

    Unknown keys are errors.  ``stakers``/``miners`` take space- or
    comma-separated powers, either bare or as explicit ``account:power``
    pairs.  A bare power takes the next free account: stakers count from 0,
    and miners from one past the highest staker account, in either line
    order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    raw: Dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in text.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    kwargs: Dict[str, object] = {}
    casts = {
        "t": float,
        "alpha": float,
        "duration": float,
        "t_future": float,
        "block_reward": float,
        "rng_seed": int,
        "d_genesis_w": float,
        "d_genesis_s": float,
        "d_min": float,
    }
    for key, value in sorted(raw.items(), key=lambda item: item[0] == "miners"):
        try:  # miners last, so that they number after every staker
            if key in casts:
                kwargs[key] = casts[key](value)
            elif key == "stakers":
                kwargs[key] = _parse_participants(value, auto_start=0)
            elif key == "miners":
                start = max((a + 1 for a, _ in kwargs.get("stakers", ())), default=0)
                kwargs[key] = _parse_participants(value, auto_start=start)
            elif key == "latency":
                kwargs[key] = LatencyModel.parse(value)
            elif key == "slashing":
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    config = SimConfig(**kwargs)  # type: ignore[arg-type]
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Engine


@dataclass(slots=True)
class _MiningPool:
    """A view's miners as one stream.  By Poisson superposition their
    earliest solve is one exponential wait at their summed hash power, won
    by each miner with probability ``h_i / sum h``; by memorylessness a
    pending wait stays valid for as long as ``d_w`` does."""

    miners: List[MinerContext]
    rng: random.Random
    merged: MinerContext  # the summed hash power, under the first miner's account
    cum_hash: List[float]  # cumulative hash power, for the winner's draw
    # The pending solve instant (inf when none), the sequence number of the
    # draw that set it, and the difficulty it was drawn at.
    due: float = math.inf
    seq: int = 0
    d_w: float = 0.0


@dataclass(slots=True)
class _StakingPool:
    """A view's stakers and the winner of their lottery: its index and its
    slot, which names the seed anchor and ``d_s`` it was drawn on."""

    stakers: List[StakerContext]
    lottery: List[Tuple[KeyPair, float]]  # (key, voting power) per staker
    due: float = math.inf
    seq: int = 0
    winner: Optional[int] = None
    slot: Optional[PosEligibility] = None


@dataclass(slots=True)
class _View:
    index: int
    tree: BlockTree
    # Blocks whose parent has not arrived yet, keyed by the missing parent.
    orphans: Dict[int, List[Block]] = field(default_factory=dict)
    mining: Optional[_MiningPool] = None
    staking: Optional[_StakingPool] = None
    # The ``(due, seq)`` key of the view's live production event, if any, and
    # the epoch that event carries; every re-arm bumps the epoch, so earlier
    # events of the view are stale.
    armed: Optional[Tuple[float, int]] = None
    epoch: int = 0


class _Engine:
    def __init__(self, config: SimConfig):
        self.config = config
        self.oracle = HashOracle(config.rng_seed)
        self.params = config.difficulty_params
        self.genesis = make_genesis(self.oracle)
        self.ledger = Ledger(config.stakers)

        self.observer = _View(0, BlockTree(self.genesis, AdaptiveRule(self.params)))
        self.views = [self.observer]
        miners = [MinerContext(account, power) for account, power in config.miners]
        stakers = [StakerContext(a, self.oracle.keypair(a)) for a, _stake in config.stakers]
        # Stake is fixed from genesis, so each staker's power is read once.
        powers = {s.account: self.ledger.voting_power(s.account) for s in stakers}
        if config.latency.is_perfect:  # one shared view, one pool of each kind
            pools = [(self.observer, miners, stakers)]
        else:  # a view per participant, miners first
            pools = ([(self._new_view(), [m], []) for m in miners]
                     + [(self._new_view(), [], [s]) for s in stakers])
        for view, pool_miners, pool_stakers in pools:
            if pool_miners:
                cum_hash = list(accumulate(m.hash_power for m in pool_miners))
                view.mining = _MiningPool(
                    pool_miners, self.oracle.rng("miner", *(m.account for m in pool_miners)),
                    MinerContext(pool_miners[0].account, cum_hash[-1]), cum_hash)
            if pool_stakers:
                view.staking = _StakingPool(
                    pool_stakers, [(s.key, powers[s.account]) for s in pool_stakers])

        self.latency_rng = self.oracle.rng("latency")
        self.heap: List[tuple] = []
        self._seq = 0
        self.produced = 0

    def _new_view(self) -> _View:
        view = _View(len(self.views), self.observer.tree.replica())
        self.views.append(view)
        return view

    # -- events ----------------------------------------------------------

    def _push(self, at: float, tag: str, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (at, self._seq, tag, payload))

    def _arm(self, view: _View) -> None:
        """Make the view's live production event the one of its earliest
        pending pool, keyed by that pool's ``(due, seq)``."""
        key, kind = None, None
        for pool, pool_kind in ((view.mining, POW), (view.staking, POS)):
            if (pool is not None and pool.due < math.inf
                    and (key is None or (pool.due, pool.seq) < key)):
                key, kind = (pool.due, pool.seq), pool_kind
        if key == view.armed:
            return  # the live event already carries it
        view.armed = key
        view.epoch += 1
        if key is not None:
            heapq.heappush(self.heap, (*key, "produce", (view.index, view.epoch, kind)))

    def _refresh(self, view: _View, now: float) -> None:
        """Redraw the view's pending production where its tip changed it, then arm it."""
        if now > self.config.duration:
            return
        tree = view.tree
        tip = tree.canonical_tip
        mining, staking = view.mining, view.staking
        if mining is not None:
            d_w = tree.expected_difficulty(tip, POW)
            if mining.due == math.inf or mining.d_w != d_w:  # fired, or the rate moved
                self._seq += 1
                mining.due = now + pow_solve_time(mining.merged, d_w, mining.rng)
                mining.seq, mining.d_w = self._seq, d_w
        if staking is not None:
            d_s = tree.expected_difficulty(tip, POS)
            anchor = tree.seed_anchor(tip)
            slot = staking.slot
            if staking.due == math.inf or slot.anchor_id != anchor.id or slot.difficulty != d_s:
                staking.winner, staking.slot = pos_winner(self.oracle, anchor, d_s,
                                                          staking.lottery)
                staking.due = max(now, staking.slot.eligible_at)
                if staking.due < math.inf:
                    self._seq += 1
                    staking.seq = self._seq
        self._arm(view)

    def _publish(self, view: _View, block: Block, now: float) -> None:
        replicated = view is not self.observer
        if replicated:
            # The observer first, so that the producer's view shares its lineage.
            self.observer.tree.import_block(block)
        before = view.tree.canonical_tip
        result = view.tree.import_block(block, now, self.config.t_future)
        assert result in _STORED, f"own block import failed: {result}"
        self.produced += 1
        if replicated:
            # One event per arrival instant.  Per-view events for one instant
            # would hold consecutive sequence numbers, so nothing could run
            # between them, and handling them in view order is the same.
            arrivals: Dict[float, List[int]] = {}
            for other in self.views[1:]:
                if other is not view:
                    at = now + self.config.latency.sample(self.latency_rng)
                    arrivals.setdefault(at, []).append(other.index)
            for at, indices in arrivals.items():
                self._push(at, "deliver", (indices, block))
        if view.tree.canonical_tip != before:
            self._refresh(view, now)

    def _receive(self, view: _View, block: Block, now: float) -> None:
        # The one membership test: a block whose parent has not arrived
        # waits; import_block answers every other case, duplicates included.
        tree = view.tree
        if block.parent_id not in tree.nodes:
            view.orphans.setdefault(block.parent_id, []).append(block)
            return
        before = tree.canonical_tip
        result = tree.import_block(block, now, self.config.t_future)
        if result is REJECTED_FUTURE:
            self._push(block.timestamp - self.config.t_future, "deliver", ((view.index,), block))
            return
        if result in _STORED:
            waiting = view.orphans.pop(block.id, None)
            if waiting:
                for child in waiting:
                    self._receive(view, child, now)
            if tree.canonical_tip != before:
                self._refresh(view, now)

    def _fire_pow(self, view: _View, now: float) -> None:
        mining = view.mining
        mining.due = math.inf
        miner = (mining.rng.choices(mining.miners, cum_weights=mining.cum_hash)[0]
                 if len(mining.miners) > 1 else mining.miners[0])
        block = build_pow_block(self.oracle, view.tree, view.tree.canonical_tip, miner,
                                solved_at=now)
        self._publish(view, block, now)

    def _fire_pos(self, view: _View, now: float) -> None:
        # The tip has the seed anchor and difficulty the slot was drawn on:
        # any other tip would have refreshed the view.
        staking = view.staking
        staking.due = math.inf
        block = forge_pos_block(self.oracle, view.tree, view.tree.canonical_tip,
                                staking.stakers[staking.winner], staking.slot, now=now)
        self._publish(view, block, now)

    def run(self) -> None:
        for view in self.views:
            self._refresh(view, 0.0)
        duration = self.config.duration
        while self.heap:
            at = self.heap[0][0]
            draining = at > duration
            at, _seq, tag, payload = heapq.heappop(self.heap)
            if tag == "produce":
                if draining:
                    continue  # production stops at the horizon
                index, epoch, kind = payload
                view = self.views[index]
                if epoch != view.epoch:
                    continue
                view.armed = None
                if kind is POW:
                    self._fire_pow(view, at)
                else:
                    self._fire_pos(view, at)
                if view.armed is None:  # no refresh re-armed the view
                    self._arm(view)
            else:  # "deliver"
                indices, block = payload
                for index in indices:
                    self._receive(self.views[index], block, at)


# ---------------------------------------------------------------------------
# Reports

@dataclass(slots=True)
class CanonicalSeries:
    """What every summary of a canonical chain reads, gathered in one pass."""

    timestamps: Dict[str, List[float]]  # "all", "pow", "pos"; in chain order
    traces: Dict[str, List[float]]  # difficulty per kind, in chain order
    ratio_samples: List[float]  # d_s/d_w once both kinds pass warm-up

    def gaps(self, cls: str) -> List[float]:
        ordered = sorted(self.timestamps[cls])
        return [b - a for a, b in zip(ordered, ordered[1:])]


def canonical_series(blocks: Iterable[Tuple[str, float, float]]) -> CanonicalSeries:
    """One pass over a canonical chain without genesis, in chain order, as
    ``(kind, timestamp, difficulty)`` with ``kind`` "pow" or "pos"."""
    series = CanonicalSeries({"all": [], "pow": [], "pos": []}, {"pow": [], "pos": []}, [])
    trace_w, trace_s = series.traces["pow"], series.traces["pos"]
    for kind, timestamp, difficulty in blocks:
        series.timestamps["all"].append(timestamp)
        series.timestamps[kind].append(timestamp)
        series.traces[kind].append(difficulty)
        if len(trace_w) > WARMUP_BLOCKS and len(trace_s) > WARMUP_BLOCKS:
            series.ratio_samples.append(trace_s[-1] / trace_w[-1])
    return series


def interarrival_summary(gaps: Sequence[float]) -> dict:
    """The ``report.json`` entry of one class: its count, and its exponential
    fit once it has ``MIN_FIT_SAMPLES`` gaps."""
    if len(gaps) < stats.MIN_FIT_SAMPLES:
        return {"count": len(gaps)}
    fit = stats.fit_exponential(gaps)
    return {
        "count": fit.sample_count,
        "mean": fit.mean,
        "std": fit.std,
        "rate": fit.rate,
        "ks": fit.ks_statistic,
        "ks_critical_1pct": stats.ks_critical(fit.sample_count),
    }


@dataclass
class SimReport:
    """Outcome of one run, with the observer tree attached for inspection."""

    config: SimConfig
    total_blocks: int
    pow_blocks: int
    pos_blocks: int
    stored_blocks: int
    orphan_count: int
    canonical_height: int
    td_w: float
    td_s: float
    interarrival_all: List[float]
    interarrival_pow: List[float]
    interarrival_pos: List[float]
    rewards_pow: Dict[int, float]
    rewards_pos: Dict[int, float]
    difficulty_trace_w: List[float]
    difficulty_trace_s: List[float]
    ratio_samples: List[float]
    seconds_histogram: Dict[int, int]
    runtime_seconds: float
    evidence: Optional[list] = None
    dunkle_net: Optional[Dict[int, float]] = None
    tree: Optional[BlockTree] = None

    @property
    def rewards(self) -> Dict[int, float]:
        combined = dict(self.rewards_pow)
        for account, amount in self.rewards_pos.items():
            combined[account] = combined.get(account, 0.0) + amount
        return combined

    @property
    def interarrivals(self) -> Dict[str, List[float]]:
        return {"all": self.interarrival_all, "pow": self.interarrival_pow,
                "pos": self.interarrival_pos}

    @cached_property
    def interarrival_fits(self) -> Dict[str, dict]:
        """``interarrival_summary`` per class, fitted once per report."""
        return {c: interarrival_summary(g) for c, g in self.interarrivals.items()}

    def rewarded_classes(self) -> List[tuple]:
        """``(class, participants, rewards)`` per class with power and reward, stakers first."""
        return [(cls, participants, rewards) for cls, participants, rewards in (
            ("pos", self.config.stakers, self.rewards_pos),
            ("pow", self.config.miners, self.rewards_pow),
        ) if sum(v for _, v in participants) > 0 and sum(rewards.values()) > 0]

    @property
    def same_second_excess(self) -> int:
        """Canonical blocks beyond the first in each occupied whole second."""
        return sum((n - 1) * seconds for n, seconds in self.seconds_histogram.items())

    @property
    def ratio_mean(self) -> Optional[float]:
        """Mean post-warm-up ``d_s/d_w``; None before both kinds pass warm-up."""
        return float(np.mean(self.ratio_samples)) if self.ratio_samples else None

    def to_summary_dict(self) -> dict:
        out = {
            "config": self.config.summary_dict(),
            "blocks": {
                "total": self.total_blocks,
                "pow": self.pow_blocks,
                "pos": self.pos_blocks,
                "stored": self.stored_blocks,
                "orphaned": self.orphan_count,
                "canonical_height": self.canonical_height,
            },
            "weights": {
                "td_w": self.td_w,
                "td_s": self.td_s,
                "product": self.td_w * self.td_s,
            },
            "interarrivals": {c: dict(f) for c, f in self.interarrival_fits.items()},
            "difficulty": {
                "final_w": self.difficulty_trace_w[-1] if self.difficulty_trace_w else None,
                "final_s": self.difficulty_trace_s[-1] if self.difficulty_trace_s else None,
                "ratio_mean_post_warmup": self.ratio_mean,
                "warmup_blocks": WARMUP_BLOCKS,
            },
            "rewards": {
                "pow": {str(a): v for a, v in sorted(self.rewards_pow.items())},
                "pos": {str(a): v for a, v in sorted(self.rewards_pos.items())},
                "total": sum(self.rewards_pow.values()) + sum(self.rewards_pos.values()),
            },
            "orphan_proxy": orphan_proxy(self),
            "seconds_histogram": {str(k): v for k, v in sorted(self.seconds_histogram.items())},
        }
        if self.evidence is not None:
            out["slashing"] = {
                "mode": self.config.slashing,
                "evidence_count": len(self.evidence),
            }
            if self.dunkle_net is not None:
                out["slashing"]["dunkle_net"] = {
                    str(a): v for a, v in sorted(self.dunkle_net.items())
                }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_summary_dict(), sort_keys=True, indent=2) + "\n"


def run(config: SimConfig) -> SimReport:
    """Run one simulation to its horizon and summarize the observer view."""
    config.validate()
    started = time.perf_counter()
    engine = _Engine(config)
    engine.run()
    return _build_report(engine, time.perf_counter() - started)


def _build_report(engine: _Engine, runtime: float) -> SimReport:
    config = engine.config
    tree = engine.observer.tree
    chain = tree.canonical_chain()
    blocks = chain[1:]  # genesis is not a produced block
    series = canonical_series((b.kind.value, b.timestamp, b.difficulty) for b in blocks)

    rewards = {"pow": {a: 0.0 for a, _ in config.miners},
               "pos": {a: 0.0 for a, _ in config.stakers}}
    for b in blocks:
        credited = rewards[b.kind.value]
        credited[b.producer] = credited.get(b.producer, 0.0) + config.block_reward

    hist = Counter(int(math.floor(t)) for t in series.timestamps["all"])
    seconds_histogram = Counter(hist.values())

    tip_weight = tree.chain_weight(tree.canonical_tip)
    report = SimReport(
        config=config,
        total_blocks=len(blocks),
        pow_blocks=len(series.traces["pow"]),
        pos_blocks=len(series.traces["pos"]),
        stored_blocks=len(tree) - 1,
        orphan_count=len(tree) - 1 - len(blocks),
        canonical_height=blocks[-1].height if blocks else 0,
        td_w=tip_weight.td_w,
        td_s=tip_weight.td_s,
        interarrival_all=series.gaps("all"),
        interarrival_pow=series.gaps("pow"),
        interarrival_pos=series.gaps("pos"),
        rewards_pow=rewards["pow"],
        rewards_pos=rewards["pos"],
        difficulty_trace_w=series.traces["pow"],
        difficulty_trace_s=series.traces["pos"],
        ratio_samples=series.ratio_samples,
        seconds_histogram=dict(seconds_histogram),
        runtime_seconds=runtime,
        tree=tree,
    )

    mode = config.slashing.split(":")[0]
    if mode in ("evidence", "dunkle"):
        from . import slashing as slashing_mod

        rows = list(tree.dump_rows())
        report.evidence = slashing_mod.detect_all(rows)
        if mode == "dunkle":
            # The observer tree's fork choice decides which rows are side rows.
            canonical = {format(b.id, "064x") for b in chain}
            report.dunkle_net = slashing_mod.dunkle_settlement(
                [r for r in rows if r["id"] in canonical],
                [r for r in rows if r["id"] not in canonical],
                config.block_reward, float(config.slashing.split(":")[1]))
    return report


# ---------------------------------------------------------------------------
# Derived metrics


def poisson_collision_fraction(rate: float) -> float:
    """Expected fraction of Poisson arrivals sharing a 1 s slot with an earlier one.

    For arrivals at ``rate`` per second, a unit interval holds ``rate`` blocks
    in expectation of which ``1 - exp(-rate)`` are firsts; the rest would lose
    a propagation race in a real network.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    return (rate - (1.0 - math.exp(-rate))) / rate


def orphan_proxy(report: SimReport) -> float:
    """Estimated (perfect latency) or actual (latency model) orphan fraction."""
    if report.total_blocks == 0:
        return 0.0
    if report.config.latency.is_perfect:
        return report.same_second_excess / report.total_blocks
    return report.orphan_count / max(report.stored_blocks, 1)


# ---------------------------------------------------------------------------
# Artifacts


ARTIFACT_NAMES = ("report.json", "interarrivals.csv", "rewards.csv",
                  "difficulty.csv", "blocks.jsonl")


def write_artifacts(report: SimReport, outdir: str, force: bool = False) -> List[str]:
    """Write the run artifacts; refuses to overwrite without ``force``."""
    os.makedirs(outdir, exist_ok=True)
    existing = [n for n in ARTIFACT_NAMES if os.path.exists(os.path.join(outdir, n))]
    if existing and not force:
        raise FileExistsError(
            f"artifacts already present in {outdir} ({', '.join(existing)}); "
            "pass force to overwrite"
        )
    paths = []

    path = os.path.join(outdir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    paths.append(path)

    path = os.path.join(outdir, "interarrivals.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("class,gap_seconds\n")
        for cls, samples in report.interarrivals.items():
            for gap in samples:
                fh.write(f"{cls},{gap!r}\n")
    paths.append(path)

    path = os.path.join(outdir, "rewards.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("account,class,power,reward\n")
        for cls, participants, rewards in report.rewarded_classes():
            for account, power in participants:
                fh.write(f"{account},{cls},{power!r},{rewards.get(account, 0.0)!r}\n")
    paths.append(path)

    path = os.path.join(outdir, "difficulty.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,kind,difficulty\n")
        for kind, trace in (("pow", report.difficulty_trace_w),
                            ("pos", report.difficulty_trace_s)):
            for index, value in enumerate(trace):
                fh.write(f"{index},{kind},{value!r}\n")
    paths.append(path)

    path = os.path.join(outdir, "blocks.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        if report.tree is not None:
            report.tree.write_jsonl(fh)
    paths.append(path)
    return paths

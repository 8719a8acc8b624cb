"""Evidence detection and penalty accounting for staking misbehavior.

Detectors run offline over block-tree dumps (the row format produced by
``BlockTree.dump_rows``), so they can audit a finished run or a file
written by another process.  Two rules are implemented:

* double production: one staker, two distinct PoS blocks at one height;
* weight/timestamp: a staker extended a chain of weight w1 at timestamp
  t1 and also a no-heavier chain (w2 <= w1) at a no-earlier time
  (t2 >= t1).  Honest producers always move to strictly heavier chains,
  so any such pair certifies equivocation.

Chain weight is measured at production time: the weight of the declared
parent's chain.  Note that deliberately splitting stake across accounts
defeats both detectors by design; nothing links the accounts.

Settlement follows the dunkle scheme: a canonical PoS block earns R, and
the same chain debits n*R for every PoS block its producer signed on a
competing fork.  The bound on n comes from requiring honest expected
revenue (1-a)R - a*n*R to stay positive at orphan rate a.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .attacks import ATTACKER, HONEST, _public_race, _race, _seeded_trials
from .crypto import HashOracle
from .ledger import Ledger
from .simnet import SimConfig


POS = "pos"


class EvidenceKind(enum.Enum):
    DOUBLE_PRODUCTION = "double_production"
    WEIGHT_TIMESTAMP = "weight_timestamp"


@dataclass(frozen=True, slots=True)
class Evidence:
    kind: EvidenceKind
    staker: int
    blocks: Tuple[str, str]
    details: dict


def _pos_rows(rows: Sequence[dict]) -> List[dict]:
    return [r for r in rows if r["kind"] == POS]


def detect_double_production(rows: Sequence[dict]) -> List[Evidence]:
    """One Evidence per (staker, height) holding two or more distinct PoS ids."""
    groups: Dict[Tuple[int, int], List[dict]] = {}
    for row in _pos_rows(rows):
        groups.setdefault((row["producer"], row["height"]), []).append(row)
    evidence = []
    for (staker, height), members in sorted(groups.items()):
        ids = sorted({m["id"] for m in members})
        if len(ids) < 2:
            continue
        evidence.append(
            Evidence(
                kind=EvidenceKind.DOUBLE_PRODUCTION,
                staker=staker,
                blocks=(ids[0], ids[1]),
                details={"height": height, "block_ids": ids},
            )
        )
    return evidence


def detect_weight_timestamp_violation(rows: Sequence[dict]) -> List[Evidence]:
    """Flag stakers who extended a no-heavier chain at a no-earlier time.

    For each staker the PoS blocks are swept in timestamp order keeping the
    heaviest parent chain seen so far; a block whose parent chain is not
    strictly heavier than that maximum forms a violating pair with the
    block that set it.  One Evidence is emitted per offending block.
    """
    products: Dict[Optional[str], float] = {}
    for row in rows:
        products[row["id"]] = row["td_w"] * row["td_s"]
    by_staker: Dict[int, List[dict]] = {}
    for row in _pos_rows(rows):
        by_staker.setdefault(row["producer"], []).append(row)

    evidence = []
    for staker in sorted(by_staker):
        blocks = sorted(by_staker[staker], key=lambda r: (r["timestamp"], r["id"]))
        best_row = None
        best_weight = -math.inf
        for row in blocks:
            weight = products[row["parent"]]
            if best_row is not None and best_weight >= weight:
                evidence.append(
                    Evidence(
                        kind=EvidenceKind.WEIGHT_TIMESTAMP,
                        staker=staker,
                        blocks=(best_row["id"], row["id"]),
                        details={
                            "w1": best_weight,
                            "t1": best_row["timestamp"],
                            "w2": weight,
                            "t2": row["timestamp"],
                        },
                    )
                )
            if weight > best_weight:
                best_weight = weight
                best_row = row
    return evidence


def detect_all(rows: Sequence[dict]) -> List[Evidence]:
    return detect_double_production(rows) + detect_weight_timestamp_violation(rows)


# ---------------------------------------------------------------------------
# Dunkle settlement


def split_canonical(rows: Sequence[dict]) -> Tuple[List[dict], List[dict]]:
    """Partition a dump into (canonical chain rows, side rows).

    The canonical tip is the heaviest-product block, earliest arrival
    breaking ties; rows are assumed to be in arrival order, as dumps are.
    This is the fork choice of a dump, which has no tree; an in-process run
    asks its tree instead.
    """
    if not rows:
        return [], []
    by_id = {row["id"]: row for row in rows}
    children = set(row["parent"] for row in rows if row["parent"] is not None)
    tip = None
    tip_product = -math.inf
    for row in rows:  # arrival order makes the tie-break first-seen
        if row["id"] in children:
            continue
        product = row["td_w"] * row["td_s"]
        if product > tip_product:
            tip_product = product
            tip = row
    canonical_ids = set()
    cursor = tip
    while cursor is not None:
        canonical_ids.add(cursor["id"])
        parent = cursor["parent"]
        cursor = by_id.get(parent) if parent is not None else None
    canonical = [row for row in rows if row["id"] in canonical_ids]
    side = [row for row in rows if row["id"] not in canonical_ids]
    return canonical, side


def dunkle_settlement(canonical_rows: Sequence[dict], side_rows: Sequence[dict],
                      reward: float, n: float) -> Dict[int, float]:
    """Net PoS revenue per account: +R per canonical block, -n*R per side block."""
    if n <= 0:
        raise ValueError("penalty multiple n must be positive")
    net: Dict[int, float] = {}
    for row in canonical_rows:
        if row["kind"] == POS:
            net[row["producer"]] = net.get(row["producer"], 0.0) + reward
    for row in side_rows:
        if row["kind"] == POS:
            net[row["producer"]] = net.get(row["producer"], 0.0) - n * reward
    return net


def dunkle_n_bound(orphan_rate: float) -> float:
    """Largest penalty multiple keeping honest expected revenue positive.

    An honest staker lands on the losing side of a fork with probability
    ``orphan_rate``; requiring (1-a)R > a*n*R gives n < (1-a)/a.
    """
    if not 0.0 < orphan_rate < 1.0:
        raise ValueError("orphan_rate must be strictly between 0 and 1")
    return (1.0 - orphan_rate) / orphan_rate


def apply_penalties(ledger: Ledger, net: Dict[int, float], height: int) -> Dict[int, float]:
    """Apply a settlement map to a ledger; returns what was actually moved.

    Credits add to liquid balance.  Debits drain liquid, then active, then
    withdrawing stake, and stop at zero: accounts cannot go negative.
    """
    applied = {}
    for account in sorted(net):
        amount = net[account]
        if amount >= 0:
            ledger.credit(account, amount)
            applied[account] = amount
        else:
            applied[account] = -ledger.penalize(account, -amount, height)
    return applied


# ---------------------------------------------------------------------------
# Public double-spend scenario


class StakerPolicy(enum.Enum):
    SUPPORT_BOTH = "support_both"
    HONEST_ONLY = "honest_only"
    FOLLOW_HASH_POWER = "follow_hash_power"


@dataclass
class PublicDoubleSpendOutcome:
    attacker_won: bool
    crossing_time: Optional[float]
    final_attacker_product: float
    final_honest_product: float
    attacker_pow: int
    honest_pow: int
    pos_on_attacker: int
    pos_on_honest: int
    policy: StakerPolicy
    dunkle_net: Optional[Dict[int, float]] = None
    meta: dict = field(default_factory=dict)


def run_public_double_spend(
    config: SimConfig,
    staker_policy: StakerPolicy,
    attacker_hash_share: float = 0.6,
    rng_seed: int = 1,
    duration: Optional[float] = None,
    dunkle_n: Optional[float] = None,
) -> PublicDoubleSpendOutcome:
    """A majority miner forks in the open and competes for staker support.

    Both branches grow in public from a common fork point.  The attacker
    (``attacker_hash_share`` of the hash power) mines only their branch,
    honest miners only theirs.  Staker behavior is the whole game:

    * SUPPORT_BOTH: every eligible staker forges on both branches, so the
      stake weight factors stay equal and the majority miner's PoW weight
      decides the race.
    * HONEST_ONLY: stakers extend only the first-seen (honest) branch,
      starving the attacker's stake factor; the threat of dunkle penalties
      is what buys this behavior.
    * FOLLOW_HASH_POWER: stakers extend whichever branch shows more
      accumulated PoW weight, switching allegiance mid-race.

    When ``dunkle_n`` is given the outcome includes the settlement stakers
    would face, attributing one PoS block per forge to the configured
    stakers round-robin by stake share.
    """
    if not 0.0 <= attacker_hash_share <= 1.0:
        raise ValueError("attacker_hash_share must be in [0, 1]")
    d_w, d_s, rates, horizon = _public_race(config, attacker_hash_share, duration)

    rng = HashOracle(rng_seed).rng("public-double-spend")

    att_w = hon_w = 1.0
    att_s = hon_s = 1.0
    att_pow = hon_pow = 0
    pos_att = pos_hon = 0
    crossing = None

    # Round-robin staker attribution weighted by stake, for settlement.
    stakers = itertools.cycle([account for account, amount in config.stakers
                               for _ in range(max(1, round(amount)))])
    forges_att: Dict[int, int] = {}
    forges_hon: Dict[int, int] = {}
    both = staker_policy is StakerPolicy.SUPPORT_BOTH
    follow = staker_policy is StakerPolicy.FOLLOW_HASH_POWER  # else HONEST_ONLY

    for now, stream in _race(rng, rates, horizon):
        if stream == ATTACKER:
            att_w += d_w
            att_pow += 1
        elif stream == HONEST:
            hon_w += d_w
            hon_pow += 1
        else:  # the stakers' stream fires only with stake configured
            account = next(stakers)
            on_attacker = both or (follow and att_w > hon_w)
            if on_attacker:
                att_s += d_s
                pos_att += 1
                forges_att[account] = forges_att.get(account, 0) + 1
            if not (follow and on_attacker):  # a follower backs one branch only
                hon_s += d_s
                pos_hon += 1
                forges_hon[account] = forges_hon.get(account, 0) + 1
        if crossing is None and att_w * att_s > hon_w * hon_s:
            crossing = now

    attacker_won = att_w * att_s > hon_w * hon_s
    net = None
    if dunkle_n is not None and config.total_stake > 0:
        # Winners earn R per block on the surviving branch and pay n*R per
        # block signed on the losing one.
        reward = config.block_reward
        winner, loser = (forges_att, forges_hon) if attacker_won else (forges_hon, forges_att)
        net = {}
        for account, count in winner.items():
            net[account] = net.get(account, 0.0) + reward * count
        for account, count in loser.items():
            net[account] = net.get(account, 0.0) - dunkle_n * reward * count
    return PublicDoubleSpendOutcome(
        attacker_won=attacker_won,
        crossing_time=crossing,
        final_attacker_product=att_w * att_s,
        final_honest_product=hon_w * hon_s,
        attacker_pow=att_pow,
        honest_pow=hon_pow,
        pos_on_attacker=pos_att,
        pos_on_honest=pos_hon,
        policy=staker_policy,
        dunkle_net=net,
        meta={
            "attack": "public_double_spend",
            "attacker_hash_share": attacker_hash_share,
            "duration": horizon,
            "rng_seed": rng_seed,
            "dunkle_n": dunkle_n,
        },
    )


def public_double_spend_win_rate(
    config: SimConfig,
    staker_policy: StakerPolicy,
    attacker_hash_share: float = 0.6,
    trials: int = 50,
    rng_seed: int = 1,
    duration: Optional[float] = None,
) -> Tuple[float, List[PublicDoubleSpendOutcome]]:
    return _seeded_trials(
        lambda seed: run_public_double_spend(
            config, staker_policy, attacker_hash_share, rng_seed=seed, duration=duration,
        ),
        trials, rng_seed,
    )


# ---------------------------------------------------------------------------
# Dumps


ROW_KEYS = frozenset(("id", "parent", "kind", "difficulty", "timestamp", "height",
                      "producer", "td_w", "td_s"))
ROW_KINDS = ("pow", "pos", "genesis")  # a tuple: an unhashable kind is no error
ROW_NUMBERS = ("difficulty", "timestamp", "td_w", "td_s")


def load_rows(path: str) -> List[dict]:
    """Read a blocks.jsonl dump back into detector-ready rows.

    Raises ``ValueError`` unless every line is an object with ``ROW_KEYS``, a
    new string id and a null or earlier parent, so walks to genesis end, a
    kind in ``ROW_KINDS`` and a finite number in each of ``ROW_NUMBERS``.
    """
    rows: List[dict] = []
    seen: set = {None}  # ids so far; a null parent is always known
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                row = json.loads(line)
                if not (isinstance(row, dict) and ROW_KEYS <= row.keys()
                        and isinstance(row["id"], str) and row["id"] not in seen
                        and isinstance(row["parent"], (str, type(None)))
                        and row["parent"] in seen):
                    raise ValueError(f"line {lineno} is not a new block row after its parent")
                if row["kind"] not in ROW_KINDS:
                    raise ValueError(f"line {lineno} has unknown kind {row['kind']!r}")
                for key in ROW_NUMBERS:
                    # type(), not isinstance(): JSON true is not a number here.
                    if type(row[key]) not in (int, float) or not math.isfinite(row[key]):
                        raise ValueError(f"line {lineno} has non-numeric or "
                                         f"non-finite {key} {row[key]!r}")
                seen.add(row["id"])
                rows.append(row)
    return rows

"""Block production for miners and stakers.

Mining is collapsed to its event-level law: at difficulty ``d_w``, a miner
with hash power ``h`` (attempts per second) solves after an exponential wait
with rate ``h / d_w``.  Miners that share a view draw as one: the earliest
of their waits is one exponential at their summed power (the engine's
mining pool), won by each miner in proportion to its power.

Forging is deterministic per chain context.  A staker signs the last seed on
the chain being extended, hashes the signature into a unit value ``u`` in
(0, 1], and becomes eligible after

    delay = d_s * |ln u| / V

seconds measured from the last PoS block's timestamp (genesis anchors round
one).  Since ``|ln u|`` is standard exponential for uniform ``u``, the delay
is exponential with rate ``V / d_s``, so forging wins are proportional to
voting power and splitting stake across accounts buys nothing.  The forged
block's timestamp is the eligibility instant itself, recomputable by any
validator from the seed, so stakers cannot steer their next draw by shading
timestamps.

``pos_lottery`` is the slot kernel: on one seed anchor and ``d_s`` it signs
every staker's seed in one ``HashOracle.sign_seeds`` pass.  Eligibility,
verification and the split-stake attack draw through it.  ``pos_winner`` is
the same pass kept to its earliest slot, the only one that can forge; the
engine draws through it and makes one ``Digest`` per anchor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .chain import Block, BlockKind, BlockTree
from .crypto import Digest, HashOracle, KeyPair


class EligibilityError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class MinerContext:
    account: int
    hash_power: float


@dataclass(frozen=True, slots=True)
class StakerContext:
    account: int
    key: KeyPair


@dataclass(frozen=True, slots=True)
class PosEligibility:
    """One staker's forging slot for a given chain context."""

    seed: Digest
    delay: float
    eligible_at: float
    anchor_id: int
    anchor_timestamp: float
    difficulty: float


def pow_solve_time(miner: MinerContext, d_w: float, rng: random.Random) -> float:
    """Exponential wait at rate ``hash_power / d_w``; infinite if that rate underflows to 0."""
    if d_w <= 0:
        raise ValueError("work difficulty must be positive")
    if miner.hash_power <= 0:
        raise ValueError("hash power must be positive")
    rate = miner.hash_power / d_w
    return rng.expovariate(rate) if rate else math.inf

def _delays(d_s: float, units: Sequence[float], powers: Sequence[float]) -> List[float]:
    """``d_s * |ln u| / V`` per unit and voting power; infinite for zero power."""
    if d_s <= 0:
        raise ValueError("stake difficulty must be positive")
    if any(power < 0 for power in powers):
        raise ValueError("voting power must be non-negative")
    return [d_s * abs(math.log(unit)) / power if power else math.inf
            for unit, power in zip(units, powers)]


def pos_delay(oracle: HashOracle, signed_seed: Digest, d_s: float, voting_power: float) -> float:
    """Forging delay for a signed seed; infinite for zero voting power."""
    return _delays(d_s, [oracle.hash(signed_seed).unit], [voting_power])[0]


def pos_lottery(oracle: HashOracle, seed: Digest, d_s: float,
                stakers: Sequence[Tuple[KeyPair, float]]) -> List[Tuple[Digest, float]]:
    """Each ``(key, voting power)``'s signed seed and delay on one seed anchor."""
    signed, units = oracle.sign_seeds(seed, [key.sk for key, _ in stakers])
    delays = _delays(d_s, units, [power for _, power in stakers])
    return [(Digest.from_bytes(raw), delay) for raw, delay in zip(signed, delays)]


def pos_winner(oracle: HashOracle, seed: Digest, d_s: float,
               stakers: Sequence[Tuple[KeyPair, float]],
               ) -> Tuple[Optional[int], Optional[Digest], float]:
    """The earliest ``pos_lottery`` slot: its index, signed seed and delay.

    Ties go to the lowest index; the delay is infinite when no slot is
    finite, and ``(None, None, inf)`` is the draw of no stakers.
    """
    signed, units = oracle.sign_seeds(seed, [key.sk for key, _ in stakers])
    delays = _delays(d_s, units, [power for _, power in stakers])
    if not delays:
        return None, None, math.inf
    best = min(range(len(delays)), key=delays.__getitem__)
    return best, Digest.from_bytes(signed[best]), delays[best]


def pos_eligibility(
    oracle: HashOracle,
    tree: BlockTree,
    parent_id: int,
    staker: StakerContext,
    voting_power: float,
) -> PosEligibility:
    """Evaluate the staker's slot on the chain ending at ``parent_id``.

    The eligibility delay uses the difficulty the new block itself will
    carry, and is anchored at the timestamp of the chain's last PoS block.
    """
    anchor = tree.seed_anchor(parent_id)
    assert anchor.seed is not None
    difficulty = tree.expected_difficulty(parent_id, BlockKind.POS)
    [(signed, delay)] = pos_lottery(oracle, anchor.seed, difficulty,
                                    [(staker.key, voting_power)])
    return PosEligibility(
        seed=signed,
        delay=delay,
        eligible_at=anchor.timestamp + delay,
        anchor_id=anchor.id,
        anchor_timestamp=anchor.timestamp,
        difficulty=difficulty,
    )


def _block_id(oracle: HashOracle, parent_id: int, kind: BlockKind, difficulty: float,
              timestamp: float, height: int, producer: int, seed: Optional[Digest]) -> int:
    parts = ["block-id", parent_id, kind, difficulty, timestamp, height, producer]
    if seed is not None:
        parts.append(seed)
    return oracle.hash(*parts).value


def forge_pos_block(
    oracle: HashOracle,
    tree: BlockTree,
    parent_id: int,
    staker: StakerContext,
    voting_power: Optional[float] = None,
    now: Optional[float] = None,
    provenance: str = "honest",
    slot: Optional[PosEligibility] = None,
) -> Block:
    """Build the staker's PoS block on ``parent_id``.

    The timestamp is forced to the eligibility instant.  Passing ``now``
    enforces that the slot has arrived; forging ahead of it is reserved for
    flagged attack strategies.  ``slot`` is the staker's slot as
    ``pos_eligibility`` evaluated it on a chain with ``parent_id``'s seed
    anchor and PoS difficulty; it is checked against both, and its power is
    already in its delay, so ``voting_power`` is read only when ``slot`` is
    omitted and the slot is evaluated afresh.
    """
    if slot is None:
        if voting_power is None:
            raise ValueError("voting_power is required without a slot")
        slot = pos_eligibility(oracle, tree, parent_id, staker, voting_power)
    elif (slot.anchor_id != tree.seed_anchor(parent_id).id
          or slot.difficulty != tree.expected_difficulty(parent_id, BlockKind.POS)):
        raise EligibilityError("slot belongs to another seed anchor or difficulty")
    if not math.isfinite(slot.eligible_at):
        raise EligibilityError("zero voting power never becomes eligible")
    if now is not None and now < slot.eligible_at and provenance == "honest":
        raise EligibilityError("slot not reached; early forging is an attack behavior")
    parent = tree.block(parent_id)
    timestamp = slot.anchor_timestamp + slot.delay
    height = parent.height + 1
    return Block(
        id=_block_id(oracle, parent_id, BlockKind.POS, slot.difficulty, timestamp,
                     height, staker.account, slot.seed),
        parent_id=parent_id,
        kind=BlockKind.POS,
        difficulty=slot.difficulty,
        timestamp=timestamp,
        height=height,
        producer=staker.account,
        seed=slot.seed,
        provenance=provenance,
    )


def build_pow_block(
    oracle: HashOracle,
    tree: BlockTree,
    parent_id: int,
    miner: MinerContext,
    solved_at: float,
    provenance: str = "honest",
) -> Block:
    """Build the miner's PoW block on ``parent_id``, stamped at solve time.

    The parent may have stopped being the canonical tip since mining began;
    importing such a block simply lands it on a side chain.
    """
    difficulty = tree.expected_difficulty(parent_id, BlockKind.POW)
    parent = tree.block(parent_id)
    height = parent.height + 1
    return Block(
        id=_block_id(oracle, parent_id, BlockKind.POW, difficulty, solved_at,
                     height, miner.account, None),
        parent_id=parent_id,
        kind=BlockKind.POW,
        difficulty=difficulty,
        timestamp=solved_at,
        height=height,
        producer=miner.account,
        seed=None,
        provenance=provenance,
    )


def verify_pos_block(
    oracle: HashOracle,
    tree: BlockTree,
    block: Block,
    producer_key: KeyPair,
    voting_power: float,
) -> bool:
    """Recompute a PoS block's seed and forced timestamp from its parent.

    Signature verification is modeled by recomputation: the simulation holds
    every key, so a block checks out iff its seed equals the signature of the
    parent chain's seed anchor under the producer's key and its timestamp
    equals the anchored eligibility instant.
    """
    if block.kind is not BlockKind.POS or block.parent_id is None:
        return False
    if block.parent_id not in tree:
        return False
    anchor = tree.seed_anchor(block.parent_id)
    assert anchor.seed is not None
    [(expected_seed, delay)] = pos_lottery(oracle, anchor.seed, block.difficulty,
                                           [(producer_key, voting_power)])
    return block.seed == expected_seed and block.timestamp == anchor.timestamp + delay

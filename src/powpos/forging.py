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

``_slots`` is the slot kernel: on one seed anchor and ``d_s`` it signs each
key (framed once, when it was made) from the oracle's ``seed_signing``
states and yields raw signatures and delays.  ``pos_lottery`` keeps every
slot; the split-stake attack draws through it.  ``pos_winner`` keeps the
earliest, the only one that can forge, as the ``PosEligibility`` record that
forging, eligibility and verification share: the engine keeps it per anchor
and forges from it, ``pos_eligibility`` is one key's draw on a tree, and
``verify_pos_block`` compares a block with it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .chain import Block, BlockKind, BlockTree
from .crypto import Digest, HashOracle, KeyPair, unit_of


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
    """A forging slot: the signed seed and the instant it becomes eligible,
    on the seed anchor and at the PoS difficulty it was drawn on."""

    seed: Digest
    eligible_at: float
    anchor_id: int
    difficulty: float


def pow_solve_time(miner: MinerContext, d_w: float, rng: random.Random) -> float:
    """Exponential wait at rate ``hash_power / d_w``; infinite if that rate underflows to 0."""
    if d_w <= 0:
        raise ValueError("work difficulty must be positive")
    if miner.hash_power <= 0:
        raise ValueError("hash power must be positive")
    rate = miner.hash_power / d_w
    return rng.expovariate(rate) if rate else math.inf


def _check(d_s: float, power: float) -> None:
    """Reject a ``d_s`` that is not finite and positive, and a NaN, infinite or negative power."""
    if not 0.0 < d_s < math.inf:
        raise ValueError("stake difficulty must be finite and positive")
    if not 0.0 <= power < math.inf:
        raise ValueError("voting power must be finite and non-negative")


def pos_delay(oracle: HashOracle, signed_seed: Digest, d_s: float, voting_power: float) -> float:
    """Forging delay ``d_s * |ln u| / V``, ``u`` the seed's hash's unit; inf at zero power."""
    _check(d_s, voting_power)
    unit = oracle.hash(signed_seed).unit
    return d_s * abs(math.log(unit)) / voting_power if voting_power else math.inf


def _slots(oracle: HashOracle, seed: Digest, d_s: float,
           stakers: Sequence[Tuple[KeyPair, float]]) -> Iterator[Tuple[bytes, float]]:
    """Each ``(key, voting power)``'s raw signed seed and ``pos_delay`` on one seed anchor."""
    _check(d_s, 0.0)  # each power is checked as its key comes up
    signing, digesting = oracle.seed_signing(seed)
    for key, power in stakers:
        if not 0.0 <= power < math.inf:
            _check(d_s, power)
        h = signing.copy()
        h.update(key.framed_sk)
        raw = h.digest()
        h = digesting.copy()
        h.update(raw)
        unit = unit_of(int.from_bytes(h.digest(), "big"))
        yield raw, d_s * abs(math.log(unit)) / power if power else math.inf


def pos_lottery(oracle: HashOracle, seed: Digest, d_s: float,
                stakers: Sequence[Tuple[KeyPair, float]]) -> List[Tuple[Digest, float]]:
    """Each ``(key, voting power)``'s signed seed and delay on one seed anchor."""
    return [(Digest.from_bytes(raw), delay) for raw, delay in _slots(oracle, seed, d_s, stakers)]


def pos_winner(oracle: HashOracle, anchor: Block, d_s: float,
               stakers: Sequence[Tuple[KeyPair, float]],
               ) -> Tuple[Optional[int], Optional[PosEligibility]]:
    """The earliest ``pos_lottery`` slot on the seed anchor ``anchor``: its index and slot.

    Ties go to the lowest index; the slot's ``eligible_at`` is infinite when
    no staker has power, and ``(None, None)`` is the draw of no stakers.
    """
    slots = _slots(oracle, anchor.seed, d_s, stakers)
    first = next(slots, None)
    if first is None:
        return None, None
    best, (best_raw, best_delay) = 0, first
    for index, (raw, delay) in enumerate(slots, 1):
        if delay < best_delay:
            best, best_raw, best_delay = index, raw, delay
    return best, PosEligibility(Digest.from_bytes(best_raw), anchor.timestamp + best_delay,
                                anchor.id, d_s)


def pos_eligibility(
    oracle: HashOracle,
    tree: BlockTree,
    parent_id: int,
    staker: StakerContext,
    voting_power: float,
) -> PosEligibility:
    """The staker's slot on the chain ending at ``parent_id``.

    It is drawn on the chain's seed anchor, at the difficulty the new block
    itself will carry.
    """
    difficulty = tree.expected_difficulty(parent_id, BlockKind.POS)
    return pos_winner(oracle, tree.seed_anchor(parent_id), difficulty,
                      [(staker.key, voting_power)])[1]


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
    slot: PosEligibility,
    now: Optional[float] = None,
) -> Block:
    """Build the staker's PoS block on ``parent_id``, stamped at its slot's instant.

    ``slot`` is the staker's slot as ``pos_winner`` drew it on a chain with
    ``parent_id``'s seed anchor and PoS difficulty; it is checked against
    both.  Passing ``now`` enforces that the slot has arrived.
    """
    if (slot.anchor_id != tree.seed_anchor(parent_id).id
            or slot.difficulty != tree.expected_difficulty(parent_id, BlockKind.POS)):
        raise EligibilityError("slot belongs to another seed anchor or difficulty")
    if not math.isfinite(slot.eligible_at):
        raise EligibilityError("zero voting power never becomes eligible")
    if now is not None and now < slot.eligible_at:
        raise EligibilityError("slot not reached")
    parent = tree.block(parent_id)
    height = parent.height + 1
    return Block(
        id=_block_id(oracle, parent_id, BlockKind.POS, slot.difficulty, slot.eligible_at,
                     height, staker.account, slot.seed),
        parent_id=parent_id,
        kind=BlockKind.POS,
        difficulty=slot.difficulty,
        timestamp=slot.eligible_at,
        height=height,
        producer=staker.account,
        seed=slot.seed,
    )


def build_pow_block(
    oracle: HashOracle,
    tree: BlockTree,
    parent_id: int,
    miner: MinerContext,
    solved_at: float,
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
    if block.kind is not BlockKind.POS or block.parent_id not in tree:
        return False
    _, slot = pos_winner(oracle, tree.seed_anchor(block.parent_id), block.difficulty,
                         [(producer_key, voting_power)])
    return block.seed == slot.seed and block.timestamp == slot.eligible_at

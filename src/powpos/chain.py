"""Block tree and fork choice for a dual-difficulty chain.

Every block is either mined (PoW) or forged (PoS) and carries the difficulty
of its own kind.  A chain accumulates the two kinds separately into a weight
pair ``(td_w, td_s)``; the canonical chain is the tip maximizing the product
``td_w * td_s``, with exact ties resolved in favor of the first-seen tip.
Multiplying the two totals means neither resource dominates: growing the
product requires contributions from both work and stake.

Genesis is its own block kind.  It carries the base weight pair and the seed
that anchors the first staking round, but it counts as neither a PoW nor a PoS
ancestor for difficulty retargeting, so both kinds bootstrap symmetrically.

The tree keeps side branches and orphaned blocks: misbehavior detection needs
them after the fact.  Rejected-as-future blocks are not stored; the caller may
re-deliver them once its clock catches up.

Fork choice is kept current one import at a time.  Invariant: the canonical
tip is the tip with the largest product, the earliest arrival among equal
products.  An import removes at most its parent from the tips and adds itself,
the latest arrival, so the new block becomes the tip exactly when its product
is strictly greater than the old tip's.  The one case this cannot decide is a
child of the tip whose product did not grow in floating point (a tiny
difficulty absorbed by a huge weight): an older tip tied with the parent may
then win, and the import falls back to :meth:`BlockTree.fork_choice`, the
full scan over all tips that is also the reference the tests compare with.

A node's ancestry never changes after insertion, so the expected difficulty
of each kind of child is computed once per node and memoised on it.

Lineage nodes are shared between views.  Each participant of a simulated
network keeps its own tree, made with :meth:`BlockTree.replica` from one
origin tree.  A node's weight pair, same-kind anchors and expected-difficulty
memos depend only on its ancestry, so when a replica imports the very block
object the origin holds, onto the origin's own node for its parent, it stores
the origin's node itself.  Blocks the origin does not hold yet get a node the
replica builds.  Membership, tips, the canonical tip and the clock check stay
per view, and a replica's import runs every validity check; the memo only
answers the difficulty check sooner.  Each view's dicts are its arrival
order: a block enters ``nodes`` and ``tips`` once, when it arrives, so
first-seen tie-breaks and dump order come from insertion order alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from .crypto import Digest, HashOracle


class BlockKind(Enum):
    POW = "pow"
    POS = "pos"
    GENESIS = "genesis"


@dataclass(frozen=True, slots=True)
class Block:
    """An immutable block record.

    ``seed`` is present exactly on PoS and genesis blocks.  A PoS block's
    ``seed`` and ``timestamp`` are its producer's slot, the signed seed and
    eligibility instant that ``forging.pos_winner`` draws on the block's seed
    anchor at ``difficulty``.
    """

    id: int
    parent_id: Optional[int]
    kind: BlockKind
    difficulty: float
    timestamp: float
    height: int
    producer: Optional[int]
    seed: Optional[Digest] = None


@dataclass(frozen=True, slots=True)
class WeightPair:
    """Cumulative per-kind difficulty totals along one chain."""

    td_w: float
    td_s: float

    @property
    def product(self) -> float:
        return self.td_w * self.td_s

    def child(self, kind: BlockKind, difficulty: float) -> "WeightPair":
        if kind is BlockKind.POW:
            return WeightPair(self.td_w + difficulty, self.td_s)
        if kind is BlockKind.POS:
            return WeightPair(self.td_w, self.td_s + difficulty)
        raise ValueError("genesis weight is fixed at tree construction")


class ImportResult(Enum):
    EXTENDED_CANONICAL = "extended_canonical"
    SIDE_CHAIN = "side_chain"
    REORG = "reorg"
    REJECTED_FUTURE = "rejected_future"
    INVALID = "invalid"
    DUPLICATE = "duplicate"


# Hot paths name enum members through these: before Python 3.12,
# ``EnumType.__getattr__`` makes each ``BlockKind.POW`` a slow lookup.
POW, POS, GENESIS = BlockKind
EXTENDED_CANONICAL, SIDE_CHAIN, REORG, REJECTED_FUTURE, INVALID, DUPLICATE = ImportResult


@dataclass(slots=True)
class TreeNode:
    block: Block
    weight: WeightPair
    # Arrival in the tree that built the node.  Nothing here reads it: each
    # view's tie-breaks come from its own dict order.
    arrival_order: int
    # Nearest same-kind block at or above this node's parent, by id.
    # None when no such ancestor exists (genesis matches neither kind).
    pow_anchor: Optional[int] = None
    pos_anchor: Optional[int] = None
    # Expected difficulty of a PoW / PoS child, filled on first use.
    pow_expected: Optional[float] = None
    pos_expected: Optional[float] = None


def make_genesis(oracle: HashOracle) -> Block:
    """The genesis block: seed anchor for round one, base of both weights."""
    from .crypto import genesis_seed

    return Block(
        id=oracle.hash("genesis-id").value,
        parent_id=None,
        kind=GENESIS,
        difficulty=1.0,
        timestamp=0.0,
        height=0,
        producer=None,
        seed=genesis_seed(oracle),
    )


class BlockTree:
    """All known blocks of one node's view, plus the canonical tip.

    ``rule`` supplies the expected difficulty for a new block given its parent
    context; imports carrying any other difficulty are invalid.
    """

    def __init__(self, genesis: Block, rule, base_weight: Tuple[float, float] = (1.0, 1.0)):
        if genesis.kind is not GENESIS:
            raise ValueError("tree must be rooted at a genesis block")
        self.rule = rule
        self.genesis_id = genesis.id
        root = TreeNode(
            block=genesis,
            weight=WeightPair(*base_weight),
            arrival_order=0,
        )
        # Both in arrival order: an id enters each once, when it arrives.
        self.nodes: Dict[int, TreeNode] = {genesis.id: root}
        self.tips: Dict[int, None] = {genesis.id: None}
        self.canonical_tip: int = genesis.id
        # The origin tree's nodes: this tree's own unless it is a replica.
        self._origin: Dict[int, TreeNode] = self.nodes

    def replica(self) -> "BlockTree":
        """An empty view with this tree's genesis, rule and base weight that
        holds the origin's node of every block it imports from the origin."""
        root = self.nodes[self.genesis_id]
        tree = BlockTree(root.block, self.rule, (root.weight.td_w, root.weight.td_s))
        tree._origin = self._origin
        tree.nodes[self.genesis_id] = root
        return tree

    # -- queries ---------------------------------------------------------

    def __contains__(self, block_id: int) -> bool:
        return block_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def block(self, block_id: int) -> Block:
        return self.nodes[block_id].block

    def node(self, block_id: int) -> TreeNode:
        return self.nodes[block_id]

    def chain_weight(self, tip_id: int) -> WeightPair:
        if tip_id not in self.nodes:
            raise KeyError(f"unknown block {tip_id:#x}")
        return self.nodes[tip_id].weight

    def last_two_of_kind(
        self, parent_id: int, kind: BlockKind
    ) -> Tuple[Optional[Block], Optional[Block]]:
        """Latest and second-latest same-kind blocks at or above ``parent_id``."""
        anchor = self._anchor(parent_id, kind)
        if anchor is None:
            return None, None
        latest = self.nodes[anchor]
        prev_anchor = self._anchor(latest.block.parent_id, kind)
        if prev_anchor is None:
            return latest.block, None
        return latest.block, self.nodes[prev_anchor].block

    def _anchor(self, block_id: Optional[int], kind: BlockKind) -> Optional[int]:
        if block_id is None:
            return None
        node = self.nodes[block_id]
        if kind is POW:
            return block_id if node.block.kind is POW else node.pow_anchor
        return block_id if node.block.kind is POS else node.pos_anchor

    def seed_anchor(self, block_id: int) -> Block:
        """Last seed-carrying block at or above ``block_id`` (PoS, else genesis)."""
        node = self.nodes[block_id]
        if node.block.seed is not None:
            return node.block
        anchor = node.pos_anchor
        if anchor is None:
            return self.nodes[self.genesis_id].block
        return self.nodes[anchor].block

    def expected_difficulty(self, parent_id: int, kind: BlockKind) -> float:
        """The difficulty a ``kind`` child of ``parent_id`` must carry.

        Memoised per node, which views may share; the rule must be a pure
        function of ancestry.
        """
        node = self.nodes[parent_id]
        if kind is POW:
            if node.pow_expected is None:
                node.pow_expected = self.rule.expected(self, parent_id, kind)
            return node.pow_expected
        if node.pos_expected is None:
            node.pos_expected = self.rule.expected(self, parent_id, kind)
        return node.pos_expected

    def fork_choice(self) -> int:
        """Tip maximizing the weight product; exact ties go to first seen.

        A full scan of the tips: ``import_block`` keeps ``canonical_tip``
        equal to it incrementally and calls it only when it cannot decide.
        ``tips`` is in arrival order and ``max`` keeps the first of equal keys.
        """
        return max(self.tips, key=lambda tip_id: self.nodes[tip_id].weight.product)

    # -- import ----------------------------------------------------------

    def import_block(
        self,
        block: Block,
        local_clock: float = math.inf,
        t_future: float = math.inf,
    ) -> ImportResult:
        nodes = self.nodes
        if block.id in nodes:
            return DUPLICATE
        parent = nodes.get(block.parent_id)  # None if unknown, or if the block has none
        if (parent is None or block.kind is GENESIS or not block.difficulty > 0
                or (block.seed is not None) != (block.kind is POS)
                or block.height != parent.block.height + 1
                or block.difficulty != self.expected_difficulty(block.parent_id, block.kind)):
            return INVALID
        if block.timestamp > local_clock + t_future:
            # Too far ahead of this node's clock; not stored, may come back.
            return REJECTED_FUTURE

        # Store the origin's node only for the same block object on the
        # origin's parent node: then the whole ancestry is the origin's too.
        node = self._origin.get(block.id)
        if node is None or node.block is not block or self._origin[block.parent_id] is not parent:
            node = TreeNode(
                block=block,
                weight=parent.weight.child(block.kind, block.difficulty),
                arrival_order=len(nodes),
                pow_anchor=self._anchor(block.parent_id, POW),
                pos_anchor=self._anchor(block.parent_id, POS),
            )
        nodes[block.id] = node
        self.tips.pop(block.parent_id, None)
        self.tips[block.id] = None

        old_tip = self.canonical_tip
        if node.weight.product > nodes[old_tip].weight.product:
            self.canonical_tip = block.id
        elif block.parent_id == old_tip:
            # The product did not grow: a tip tied with the parent may win.
            self.canonical_tip = self.fork_choice()
        if self.canonical_tip == block.id:
            if block.parent_id == old_tip:
                return EXTENDED_CANONICAL
            return REORG
        return SIDE_CHAIN

    # -- traversal and export -------------------------------------------

    def path_to_genesis(self, tip_id: int) -> List[Block]:
        path = []
        cursor: Optional[int] = tip_id
        while cursor is not None:
            node = self.nodes[cursor]
            path.append(node.block)
            cursor = node.block.parent_id
        return path

    def canonical_chain(self) -> List[Block]:
        """Genesis-first list of canonical blocks."""
        chain = self.path_to_genesis(self.canonical_tip)
        chain.reverse()
        return chain

    def dump_rows(self) -> Iterator[dict]:
        """One plain dict per block, in arrival order, genesis first."""
        for node in self.nodes.values():
            b = node.block
            yield {
                "id": format(b.id, "064x"),
                "parent": None if b.parent_id is None else format(b.parent_id, "064x"),
                "kind": b.kind.value,
                "difficulty": b.difficulty,
                "timestamp": b.timestamp,
                "height": b.height,
                "producer": b.producer,
                "td_w": node.weight.td_w,
                "td_s": node.weight.td_s,
            }

    def write_jsonl(self, fileobj) -> None:
        for row in self.dump_rows():
            fileobj.write(json.dumps(row, sort_keys=True))
            fileobj.write("\n")

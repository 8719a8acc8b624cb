"""Block tree bookkeeping, import validation, and fork choice."""

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from powpos import crypto, difficulty, forging
from powpos.chain import (
    Block, BlockKind, BlockTree, ImportResult, WeightPair, make_genesis,
)
from powpos.slashing import split_canonical


def fresh_tree(seed=1, target_gap=20.0, alpha=0.01, rule=None):
    oracle = crypto.HashOracle(seed)
    params = difficulty.DifficultyParams(target_gap=target_gap, alpha=alpha)
    tree = BlockTree(make_genesis(oracle), rule or difficulty.AdaptiveRule(params))
    return oracle, tree


def mine(oracle, tree, parent_id, at, account=7):
    miner = forging.MinerContext(account=account, hash_power=1.0)
    return forging.build_pow_block(oracle, tree, parent_id, miner, solved_at=at)


def forge(oracle, tree, parent_id, account=3, power=100.0):
    staker = forging.StakerContext(account=account, key=oracle.keypair(account))
    slot = forging.pos_eligibility(oracle, tree, parent_id, staker, power)
    return forging.forge_pos_block(oracle, tree, parent_id, staker, slot)


def test_genesis_base_weight_is_one_one():
    _, tree = fresh_tree()
    w = tree.chain_weight(tree.canonical_tip)
    assert (w.td_w, w.td_s) == (1.0, 1.0)
    assert tree.chain_weight(tree.canonical_tip).product == 1.0


def test_weight_pair_child_accumulates_by_kind():
    w = WeightPair(2.0, 3.0)
    assert w.child(BlockKind.POW, 5.0) == WeightPair(7.0, 3.0)
    assert w.child(BlockKind.POS, 5.0) == WeightPair(2.0, 8.0)


def test_pow_block_extends_and_accumulates_weight():
    oracle, tree = fresh_tree()
    b = mine(oracle, tree, tree.canonical_tip, at=12.0)
    assert tree.import_block(b, 12.0, 10.0) is ImportResult.EXTENDED_CANONICAL
    w = tree.chain_weight(b.id)
    assert w.td_w == 1.0 + b.difficulty
    assert w.td_s == 1.0


def test_duplicate_import_reports_duplicate():
    oracle, tree = fresh_tree()
    b = mine(oracle, tree, tree.canonical_tip, at=1.0)
    assert tree.import_block(b, 1.0, 10.0) is ImportResult.EXTENDED_CANONICAL
    assert tree.import_block(b, 2.0, 10.0) is ImportResult.DUPLICATE


def test_future_timestamp_rejected_until_clock_catches_up():
    oracle, tree = fresh_tree()
    b = mine(oracle, tree, tree.canonical_tip, at=100.0)
    assert tree.import_block(b, 5.0, 10.0) is ImportResult.REJECTED_FUTURE
    # exactly at timestamp - t_future the block becomes acceptable
    assert tree.import_block(b, 90.0, 10.0) is ImportResult.EXTENDED_CANONICAL


def test_wrong_difficulty_is_invalid():
    oracle, tree = fresh_tree()
    good = mine(oracle, tree, tree.canonical_tip, at=1.0)
    bad = Block(
        id=good.id + 1, parent_id=good.parent_id, kind=good.kind,
        difficulty=good.difficulty * 2.0, timestamp=good.timestamp,
        height=good.height, producer=good.producer, seed=good.seed,
    )
    assert tree.import_block(bad, 1.0, 10.0) is ImportResult.INVALID


def test_unknown_parent_is_invalid():
    oracle, tree = fresh_tree()
    b = mine(oracle, tree, tree.canonical_tip, at=1.0)
    orphan = Block(
        id=b.id + 99, parent_id=123456789, kind=b.kind, difficulty=b.difficulty,
        timestamp=b.timestamp, height=b.height, producer=b.producer,
        seed=b.seed,
    )
    assert tree.import_block(orphan, 1.0, 10.0) is ImportResult.INVALID


def test_side_chain_and_reorg_transitions():
    oracle, tree = fresh_tree()
    root = tree.canonical_tip
    a = mine(oracle, tree, root, at=10.0, account=1)
    assert tree.import_block(a, 10.0, 10.0) is ImportResult.EXTENDED_CANONICAL
    # a sibling with the same weight arrives later: side chain, first seen wins
    b = mine(oracle, tree, root, at=11.0, account=2)
    assert tree.import_block(b, 11.0, 10.0) is ImportResult.SIDE_CHAIN
    assert tree.canonical_tip == a.id
    # extending the sibling outweighs the current tip: reorg
    c = mine(oracle, tree, b.id, at=30.0, account=2)
    assert tree.import_block(c, 30.0, 10.0) is ImportResult.REORG
    assert tree.canonical_tip == c.id


def test_fork_choice_maximizes_weight_product():
    # A PoS-heavy branch must beat a slightly longer PoW-only branch when its
    # product is larger; verify against a brute-force scan of all tips.
    oracle, tree = fresh_tree()
    root = tree.canonical_tip
    a = mine(oracle, tree, root, at=20.0, account=1)
    tree.import_block(a, 20.0, math.inf)
    s = forge(oracle, tree, root, account=30)
    tree.import_block(s, max(s.timestamp, 20.0), math.inf)

    parents = {tree.block(node_id).parent_id for node_id in tree.nodes}
    best = max(
        (node_id for node_id in tree.nodes if node_id not in parents),
        key=lambda node_id: tree.chain_weight(node_id).product,
    )
    assert tree.fork_choice() == best


def test_fork_choice_tie_prefers_first_seen():
    oracle, tree = fresh_tree()
    root = tree.canonical_tip
    a = mine(oracle, tree, root, at=10.0, account=1)
    b = mine(oracle, tree, root, at=10.0, account=2)
    assert a.difficulty == b.difficulty  # same parent, same expected difficulty
    tree.import_block(b, 10.0, 10.0)
    tree.import_block(a, 10.0, 10.0)
    assert tree.canonical_tip == b.id  # b arrived first


def test_shared_nodes_keep_each_views_first_seen_tie_break():
    oracle, origin = fresh_tree()
    replica = origin.replica()
    root = origin.canonical_tip
    a = mine(oracle, origin, root, at=10.0, account=1)
    b = mine(oracle, origin, root, at=10.0, account=2)
    for tree, first, second in ((origin, a, b), (replica, b, a)):
        tree.import_block(first, 10.0, 10.0)
        assert tree.import_block(second, 10.0, 10.0) is ImportResult.SIDE_CHAIN
        assert tree.canonical_tip == tree.fork_choice() == first.id
        assert [row["producer"] for row in tree.dump_rows()] == [
            None, first.producer, second.producer]
    assert replica.node(a.id) is origin.node(a.id)


def test_absorbed_child_of_tip_defers_to_earliest_tie():
    # A 1e-9 difficulty vanishes against a 1e10 weight, so every product is
    # equal and the earliest-arrived tip must win, not the tip's new child.
    oracle = crypto.HashOracle(1)
    tree = BlockTree(make_genesis(oracle), difficulty.FrozenRule(1e-9, 1e-9),
                     base_weight=(1e10, 1e10))
    root = tree.canonical_tip
    a = mine(oracle, tree, root, at=1.0, account=1)
    b = mine(oracle, tree, root, at=2.0, account=2)
    assert tree.import_block(a) is ImportResult.EXTENDED_CANONICAL
    assert tree.import_block(b) is ImportResult.SIDE_CHAIN
    c = mine(oracle, tree, a.id, at=3.0, account=1)
    assert tree.import_block(c) is ImportResult.SIDE_CHAIN
    assert tree.chain_weight(c.id).product == tree.chain_weight(b.id).product
    assert tree.canonical_tip == b.id == tree.fork_choice()


# One block per entry: which earlier block is its parent (genesis included),
# whether it is forged rather than mined, and the clock step before it.
TREE_SPECS = st.lists(
    st.tuples(st.integers(0, 1000), st.booleans(), st.floats(0.0, 60.0)),
    min_size=1, max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(spec=TREE_SPECS, base=st.sampled_from([1.0, 1e17]), data=st.data())
def test_incremental_fork_choice_matches_scan(spec, base, data):
    # A base weight of 1e17 absorbs difficulties near 1, so products tie and
    # children of the tip exercise the fallback scan.  An origin tree and its
    # replica import the blocks in two random parent-first orders, drawn
    # interleaved, so the replica meets blocks the origin holds (and shares
    # their lineage) and blocks it does not hold yet (and computes its own).
    oracle = crypto.HashOracle(4)
    params = difficulty.DifficultyParams(target_gap=20.0, alpha=0.5)
    genesis = make_genesis(oracle)
    source = BlockTree(genesis, difficulty.AdaptiveRule(params),
                       base_weight=(base, base))
    ids, children, clock = [genesis.id], {}, 0.0
    for i, (pick, forged, step) in enumerate(spec):
        parent_id = ids[pick % len(ids)]
        clock += step  # mined timestamps rise along every path
        if forged:
            blk = forge(oracle, source, parent_id, account=100 + i)
        else:
            blk = mine(oracle, source, parent_id, at=clock, account=i)
        assert source.import_block(blk) is not ImportResult.INVALID
        ids.append(blk.id)
        children.setdefault(parent_id, []).append(blk)

    origin = BlockTree(genesis, difficulty.AdaptiveRule(params), base_weight=(base, base))
    trees = [origin, origin.replica()]
    ready = [list(children.get(genesis.id, [])) for _ in trees]
    while any(ready):
        which = data.draw(st.sampled_from([i for i, r in enumerate(ready) if r]))
        tree, pending = trees[which], ready[which]
        blk = pending.pop(data.draw(st.integers(0, len(pending) - 1)))
        # A copy with the same id but a doctored difficulty must fail the
        # difficulty check, in a replica too, whatever the origin holds.
        forged_copy = replace(blk, difficulty=2.0 * blk.difficulty)
        assert tree.import_block(forged_copy) is ImportResult.INVALID
        old_tip = tree.canonical_tip
        result = tree.import_block(blk)
        scan = tree.fork_choice()
        assert tree.canonical_tip == scan
        if scan != blk.id:
            assert result is ImportResult.SIDE_CHAIN
        elif blk.parent_id == old_tip:
            assert result is ImportResult.EXTENDED_CANONICAL
        else:
            assert result is ImportResult.REORG
        # Fill memos early, as the engine does, to check them at the end.
        tree.expected_difficulty(scan, BlockKind.POW)
        tree.expected_difficulty(scan, BlockKind.POS)
        pending.extend(children.get(blk.id, []))

    for tree in trees:
        assert len(tree) == len(ids)
        for node_id in tree.nodes:
            assert tree.chain_weight(node_id) == source.chain_weight(node_id)
            for kind in (BlockKind.POW, BlockKind.POS):
                expected = tree.rule.expected(tree, node_id, kind)
                assert tree.expected_difficulty(node_id, kind) == expected
        # A dump's only fork choice, the row split, agrees with the tree's.
        canonical, _side = split_canonical(list(tree.dump_rows()))
        assert [row["id"] for row in canonical] == [
            format(b.id, "064x") for b in tree.canonical_chain()]
    assert origin.chain_weight(origin.canonical_tip).product == (
        trees[1].chain_weight(trees[1].canonical_tip).product)


def test_replica_computes_lineage_the_origin_lacks():
    oracle, origin = fresh_tree()
    replica = origin.replica()
    assert replica.rule is origin.rule
    a1 = mine(oracle, origin, origin.canonical_tip, at=10.0, account=1)
    origin.import_block(a1)
    a2 = mine(oracle, origin, a1.id, at=25.0, account=1)
    origin.import_block(a2)
    for blk in (a1, a2):
        assert replica.import_block(blk) is ImportResult.EXTENDED_CANONICAL
        assert replica.node(blk.id) is origin.node(blk.id)

    # b reaches the replica only; its difficulty is retargeted from a1 and a2.
    b = mine(oracle, replica, a2.id, at=40.0, account=2)
    assert b.difficulty != 1.0
    assert replica.import_block(replace(b, difficulty=1.0)) is ImportResult.INVALID
    assert replica.import_block(b) is ImportResult.EXTENDED_CANONICAL
    assert b.id not in origin
    s = forge(oracle, replica, b.id, account=30)
    assert replica.import_block(s) is ImportResult.EXTENDED_CANONICAL
    assert replica.canonical_tip == s.id == replica.fork_choice()
    assert origin.canonical_tip == a2.id
    assert replica.chain_weight(s.id) == WeightPair(
        1.0 + a1.difficulty + a2.difficulty + b.difficulty, 1.0 + s.difficulty)

    # Once the origin catches up, the replica's own nodes stay its own, and
    # both trees answer every memo as their rule computes it.
    for blk in (b, s):
        assert origin.import_block(blk) is not ImportResult.INVALID
    c = mine(oracle, replica, s.id, at=55.0, account=3)
    origin.import_block(c)
    assert replica.import_block(c) is ImportResult.EXTENDED_CANONICAL
    for blk in (b, c):
        assert replica.node(blk.id) is not origin.node(blk.id)
    for tree in (origin, replica):
        for node_id in tree.nodes:
            for kind in (BlockKind.POW, BlockKind.POS):
                assert tree.expected_difficulty(node_id, kind) == (
                    tree.rule.expected(tree, node_id, kind))


def test_canonical_chain_walks_genesis_to_tip():
    oracle, tree = fresh_tree()
    tip = tree.canonical_tip
    for i in range(5):
        blk = mine(oracle, tree, tip, at=float(10 * (i + 1)))
        tree.import_block(blk, blk.timestamp, 10.0)
        tip = blk.id
    chain = tree.canonical_chain()
    assert chain[0].kind is BlockKind.GENESIS
    assert [b.height for b in chain] == list(range(6))
    assert chain[-1].id == tree.canonical_tip


def test_anchors_match_naive_ancestor_walk():
    oracle, tree = fresh_tree()
    rng = random.Random(5)
    tips = [tree.canonical_tip]
    now = 0.0
    for _ in range(40):
        parent = rng.choice(tips[-6:])
        now += 5.0
        if rng.random() < 0.5:
            blk = mine(oracle, tree, parent, at=now, account=rng.randrange(3))
            tree.import_block(blk, now, math.inf)
        else:
            blk = forge(oracle, tree, parent, account=30 + rng.randrange(3))
            tree.import_block(blk, max(now, blk.timestamp), math.inf)
        tips.append(blk.id)

    def naive_last_of_kind(start_id, kind):
        node_id = start_id
        while node_id is not None:
            blk = tree.block(node_id)
            if blk.kind is kind:
                return blk
            node_id = blk.parent_id
        return None

    for node_id in tips:
        for kind in (BlockKind.POW, BlockKind.POS):
            one, two = tree.last_two_of_kind(node_id, kind)
            expect_one = naive_last_of_kind(node_id, kind)
            if expect_one is None:
                assert one is None and two is None
                continue
            assert one.id == expect_one.id
            expect_two = naive_last_of_kind(one.parent_id, kind)
            if expect_two is None:
                assert two is None
            else:
                assert two.id == expect_two.id


def test_seed_anchor_skips_pow_blocks():
    oracle, tree = fresh_tree()
    s1 = forge(oracle, tree, tree.canonical_tip, account=31)
    tree.import_block(s1, s1.timestamp, math.inf)
    w1 = mine(oracle, tree, s1.id, at=s1.timestamp + 5.0)
    tree.import_block(w1, w1.timestamp, math.inf)
    assert tree.seed_anchor(w1.id).id == s1.id
    assert tree.seed_anchor(tree.block(s1.id).parent_id).kind is BlockKind.GENESIS


def test_import_order_insensitive_for_parent_first_permutations():
    # Any parent-before-child delivery order must give the same canonical tip.
    oracle, tree = fresh_tree(seed=9)
    root = tree.canonical_tip
    blocks = []
    tip = root
    for i in range(3):
        blk = mine(oracle, tree, tip, at=float(10 * (i + 1)), account=1)
        tree.import_block(blk, blk.timestamp, math.inf)
        blocks.append(blk)
        tip = blk.id
    side = mine(oracle, tree, root, at=35.0, account=2)
    tree.import_block(side, 35.0, math.inf)
    blocks.append(side)
    reference_tip = tree.canonical_tip

    for perm in itertools.permutations(blocks):
        seen = {root}
        ok = True
        for b in perm:
            if b.parent_id not in seen:
                ok = False
                break
            seen.add(b.id)
        if not ok:
            continue
        _, replay = fresh_tree(seed=9)
        for b in perm:
            result = replay.import_block(b, b.timestamp, math.inf)
            assert result is not ImportResult.INVALID
        assert replay.canonical_tip == reference_tip


def test_dump_rows_round_trips_weights():
    oracle, tree = fresh_tree()
    tip = tree.canonical_tip
    for i in range(4):
        blk = mine(oracle, tree, tip, at=float(7 * (i + 1)))
        tree.import_block(blk, blk.timestamp, 10.0)
        tip = blk.id
    rows = list(tree.dump_rows())
    assert rows[0]["kind"] == "genesis"
    assert rows[0]["parent"] is None
    by_id = {r["id"]: r for r in rows}
    for row in rows[1:]:
        parent = by_id[row["parent"]]
        if row["kind"] == "pow":
            assert row["td_w"] == pytest.approx(parent["td_w"] + row["difficulty"])
            assert row["td_s"] == parent["td_s"]
        else:
            assert row["td_s"] == pytest.approx(parent["td_s"] + row["difficulty"])
            assert row["td_w"] == parent["td_w"]


def test_genesis_contributes_no_difficulty_ancestry():
    # The first PoW block's controller bootstraps from d_genesis, not from a
    # gap measured against the genesis timestamp.
    oracle, tree = fresh_tree()
    first = mine(oracle, tree, tree.canonical_tip, at=500.0)
    assert first.difficulty == 1.0  # d_genesis_w, regardless of the long gap

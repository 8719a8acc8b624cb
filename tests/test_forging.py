"""Miner solve-time law, staker eligibility draws, and block construction."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from powpos import crypto, difficulty, forging, stats
from powpos.chain import Block, BlockKind, BlockTree, ImportResult, make_genesis
from powpos.forging import (
    EligibilityError,
    MinerContext,
    StakerContext,
    build_pow_block,
    forge_pos_block,
    pos_delay,
    pos_eligibility,
    pos_lottery,
    pos_winner,
    pow_solve_time,
    verify_pos_block,
)


def frozen_tree(seed=1, d_w=20.0, d_s=7600.0):
    oracle = crypto.HashOracle(seed)
    tree = BlockTree(make_genesis(oracle), difficulty.FrozenRule(d_w=d_w, d_s=d_s))
    return oracle, tree


def staker(oracle, account):
    return StakerContext(account=account, key=oracle.keypair(account))


def seed_anchor(seed, timestamp=0.0):
    """A stand-alone seed anchor carrying ``seed``."""
    return Block(id=1, parent_id=None, kind=BlockKind.GENESIS, difficulty=1.0,
                 timestamp=timestamp, height=0, producer=None, seed=seed)


def forge(oracle, tree, parent_id, ctx, power):
    """Forge from the staker's own slot on ``parent_id``."""
    slot = pos_eligibility(oracle, tree, parent_id, ctx, power)
    return forge_pos_block(oracle, tree, parent_id, ctx, slot)


# -- mining ----------------------------------------------------------------


def test_pow_solve_time_mean_is_difficulty_over_power():
    rng = random.Random(3)
    miner = MinerContext(account=1, hash_power=1.0)
    n = 1_000_000
    total = sum(pow_solve_time(miner, 20.0, rng) for _ in range(n))
    assert total / n == pytest.approx(20.0, rel=0.01)


def test_pow_solve_time_scales_exactly():
    # Same RNG stream, so each draw differs only by the rate factor.
    base = [pow_solve_time(MinerContext(1, 1.0), 20.0, random.Random(9)) for _ in [0]]
    doubled_d = [pow_solve_time(MinerContext(1, 1.0), 40.0, random.Random(9)) for _ in [0]]
    doubled_h = [pow_solve_time(MinerContext(1, 2.0), 20.0, random.Random(9)) for _ in [0]]
    assert doubled_d[0] == pytest.approx(2.0 * base[0], rel=1e-12)
    assert doubled_h[0] == pytest.approx(0.5 * base[0], rel=1e-12)


def test_pow_solve_time_rejects_bad_inputs():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        pow_solve_time(MinerContext(1, 1.0), 0.0, rng)
    with pytest.raises(ValueError):
        pow_solve_time(MinerContext(1, 0.0), 20.0, rng)


def test_pow_solve_time_is_infinite_when_the_rate_underflows():
    # 1e-76 / 2e248 underflows to 0: such a miner never solves.
    assert pow_solve_time(MinerContext(1, 1e-76), 2e248, random.Random(1)) == math.inf


# -- forging delay ---------------------------------------------------------


def test_pos_delay_formula():
    oracle = crypto.HashOracle(5)
    signed = oracle.hash("some-signed-seed")
    unit = oracle.hash(signed).unit
    delay = pos_delay(oracle, signed, 7600.0, 380.0)
    assert delay == pytest.approx(7600.0 * abs(math.log(unit)) / 380.0, rel=1e-12)


def test_pos_delay_zero_power_never_fires():
    oracle = crypto.HashOracle(5)
    signed = oracle.hash("x")
    assert pos_delay(oracle, signed, 7600.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        pos_delay(oracle, signed, 0.0, 10.0)
    with pytest.raises(ValueError):
        pos_delay(oracle, signed, 7600.0, -1.0)


def test_pos_delay_scales_inversely_with_power():
    oracle = crypto.HashOracle(5)
    signed = oracle.hash("y")
    assert pos_delay(oracle, signed, 7600.0, 200.0) == pytest.approx(
        0.5 * pos_delay(oracle, signed, 7600.0, 100.0), rel=1e-12
    )


def test_single_staker_delays_are_exponential_with_rate_v_over_ds():
    # A sole staker holding all voting power sees rate V / d_s, mean 20 s at
    # the baseline equilibrium numbers.
    oracle = crypto.HashOracle(7)
    delays = [
        pos_delay(oracle, oracle.hash("slot", i), 7600.0, 380.0)
        for i in range(100_000)
    ]
    fit = stats.fit_exponential(delays)
    assert fit.mean == pytest.approx(20.0, rel=0.01)
    assert fit.rate == pytest.approx(380.0 / 7600.0, rel=0.01)
    assert fit.ks_statistic < stats.ks_critical(fit.sample_count)


def test_eligibility_order_tracks_hash_units_at_equal_power():
    oracle, tree = frozen_tree()
    anchor = tree.seed_anchor(tree.canonical_tip)
    slots = {}
    units = {}
    for account in range(8):
        ctx = staker(oracle, account)
        slots[account] = pos_eligibility(oracle, tree, tree.canonical_tip, ctx, 10.0)
        signed = oracle.sign_seed(anchor.seed, ctx.key.sk)
        units[account] = oracle.hash(signed).unit
    # Genesis anchors at 0, so each instant is the delay itself.
    by_delay = sorted(slots, key=lambda a: slots[a].eligible_at)
    by_unit = sorted(units, key=lambda a: abs(math.log(units[a])))
    assert by_delay == by_unit
    assert len({slots[a].seed for a in slots}) == 8  # distinct signatures


# -- slot kernel -----------------------------------------------------------

POWERS = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


@settings(max_examples=120, deadline=None)
@given(run_seed=st.integers(0, 1 << 70), anchor=st.integers(0, crypto.TWO_256 - 1),
       d_s=st.floats(1e-3, 1e7),
       stakers=st.lists(st.tuples(st.integers(0, 10**6), POWERS), max_size=6,
                        unique_by=lambda s: s[0]))
@example(run_seed=1, anchor=0, d_s=7600.0, stakers=[(1, 0.0), (2, 10.0), (3, 10.0)])
def test_lottery_equals_key_by_key_draws(run_seed, anchor, d_s, stakers):
    oracle = crypto.HashOracle(run_seed)
    seed = crypto.Digest(anchor)
    pairs = [(oracle.keypair(account), power) for account, power in stakers]
    expected = []
    for key, power in pairs:
        signed = oracle.sign_seed(seed, key.sk)
        expected.append((signed, pos_delay(oracle, signed, d_s, power)))
    assert pos_lottery(oracle, seed, d_s, pairs) == expected
    for (_, delay), (_, power) in zip(expected, pairs):
        assert (delay == math.inf) == (power == 0)

    # pos_eligibility on a real tree, anchored past genesis, is unchanged.
    oracle, tree = frozen_tree(seed=run_seed, d_s=d_s)
    block = forge(oracle, tree, tree.canonical_tip, staker(oracle, 10**7), 1.0)
    tree.import_block(block)
    anchor_block = tree.seed_anchor(block.id)
    assert anchor_block.id == block.id
    for account, power in stakers:
        ctx = staker(oracle, account)
        signed = oracle.sign_seed(anchor_block.seed, ctx.key.sk)
        delay = pos_delay(oracle, signed, d_s, power)
        assert pos_eligibility(oracle, tree, block.id, ctx, power) == forging.PosEligibility(
            seed=signed, eligible_at=block.timestamp + delay, anchor_id=block.id,
            difficulty=d_s)


@settings(max_examples=150, deadline=None)
@given(run_seed=st.integers(0, 1 << 70),
       anchors=st.lists(st.integers(0, crypto.TWO_256 - 1), min_size=1, max_size=3),
       d_s_values=st.lists(st.floats(1e-3, 1e7), min_size=1, max_size=3),
       stakers=st.lists(st.tuples(st.integers(0, 10**6), POWERS), min_size=1, max_size=8,
                        unique_by=lambda s: s[0]))
@example(run_seed=1, anchors=[0], d_s_values=[7600.0],
         stakers=[(1, 0.0), (2, 10.0), (3, 10.0)])
@example(run_seed=2, anchors=[5], d_s_values=[7600.0], stakers=[(4, 0.0), (5, 0.0)])
@example(run_seed=3, anchors=[5, 6, 5], d_s_values=[7600.0, 1.5],
         stakers=[(1, 10.0), (2, 20.0), (3, 0.0)])
def test_winner_is_the_earliest_lottery_slot(run_seed, anchors, d_s_values, stakers):
    # One staker set, its keys made and framed once, draws on successive
    # anchors and difficulties: no call may see another's anchor.
    oracle = crypto.HashOracle(run_seed)
    pairs = [(oracle.keypair(account), power) for account, power in stakers]
    for anchor in anchors:
        seed = crypto.Digest(anchor)
        block = seed_anchor(seed, timestamp=250.5)
        for d_s in d_s_values:
            slots = pos_lottery(oracle, seed, d_s, pairs)
            key_by_key = []
            for key, power in pairs:
                signed = oracle.sign_seed(seed, key.sk)
                key_by_key.append((signed, pos_delay(oracle, signed, d_s, power)))
            assert slots == key_by_key
            earliest = min(range(len(slots)), key=lambda i: (slots[i][1], i))
            signed, delay = slots[earliest]
            assert pos_winner(oracle, block, d_s, pairs) == (earliest, forging.PosEligibility(
                seed=signed, eligible_at=250.5 + delay, anchor_id=block.id, difficulty=d_s))


@settings(max_examples=150, deadline=None)
@given(run_seed=st.integers(0, 1 << 140), prev=st.integers(0, crypto.TWO_256 - 1),
       sks=st.lists(st.binary(max_size=40), max_size=6))
@example(run_seed=1, prev=0, sks=[b"", b"\x00" * 32, b""])
def test_slot_kernel_matches_key_by_key_signatures(run_seed, prev, sks):
    oracle = crypto.HashOracle(run_seed)
    seed = crypto.Digest(prev)
    stakers = [(crypto.KeyPair(pk=i, sk=sk), 10.0) for i, sk in enumerate(sks)]
    slots = list(forging._slots(oracle, seed, 7600.0, stakers))
    # Raw 32-byte signatures, big-endian: no Digest per key.
    assert all(type(raw) is bytes and len(raw) == 32 for raw, _ in slots)
    signed = [crypto.Digest.from_bytes(raw) for raw, _ in slots]
    assert signed == [oracle.sign_seed(seed, sk) for sk in sks]
    # The unit is the signature's hash's, not the signature's own.
    assert [delay for _, delay in slots] == [
        7600.0 * abs(math.log(oracle.hash(s).unit)) / 10.0 for s in signed]


def test_slot_kernel_of_no_keys_is_empty():
    assert list(forging._slots(crypto.HashOracle(1), crypto.Digest(9), 7600.0, [])) == []


def test_winner_ties_go_to_the_lowest_index():
    oracle = crypto.HashOracle(3)
    seed = crypto.genesis_seed(oracle)
    key = oracle.keypair(7)
    # One key twice draws one slot twice: an exact tie.
    [(signed, delay)] = pos_lottery(oracle, seed, 7600.0, [(key, 10.0)])
    stakers = [(oracle.keypair(8), 0.0), (key, 10.0), (key, 10.0)]
    index, slot = pos_winner(oracle, seed_anchor(seed), 7600.0, stakers)
    assert (index, slot.seed, slot.eligible_at) == (1, signed, delay)


def test_winner_of_zero_power_or_no_stakers_never_forges():
    oracle = crypto.HashOracle(1)
    seed = crypto.genesis_seed(oracle)
    anchor = seed_anchor(seed)
    key = oracle.keypair(1)
    signed = oracle.sign_seed(seed, key.sk)
    index, slot = pos_winner(oracle, anchor, 7600.0, [(key, 0.0), (oracle.keypair(2), 0.0)])
    assert (index, slot.seed, slot.eligible_at) == (0, signed, math.inf)
    assert pos_winner(oracle, anchor, 7600.0, []) == (None, None)
    with pytest.raises(ValueError, match="stake difficulty"):
        pos_winner(oracle, anchor, 0.0, [(key, 10.0)])


def test_lottery_of_no_stakers_is_empty():
    oracle = crypto.HashOracle(1)
    assert pos_lottery(oracle, crypto.genesis_seed(oracle), 7600.0, []) == []


def test_lottery_rejects_bad_difficulty_and_power():
    oracle = crypto.HashOracle(1)
    seed = crypto.genesis_seed(oracle)
    key = oracle.keypair(1)
    for d_s in (0.0, -1.0):
        with pytest.raises(ValueError, match="stake difficulty"):
            pos_lottery(oracle, seed, d_s, [(key, 10.0)])
    with pytest.raises(ValueError, match="voting power"):
        pos_lottery(oracle, seed, 7600.0, [(key, 10.0), (oracle.keypair(2), -1.0)])


@pytest.mark.parametrize("d_s, power", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                        (7600.0, math.nan), (7600.0, math.inf)])
def test_lottery_rejects_non_finite_difficulty_and_power(d_s, power):
    # A NaN power used to win any lottery it led, at a NaN instant.
    oracle = crypto.HashOracle(1)
    seed = crypto.genesis_seed(oracle)
    stakers = [(oracle.keypair(0), power), (oracle.keypair(1), 1.0), (oracle.keypair(2), 2.0)]
    match = "voting power" if math.isfinite(d_s) else "stake difficulty"
    for draw in (lambda: pos_lottery(oracle, seed, d_s, stakers),
                 lambda: pos_winner(oracle, seed_anchor(seed), d_s, stakers),
                 lambda: pos_delay(oracle, seed, d_s, power)):
        with pytest.raises(ValueError, match=match):
            draw()


# -- block construction ----------------------------------------------------


def test_forged_block_timestamp_is_the_eligibility_instant():
    oracle, tree = frozen_tree()
    ctx = staker(oracle, 3)
    slot = pos_eligibility(oracle, tree, tree.canonical_tip, ctx, 100.0)
    block = forge_pos_block(oracle, tree, tree.canonical_tip, ctx, slot)
    assert block.timestamp == slot.eligible_at
    assert block.seed == slot.seed
    assert block.difficulty == slot.difficulty == 7600.0
    assert block.height == 1
    assert block.producer == 3


def test_forging_is_deterministic():
    oracle, tree = frozen_tree()
    ctx = staker(oracle, 3)
    a = forge(oracle, tree, tree.canonical_tip, ctx, 100.0)
    b = forge(oracle, tree, tree.canonical_tip, ctx, 100.0)
    assert a.id == b.id and a.timestamp == b.timestamp and a.seed == b.seed


def test_second_round_anchors_on_first_pos_block():
    oracle, tree = frozen_tree()
    ctx = staker(oracle, 3)
    first = forge(oracle, tree, tree.canonical_tip, ctx, 100.0)
    assert tree.import_block(first, first.timestamp, 10.0) is ImportResult.EXTENDED_CANONICAL
    second_slot = pos_eligibility(oracle, tree, first.id, ctx, 100.0)
    assert second_slot.anchor_id == first.id
    assert second_slot.eligible_at == first.timestamp + pos_delay(
        oracle, second_slot.seed, 7600.0, 100.0)
    assert second_slot.seed != first.seed


def test_early_honest_forging_is_rejected():
    oracle, tree = frozen_tree()
    ctx = staker(oracle, 3)
    root = tree.canonical_tip
    slot = pos_eligibility(oracle, tree, root, ctx, 100.0)
    early = math.nextafter(slot.eligible_at, -math.inf)
    with pytest.raises(EligibilityError, match="slot not reached"):
        forge_pos_block(oracle, tree, root, ctx, slot, now=early)
    ok = forge_pos_block(oracle, tree, root, ctx, slot, now=slot.eligible_at)
    assert ok.timestamp == slot.eligible_at
    assert ok == forge_pos_block(oracle, tree, root, ctx, slot)


def test_forging_from_an_evaluated_slot():
    oracle, tree = frozen_tree()
    ctx = staker(oracle, 3)
    root = tree.canonical_tip
    slot = pos_eligibility(oracle, tree, root, ctx, 100.0)
    fresh = forge_pos_block(oracle, tree, root, ctx, slot)
    # A slot evaluated on another seed anchor or difficulty is refused.
    other = dataclasses.replace(slot, difficulty=2 * slot.difficulty)
    with pytest.raises(EligibilityError, match="another seed anchor or difficulty"):
        forge_pos_block(oracle, tree, root, ctx, other)
    assert tree.import_block(fresh, fresh.timestamp, 10.0) is ImportResult.EXTENDED_CANONICAL
    with pytest.raises(EligibilityError, match="another seed anchor or difficulty"):
        forge_pos_block(oracle, tree, fresh.id, ctx, slot)


def test_forging_from_a_slot_needs_no_power():
    # The winner of a lottery forges from its slot alone: the block its own
    # one-key draw forges, which verifies.
    oracle, tree = frozen_tree()
    root = tree.canonical_tip
    ctxs = [staker(oracle, account) for account in range(5)]
    powers = [10.0 * (account + 1) for account in range(5)]
    winner, slot = pos_winner(oracle, tree.seed_anchor(root), 7600.0,
                              [(ctx.key, power) for ctx, power in zip(ctxs, powers)])
    block = forge_pos_block(oracle, tree, root, ctxs[winner], slot, now=slot.eligible_at)
    assert block == forge(oracle, tree, root, ctxs[winner], powers[winner])
    assert verify_pos_block(oracle, tree, block, ctxs[winner].key, powers[winner])


def test_zero_power_cannot_forge():
    oracle, tree = frozen_tree()
    with pytest.raises(EligibilityError, match="zero voting power"):
        forge(oracle, tree, tree.canonical_tip, staker(oracle, 3), 0.0)


def test_pow_block_carries_expected_difficulty():
    oracle, tree = frozen_tree(d_w=33.0)
    miner = MinerContext(account=11, hash_power=4.0)
    block = build_pow_block(oracle, tree, tree.canonical_tip, miner, solved_at=17.5)
    assert block.difficulty == 33.0
    assert block.timestamp == 17.5
    assert block.kind is BlockKind.POW
    assert block.seed is None
    assert tree.import_block(block, 17.5, 10.0) is ImportResult.EXTENDED_CANONICAL


# -- verification ----------------------------------------------------------


def test_verify_accepts_honest_pos_block():
    oracle, tree = frozen_tree()
    ctx = staker(oracle, 4)
    block = forge(oracle, tree, tree.canonical_tip, ctx, 50.0)
    assert verify_pos_block(oracle, tree, block, ctx.key, 50.0)


def test_verify_rejects_wrong_key_power_or_tampering():
    oracle, tree = frozen_tree()
    ctx = staker(oracle, 4)
    block = forge(oracle, tree, tree.canonical_tip, ctx, 50.0)
    assert not verify_pos_block(oracle, tree, block, oracle.keypair(5), 50.0)
    assert not verify_pos_block(oracle, tree, block, ctx.key, 51.0)
    for timestamp in (block.timestamp + 1.0, math.nextafter(block.timestamp, math.inf)):
        shifted = dataclasses.replace(block, timestamp=timestamp)
        assert not verify_pos_block(oracle, tree, shifted, ctx.key, 50.0)
    pow_block = build_pow_block(
        oracle, tree, tree.canonical_tip, MinerContext(1, 1.0), solved_at=5.0
    )
    assert not verify_pos_block(oracle, tree, pow_block, ctx.key, 50.0)


def test_verify_rejects_unknown_parent():
    oracle, tree = frozen_tree(seed=1)
    ctx = staker(oracle, 4)
    block = forge(oracle, tree, tree.canonical_tip, ctx, 50.0)
    _, other = frozen_tree(seed=2)
    assert not verify_pos_block(oracle, other, block, ctx.key, 50.0)

"""Stake lifecycle accounting: maturation, withdrawal, penalties."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from powpos.ledger import Ledger, LedgerError
import powpos


def test_constructor_rejects_bad_periods():
    with pytest.raises(LedgerError):
        Ledger(maturation=0, withdrawal=100)
    with pytest.raises(LedgerError):
        Ledger(maturation=100, withdrawal=0)


def test_lock_votes_from_maturation_height_inclusive():
    led = Ledger(maturation=10, withdrawal=10)
    led.credit(1, 40.0)
    led.lock(1, 40.0, height=0)
    assert led.liquid_at(1, 0) == 0.0
    assert led.voting_power(1, 9) == 0.0
    assert led.voting_power(1, 10) == 40.0
    assert led.total_balance(1) == 40.0


def test_grant_active_votes_immediately():
    led = Ledger(maturation=100, withdrawal=100)
    led.grant_active(7, 30.0)
    assert led.voting_power(7, 0) == 30.0
    assert led.liquid_at(7, 0) == 0.0


def test_unlock_stops_voting_now_and_releases_later():
    led = Ledger(maturation=10, withdrawal=10)
    led.grant_active(1, 50.0)
    led.unlock(1, 20.0, height=5)
    # Voting drops at once; the value only becomes spendable W heights later.
    assert led.voting_power(1, 5) == 30.0
    assert led.liquid_at(1, 14) == 0.0
    assert led.liquid_at(1, 15) == 20.0
    assert led.total_balance(1) == 50.0


def test_credit_is_liquid_not_voting():
    led = Ledger(maturation=10, withdrawal=10)
    led.credit(2, 5.0)
    assert led.liquid_at(2, 0) == 5.0
    assert led.voting_power(2, 1000) == 0.0
    with pytest.raises(LedgerError):
        led.credit(2, -1.0)


def test_lock_overdraw_raises():
    led = Ledger(maturation=10, withdrawal=10)
    led.credit(1, 10.0)
    with pytest.raises(LedgerError, match="insufficient liquid balance to lock"):
        led.lock(1, 10.5, height=0)
    # The failed lock must not have touched the balance.
    assert led.liquid_at(1, 0) == 10.0


def test_lock_can_spend_freshly_released_withdrawal():
    # A mutation settles due buckets first, so funds whose withdrawal period
    # just elapsed are lockable in the same call.
    led = Ledger(maturation=10, withdrawal=10)
    led.grant_active(1, 30.0)
    led.unlock(1, 30.0, height=0)
    with pytest.raises(LedgerError):
        led.lock(1, 30.0, height=9)
    led.lock(1, 30.0, height=10)
    assert led.voting_power(1, 20) == 30.0


def test_unlock_overdraw_raises():
    led = Ledger(maturation=10, withdrawal=10)
    led.grant_active(1, 5.0)
    with pytest.raises(LedgerError, match="insufficient active stake"):
        led.unlock(1, 6.0, height=0)


def test_unlock_sees_freshly_matured_stake():
    led = Ledger(maturation=10, withdrawal=10)
    led.credit(1, 40.0)
    led.lock(1, 40.0, height=0)
    with pytest.raises(LedgerError):
        led.unlock(1, 40.0, height=9)
    led.unlock(1, 40.0, height=10)
    assert led.voting_power(1, 10) == 0.0


def test_transfer_moves_liquid():
    led = Ledger(maturation=10, withdrawal=10)
    led.credit(1, 8.0)
    led.transfer(1, 2, 3.0, height=0)
    assert led.liquid_at(1, 0) == 5.0
    assert led.liquid_at(2, 0) == 3.0
    with pytest.raises(LedgerError, match="insufficient liquid balance to transfer"):
        led.transfer(1, 2, 5.5, height=0)


def test_penalize_debits_liquid_then_active_then_withdrawing():
    led = Ledger(maturation=10, withdrawal=100)
    led.credit(1, 10.0)
    led.grant_active(1, 50.0)
    led.unlock(1, 30.0, height=0)  # active 20, withdrawing 30
    debited = led.penalize(1, 35.0, height=1)
    assert debited == 35.0
    snap = led.snapshot()["1"]
    assert snap["liquid"] == 0.0
    assert snap["active"] == 0.0
    assert sum(b[0] for b in snap["withdrawing"]) == 25.0
    # A second oversized penalty is capped at what is left.
    assert led.penalize(1, 100.0, height=1) == 25.0
    assert led.total_balance(1) == 0.0
    with pytest.raises(LedgerError):
        led.penalize(1, -1.0, height=1)


def test_queries_on_absent_account_are_zero():
    led = Ledger(maturation=10, withdrawal=10)
    assert led.voting_power(99, 0) == 0.0
    assert led.liquid_at(99, 0) == 0.0
    assert led.total_balance(99) == 0.0
    assert led.total_supply() == 0.0


def test_snapshot_is_json_ready():
    led = Ledger(maturation=10, withdrawal=10)
    led.credit(3, 7.0)
    led.lock(3, 2.0, height=1)
    led.grant_active(1, 4.0)
    led.unlock(1, 4.0, height=2)
    snap = led.snapshot()
    assert list(snap) == ["1", "3"]
    assert snap["3"]["maturing"] == [[2.0, 11]]
    assert snap["1"]["withdrawing"] == [[4.0, 12]]
    json.dumps(snap)  # must not raise


def test_baseline_stake_grants_sum_to_total():
    config = powpos.baseline_config()
    led = Ledger(config.maturation_height, config.withdrawal_height)
    for account, stake in config.stakers:
        led.grant_active(account, stake)
    total = sum(stake for _, stake in config.stakers)
    assert total == 380.0
    assert sum(led.voting_power(a, 0) for a, _ in config.stakers) == total
    assert led.voting_power(0, 0) / total == pytest.approx(160.0 / 380.0)


op_strategy = st.tuples(
    st.sampled_from(["credit", "lock", "unlock", "transfer", "penalize"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    st.integers(min_value=0, max_value=4),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, max_size=40))
def test_random_ops_conserve_supply(ops):
    # Only credits add value and only penalties remove it; everything else
    # shuffles value between states or accounts.
    led = Ledger(maturation=3, withdrawal=3)
    supply = 0.0
    height = 0
    for kind, a, b, amount, dh in ops:
        height += dh
        try:
            if kind == "credit":
                led.credit(a, amount)
                supply += amount
            elif kind == "lock":
                led.lock(a, amount, height)
            elif kind == "unlock":
                led.unlock(a, amount, height)
            elif kind == "transfer":
                led.transfer(a, b, amount, height)
            else:
                supply -= led.penalize(a, amount, height)
        except LedgerError:
            pass
    assert led.total_supply() == pytest.approx(supply, abs=1e-9)
    for acct in led.snapshot().values():
        assert acct["liquid"] >= -1e-12
        assert acct["active"] >= -1e-12
        assert all(amt > 0 for amt, _ in acct["maturing"])
        assert all(amt >= -1e-12 for amt, _ in acct["withdrawing"])

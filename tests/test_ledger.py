"""Stake map: genesis stake is each staker's voting power."""

import pytest

from powpos.ledger import Ledger
import powpos


def test_queries_on_absent_account_are_zero():
    led = Ledger(((1, 5.0),))
    assert led.voting_power(1) == 5.0
    assert led.voting_power(99) == 0.0


def test_baseline_stake_grants_sum_to_total():
    config = powpos.baseline_config()
    led = Ledger(config.stakers)
    total = sum(stake for _, stake in config.stakers)
    assert total == 380.0
    assert sum(led.voting_power(a) for a, _ in config.stakers) == total
    assert led.voting_power(0) / total == pytest.approx(160.0 / 380.0)

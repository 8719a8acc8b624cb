"""Stake map: each staker's genesis stake, which is its voting power.

Stake is granted once at genesis and never moves; block rewards are tallied
in the run report, not in the map.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class Ledger:
    def __init__(self, stakes: Iterable[Tuple[int, float]]):
        self.stakes: Dict[int, float] = dict(stakes)

    def voting_power(self, account: int) -> float:
        """The account's stake; an account with no stake votes with 0."""
        return self.stakes.get(account, 0.0)

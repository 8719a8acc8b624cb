"""Stake lifecycle accounting.

Stake moves through four states: liquid, maturing, active, withdrawing.
Locking moves liquid value into a maturing bucket that becomes voting power
``maturation`` heights later (inclusive: locked at height h, it votes from
height h + maturation onward).  Unlocking moves active value into a
withdrawing bucket that returns to liquid ``withdrawal`` heights later, and
the value stops voting immediately.  Maturity is all-or-nothing per bucket.

Block rewards are credited to the liquid balance; nothing is auto-locked.
The ledger is single-writer: mutations settle due buckets first and must be
applied at non-decreasing heights, while read queries are pure in the height
argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


class LedgerError(ValueError):
    pass


@dataclass(slots=True)
class Bucket:
    amount: float
    height: int  # activation height for maturing, release height for withdrawing


@dataclass(slots=True)
class StakeAccount:
    liquid: float = 0.0
    active: float = 0.0
    maturing: List[Bucket] = field(default_factory=list)
    withdrawing: List[Bucket] = field(default_factory=list)

    def total(self) -> float:
        return (
            self.liquid
            + self.active
            + sum(b.amount for b in self.maturing)
            + sum(b.amount for b in self.withdrawing)
        )

    def voting_power(self, height: int) -> float:
        if not self.maturing:
            return self.active
        return self.active + sum(b.amount for b in self.maturing if b.height <= height)

    def liquid_at(self, height: int) -> float:
        return self.liquid + sum(b.amount for b in self.withdrawing if b.height <= height)


class Ledger:
    def __init__(self, maturation: int, withdrawal: int):
        if maturation < 1 or withdrawal < 1:
            raise LedgerError("maturation and withdrawal periods must be at least 1")
        self.maturation = maturation
        self.withdrawal = withdrawal
        self.accounts: Dict[int, StakeAccount] = {}

    def ensure(self, account: int) -> StakeAccount:
        acct = self.accounts.get(account)
        if acct is None:
            acct = StakeAccount()
            self.accounts[account] = acct
        return acct

    def _settle(self, acct: StakeAccount, height: int) -> None:
        # Move due buckets into their destination balances.
        if acct.maturing:
            due = [b for b in acct.maturing if b.height <= height]
            if due:
                acct.active += sum(b.amount for b in due)
                acct.maturing = [b for b in acct.maturing if b.height > height]
        if acct.withdrawing:
            due = [b for b in acct.withdrawing if b.height <= height]
            if due:
                acct.liquid += sum(b.amount for b in due)
                acct.withdrawing = [b for b in acct.withdrawing if b.height > height]

    # -- mutations -------------------------------------------------------

    def credit(self, account: int, amount: float) -> None:
        """Credit liquid value (rewards, settlements, genesis allocations)."""
        if amount < 0:
            raise LedgerError("credit amount must be non-negative")
        self.ensure(account).liquid += amount

    def grant_active(self, account: int, amount: float) -> None:
        """Genesis stake: active from height 0 without a maturation round."""
        if amount < 0:
            raise LedgerError("granted stake must be non-negative")
        self.ensure(account).active += amount

    def lock(self, account: int, amount: float, height: int) -> None:
        if amount <= 0:
            raise LedgerError("lock amount must be positive")
        acct = self.ensure(account)
        self._settle(acct, height)
        if amount > acct.liquid:
            raise LedgerError("insufficient liquid balance to lock")
        acct.liquid -= amount
        acct.maturing.append(Bucket(amount, height + self.maturation))

    def unlock(self, account: int, amount: float, height: int) -> None:
        if amount <= 0:
            raise LedgerError("unlock amount must be positive")
        acct = self.ensure(account)
        self._settle(acct, height)
        if amount > acct.active:
            raise LedgerError("insufficient active stake to unlock")
        acct.active -= amount
        acct.withdrawing.append(Bucket(amount, height + self.withdrawal))

    def transfer(self, sender: int, recipient: int, amount: float, height: int) -> None:
        if amount <= 0:
            raise LedgerError("transfer amount must be positive")
        src = self.ensure(sender)
        self._settle(src, height)
        if amount > src.liquid:
            raise LedgerError("insufficient liquid balance to transfer")
        src.liquid -= amount
        self.ensure(recipient).liquid += amount

    def penalize(self, account: int, amount: float, height: int) -> float:
        """Debit a penalty: liquid first, then active, then withdrawing buckets.

        Returns the amount actually debited (capped by available balance).
        """
        if amount < 0:
            raise LedgerError("penalty must be non-negative")
        acct = self.ensure(account)
        self._settle(acct, height)
        remaining = amount
        take = min(acct.liquid, remaining)
        acct.liquid -= take
        remaining -= take
        take = min(acct.active, remaining)
        acct.active -= take
        remaining -= take
        if remaining > 0 and acct.withdrawing:
            kept = []
            for bucket in acct.withdrawing:
                take = min(bucket.amount, remaining)
                bucket.amount -= take
                remaining -= take
                if bucket.amount > 0:
                    kept.append(bucket)
            acct.withdrawing = kept
        return amount - remaining

    # -- queries ---------------------------------------------------------

    def voting_power(self, account: int, height: int) -> float:
        acct = self.accounts.get(account)
        return 0.0 if acct is None else acct.voting_power(height)

    def liquid_at(self, account: int, height: int) -> float:
        acct = self.accounts.get(account)
        return 0.0 if acct is None else acct.liquid_at(height)

    def total_balance(self, account: int) -> float:
        acct = self.accounts.get(account)
        return 0.0 if acct is None else acct.total()

    def total_supply(self) -> float:
        return sum(acct.total() for acct in self.accounts.values())

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every account's four balances."""
        out = {}
        for account in sorted(self.accounts):
            acct = self.accounts[account]
            out[str(account)] = {
                "liquid": acct.liquid,
                "active": acct.active,
                "maturing": [[b.amount, b.height] for b in acct.maturing],
                "withdrawing": [[b.amount, b.height] for b in acct.withdrawing],
            }
        return out

"""Deterministic stand-ins for the chain's cryptographic primitives.

The consensus protocol treats its hash function as a random oracle and its
seed signatures as deterministic per-key values.  For simulation purposes both
are realized as a keyed PRF (BLAKE2b) over a run-level seed, which makes every
derived quantity a pure function of (run seed, inputs): no call here reads
ambient randomness, so whole simulations replay bit for bit.

A :class:`Digest` carries the raw 256-bit value plus a ``unit`` view in
(0, 1], which is what staking eligibility consumes.  The zero digest maps to
the smallest positive unit so that ``ln(unit)`` stays finite.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Union

TWO_256 = 1 << 256

# Unit value assigned to the (probability 2**-256) all-zero digest.
MIN_UNIT = 2.0 ** -256

Hashable = Union[bytes, str, int, float, "Digest", Enum]


@dataclass(frozen=True, slots=True)
class Digest:
    """A 256-bit oracle output."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < TWO_256:
            raise ValueError("digest value out of 256-bit range")

    @property
    def unit(self) -> float:
        """Map the digest into (0, 1]; zero maps to the smallest positive unit."""
        if self.value == 0:
            return MIN_UNIT
        return self.value / TWO_256

    @property
    def hex(self) -> str:
        return format(self.value, "064x")


@dataclass(frozen=True, slots=True)
class KeyPair:
    """Simulation keypair: the public side doubles as the account id."""

    pk: int
    sk: bytes


def _encode_part(part: Hashable) -> bytes:
    # Tag + length framing keeps distinct argument tuples distinct.
    if isinstance(part, Digest):
        body = part.value.to_bytes(32, "big")
        tag = b"D"
    elif isinstance(part, bytes):
        body = part
        tag = b"B"
    elif isinstance(part, str):
        body = part.encode("utf-8")
        tag = b"S"
    elif isinstance(part, Enum):
        body = str(part.value).encode("utf-8")
        tag = b"E"
    elif isinstance(part, bool):
        body = b"\x01" if part else b"\x00"
        tag = b"b"
    elif isinstance(part, int):
        length = (part.bit_length() + 8) // 8 + 1
        body = part.to_bytes(length, "big", signed=True)
        tag = b"I"
    elif isinstance(part, float):
        body = struct.pack(">d", part)
        tag = b"F"
    else:
        raise TypeError(f"cannot hash part of type {type(part)!r}")
    return tag + len(body).to_bytes(4, "big") + body


class HashOracle:
    """Keyed deterministic PRF standing in for hashing and seed signatures.

    All randomness-like behavior in a run flows through one oracle instance,
    keyed by the run seed.  Distinct runs get independent-looking digests;
    identical runs get identical ones.
    """

    __slots__ = ("run_seed", "_keyed")

    def __init__(self, run_seed: int):
        self.run_seed = int(run_seed)
        key = (self.run_seed % (1 << 128)).to_bytes(16, "big")
        # Keyed once; every call hashes into a copy of this fresh state.
        self._keyed = hashlib.blake2b(key=key, digest_size=32)

    def hash(self, *parts: Hashable) -> Digest:
        h = self._keyed.copy()
        for part in parts:
            h.update(_encode_part(part))
        return Digest(int.from_bytes(h.digest(), "big"))

    def sign_seed(self, prev: Digest, sk: bytes) -> Digest:
        """Deterministic signature of the previous seed under ``sk``."""
        return self.hash("seed-signature", prev, sk)

    def keypair(self, account: int) -> KeyPair:
        """Deterministic per-account keypair; ``pk`` is the account id."""
        sk = self.hash("keygen", account).value.to_bytes(32, "big")
        return KeyPair(pk=account, sk=sk)

    def derive_seed(self, *parts: Hashable) -> int:
        """A 64-bit integer suitable for seeding an auxiliary RNG stream."""
        return self.hash("derive-seed", *parts).value & ((1 << 64) - 1)

    def rng(self, *parts: Hashable) -> random.Random:
        """A dedicated deterministic RNG stream labeled by ``parts``."""
        return random.Random(self.derive_seed(*parts))


def genesis_seed(oracle: HashOracle) -> Digest:
    """The protocol-constant seed the first staking round signs over."""
    return oracle.hash("genesis-seed")

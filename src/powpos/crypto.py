"""Deterministic stand-ins for the chain's cryptographic primitives.

The consensus protocol treats its hash function as a random oracle and its
seed signatures as deterministic per-key values.  For simulation purposes both
are realized as a keyed PRF (BLAKE2b) over a run-level seed, which makes every
derived quantity a pure function of (run seed, inputs): no call here reads
ambient randomness, so whole simulations replay bit for bit.

A :class:`Digest` carries the raw 256-bit value plus a ``unit`` view in
(0, 1], which is what staking eligibility consumes.  The zero digest maps to
the smallest positive unit so that ``ln(unit)`` stays finite.

Every call is a fresh BLAKE2b state, keyed by the run seed, fed the framed
parts in order.  Calls nearly always lead with a constant string label
(``"seed-signature"``, ``"block-id"``, ``"derive-seed"`` ...), so an oracle
keeps the keyed state after each such label, up to ``_MAX_LABELS`` of them,
and copies it instead of framing the label again.  The digest is the same
either way: it depends only on the bytes fed.

Seed signatures are framed here alone.  ``HashOracle.seed_signing`` frames
``"seed-signature"`` and one seed anchor into a keyed state, and a
:class:`KeyPair` holds its ``sk`` framed once, so the staking lottery
(``forging``'s slot kernel) signs a key with one copy and one update.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple, Union

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
        return unit_of(self.value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Digest":
        """The digest whose value is the 32 big-endian bytes ``raw``."""
        return _make_digest(raw)


def unit_of(value: int) -> float:
    """The ``unit`` of the digest with 256-bit ``value``."""
    return value / TWO_256 or MIN_UNIT


@dataclass(frozen=True, slots=True)
class KeyPair:
    """Simulation keypair: ``pk`` doubles as the account id; ``framed_sk`` is ``sk`` framed."""

    pk: int
    sk: bytes
    framed_sk: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "framed_sk", _encode_bytes(self.sk))


# Tag + 4-byte big-endian body length + body keeps distinct argument tuples
# distinct.  One encoder per common part type; ``_encode_part`` dispatches to
# them by ``isinstance`` and frames the rest itself.

def _frame(tag: bytes, body: bytes) -> bytes:
    return tag + len(body).to_bytes(4, "big") + body


_DIGEST_FRAME = b"D" + (32).to_bytes(4, "big")
_FLOAT_FRAME = b"F" + (8).to_bytes(4, "big")
_pack_double = struct.Struct(">d").pack


def _encode_digest(part: Digest) -> bytes:
    return _DIGEST_FRAME + part.value.to_bytes(32, "big")


def _encode_bytes(part: bytes) -> bytes:
    return b"B" + len(part).to_bytes(4, "big") + part


def _encode_str(part: str) -> bytes:
    return _frame(b"S", part.encode("utf-8"))


def _encode_int(part: int) -> bytes:
    return _frame(b"I", part.to_bytes((part.bit_length() + 8) // 8 + 1, "big", signed=True))


def _encode_float(part: float) -> bytes:
    return _FLOAT_FRAME + _pack_double(part)


def _encode_part(part: Hashable) -> bytes:
    if isinstance(part, Digest):
        return _encode_digest(part)
    if isinstance(part, bytes):
        return _encode_bytes(part)
    if isinstance(part, str):
        return _encode_str(part)
    if isinstance(part, Enum):
        return _frame(b"E", str(part.value).encode("utf-8"))
    if isinstance(part, bool):
        return _frame(b"b", b"\x01" if part else b"\x00")
    if isinstance(part, int):
        return _encode_int(part)
    if isinstance(part, float):
        return _encode_float(part)
    raise TypeError(f"cannot hash part of type {type(part)!r}")


# The encoders by exact type, for ``HashOracle.hash``.  ``bool``, ``Enum``
# members and every subclass miss this table and go through ``_encode_part``,
# which orders the checks so that they frame as themselves.
_ENCODERS = {
    Digest: _encode_digest,
    bytes: _encode_bytes,
    str: _encode_str,
    int: _encode_int,
    float: _encode_float,
}

_new_digest = object.__new__
_set_value = object.__setattr__


def _make_digest(raw: bytes) -> Digest:
    # A 32-byte digest is always in range: skip the constructor's check.
    digest = _new_digest(Digest)
    _set_value(digest, "value", int.from_bytes(raw, "big"))
    return digest


# Distinct leading labels whose keyed state one oracle keeps.
_MAX_LABELS = 64


class HashOracle:
    """Keyed deterministic PRF standing in for hashing and seed signatures.

    All randomness-like behavior in a run flows through one oracle instance,
    keyed by the run seed.  Distinct runs get independent-looking digests;
    identical runs get identical ones.
    """

    __slots__ = ("run_seed", "_keyed", "_labelled", "_signing", "_digesting")

    def __init__(self, run_seed: int):
        self.run_seed = int(run_seed)
        key = (self.run_seed % (1 << 128)).to_bytes(16, "big")
        # Keyed once; every call hashes into a copy of this fresh state.
        self._keyed = hashlib.blake2b(key=key, digest_size=32)
        # The keyed state after each leading string label, framed once.
        self._labelled: Dict[str, "hashlib._Hash"] = {}
        # The keyed state after the seed-signature label, and after a digest's frame.
        self._signing, self._digesting = self._keyed.copy(), self._keyed.copy()
        self._signing.update(_encode_str("seed-signature"))
        self._digesting.update(_DIGEST_FRAME)

    def hash(self, *parts: Hashable) -> Digest:
        if parts and type(parts[0]) is str:
            label = parts[0]
            h = self._labelled.get(label)
            if h is None:
                h = self._keyed.copy()
                h.update(_encode_str(label))
                if len(self._labelled) < _MAX_LABELS:
                    self._labelled[label] = h
            h = h.copy()
            parts = parts[1:]
        else:
            h = self._keyed.copy()
        data = b""
        for part in parts:
            data += _ENCODERS.get(type(part), _encode_part)(part)
        h.update(data)
        return _make_digest(h.digest())

    def sign_seed(self, prev: Digest, sk: bytes) -> Digest:
        """Deterministic signature of the previous seed under ``sk``."""
        return self.hash("seed-signature", prev, sk)

    def seed_signing(self, prev: Digest) -> Tuple["hashlib._Hash", "hashlib._Hash"]:
        """Two keyed states to copy per key: a key's ``framed_sk`` completes the
        first into its ``sign_seed(prev, sk)``, and that signature's 32 raw
        bytes complete the second into the signature's ``hash``."""
        signing = self._signing.copy()
        signing.update(_encode_digest(prev))
        return signing, self._digesting

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

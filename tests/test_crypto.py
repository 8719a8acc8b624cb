"""Determinism and uniformity of the hash/signature stand-ins."""

import enum
import hashlib
import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from powpos import crypto, stats
from powpos.chain import BlockKind


def test_hash_is_deterministic():
    a = crypto.HashOracle(7)
    b = crypto.HashOracle(7)
    assert a.hash("block", 1).value == b.hash("block", 1).value
    assert a.hash("block", 1).value == a.hash("block", 1).value


def test_hash_depends_on_run_seed():
    assert crypto.HashOracle(1).hash("x").value != crypto.HashOracle(2).hash("x").value


def test_hash_depends_on_preimage():
    oracle = crypto.HashOracle(1)
    assert oracle.hash("x", 1).value != oracle.hash("x", 2).value
    assert oracle.hash("x", 1).value != oracle.hash("y", 1).value


def test_unit_is_in_half_open_interval():
    oracle = crypto.HashOracle(3)
    units = [oracle.hash("u", i).unit for i in range(1000)]
    assert all(0.0 < u <= 1.0 for u in units)


def test_zero_digest_maps_to_smallest_unit():
    zero = crypto.Digest(0)
    assert zero.unit == crypto.MIN_UNIT
    assert zero.unit > 0.0
    assert math.isfinite(math.log(zero.unit))


def test_units_pass_uniformity_ks():
    oracle = crypto.HashOracle(11)
    units = [oracle.hash("uniform", i).unit for i in range(50_000)]
    assert stats.uniform_ks(units) < stats.ks_critical(len(units))


def test_seed_chain_units_pass_uniformity_ks():
    # Eligibility draws hash(sign(seed, sk)); the composition must stay uniform
    # across many stakers and rounds.
    oracle = crypto.HashOracle(13)
    units = []
    for account in range(50):
        key = oracle.keypair(account)
        seed = crypto.genesis_seed(oracle)
        for _ in range(400):
            seed = oracle.sign_seed(seed, key.sk)
            units.append(oracle.hash(seed.value).unit)
    assert stats.uniform_ks(units) < stats.ks_critical(len(units))


def test_keypair_is_deterministic_and_distinct():
    oracle = crypto.HashOracle(17)
    k1 = oracle.keypair(1)
    assert oracle.keypair(1).sk == k1.sk
    assert oracle.keypair(2).sk != k1.sk
    assert k1.pk == 1


def test_sign_seed_differs_by_key():
    oracle = crypto.HashOracle(19)
    seed = crypto.genesis_seed(oracle)
    s1 = oracle.sign_seed(seed, oracle.keypair(1).sk)
    s2 = oracle.sign_seed(seed, oracle.keypair(2).sk)
    assert s1.value != s2.value


def test_rng_streams_are_independent_and_reproducible():
    oracle = crypto.HashOracle(23)
    r1 = oracle.rng("miner", 1)
    r2 = oracle.rng("miner", 2)
    again = crypto.HashOracle(23).rng("miner", 1)
    seq1 = [r1.random() for _ in range(5)]
    assert seq1 == [again.random() for _ in range(5)]
    assert seq1 != [r2.random() for _ in range(5)]


def test_genesis_seed_is_stable_per_run_seed():
    assert crypto.genesis_seed(crypto.HashOracle(1)).value == \
        crypto.genesis_seed(crypto.HashOracle(1)).value
    assert crypto.genesis_seed(crypto.HashOracle(1)).value != \
        crypto.genesis_seed(crypto.HashOracle(2)).value


# -- framing ---------------------------------------------------------------
# The oracle's documented preimage: per part a one-byte type tag, the body
# length as 4 bytes big-endian, then the body, fed to BLAKE2b-256 keyed by
# the low 128 bits of the run seed.


class Small(enum.IntEnum):
    ONE = 1


def reference_hash(run_seed, *parts):
    h = hashlib.blake2b(key=(run_seed % (1 << 128)).to_bytes(16, "big"), digest_size=32)
    for part in parts:
        if isinstance(part, crypto.Digest):
            tag, body = b"D", part.value.to_bytes(32, "big")
        elif isinstance(part, bytes):
            tag, body = b"B", part
        elif isinstance(part, str):
            tag, body = b"S", part.encode("utf-8")
        elif isinstance(part, enum.Enum):
            tag, body = b"E", str(part.value).encode("utf-8")
        elif isinstance(part, bool):
            tag, body = b"b", bytes([part])
        elif isinstance(part, int):
            size = (part.bit_length() + 8) // 8 + 1
            tag, body = b"I", part.to_bytes(size, "big", signed=True)
        else:
            tag, body = b"F", struct.pack(">d", part)
        h.update(tag + struct.pack(">I", len(body)) + body)
    return int.from_bytes(h.digest(), "big")


PARTS = st.one_of(
    st.builds(crypto.Digest, st.integers(0, crypto.TWO_256 - 1)),
    st.binary(max_size=40),
    st.text(max_size=12),
    st.booleans(),
    st.integers(-(1 << 300), 1 << 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.sampled_from(list(BlockKind) + [Small.ONE]),
)

# One oracle across examples, so that labels hit its cache and overflow it.
SHARED = crypto.HashOracle(2**130 + 29)


@settings(max_examples=300, deadline=None)
@given(label=st.one_of(st.none(), st.text(max_size=12), st.sampled_from(["block-id", "é"])),
       parts=st.lists(PARTS, max_size=7))
@example(label=None, parts=[])
@example(label="seed-signature", parts=[crypto.Digest(5), b"\x00" * 32])
@example(label="ü", parts=[True, 1, False, 0, -(1 << 257), 1 << 256, "é", -0.0, math.nan])
@example(label=None, parts=[BlockKind.POS, True, 1.0, "block-id"])
def test_hash_matches_documented_framing(label, parts):
    parts = ([label] if label is not None else []) + parts
    expected = reference_hash(SHARED.run_seed, *parts)
    assert SHARED.hash(*parts).value == expected
    assert SHARED.hash(*parts).value == expected  # again, from a cached label
    assert crypto.HashOracle(SHARED.run_seed).hash(*parts).value == expected


def test_hash_digests_pinned():
    # Recorded before the oracle kept per-label states.
    oracle = crypto.HashOracle(1)
    d = oracle.hash("x")
    pinned = [
        ((), "4125068ff593f023c033be912a42433f44682b9cf5d8865ea37b8ec35b5f08a4"),
        (("seed-signature", d, b"\x01" * 32),
         "621231fa2ca122ce0916200a540cbbfd81ba95080c92e11762b1c0807c27afeb"),
        (("block-id", 1 << 300, BlockKind.POS, 1.5, -0.0, math.inf, math.nan, True, False,
          -5, 0, d), "4ab3186277b3120a3572c407cfeef24abfb77053d5e53b6dba8fc4ed5717130f"),
        ((d,), "b1de6d461f0c4c33796eac370f70d5c8c5a4a3b1fa0e2f894db8708826ecedc4"),
        (("ü", "é", b"", "", -(1 << 257)),
         "e2bb3485eeb67a80b8ea6cb3ec2ff1525fad02770c9044f00de70bd458be4432"),
        ((True, 1, False, 0), "68ffcafc5007db42581f4bd4ccc6cbd4e9197751344544e8ea77c5fb06dccf0f"),
    ]
    for parts, digest in pinned:
        assert format(oracle.hash(*parts).value, "064x") == digest
    derived = crypto.HashOracle(123456789).hash("derive-seed", "miner", 3)
    assert format(derived.value, "064x") == (
        "fd7a1373e6d8746db70c555aa6fcb20a003653d0af23c3fd0e0f59781678ce1c")


def test_hash_rejects_unknown_part_types():
    with pytest.raises(TypeError):
        crypto.HashOracle(1).hash("label", [1, 2])


# -- seed signing states --------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(run_seed=st.integers(0, 1 << 140), prev=st.integers(0, crypto.TWO_256 - 1),
       sks=st.lists(st.binary(max_size=40), max_size=6))
@example(run_seed=1, prev=0, sks=[b"", b"\x00" * 32, b""])
def test_seed_signing_states_complete_key_by_key_signatures(run_seed, prev, sks):
    # The slot kernel's framing, checked against BLAKE2b framed from scratch.
    oracle = crypto.HashOracle(run_seed)
    for sk in sks:
        signing, digesting = oracle.seed_signing(crypto.Digest(prev))
        signing.update(crypto.KeyPair(pk=0, sk=sk).framed_sk)
        raw = signing.digest()
        assert int.from_bytes(raw, "big") == reference_hash(
            run_seed, "seed-signature", crypto.Digest(prev), sk)
        hashed = digesting.copy()
        hashed.update(raw)
        assert int.from_bytes(hashed.digest(), "big") == reference_hash(
            run_seed, crypto.Digest.from_bytes(raw))

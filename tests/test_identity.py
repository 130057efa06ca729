"""Key handling: address derivation, signing, and verification by the oracle."""

import hashlib

import pytest

from pactsim.identity import (
    PUBKEY_LEN,
    SIGNATURE_LEN,
    Credential,
    address_of,
    verify,
)

from .conftest import cred, validator_set


def test_address_is_truncated_pubkey_digest():
    c = cred(1)
    assert len(c.public_key) == PUBKEY_LEN
    # Independent derivation straight from hashlib.
    assert c.address == hashlib.sha256(c.public_key).digest()[:20]
    assert address_of(c.public_key) == c.address


def test_same_seed_same_key():
    assert cred(5).public_key == cred(5).public_key
    assert cred(5).address != cred(6).address


def test_sign_and_verify():
    c = cred(2)
    sig = c.sign(b"hello")
    assert len(sig) == SIGNATURE_LEN
    assert verify(c.public_key, b"hello", sig)
    assert not verify(c.public_key, b"hellp", sig)
    assert not verify(cred(3).public_key, b"hello", sig)


def test_verify_rejects_mangled_signature():
    c = cred(4)
    sig = bytearray(c.sign(b"m"))
    sig[0] ^= 0x01
    assert not verify(c.public_key, b"m", bytes(sig))
    pub = bytearray(c.public_key)
    pub[-1] ^= 0x01
    assert not verify(bytes(pub), b"m", c.sign(b"m"))


def test_verify_rejects_malformed_inputs():
    c = cred(7)
    assert not verify(b"\x00" * PUBKEY_LEN, b"m", c.sign(b"m"))
    # well formed, but no credential was issued for it
    assert not verify(hashlib.sha256(b"never issued").digest(), b"m", c.sign(b"m"))
    assert not verify(c.public_key, b"m", b"short")


def test_signature_is_deterministic():
    c = cred(8)
    assert c.sign(b"payload") == c.sign(b"payload")


def test_validator_set_checks_signers_against_its_own_keys():
    a, b, outsider = cred(10), cred(11), cred(12)
    vset = validator_set([a, b])
    assert a.address in vset and b.address in vset
    assert outsider.address not in vset
    assert vset.signed(a.address, b"m", a.sign(b"m"))
    assert not vset.signed(a.address, b"m", b.sign(b"m"))
    assert not vset.signed(a.address, b"n", a.sign(b"m"))
    # A real signature from an issued key counts only inside the set.
    assert verify(outsider.public_key, b"m", outsider.sign(b"m"))
    assert not vset.signed(outsider.address, b"m", outsider.sign(b"m"))


def test_seed_must_be_32_bytes():
    with pytest.raises(ValueError):
        Credential.from_seed_bytes(b"short")

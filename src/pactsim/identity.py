"""Keys, addresses, and signatures.

Each domain account and each node identity is an Ed25519 keypair whose
key material comes from the run's seeded RNG, so a given scenario seed
always produces the same addresses and the same (deterministic, RFC 8032)
signatures.  An address is the first 20 bytes of the SHA-256 digest of
the public key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

from .encoding import ADDRESS_LEN

PUBKEY_LEN = 32
SIGNATURE_LEN = 64

ZERO_ADDRESS = b"\x00" * ADDRESS_LEN


def address_of(public_key_bytes: bytes) -> bytes:
    """Derive the 20-byte address of a public key."""
    if len(public_key_bytes) != PUBKEY_LEN:
        raise ValueError(f"public key must be {PUBKEY_LEN} bytes")
    return hashlib.sha256(public_key_bytes).digest()[:ADDRESS_LEN]


@dataclass(frozen=True)
class Credential:
    """A private signing key plus its derived public identity."""

    signing_key: Ed25519PrivateKey = field(repr=False)
    public_key: bytes
    address: bytes

    @classmethod
    def from_seed_bytes(cls, seed32: bytes) -> "Credential":
        if len(seed32) != 32:
            raise ValueError("credential seed must be 32 bytes")
        sk = Ed25519PrivateKey.from_private_bytes(seed32)
        pub = sk.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return cls(signing_key=sk, public_key=pub, address=address_of(pub))

    def sign(self, preimage: bytes) -> bytes:
        return self.signing_key.sign(preimage)


def verify(public_key_bytes: bytes, preimage: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; False on any mismatch, never raises."""
    if len(signature) != SIGNATURE_LEN or len(public_key_bytes) != PUBKEY_LEN:
        return False
    # The cache keys on the full preimage: a repeated check of the same
    # signed bytes, which every node makes for a broadcast message, runs once.
    return _verify_cached(public_key_bytes, signature, preimage)


@lru_cache(maxsize=1 << 16)
def _verify_cached(pub: bytes, sig: bytes, preimage: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(pub).verify(sig, preimage)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass
class KeyRegistry:
    """Address -> public key map for identities fixed at genesis.

    Validator message and seal verification looks senders up here;
    ordinary transactions carry their public key inline instead.
    """

    _keys: dict = field(default_factory=dict)

    def add(self, credential: Credential) -> None:
        self._keys[credential.address] = credential.public_key

    def add_public(self, address: bytes, public_key: bytes) -> None:
        self._keys[address] = public_key

    def public_key_of(self, address: bytes) -> bytes | None:
        return self._keys.get(address)

    def __contains__(self, address: bytes) -> bool:
        return address in self._keys

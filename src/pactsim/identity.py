"""Keys, addresses, and signatures from an ideal signature oracle.

Signatures stand in for Canetti's ideal signature functionality F_SIG:
a verifier asks whether a key signed some bytes, and no party can forge.
A credential is a 32-byte seed from the run's seeded RNG.  Its public key
is SHA-256 of `PKY1` and the seed, a signature is keyed BLAKE2b of the
preimage under the seed, and verification recomputes that MAC with the
seed issued for the key (docs/encoding.md).  An address is the first 20
bytes of the SHA-256 digest of the public key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from .encoding import ADDRESS_LEN, TAG_KEY, tagged_digest

PUBKEY_LEN = 32
SIGNATURE_LEN = 64

# Public key -> seed of every credential issued in this process.  Each
# entry is a pure function of its key, so runs sharing the table cannot
# change each other's results.
_SEEDS: dict[bytes, bytes] = {}


def address_of(public_key_bytes: bytes) -> bytes:
    """Derive the 20-byte address of a public key."""
    if len(public_key_bytes) != PUBKEY_LEN:
        raise ValueError(f"public key must be {PUBKEY_LEN} bytes")
    return hashlib.sha256(public_key_bytes).digest()[:ADDRESS_LEN]


@dataclass(frozen=True)
class Credential:
    """A secret signing seed plus its derived public identity."""

    seed: bytes = field(repr=False)
    public_key: bytes
    address: bytes

    @classmethod
    def from_seed_bytes(cls, seed32: bytes) -> "Credential":
        if len(seed32) != 32:
            raise ValueError("credential seed must be 32 bytes")
        pub = tagged_digest(TAG_KEY, seed32)
        _SEEDS[pub] = seed32
        return cls(seed=seed32, public_key=pub, address=address_of(pub))

    def sign(self, preimage: bytes) -> bytes:
        return _mac(self.seed, preimage)


def _mac(seed: bytes, preimage: bytes) -> bytes:
    return hashlib.blake2b(preimage, key=seed, digest_size=SIGNATURE_LEN).digest()


def verify(public_key_bytes: bytes, preimage: bytes, signature: bytes) -> bool:
    """Check a signature against the oracle; False on any mismatch, never raises."""
    if len(signature) != SIGNATURE_LEN or len(public_key_bytes) != PUBKEY_LEN:
        return False
    # The cache keys on the full preimage: a repeated check of the same
    # signed bytes, which every node makes for a broadcast message, runs once.
    return _verify_cached(public_key_bytes, signature, preimage)


@lru_cache(maxsize=1 << 16)
def _verify_cached(pub: bytes, sig: bytes, preimage: bytes) -> bool:
    # A cached False cannot go stale: a valid signature under a key exists
    # only after `from_seed_bytes` has registered that key.
    seed = _SEEDS.get(pub)
    return seed is not None and _mac(seed, preimage) == sig


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

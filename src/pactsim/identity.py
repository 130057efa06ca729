"""Keys, addresses, and signatures from an ideal signature oracle.

Signatures stand in for Canetti's ideal signature functionality F_SIG:
a verifier asks whether a key signed some bytes, and no party can forge.
A credential is a 32-byte seed from the run's seeded RNG.  Its public key
is SHA-256 of `PKY1` and the seed, a signature is keyed BLAKE2b of the
preimage under the seed, and verification recomputes that MAC with the
seed issued for the key (docs/encoding.md).  An address is the first 20
bytes of the SHA-256 digest of the public key.

`ValidatorSet` holds the genesis validators: their proposer order, the
quorum, and the only keys that consensus messages and block seals are
checked against.
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
    # The cache keys on the full preimage.  A run repeats few checks, since
    # consensus checks each message object once (`consensus._authentic`);
    # the cache stays because `perfbench` reads its counts.
    return _verify_cached(public_key_bytes, signature, preimage)


@lru_cache(maxsize=1 << 16)
def _verify_cached(pub: bytes, sig: bytes, preimage: bytes) -> bool:
    # A cached False cannot go stale: a valid signature under a key exists
    # only after `from_seed_bytes` has registered that key.
    seed = _SEEDS.get(pub)
    return seed is not None and _mac(seed, preimage) == sig


def fault_tolerance(n: int) -> int:
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    return 2 * fault_tolerance(n) + 1


@dataclass(frozen=True)
class ValidatorSet:
    """The validators fixed at genesis: proposer order, quorum, and keys.

    Built from (address, public key) pairs in proposer order.  Consensus
    messages, prepared certificates and block seals are checked against
    these keys only; ordinary transactions carry their public key inline.
    """

    keys: tuple[tuple[bytes, bytes], ...]
    addresses: tuple[bytes, ...] = field(init=False, compare=False, repr=False)
    n: int = field(init=False, compare=False)
    quorum: int = field(init=False, compare=False)
    _key_of: dict[bytes, bytes] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "addresses", tuple(address for address, _ in self.keys))
        object.__setattr__(self, "n", len(self.keys))
        object.__setattr__(self, "quorum", quorum_size(self.n))
        object.__setattr__(self, "_key_of", dict(self.keys))

    def proposer_for(self, height: int, round_: int) -> bytes:
        return self.addresses[(height + round_) % self.n]

    def __contains__(self, address: bytes) -> bool:
        return address in self._key_of

    def signed(self, address: bytes, preimage: bytes, signature: bytes) -> bool:
        """Whether a validator of this set signed `preimage`; False for any outsider."""
        pub = self._key_of.get(address)
        return pub is not None and verify(pub, preimage, signature)

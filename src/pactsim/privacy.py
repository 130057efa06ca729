"""Off-chain payload distribution between enclaves.

Each node runs an enclave holding group keys and encrypted payloads.
A private operation is encrypted under its group's symmetric key,
pushed directly to the enclave of the group's other member node, and
acknowledged with its hash; only the payload hash ever reaches the
chain, inside a privacy marker.  Non-member nodes never receive the key
or the payload, so their entire byte image contains nothing derived
from the plaintext.

A payload's transfer is drawn when it is submitted, in submission
order, from two streams that serve the whole run: four legs (push, ack,
second push, second ack) and one retry coin each.  Payload `k` thus
takes legs `4k ... 4k+3` and coin `k`, so the same delays recur for it
when unrelated parameters (such as the block interval) change, and in
whatever order payloads are distributed (docs/rng.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from typing import Callable

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .encoding import (
    ADDRESS_LEN,
    HASH_LEN,
    TAG_GROUP,
    digest,
    enc_bytes,
    enc_fixed,
    enc_list,
    tagged_digest,
)
from .simulation import STREAM_ENCLAVE, STREAM_KEYS, Network, RngHub, Uniform, block_draws, doubles

NONCE_LEN = 12
GROUP_KEY_LEN = 32


def group_id_for(member_pubkeys: list[bytes], consumer: bytes, provider: bytes) -> bytes:
    salt = enc_fixed(consumer, ADDRESS_LEN) + enc_fixed(provider, ADDRESS_LEN)
    return tagged_digest(TAG_GROUP, enc_list(sorted(member_pubkeys)) + enc_bytes(salt))


@dataclass
class GroupInfo:
    """Shared bookkeeping for one privacy group.

    `member_nodes` is a pair: the consumer's node and the provider's,
    two distinct nodes.
    """

    group_id: bytes
    consumer: bytes
    provider: bytes
    members: frozenset[bytes]
    member_nodes: tuple[str, ...]
    key: bytes
    pair_index: int
    next_nonce: int = 0

    def take_nonce(self) -> bytes:
        n = self.next_nonce
        self.next_nonce += 1
        return n.to_bytes(NONCE_LEN, "big")


class GroupDirectory:
    """All formed groups, keyed by id and by (consumer, provider) pair."""

    def __init__(self, rng_hub: RngHub):
        self.rng_hub = rng_hub
        self.by_id: dict[bytes, GroupInfo] = {}
        self.by_pair: dict[tuple[bytes, bytes], GroupInfo] = {}

    def get_or_form(
        self,
        consumer: bytes,
        provider: bytes,
        member_pubkeys: list[bytes],
        member_nodes: tuple[str, ...],
        pair_index: int,
    ) -> tuple[GroupInfo, bool]:
        pair = (consumer, provider)
        existing = self.by_pair.get(pair)
        if existing is not None:
            return existing, False
        gid = group_id_for(member_pubkeys, consumer, provider)
        # Sub-tag 3 keeps group keys clear of node and domain key seeds.
        key = self.rng_hub.key_bytes(STREAM_KEYS, 3, pair_index, n=GROUP_KEY_LEN)
        info = GroupInfo(
            group_id=gid,
            consumer=consumer,
            provider=provider,
            members=frozenset((consumer, provider)),
            member_nodes=member_nodes,
            key=key,
            pair_index=pair_index,
        )
        self.by_id[gid] = info
        self.by_pair[pair] = info
        return info, True


def encrypt_payload(key: bytes, nonce: bytes, plaintext: bytes, group_id: bytes) -> bytes:
    return ChaCha20Poly1305(key).encrypt(nonce, plaintext, group_id)


@dataclass(frozen=True)
class StoredPayload:
    group_id: bytes
    nonce: bytes
    ciphertext: bytes

    @cached_property
    def payload_hash(self) -> bytes:
        return digest(self.ciphertext)


def encode_wire(p: StoredPayload) -> bytes:
    return enc_fixed(p.group_id, HASH_LEN) + enc_fixed(p.nonce, NONCE_LEN) + enc_bytes(p.ciphertext)


class Enclave:
    """Per-node store of group keys and encrypted payloads.

    Like `encrypt_payload`, `open` builds its cipher from the key on
    each call; no cipher object is kept per key.
    """

    def __init__(self):
        self.keys: dict[bytes, bytes] = {}
        self.payloads: dict[bytes, StoredPayload] = {}

    def store_key(self, group_id: bytes, key: bytes) -> None:
        self.keys[group_id] = key

    def receive(self, payload: StoredPayload) -> bytes:
        h = payload.payload_hash
        self.payloads.setdefault(h, payload)
        return h

    def open(self, group_id: bytes, payload_hash: bytes) -> bytes | None:
        """Decrypt a stored payload of group `group_id` if this enclave holds that group's key."""
        stored = self.payloads.get(payload_hash)
        key = self.keys.get(group_id)
        if stored is None or key is None or stored.group_id != group_id:
            return None
        return ChaCha20Poly1305(key).decrypt(stored.nonce, stored.ciphertext, group_id)

    def dump_bytes(self) -> bytes:
        """Everything this enclave persists, for the isolation scan."""
        chunks = []
        for gid in sorted(self.keys):
            chunks.append(enc_fixed(gid, HASH_LEN) + enc_bytes(self.keys[gid]))
        for h in sorted(self.payloads):
            chunks.append(encode_wire(self.payloads[h]))
        return b"".join(chunks)


class PayloadCourier:
    """Runs the push/ack protocol for every node's outgoing payloads.

    Transfer legs come from enclave sub-stream 1 and retry coins from
    sub-stream 2, each read in turn by `draw_transfer`.
    """

    def __init__(
        self,
        network: Network,
        rng_hub: RngHub,
        enclaves: dict[str, Enclave],
        transfer_model: Uniform,
        retry_probability: float,
    ):
        self.network = network
        self.enclaves = enclaves
        self.retry_probability = retry_probability
        self._legs = block_draws(partial(transfer_model.block, rng_hub.derived(STREAM_ENCLAVE, 1)))
        self._coins = block_draws(partial(doubles, rng_hub.derived(STREAM_ENCLAVE, 2)))

    def draw_transfer(self) -> tuple[int, int]:
        """The next payload's transfer, as (arrival, acknowledgement) delays.

        Each payload takes four legs and one coin, so the `k`-th call
        reads legs `4k ... 4k+3` and coin `k`.  Legs `4k` (push) and
        `4k+1` (acknowledgement) carry the transfer; if coin `k` falls
        below the retry probability the first attempt is lost, and legs
        `4k+2` and `4k+3` carry a second push/ack pair after the first
        pair's worth of waiting.
        """
        push1, ack1, push2, ack2 = islice(self._legs, 4)
        if next(self._coins) < self.retry_probability:
            arrive_at = push1 + ack1 + push2
            return arrive_at, arrive_at + ack2
        return push1, push1 + ack1

    def distribute(
        self,
        group: GroupInfo,
        src_node: str,
        plaintext: bytes,
        transfer: tuple[int, int],
        on_complete: Callable[[bytes], None],
    ) -> bytes:
        """Encrypt at the source enclave and push to the group's other member.

        The group is a pair on two distinct nodes, so there is exactly
        one recipient.  `transfer` is the payload's pair from
        `draw_transfer`, drawn when it was submitted: the payload
        reaches the peer's enclave after the first delay, and the
        acknowledgement, the payload hash, reaches `on_complete` after
        the second, so the caller reads that time from the clock.  The
        hash is also returned at once.
        """
        nonce = group.take_nonce()
        ciphertext = encrypt_payload(group.key, nonce, plaintext, group.group_id)
        payload = StoredPayload(group_id=group.group_id, nonce=nonce, ciphertext=ciphertext)
        payload_hash = self.enclaves[src_node].receive(payload)
        (peer,) = (n for n in group.member_nodes if n != src_node)
        arrive_at, done_at = transfer
        self.network.send_after(src_node, peer, arrive_at, self.enclaves[peer].receive, payload)
        self.network.send_after(peer, src_node, done_at, on_complete, payload_hash)
        return payload_hash

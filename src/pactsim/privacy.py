"""Off-chain payload distribution between enclaves.

Each node runs an enclave holding group keys and encrypted payloads.
A private operation is encrypted under its group's symmetric key,
pushed directly to the enclave of the group's other member node, and
acknowledged; only the payload hash ever reaches the chain, inside a
privacy marker.  Non-member nodes never receive the key or the payload,
so their entire byte image contains nothing derived from the plaintext.

Transfer and acknowledgement delays for one payload are drawn from a
substream keyed by the payload's stable workload index, so the exact
same byte sequence of delays recurs when unrelated parameters (such as
the block interval) change.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .simulation import STREAM_ENCLAVE, STREAM_KEYS, Network, RngHub, Simulator, Uniform

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
        key = self.rng_hub.derived(STREAM_KEYS, 3, pair_index).bytes(GROUP_KEY_LEN)
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


def decrypt_payload(key: bytes, nonce: bytes, ciphertext: bytes, group_id: bytes) -> bytes:
    return ChaCha20Poly1305(key).decrypt(nonce, ciphertext, group_id)


def encode_wire(group_id: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return enc_fixed(group_id, HASH_LEN) + enc_fixed(nonce, NONCE_LEN) + enc_bytes(ciphertext)


@dataclass
class StoredPayload:
    group_id: bytes
    nonce: bytes
    ciphertext: bytes

    @property
    def payload_hash(self) -> bytes:
        return digest(self.ciphertext)


class Enclave:
    """Per-node store of group keys and encrypted payloads."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self.keys: dict[bytes, bytes] = {}
        self.payloads: dict[bytes, StoredPayload] = {}

    def store_key(self, group_id: bytes, key: bytes) -> None:
        self.keys[group_id] = key

    def receive(self, payload: StoredPayload) -> bytes:
        h = payload.payload_hash
        self.payloads.setdefault(h, payload)
        return h

    def get(self, payload_hash: bytes) -> StoredPayload | None:
        return self.payloads.get(payload_hash)

    def open(self, payload_hash: bytes) -> bytes | None:
        """Decrypt a stored payload if this enclave holds the group key."""
        stored = self.payloads.get(payload_hash)
        if stored is None:
            return None
        key = self.keys.get(stored.group_id)
        if key is None:
            return None
        return decrypt_payload(key, stored.nonce, stored.ciphertext, stored.group_id)

    def dump_bytes(self) -> bytes:
        """Everything this enclave persists, for the isolation scan."""
        chunks = []
        for gid in sorted(self.keys):
            chunks.append(enc_fixed(gid, HASH_LEN) + enc_bytes(self.keys[gid]))
        for h in sorted(self.payloads):
            p = self.payloads[h]
            chunks.append(encode_wire(p.group_id, p.nonce, p.ciphertext))
        return b"".join(chunks)


@dataclass
class DistributionResult:
    payload_hash: bytes
    started_at: int
    completed_at: int

    @property
    def enclave_ms(self) -> int:
        return self.completed_at - self.started_at


class PayloadCourier:
    """Runs the push/ack protocol for one node's outgoing payloads."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        rng_hub: RngHub,
        enclaves: dict[str, Enclave],
        transfer_model: Uniform,
        retry_probability: float,
    ):
        self.sim = sim
        self.network = network
        self.rng_hub = rng_hub
        self.enclaves = enclaves
        self.transfer_model = transfer_model
        self.retry_probability = retry_probability

    def distribute(
        self,
        group: GroupInfo,
        src_node: str,
        plaintext: bytes,
        payload_index: int,
        on_complete: Callable[[DistributionResult], None],
    ) -> bytes:
        """Encrypt at the source enclave and push to the group's other member.

        The group is a pair on two distinct nodes, so there is exactly
        one recipient.  One transfer draw for the push and one for the
        acknowledgement; with the configured probability the first
        attempt is lost and a second push/ack pair follows after the
        first pair's worth of waiting.  Completion is the
        acknowledgement's arrival; the payload hash is available
        immediately.
        """
        nonce = group.take_nonce()
        ciphertext = encrypt_payload(group.key, nonce, plaintext, group.group_id)
        payload = StoredPayload(group_id=group.group_id, nonce=nonce, ciphertext=ciphertext)
        payload_hash = self.enclaves[src_node].receive(payload)
        (peer,) = (n for n in group.member_nodes if n != src_node)

        rng = self.rng_hub.derived(STREAM_ENCLAVE, payload_index)
        started_at = self.sim.now

        def acknowledged(_ack: bytes) -> None:
            on_complete(DistributionResult(payload_hash, started_at, self.sim.now))

        push1 = self.transfer_model.sample(rng)
        ack1 = self.transfer_model.sample(rng)
        if rng.random() < self.retry_probability:
            push2 = self.transfer_model.sample(rng)
            ack2 = self.transfer_model.sample(rng)
            arrive_at = push1 + ack1 + push2
            done_at = arrive_at + ack2
        else:
            arrive_at = push1
            done_at = push1 + ack1
        capture = self.network.capture_wire
        push_wire = encode_wire(group.group_id, nonce, ciphertext) if capture else None
        ack_wire = enc_fixed(payload_hash, HASH_LEN) if capture else None
        self.network.send_after(src_node, peer, arrive_at, self.enclaves[peer].receive, payload, push_wire)
        self.network.send_after(peer, src_node, done_at, acknowledged, payload_hash, ack_wire)
        return payload_hash

"""Transactions, blocks, and the per-node chain store.

A transaction either calls a public contract function or carries a
privacy marker (a group id plus the hash of an encrypted payload that
travels off-chain).  Blocks are finalized with a quorum of commit seals
over the block hash.  The store refuses any block that conflicts with
a stored one at its height.  It checks a block another node sent once,
on append: `check_extends`, then its seals against the genesis
`ValidatorSet`.  A block a validator sealed itself was checked in
consensus, as a proposal and one `Commit` at a time.  Any refusal but a
conflict or a gap is an `InvalidBlock`.

A block's `hash` and a transaction's `tx_id` and signature check are
derived from content, once per object: none is a constructor argument,
and a copy made with `dataclasses.replace` or decoded from bytes
derives its own.  The one exception is `Block.replace_unhashed`: its
copies differ only in `round` and `seals`, which the hash leaves out,
so they carry over their source's hash.  A transaction encodes its body
once, when it is built, and derives `tx_id` and its signature check from
that encoding; `sign_preimage`, `encode` and the block hash preimage
reuse the stored bytes.  A transaction made by `make_transaction` keeps
the body it signed, and a decoded one the body bytes it was read from.
Appending a peer's block, and each validator's check of a proposal,
re-check every transaction's signature and the block's gas, including
transactions the node already admitted at gossip; for the same object
the signature re-check reads the stored result.
"""

from __future__ import annotations

import hashlib
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

from .encoding import (
    ADDRESS_LEN,
    HASH_LEN,
    TAG_BLOCK,
    TAG_SEAL,
    TAG_TX,
    Cursor,
    digest,
    enc_bytes,
    enc_fixed,
    enc_list,
    enc_str,
    enc_u8,
    enc_u64,
)
from .identity import Credential, ValidatorSet, address_of, verify

ZERO_HASH = b"\x00" * HASH_LEN

PAYLOAD_PUBLIC = 0
PAYLOAD_MARKER = 1


class LedgerError(Exception):
    """Base class for chain validation failures."""


class HeightGap(LedgerError):
    """Block height is not head + 1."""


class DuplicateHeight(LedgerError):
    """A different block is already finalized at this height."""


class InvalidBlock(LedgerError):
    """A structural, transaction or seal failure inside the block."""


@dataclass(frozen=True)
class PublicCall:
    contract: str
    function: str
    args: bytes

    def encode(self) -> bytes:
        return enc_u8(PAYLOAD_PUBLIC) + enc_str(self.contract) + enc_str(self.function) + enc_bytes(self.args)


@dataclass(frozen=True)
class PrivacyMarker:
    group_id: bytes
    payload_hash: bytes

    def encode(self) -> bytes:
        return (
            enc_u8(PAYLOAD_MARKER)
            + enc_fixed(self.group_id, HASH_LEN)
            + enc_fixed(self.payload_hash, HASH_LEN)
        )


def decode_payload(cur: Cursor) -> PublicCall | PrivacyMarker:
    kind = cur.u8()
    if kind == PAYLOAD_PUBLIC:
        return PublicCall(contract=cur.str_(), function=cur.str_(), args=cur.bytes_())
    if kind == PAYLOAD_MARKER:
        return PrivacyMarker(group_id=cur.fixed(HASH_LEN), payload_hash=cur.fixed(HASH_LEN))
    raise ValueError(f"unknown payload kind {kind}")


@dataclass(frozen=True, slots=True)
class Transaction:
    sender: bytes
    sender_pubkey: bytes
    nonce: int
    gas_limit: int
    payload: PublicCall | PrivacyMarker
    signature: bytes
    # `body()` of these fields, from a caller that already holds it.
    encoded_body: InitVar[bytes | None] = None
    tx_id: bytes = field(init=False, compare=False, repr=False)
    _body: bytes = field(init=False, compare=False, repr=False)
    _signature_ok: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self, encoded_body: bytes | None) -> None:
        body = self.body() if encoded_body is None else encoded_body
        preimage = TAG_TX + body
        ok = address_of(self.sender_pubkey) == self.sender and verify(self.sender_pubkey, preimage, self.signature)
        object.__setattr__(self, "_body", body)
        object.__setattr__(self, "tx_id", digest(preimage + self.signature))
        object.__setattr__(self, "_signature_ok", ok)

    def body(self) -> bytes:
        """Encode the signed fields.

        It reads only those five fields, so `make_transaction` calls it on
        them before the signature exists.
        """
        return (
            enc_fixed(self.sender, ADDRESS_LEN)
            + enc_fixed(self.sender_pubkey, 32)
            + enc_u64(self.nonce)
            + enc_u64(self.gas_limit)
            + self.payload.encode()
        )

    def sign_preimage(self) -> bytes:
        return TAG_TX + self._body

    def encode(self) -> bytes:
        return self._body + enc_bytes(self.signature)

    def verify_signature(self) -> bool:
        return self._signature_ok


class _SignedFields(NamedTuple):
    sender: bytes
    sender_pubkey: bytes
    nonce: int
    gas_limit: int
    payload: PublicCall | PrivacyMarker


def make_transaction(
    credential: Credential,
    nonce: int,
    gas_limit: int,
    payload: PublicCall | PrivacyMarker,
) -> Transaction:
    fields = _SignedFields(credential.address, credential.public_key, nonce, gas_limit, payload)
    body = Transaction.body(fields)
    return Transaction(*fields, signature=credential.sign(TAG_TX + body), encoded_body=body)


def decode_transaction(cur: Cursor) -> Transaction:
    start = cur.pos
    sender = cur.fixed(ADDRESS_LEN)
    pubkey = cur.fixed(32)
    nonce = cur.u64()
    gas_limit = cur.u64()
    payload = decode_payload(cur)
    body = cur.since(start)
    return Transaction(sender, pubkey, nonce, gas_limit, payload, signature=cur.bytes_(), encoded_body=body)


@dataclass(frozen=True)
class Block:
    height: int
    timestamp: int
    parent_hash: bytes
    proposer: bytes
    round: int
    txs: tuple[Transaction, ...]
    seals: tuple[tuple[bytes, bytes], ...] = ()

    def header_and_body(self) -> bytes:
        # The round is deliberately left out: a block re-proposed under a
        # prepared certificate in a later round is the same block, and
        # seals gathered in different rounds must agree on its hash.
        return (
            enc_u64(self.height)
            + enc_u64(self.timestamp)
            + enc_fixed(self.parent_hash, HASH_LEN)
            + enc_fixed(self.proposer, ADDRESS_LEN)
            + enc_list(tx.encode() for tx in self.txs)
        )

    @cached_property
    def hash(self) -> bytes:
        return hash_block(self)

    def replace_unhashed(self, **changes) -> "Block":
        """A copy with another `round` or `seals`; it keeps this block's hash."""
        if not changes.keys() <= {"round", "seals"}:
            raise ValueError(f"{sorted(changes)} are not all outside the block hash")
        round_, seals = changes.get("round", self.round), changes.get("seals", self.seals)
        copy = Block(self.height, self.timestamp, self.parent_hash, self.proposer, round_, self.txs, seals)
        copy.__dict__["hash"] = self.hash
        return copy


def hash_block(block: Block) -> bytes:
    # Seals are excluded so every round variant of the same content,
    # and every seal subset, agree on the hash being committed to.
    preimage = TAG_BLOCK + block.header_and_body()
    return hashlib.sha256(preimage).digest()


def block_wire(block: Block) -> bytes:
    """Full serialized form of a block as it travels between nodes."""
    return (
        block.header_and_body()
        + enc_u64(block.round)
        + enc_list(enc_fixed(sealer, ADDRESS_LEN) + enc_bytes(sig) for sealer, sig in block.seals)
    )


def seal_preimage(block_hash: bytes) -> bytes:
    return TAG_SEAL + enc_fixed(block_hash, HASH_LEN)


def genesis_block() -> Block:
    return Block(
        height=0,
        timestamp=0,
        parent_hash=ZERO_HASH,
        proposer=b"\x00" * ADDRESS_LEN,
        round=0,
        txs=(),
    )


class ChainStore:
    """Finalized blocks of one node, genesis upward, no gaps."""

    def __init__(self, validators: ValidatorSet, block_gas_limit: int, nonces: dict[bytes, int]):
        self.validators = validators
        self.block_gas_limit = block_gas_limit
        self.nonces = nonces
        self.blocks: list[Block] = [genesis_block()]

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.head.height

    def hash_at(self, height: int) -> bytes:
        return self.blocks[height].hash

    def verify_seals(self, block: Block) -> None:
        seen: set[bytes] = set()
        preimage = seal_preimage(block.hash)
        for sealer, sig in block.seals:
            if sealer in seen:
                raise InvalidBlock(f"duplicate seal from {sealer.hex()}")
            seen.add(sealer)
            if sealer not in self.validators:
                raise InvalidBlock(f"seal from non-validator {sealer.hex()}")
            if not self.validators.signed(sealer, preimage, sig):
                raise InvalidBlock(f"bad seal signature from {sealer.hex()}")
        if len(seen) < self.validators.quorum:
            raise InvalidBlock(f"{len(seen)} seals, need {self.validators.quorum}")

    def append_block(self, block: Block, checked: bool = False) -> bool:
        """Validate and append a sealed block.

        Returns True when appended, False when the identical block was
        already stored.  Raises DuplicateHeight when a *different* block
        is finalized at an occupied height: that is a consensus safety
        violation and the caller must not continue silently.

        `checked` skips `check_extends` and `verify_seals`: a validator
        sets it for a block it sealed from its own commit quorum, which
        consensus checked as a proposal against this same head (any
        append ends the height) and one seal per `Commit`.
        """
        if block.height <= self.height:
            known = self.hash_at(block.height)
            if known == block.hash:
                return False
            raise DuplicateHeight(
                f"conflicting block at height {block.height}: "
                f"{known.hex()[:16]} vs {block.hash.hex()[:16]}"
            )
        if not checked:
            self.check_extends(block)
            self.verify_seals(block)
        self.blocks.append(block)
        return True

    def check_extends(self, block: Block) -> None:
        """Raise unless `block`, seals aside, may extend the head.

        It must sit at head + 1 on the head's hash, not go back in time,
        and hold only correctly signed transactions whose gas limits sum
        to at most the block gas limit and whose nonces continue each
        sender's executed nonce (`nonces`, the state's map) in sequence.
        Consensus checks a proposal with this before voting for it.
        """
        if block.height != self.height + 1:
            raise HeightGap(f"got height {block.height}, head is {self.height}")
        if block.parent_hash != self.head.hash:
            raise InvalidBlock("parent hash does not match head")
        if block.timestamp < self.head.timestamp:
            raise InvalidBlock("timestamp went backwards")
        gas = 0
        next_nonce: dict[bytes, int] = {}
        for tx in block.txs:
            if not tx.verify_signature():
                raise InvalidBlock(f"bad tx signature in block {block.height}")
            expected = next_nonce[tx.sender] if tx.sender in next_nonce else self.nonces.get(tx.sender, 0)
            if tx.nonce != expected:
                raise InvalidBlock(f"nonce {tx.nonce}, expected {expected}, in block {block.height}")
            next_nonce[tx.sender] = expected + 1
            gas += tx.gas_limit
        if gas > self.block_gas_limit:
            raise InvalidBlock(f"block {block.height} holds {gas} gas, over the limit of {self.block_gas_limit}")


class TxPool:
    """Pending transactions with FIFO, nonce-sequential block packing.

    An entry is `(arrival, tx_id, tx)`, so entries sort by arrival with
    ties broken by tx id.  `nonces` is the executed state's map of each
    sender's next nonce (`PublicState.nonces`): the pool reads it and
    never writes it, so a sender advances only when its next nonce
    executes in sequence.
    """

    def __init__(self, nonces: dict[bytes, int]):
        self._entries: dict[bytes, tuple[int, bytes, Transaction]] = {}
        self._nonces = nonces

    def __len__(self) -> int:
        return len(self._entries)

    def pending(self) -> list[Transaction]:
        """Every pooled transaction, in arrival order."""
        return [tx for _, _, tx in self._entries.values()]

    def add(self, tx: Transaction, now: int) -> bool:
        if tx.tx_id in self._entries:
            return False
        if tx.nonce < self._nonces.get(tx.sender, 0):
            return False
        self._entries[tx.tx_id] = (now, tx.tx_id, tx)
        return True

    def remove_included(self, txs: tuple[Transaction, ...]) -> None:
        """Drop a block's transactions once the state has executed them."""
        for tx in txs:
            self._entries.pop(tx.tx_id, None)
        # Anything now stale (nonce already executed elsewhere) is dead weight.
        stale = [
            tx_id
            for _, tx_id, tx in self._entries.values()
            if tx.nonce < self._nonces.get(tx.sender, 0)
        ]
        for tx_id in stale:
            del self._entries[tx_id]

    def select(self, block_gas_limit: int) -> list[Transaction]:
        """Greedy packing by arrival order, ties broken by tx id bytes.

        Each slot goes to the earliest-arrived transaction that fits
        the remaining gas and whose sender has no earlier nonce still
        pending, re-scanned from the front after every inclusion so an
        early arrival blocked only by its own predecessor regains its
        place the moment the predecessor is taken.  Every pooled
        transaction fits an empty block: the configuration refuses a
        block gas limit below the cost of any operation.
        """
        remaining = [tx for _, _, tx in sorted(self._entries.values())]
        expected = dict(self._nonces)
        chosen: list[Transaction] = []
        gas_used = 0
        progressed = True
        while progressed:
            progressed = False
            for i, tx in enumerate(remaining):
                if tx.nonce != expected.get(tx.sender, 0):
                    continue
                if gas_used + tx.gas_limit > block_gas_limit:
                    continue
                chosen.append(tx)
                expected[tx.sender] = tx.nonce + 1
                gas_used += tx.gas_limit
                del remaining[i]
                progressed = True
                break
        return chosen

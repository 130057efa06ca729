"""Transactions, blocks, the chain store, and pool packing."""

import hashlib
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pactsim import ledger
from pactsim.encoding import (
    ADDRESS_LEN,
    TAG_BLOCK,
    TAG_TX,
    Cursor,
    digest,
    enc_bytes,
    enc_str,
    enc_u8,
    enc_u32,
    enc_u64,
)
from pactsim.ledger import (
    Block,
    ChainStore,
    DuplicateHeight,
    HeightGap,
    InsufficientSeals,
    InvalidBlock,
    PrivacyMarker,
    PublicCall,
    Transaction,
    TxPool,
    UnknownValidatorSeal,
    decode_transaction,
    genesis_block,
    hash_block,
    make_seal,
    make_transaction,
)

from .conftest import call_tx, cred, validator_set

VALIDATORS = [cred(100 + i) for i in range(4)]
QUORUM = 3


def fresh_store() -> ChainStore:
    return ChainStore(validator_set(VALIDATORS))


def sealed_block(store: ChainStore, txs=(), timestamp=None, round_=0, sealers=None) -> Block:
    height = store.height + 1
    block = Block(
        height=height,
        timestamp=timestamp if timestamp is not None else height * 1000,
        parent_hash=store.hash_at(store.height),
        proposer=VALIDATORS[height % 4].address,
        round=round_,
        txs=tuple(txs),
    )
    sealers = VALIDATORS[:QUORUM] if sealers is None else sealers
    return replace(block, seals=tuple(make_seal(v, block.hash) for v in sealers))


# -- transactions -----------------------------------------------------


def test_transaction_round_trip():
    tx = call_tx(cred(1), 3, "registry", "register", 1)
    decoded = decode_transaction(Cursor(tx.encode()))
    assert decoded == tx
    assert decoded.tx_id == tx.tx_id


def test_tx_id_commits_to_signature():
    tx = call_tx(cred(1), 0, "registry", "register", 1)
    assert tx.tx_id == digest(tx.sign_preimage() + tx.signature)


def test_tx_signature_binds_sender_address():
    tx = call_tx(cred(1), 0, "registry", "register", 1)
    assert tx.verify_signature()
    forged = Transaction(
        sender=cred(2).address,
        sender_pubkey=tx.sender_pubkey,
        nonce=tx.nonce,
        gas_limit=tx.gas_limit,
        payload=tx.payload,
        signature=tx.signature,
    )
    assert not forged.verify_signature()


def scratch_body(tx: Transaction) -> bytes:
    """The transaction body built field by field from the grammar in docs/encoding.md."""
    p = tx.payload
    if isinstance(p, PublicCall):
        payload = enc_u8(0) + enc_str(p.contract) + enc_str(p.function) + enc_bytes(p.args)
    else:
        payload = enc_u8(1) + p.group_id + p.payload_hash
    return tx.sender + tx.sender_pubkey + enc_u64(tx.nonce) + enc_u64(tx.gas_limit) + payload


def test_stored_encodings_match_a_fresh_encoding():
    built = call_tx(cred(1), 3, "catalog", "publish", "svc", b"\x05" * 32)
    marker = make_transaction(cred(2), 0, 41_000, PrivacyMarker(b"\x01" * 32, b"\x02" * 32))
    decoded = decode_transaction(Cursor(built.encode()))
    renonced = replace(built, nonce=4)
    for tx in (built, marker, decoded, renonced):
        body = scratch_body(tx)
        assert tx.body() == body
        assert tx.sign_preimage() == TAG_TX + body
        assert tx.encode() == body + enc_bytes(tx.signature)
        assert tx.tx_id == digest(TAG_TX + body + tx.signature)
    assert renonced.sign_preimage() != built.sign_preimage()
    assert renonced.tx_id != built.tx_id
    store = fresh_store()
    block = sealed_block(store, txs=(built, marker, renonced))
    preimage = (
        TAG_BLOCK + enc_u64(block.height) + enc_u64(block.timestamp) + block.parent_hash + block.proposer
        + enc_u32(3) + b"".join(scratch_body(tx) + enc_bytes(tx.signature) for tx in block.txs)
    )
    assert block.hash == hashlib.sha256(preimage).digest()


def test_marker_payload_round_trip():
    marker = PrivacyMarker(group_id=b"\x01" * 32, payload_hash=b"\x02" * 32)
    tx = make_transaction(cred(1), 0, 41_000, marker)
    decoded = decode_transaction(Cursor(tx.encode()))
    assert decoded.payload == marker


# -- block identity ---------------------------------------------------


def test_block_hash_ignores_round_and_seals():
    store = fresh_store()
    b0 = sealed_block(store, round_=0)
    b1 = sealed_block(store, round_=2, sealers=VALIDATORS[1:])
    assert b0.round != b1.round and b0.seals != b1.seals
    assert hash_block(b0) == hash_block(b1)
    assert b0.hash == hash_block(b0) == b1.hash


def test_copies_derive_their_own_identity():
    store = fresh_store()
    block = sealed_block(store)
    assert replace(block, timestamp=block.timestamp + 1).hash != block.hash
    tx = call_tx(cred(1), 0, "registry", "register", 1)
    assert replace(tx, nonce=1).tx_id != tx.tx_id


def test_unhashed_copies_keep_the_source_hash(monkeypatch):
    block = sealed_block(fresh_store())
    source_hash = block.hash
    calls = []
    monkeypatch.setattr(ledger, "hash_block", lambda b: calls.append(b) or hash_block(b))
    sealed = block.replace_unhashed(seals=block.seals[:2])
    reproposed = block.replace_unhashed(round=3, seals=())
    assert sealed.hash == reproposed.hash == source_hash
    assert calls == []
    assert sealed.hash == hash_block(sealed)
    assert reproposed.hash == hash_block(reproposed)


def test_hashed_field_copy_derives_its_own_hash():
    block = sealed_block(fresh_store())
    assert block.hash
    twin = replace(block, timestamp=block.timestamp + 1)
    assert "hash" not in twin.__dict__
    assert twin.hash == hash_block(twin) != block.hash
    with pytest.raises(ValueError):
        block.replace_unhashed(timestamp=block.timestamp + 1)


def test_signature_check_runs_once_per_object(monkeypatch):
    calls = []
    real_verify = ledger.verify
    monkeypatch.setattr(ledger, "verify", lambda *a: calls.append(a) or real_verify(*a))
    tx = call_tx(cred(1), 0, "registry", "register", 1)
    assert tx.verify_signature() and tx.verify_signature()
    assert len(calls) == 1
    assert not replace(tx, nonce=tx.nonce + 1).verify_signature()
    wire = bytearray(tx.encode())
    wire[ADDRESS_LEN + 32 + 7] ^= 1  # last byte of the nonce
    tampered = decode_transaction(Cursor(bytes(wire)))
    assert tampered.nonce == tx.nonce ^ 1
    assert not tampered.verify_signature()
    assert decode_transaction(Cursor(tx.encode())).verify_signature()
    assert len(calls) == 4
    assert tx.verify_signature()


def test_block_hash_covers_content():
    store = fresh_store()
    a = sealed_block(store, timestamp=1000)
    b = sealed_block(store, timestamp=1001)
    assert hash_block(a) != hash_block(b)
    tx = call_tx(cred(1), 0, "registry", "register", 1)
    c = sealed_block(store, txs=(tx,))
    assert hash_block(c) != hash_block(a)


def test_genesis_is_fixed():
    # pinned once from the canonical encoder; any change here is a
    # wire-format break that splits old and new chains
    assert hash_block(genesis_block()).hex() == (
        "8c8100b24c38e0e1a30e677af665476dcdc2407eeeb949047cfd31b062709db6"
    )
    assert genesis_block().height == 0


# -- chain store ------------------------------------------------------


def test_append_and_idempotent_reappend():
    store = fresh_store()
    block = sealed_block(store)
    assert store.append_block(block) is True
    assert store.height == 1
    assert store.append_block(block) is False
    assert store.height == 1


def test_conflicting_block_at_height_raises():
    store = fresh_store()
    store.append_block(sealed_block(store, timestamp=1000))
    twin_base = fresh_store()
    twin = sealed_block(twin_base, timestamp=1001)
    with pytest.raises(DuplicateHeight):
        store.append_block(twin)


def test_height_gap_raises():
    store = fresh_store()
    other = fresh_store()
    other.append_block(sealed_block(other))
    skipping = sealed_block(other)
    with pytest.raises(HeightGap):
        store.append_block(skipping)


def test_parent_hash_must_match():
    store = fresh_store()
    other = fresh_store()
    other.append_block(sealed_block(other, timestamp=999))
    # Right height, wrong parent.
    block = sealed_block(other, timestamp=2000)
    store.append_block(sealed_block(store, timestamp=1000))
    with pytest.raises(InvalidBlock):
        store.append_block(block)


def test_timestamp_must_not_go_backwards():
    store = fresh_store()
    store.append_block(sealed_block(store, timestamp=5000))
    with pytest.raises(InvalidBlock):
        store.append_block(sealed_block(store, timestamp=4999))


def test_insufficient_seals():
    store = fresh_store()
    block = sealed_block(store, sealers=VALIDATORS[:2])
    with pytest.raises(InsufficientSeals):
        store.append_block(block)


def test_duplicate_sealer_does_not_count_twice():
    store = fresh_store()
    block = sealed_block(store, sealers=[VALIDATORS[0], VALIDATORS[0], VALIDATORS[1]])
    with pytest.raises(InvalidBlock):
        store.append_block(block)


def test_unknown_sealer_rejected():
    store = fresh_store()
    outsider = cred(999)
    block = sealed_block(store, sealers=[VALIDATORS[0], VALIDATORS[1], outsider])
    with pytest.raises(UnknownValidatorSeal):
        store.append_block(block)


def test_bad_seal_signature_rejected():
    store = fresh_store()
    block = sealed_block(store)
    wrong = sealed_block(store, timestamp=7777)
    mixed = replace(block, seals=(block.seals[0], block.seals[1], wrong.seals[2]))
    with pytest.raises(InvalidBlock):
        store.append_block(mixed)


def test_bad_tx_signature_rejected():
    store = fresh_store()
    good = call_tx(cred(1), 0, "registry", "register", 1)
    bad = Transaction(
        sender=good.sender,
        sender_pubkey=good.sender_pubkey,
        nonce=5,
        gas_limit=good.gas_limit,
        payload=good.payload,
        signature=good.signature,
    )
    block = sealed_block(store, txs=(bad,))
    with pytest.raises(InvalidBlock):
        store.append_block(block)


# -- pool packing -----------------------------------------------------


def ref_pack(txs_in_arrival_order, gas_limit, executed_nonces):
    """Reference packer: repeatedly take the first eligible transaction.

    Deliberately shaped differently from the production packer so the
    two can disagree if either is wrong.
    """
    expected = dict(executed_nonces)
    remaining = list(txs_in_arrival_order)
    chosen = []
    used = 0
    while True:
        for tx in remaining:
            if tx.gas_limit > gas_limit:
                continue
            if tx.nonce != expected.get(tx.sender, 0):
                continue
            if used + tx.gas_limit > gas_limit:
                continue
            chosen.append(tx)
            used += tx.gas_limit
            expected[tx.sender] = tx.nonce + 1
            remaining.remove(tx)
            break
        else:
            return chosen


SENDERS = [cred(200 + i) for i in range(6)]


def pool_with(txs):
    pool = TxPool()
    for t, tx in enumerate(txs):
        assert pool.add(tx, now=t)
    return pool


def test_pool_rejects_duplicates_and_stale_nonces():
    pool = TxPool()
    tx = call_tx(SENDERS[0], 0, "registry", "register", 1)
    assert pool.add(tx, 0)
    assert not pool.add(tx, 1)
    pool.note_executed_nonce(SENDERS[0].address, 3)
    late = call_tx(SENDERS[0], 2, "registry", "register", 1)
    assert not pool.add(late, 2)
    assert pool.add(call_tx(SENDERS[0], 4, "registry", "register", 1), 3)


def test_out_of_order_nonces_pack_into_one_block():
    a = SENDERS[0]
    first = call_tx(a, 0, "registry", "register", 1, gas_limit=41_000)
    second = call_tx(a, 1, "catalog", "publish", "svc", b"\x00" * 32, gas_limit=61_000)
    pool = pool_with([second, first])
    assert pool.select(1_000_000) == [first, second]


def test_nonce_gap_defers_only_the_gapped_sender():
    a, b = SENDERS[0], SENDERS[1]
    a1 = call_tx(a, 1, "registry", "register", 1)
    b0 = call_tx(b, 0, "registry", "register", 1)
    pool = pool_with([a1, b0])
    assert pool.select(1_000_000) == [b0]


def test_two_of_three_fit():
    txs = [
        call_tx(SENDERS[i], 0, "registry", "register", 1, gas_limit=21_000)
        for i in range(3)
    ]
    pool = pool_with(txs)
    chosen = pool.select(50_000)
    assert chosen == txs[:2]
    assert sum(tx.gas_limit for tx in chosen) == 42_000


def test_empty_pool_builds_empty_block():
    assert TxPool().select(8_000_000) == []


def test_gas_limit_caps_block_and_preserves_fifo():
    txs = [call_tx(SENDERS[i % 6], i // 6, "registry", "register", 1, gas_limit=41_000) for i in range(12)]
    pool = pool_with(txs)
    # 5 * 41000 = 205000 fits, 6 do not.
    chosen = pool.select(240_000)
    assert chosen == ref_pack(txs, 240_000, {})
    assert len(chosen) == 5


def test_remove_included_prunes_stale_competitors():
    a = SENDERS[0]
    tx0 = call_tx(a, 0, "registry", "register", 1)
    rival = call_tx(a, 0, "registry", "register", 2)
    pool = pool_with([tx0, rival])
    pool.remove_included((tx0,))
    assert len(pool) == 0


class RefPool:
    """Reference pool: a list in arrival order; after every block, any
    transaction whose sender's nonce has executed is swept from the
    whole pool."""

    def __init__(self):
        self.entries = []  # [tx, arrival]
        self.next_nonce = {}

    def add(self, tx, now):
        if any(e[0].tx_id == tx.tx_id for e in self.entries) or tx.nonce < self.next_nonce.get(tx.sender, 0):
            return False
        self.entries.append([tx, now])
        return True

    def select(self, gas_limit):
        ordered = sorted(self.entries, key=lambda e: (e[1], e[0].tx_id))
        return ref_pack([e[0] for e in ordered], gas_limit, self.next_nonce)

    def remove_included(self, txs):
        ids = {tx.tx_id for tx in txs}
        for tx in txs:
            self.next_nonce[tx.sender] = max(self.next_nonce.get(tx.sender, 0), tx.nonce + 1)
        self.entries = [
            e for e in self.entries
            if e[0].tx_id not in ids and e[0].nonce >= self.next_nonce.get(e[0].sender, 0)
        ]

    def pending(self):
        return [e[0] for e in self.entries]


@lru_cache(maxsize=None)
def pool_tx(sender_i, nonce, gas, variant):
    # Variants of one (sender, nonce) are rivals: same slot, different ids.
    return call_tx(SENDERS[sender_i], nonce, "registry", "register", variant, gas_limit=gas)


def pool_steps(gas_limit):
    # Every size fits an empty block, but two of them may not fit together.
    sizes = [gas for gas in (41_000, 61_000, 150_000) if gas <= gas_limit]
    return st.lists(st.one_of(
        # A transaction arrives.
        st.tuples(st.just("add"), st.integers(0, 3), st.integers(0, 3), st.sampled_from(sizes), st.integers(1, 2)),
        # The node packs a block and executes it.
        st.tuples(st.just("block")),
        # A block packed elsewhere executes one transaction, pooled here or not.
        st.tuples(st.just("foreign"), st.integers(0, 3), st.integers(0, 3), st.integers(1, 2)),
    ), max_size=30)


GAS_LIMIT = st.shared(st.sampled_from([100_000, 200_000, 500_000]), key="pool gas limit")


@settings(max_examples=120, deadline=None)
@given(GAS_LIMIT.flatmap(pool_steps), GAS_LIMIT)
def test_packing_matches_reference(steps, gas_limit):
    pool, ref = TxPool(), RefPool()

    def check():
        assert len(pool) == len(ref.entries)
        assert pool.pending() == ref.pending()

    def execute(txs):
        pool.remove_included(txs)
        ref.remove_included(txs)
        check()

    def block():
        chosen = pool.select(gas_limit)
        assert chosen == ref.select(gas_limit)
        check()
        execute(tuple(chosen))
        return chosen

    for now, step in enumerate(steps):
        if step[0] == "add":
            tx = pool_tx(*step[1:])
            assert pool.add(tx, now) == ref.add(tx, now)
            check()
        elif step[0] == "block":
            block()
        else:
            execute((pool_tx(step[1], step[2], 41_000, step[3]),))
    # Drain: pack until nothing is packed.
    for _ in range(len(steps) + 1):
        if not block():
            break
    assert all(tx.nonce != ref.next_nonce.get(tx.sender, 0) for tx in pool.pending())

"""Node runtime: block intake, receipt waiters, gossip, private replay."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import pytest

from pactsim import node as node_module
from pactsim.audit import member_state_consistency
from pactsim.contracts import AgreementRecord, BreachRecord, GasSchedule, OpBatch, OpInit
from pactsim.encoding import digest, enc_bytes, enc_u8, enc_u64
from pactsim.ledger import (
    Block,
    ChainStore,
    PrivacyMarker,
    PublicCall,
    hash_block,
    make_transaction,
)
from pactsim.metrics import MetricsCollector
from pactsim.node import SYNC_BATCH, Cluster, NodeRuntime
from pactsim.privacy import GroupDirectory, StoredPayload, encrypt_payload
from pactsim.simulation import (
    STREAM_CONSENSUS,
    STREAM_RPC,
    Fixed,
    Network,
    RngHub,
    Simulator,
)

from .conftest import BLOCK_GAS_LIMIT, call_tx, cred, make_seal, validator_set

VALIDATORS = [cred(100 + i) for i in range(4)]
QUORUM = 3
ALICE = cred(1)
BOB = cred(2)
CAROL = cred(3)


def make_cluster(names=("n0", "n1"), name_of=None):
    sim = Simulator()
    rng = RngHub(7)
    network = Network(sim, rng)
    network.add_channel("consensus", Fixed(5), STREAM_CONSENSUS)
    network.add_channel("rpc", Fixed(5), STREAM_RPC)
    validators = validator_set(VALIDATORS)
    cluster = Cluster(network, MetricsCollector(), name_of or {})
    for name in names:
        cluster.add_node(NodeRuntime(name, sim, network, validators, GasSchedule(), BLOCK_GAS_LIMIT))
    return sim, cluster


def seal(block):
    """`block` with a quorum of valid seals."""
    return dataclasses.replace(block, seals=tuple(make_seal(v, block.hash) for v in VALIDATORS[:QUORUM]))


def build_chain(count, txs_by_height=None):
    """Sealed blocks 1..count consistent with every node's genesis."""
    ref = ChainStore(validator_set(VALIDATORS), BLOCK_GAS_LIMIT, {})
    blocks = []
    for h in range(1, count + 1):
        txs = tuple((txs_by_height or {}).get(h, ()))
        block = seal(
            Block(
                height=h,
                timestamp=h * 1000,
                parent_hash=ref.hash_at(h - 1),
                proposer=VALIDATORS[h % 4].address,
                round=0,
                txs=txs,
            )
        )
        ref.append_block(block)
        blocks.append(block)
    return blocks


# -- block intake -----------------------------------------------------


def test_future_block_buffered_until_gap_fills():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    b1, b2 = build_chain(2)
    node.on_sealed_block(b2)
    assert node.store.height == 0
    assert node.future_blocks == {2: b2}
    node.on_sealed_block(b1)
    assert node.store.height == 2
    assert node.future_blocks == {}


def test_sync_fetches_a_gap_from_the_proposer_in_batches_and_regossips_the_pool():
    # Every validator address runs on n1, which holds the whole chain.
    sim, cluster = make_cluster(("n0", "n1"), {v.address: "n1" for v in VALIDATORS})
    n0, n1 = cluster.nodes["n0"], cluster.nodes["n1"]
    chain = build_chain(SYNC_BATCH + 8)
    for block in chain:
        n1.on_sealed_block(block)
    # Admitted at n0 while its gossip was lost.
    stuck = call_tx(ALICE, 0, "registry", "register", 1)
    n0.pool.add(stuck, 0)

    n0.on_sealed_block(chain[-1])
    n0.on_sealed_block(chain[-2])
    # Both lie beyond the buffer window; one request for this head.
    assert n0.future_blocks == {}
    assert n0.sync_requests == 1
    sim.run()
    # A full reply asks again from the new head.
    assert n0.store.height == len(chain)
    assert n0.sync_requests == 2
    assert n0.dropped_invalid_blocks == 0
    assert stuck.tx_id in {tx.tx_id for tx in n1.pool.pending()}


def test_pushed_block_within_the_window_is_buffered_and_starts_a_sync():
    sim, cluster = make_cluster(("n0", "n1"), {v.address: "n1" for v in VALIDATORS})
    n0, n1 = cluster.nodes["n0"], cluster.nodes["n1"]
    chain = build_chain(3)
    n1.on_sealed_block(chain[0])
    n0.on_sealed_block(chain[2])
    assert n0.future_blocks == {3: chain[2]}
    sim.run()
    # The reply holds block 1 only; block 2 is still missing.
    assert n0.store.height == 1
    n1.on_sealed_block(chain[1])
    n0.on_sealed_block(chain[2])  # a later push of the same block
    sim.run()
    assert n0.store.height == 3
    assert n0.future_blocks == {}
    assert n0.sync_requests == 2


def test_duplicate_sealed_block_is_a_no_op():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    (b1,) = build_chain(1)
    node.on_sealed_block(b1)
    node.on_sealed_block(b1)
    assert node.store.height == 1
    assert node.dropped_invalid_blocks == 0
    assert cluster.metrics.safety_violations == []


@pytest.mark.parametrize("entry", ["on_sealed_block", "on_self_finalized"])
def test_conflicting_block_is_a_safety_violation_at_either_entry(entry):
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    (b1,) = build_chain(1)
    node.on_sealed_block(b1)
    rival = seal(dataclasses.replace(b1, timestamp=b1.timestamp + 1))
    getattr(node, entry)(rival)
    (violation,) = cluster.metrics.safety_violations
    assert (violation.node, violation.height) == ("n0", 1)
    assert node.store.blocks[1:] == [b1]
    assert node.dropped_invalid_blocks == 0


def test_unverifiable_block_dropped_and_counted():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    (b1,) = build_chain(1)
    thin = dataclasses.replace(b1, seals=b1.seals[:1])
    node.on_sealed_block(thin)
    assert node.store.height == 0
    assert node.dropped_invalid_blocks == 1


def test_tampered_copy_of_admitted_tx_refused_at_gossip_and_append():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    node.receive_tx(tx)
    assert len(node.pool) == 1
    tampered = dataclasses.replace(tx, nonce=tx.nonce + 1)
    node.receive_gossip(tampered)
    assert len(node.pool) == 1
    (b1,) = build_chain(1, {1: [tx]})
    bad = seal(dataclasses.replace(b1, txs=(tampered,)))
    node.on_sealed_block(bad)
    assert node.store.height == 0
    assert node.dropped_invalid_blocks == 1
    node.on_sealed_block(b1)
    assert node.store.height == 1
    assert node.dropped_invalid_blocks == 1


# -- receipts ---------------------------------------------------------


def test_receipt_waiter_fires_on_inclusion():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    (b1,) = build_chain(1, {1: [tx]})
    seen = []
    node.wait_for_receipt(tx.tx_id, seen.append)
    assert seen == []
    node.on_sealed_block(b1)
    assert len(seen) == 1
    assert node.store.height == 1 and seen[0] is node.receipts[tx.tx_id]
    assert seen[0].receipt.ok


def test_receipt_waiter_fires_immediately_when_already_known():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    (b1,) = build_chain(1, {1: [tx]})
    node.on_sealed_block(b1)
    seen = []
    node.wait_for_receipt(tx.tx_id, seen.append)
    assert len(seen) == 1


def test_inclusion_prunes_pool():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    node.pool.add(tx, 0)
    (b1,) = build_chain(1, {1: [tx]})
    node.on_sealed_block(b1)
    assert len(node.pool) == 0


# -- gossip -----------------------------------------------------------


def test_submission_gossips_to_peer_pools():
    sim, cluster = make_cluster(("n0", "n1", "n2"))
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    cluster.submit("n0", tx)
    sim.run()
    for name in ("n0", "n1", "n2"):
        assert len(cluster.nodes[name].pool) == 1


def test_forged_submission_goes_nowhere():
    sim, cluster = make_cluster(("n0", "n1"))
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    # Body no longer matches the signature.
    tampered = dataclasses.replace(tx, nonce=tx.nonce + 1)
    cluster.submit("n0", tampered)
    sim.run()
    assert len(cluster.nodes["n0"].pool) == 0
    assert len(cluster.nodes["n1"].pool) == 0


# -- private replay ---------------------------------------------------


def make_group_setup(node):
    directory = GroupDirectory(RngHub(7))
    group, _ = directory.get_or_form(
        ALICE.address,
        BOB.address,
        [ALICE.public_key, BOB.public_key],
        ("n0", "n1"),
        pair_index=0,
    )
    node.join_group(group)
    plaintext = OpInit(
        AgreementRecord(
            consumer=ALICE.address,
            provider=BOB.address,
            service_index=0,
            terms="availability >= 99.9%",
        )
    ).encode()
    nonce = group.take_nonce()
    ciphertext = encrypt_payload(group.key, nonce, plaintext, group.group_id)
    return group, nonce, ciphertext


def marker_tx(group, ciphertext, nonce_value=0):
    return make_transaction(
        ALICE,
        nonce=nonce_value,
        gas_limit=100_000,
        payload=PrivacyMarker(group_id=group.group_id, payload_hash=digest(ciphertext)),
    )


def test_marker_applies_directly_when_payload_precedes_block():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    group, nonce, ciphertext = make_group_setup(node)
    node.enclave.receive(StoredPayload(group.group_id, nonce, ciphertext))
    (b1,) = build_chain(1, {1: [marker_tx(group, ciphertext)]})
    node.on_sealed_block(b1)
    ledger = node.group_ledgers.get(group.group_id)
    assert ledger.agreement is not None
    assert ledger.agreement.terms == "availability >= 99.9%"


def test_marker_without_its_payload_halts_the_group_at_once():
    sim, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    group, nonce, ciphertext = make_group_setup(node)
    (b1,) = build_chain(1, {1: [marker_tx(group, ciphertext)]})
    node.on_sealed_block(b1)
    ledger = node.group_ledgers.get(group.group_id)
    assert ledger.halted
    assert node.private_op_failures == [(digest(ciphertext), "payload missing; group halted")]
    sim.run()
    assert sim.now == 0  # nothing was scheduled to wait for the payload
    node.enclave.receive(StoredPayload(group.group_id, nonce, ciphertext))
    assert ledger.agreement is None
    assert ledger.halted


BATCH = OpBatch(tuple(BreachRecord(BOB.address, f"late {i}", 1000 + i) for i in range(3))).encode()
INIT = OpInit(AgreementRecord(ALICE.address, BOB.address, 0, "terms")).encode()
MALFORMED = {
    "empty": (b"", "truncated input"),
    "batch cut in a record": (BATCH[:-1], "truncated input"),
    "batch cut in its count": (BATCH[:3], "truncated input"),
    "init cut in its terms": (INIT[:-2], "truncated input"),
    "batch with a trailing byte": (BATCH + b"\x00", "1 trailing bytes"),
    "breach details not utf-8": (enc_u8(1) + BOB.address + enc_bytes(b"\xff\xfe") + enc_u64(5), "invalid utf-8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_private_op_fails_at_each_member_and_is_not_cached(case):
    plaintext, reason = MALFORMED[case]
    _, cluster = make_cluster(("n0", "n1"))
    group, nonce, _ = make_group_setup(cluster.nodes["n0"])
    ciphertext = encrypt_payload(group.key, nonce, plaintext, group.group_id)
    (b1,) = build_chain(1, {1: [marker_tx(group, ciphertext)]})
    with mock.patch.object(node_module, "decode_private_op", wraps=node_module.decode_private_op) as parse:
        for node in cluster.nodes.values():
            node.join_group(group)
            node.enclave.receive(StoredPayload(group.group_id, nonce, ciphertext))
            node.on_sealed_block(b1)
    for node in cluster.nodes.values():
        ((payload_hash, text),) = node.private_op_failures
        assert payload_hash == digest(ciphertext) and text.startswith(reason)
        assert node.group_ledgers.get(group.group_id).agreement is None
    # Each member parsed the plaintext itself; no sender encoded it.
    assert parse.call_args_list == [mock.call(plaintext)] * 2
    assert cluster.sent_ops == {}


def test_a_plaintext_other_than_the_senders_bytes_is_parsed_and_applied_as_parsed():
    _, cluster = make_cluster(("n0", "n1"))
    group, nonce, ciphertext = make_group_setup(cluster.nodes["n0"])
    # The table holds another op's bytes under this payload's hash.
    other = OpInit(AgreementRecord(ALICE.address, BOB.address, 1, "other terms"))
    cluster.sent_ops[digest(ciphertext)] = (group.group_id, other.encode(), other)
    (b1,) = build_chain(1, {1: [marker_tx(group, ciphertext)]})
    with mock.patch.object(node_module, "decode_private_op", wraps=node_module.decode_private_op) as parse:
        for node in cluster.nodes.values():
            node.join_group(group)
            node.enclave.receive(StoredPayload(group.group_id, nonce, ciphertext))
            node.on_sealed_block(b1)
    plaintext = cluster.nodes["n0"].enclave.open(group.group_id, digest(ciphertext))
    assert parse.call_args_list == [mock.call(plaintext)] * 2
    for node in cluster.nodes.values():
        assert node.private_op_failures == []
        agreement = node.group_ledgers[group.group_id].agreement
        assert agreement.terms == "availability >= 99.9%" and agreement != other.agreement


def test_a_node_hosting_no_group_never_reaches_on_marker():
    _, cluster = make_cluster(("n0", "n1", "n2"))
    group, nonce, ciphertext = make_group_setup(cluster.nodes["n0"])
    for name in group.member_nodes:
        cluster.nodes[name].join_group(group)
        cluster.nodes[name].enclave.receive(StoredPayload(group.group_id, nonce, ciphertext))
    (b1,) = build_chain(1, {1: [marker_tx(group, ciphertext)]})
    with mock.patch.object(NodeRuntime, "_on_marker", autospec=True) as on_marker:
        for node in cluster.nodes.values():
            node.on_sealed_block(b1)
    assert [call.args[0].name for call in on_marker.call_args_list] == ["n0", "n1"]
    assert cluster.nodes["n2"].store.height == 1 and cluster.nodes["n2"].group_ledgers == {}


def test_marker_opens_only_a_payload_of_its_own_group():
    # Alice is in group A with Bob and in group B with Carol, both on n0.
    _, cluster = make_cluster(("n0", "n1", "n2"))
    directory = GroupDirectory(RngHub(7))
    a, _ = directory.get_or_form(ALICE.address, BOB.address, [ALICE.public_key, BOB.public_key], ("n0", "n1"), 0)
    b, _ = directory.get_or_form(ALICE.address, CAROL.address, [ALICE.public_key, CAROL.public_key], ("n0", "n2"), 1)
    for group in (a, b):
        for name in group.member_nodes:
            cluster.nodes[name].join_group(group)
    nonce = b.take_nonce()
    plaintext = OpInit(AgreementRecord(ALICE.address, CAROL.address, 0, "terms of B")).encode()
    ciphertext = encrypt_payload(b.key, nonce, plaintext, b.group_id)
    for name in b.member_nodes:
        cluster.nodes[name].enclave.receive(StoredPayload(b.group_id, nonce, ciphertext))
    # A marker for group A naming group B's payload.
    (b1,) = build_chain(1, {1: [marker_tx(a, ciphertext)]})
    for node in cluster.nodes.values():
        node.on_sealed_block(b1)
    for name in a.member_nodes:
        node = cluster.nodes[name]
        ledger = node.group_ledgers[a.group_id]
        assert ledger.halted and ledger.agreement is None
        assert node.private_op_failures == [(digest(ciphertext), "payload missing; group halted")]
    assert cluster.nodes["n2"].private_op_failures == []
    for name in b.member_nodes:
        ledger = cluster.nodes[name].group_ledgers[b.group_id]
        assert not ledger.halted and ledger.agreement is None
    run = SimpleNamespace(directory=directory, cluster=cluster)
    assert member_state_consistency(run) == []


def test_marker_for_unknown_group_ignored():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    tx = make_transaction(
        ALICE,
        nonce=0,
        gas_limit=100_000,
        payload=PrivacyMarker(group_id=b"\x01" * 32, payload_hash=b"\x02" * 32),
    )
    (b1,) = build_chain(1, {1: [tx]})
    node.on_sealed_block(b1)
    assert node.group_ledgers.get(b"\x01" * 32) is None
    assert node.private_op_failures == []


def test_out_of_sequence_block_leaves_the_pool_at_the_executed_nonce():
    # A block must continue each sender's executed nonce, so one holding
    # a sender's nonce 2 while it is at 0 is refused before it executes.
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    gapped = call_tx(ALICE, 2, "registry", "register", 1)
    node.on_sealed_block(seal(Block(1, 1000, node.store.head.hash, VALIDATORS[1].address, 0, (gapped,))))
    assert node.dropped_invalid_blocks == 1
    assert node.store.height == 0 and gapped.tx_id not in node.receipts
    assert node.state.nonces.get(ALICE.address, 0) == 0
    first = call_tx(ALICE, 0, "registry", "register", 1)
    assert node.pool.add(first, now=0)
    assert node.pool.select(BLOCK_GAS_LIMIT) == [first]


def test_unknown_call_charges_at_most_its_gas_limit():
    _, cluster = make_cluster(("n0",))
    node = cluster.nodes["n0"]
    tx = make_transaction(ALICE, 0, 100, PublicCall("registry", "destroy", b""))
    (b1,) = build_chain(1, {1: [tx]})
    node.on_sealed_block(b1)
    receipt = node.receipts[tx.tx_id].receipt
    assert (receipt.ok, receipt.gas_used, receipt.reason) == (False, 100, "unknown call registry.destroy")
    gas = int(node.chain_dump().splitlines()[1].split()[6])
    assert gas <= sum(t.gas_limit for t in b1.txs) <= BLOCK_GAS_LIMIT


def test_chain_dump_one_line_per_block_with_gas():
    _, cluster = make_cluster(("n0", "n1"))
    tx = call_tx(ALICE, 0, "registry", "register", 1, gas_limit=50_000)
    b1, b2 = build_chain(2, {1: [tx]})
    for node in cluster.nodes.values():
        node.on_sealed_block(b1)
        node.on_sealed_block(b2)

    dump = cluster.nodes["n0"].chain_dump()
    lines = dump.splitlines()
    assert len(lines) == 3
    genesis = lines[0].split()
    assert genesis[0] == "0" and genesis[2] == "00" * 32
    assert genesis[5] == "0" and genesis[6] == "0"
    height, blk_hash, parent, proposer, rnd, count, gas = lines[1].split()
    assert (height, rnd, count, gas) == ("1", "0", "1", "41000")
    assert blk_hash == hash_block(b1).hex()
    assert parent == genesis[1]
    assert proposer == VALIDATORS[1].address.hex()
    assert lines[2].split()[6] == "0"
    assert dump == cluster.nodes["n1"].chain_dump()

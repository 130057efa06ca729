"""Post-run audits: clean runs pass, planted violations are caught."""

from dataclasses import replace

import pytest

from pactsim.audit import (
    authorization_replay,
    convergence,
    isolation_scan,
    member_state_consistency,
    node_byte_image,
)
from pactsim.config import config_from_dict
from pactsim.contracts import BreachRecord, Role
from pactsim.ledger import Block, PrivacyMarker, make_transaction
from pactsim.privacy import StoredPayload
from pactsim.scenario import run_scenario

from .conftest import cred


def fresh():
    return run_scenario(config_from_dict({"preset": "smoke"}), seed=3, capture_wire=True)


@pytest.fixture(scope="module")
def clean_run():
    return fresh()


def any_group(result):
    return next(iter(result.groups.values()))


def outsider_of(result, group):
    return next(n for n in result.config.node_names if n not in group.member_nodes)


# -- negative control -------------------------------------------------


def test_clean_run_has_no_findings(clean_run):
    assert isolation_scan(clean_run) == []
    assert member_state_consistency(clean_run) == []
    assert convergence(clean_run) == []
    assert authorization_replay(clean_run) == []


def test_clean_run_carried_private_traffic(clean_run):
    # The negative control is only meaningful if payloads actually flowed.
    assert len(clean_run.groups) == 2
    assert len(clean_run.cluster.sent_ops) >= 4
    assert len(clean_run.cluster.network.wire_log) > 100


def test_byte_image_covers_chain_state_and_enclave(clean_run):
    group = any_group(clean_run)
    member = group.member_nodes[0]
    image = node_byte_image(clean_run, member)
    node = clean_run.cluster.nodes[member]
    assert node.store.head.header_and_body() in image
    assert group.key in image  # a member legitimately holds the key
    assert node.state.encode() in image


# -- planted isolation violations -------------------------------------


def test_planted_key_on_outsider_node_is_found():
    result = fresh()
    group = any_group(result)
    name = outsider_of(result, group)
    result.cluster.nodes[name].enclave.store_key(group.group_id, group.key)
    found = isolation_scan(result)
    assert any(f.check == "isolation" and f.node == name and "group key" in f.detail for f in found)


def test_planted_plaintext_on_outsider_node_is_found():
    result = fresh()
    group = any_group(result)
    gid, plaintext, _ = next(p for p in result.cluster.sent_ops.values() if p[0] == group.group_id)
    name = outsider_of(result, group)
    result.cluster.nodes[name].enclave.receive(StoredPayload(gid, b"\x00" * 12, plaintext))
    found = isolation_scan(result)
    assert any(f.node == name and "plaintext" in f.detail for f in found)


def test_key_on_the_wire_is_found():
    result = fresh()
    group = any_group(result)
    result.cluster.network.wire_log.append(("m0", "v0", group.key))
    found = isolation_scan(result)
    assert any(f.node == "wire" and "group key" in f.detail for f in found)


def test_plaintext_on_the_wire_is_found():
    result = fresh()
    gid, plaintext, _ = next(iter(result.cluster.sent_ops.values()))
    result.cluster.network.wire_log.append(("m0", "m1", b"prefix" + plaintext))
    found = isolation_scan(result)
    assert any(f.node == "wire" and "plaintext" in f.detail for f in found)


# -- planted divergence -----------------------------------------------


def test_divergent_member_ledger_is_found():
    result = fresh()
    group = any_group(result)
    node = result.cluster.nodes[group.member_nodes[0]]
    ledger = node.group_ledgers.get(group.group_id)
    ledger.records.append(BreachRecord(reporter=group.consumer, details="forged", reported_at=1))
    found = member_state_consistency(result)
    assert any(f.check == "member-state" and "divergent" in f.detail for f in found)


def member_crash_run():
    """`m0` crashes at 20 s and stops at height 7 while the rest go on."""
    crash = {"node": "m0", "at_ms": 20_000}
    config = {"preset": "smoke", "workload": {"batches_per_group": 2}, "faults": {"crashes": [crash]}}
    result = run_scenario(config_from_dict(config), seed=7)
    (lagging,) = (g for g in result.groups.values() if "m0" in g.member_nodes)
    (alive,) = (g for g in result.groups.values() if "m0" not in g.member_nodes)
    return result, lagging, alive


def test_a_crashed_members_shorter_ledger_is_not_divergent():
    result, lagging, _ = member_crash_run()
    ledgers = [result.cluster.nodes[n].group_ledgers[lagging.group_id] for n in lagging.member_nodes]
    assert len({ledger.encode() for ledger in ledgers}) == 2
    assert member_state_consistency(result) == []


def test_a_record_planted_at_an_alive_member_is_found_beside_a_crashed_one():
    result, _, alive = member_crash_run()
    ledger = result.cluster.nodes[alive.member_nodes[1]].group_ledgers[alive.group_id]
    ledger.records.append(BreachRecord(reporter=alive.consumer, details="forged", reported_at=1))
    found = member_state_consistency(result)
    assert [(f.node, f.detail) for f in found] == [
        (",".join(sorted(alive.member_nodes)), f"divergent private state for group {alive.group_id.hex()[:16]}")
    ]


def test_a_record_only_the_crashed_member_holds_is_found():
    result, lagging, _ = member_crash_run()
    ledger = result.cluster.nodes["m0"].group_ledgers[lagging.group_id]
    ledger.records.append(BreachRecord(reporter=lagging.provider, details="forged", reported_at=1))
    found = member_state_consistency(result)
    assert [(f.node, f.detail) for f in found] == [
        ("m0,m2", f"divergent private state for group {lagging.group_id.hex()[:16]}")
    ]


def test_missing_member_ledger_is_found():
    result = fresh()
    group = any_group(result)
    node = result.cluster.nodes[group.member_nodes[1]]
    del node.group_ledgers[group.group_id]
    found = member_state_consistency(result)
    assert any("no ledger" in f.detail for f in found)


def test_tampered_chain_hash_is_found():
    result = fresh()
    blocks = result.cluster.nodes["m2"].store.blocks
    blocks[1] = replace(blocks[1], timestamp=blocks[1].timestamp + 1)
    found = convergence(result)
    assert any(f.node == "m2" and "chain hash differs at height 1" in f.detail for f in found)


def test_node_short_of_a_settled_block_is_found():
    result = fresh()
    store = result.cluster.nodes["m2"].store
    del store.blocks[2:]
    found = convergence(result)
    assert [f.node for f in found] == ["m2"]
    assert "at height 1, below settled height" in found[0].detail


def test_block_finalized_within_grace_of_the_end_may_still_be_in_flight():
    result = fresh()
    top = result.cluster.nodes["v0"].store.height
    # As if the run had stopped just after the top block was finalized.
    result.sim.now = result.metrics.first_finalized_at(top) + result.config.run.grace_ms - 1
    del result.cluster.nodes["m2"].store.blocks[top:]
    assert convergence(result) == []
    del result.cluster.nodes["m2"].store.blocks[top - 1 :]
    assert [f.node for f in convergence(result)] == ["m2"]


def test_every_node_crashed_leaves_nothing_to_compare():
    nodes = config_from_dict({"preset": "smoke"}).node_names
    crashes = [{"node": name, "at_ms": 1000} for name in nodes]
    result = run_scenario(config_from_dict({"preset": "smoke", "faults": {"crashes": crashes}}), seed=3)
    assert set(result.cluster.network.crashed) == set(nodes)
    assert convergence(result) == []


def test_tampered_world_state_is_found():
    result = fresh()
    result.cluster.nodes["m2"].state.roles[b"\xff" * 20] = Role.PROVIDER
    found = convergence(result)
    assert any(f.check == "convergence" and "state digest" in f.detail for f in found)


# -- planted authorization violations ---------------------------------


def plant_foreign_marker(result, name):
    """Append to `name`'s chain a block holding a marker for a group, sent by a non-member."""
    group = any_group(result)
    store = result.cluster.nodes[name].store
    intruder = cred(99)
    tx = make_transaction(
        intruder, nonce=0, gas_limit=50_000,
        payload=PrivacyMarker(group_id=group.group_id, payload_hash=b"\x01" * 32),
    )
    head = store.head
    store.blocks.append(
        Block(
            height=head.height + 1,
            timestamp=head.timestamp + 1,
            parent_hash=head.hash,
            proposer=b"\x00" * 20,
            round=0,
            txs=(tx,),
        )
    )


def test_marker_from_non_member_is_found():
    result = fresh()
    plant_foreign_marker(result, result.config.node_names[0])
    found = authorization_replay(result)
    assert any("sent by non-member" in f.detail for f in found)


def test_marker_above_a_crashed_nodes_head_is_found():
    # The first node crashes before any block, so every other node's chain is longer than its own.
    crash = {"node": "v0", "at_ms": 1000}
    result = run_scenario(config_from_dict({"preset": "smoke", "faults": {"crashes": [crash]}}), seed=3)
    nodes = result.cluster.nodes
    assert result.config.node_names[0] == "v0" and nodes["v0"].store.height < nodes["m2"].store.height
    plant_foreign_marker(result, "m2")
    found = authorization_replay(result)
    assert any(f.node == "m2" and "sent by non-member" in f.detail for f in found)


def test_breach_record_from_non_member_is_found():
    result = fresh()
    group = any_group(result)
    node = result.cluster.nodes[group.member_nodes[0]]
    ledger = node.group_ledgers.get(group.group_id)
    ledger.records.append(BreachRecord(reporter=b"\xee" * 20, details="planted", reported_at=5))
    found = authorization_replay(result)
    assert any(f.check == "authorization" and "non-member" in f.detail for f in found)

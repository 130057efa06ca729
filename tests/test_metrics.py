"""Latency samples, stats, safety detection, and run outputs."""

import csv

import pytest

from pactsim.ledger import Block, genesis_block, hash_block
from pactsim.metrics import (
    ALL_KINDS,
    MetricsCollector,
    PRIVATE_KINDS,
    PUBLIC_KINDS,
)

from .conftest import call_tx, cred

ALICE = cred(1)


def block_with(txs, height=1):
    parent = genesis_block()
    return Block(
        height=height,
        timestamp=height * 1000,
        parent_hash=hash_block(parent),
        proposer=b"\x00" * 20,
        round=0,
        txs=tuple(txs),
    )


def finalize(mc, block, validator="v0", now=5000):
    mc.on_validator_finalized(validator, block, now)


# -- stats ------------------------------------------------------------


def test_stats_over_one_to_hundred():
    mc = MetricsCollector()
    for v in range(1, 101):
        s = mc.new_sample(v.to_bytes(4, "big"), "register", submit_ms=0)
        s.final_ms = v
    st = mc.kind_stats("register")
    assert st == {
        "count": 100,
        "mean_ms": 50.5,
        "p50_ms": 50,
        "p95_ms": 95,
        "min_ms": 1,
        "max_ms": 100,
        "cov": 0.5716,
    }


def test_percentiles_use_nearest_rank():
    mc = MetricsCollector()
    for i, v in enumerate((30, 10, 20)):
        s = mc.new_sample(bytes([i]), "select", submit_ms=0)
        s.final_ms = v
    st = mc.kind_stats("select")
    assert st["p50_ms"] == 20  # ceil(0.5 * 3) = 2nd of [10, 20, 30]
    assert st["p95_ms"] == 30


def test_single_sample_stats():
    mc = MetricsCollector()
    s = mc.new_sample(b"\x01", "publish", submit_ms=8)
    s.final_ms = 50
    st = mc.kind_stats("publish")
    assert st["count"] == 1
    assert st["mean_ms"] == 42.0
    assert st["p50_ms"] == st["p95_ms"] == 42
    assert st["cov"] == 0.0


def test_empty_kind_has_no_stats():
    mc = MetricsCollector()
    assert mc.kind_stats("register") is None
    assert mc.combined_stats(PUBLIC_KINDS) is None


def test_unknown_kind_rejected():
    mc = MetricsCollector()
    with pytest.raises(ValueError):
        mc.new_sample(b"\x01", "telegram", submit_ms=0)
    with pytest.raises(ValueError):
        mc.new_private_sample("register", submit_ms=0, group_id=b"\x01" * 32)


def test_kind_partition_is_exhaustive():
    assert set(ALL_KINDS) == set(PUBLIC_KINDS) | set(PRIVATE_KINDS)
    assert not set(PUBLIC_KINDS) & set(PRIVATE_KINDS)


# -- finality wiring --------------------------------------------------


def test_finalization_fills_pending_sample():
    mc = MetricsCollector()
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    sample = mc.new_sample(tx.tx_id, "register", submit_ms=400)
    finalize(mc, block_with([tx]), now=4400)
    assert sample.final_ms == 4400
    assert sample.latency_ms == 4000
    assert sample.block_height == 1


def test_bind_tx_links_private_sample_to_its_anchor():
    mc = MetricsCollector()
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    sample = mc.new_private_sample("deploy_private", submit_ms=100, group_id=b"\x05" * 32)
    mc.bind_tx(sample, tx.tx_id)
    finalize(mc, block_with([tx]), now=6100)
    assert sample.final_ms == 6100
    assert sample.group_id == b"\x05" * 32


def test_offchain_kinds_keep_their_own_final_time():
    mc = MetricsCollector()
    tx = call_tx(ALICE, 0, "registry", "register", 1)
    sample = mc.new_private_sample("register_breach", submit_ms=100, group_id=b"\x05" * 32)
    sample.final_ms = 3000  # delivery finished off-chain before anchoring
    mc.bind_tx(sample, tx.tx_id)
    finalize(mc, block_with([tx]), now=9999)
    assert sample.final_ms == 3000
    assert sample.block_height == 1


def test_first_finalization_wins():
    mc = MetricsCollector()
    block = block_with([])
    finalize(mc, block, validator="v0", now=10)
    finalize(mc, block, validator="v1", now=20)
    assert mc.first_finalized_at(1) == 10
    assert mc.first_finalized_at(2) is None


def test_conflicting_hashes_raise_a_safety_violation():
    mc = MetricsCollector()
    a = block_with([])
    b = block_with([], height=1)
    b = Block(**{**b.__dict__, "timestamp": 9999})
    finalize(mc, a, validator="v0", now=10)
    finalize(mc, b, validator="v1", now=11)
    assert len(mc.safety_violations) == 1
    v = mc.safety_violations[0]
    assert v.node == "v1"
    assert v.height == 1


def test_height_callbacks_fire_once_per_height():
    mc = MetricsCollector()
    seen = []
    mc.height_callbacks.append(seen.append)
    block = block_with([])
    finalize(mc, block, validator="v0", now=10)
    finalize(mc, block, validator="v1", now=20)
    assert seen == [1]


# -- outputs ----------------------------------------------------------


def test_csv_shape_and_empty_cells(tmp_path):
    mc = MetricsCollector()
    s1 = mc.new_sample(b"\xaa\xbb", "register", submit_ms=7)
    s1.final_ms = 107
    s1.block_height = 3
    mc.new_private_sample("register_breach", submit_ms=50, group_id=b"\x01" * 4)
    out = tmp_path / "latency.csv"
    mc.write_csv(out)
    text = out.read_text()
    assert text.splitlines()[0] == "tx_id,kind,submit_ms,final_ms,latency_ms,enclave_ms,block_height,group_id"
    rows = list(csv.DictReader(text.splitlines()))
    assert rows[0] == {
        "tx_id": "aabb",
        "kind": "register",
        "submit_ms": "7",
        "final_ms": "107",
        "latency_ms": "100",
        "enclave_ms": "",
        "block_height": "3",
        "group_id": "",
    }
    assert rows[1]["tx_id"] == ""
    assert rows[1]["final_ms"] == ""
    assert rows[1]["group_id"] == "01010101"


def test_summary_counts_and_violations():
    mc = MetricsCollector()
    done = mc.new_sample(b"\x01", "register", submit_ms=0)
    done.final_ms = 10
    mc.new_sample(b"\x02", "select", submit_ms=0)  # never finalizes
    mc.record_safety_violation("v3", 9, "fork")
    data = mc.summary(42)
    assert data["seed"] == 42
    assert data["unresolved_samples"] == 1
    assert data["kinds"]["register"]["count"] == 1
    assert "select" not in data["kinds"]
    assert data["public"]["count"] == 1
    assert data["private"] is None
    assert data["safety_violations"] == [{"node": "v3", "height": 9, "detail": "fork"}]

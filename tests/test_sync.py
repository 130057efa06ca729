"""Catch-up after faults: every alive node ends on the settled chain.

A node that misses blocks, across a partition or a lost quorum, pulls
them from a peer (`NodeRuntime.request_sync`).  These runs cover the
splits that used to strand one side for good, a member cut off while
the workload runs, and random fault mixes within `f`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pactsim.audit import authorization_replay, convergence, isolation_scan, member_state_consistency
from pactsim.config import config_from_dict
from pactsim.identity import fault_tolerance
from pactsim.scenario import run_scenario

EMPTY_WORKLOAD = {
    "providers": 0,
    "consumers": 0,
    "publishes_per_provider": 0,
    "selects_per_consumer": 0,
    "breaches_per_group": 0,
}


def consensus_config(validators: int, faults: dict, target_heights: int = 5):
    return config_from_dict(
        {
            "preset": "smoke",
            "validators": validators,
            "member_nodes": 0,
            "workload": EMPTY_WORKLOAD,
            "run": {"target_heights": target_heights, "max_virtual_ms": 120_000},
            "faults": faults,
        }
    )


def audit_findings(result) -> list:
    return (
        convergence(result)
        + member_state_consistency(result)
        + authorization_replay(result)
        + isolation_scan(result)
    )


def split_sweep(validators: int, groups: list[list[str]]) -> list[int]:
    """Seeds 0-99 of one split from 2,500 to 5,500 ms; returns those that stall or fail an audit."""
    cfg = consensus_config(validators, {"partitions": [{"from_ms": 2500, "to_ms": 5500, "groups": groups}]})
    bad = []
    for seed in range(100):
        result = run_scenario(cfg, seed)
        if not result.completed or result.summary["safety_violations"] or audit_findings(result):
            bad.append(seed)
    return bad


def test_two_two_split_of_four_validators_always_heals():
    # Without sync, 36 of these seeds left each side on its own height.
    assert split_sweep(4, [["v0", "v1"], ["v2", "v3"]]) == []


def test_three_four_split_of_seven_validators_always_heals():
    assert split_sweep(7, [["v0", "v1", "v2"], ["v3", "v4", "v5", "v6"]]) == []


def test_member_cut_off_mid_workload_catches_up_and_completes():
    # m0 hosts providers; it misses about 15 blocks and any gossip it sent.
    rest = ["v0", "v1", "v2", "v3", "m1", "m2"]
    cut = {"partitions": [{"from_ms": 5000, "to_ms": 20_000, "groups": [["m0"], rest]}]}
    cfg = config_from_dict({"preset": "smoke", "faults": cut})
    for seed in range(6):
        result = run_scenario(cfg, seed)
        assert convergence(result) == [], seed
        assert result.completed, seed
        assert result.summary["sync_requests"] > 0, seed
        heights = {node.store.height for node in result.cluster.nodes.values()}
        assert max(heights) - min(heights) <= 1, seed


def test_echo_validator_keeps_up_so_no_honest_validator_times_out():
    # An echo validator that ignored commits learned of each block a
    # height late, so a height it proposed (height 6 here) waited out a
    # round timeout at every honest validator.
    cfg = consensus_config(7, {"byzantine": [{"node": "v6", "strategy": "echo"}]}, target_heights=8)
    result = run_scenario(cfg, 0, trace=True)
    timeouts = [e for e in result.sim.trace_log if e["kind"] == "round_timeout" and e["node"] != "v6"]
    assert timeouts == []
    assert convergence(result) == []


@st.composite
def fault_mixes(draw):
    """n validators, at most f of them faulty, and splits that heal by 6 s."""
    n = draw(st.sampled_from([4, 7, 10]))
    names = [f"v{i}" for i in range(n)]
    faulty = draw(st.lists(st.sampled_from(names), unique=True, max_size=fault_tolerance(n)))
    byzantine, crashes = [], []
    for name in faulty:
        kind = draw(st.sampled_from(["equivocate", "withhold", "echo", "crash"]))
        if kind == "crash":
            crashes.append({"node": name, "at_ms": draw(st.integers(0, 6000))})
        else:
            byzantine.append({"node": name, "strategy": kind})
    partitions = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, 5000))
        side = draw(st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=n - 1))
        rest = [name for name in names if name not in side]
        partitions.append({"from_ms": start, "to_ms": draw(st.integers(start + 1, 6000)), "groups": [side, rest]})
    faults = {"byzantine": byzantine, "crashes": crashes, "partitions": partitions}
    return n, faults, draw(st.integers(0, 2**16))


def assert_safe_and_live(n: int, faults: dict, seed: int) -> None:
    cfg = consensus_config(n, faults)
    result = run_scenario(cfg, seed)
    assert result.summary["safety_violations"] == []
    assert result.completed
    faulty = {entry["node"] for entry in faults["byzantine"] + faults["crashes"]}
    honest = [name for name in cfg.node_names if name not in faulty]
    assert all(result.cluster.nodes[name].store.height >= 5 for name in honest)
    assert audit_findings(result) == []


@settings(max_examples=60)
@given(fault_mixes())
def test_fault_mixes_within_f_stay_safe_and_every_honest_node_catches_up(mix):
    assert_safe_and_live(*mix)


def split_off(side: list[str], from_ms: int, to_ms: int, validators: int = 10) -> dict:
    """`side` against the rest of the validators."""
    rest = [f"v{i}" for i in range(validators) if f"v{i}" not in side]
    return {"from_ms": from_ms, "to_ms": to_ms, "groups": [side, rest]}


# An `echo` proposer also sends a `Prepare` for its own block.  A
# prepared certificate holding it would name the proposer twice, so
# `PreparedCert.verify` would refuse it and every round change carrying
# it would be dropped.  In these mixes no later round could then gather
# a quorum: all ten validators stay at height 0 and 1 respectively.
SELF_PREPARE_MIXES = {
    48_390: {
        "byzantine": [{"node": "v1", "strategy": "echo"}, {"node": "v2", "strategy": "echo"}],
        "crashes": [],
        "partitions": [split_off(["v0", "v2", "v3", "v8"], 824, 1836), split_off(["v2", "v4", "v9"], 3288, 4967)],
    },
    18_754: {
        "byzantine": [
            {"node": "v2", "strategy": "echo"},
            {"node": "v6", "strategy": "withhold"},
            {"node": "v9", "strategy": "equivocate"},
        ],
        "crashes": [],
        "partitions": [split_off(["v3", "v4", "v5", "v7"], 2580, 3136), split_off(["v8"], 4099, 4495)],
    },
}


@pytest.mark.parametrize("seed", sorted(SELF_PREPARE_MIXES))
def test_a_proposers_own_prepare_does_not_stall_round_changes(seed):
    assert_safe_and_live(10, SELF_PREPARE_MIXES[seed], seed)


def test_overlapping_splits_take_their_meet():
    # v0 is cut off from 1,000 to 8,000 ms; v1 from 2,000 to 3,000 ms.
    # Healing v1's split must leave v0's in force.
    faults = {"partitions": [split_off(["v0"], 1000, 8000, 4), split_off(["v1"], 2000, 3000, 4)]}
    result = run_scenario(consensus_config(4, faults, target_heights=12), seed=0, trace=True)
    assert result.completed and result.sim.now > 8000
    changes = [(e["t"], e["groups"]) for e in result.sim.trace_log if e["kind"] == "partition"]
    assert changes == [
        (1000, [["v0"], ["v1", "v2", "v3"]]),
        (2000, [["v0"], ["v1"], ["v2", "v3"]]),
        (3000, [["v0"], ["v1", "v2", "v3"]]),
        (8000, None),
    ]


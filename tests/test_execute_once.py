"""Whole runs with each block executed once equal runs where every node executes it.

`node.Cluster.executed` holds each non-empty block's receipt entries and
writes, so the first node to append a block executes it and every later
one adopts its writes.  Each case runs twice: as is, and with a table
that never holds a block, so every node executes every block itself.
Every node's world state, receipts and chain, and the run's
`latency.csv` and `summary.json`, must come out equal.
"""

from __future__ import annotations

import pytest

from pactsim import scenario
from pactsim.config import config_from_dict
from pactsim.contracts import PublicState
from pactsim.node import Cluster

from .test_golden import CASES

MEMBER_CUT_OFF = {
    "preset": "smoke",
    "faults": {
        "partitions": [
            {"from_ms": 5000, "to_ms": 20_000, "groups": [["m0"], ["v0", "v1", "v2", "v3", "m1", "m2"]]},
        ],
    },
}
MEMBER_CRASH = {"preset": "smoke", "faults": {"crashes": [{"node": "m2", "at_ms": 4000}]}}

RUNS: dict[str, tuple[dict, int]] = {
    **CASES,
    "member-cut-off": (MEMBER_CUT_OFF, 3),
    "member-crash": (MEMBER_CRASH, 3),
}


RUN_BLOCK = PublicState.run_block


class NeverHeld(dict):
    """A block table that never finds a block."""

    def get(self, key, default=None):
        return default


class EveryNodeExecutes(Cluster):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executed = NeverHeld()


def outputs(raw: dict, seed: int, out_dir, monkeypatch) -> tuple[dict, dict, tuple[int, int, int]]:
    """Per node: state bytes, receipts in order and chain dump; the two output files.

    Last, the counts of `run_block` calls, of distinct non-empty blocks,
    and of non-empty blocks appended summed over nodes.
    """
    calls = []
    monkeypatch.setattr(PublicState, "run_block", lambda state, txs: calls.append(txs) or RUN_BLOCK(state, txs))
    result = scenario.run_scenario(config_from_dict(raw), seed, out_dir=out_dir)
    nodes = {
        name: (
            node.state.encode(),
            [(tx_id, entry.receipt) for tx_id, entry in node.receipts.items()],
            node.chain_dump(),
        )
        for name, node in result.cluster.nodes.items()
    }
    files = {name: (out_dir / name).read_bytes() for name in ("latency.csv", "summary.json")}
    appended = [block.hash for node in result.cluster.nodes.values() for block in node.store.blocks if block.txs]
    return nodes, files, (len(calls), len(set(appended)), len(appended))


@pytest.mark.parametrize("case", sorted(RUNS))
def test_adopting_blocks_gives_the_outputs_of_executing_them_everywhere(case, tmp_path, monkeypatch):
    raw, seed = RUNS[case]
    once = outputs(raw, seed, tmp_path / "once", monkeypatch)
    monkeypatch.setattr(scenario, "Cluster", EveryNodeExecutes)
    everywhere = outputs(raw, seed, tmp_path / "everywhere", monkeypatch)
    assert once[:2] == everywhere[:2]
    # Once per distinct non-empty block against once per node that appended it.
    calls, distinct, appended = once[2]
    assert (calls, everywhere[2][0]) == (distinct, appended)

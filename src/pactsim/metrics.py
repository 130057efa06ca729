"""Latency samples and run outputs.

Public operations and private deploys are timed from client submission
to the first finalization anywhere of the block containing them (or
their anchoring marker), so a deploy's latency includes anchoring.
Breach reports and batches (`OFF_CHAIN_FINAL_KINDS`) are final when the
encrypted payload has reached every counterparty enclave; the marker
that anchors one only fills in the block height.  Their transfer comes
from `PayloadCourier.draw_transfer`'s own stream, drawn at submission,
so their latency is independent of the block interval by construction.
Sample kinds come from `contracts`: a public call's function name in
`OPS`, or a private operation's `KIND`.

All output files are a pure function of the run, so two runs with the
same seed and configuration produce identical bytes.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import get_args

from .contracts import MARKER, OPS, OpBatch, OpBreach, PrivateOp
from .ledger import Block

CSV_HEADER = ["tx_id", "kind", "submit_ms", "final_ms", "latency_ms", "enclave_ms", "block_height", "group_id"]

PUBLIC_KINDS = tuple(op[1] for op in OPS if op != MARKER)
PRIVATE_KINDS = tuple(op.KIND for op in get_args(PrivateOp))
# Kinds final on delivery to every counterparty enclave; their anchoring
# block fills in only the height.
OFF_CHAIN_FINAL_KINDS = (OpBreach.KIND, OpBatch.KIND)
ALL_KINDS = PUBLIC_KINDS + PRIVATE_KINDS


@dataclass
class LatencySample:
    tx_id: bytes
    kind: str
    submit_ms: int
    final_ms: int | None = None
    enclave_ms: int | None = None
    block_height: int | None = None
    group_id: bytes | None = None

    @property
    def latency_ms(self) -> int | None:
        if self.final_ms is None:
            return None
        return self.final_ms - self.submit_ms


@dataclass
class SafetyViolation:
    node: str
    height: int
    detail: str


class MetricsCollector:
    """Aggregates finality events and latency samples for one run.

    A sample is registered before its transaction is submitted, so the
    block that finalizes the transaction always finds it.
    """

    def __init__(self):
        self.samples: list[LatencySample] = []
        self._by_tx: dict[bytes, LatencySample] = {}
        # Height -> (block hash, virtual time of its first finalization).
        self._finalized: dict[int, tuple[bytes, int]] = {}
        self.safety_violations: list[SafetyViolation] = []
        self.finalized_heights = 0
        self.height_callbacks: list = []

    # -- sample registration ------------------------------------------

    def new_sample(self, tx_id: bytes, kind: str, submit_ms: int) -> LatencySample:
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown sample kind {kind!r}")
        sample = LatencySample(tx_id=tx_id, kind=kind, submit_ms=submit_ms)
        self.samples.append(sample)
        self._by_tx[tx_id] = sample
        return sample

    def new_private_sample(self, kind: str, submit_ms: int, group_id: bytes) -> LatencySample:
        """A sample whose anchoring transaction does not exist yet."""
        if kind not in PRIVATE_KINDS:
            raise ValueError(f"not a private kind: {kind!r}")
        sample = LatencySample(tx_id=b"", kind=kind, submit_ms=submit_ms, group_id=group_id)
        self.samples.append(sample)
        return sample

    def on_delivered(self, sample: LatencySample, at_ms: int) -> None:
        """A private payload, sent at `submit_ms`, reached every counterparty enclave at `at_ms`."""
        sample.enclave_ms = at_ms - sample.submit_ms
        if sample.kind in OFF_CHAIN_FINAL_KINDS:
            sample.final_ms = at_ms

    def bind_tx(self, sample: LatencySample, tx_id: bytes) -> None:
        sample.tx_id = tx_id
        self._by_tx[tx_id] = sample

    # -- finality events ----------------------------------------------

    def on_validator_finalized(self, validator: str, block: Block, now: int) -> None:
        known = self._finalized.get(block.height)
        if known is not None:
            if known[0] != block.hash:
                self.record_safety_violation(
                    validator, block.height,
                    f"finalized {block.hash.hex()[:16]} but {known[0].hex()[:16]} was already final",
                )
            return
        self._finalized[block.height] = (block.hash, now)
        self.finalized_heights = max(self.finalized_heights, block.height)
        for tx in block.txs:
            sample = self._by_tx.get(tx.tx_id)
            if sample is not None:
                sample.block_height = block.height
                if sample.kind not in OFF_CHAIN_FINAL_KINDS:
                    sample.final_ms = now
        for cb in list(self.height_callbacks):
            cb(block.height)

    def record_safety_violation(self, node: str, height: int, detail: str) -> None:
        self.safety_violations.append(SafetyViolation(node=node, height=height, detail=detail))

    def first_finalized_at(self, height: int) -> int | None:
        """Virtual time at which any validator first finalized a height."""
        return self._finalized.get(height, (None, None))[1]

    # -- aggregation --------------------------------------------------

    def stats(self, kinds: tuple[str, ...]) -> dict | None:
        """Latency statistics over the resolved samples of `kinds`."""
        values = [s.latency_ms for s in self.samples if s.kind in kinds and s.latency_ms is not None]
        return _stats(values)

    # -- outputs ------------------------------------------------------

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_HEADER)
            for s in self.samples:
                writer.writerow(
                    [
                        s.tx_id.hex(),
                        s.kind,
                        s.submit_ms,
                        _cell(s.final_ms),
                        _cell(s.latency_ms),
                        _cell(s.enclave_ms),
                        _cell(s.block_height),
                        s.group_id.hex() if s.group_id is not None else "",
                    ]
                )

    def summary(self, seed: int) -> dict:
        kinds = {}
        for kind in ALL_KINDS:
            st = self.stats((kind,))
            if st is not None:
                kinds[kind] = st
        return {
            "seed": seed,
            "blocks_finalized": self.finalized_heights,
            "kinds": kinds,
            "public": self.stats(PUBLIC_KINDS),
            "private": self.stats(PRIVATE_KINDS),
            "unresolved_samples": sum(1 for s in self.samples if s.latency_ms is None),
            "safety_violations": [
                {"node": v.node, "height": v.height, "detail": v.detail}
                for v in self.safety_violations
            ],
        }


def _cell(value: int | None) -> str | int:
    return "" if value is None else value


def _stats(values: list[int]) -> dict | None:
    if not values:
        return None
    ordered = sorted(values)
    mean = statistics.fmean(ordered)
    stdev = statistics.pstdev(ordered) if len(ordered) > 1 else 0.0
    return {
        "count": len(ordered),
        "mean_ms": round(mean, 3),
        "p50_ms": _percentile(ordered, 50),
        "p95_ms": _percentile(ordered, 95),
        "min_ms": ordered[0],
        "max_ms": ordered[-1],
        "cov": round(stdev / mean, 4) if mean > 0 else 0.0,
    }


def _percentile(ordered: list[int], pct: int) -> int:
    """Nearest-rank percentile over an already sorted list."""
    if not ordered:
        raise ValueError("empty sample set")
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]

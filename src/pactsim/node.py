"""Per-node runtime and the cluster wiring between nodes.

Every node, validator or not, keeps the full public picture: finalized
chain, executed world state, transaction pool, and receipts for
transactions it saw land in blocks.  Nodes hosting a privacy-group
member additionally keep that group's key and replay its encrypted
operations in block order as the anchoring markers finalize.

A transaction's signature is checked at gossip intake and again when a
block holding it is appended.  The check is derived once per
transaction object, so the second check of an object the node already
admitted costs a lookup, while a tampered copy is checked afresh and,
inside a block, gets the block dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .contracts import (
    BreachLedger,
    ExecError,
    GasSchedule,
    PublicState,
    Receipt,
    decode_private_op,
)
from .identity import ValidatorSet
from .ledger import (
    Block,
    ChainStore,
    DuplicateHeight,
    HeightGap,
    LedgerError,
    PrivacyMarker,
    Transaction,
    TxPool,
    block_wire,
)
from .privacy import PAYLOAD_WAIT_MS, Enclave, GroupInfo
from .simulation import Network, Simulator

if TYPE_CHECKING:
    from .consensus import IbftValidator
    from .metrics import MetricsCollector


@dataclass
class ReceiptEntry:
    receipt: Receipt
    height: int
    seen_at: int


@dataclass
class _MarkerTask:
    height: int
    sender: bytes
    payload_hash: bytes
    deadline: int | None = None


class NodeRuntime:
    """One simulated node: chain follower, pool, and private replayer."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        network: Network,
        validators: ValidatorSet,
        schedule: GasSchedule,
    ):
        self.name = name
        self.sim = sim
        self.network = network
        self.store = ChainStore(validators)
        self.state = PublicState(schedule)
        self.pool = TxPool()
        self.enclave = Enclave(name)
        self.enclave.arrival_hooks.append(self._on_payload_arrival)
        self.receipts: dict[bytes, ReceiptEntry] = {}
        self._receipt_waiters: dict[bytes, list[Callable[[ReceiptEntry], None]]] = {}
        self.group_ledgers: dict[bytes, BreachLedger] = {}
        self._marker_queues: dict[bytes, deque[_MarkerTask]] = {}
        self.private_op_failures: list[tuple[bytes, str]] = []
        self.future_blocks: dict[int, Block] = {}
        self.dropped_invalid_blocks = 0
        self.validator: "IbftValidator | None" = None
        self.cluster: "Cluster | None" = None

    # -- transactions -------------------------------------------------

    def receive_tx(self, tx: Transaction) -> None:
        """Entry point for client submissions; gossips to the others."""
        if not tx.verify_signature():
            return
        if not self.pool.add(tx, self.sim.now):
            return
        if self.sim.trace_enabled:
            self.sim.trace("tx_accepted", node=self.name, tx=tx.tx_id.hex()[:16])
        wire = tx.encode() if self.network.capture_wire else None
        for other in self.cluster.node_names:
            if other != self.name:
                self.network.send(
                    self.name, other, "rpc",
                    lambda t=tx, o=other: self.cluster.nodes[o].receive_gossip(t),
                    wire=wire,
                )

    def receive_gossip(self, tx: Transaction) -> None:
        if tx.verify_signature():
            self.pool.add(tx, self.sim.now)

    def wait_for_receipt(self, tx_id: bytes, callback: Callable[[ReceiptEntry], None]) -> None:
        entry = self.receipts.get(tx_id)
        if entry is not None:
            callback(entry)
        else:
            self._receipt_waiters.setdefault(tx_id, []).append(callback)

    # -- block intake -------------------------------------------------

    def on_self_finalized(self, sealed: Block) -> None:
        """A quorum of commits assembled locally by our own validator."""
        try:
            appended = self.store.append_block(sealed)
        except DuplicateHeight as err:
            self.cluster.metrics.record_safety_violation(self.name, sealed.height, str(err))
            return
        if appended:
            self._after_append(sealed, self_finalized=True)

    def on_sealed_block(self, block: Block) -> None:
        """A fully sealed block arriving from another node."""
        try:
            appended = self.store.append_block(block)
        except DuplicateHeight as err:
            self.cluster.metrics.record_safety_violation(self.name, block.height, str(err))
            return
        except HeightGap:
            self.future_blocks[block.height] = block
            return
        except LedgerError:
            self.dropped_invalid_blocks += 1
            return
        if appended:
            self._after_append(block, self_finalized=False)

    def _after_append(self, block: Block, self_finalized: bool) -> None:
        self._apply_block(block)
        if self.validator is not None:
            self.cluster.metrics.on_validator_finalized(self.name, block, self.sim.now)
        if self_finalized:
            self.cluster.broadcast_sealed(self.name, block)
        if self.validator is not None:
            self.validator.on_chain_extended()
        # Drain any buffered successor.
        nxt = self.future_blocks.pop(self.store.height + 1, None)
        if nxt is not None:
            self.on_sealed_block(nxt)

    def _apply_block(self, block: Block) -> None:
        for tx in block.txs:
            receipt = self.state.execute(tx)
            entry = ReceiptEntry(receipt=receipt, height=block.height, seen_at=self.sim.now)
            self.receipts[tx.tx_id] = entry
            if receipt.ok and isinstance(tx.payload, PrivacyMarker):
                self._on_marker(block.height, tx.sender, tx.payload)
            for cb in self._receipt_waiters.pop(tx.tx_id, []):
                cb(entry)
        self.pool.remove_included(block.txs)

    # -- inspection ---------------------------------------------------

    def chain_dump(self) -> str:
        """One text line per block for golden-file regression diffs.

        Columns: height, block hash, parent hash, proposer, round,
        transaction count, gas used by the executed transactions.
        """
        lines = []
        for block in self.store.blocks:
            gas = sum(
                self.receipts[tx.tx_id].receipt.gas_used
                for tx in block.txs
                if tx.tx_id in self.receipts
            )
            lines.append(
                f"{block.height} {block.hash.hex()} "
                f"{block.parent_hash.hex()} {block.proposer.hex()} "
                f"{block.round} {len(block.txs)} {gas}"
            )
        return "\n".join(lines) + "\n"

    # -- privacy group replay -----------------------------------------

    def join_group(self, group: GroupInfo) -> None:
        self.enclave.store_key(group.group_id, group.key)
        if group.group_id not in self.group_ledgers:
            self.group_ledgers[group.group_id] = BreachLedger(
                group_id=group.group_id, members=group.members
            )

    def read_private_state(self, group_id: bytes) -> BreachLedger | None:
        return self.group_ledgers.get(group_id)

    def _on_marker(self, height: int, sender: bytes, marker: PrivacyMarker) -> None:
        if marker.group_id not in self.group_ledgers:
            return
        queue = self._marker_queues.setdefault(marker.group_id, deque())
        queue.append(_MarkerTask(height=height, sender=sender, payload_hash=marker.payload_hash))
        self._drain_markers(marker.group_id)

    def _on_payload_arrival(self, payload_hash: bytes) -> None:
        stored = self.enclave.get(payload_hash)
        if stored is not None and stored.group_id in self._marker_queues:
            self._drain_markers(stored.group_id)

    def _drain_markers(self, group_id: bytes) -> None:
        """Apply anchored operations in block order.

        A marker whose payload has not reached this enclave yet blocks
        the queue; the payload normally arrives moments later and the
        queue resumes.  If it never arrives the group halts rather than
        let members diverge.
        """
        queue = self._marker_queues.get(group_id)
        ledger = self.group_ledgers.get(group_id)
        if queue is None or ledger is None:
            return
        while queue:
            task = queue[0]
            plaintext = self.enclave.open(task.payload_hash)
            if plaintext is None:
                if task.deadline is None:
                    task.deadline = self.sim.now + PAYLOAD_WAIT_MS
                    self.sim.schedule(PAYLOAD_WAIT_MS, lambda g=group_id, t=task: self._check_deadline(g, t))
                return
            queue.popleft()
            try:
                op = decode_private_op(plaintext)
                ledger.apply(task.sender, op, task.payload_hash)
                if self.sim.trace_enabled:
                    self.sim.trace(
                        "private_op", node=self.name, group=group_id.hex()[:16],
                        op=type(op).__name__, height=task.height,
                    )
            except (ExecError, ValueError) as err:
                reason = err.reason if isinstance(err, ExecError) else str(err)
                self.private_op_failures.append((task.payload_hash, reason))

    def _check_deadline(self, group_id: bytes, task: _MarkerTask) -> None:
        queue = self._marker_queues.get(group_id)
        if not queue or queue[0] is not task:
            return
        if self.enclave.open(task.payload_hash) is not None:
            self._drain_markers(group_id)
            return
        ledger = self.group_ledgers[group_id]
        ledger.halted = True
        queue.clear()
        self.private_op_failures.append((task.payload_hash, "payload never arrived; group halted"))
        if self.sim.trace_enabled:
            self.sim.trace("group_halted", node=self.name, group=group_id.hex()[:16])


class Cluster:
    """All nodes of one run plus the routing glue between them."""

    def __init__(self, sim: Simulator, network: Network, metrics: "MetricsCollector"):
        self.sim = sim
        self.network = network
        self.metrics = metrics
        self.nodes: dict[str, NodeRuntime] = {}
        self.node_names: tuple[str, ...] = ()

    def add_node(self, node: NodeRuntime) -> None:
        self.nodes[node.name] = node
        node.cluster = self
        self.node_names = tuple(self.nodes)

    def broadcast_sealed(self, src: str, block: Block) -> None:
        wire = block_wire(block) if self.network.capture_wire else None
        for name in self.node_names:
            if name != src:
                self.network.send(
                    src, name, "consensus",
                    lambda b=block, n=name: self.nodes[n].on_sealed_block(b),
                    wire=wire,
                )

    def submit(self, node_name: str, tx: Transaction) -> None:
        """Client submission over local RPC to the node hosting it."""
        self.network.send(
            node_name, node_name, "rpc",
            lambda: self.nodes[node_name].receive_tx(tx),
            wire=tx.encode() if self.network.capture_wire else None,
        )

    def start_validators(self) -> None:
        for node in self.nodes.values():
            if node.validator is not None:
                node.validator.start()

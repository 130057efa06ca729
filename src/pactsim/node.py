"""Per-node runtime and the cluster wiring between nodes.

Every node, validator or not, keeps the full public picture: finalized
chain, world state, transaction pool, and receipts for transactions it
saw land in blocks.  Execution is deterministic, so each non-empty block
is executed once per run, by the first node that appends it
(`Cluster.execute_block`): every later node that appends the block takes
its receipt entries and applies its writes to its own world state.  A
node appends a block only onto its parent, and the same parent hash
means the same chain, so every node holds the same state before it.  A
marker reaches the private replay only at a node hosting its group.
Nodes hosting a privacy-group member additionally keep that group's key
and replay its encrypted operations in block order as the anchoring
markers finalize.  A marker is submitted only after every member enclave
has acknowledged its payload, so each operation is opened and applied in
the block that anchors its marker; a member whose enclave holds no copy
of the payload of the marker's group that passes its AEAD tag halts the
group instead of applying past the gap.  `Cluster.sent_ops` holds each
op a sender encoded in this run, with its group and bytes, under its
payload's hash, which the marker names.  A member always opens the
payload through its enclave, which reads the plaintext the payload
object was sealed with rather than decrypting it again (`privacy`),
takes the sender's op when the plaintext equals those bytes, and parses
any other plaintext with `decode_private_op`.

A sealed block enters a node down one path, `_take_block`, and is
checked once: on append when a peer pushed or synced it
(`on_sealed_block`), in consensus when the node's own validator sealed
it (`on_self_finalized`), whose append checks only for a conflict.
Only a block its own validator sealed is pushed on to the non-validator
nodes.  A node that finds itself behind asks one peer for the sealed
blocks above its head (`request_sync`); each block of the reply goes
through `on_sealed_block` like a push.  Gossip sent while a node was
cut off may never have arrived, so a node that catches up this way
gossips its pending transactions again.

A transaction's signature is checked at gossip intake, by each
validator in a proposal holding it, and when a peer's block holding it
is appended.  The check is derived once per transaction object, so a
later check of an object the node already admitted costs a lookup,
while a tampered copy is checked afresh and, inside a proposal or a
block, gets it dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from cryptography.exceptions import InvalidTag

from .contracts import (
    BlockWrites,
    BreachLedger,
    ExecError,
    GasSchedule,
    PrivateOp,
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
)
from .privacy import Enclave, GroupInfo
from .simulation import Network, Simulator, Targets

if TYPE_CHECKING:
    from .consensus import IbftValidator
    from .metrics import MetricsCollector

# Blocks in one sync reply; also how far above its head a node buffers a
# pushed block, since a sync refetches anything beyond.
SYNC_BATCH = 32


@dataclass(slots=True)
class ReceiptEntry:
    receipt: Receipt


class NodeRuntime:
    """One simulated node: chain follower, pool, and private replayer."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        network: Network,
        validators: ValidatorSet,
        schedule: GasSchedule,
        block_gas_limit: int,
    ):
        self.name = name
        self.sim = sim
        self.network = network
        self.state = PublicState(schedule)
        self.store = ChainStore(validators, block_gas_limit, self.state.nonces)
        self.pool = TxPool(self.state.nonces)
        self.enclave = Enclave()
        self.receipts: dict[bytes, ReceiptEntry] = {}
        self._receipt_waiters: dict[bytes, list[Callable[[ReceiptEntry], None]]] = {}
        self.group_ledgers: dict[bytes, BreachLedger] = {}
        self.private_op_failures: list[tuple[bytes, str]] = []
        self.future_blocks: dict[int, Block] = {}
        self.dropped_invalid_blocks = 0
        # Peer -> our head when we last asked it for blocks.
        self._synced: dict[str, int] = {}
        self.sync_requests = 0
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
        self._gossip(tx)

    def _gossip(self, tx: Transaction) -> None:
        gossip, _ = self.cluster.targets(self.name)
        self.network.send(self.name, gossip, "rpc", tx)

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
        """A block our own validator sealed from a commit quorum; consensus checked it and its seals."""
        self._take_block(sealed, True)

    def on_sealed_block(self, block: Block) -> None:
        """A fully sealed block arriving from another node."""
        self._take_block(block, False)

    def _take_block(self, block: Block, own: bool) -> None:
        """Append, apply and pass on `block`; `own` if this node's validator sealed (and so checked) it."""
        try:
            appended = self.store.append_block(block, checked=own)
        except DuplicateHeight as err:
            self.cluster.metrics.record_safety_violation(self.name, block.height, str(err))
            return
        except HeightGap:
            if block.height <= self.store.height + SYNC_BATCH:
                self.future_blocks[block.height] = block
            proposer = self.cluster.name_of.get(block.proposer)
            if proposer is not None:
                self.request_sync(proposer)
            return
        except LedgerError:
            self.dropped_invalid_blocks += 1
            return
        if not appended:
            return
        self._apply_block(block)
        if self.validator is not None:
            self.cluster.metrics.on_validator_finalized(self.name, block, self.sim.now)
            if own:
                self.network.send(self.name, self.cluster.targets(self.name)[1], "consensus", block)
            self.validator.start()
        # Drain any buffered successor.
        nxt = self.future_blocks.pop(self.store.height + 1, None)
        if nxt is not None:
            self.on_sealed_block(nxt)

    # -- block sync ---------------------------------------------------

    def request_sync(self, peer: str) -> None:
        """Ask `peer` for the sealed blocks above our head, once per (head, peer)."""
        head = self.store.height
        if peer == self.name or self._synced.get(peer) == head:
            return
        self._synced[peer] = head
        self.sync_requests += 1
        if self.sim.trace_enabled:
            self.sim.trace("sync_request", node=self.name, peer=peer, from_height=head + 1)
        serve = partial(self.cluster.nodes[peer].serve_sync, self.name)
        self.network.send(self.name, ((peer, serve),), "consensus", head + 1)

    def serve_sync(self, requester: str, from_height: int) -> None:
        """Send `requester` up to `SYNC_BATCH` stored blocks from `from_height` on."""
        blocks = tuple(self.store.blocks[from_height : from_height + SYNC_BATCH])
        if not blocks:
            return
        reply = partial(self.cluster.nodes[requester].on_sync_reply, self.name)
        self.network.send(self.name, ((requester, reply),), "consensus", blocks)

    def on_sync_reply(self, peer: str, blocks: tuple[Block, ...]) -> None:
        """Append a peer's blocks; once caught up, re-gossip the pool and, after a full reply, ask again."""
        head = self.store.height
        for block in blocks:
            self.on_sealed_block(block)
        if self.store.height == head:
            return
        for tx in self.pool.pending():
            self._gossip(tx)
        if len(blocks) == SYNC_BATCH:
            self.request_sync(peer)

    def _apply_block(self, block: Block) -> None:
        """Apply the block's public execution, then record each receipt in block order.

        The whole block's public execution comes first
        (`Cluster.execute_block`).  Then, one transaction at a time in
        block order, its receipt is recorded, its marker is replayed if
        this node hosts the group, and its waiters fire.  A receipt
        callback therefore sees the public state after the whole block.
        It may start a wait, also for a later transaction of the same
        block, or join a group, so the waiter table and the group
        ledgers are read afresh for each transaction.
        """
        txs = block.txs
        if txs:
            receipts, waiters, ledgers = self.receipts, self._receipt_waiters, self.group_ledgers
            for tx, entry in zip(txs, self.cluster.execute_block(self.state, block)):
                receipts[tx.tx_id] = entry
                if ledgers:
                    payload = tx.payload
                    if entry.receipt.ok and isinstance(payload, PrivacyMarker) and payload.group_id in ledgers:
                        self._on_marker(block.height, tx.sender, payload)
                if waiters:
                    for cb in waiters.pop(tx.tx_id, ()):
                        cb(entry)
        self.pool.remove_included(txs)

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

    def _on_marker(self, height: int, sender: bytes, marker: PrivacyMarker) -> None:
        """Open the anchored payload and apply its operation to this node's ledger of its group.

        The workload puts a marker on the chain only after every live
        member's enclave has acknowledged its payload, so a member that
        applies the marker's block already holds the payload.  If it
        holds no copy of the marker's group, or every such copy fails
        its AEAD tag, the group halts at once: nothing is applied past a missing
        operation, so members never diverge.
        """
        group_id = marker.group_id
        ledger = self.group_ledgers[group_id]
        try:
            plaintext = self.enclave.open(group_id, marker.payload_hash)
        except InvalidTag:
            plaintext = None
        if plaintext is None:
            ledger.halted = True
            self.private_op_failures.append((marker.payload_hash, "payload missing; group halted"))
            if self.sim.trace_enabled:
                self.sim.trace("group_halted", node=self.name, group=group_id.hex()[:16])
            return
        sent = self.cluster.sent_ops.get(marker.payload_hash)
        try:
            op = sent[2] if sent is not None and sent[1] == plaintext else decode_private_op(plaintext)
            ledger.apply(sender, op, marker.payload_hash)
            if self.sim.trace_enabled:
                self.sim.trace(
                    "private_op", node=self.name, group=group_id.hex()[:16],
                    op=type(op).__name__, height=height,
                )
        except (ExecError, ValueError) as err:
            reason = err.reason if isinstance(err, ExecError) else str(err)
            self.private_op_failures.append((marker.payload_hash, reason))


class Cluster:
    """All nodes of one run plus the routing glue between them."""

    def __init__(self, network: Network, metrics: "MetricsCollector", name_of: dict[bytes, str]):
        self.network = network
        self.metrics = metrics
        self.nodes: dict[str, NodeRuntime] = {}
        # Validator address -> the name of the node running it.
        self.name_of = name_of
        # Source node -> its (gossip, member push) targets, built on first use.
        self._targets: dict[str, tuple[Targets, Targets]] = {}
        # Each private op a sender encoded in this run, with its group and
        # bytes, under the hash of the payload that carries them.
        self.sent_ops: dict[bytes, tuple[bytes, bytes, PrivateOp]] = {}
        # Block hash -> the receipt entries and writes of each non-empty
        # block executed in this run.
        self.executed: dict[bytes, tuple[tuple[ReceiptEntry, ...], BlockWrites]] = {}

    def add_node(self, node: NodeRuntime) -> None:
        self.nodes[node.name] = node
        node.cluster = self
        self._targets.clear()

    def execute_block(self, state: PublicState, block: Block) -> tuple[ReceiptEntry, ...]:
        """The receipt entries of `block`'s transactions, with its writes applied to `state`.

        The first node to append the block executes it and fills the
        table; every later one adopts its writes.  `state` belongs to a
        node whose head is the block's parent, so it equals the state
        the block was executed at.
        """
        done = self.executed.get(block.hash)
        if done is None:
            receipts, writes = state.run_block(block.txs)
            done = self.executed[block.hash] = (tuple(map(ReceiptEntry, receipts)), writes)
        else:
            state.adopt(done[1])
        return done[0]

    def targets(self, src: str) -> tuple[Targets, Targets]:
        """Every node but `src`, in node order, bound to `receive_gossip`;
        every non-validator node but `src` bound to `on_sealed_block`."""
        pair = self._targets.get(src)
        if pair is None:
            others = [(name, node) for name, node in self.nodes.items() if name != src]
            pair = self._targets[src] = (
                tuple((name, node.receive_gossip) for name, node in others),
                tuple((name, node.on_sealed_block) for name, node in others if node.validator is None),
            )
        return pair

    def submit(self, node_name: str, tx: Transaction) -> None:
        """Client submission over local RPC to the node hosting it."""
        self.network.send(node_name, ((node_name, self.nodes[node_name].receive_tx),), "rpc", tx)

    def start_validators(self) -> None:
        for node in self.nodes.values():
            if node.validator is not None:
                node.validator.start()

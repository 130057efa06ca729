"""Post-run audits over a finished scenario.

These inspect the final object graph the way an examiner would inspect
captured disk and memory images: raw bytes for the isolation scan,
independent re-derivation for authorization, and cross-node comparison
for convergence.  They return findings instead of raising, so tests
can assert emptiness and tools can report details.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .contracts import BreachLedger
from .ledger import PrivacyMarker, block_wire
from .scenario import RunResult, wire_bytes


@dataclass(frozen=True)
class Finding:
    check: str
    node: str
    detail: str


def node_byte_image(result: RunResult, name: str) -> bytes:
    """Everything a node persists: chain, world state, enclave store."""
    node = result.cluster.nodes[name]
    chain = b"".join(block_wire(block) for block in node.store.blocks)
    return chain + node.state.encode() + node.enclave.dump_bytes()


def isolation_scan(result: RunResult) -> list[Finding]:
    """Look for private plaintext or group keys outside the group.

    For every private payload, every node that hosts neither group
    member must show no trace of the plaintext bytes or the group key
    anywhere in its byte image.  When the run captured wire traffic,
    every message is scanned as well: keys and plaintexts must never
    cross the network at all, only ciphertext does.  The plaintexts are
    the run's sent payloads (`Cluster.sent_ops`), in the order sent.
    """
    findings: list[Finding] = []
    if not result.groups:
        return findings
    images = {name: node_byte_image(result, name) for name in result.config.node_names}
    wire_log = result.cluster.network.wire_log
    wire_image = b"\x00".join(wire_bytes(item) for _, _, item in wire_log) if wire_log else b""
    plaintexts_of: dict[bytes, list[bytes]] = {}
    for gid, plaintext, _ in result.cluster.sent_ops.values():
        plaintexts_of.setdefault(gid, []).append(plaintext)
    for group in result.groups.values():
        gid = group.group_id.hex()[:16]
        places = [(n, images[n], "present") for n in result.config.node_names if n not in group.member_nodes]
        places.append(("wire", wire_image, "on the wire"))
        for where, image, verb in places:
            if group.key in image:
                findings.append(Finding("isolation", where, f"group key of {gid} {verb}"))
            for i, plaintext in enumerate(plaintexts_of.get(group.group_id, [])):
                if plaintext in image:
                    findings.append(Finding("isolation", where, f"plaintext {i} of group {gid} {verb}"))
    return findings


def _grows_into(short: BreachLedger, long: BreachLedger) -> bool:
    """Whether applying further operations to `short` can give `long`."""
    return (
        short.members == long.members
        and short.agreement in (None, long.agreement)
        and short.records == long.records[: len(short.records)]
        and short.batches == long.batches[: len(short.batches)]
        and (long.halted or not short.halted)
    )


def member_state_consistency(result: RunResult) -> list[Finding]:
    """Each group's private ledger must be byte-identical at its alive members.

    A crashed member applies nothing after its crash, so its ledger need
    only be a prefix of a peer's (`_grows_into`): a member that stopped
    early is told from one that diverged, as `convergence` tells a
    lagging chain from a forked one.
    """
    findings: list[Finding] = []
    crashed = result.cluster.network.crashed
    for group in result.groups.values():
        gid = group.group_id.hex()[:16]
        ledgers = {}
        for name in group.member_nodes:
            ledger = result.cluster.nodes[name].group_ledgers.get(group.group_id)
            if ledger is None:
                findings.append(Finding("member-state", name, f"no ledger for group {gid}"))
                continue
            ledgers[name] = ledger
        if not all(
            a.encode() == b.encode() or (m in crashed and _grows_into(a, b)) or (n in crashed and _grows_into(b, a))
            for (m, a), (n, b) in combinations(ledgers.items(), 2)
        ):
            detail = f"divergent private state for group {gid}"
            findings.append(Finding("member-state", ",".join(sorted(ledgers)), detail))
    return findings


def convergence(result: RunResult) -> list[Finding]:
    """All alive nodes must hold one chain and one state, and keep up.

    A block first finalized at least `grace_ms` before the run ended is
    settled, and an alive node short of it is a laggard; a later block
    may still be on its way.  Byzantine validators are held to both: every
    strategy counts the commits of its own height, and an `echo`
    validator, which stores no proposal, syncs a block once a quorum
    has committed it.
    """
    findings: list[Finding] = []
    nodes = result.cluster.nodes
    alive = [n for n in nodes if n not in result.cluster.network.crashed]
    if not alive:
        return findings
    heights = {name: nodes[name].store.height for name in alive}
    top = nodes[max(alive, key=heights.__getitem__)].store
    for name in alive:
        store = nodes[name].store
        for h in range(heights[name] + 1):
            if store.hash_at(h) != top.hash_at(h):
                findings.append(Finding("convergence", name, f"chain hash differs at height {h}"))
                break
    cutoff = result.sim.now - result.config.run.grace_ms
    settled = 0
    for h in range(1, top.height + 1):
        at = result.metrics.first_finalized_at(h)
        if at is not None and at <= cutoff:
            settled = h
    for name in alive:
        if heights[name] < settled:
            findings.append(Finding("convergence", name, f"at height {heights[name]}, below settled height {settled}"))
    # State digests may only be compared between nodes at equal height.
    by_height: dict[int, dict[str, bytes]] = {}
    for name in alive:
        by_height.setdefault(heights[name], {})[name] = nodes[name].state.state_digest()
    for height, digests in by_height.items():
        if len(set(digests.values())) > 1:
            findings.append(
                Finding("convergence", ",".join(sorted(digests)), f"state digest differs at height {height}")
            )
    return findings


def authorization_replay(result: RunResult) -> list[Finding]:
    """Re-derive every authorization decision from chain and group data.

    Every anchored marker for a known group must have been sent by a
    group member, and every breach record in a member ledger must name
    a member as its reporter.  Markers are read from the longest chain
    any node holds, as `convergence` takes its `top`: a crashed node's
    chain may stop short of it.
    """
    findings: list[Finding] = []
    nodes = result.cluster.nodes
    ref_name = max(nodes, key=lambda name: nodes[name].store.height)
    for block in nodes[ref_name].store.blocks:
        for tx in block.txs:
            if isinstance(tx.payload, PrivacyMarker):
                group = result.groups.get(tx.payload.group_id)
                if group is not None and tx.sender not in group.members:
                    detail = f"marker at height {block.height} sent by non-member {tx.sender.hex()[:12]}"
                    findings.append(Finding("authorization", ref_name, detail))
    for name, node in nodes.items():
        for gid, ledger in node.group_ledgers.items():
            for i, record in enumerate(ledger.records):
                if record.reporter not in ledger.members:
                    findings.append(
                        Finding("authorization", name, f"record {i} in group {gid.hex()[:16]} from non-member")
                    )
    return findings
